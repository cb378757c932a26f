//! A message-passing runtime for partitioned LTS-Newmark.
//!
//! Each rank is an OS thread (or a `wave-lts worker` process) holding only
//! its own partition in rank-local numbering; the only communication is
//! the *assembly exchange* of partial force contributions on interface
//! DOFs after every masked operator application — exactly the MPI pattern
//! of SPECFEM3D (Sec. III). A force at level `k` is exchanged `2^k`
//! times per LTS cycle, which is why an unbalanced partition stalls at every
//! sub-step (the paper's Fig. 1); per-rank busy/wait accounting makes that
//! stall measurable. The paper's Eq. 21 load imbalance λ is computed once,
//! after the run, from the ranks' busy times ([`lambda_from_stats`]); the
//! optional stall monitor ([`monitor`]) watches each rank's own exchange
//! waits while it runs, the same in rank threads and `wave-lts worker`
//! processes.
//!
//! Shared interface DOFs are updated redundantly by every touching rank from
//! identical assembled forces (partials are summed in rank order), so ranks
//! stay bitwise consistent with the serial stepper — asserted by the
//! integration tests.

#![forbid(unsafe_code)]
// Non-test code returns errors instead of panicking: no unwrap/expect or
// panic-family macro outside the test modules (`assert!` states an
// invariant and stays allowed).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod distributed;
pub mod error;
pub mod exchange;
pub mod local;
pub mod monitor;
pub mod postmortem;
#[cfg(unix)]
pub mod process;
pub mod stats;
pub mod transport;

pub use distributed::{
    run, run_distributed_local_acoustic_flight, run_distributed_local_acoustic_observed, run_rank,
    DistributedConfig, RunOutput, RunResult, RunSpec,
};
pub use error::RuntimeError;
pub use local::{Acoustic, Decompose, Elastic};
pub use monitor::MonitorConfig;
pub use stats::{ascii_timeline, lambda_from_stats, profile_json, LevelStats, RankStats};
pub use transport::faulty::FaultPlan;
pub use transport::{Transport, TransportKind};
