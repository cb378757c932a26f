//! # lts-obs — structured observability for the LTS stack
//!
//! The paper's two core diagnostics are the per-rank busy/stall timeline of
//! Fig. 1 and the per-level imbalance of Eq. 21; both require *accounting*,
//! not printf. This crate provides the accounting layer every other crate
//! records into:
//!
//! * [`MetricsRegistry`] — typed counters, gauges and timing histograms
//!   (count, sum, min and max) keyed by `(name, LTS level, label)`.
//!   Counters of element operations, exchange messages and DOF volumes are
//!   **exact integers independent of timing**, which makes them usable as
//!   test oracles (see `tests/obs_integration.rs` and
//!   `tests/proptest_obs.rs` at the workspace root).
//! * [`span!`] — scoped timing of a phase, recorded as a histogram
//!   observation.
//! * [`export`] — hand-rolled JSON and CSV serialization *and parsing* (the
//!   environment has no serde), so bench binaries emit — and `bench-compare`
//!   re-reads — machine-readable profiles.
//! * [`flight`] — the distributed flight recorder: fixed-capacity
//!   allocation-free per-rank event rings with monotone send/recv sequence
//!   numbers, a causal cross-rank merge (happens-before via matched seqs)
//!   and a critical-path analyzer. The rings are the one per-event record
//!   of a run: every timeline, trace and crash report is derived from them.
//! * [`chrome`] — a Chrome Trace Format (`trace_event`) builder and
//!   checker. [`flight_chrome_trace`] is its one producer: labelled runs of
//!   recordings render into a file loadable in `chrome://tracing`/Perfetto
//!   (pid = run, tid = rank, one category per LTS level).
//!
//! The registry is deliberately *single-owner* (`&mut self` everywhere): the
//! runtime gives each rank its own registry on its own thread and merges
//! after the join, so the hot path pays one branch and one integer add per
//! record — no atomics, no locks.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod export;
pub mod flight;
pub mod registry;
pub mod span;

pub use chrome::validate_trace;
pub use export::{registry_to_csv, registry_to_json, Json};
pub use flight::{
    critical_path, flight_chrome_trace, merge_recordings, EventKind, FlightEvent, FlightRecorder,
    RankRecording, NO_LEVEL, NO_PEER,
};
pub use registry::{Histogram, Key, Metric, MetricsRegistry};
