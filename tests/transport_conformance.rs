//! Every transport backend must pass the same conformance battery — the
//! "pluggable" in "pluggable transport" is this file.
//!
//! The suite itself lives in `runtime::transport::conformance` so backends
//! added later inherit it; these tests just instantiate it per backend,
//! including a fault-wrapped fabric whose injected delays must not change
//! any observable semantics.

use std::time::Duration;
use wave_lts::runtime::transport::channel::{self, channel_cluster_with};
use wave_lts::runtime::transport::conformance::{run_suite, Checks};
use wave_lts::runtime::transport::faulty::{wrap, FaultPlan};
use wave_lts::runtime::transport::{make_cluster, Transport, TransportKind};

/// The link latency of the shaped cases: about one rank's sub-step.
const LATENCY: Duration = Duration::from_micros(500);

/// A unix-socket cluster, checked to be one on every endpoint: a leg that
/// ran over another backend would test that backend instead.
#[cfg(unix)]
fn unix_socket_cluster(n: usize) -> Vec<Box<dyn Transport>> {
    let eps = make_cluster(TransportKind::UnixSocket, n).expect("unix-socket cluster");
    for ep in &eps {
        assert_eq!(ep.backend(), "unix-socket", "rank {}", ep.rank());
    }
    eps
}

#[test]
fn channel_backend_conforms() {
    run_suite(
        |n| make_cluster(TransportKind::Channel, n).unwrap(),
        Checks::default(),
    );
}

/// A deliberately tiny ring (2 slots) forces the backpressure path through
/// the whole battery, not just the backpressure check.
#[test]
fn channel_backend_conforms_under_tiny_capacity() {
    run_suite(
        |n| channel_cluster_with(n, 2, Duration::ZERO),
        Checks::default(),
    );
}

#[cfg(unix)]
#[test]
fn unix_socket_backend_conforms() {
    run_suite(unix_socket_cluster, Checks::default());
}

/// Link-latency shaping (delivery matures `latency` after the send was
/// posted) delays observation only; FIFO, addressing, integrity and
/// disconnect semantics must survive unchanged.
#[test]
fn latency_shaped_channel_conforms() {
    run_suite(
        |n| channel_cluster_with(n, channel::DEFAULT_CAPACITY, LATENCY),
        Checks::default(),
    );
}

/// Backpressure and latency together: messages still on the wire hold
/// their slots, so a 2-slot ring stalls the sender until they land.
#[test]
fn latency_shaped_channel_conforms_under_tiny_capacity() {
    run_suite(|n| channel_cluster_with(n, 2, LATENCY), Checks::default());
}

/// Injected send delays shape timing only; every conformance property must
/// survive unchanged.
#[test]
fn delay_injecting_wrapper_changes_nothing() {
    let plan = FaultPlan {
        send_delay_us: 200,
        ..FaultPlan::default()
    };
    run_suite(
        |n| {
            make_cluster(TransportKind::Channel, n)
                .unwrap()
                .into_iter()
                .map(|ep| wrap(ep, plan))
                .collect::<Vec<Box<dyn Transport>>>()
        },
        Checks::default(),
    );
}

/// Flight-recorder seq matching must survive injected drops and forced
/// recv timeouts: gaps in the delivered seq stream are fine, desyncs (a
/// recv matching the wrong send) are not — asserted per backend via the
/// causal merge's lamport ordering.
mod seq_integrity {
    use std::time::Duration;
    use wave_lts::runtime::transport::channel::channel_cluster_with;
    use wave_lts::runtime::transport::conformance::seq_integrity_under_faults;
    use wave_lts::runtime::transport::{make_cluster, TransportKind};

    #[test]
    fn channel_seqs_survive_faults() {
        seq_integrity_under_faults(|n| make_cluster(TransportKind::Channel, n).unwrap());
    }

    #[test]
    fn channel_seqs_survive_faults_at_small_capacity() {
        seq_integrity_under_faults(|n| channel_cluster_with(n, 4, Duration::ZERO));
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_seqs_survive_faults() {
        seq_integrity_under_faults(super::unix_socket_cluster);
    }
}
