//! Error type for the distributed runtime.
//!
//! The rank loops used to `expect()` on channel operations; under the
//! workspace `no-panic` lint every fallible exchange step now surfaces a
//! [`RuntimeError`] instead. Failure of one rank cascades deterministically
//! through the transport's *goodbye* protocol (see
//! [`crate::transport::Transport`]): when a rank's endpoint closes — whether
//! from a clean exit, a panic unwinding the rank thread, or an injected
//! fault killing it mid-run — every peer observes a goodbye after the dead
//! rank's already-posted messages drain. A survivor that still awaits a
//! partial from that rank turns the goodbye into
//! [`RuntimeError::PeerDisconnected`] and unwinds, closing its own endpoint,
//! so the cascade reaches every rank of the communicator instead of
//! deadlocking the survivors. The fault-injection suite in
//! `tests/distributed_integration.rs` exercises exactly this property at
//! every LTS level.

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A peer's endpoint is gone mid-exchange: either a send to it was
    /// refused, or its goodbye arrived while this rank still awaited a
    /// partial from it.
    PeerDisconnected {
        rank: usize,
        peer: usize,
        level: usize,
    },
    /// The whole fabric is gone: nothing can ever arrive again.
    ChannelClosed { rank: usize, level: usize },
    /// The exchange plan's shared-DOF list references a rank that is not in
    /// this rank's peer list for the level (plan construction bug).
    NotAPeer {
        rank: usize,
        peer: usize,
        level: usize,
    },
    /// A receive timed out while awaiting assembly partials (only with a
    /// timeout-injecting transport wrapper; real backends block).
    ExchangeTimeout { rank: usize, level: usize },
    /// An injected fault fired on this rank (see
    /// `crate::transport::faulty::FaultyTransport`).
    FaultInjected { rank: usize, level: usize },
    /// A peer's payload length did not match the exchange plan's shared-DOF
    /// count, or its level tag did not match the awaited exchange.
    BadPayload {
        rank: usize,
        peer: usize,
        level: usize,
    },
    /// The transport failed below the exchange protocol (socket I/O, wire
    /// codec).
    TransportIo {
        rank: usize,
        level: usize,
        detail: String,
    },
    /// A rank thread panicked, or a `wave-lts worker` process exited
    /// without a report (the panic payload is not preserved; the panic
    /// message itself goes to stderr when it happens).
    RankPanicked { rank: usize },
    /// A rank produced no result slot (internal bookkeeping bug).
    MissingRank { rank: usize },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::PeerDisconnected { rank, peer, level } => write!(
                f,
                "rank {rank}: peer {peer} hung up during level-{level} exchange"
            ),
            RuntimeError::ChannelClosed { rank, level } => write!(
                f,
                "rank {rank}: transport closed while awaiting level-{level} partials"
            ),
            RuntimeError::NotAPeer { rank, peer, level } => write!(
                f,
                "rank {rank}: shared-DOF list names rank {peer}, not a level-{level} peer"
            ),
            RuntimeError::ExchangeTimeout { rank, level } => {
                write!(f, "rank {rank}: timed out awaiting level-{level} partials")
            }
            RuntimeError::FaultInjected { rank, level } => write!(
                f,
                "rank {rank}: injected fault fired during level-{level} exchange"
            ),
            RuntimeError::BadPayload { rank, peer, level } => write!(
                f,
                "rank {rank}: malformed level-{level} partial from peer {peer}"
            ),
            RuntimeError::TransportIo {
                rank,
                level,
                detail,
            } => write!(
                f,
                "rank {rank}: transport failure during level-{level} exchange: {detail}"
            ),
            RuntimeError::RankPanicked { rank } => write!(f, "rank {rank} panicked"),
            RuntimeError::MissingRank { rank } => write!(f, "no result from rank {rank}"),
        }
    }
}

impl std::error::Error for RuntimeError {}
