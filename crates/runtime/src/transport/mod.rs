//! The pluggable halo-exchange transport.
//!
//! The distributed stepper ([`crate::distributed`]) speaks to its peers only
//! through the [`Transport`] trait: post a level-tagged partial-force payload
//! to a peer, receive the next incoming payload. Two backends implement the
//! contract:
//!
//! * `channel::ChannelTransport` — the in-process fabric: one bounded ring
//!   of recycled payload slots per directed rank pair, a condvar doorbell
//!   per rank and backpressure on a full ring (the shape of a real
//!   shared-memory MPI fabric), with optional link-latency shaping of
//!   delivery ([`channel::channel_cluster_with`]);
//! * [`socket::SocketTransport`] — length-prefixed frames over Unix domain
//!   sockets through a star router, the same wire codec the multi-process
//!   `wave-lts worker` runner uses (see [`crate::process`]).
//!
//! Every backend must pass the same conformance battery
//! (`tests/transport_conformance.rs`: ordering, addressing, payload
//! bit-integrity, backpressure, disconnect semantics), and any backend can
//! be wrapped in a `faulty::FaultyTransport` to inject delays, drops and
//! peer death for the fault-cascade tests.
//!
//! ## Disconnect semantics
//!
//! Dropping (or [`Transport::close`]-ing) an endpoint delivers a *goodbye*
//! to every peer, after all previously posted messages (FIFO). A receiver
//! that still awaits a payload from that peer surfaces the disconnect as an
//! error instead of blocking forever — this is what turns a mid-run rank
//! death into a clean [`crate::RuntimeError`] cascade on every rank.

pub mod channel;
pub mod codec;
pub mod faulty;
#[cfg(unix)]
pub mod socket;

use std::fmt;
use std::time::Duration;

/// Which backend the runtime should build for an in-process run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Bounded in-process rings per directed rank pair (the default).
    Channel,
    /// Unix-socket star router speaking the versioned wire codec.
    UnixSocket,
}

impl TransportKind {
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::UnixSocket => "unix-socket",
        }
    }

    /// Parse a CLI spelling (`channel` | `socket` | `unix-socket` | `unix`).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "channel" => Some(TransportKind::Channel),
            "socket" | "unix-socket" | "unix" => Some(TransportKind::UnixSocket),
            _ => None,
        }
    }
}

/// Classified error for an out-of-range peer index. `#[cold]` keeps the
/// message formatting off the hot send path (and out of the semantic
/// lint's hot-path traversal).
#[cold]
pub(crate) fn bad_peer(peer: usize) -> TransportError {
    TransportError::Io(format!("invalid peer {peer}"))
}

/// Transport-level failures. The rank loop maps these onto
/// [`crate::RuntimeError`] variants with rank/level context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer's endpoint is gone (send refused or goodbye observed).
    Disconnected { peer: usize },
    /// The whole fabric is gone: nothing can ever arrive again.
    Closed,
    /// A timed receive elapsed with no message.
    Timeout,
    /// A frame failed to decode (socket backends).
    Codec(codec::CodecError),
    /// An OS-level I/O failure (socket backends).
    Io(String),
    /// A configured fault fired (see `faulty::FaultyTransport`).
    Injected,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected { peer } => write!(f, "peer {peer} disconnected"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::Codec(e) => write!(f, "wire codec error: {e}"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Injected => write!(f, "injected fault"),
        }
    }
}

impl std::error::Error for TransportError {}

/// What a successful receive yielded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recv {
    /// A halo payload from `from`, tagged with its LTS level and the
    /// sender-assigned per-edge sequence number; the payload doubles were
    /// appended to the caller's buffer.
    Msg { from: usize, level: u8, seq: u64 },
    /// `from`'s endpoint closed; no further message from it will ever
    /// arrive. Delivered after all of `from`'s earlier messages (FIFO).
    Goodbye { from: usize },
}

/// Per-endpoint traffic accounting, stamped into the rank's metrics registry
/// as backend-labelled gauges after the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportMetrics {
    /// Halo messages posted by this endpoint.
    pub msgs_sent: u64,
    /// Total `f64` values posted.
    pub(crate) doubles_sent: u64,
    /// Payload bytes copied into ring slots or put on the wire.
    pub(crate) bytes_sent: u64,
    /// Seconds this endpoint spent blocked in `send` on backpressure.
    pub(crate) send_block_s: f64,
}

/// One rank's endpoint of the halo-exchange fabric.
///
/// Contract every backend (and the conformance suite) relies on:
///
/// * **per-sender FIFO** — two messages from the same sender arrive in the
///   order they were sent; no ordering across senders;
/// * **bit integrity** — payload `f64`s arrive with identical bit patterns
///   (including NaN payloads, infinities, signed zeros, subnormals);
/// * **goodbye after drain** — a dropped endpoint's goodbye is observed
///   only after everything it sent has been received.
pub trait Transport: Send {
    fn rank(&self) -> usize;
    fn n_ranks(&self) -> usize;
    /// Stable backend label (metric gauge label, bench comparisons).
    fn backend(&self) -> &'static str;

    /// Post `payload` to `peer`, tagged with `level` and the caller's
    /// per-directed-edge sequence number `seq` (carried opaquely — the
    /// flight recorder matches a recv event to its send event by it, so a
    /// transport must deliver it bit-exactly, never synthesize it). May
    /// block on backpressure (bounded backends); must not block
    /// indefinitely once the peer is gone.
    fn send(
        &mut self,
        peer: usize,
        level: u8,
        seq: u64,
        payload: &[f64],
    ) -> Result<(), TransportError>;

    /// Push any buffered frames onto the wire (socket backends batch the
    /// per-peer sends of one exchange into one syscall burst).
    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Blocking receive: append the next payload to `buf` (which is cleared
    /// first) and return its origin, or the next goodbye.
    fn recv_into(&mut self, buf: &mut Vec<f64>) -> Result<Recv, TransportError> {
        // blocking forever is this method's contract; the exchange loop
        // calls the watchdog variant
        self.recv_into_timeout(buf, None)
    }

    /// [`Transport::recv_into`] with an optional timeout; `None` blocks.
    fn recv_into_timeout(
        &mut self,
        buf: &mut Vec<f64>,
        timeout: Option<Duration>,
    ) -> Result<Recv, TransportError>;

    /// Best-effort non-blocking poll: `Ok(Some(..))` if a message or goodbye
    /// was already delivered, `Ok(None)` if nothing is ready *or the backend
    /// cannot poll cheaply* (the default — a blocking stream cannot peek
    /// without risking frame alignment). Callers must treat `None` as "use
    /// the blocking path", never as "the fabric is idle". Polling must not
    /// lose or reorder messages relative to [`Transport::recv_into`].
    fn try_recv_into(&mut self, buf: &mut Vec<f64>) -> Result<Option<Recv>, TransportError> {
        let _ = buf;
        Ok(None)
    }

    /// Traffic accounting so far.
    fn metrics(&self) -> TransportMetrics {
        TransportMetrics::default()
    }

    /// Tear this endpoint down so peers observe the disconnect. Dropping the
    /// endpoint must have the same effect; `close` makes it explicit (and
    /// idempotent) for fault injection.
    fn close(&mut self) {}
}

/// Boxed endpoints are endpoints too (what [`make_cluster`] hands out and
/// what [`faulty::wrap`] decorates).
impl Transport for Box<dyn Transport> {
    fn rank(&self) -> usize {
        (**self).rank()
    }

    fn n_ranks(&self) -> usize {
        (**self).n_ranks()
    }

    fn backend(&self) -> &'static str {
        (**self).backend()
    }

    fn send(
        &mut self,
        peer: usize,
        level: u8,
        seq: u64,
        payload: &[f64],
    ) -> Result<(), TransportError> {
        (**self).send(peer, level, seq, payload)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        (**self).flush()
    }

    fn recv_into_timeout(
        &mut self,
        buf: &mut Vec<f64>,
        timeout: Option<Duration>,
    ) -> Result<Recv, TransportError> {
        (**self).recv_into_timeout(buf, timeout)
    }

    fn try_recv_into(&mut self, buf: &mut Vec<f64>) -> Result<Option<Recv>, TransportError> {
        (**self).try_recv_into(buf)
    }

    fn metrics(&self) -> TransportMetrics {
        (**self).metrics()
    }

    fn close(&mut self) {
        (**self).close()
    }
}

/// Build one connected cluster of `n` endpoints of the requested backend.
/// Fails when the backend cannot be built: socket-pair creation on fd
/// exhaustion, or the unix-socket backend on a non-unix host.
pub fn make_cluster(
    kind: TransportKind,
    n: usize,
) -> Result<Vec<Box<dyn Transport>>, TransportError> {
    match kind {
        TransportKind::Channel => Ok(channel::channel_cluster(n)),
        #[cfg(unix)]
        TransportKind::UnixSocket => {
            socket::in_process_cluster(n).map_err(|e| TransportError::Io(e.to_string()))
        }
        #[cfg(not(unix))]
        TransportKind::UnixSocket => Err(TransportError::Io(
            "the unix-socket backend needs a unix host".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for kind in [TransportKind::Channel, TransportKind::UnixSocket] {
            assert_eq!(TransportKind::parse(kind.name()), Some(kind));
        }
        // the retired shared-memory ring spellings name no backend now
        for retired in ["shm", "shm-ring", "ring"] {
            assert_eq!(TransportKind::parse(retired), None);
        }
        assert_eq!(
            TransportKind::parse("socket"),
            Some(TransportKind::UnixSocket)
        );
        assert_eq!(TransportKind::parse("tcp6"), None);
    }

    #[test]
    fn make_cluster_builds_every_kind() {
        for kind in [TransportKind::Channel, TransportKind::UnixSocket] {
            let eps = make_cluster(kind, 3).unwrap();
            assert_eq!(eps.len(), 3);
            for (r, ep) in eps.iter().enumerate() {
                assert_eq!(ep.rank(), r);
                assert_eq!(ep.n_ranks(), 3);
                assert_eq!(ep.backend(), kind.name());
            }
        }
    }
}
