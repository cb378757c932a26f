//! The in-process backend: bounded rings with doorbells.
//!
//! One bounded ring of payload slots per *directed* rank pair plus a per-rank
//! doorbell, which is the shape of a real shared-memory MPI fabric: senders
//! copy into a bounded segment and block on backpressure when the consumer
//! lags; receivers sleep on their doorbell instead of polling n−1 rings.
//!
//! Slots are recycled through a per-ring free list, so the steady-state hot
//! path allocates nothing (see `lint/hotpaths.toml`). Disconnects follow the
//! module-level goodbye protocol: closing an endpoint marks every inbound
//! ring closed (waking any peer blocked in `send` with an error) and rings
//! every peer's doorbell with a goodbye bell, FIFO-after its earlier bells.
//!
//! A cluster may also shape *delivery* with a link latency: every message
//! is stamped `ready_at = post + latency` and its bell stays unanswered
//! until then, like an in-flight MPI message. The sender is not held up by
//! the wire (only by a full ring), unlike the `FaultyTransport` send delay
//! which stalls the sending rank. The comm/compute-overlap experiments use
//! it to expose the latency hiding the paper's asynchronous exchange
//! provides, even on hosts without real parallelism.

use super::{bad_peer, Recv, Transport, TransportError, TransportMetrics};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Slots per directed pair. Small enough that an imbalanced run actually
/// exercises backpressure, large enough that a balanced run never blocks.
pub const DEFAULT_CAPACITY: usize = 8;

/// Poison-tolerant lock: a panicking peer thread must degrade into the
/// goodbye/disconnect path, not propagate panics through the fabric.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct RingBuf {
    queue: VecDeque<(u8, u64, Vec<f64>)>,
    free: Vec<Vec<f64>>,
    closed: bool,
}

/// One directed sender→receiver ring.
struct PairRing {
    buf: Mutex<RingBuf>,
    not_full: Condvar,
    cap: usize,
}

enum Bell {
    /// A message from `from`, deliverable from `ready_at` on (`None` =
    /// immediately).
    Msg {
        from: usize,
        ready_at: Option<Instant>,
    },
    Bye(usize),
}

/// A rank's wake-up queue: one bell per inbound message or goodbye.
struct Doorbell {
    bells: Mutex<VecDeque<Bell>>,
    ready: Condvar,
}

struct ClusterState {
    /// Flat `[from * n + to]`; the diagonal is never used.
    rings: Vec<PairRing>,
    doorbells: Vec<Doorbell>,
    n: usize,
    /// Emulated wire latency (zero = immediate delivery).
    latency: Duration,
}

impl ClusterState {
    fn ring(&self, from: usize, to: usize) -> &PairRing {
        &self.rings[from * self.n + to]
    }
}

/// One rank's endpoint of the in-process fabric.
pub(crate) struct ChannelTransport {
    rank: usize,
    state: Arc<ClusterState>,
    closed: bool,
    metrics: TransportMetrics,
}

/// Build `n` fully connected endpoints with [`DEFAULT_CAPACITY`] slots per
/// directed pair and immediate delivery.
pub(crate) fn channel_cluster(n: usize) -> Vec<Box<dyn Transport>> {
    channel_cluster_with(n, DEFAULT_CAPACITY, Duration::ZERO)
}

/// Build `n` endpoints over rings of `capacity` slots each (at least one)
/// whose messages take `latency` to "cross the wire". The conformance suite
/// uses a tiny `capacity` to force the backpressure path.
pub fn channel_cluster_with(
    n: usize,
    capacity: usize,
    latency: Duration,
) -> Vec<Box<dyn Transport>> {
    let cap = capacity.max(1);
    let rings = (0..n * n)
        .map(|_| PairRing {
            buf: Mutex::new(RingBuf {
                queue: VecDeque::with_capacity(cap),
                free: Vec::with_capacity(cap),
                closed: false,
            }),
            not_full: Condvar::new(),
            cap,
        })
        .collect();
    let doorbells = (0..n)
        .map(|_| Doorbell {
            bells: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        })
        .collect();
    let state = Arc::new(ClusterState {
        rings,
        doorbells,
        n,
        latency,
    });
    (0..n)
        .map(|rank| {
            Box::new(ChannelTransport {
                rank,
                state: Arc::clone(&state),
                closed: false,
                metrics: TransportMetrics::default(),
            }) as Box<dyn Transport>
        })
        .collect()
}

#[cold]
fn desync() -> TransportError {
    TransportError::Io(String::from("ring/doorbell desync"))
}

/// Pop the front bell if it is deliverable now. Otherwise report when it
/// will be: `Err(Some(t))` for a message still on the wire until `t`,
/// `Err(None)` for an empty doorbell. Bells are answered strictly in order,
/// so a maturing message holds back everything rung after it (per-sender
/// FIFO, goodbye after drain).
fn pop_ready(bells: &mut VecDeque<Bell>) -> Result<Bell, Option<Instant>> {
    if let Some(Bell::Msg {
        ready_at: Some(ready),
        ..
    }) = bells.front()
    {
        if *ready > Instant::now() {
            return Err(Some(*ready));
        }
    }
    bells.pop_front().ok_or(None)
}

impl ChannelTransport {
    /// Turn a popped doorbell into the received message/goodbye, recycling
    /// the ring slot and waking a sender blocked on backpressure.
    fn consume_bell(&mut self, bell: Bell, buf: &mut Vec<f64>) -> Result<Recv, TransportError> {
        match bell {
            Bell::Bye(from) => Ok(Recv::Goodbye { from }),
            Bell::Msg { from, .. } => {
                let ring = self.state.ring(from, self.rank);
                let mut rb = lock(&ring.buf);
                let Some((level, seq, slot)) = rb.queue.pop_front() else {
                    return Err(desync());
                };
                buf.extend_from_slice(&slot);
                if rb.free.len() < ring.cap {
                    rb.free.push(slot);
                }
                drop(rb);
                ring.not_full.notify_one();
                Ok(Recv::Msg { from, level, seq })
            }
        }
    }
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn n_ranks(&self) -> usize {
        self.state.n
    }

    fn backend(&self) -> &'static str {
        "channel"
    }

    fn send(
        &mut self,
        peer: usize,
        level: u8,
        seq: u64,
        payload: &[f64],
    ) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        if peer == self.rank || peer >= self.state.n {
            return Err(bad_peer(peer));
        }
        let ring = self.state.ring(self.rank, peer);
        let mut buf = lock(&ring.buf);
        while buf.queue.len() >= ring.cap && !buf.closed {
            let t0 = Instant::now();
            // lint: allow(lock-block) — backpressure by design: a full ring
            // must stall the producer, and a dead peer closes the ring
            buf = match ring.not_full.wait(buf) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            self.metrics.send_block_s += t0.elapsed().as_secs_f64();
        }
        if buf.closed {
            return Err(TransportError::Disconnected { peer });
        }
        let mut slot = buf.free.pop().unwrap_or_default();
        slot.clear();
        slot.extend_from_slice(payload);
        buf.queue.push_back((level, seq, slot));
        drop(buf);
        self.metrics.msgs_sent += 1;
        self.metrics.doubles_sent += payload.len() as u64;
        self.metrics.bytes_sent += 8 * payload.len() as u64;
        let latency = self.state.latency;
        let ready_at = (!latency.is_zero()).then(|| Instant::now() + latency);
        let db = &self.state.doorbells[peer];
        lock(&db.bells).push_back(Bell::Msg {
            from: self.rank,
            ready_at,
        });
        db.ready.notify_one();
        Ok(())
    }

    fn recv_into_timeout(
        &mut self,
        buf: &mut Vec<f64>,
        timeout: Option<Duration>,
    ) -> Result<Recv, TransportError> {
        buf.clear();
        let db = &self.state.doorbells[self.rank];
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut bells = lock(&db.bells);
        let bell = loop {
            let landing = match pop_ready(&mut bells) {
                Ok(b) => break b,
                Err(landing) => landing,
            };
            // sleep until the front message lands, a new bell rings or the
            // deadline passes, whichever comes first
            let wake = match (landing, deadline) {
                (Some(l), Some(d)) => Some(l.min(d)),
                (l, d) => l.or(d),
            };
            bells = match wake {
                // lint: allow(lock-block) — the None deadline means block
                // by contract; the exchange loop passes a watchdog
                None => match db.ready.wait(bells) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                },
                Some(w) => {
                    let now = Instant::now();
                    if deadline.is_some_and(|d| now >= d) {
                        return Err(TransportError::Timeout);
                    }
                    if w <= now {
                        continue;
                    }
                    match db.ready.wait_timeout(bells, w - now) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    }
                }
            };
        };
        drop(bells);
        self.consume_bell(bell, buf)
    }

    fn try_recv_into(&mut self, buf: &mut Vec<f64>) -> Result<Option<Recv>, TransportError> {
        buf.clear();
        let db = &self.state.doorbells[self.rank];
        let bell = match pop_ready(&mut lock(&db.bells)) {
            Ok(b) => b,
            Err(_) => return Ok(None),
        };
        self.consume_bell(bell, buf).map(Some)
    }

    fn metrics(&self) -> TransportMetrics {
        self.metrics
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for peer in 0..self.state.n {
            if peer == self.rank {
                continue;
            }
            // wake peers blocked sending to us: their ring is now closed
            let inbound = self.state.ring(peer, self.rank);
            lock(&inbound.buf).closed = true;
            inbound.not_full.notify_all();
            // and ring their doorbell with the goodbye (after our messages)
            let db = &self.state.doorbells[peer];
            lock(&db.bells).push_back(Bell::Bye(self.rank));
            db.ready.notify_one();
        }
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_and_goodbye_order() {
        let mut eps = channel_cluster(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, 3, 10, &[1.0, 2.0]).unwrap();
        a.send(1, 4, 11, &[-0.5]).unwrap();
        a.close();
        let mut buf = Vec::new();
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 3,
                seq: 10
            }
        );
        assert_eq!(buf, vec![1.0, 2.0]);
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 4,
                seq: 11
            }
        );
        assert_eq!(buf, vec![-0.5]);
        assert_eq!(b.recv_into(&mut buf).unwrap(), Recv::Goodbye { from: 0 });
    }

    #[test]
    fn link_latency_delays_delivery_but_not_the_sender() {
        let lat = Duration::from_millis(30);
        let mut eps = channel_cluster_with(2, DEFAULT_CAPACITY, lat);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let posted = Instant::now();
        a.send(1, 0, 0, &[1.0]).unwrap();
        a.send(1, 1, 1, &[2.0]).unwrap();
        assert!(
            posted.elapsed() < lat,
            "sends must not block on the emulated wire"
        );
        let mut buf = Vec::new();
        assert_eq!(b.try_recv_into(&mut buf).unwrap(), None, "seen in flight");
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 0,
                seq: 0
            }
        );
        assert!(posted.elapsed() >= lat, "message visible before maturation");
        // FIFO survives shaping, and an already-matured message is free
        assert_eq!(
            b.try_recv_into(&mut buf).unwrap(),
            Some(Recv::Msg {
                from: 0,
                level: 1,
                seq: 1
            })
        );
        assert_eq!(buf, vec![2.0]);
    }

    #[test]
    fn timed_recv_times_out() {
        let mut eps = channel_cluster(2);
        let mut a = eps.remove(0);
        let mut buf = Vec::new();
        let r = a.recv_into_timeout(&mut buf, Some(Duration::from_millis(20)));
        assert_eq!(r, Err(TransportError::Timeout));
    }

    #[test]
    fn timed_recv_times_out_on_a_message_still_in_flight() {
        let mut eps = channel_cluster_with(2, DEFAULT_CAPACITY, Duration::from_millis(200));
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, 0, 0, &[1.0]).unwrap();
        let mut buf = Vec::new();
        let r = b.recv_into_timeout(&mut buf, Some(Duration::from_millis(20)));
        assert_eq!(r, Err(TransportError::Timeout));
        // the timeout lost nothing: the message lands later
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 0,
                seq: 0
            }
        );
        assert_eq!(buf, vec![1.0]);
    }

    #[test]
    fn bounded_ring_blocks_then_delivers_everything() {
        let mut eps = channel_cluster_with(2, 2, Duration::ZERO);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let sender = std::thread::spawn(move || {
            for i in 0..50u32 {
                a.send(1, 0, u64::from(i), &[f64::from(i)]).unwrap();
            }
            a.metrics()
        });
        std::thread::sleep(Duration::from_millis(30));
        let mut buf = Vec::new();
        for i in 0..50u32 {
            assert_eq!(
                b.recv_into(&mut buf).unwrap(),
                Recv::Msg {
                    from: 0,
                    level: 0,
                    seq: u64::from(i)
                }
            );
            assert_eq!(buf, vec![f64::from(i)]);
        }
        let m = sender.join().unwrap();
        assert_eq!(m.msgs_sent, 50);
        assert!(m.send_block_s > 0.0, "2-slot ring never backpressured");
    }

    #[test]
    fn close_unblocks_a_sender_with_disconnect() {
        let mut eps = channel_cluster_with(2, 1, Duration::ZERO);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, 0, 0, &[1.0]).unwrap();
        let sender = std::thread::spawn(move || a.send(1, 0, 1, &[2.0]));
        std::thread::sleep(Duration::from_millis(20));
        b.close();
        assert_eq!(
            sender.join().unwrap(),
            Err(TransportError::Disconnected { peer: 1 })
        );
    }
}
