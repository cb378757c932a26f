//! Fault injection: wrap any [`Transport`] and make it misbehave on cue.
//!
//! The decorator is how the fault-cascade tests turn "a rank dies mid-run"
//! from a thought experiment into a deterministic event: *die on the first
//! send at LTS level k* kills the victim exactly at that barrier point, and
//! death is implemented by dropping the inner endpoint — so peers observe
//! the same goodbye cascade a real crash would produce.

use super::{Recv, Transport, TransportError, TransportMetrics};
use std::time::Duration;

/// What to inject. All fields compose; `Default` injects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Sleep this long before every send (slow-network shaping).
    pub send_delay_us: u64,
    /// Silently drop every `n`-th send (1-based count; `Some(3)` drops
    /// sends 3, 6, 9, …).
    pub drop_every: Option<u64>,
    /// Die (drop the inner endpoint) on the first send tagged with this
    /// LTS level.
    pub die_on_send_at_level: Option<u8>,
    /// Die after this many successful sends.
    pub die_after_sends: Option<u64>,
    /// Impose a receive timeout even when the caller blocks, so a peer's
    /// dropped message surfaces as [`TransportError::Timeout`] instead of a
    /// hang.
    pub recv_timeout_ms: Option<u64>,
}

/// A [`Transport`] that follows a [`FaultPlan`]. Once dead, every call
/// returns [`TransportError::Injected`].
pub(crate) struct FaultyTransport<T: Transport> {
    inner: Option<T>,
    plan: FaultPlan,
    sends: u64,
}

impl<T: Transport> FaultyTransport<T> {
    pub(crate) fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        FaultyTransport {
            inner: Some(inner),
            plan,
            sends: 0,
        }
    }

    /// Kill this endpoint now: drops the inner transport, which delivers
    /// its goodbye to every peer.
    pub(crate) fn die(&mut self) {
        self.inner = None;
    }
}

/// Box a faulty wrapper over an already boxed endpoint (what the test
/// harness pulls out of a cluster).
pub fn wrap(inner: Box<dyn Transport>, plan: FaultPlan) -> Box<dyn Transport> {
    Box::new(FaultyTransport::new(inner, plan))
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn rank(&self) -> usize {
        self.inner.as_ref().map_or(usize::MAX, |t| t.rank())
    }

    fn n_ranks(&self) -> usize {
        self.inner.as_ref().map_or(0, |t| t.n_ranks())
    }

    fn backend(&self) -> &'static str {
        "faulty"
    }

    fn send(
        &mut self,
        peer: usize,
        level: u8,
        seq: u64,
        payload: &[f64],
    ) -> Result<(), TransportError> {
        let Some(inner) = self.inner.as_mut() else {
            return Err(TransportError::Injected);
        };
        if self.plan.die_on_send_at_level == Some(level) {
            self.die();
            return Err(TransportError::Injected);
        }
        if self.plan.send_delay_us > 0 {
            std::thread::sleep(Duration::from_micros(self.plan.send_delay_us));
        }
        self.sends += 1;
        if let Some(n) = self.plan.drop_every {
            if n > 0 && self.sends.is_multiple_of(n) {
                // swallowed: the peer never sees it, and no error here
                return Ok(());
            }
        }
        let r = inner.send(peer, level, seq, payload);
        if let Some(limit) = self.plan.die_after_sends {
            if self.sends >= limit {
                self.die();
            }
        }
        r
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        match self.inner.as_mut() {
            Some(t) => t.flush(),
            None => Err(TransportError::Injected),
        }
    }

    fn recv_into_timeout(
        &mut self,
        buf: &mut Vec<f64>,
        timeout: Option<Duration>,
    ) -> Result<Recv, TransportError> {
        let Some(inner) = self.inner.as_mut() else {
            return Err(TransportError::Injected);
        };
        let injected = self.plan.recv_timeout_ms.map(Duration::from_millis);
        let effective = match (timeout, injected) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        inner.recv_into_timeout(buf, effective)
    }

    fn try_recv_into(&mut self, buf: &mut Vec<f64>) -> Result<Option<Recv>, TransportError> {
        match self.inner.as_mut() {
            Some(inner) => inner.try_recv_into(buf),
            None => Err(TransportError::Injected),
        }
    }

    fn metrics(&self) -> TransportMetrics {
        self.inner.as_ref().map(|t| t.metrics()).unwrap_or_default()
    }

    fn close(&mut self) {
        if let Some(t) = self.inner.as_mut() {
            t.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::channel::channel_cluster;
    use super::super::Recv;
    use super::*;

    #[test]
    fn death_at_level_cascades_a_goodbye() {
        let mut eps = channel_cluster(2);
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let mut a = FaultyTransport::new(
            a,
            FaultPlan {
                die_on_send_at_level: Some(2),
                ..FaultPlan::default()
            },
        );
        a.send(1, 0, 0, &[1.0]).unwrap();
        assert_eq!(a.send(1, 2, 1, &[2.0]), Err(TransportError::Injected));
        // dead: a later send at any level fails too
        assert_eq!(a.send(1, 0, 2, &[3.0]), Err(TransportError::Injected));
        let mut buf = Vec::new();
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 0,
                seq: 0
            }
        );
        assert_eq!(b.recv_into(&mut buf).unwrap(), Recv::Goodbye { from: 0 });
    }

    #[test]
    fn dropped_sends_vanish_silently() {
        let mut eps = channel_cluster(2);
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let mut a = FaultyTransport::new(
            a,
            FaultPlan {
                drop_every: Some(2),
                ..FaultPlan::default()
            },
        );
        for i in 0..4u32 {
            a.send(1, 0, u64::from(i), &[f64::from(i)]).unwrap();
        }
        drop(a);
        let mut buf = Vec::new();
        let mut got = Vec::new();
        while let Recv::Msg { .. } = b.recv_into(&mut buf).unwrap() {
            got.push(buf[0]);
        }
        assert_eq!(got, vec![0.0, 2.0]);
    }
}
