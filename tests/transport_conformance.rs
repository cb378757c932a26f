//! The transport-conformance battery: one parametric suite every backend
//! must pass, so "pluggable" means *interchangeable* rather than "compiles
//! against the trait" — the "pluggable" in "pluggable transport" is this
//! file.
//!
//! The checks pin down exactly the contract the distributed stepper relies
//! on (see the `Transport` docs): per-sender FIFO, correct addressing,
//! payload bit integrity through whatever encoding the backend uses,
//! level-tag preservation, delivery under backpressure with a slow
//! receiver, and the goodbye-based disconnect semantics. Each check builds
//! a fresh cluster from the caller's factory; the tests at the end run the
//! suite over every backend, including a fault-wrapped fabric whose
//! injected delays must not change any observable semantics.

use std::time::Duration;
use wave_lts::obs::{merge_recordings, EventKind, FlightRecorder};
use wave_lts::runtime::transport::channel::{self, channel_cluster_with};
use wave_lts::runtime::transport::faulty::{wrap, FaultPlan};
use wave_lts::runtime::transport::{make_cluster, Recv, Transport, TransportError, TransportKind};

/// Per-check patience: generous, because CI machines stall, but bounded,
/// because a deadlocked backend must fail rather than hang the suite.
const PATIENCE: Duration = Duration::from_secs(5);

/// The suite's assertion primitive for fallible transport calls.
fn must<T, E: std::fmt::Debug>(what: &str, r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("conformance: {what}: {e:?}"),
    }
}

/// Receive the next *message* (skipping goodbyes) within [`PATIENCE`].
fn next_msg(ep: &mut dyn Transport, buf: &mut Vec<f64>, what: &str) -> (usize, u8, u64) {
    loop {
        match must(what, ep.recv_into_timeout(buf, Some(PATIENCE))) {
            Recv::Msg { from, level, seq } => return (from, level, seq),
            Recv::Goodbye { .. } => {}
        }
    }
}

/// Run every check against clusters built by `make`.
fn run_suite<F>(make: F)
where
    F: Fn(usize) -> Vec<Box<dyn Transport>>,
{
    fifo_and_addressing(&make);
    payload_bit_integrity(&make);
    level_tags_preserved(&make);
    polling_loses_nothing(&make);
    goodbye_after_drain(&make);
    delivery_under_backpressure(&make);
    disconnect_observed(&make);
    survivors_keep_talking(&make);
}

/// Two senders interleave K numbered messages to one receiver; each
/// sender's stream must arrive in order, and a third party's single message
/// must reach *it* and nobody else.
fn fifo_and_addressing<F: Fn(usize) -> Vec<Box<dyn Transport>>>(make: &F) {
    const K: u32 = 40;
    let mut eps = make(3);
    let mut receiver = must("cluster of 3", eps.pop().ok_or("missing ep2"));
    let bystander = must("cluster of 3", eps.pop().ok_or("missing ep1"));
    let mut sender0 = must("cluster of 3", eps.pop().ok_or("missing ep0"));

    must("side send 0→1", sender0.send(1, 9, 7, &[42.0]));
    let senders: Vec<_> = [sender0, bystander]
        .into_iter()
        .enumerate()
        .map(|(who, mut ep)| {
            std::thread::spawn(move || {
                for i in 0..K {
                    let payload = [who as f64 * 1000.0 + f64::from(i)];
                    let seq = u64::from(i) * 2 + who as u64;
                    must("numbered send", ep.send(2, (i % 3) as u8, seq, &payload));
                }
                ep
            })
        })
        .collect();

    let mut buf = Vec::new();
    let mut next_expected = [0u32; 2];
    for _ in 0..2 * K {
        let (from, level, seq) = next_msg(receiver.as_mut(), &mut buf, "numbered recv");
        assert!(from < 2, "receiver 2 got a message from itself?");
        let i = next_expected[from];
        assert_eq!(
            buf,
            &[from as f64 * 1000.0 + f64::from(i)],
            "sender {from}: message {i} out of order"
        );
        assert_eq!(level, (i % 3) as u8, "sender {from}: level tag wrong");
        assert_eq!(
            seq,
            u64::from(i) * 2 + from as u64,
            "sender {from}: seq mangled"
        );
        next_expected[from] = i + 1;
    }
    assert_eq!(next_expected, [K; 2]);

    // the bystander (rank 1) got exactly the one side message
    let mut eps_back: Vec<Box<dyn Transport>> = senders
        .into_iter()
        .map(|h| must("join sender", h.join().map_err(|_| "sender panicked")))
        .collect();
    let mut ep1 = must("rank 1 endpoint", eps_back.pop().ok_or("missing ep1"));
    let (from, level, seq) = next_msg(ep1.as_mut(), &mut buf, "side recv");
    assert_eq!((from, level, seq), (0, 9, 7));
    assert_eq!(buf, &[42.0]);
}

/// Interleaving non-blocking polls with blocking receives must observe the
/// same per-sender FIFO stream — `try_recv_into` may say "nothing ready"
/// (a backend that cannot poll always does) but must never lose, duplicate
/// or reorder a message.
fn polling_loses_nothing<F: Fn(usize) -> Vec<Box<dyn Transport>>>(make: &F) {
    const K: u32 = 30;
    let mut eps = make(2);
    let mut receiver = must("cluster of 2", eps.pop().ok_or("missing ep1"));
    let sender = must("cluster of 2", eps.pop().ok_or("missing ep0"));
    // send from a thread: a bounded backend would deadlock a same-thread
    // send-all-then-receive loop on backpressure
    let sender = std::thread::spawn(move || {
        let mut sender = sender;
        for i in 0..K {
            must(
                "poll send",
                sender.send(1, (i % 5) as u8, u64::from(i), &[f64::from(i)]),
            );
        }
        sender
    });
    let mut buf = Vec::new();
    let mut got = 0u32;
    let deadline = std::time::Instant::now() + PATIENCE;
    while got < K {
        // alternate polls and blocking receives so both paths interleave
        let recv = if got.is_multiple_of(2) {
            match must("try_recv", receiver.try_recv_into(&mut buf)) {
                Some(r) => r,
                None => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "poll/recv mix starved after {got} of {K} messages"
                    );
                    must(
                        "recv after empty poll",
                        receiver.recv_into_timeout(&mut buf, Some(PATIENCE)),
                    )
                }
            }
        } else {
            must("recv", receiver.recv_into_timeout(&mut buf, Some(PATIENCE)))
        };
        if let Recv::Msg { from, level, seq } = recv {
            assert_eq!(from, 0);
            assert_eq!(buf, &[f64::from(got)], "message {got} lost or reordered");
            assert_eq!(level, (got % 5) as u8, "message {got}: level tag wrong");
            assert_eq!(seq, u64::from(got), "message {got}: seq mangled");
            got += 1;
        }
    }
    drop(must(
        "join poll sender",
        sender.join().map_err(|_| "sender panicked"),
    ));
}

/// Every special `f64` must cross the fabric with an identical bit pattern.
fn payload_bit_integrity<F: Fn(usize) -> Vec<Box<dyn Transport>>>(make: &F) {
    let specials: Vec<Vec<f64>> = vec![
        vec![
            f64::from_bits(0x7ff8_0000_dead_beef), // a payloaded NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            1e-310,
            1.0 + f64::EPSILON,
        ],
        vec![], // empty halo (a rank with peers but no shared DOFs at a level)
        (0..8192)
            .map(|i| f64::from_bits((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect(),
    ];
    let mut eps = make(2);
    let mut b = must("cluster of 2", eps.pop().ok_or("missing ep1"));
    let a = must("cluster of 2", eps.pop().ok_or("missing ep0"));
    let expected = specials.clone();
    let sender = std::thread::spawn(move || {
        let mut a = a;
        for (i, p) in specials.iter().enumerate() {
            must("special send", a.send(1, 0, i as u64, p));
        }
        a
    });
    let mut buf = Vec::new();
    for want in &expected {
        let (from, _, _) = next_msg(b.as_mut(), &mut buf, "special recv");
        assert_eq!(from, 0);
        assert_eq!(buf.len(), want.len());
        for (got, want) in buf.iter().zip(want) {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "payload bits mangled: {got:?} vs {want:?}"
            );
        }
    }
    drop(must("join sender", sender.join().map_err(|_| "panicked")));
}

/// The level byte rides along untouched, over its full range.
fn level_tags_preserved<F: Fn(usize) -> Vec<Box<dyn Transport>>>(make: &F) {
    let levels = [0u8, 1, 2, 7, 31, 254, 255];
    let mut eps = make(2);
    let mut b = must("cluster of 2", eps.pop().ok_or("missing ep1"));
    let a = must("cluster of 2", eps.pop().ok_or("missing ep0"));
    // a bounded fabric may block the sender, so it gets its own thread
    let sender = std::thread::spawn(move || {
        let mut a = a;
        for &l in &levels {
            // stress the full seq width alongside the level byte
            let seq = u64::from(l).wrapping_mul(0x0101_0101_0101_0101);
            must("tagged send", a.send(1, l, seq, &[f64::from(l)]));
        }
        a
    });
    let mut buf = Vec::new();
    for &l in &levels {
        let (_, level, seq) = next_msg(b.as_mut(), &mut buf, "tagged recv");
        assert_eq!(level, l);
        assert_eq!(seq, u64::from(l).wrapping_mul(0x0101_0101_0101_0101));
        assert_eq!(buf, &[f64::from(l)]);
    }
    drop(must("join sender", sender.join().map_err(|_| "panicked")));
}

/// A closed endpoint's goodbye arrives strictly after its queued messages.
fn goodbye_after_drain<F: Fn(usize) -> Vec<Box<dyn Transport>>>(make: &F) {
    let mut eps = make(2);
    let mut b = must("cluster of 2", eps.pop().ok_or("missing ep1"));
    let a = must("cluster of 2", eps.pop().ok_or("missing ep0"));
    // sends may block on a bounded fabric; drop-at-thread-end is the close
    let sender = std::thread::spawn(move || {
        let mut a = a;
        for i in 0..3u32 {
            must(
                "pre-goodbye send",
                a.send(1, 0, u64::from(i), &[f64::from(i)]),
            );
        }
    });
    let mut buf = Vec::new();
    for i in 0..3u32 {
        match must("drain recv", b.recv_into_timeout(&mut buf, Some(PATIENCE))) {
            Recv::Msg { from, .. } => {
                assert_eq!(from, 0);
                assert_eq!(buf, &[f64::from(i)], "drain out of order");
            }
            Recv::Goodbye { .. } => {
                panic!("goodbye overtook {} undelivered messages", 3 - i);
            }
        }
    }
    let r = must(
        "goodbye recv",
        b.recv_into_timeout(&mut buf, Some(PATIENCE)),
    );
    assert_eq!(r, Recv::Goodbye { from: 0 });
    must("join sender", sender.join().map_err(|_| "panicked"));
}

/// A slow receiver must still get every message, in order — bounded
/// backends block the sender (backpressure), unbounded ones buffer; either
/// way nothing is lost or reordered.
fn delivery_under_backpressure<F: Fn(usize) -> Vec<Box<dyn Transport>>>(make: &F) {
    const K: u32 = 100;
    const WIDTH: usize = 256;
    let mut eps = make(2);
    let mut b = must("cluster of 2", eps.pop().ok_or("missing ep1"));
    let a = must("cluster of 2", eps.pop().ok_or("missing ep0"));
    let sender = std::thread::spawn(move || {
        let mut a = a;
        let mut payload = [0.0f64; WIDTH];
        for i in 0..K {
            payload[0] = f64::from(i);
            must("bulk send", a.send(1, 0, u64::from(i), &payload));
        }
        a.metrics()
    });
    std::thread::sleep(Duration::from_millis(25)); // let the fabric fill
    let mut buf = Vec::new();
    for i in 0..K {
        let (from, _, _) = next_msg(b.as_mut(), &mut buf, "bulk recv");
        assert_eq!(from, 0);
        assert_eq!(buf.len(), WIDTH);
        assert_eq!(
            buf[0].to_bits(),
            f64::from(i).to_bits(),
            "bulk out of order"
        );
    }
    let m = must("join sender", sender.join().map_err(|_| "panicked"));
    assert_eq!(m.msgs_sent, u64::from(K));
}

/// Dropping one endpoint must surface as a goodbye on every survivor within
/// the patience window — the property the fault-cascade tests build on.
fn disconnect_observed<F: Fn(usize) -> Vec<Box<dyn Transport>>>(make: &F) {
    let mut eps = make(3);
    let victim = eps.remove(0);
    drop(victim);
    let mut buf = Vec::new();
    for ep in &mut eps {
        let r = must(
            "disconnect recv",
            ep.recv_into_timeout(&mut buf, Some(PATIENCE)),
        );
        assert_eq!(
            r,
            Recv::Goodbye { from: 0 },
            "rank {} did not observe the disconnect",
            ep.rank()
        );
    }
}

/// After one rank dies, the survivors' links still work.
fn survivors_keep_talking<F: Fn(usize) -> Vec<Box<dyn Transport>>>(make: &F) {
    let mut eps = make(3);
    let victim = eps.remove(0);
    drop(victim);
    let mut b = must("cluster of 3", eps.pop().ok_or("missing ep2"));
    let mut a = must("cluster of 3", eps.pop().ok_or("missing ep1"));
    must("survivor send", a.send(2, 1, 0, &[3.5]));
    let mut buf = Vec::new();
    let (from, level, _) = next_msg(b.as_mut(), &mut buf, "survivor recv");
    assert_eq!((from, level), (1, 1));
    assert_eq!(buf, &[3.5]);
}

/// Flight-recorder seq matching survives injected faults: silently dropped
/// sends leave *gaps* in the delivered seq stream and forced receive
/// timeouts interleave with real deliveries, yet the recorder events taken
/// at the transport boundary still merge into a causally valid order — no
/// recv ever pairs with the wrong send, and a drop never shifts later
/// payloads onto earlier seqs.
fn seq_integrity_under_faults<F: Fn(usize) -> Vec<Box<dyn Transport>>>(make: F) {
    const K: u64 = 30;
    let mut eps = make(2);
    let receiver = must("cluster of 2", eps.pop().ok_or("missing ep1"));
    let sender = must("cluster of 2", eps.pop().ok_or("missing ep0"));
    let mut sender = wrap(
        sender,
        FaultPlan {
            drop_every: Some(3),
            ..FaultPlan::default()
        },
    );
    // force short receive timeouts so the Timeout path interleaves with
    // real deliveries on the receiver side
    let mut receiver = wrap(
        receiver,
        FaultPlan {
            recv_timeout_ms: Some(5),
            ..FaultPlan::default()
        },
    );

    let epoch = std::time::Instant::now();
    let send_thread = std::thread::spawn(move || {
        let mut flight = FlightRecorder::with_epoch(256, epoch);
        for seq in 0..K {
            if seq % 7 == 0 {
                // pace a few sends so receiver timeouts actually fire
                std::thread::sleep(Duration::from_millis(12));
            }
            must(
                "faulty send",
                sender.send(1, (seq % 3) as u8, seq, &[seq as f64]),
            );
            flight.record(EventKind::Send, (seq % 3) as u8, 0, 1, seq);
        }
        drop(sender); // goodbye unblocks the receive loop
        flight.snapshot(0)
    });

    let mut flight = FlightRecorder::with_epoch(256, epoch);
    let mut buf = Vec::new();
    let mut delivered = Vec::new();
    let mut timeouts = 0u64;
    let deadline = std::time::Instant::now() + PATIENCE;
    loop {
        match receiver.recv_into_timeout(&mut buf, Some(PATIENCE)) {
            Ok(Recv::Msg { from, level, seq }) => {
                assert_eq!(from, 0);
                assert_eq!(level, (seq % 3) as u8, "level/seq desync after drops");
                assert_eq!(buf, &[seq as f64], "payload/seq desync after drops");
                flight.record(EventKind::Recv, level, 0, from as u32, seq);
                delivered.push(seq);
            }
            Ok(Recv::Goodbye { .. }) => break,
            Err(TransportError::Timeout) => timeouts += 1,
            Err(e) => panic!("conformance: faulty recv: {e:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "faulty receive loop starved after {} of {K} messages",
            delivered.len()
        );
    }
    let send_rec = must("join sender", send_thread.join().map_err(|_| "panicked"));
    let _ = timeouts; // timeouts are legal in any count, including zero

    // drop-every-3 swallows seqs 2, 5, 8, …; everything else arrives in
    // order with gaps, on its original seq
    let expected: Vec<u64> = (0..K).filter(|s| (s + 1) % 3 != 0).collect();
    assert_eq!(delivered, expected, "drops desynced the seq stream");

    // the two recordings — with send-side gaps unmatched — still merge into
    // a causal order in which every recv is lamport-after its matching send
    let recv_rec = flight.snapshot(1);
    let merged = must("causal merge", merge_recordings(&[send_rec, recv_rec]));
    let mut send_lamport = std::collections::BTreeMap::new();
    for m in &merged {
        if m.rank == 0 && m.ev.kind == EventKind::Send {
            send_lamport.insert(m.ev.seq, m.lamport);
        }
    }
    for m in &merged {
        if m.rank == 1 && m.ev.kind == EventKind::Recv {
            let sent = must(
                "recv without a send",
                send_lamport.get(&m.ev.seq).ok_or(m.ev.seq),
            );
            assert!(
                m.lamport > *sent,
                "recv of seq {} ordered before its send",
                m.ev.seq
            );
        }
    }
}

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
    run_suite(|n| make_cluster(TransportKind::Channel, n).unwrap());
}

/// A deliberately tiny ring (2 slots) forces the backpressure path through
/// the whole battery, not just the backpressure check.
#[test]
fn channel_backend_conforms_under_tiny_capacity() {
    run_suite(|n| channel_cluster_with(n, 2, Duration::ZERO));
}

#[cfg(unix)]
#[test]
fn unix_socket_backend_conforms() {
    run_suite(unix_socket_cluster);
}

/// Link-latency shaping (delivery matures `latency` after the send was
/// posted) delays observation only; FIFO, addressing, integrity and
/// disconnect semantics must survive unchanged.
#[test]
fn latency_shaped_channel_conforms() {
    run_suite(|n| channel_cluster_with(n, channel::DEFAULT_CAPACITY, LATENCY));
}

/// Backpressure and latency together: messages still on the wire hold
/// their slots, so a 2-slot ring stalls the sender until they land.
#[test]
fn latency_shaped_channel_conforms_under_tiny_capacity() {
    run_suite(|n| channel_cluster_with(n, 2, LATENCY));
}

/// Injected send delays shape timing only; every conformance property must
/// survive unchanged.
#[test]
fn delay_injecting_wrapper_changes_nothing() {
    let plan = FaultPlan {
        send_delay_us: 200,
        ..FaultPlan::default()
    };
    run_suite(|n| {
        make_cluster(TransportKind::Channel, n)
            .unwrap()
            .into_iter()
            .map(|ep| wrap(ep, plan))
            .collect::<Vec<Box<dyn Transport>>>()
    });
}

/// Flight-recorder seq matching must survive injected drops and forced
/// recv timeouts: gaps in the delivered seq stream are fine, desyncs (a
/// recv matching the wrong send) are not — asserted per backend via the
/// causal merge's lamport ordering.
mod seq_integrity {
    use super::seq_integrity_under_faults;
    use std::time::Duration;
    use wave_lts::runtime::transport::channel::channel_cluster_with;
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
