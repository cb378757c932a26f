//! Distributed flight recorder: fixed-capacity per-rank rings of compact
//! events, a causal cross-rank merge, and a critical-path analyzer.
//!
//! Every rank owns one [`FlightRecorder`] — a preallocated ring that the
//! runtime writes into from its hot paths (step/level boundaries, sends,
//! receives, exchange waits, stall warnings, faults). Recording is
//! allocation-free and branch-cheap: one `Instant::elapsed` read and one
//! slot write per event, with the oldest event overwritten once the ring is
//! full (the `dropped` counter says how many). A capacity of zero disables
//! the recorder entirely.
//!
//! Sends and receives carry a **per-directed-edge monotone sequence
//! number** assigned by the runtime and transported opaquely on the wire,
//! so a recv event on rank B names exactly one send event on rank A —
//! a happens-before edge that holds across OS processes whose clocks were
//! never synchronized. [`merge_recordings`] stitches all ranks' rings into
//! one causally-ordered stream (Kahn topological sort over program order +
//! matched send→recv edges, Lamport-stamped) and *rejects* impossible
//! recordings: a recv ordered before its matching send shows up as a cycle,
//! a re-used or regressing sequence number as an explicit error.
//!
//! Timestamps are nanoseconds since the **per-rank** recorder epoch.
//! In-process runs share one epoch (so cross-rank timestamps align in
//! traces); real OS processes do not — which is why the merge and the
//! critical-path walk only ever compare timestamps *within* a rank and use
//! matched sequence numbers for every cross-rank conclusion.

use crate::chrome::{level_category, ChromeTrace};
use crate::export::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// `peer` value for events that do not involve a peer rank.
pub const NO_PEER: u32 = u32::MAX;
/// `level` value for events outside any LTS level (step boundaries, faults).
pub const NO_LEVEL: u8 = u8::MAX;

/// What happened. The discriminant is the wire encoding (see
/// `lts-runtime`'s `transport::codec`), so variants must keep their values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// A global Δt₀ step started (`step` names it; `level`/`peer` unused).
    StepBegin = 0,
    /// The global step completed.
    StepEnd = 1,
    /// A level-`level` force evaluation started.
    LevelBegin = 2,
    /// The level-`level` force evaluation completed (assembly included).
    LevelEnd = 3,
    /// A partial-force message was posted to `peer` with sequence `seq`.
    Send = 4,
    /// A partial-force message from `peer` with sequence `seq` was taken
    /// off the transport (the happens-after end of a send→recv edge).
    Recv = 5,
    /// The rank reached the exchange point of `level` and may block.
    ExchangeBegin = 6,
    /// All peers' partials for this exchange were assembled.
    ExchangeEnd = 7,
    /// The stall monitor warned: windowed wait fraction at or above its
    /// threshold (named `stall_warning`).
    Stall = 8,
    /// The run died here (`RuntimeError`); always the rank's last event.
    Fault = 9,
}

impl EventKind {
    pub fn from_u8(b: u8) -> Option<EventKind> {
        use EventKind::*;
        Some(match b {
            0 => StepBegin,
            1 => StepEnd,
            2 => LevelBegin,
            3 => LevelEnd,
            4 => Send,
            5 => Recv,
            6 => ExchangeBegin,
            7 => ExchangeEnd,
            8 => Stall,
            9 => Fault,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            StepBegin => "step_begin",
            StepEnd => "step_end",
            LevelBegin => "level_begin",
            LevelEnd => "level_end",
            Send => "send",
            Recv => "recv",
            ExchangeBegin => "exchange_begin",
            ExchangeEnd => "exchange_end",
            Stall => "stall_warning",
            Fault => "fault",
        }
    }

    pub(crate) fn from_name(name: &str) -> Option<EventKind> {
        (0..=u8::MAX)
            .filter_map(EventKind::from_u8)
            .find(|k| k.name() == name)
    }
}

/// One ring slot: 26 bytes on the wire, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the *recording rank's* epoch. Only comparable to
    /// other events of the same rank (in-process runs share an epoch, OS
    /// processes do not).
    pub t_ns: u64,
    pub kind: EventKind,
    /// LTS level, or [`NO_LEVEL`].
    pub level: u8,
    /// Global step index the event belongs to.
    pub step: u32,
    /// Peer rank for send/recv, else [`NO_PEER`].
    pub peer: u32,
    /// Per-directed-edge monotone sequence number for send/recv, else 0.
    pub seq: u64,
}

/// Fixed-capacity ring of [`FlightEvent`]s. Allocation happens once, at
/// construction; `record` never allocates: its runtime call sites are
/// reachable from the hot roots in `lint/hotpaths.toml`.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    buf: Vec<FlightEvent>,
    /// Index of the oldest event once the ring is full.
    head: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// Default ring size per rank (~100 KiB of events).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A recorder with its own epoch. `capacity == 0` disables recording.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_epoch(capacity, Instant::now())
    }

    /// A recorder sharing an epoch with others (in-process rank groups),
    /// so their timestamps land on one axis in rendered traces.
    pub fn with_epoch(capacity: usize, epoch: Instant) -> FlightRecorder {
        FlightRecorder {
            epoch,
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
        }
    }

    /// Record one event. Never allocates: within capacity this is a push
    /// into reserved space, at capacity it overwrites the oldest slot.
    #[inline]
    pub fn record(&mut self, kind: EventKind, level: u8, step: u32, peer: u32, seq: u64) {
        let cap = self.buf.capacity();
        if cap == 0 {
            return;
        }
        let ev = FlightEvent {
            t_ns: self.epoch.elapsed().as_nanos() as u64,
            kind,
            level,
            step,
            peer,
            seq,
        };
        if self.buf.len() < cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    /// The recording, oldest event first, stamped with the owning rank.
    pub fn snapshot(&self, rank: u32) -> RankRecording {
        let mut events = Vec::with_capacity(self.buf.len());
        events.extend_from_slice(&self.buf[self.head..]);
        events.extend_from_slice(&self.buf[..self.head]);
        RankRecording {
            rank,
            dropped: self.dropped,
            events,
        }
    }
}

/// One rank's drained ring: the unit that crosses the wire (in a worker's
/// codec `Report` frame) and lands in crash reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankRecording {
    pub rank: u32,
    /// Events lost to ring eviction before the drain.
    pub dropped: u64,
    /// Oldest first; `t_ns` is non-decreasing within one recording.
    pub events: Vec<FlightEvent>,
}

impl RankRecording {
    pub fn to_json(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|ev| {
                Json::Obj(vec![
                    ("t_ns".to_string(), Json::UInt(ev.t_ns)),
                    ("kind".to_string(), Json::str(ev.kind.name())),
                    ("level".to_string(), Json::UInt(ev.level as u64)),
                    ("step".to_string(), Json::UInt(ev.step as u64)),
                    ("peer".to_string(), Json::UInt(ev.peer as u64)),
                    ("seq".to_string(), Json::UInt(ev.seq)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("rank".to_string(), Json::UInt(self.rank as u64)),
            ("dropped".to_string(), Json::UInt(self.dropped)),
            ("events".to_string(), Json::Arr(events)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<RankRecording, String> {
        let rank = doc
            .get("rank")
            .and_then(|v| v.as_u64())
            .ok_or("recording: missing rank")? as u32;
        let dropped = doc
            .get("dropped")
            .and_then(|v| v.as_u64())
            .ok_or("recording: missing dropped")?;
        let raw = doc
            .get("events")
            .and_then(|v| v.as_arr())
            .ok_or("recording: missing events array")?;
        let mut events = Vec::with_capacity(raw.len());
        for (i, e) in raw.iter().enumerate() {
            let field = |key: &str| {
                e.get(key)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("rank {rank} event {i}: missing {key}"))
            };
            let kind_name = e
                .get("kind")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("rank {rank} event {i}: missing kind"))?;
            let kind = EventKind::from_name(kind_name)
                .ok_or_else(|| format!("rank {rank} event {i}: unknown kind {kind_name:?}"))?;
            events.push(FlightEvent {
                t_ns: field("t_ns")?,
                kind,
                level: field("level")? as u8,
                step: field("step")? as u32,
                peer: field("peer")? as u32,
                seq: field("seq")?,
            });
        }
        Ok(RankRecording {
            rank,
            dropped,
            events,
        })
    }
}

/// One event of the causally-ordered merged stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedEvent {
    pub rank: u32,
    /// Lamport clock: `1 + max(lamport of causal predecessors)` over
    /// program order and matched send→recv edges.
    pub lamport: u64,
    pub ev: FlightEvent,
}

/// Why a set of recordings cannot be causally ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A rank's send or recv sequence numbers toward one peer regressed —
    /// the runtime assigns them monotonically, so this recording is
    /// corrupt or mixed from different runs.
    SeqRegression {
        rank: u32,
        peer: u32,
        kind: EventKind,
        prev: u64,
        next: u64,
    },
    /// Two send events claim the same (src, dst, seq) edge identity.
    DuplicateSend { src: u32, dst: u32, seq: u64 },
    /// The happens-before graph has a cycle: some recv is ordered before
    /// its matching send. `stuck` events could not be scheduled.
    CausalityViolation { stuck: usize },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::SeqRegression {
                rank,
                peer,
                kind,
                prev,
                next,
            } => write!(
                f,
                "rank {rank} {} seq toward peer {peer} regressed {prev} -> {next}",
                kind.name()
            ),
            MergeError::DuplicateSend { src, dst, seq } => {
                write!(f, "duplicate send edge ({src} -> {dst}, seq {seq})")
            }
            MergeError::CausalityViolation { stuck } => write!(
                f,
                "causality violation: {stuck} events unreachable (a recv is \
                 ordered before its matching send)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Index of every send event by its (src, dst, seq) edge identity.
fn send_index(recs: &[RankRecording]) -> Result<BTreeMap<(u32, u32, u64), usize>, MergeError> {
    let mut sends = BTreeMap::new();
    let mut offset = 0usize;
    for rec in recs {
        for (i, ev) in rec.events.iter().enumerate() {
            if ev.kind == EventKind::Send
                && sends
                    .insert((rec.rank, ev.peer, ev.seq), offset + i)
                    .is_some()
            {
                return Err(MergeError::DuplicateSend {
                    src: rec.rank,
                    dst: ev.peer,
                    seq: ev.seq,
                });
            }
        }
        offset += rec.events.len();
    }
    Ok(sends)
}

/// Reject per-edge sequence regressions (sends and recvs must be strictly
/// increasing toward each peer within a rank's program order — gaps from
/// ring eviction or dropped messages are fine, going backwards is not).
fn check_seq_monotone(recs: &[RankRecording]) -> Result<(), MergeError> {
    for rec in recs {
        let mut last: BTreeMap<(u32, EventKind), u64> = BTreeMap::new();
        for ev in &rec.events {
            if ev.kind != EventKind::Send && ev.kind != EventKind::Recv {
                continue;
            }
            if let Some(&prev) = last.get(&(ev.peer, ev.kind)) {
                if ev.seq <= prev {
                    return Err(MergeError::SeqRegression {
                        rank: rec.rank,
                        peer: ev.peer,
                        kind: ev.kind,
                        prev,
                        next: ev.seq,
                    });
                }
            }
            last.insert((ev.peer, ev.kind), ev.seq);
        }
    }
    Ok(())
}

/// Merge all ranks' recordings into one causally-ordered, Lamport-stamped
/// stream. Happens-before is program order within a rank plus matched
/// send→recv edges across ranks; unmatched recvs (sender ring evicted the
/// send, or the sender died before draining) impose no cross edge.
pub fn merge_recordings(recs: &[RankRecording]) -> Result<Vec<MergedEvent>, MergeError> {
    check_seq_monotone(recs)?;
    let sends = send_index(recs)?;

    let total: usize = recs.iter().map(|r| r.events.len()).sum();
    let mut offsets = Vec::with_capacity(recs.len());
    let mut off = 0usize;
    for rec in recs {
        offsets.push(off);
        off += rec.events.len();
    }
    // Node id = offsets[rank_idx] + event_idx. Edges: program order and
    // send→recv; in-degree counts drive a deterministic Kahn sort.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); total];
    let mut indeg: Vec<u32> = vec![0; total];
    for (ri, rec) in recs.iter().enumerate() {
        for (i, ev) in rec.events.iter().enumerate() {
            let node = offsets[ri] + i;
            if i + 1 < rec.events.len() {
                succ[node].push(node + 1);
                indeg[node + 1] += 1;
            }
            if ev.kind == EventKind::Recv {
                if let Some(&send_node) = sends.get(&(ev.peer, rec.rank, ev.seq)) {
                    succ[send_node].push(node);
                    indeg[node] += 1;
                }
            }
        }
    }

    // Locate a node's (rank index, event) from its id.
    let locate = |node: usize| -> (usize, &FlightEvent) {
        let ri = match offsets.binary_search(&node) {
            Ok(exact) => exact,
            Err(ins) => ins - 1,
        };
        (ri, &recs[ri].events[node - offsets[ri]])
    };

    // Min-heap ordered by (t_ns, rank, node): timestamps across ranks are
    // only a heuristic tie-break, causal edges are the real constraint —
    // but the combination makes the output deterministic.
    use std::cmp::Reverse;
    let mut ready = std::collections::BinaryHeap::new();
    for (node, &deg) in indeg.iter().enumerate() {
        if deg == 0 {
            let (ri, ev) = locate(node);
            ready.push(Reverse((ev.t_ns, recs[ri].rank, node)));
        }
    }
    let mut lamport: Vec<u64> = vec![0; total];
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((_, rank, node))) = ready.pop() {
        let (_, ev) = locate(node);
        out.push(MergedEvent {
            rank,
            lamport: lamport[node] + 1,
            ev: *ev,
        });
        let next_lamport = lamport[node] + 1;
        for &s in &succ[node] {
            lamport[s] = lamport[s].max(next_lamport);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                let (ri, sev) = locate(s);
                ready.push(Reverse((sev.t_ns, recs[ri].rank, s)));
            }
        }
    }
    if out.len() < total {
        return Err(MergeError::CausalityViolation {
            stuck: total - out.len(),
        });
    }
    Ok(out)
}

/// Compute vs. wait attribution of one critical-path stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegKind {
    Compute,
    Wait,
}

/// One coalesced stretch of the critical path (forward order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathSegment {
    pub(crate) rank: u32,
    pub(crate) level: u8,
    pub(crate) kind: SegKind,
    pub(crate) dur_ns: u64,
}

/// A cross-rank hop the path took: the receiver's level-`level` exchange
/// was bound by `from_rank`'s send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEdge {
    pub from_rank: u32,
    pub to_rank: u32,
    pub level: u8,
    pub wait_ns: u64,
}

/// Result of [`critical_path`]: where the end-to-end wall-clock actually
/// went, per (rank, level), compute vs. wait.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Total nanoseconds attributed along the path.
    pub total_ns: u64,
    /// `((rank, level), (compute_ns, wait_ns))`, descending by total.
    pub by_rank_level: Vec<((u32, u8), (u64, u64))>,
    /// Cross-rank hops, descending by wait.
    pub edges: Vec<PathEdge>,
}

impl CriticalPath {
    pub fn compute_ns(&self) -> u64 {
        self.by_rank_level.iter().map(|(_, (c, _))| c).sum()
    }

    pub fn wait_ns(&self) -> u64 {
        self.by_rank_level.iter().map(|(_, (_, w))| w).sum()
    }
}

/// Walk the merged event graph backward from the causally-last event and
/// attribute wall-clock to per-(rank, level) compute and wait stretches.
///
/// The walk follows program order backward within a rank; at an exchange
/// window (`ExchangeBegin … ExchangeEnd`) the whole window is attributed
/// as *wait* at the exchange's level, and the walk jumps to the sender of
/// the **last matched recv** inside the window — the message that released
/// the exchange, i.e. the true causal bound. Unmatched windows (sender
/// ring evicted, sender dead) continue on the same rank. Validates the
/// recordings via [`merge_recordings`] first.
pub fn critical_path(recs: &[RankRecording]) -> Result<CriticalPath, MergeError> {
    let merged = merge_recordings(recs)?;
    if merged.is_empty() {
        return Ok(CriticalPath::default());
    }
    let sends = send_index(recs)?;
    // rank value -> index into recs
    let rank_idx: BTreeMap<u32, usize> =
        recs.iter().enumerate().map(|(i, r)| (r.rank, i)).collect();
    let mut offsets = Vec::with_capacity(recs.len());
    let mut off = 0usize;
    for rec in recs {
        offsets.push(off);
        off += rec.events.len();
    }
    let locate = |node: usize| -> (usize, usize) {
        let ri = match offsets.binary_search(&node) {
            Ok(exact) => exact,
            Err(ins) => ins - 1,
        };
        (ri, node - offsets[ri])
    };

    // Start at the causally-last event (max lamport; ties by t_ns then rank
    // keep it deterministic).
    let last = merged
        .iter()
        .max_by_key(|m| (m.lamport, m.ev.t_ns, m.rank))
        .copied()
        .unwrap_or(merged[0]);
    let mut ri = match rank_idx.get(&last.rank) {
        Some(&i) => i,
        None => return Ok(CriticalPath::default()),
    };
    // Find the index of the last event (match by identity: last event of
    // that rank with equal fields).
    let mut i = recs[ri]
        .events
        .iter()
        .rposition(|e| e == &last.ev)
        .unwrap_or(recs[ri].events.len().saturating_sub(1));

    let mut raw: Vec<PathSegment> = Vec::new();
    let mut edges: Vec<PathEdge> = Vec::new();
    let mut budget = merged.len() + 1; // termination backstop
    while i > 0 && budget > 0 {
        budget -= 1;
        let cur = recs[ri].events[i];
        if cur.kind == EventKind::ExchangeEnd {
            // Find the matching ExchangeBegin and the last matched recv
            // inside the window.
            let mut j = i;
            let mut release: Option<(usize, FlightEvent)> = None;
            while j > 0 {
                j -= 1;
                let ev = recs[ri].events[j];
                if ev.kind == EventKind::ExchangeBegin && ev.level == cur.level {
                    break;
                }
                if ev.kind == EventKind::Recv && release.is_none() {
                    if let Some(&snode) = sends.get(&(ev.peer, recs[ri].rank, ev.seq)) {
                        release = Some((snode, ev));
                    }
                }
            }
            let begin = recs[ri].events[j];
            raw.push(PathSegment {
                rank: recs[ri].rank,
                level: cur.level,
                kind: SegKind::Wait,
                dur_ns: cur.t_ns.saturating_sub(begin.t_ns),
            });
            if let Some((snode, recv_ev)) = release {
                let (sri, si) = locate(snode);
                edges.push(PathEdge {
                    from_rank: recs[sri].rank,
                    to_rank: recs[ri].rank,
                    level: recv_ev.level,
                    wait_ns: cur.t_ns.saturating_sub(begin.t_ns),
                });
                ri = sri;
                i = si;
            } else {
                i = j;
            }
        } else {
            let prev = recs[ri].events[i - 1];
            let level = if cur.level != NO_LEVEL {
                cur.level
            } else {
                prev.level
            };
            raw.push(PathSegment {
                rank: recs[ri].rank,
                level,
                kind: SegKind::Compute,
                dur_ns: cur.t_ns.saturating_sub(prev.t_ns),
            });
            i -= 1;
        }
    }

    // Forward order, coalesce adjacent same-(rank, level, kind) stretches.
    raw.reverse();
    let mut segments: Vec<PathSegment> = Vec::new();
    for seg in raw {
        match segments.last_mut() {
            Some(last)
                if last.rank == seg.rank && last.level == seg.level && last.kind == seg.kind =>
            {
                last.dur_ns += seg.dur_ns;
            }
            _ => segments.push(seg),
        }
    }
    let total_ns = segments.iter().map(|s| s.dur_ns).sum();
    let mut by: BTreeMap<(u32, u8), (u64, u64)> = BTreeMap::new();
    for seg in &segments {
        let slot = by.entry((seg.rank, seg.level)).or_default();
        match seg.kind {
            SegKind::Compute => slot.0 += seg.dur_ns,
            SegKind::Wait => slot.1 += seg.dur_ns,
        }
    }
    let mut by_rank_level: Vec<_> = by.into_iter().collect();
    by_rank_level.sort_by_key(|&(_, (c, w))| std::cmp::Reverse(c + w));
    edges.sort_by_key(|e| std::cmp::Reverse(e.wait_ns));
    Ok(CriticalPath {
        total_ns,
        by_rank_level,
        edges,
    })
}

/// Render labelled runs of recordings as one Chrome trace: **pid = run**
/// (1-based, named by its label), **tid = rank**, one category per LTS
/// level. Each rank track carries step and level slices, exchange-wait
/// slices, zero-width send/recv markers with their sequence numbers, and
/// stall-warning/fault instants. Timestamps are each rank's own `t_ns` (µs)
/// — aligned across ranks only for shared-epoch in-process runs.
pub fn flight_chrome_trace(runs: &[(&str, &[RankRecording])]) -> ChromeTrace {
    let mut t = ChromeTrace::new();
    for (run, (label, recs)) in runs.iter().enumerate() {
        let pid = run as u64 + 1;
        t.process_name(pid, label);
        for rec in recs.iter() {
            add_rank_track(&mut t, pid, rec);
        }
    }
    t
}

/// One rank's recording as the `(pid, rank)` track of `t`.
fn add_rank_track(t: &mut ChromeTrace, pid: u64, rec: &RankRecording) {
    let tid = rec.rank as u64;
    t.thread_name(pid, tid, &format!("rank {}", rec.rank));
    // Match every Begin to its End up front so slices can be emitted at
    // their begin time (keeps ts monotone per tid in emission order).
    let pairs: [(EventKind, EventKind, &str); 3] = [
        (EventKind::StepBegin, EventKind::StepEnd, "step"),
        (EventKind::LevelBegin, EventKind::LevelEnd, "level"),
        (EventKind::ExchangeBegin, EventKind::ExchangeEnd, "wait"),
    ];
    let base_args = |ev: &FlightEvent| {
        vec![
            ("step".to_string(), Json::UInt(ev.step as u64)),
            ("kind".to_string(), Json::str(ev.kind.name())),
        ]
    };
    for (i, ev) in rec.events.iter().enumerate() {
        let ts_us = ev.t_ns as f64 / 1e3;
        let cat = level_category((ev.level != NO_LEVEL).then_some(ev.level));
        match ev.kind {
            EventKind::StepBegin | EventKind::LevelBegin | EventKind::ExchangeBegin => {
                let (end_kind, name) = pairs
                    .iter()
                    .find(|(b, _, _)| *b == ev.kind)
                    .map(|(_, e, n)| (*e, *n))
                    .unwrap_or((EventKind::StepEnd, "step"));
                if let Some(end) = rec.events[i + 1..].iter().find(|e| {
                    e.kind == end_kind && (end_kind == EventKind::StepEnd || e.level == ev.level)
                }) {
                    let dur_us = end.t_ns.saturating_sub(ev.t_ns) as f64 / 1e3;
                    t.complete(pid, tid, name, &cat, ts_us, dur_us, base_args(ev));
                }
            }
            EventKind::Send | EventKind::Recv => {
                let mut args = base_args(ev);
                args.push(("peer".to_string(), Json::UInt(ev.peer as u64)));
                args.push(("seq".to_string(), Json::UInt(ev.seq)));
                t.complete(pid, tid, ev.kind.name(), &cat, ts_us, 0.0, args);
            }
            EventKind::Stall | EventKind::Fault => {
                t.complete(pid, tid, ev.kind.name(), &cat, ts_us, 0.0, base_args(ev));
            }
            EventKind::StepEnd | EventKind::LevelEnd | EventKind::ExchangeEnd => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, kind: EventKind, level: u8, peer: u32, seq: u64) -> FlightEvent {
        FlightEvent {
            t_ns,
            kind,
            level,
            step: 0,
            peer,
            seq,
        }
    }

    #[test]
    fn every_kind_round_trips_through_its_name() {
        use EventKind::*;
        const ALL: [EventKind; 10] = [
            StepBegin,
            StepEnd,
            LevelBegin,
            LevelEnd,
            Send,
            Recv,
            ExchangeBegin,
            ExchangeEnd,
            Stall,
            Fault,
        ];
        // each kind's place in `ALL`, by a match without a wildcard: a new
        // kind does not compile until it is listed here and in `ALL`
        let index = |k: EventKind| match k {
            StepBegin => 0,
            StepEnd => 1,
            LevelBegin => 2,
            LevelEnd => 3,
            Send => 4,
            Recv => 5,
            ExchangeBegin => 6,
            ExchangeEnd => 7,
            Stall => 8,
            Fault => 9,
        };
        for (i, k) in ALL.into_iter().enumerate() {
            assert_eq!(index(k), i, "{}", k.name());
            assert_eq!(EventKind::from_u8(k as u8), Some(k), "{}", k.name());
            assert_eq!(EventKind::from_name(k.name()), Some(k), "{}", k.name());
        }
        let decodable = (0..=u8::MAX).filter_map(EventKind::from_u8).count();
        assert_eq!(decodable, ALL.len(), "from_u8 decodes only the kinds");
        assert_eq!(EventKind::from_name("no_such_kind"), None);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for step in 0..5u32 {
            r.record(EventKind::StepBegin, NO_LEVEL, step, NO_PEER, 0);
        }
        let rec = r.snapshot(7);
        assert_eq!(rec.rank, 7);
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.dropped, 2);
        let steps: Vec<u32> = rec.events.iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![2, 3, 4], "oldest-first after eviction");
        assert!(rec.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = FlightRecorder::new(0);
        r.record(EventKind::Fault, NO_LEVEL, 0, NO_PEER, 0);
        let rec = r.snapshot(0);
        assert!(rec.events.is_empty());
        assert_eq!(rec.dropped, 0);
    }

    #[test]
    fn recording_round_trips_through_json() {
        let rec = RankRecording {
            rank: 3,
            dropped: 11,
            events: vec![
                ev(10, EventKind::StepBegin, NO_LEVEL, NO_PEER, 0),
                ev(20, EventKind::Send, 2, 1, 40),
                ev(30, EventKind::Recv, 2, 1, 41),
                ev(40, EventKind::Fault, NO_LEVEL, NO_PEER, 0),
            ],
        };
        let json = rec.to_json().render();
        let back = RankRecording::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert!(RankRecording::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    /// Two ranks, one message: the merged order must place the send before
    /// the recv even though the receiver's local clock claims otherwise.
    #[test]
    fn merge_orders_send_before_recv_despite_clock_skew() {
        let recs = vec![
            RankRecording {
                rank: 0,
                dropped: 0,
                events: vec![ev(1_000_000, EventKind::Send, 0, 1, 0)],
            },
            RankRecording {
                rank: 1,
                dropped: 0,
                events: vec![ev(5, EventKind::Recv, 0, 0, 0)], // skewed clock
            },
        ];
        let merged = merge_recordings(&recs).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].ev.kind, EventKind::Send);
        assert_eq!(merged[1].ev.kind, EventKind::Recv);
        assert!(merged[0].lamport < merged[1].lamport);
    }

    /// A hand-crafted impossible recording: each rank receives the other's
    /// message *before* sending its own — a happens-before cycle.
    #[test]
    fn merge_rejects_recv_before_matching_send() {
        let mk = |rank: u32, peer: u32| RankRecording {
            rank,
            dropped: 0,
            events: vec![
                ev(0, EventKind::Recv, 0, peer, 0),
                ev(1, EventKind::Send, 0, peer, 0),
            ],
        };
        let err = merge_recordings(&[mk(0, 1), mk(1, 0)]).unwrap_err();
        assert!(matches!(err, MergeError::CausalityViolation { stuck: 4 }));
        assert!(err.to_string().contains("recv is"), "{err}");
    }

    #[test]
    fn merge_rejects_seq_regression_and_duplicate_send() {
        let reg = RankRecording {
            rank: 0,
            dropped: 0,
            events: vec![
                ev(0, EventKind::Send, 0, 1, 5),
                ev(1, EventKind::Send, 0, 1, 4),
            ],
        };
        assert!(matches!(
            merge_recordings(&[reg]).unwrap_err(),
            MergeError::SeqRegression {
                prev: 5,
                next: 4,
                ..
            }
        ));
        let dup = vec![
            RankRecording {
                rank: 0,
                dropped: 0,
                events: vec![ev(0, EventKind::Send, 0, 2, 9)],
            },
            RankRecording {
                rank: 1,
                dropped: 0,
                events: vec![ev(0, EventKind::Send, 0, 2, 9)],
            },
        ];
        // same seq toward the same dst from *different* ranks is fine —
        // the edge identity includes the source
        assert!(merge_recordings(&dup).is_ok());
        let real_dup = RankRecording {
            rank: 3,
            dropped: 0,
            events: vec![
                ev(0, EventKind::Send, 0, 2, 9),
                ev(1, EventKind::Send, 1, 2, 9),
            ],
        };
        assert!(matches!(
            merge_recordings(&[real_dup]).unwrap_err(),
            MergeError::SeqRegression { .. } | MergeError::DuplicateSend { .. }
        ));
    }

    #[test]
    fn unmatched_recv_is_tolerated() {
        // sender's ring evicted the send (dropped > 0): no cross edge, but
        // the merge still succeeds
        let recs = vec![
            RankRecording {
                rank: 0,
                dropped: 10,
                events: vec![],
            },
            RankRecording {
                rank: 1,
                dropped: 0,
                events: vec![ev(5, EventKind::Recv, 0, 0, 123)],
            },
        ];
        assert_eq!(merge_recordings(&recs).unwrap().len(), 1);
    }

    /// Two ranks: rank 1 computes long, rank 0 waits on its message. The
    /// critical path must run through rank 1's compute, attributing rank
    /// 0's exchange window as wait and hopping the 1→0 edge.
    #[test]
    fn critical_path_attributes_wait_to_the_sender_edge() {
        let r0 = RankRecording {
            rank: 0,
            dropped: 0,
            events: vec![
                ev(0, EventKind::StepBegin, NO_LEVEL, NO_PEER, 0),
                ev(100, EventKind::Send, 0, 1, 0),
                ev(110, EventKind::ExchangeBegin, 0, NO_PEER, 0),
                ev(1000, EventKind::Recv, 0, 1, 0),
                ev(1010, EventKind::ExchangeEnd, 0, NO_PEER, 0),
                ev(1020, EventKind::StepEnd, NO_LEVEL, NO_PEER, 0),
            ],
        };
        let r1 = RankRecording {
            rank: 1,
            dropped: 0,
            events: vec![
                ev(0, EventKind::StepBegin, NO_LEVEL, NO_PEER, 0),
                ev(900, EventKind::Send, 0, 0, 0), // long compute before send
                ev(910, EventKind::ExchangeBegin, 0, NO_PEER, 0),
                ev(920, EventKind::Recv, 0, 0, 0),
                ev(930, EventKind::ExchangeEnd, 0, NO_PEER, 0),
                ev(940, EventKind::StepEnd, NO_LEVEL, NO_PEER, 0),
            ],
        };
        let cp = critical_path(&[r0, r1]).unwrap();
        assert!(cp.total_ns > 0);
        // the path hopped from rank 1 (the sender that released rank 0's
        // exchange) to rank 0
        assert!(
            cp.edges
                .iter()
                .any(|e| e.from_rank == 1 && e.to_rank == 0 && e.level == 0),
            "{:?}",
            cp.edges
        );
        // rank 0's exchange window is the dominant wait
        let r0_wait: u64 = cp
            .by_rank_level
            .iter()
            .filter(|((r, _), _)| *r == 0)
            .map(|(_, (_, w))| w)
            .sum();
        assert_eq!(r0_wait, 900);
        // rank 1 contributes compute (its 900 ns stretch before the send)
        let r1_compute: u64 = cp
            .by_rank_level
            .iter()
            .filter(|((r, _), _)| *r == 1)
            .map(|(_, (c, _))| c)
            .sum();
        assert!(r1_compute >= 900, "{:?}", cp.by_rank_level);
    }

    #[test]
    fn flight_trace_validates_and_carries_seq_markers() {
        let rec = RankRecording {
            rank: 0,
            dropped: 0,
            events: vec![
                ev(0, EventKind::StepBegin, NO_LEVEL, NO_PEER, 0),
                ev(10, EventKind::LevelBegin, 1, NO_PEER, 0),
                ev(20, EventKind::Send, 1, 1, 7),
                ev(30, EventKind::ExchangeBegin, 1, NO_PEER, 0),
                ev(90, EventKind::Recv, 1, 1, 7),
                ev(100, EventKind::ExchangeEnd, 1, NO_PEER, 0),
                ev(110, EventKind::LevelEnd, 1, NO_PEER, 0),
                ev(120, EventKind::Stall, 1, NO_PEER, 0),
                ev(130, EventKind::StepEnd, NO_LEVEL, NO_PEER, 0),
            ],
        };
        let recs = [rec];
        let t = flight_chrome_trace(&[("run", &recs)]);
        let rendered = t.render();
        let n = crate::validate_trace(&rendered).expect("valid trace");
        // 2 metadata + step + level + wait slices + send + recv + warning
        assert_eq!(n, 2 + 3 + 3);
        assert!(rendered.contains("\"seq\":7"));
        assert!(rendered.contains("stall_warning"));
        // a second labelled run lands on its own pid, same tid
        let two = flight_chrome_trace(&[("a", &recs), ("b", &recs)]);
        let doc = Json::parse(&two.render()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let on = |pid: u64| {
            events
                .iter()
                .filter(|e| e.get("pid").and_then(|p| p.as_u64()) == Some(pid))
                .count()
        };
        assert_eq!((on(1), on(2)), (n, n));
    }
}
