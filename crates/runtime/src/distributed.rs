//! The distributed LTS-Newmark stepper: one thread per rank, assembly
//! exchanges after every masked product, redundant (consistent) updates of
//! interface DOFs.
//!
//! Every rank holds only its own world — its elements' operator, plan,
//! state and sources in rank-local numbering, built by [`crate::local`] —
//! and steps it through the same recursion as the serial stepper,
//! [`lts_core::LevelState::step`]. The rank supplies only its
//! [`LevelForce`] hook — zero its entries, apply boundary then interior
//! elements, exchange, count. One rank body, [`step_rank`], serves the
//! in-process rank threads of [`run`] and the `wave-lts worker` processes
//! of [`run_rank`]; both assemble global fields through one function.
//!
//! Ranks speak to each other only through the pluggable
//! [`crate::transport::Transport`] trait, so the same stepper runs over
//! in-process channels, bounded shared-memory rings, or Unix-socket frames
//! (and, wrapped in a [`crate::transport::faulty::FaultyTransport`], under
//! injected faults). Every force evaluation applies boundary elements first
//! and interior elements second *in both communication modes*: interface
//! partials depend only on boundary elements, so the payload bytes — and,
//! because the per-DOF summation order never changes, the final fields —
//! are bitwise identical whether `overlap` posts the sends between the two
//! applies or after them.

use crate::error::RuntimeError;

/// What a distributed run returns: final `(u, v)` and per-rank stats, or
/// the first rank failure.
pub type RunResult = Result<(Vec<f64>, Vec<f64>, Vec<RankStats>), RuntimeError>;
use crate::exchange::RankPlan;
use crate::local::{decompose, local_worlds, rank_world, Acoustic, Decompose};
use crate::monitor::{MonitorConfig, RankMonitor, StallMonitor};
use crate::stats::{names, RankStats};
use crate::transport::faulty::{self, FaultPlan};
use crate::transport::{self, Recv, Transport, TransportError, TransportKind};
use lts_core::{LevelForce, LevelSets, LevelState, Operator, Source, Workspace};
use lts_mesh::{HexMesh, Levels};
use lts_obs::{EventKind, FlightRecorder, MetricsRegistry, RankRecording, NO_LEVEL, NO_PEER};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Upper bound on one blocking receive inside the exchange loop. A healthy
/// peer answers in microseconds; a minute of silence means the peer (or its
/// link) is gone, and the step must fail as [`RuntimeError::ExchangeTimeout`]
/// instead of hanging the whole cluster on a lost rank.
const EXCHANGE_WATCHDOG: Duration = Duration::from_secs(60);

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    pub n_ranks: usize,
    /// Artificial extra work per element-operation (spin iterations) — makes
    /// load imbalance visible on problems too small to measure otherwise.
    pub work_amplify: u32,
    /// Restrict `work_amplify` to one rank: deterministic skew for stall
    /// experiments. `None` amplifies every rank.
    pub amplify_rank: Option<usize>,
    /// Overlap communication with computation (the SPECFEM3D pattern the
    /// paper uses): compute boundary-element contributions, post the sends,
    /// compute interior elements while messages fly, then assemble.
    pub overlap: bool,
    /// Run the online stall/imbalance monitor (see [`crate::monitor`]).
    pub stall_monitor: Option<MonitorConfig>,
    /// Intra-rank worker threads for the masked products (1 = serial). The
    /// coloured scatter keeps results bitwise identical to serial at any
    /// value, so counters and fields are unaffected.
    pub threads_per_rank: usize,
    /// Which halo-exchange backend [`run`] builds when it is given no
    /// endpoints.
    pub transport: TransportKind,
    /// Flight-recorder ring capacity per rank, in events. `0` disables
    /// recording (seeded from the `LTS_FLIGHT` env var, default
    /// [`FlightRecorder::DEFAULT_CAPACITY`]). The ring is the run's one
    /// per-event record: its timeline, trace and crash report. The recorder
    /// is proven bitwise-neutral: fields and deterministic counters are
    /// identical with it on or off.
    pub flight_capacity: usize,
    /// Inject a transport fault on one rank: the rank it names wraps its
    /// endpoint in a [`crate::transport::faulty::FaultyTransport`] with the
    /// given plan, in process and in a `wave-lts worker` alike.
    pub fault: Option<(usize, FaultPlan)>,
}

/// `LTS_FLIGHT` env override for the flight-recorder ring capacity: `0`
/// disables it, any other integer sets the per-rank capacity in events;
/// unset → [`FlightRecorder::DEFAULT_CAPACITY`]. Any other value is an
/// error naming the variable.
pub fn flight_capacity_from_env() -> Result<usize, String> {
    match std::env::var("LTS_FLIGHT") {
        Ok(v) => v
            .trim()
            .parse()
            .map_err(|_| format!("invalid value {v:?} for LTS_FLIGHT")),
        Err(std::env::VarError::NotPresent) => Ok(FlightRecorder::DEFAULT_CAPACITY),
        Err(e) => Err(format!("invalid LTS_FLIGHT: {e}")),
    }
}

impl DistributedConfig {
    pub fn new(n_ranks: usize) -> Self {
        DistributedConfig {
            n_ranks,
            work_amplify: 0,
            amplify_rank: None,
            overlap: false,
            stall_monitor: None,
            threads_per_rank: 1,
            transport: TransportKind::Channel,
            // a library default: the `wave-lts` CLI refuses a bad value
            flight_capacity: flight_capacity_from_env().unwrap_or(FlightRecorder::DEFAULT_CAPACITY),
            fault: None,
        }
    }
}

/// One rank's final fields in its own numbering.
#[derive(Debug, Clone)]
pub struct RankFields {
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    /// Global DOF id of each local DOF.
    pub global_of_local: Vec<u32>,
}

/// One rank's outcome: its final fields and statistics, or its failure.
pub type RankRun = Result<(RankFields, RankStats), RuntimeError>;

struct RankCtx<'a, O: Operator> {
    rank: usize,
    op: &'a O,
    n_levels: usize,
    dof_level: &'a [u8],
    plan: &'a RankPlan,
    sources: &'a [Source],
    /// per leaf level: (index into `sources`, DOF in this rank's numbering)
    my_sources: Vec<Vec<(usize, u32)>>,
    dt: f64,
    /// This rank's endpoint of the halo-exchange fabric.
    transport: Box<dyn Transport>,
    /// Peers whose goodbye has been observed.
    gone: Vec<bool>,
    /// Messages that arrived while awaiting a different peer: `(level tag,
    /// send seq, payload)`, per sender, consumed FIFO.
    inbox: Vec<VecDeque<(u8, u64, Vec<f64>)>>,
    /// Next per-directed-edge send sequence number, per peer. Monotone for
    /// the life of the rank — the happens-before substrate of the flight
    /// recorder's causal merge.
    send_seq: Vec<u64>,
    /// The always-on (unless capacity 0) event ring; allocation-free.
    flight: FlightRecorder,
    /// Reused payload staging for sends (the hot path never allocates).
    send_buf: Vec<f64>,
    /// Reused per-exchange receive slots, assembly cursors, buffer pool.
    pending: Vec<Option<Vec<f64>>>,
    cursors: Vec<usize>,
    pool: Vec<Vec<f64>>,
    /// Per-rank metrics; merged into [`RankStats`] views after the join.
    reg: MetricsRegistry,
    monitor: Option<RankMonitor>,
    cfg: DistributedConfig,
    /// Operator scratch + compiled gather lists, reused across all steps.
    ws: Workspace,
    step_idx: u32,
    busy_since: Instant,
}

/// Map a transport send failure onto the runtime error for `(rank, peer, l)`.
#[cold]
fn send_error(rank: usize, peer: usize, level: usize, e: TransportError) -> RuntimeError {
    match e {
        TransportError::Disconnected { .. } | TransportError::Closed => {
            RuntimeError::PeerDisconnected { rank, peer, level }
        }
        TransportError::Timeout => RuntimeError::ExchangeTimeout { rank, level },
        TransportError::Injected => RuntimeError::FaultInjected { rank, level },
        e => RuntimeError::TransportIo {
            rank,
            level,
            detail: e.to_string(),
        },
    }
}

/// Map a transport receive failure onto the runtime error for `(rank, l)`.
#[cold]
fn recv_error(rank: usize, level: usize, e: TransportError) -> RuntimeError {
    match e {
        TransportError::Disconnected { peer } => {
            RuntimeError::PeerDisconnected { rank, peer, level }
        }
        TransportError::Closed => RuntimeError::ChannelClosed { rank, level },
        TransportError::Timeout => RuntimeError::ExchangeTimeout { rank, level },
        TransportError::Injected => RuntimeError::FaultInjected { rank, level },
        e => RuntimeError::TransportIo {
            rank,
            level,
            detail: e.to_string(),
        },
    }
}

/// `(level, peer)` context of a failure, stamped into the flight recorder's
/// terminal `fault` event.
#[cold]
fn fault_context(e: &RuntimeError) -> (u8, u32) {
    match e {
        RuntimeError::PeerDisconnected { peer, level, .. }
        | RuntimeError::NotAPeer { peer, level, .. }
        | RuntimeError::BadPayload { peer, level, .. } => (*level as u8, *peer as u32),
        RuntimeError::ChannelClosed { level, .. }
        | RuntimeError::ExchangeTimeout { level, .. }
        | RuntimeError::FaultInjected { level, .. }
        | RuntimeError::TransportIo { level, .. } => (*level as u8, NO_PEER),
        RuntimeError::RankPanicked { .. } | RuntimeError::MissingRank { .. } => (NO_LEVEL, NO_PEER),
    }
}

#[cold]
fn peer_gone(rank: usize, peer: usize, level: usize) -> RuntimeError {
    RuntimeError::PeerDisconnected { rank, peer, level }
}

#[cold]
fn bad_payload(rank: usize, peer: usize, level: usize) -> RuntimeError {
    RuntimeError::BadPayload { rank, peer, level }
}

#[cold]
fn not_a_peer(rank: usize, peer: usize, level: usize) -> RuntimeError {
    RuntimeError::NotAPeer { rank, peer, level }
}

impl<'a, O: Operator> RankCtx<'a, O> {
    /// The single place a rank's context is built, with per-peer exchange
    /// bookkeeping for the transport's rank group.
    #[allow(clippy::too_many_arguments)]
    fn new(
        rank: usize,
        op: &'a O,
        n_levels: usize,
        dof_level: &'a [u8],
        plan: &'a RankPlan,
        sources: &'a [Source],
        my_sources: Vec<Vec<(usize, u32)>>,
        dt: f64,
        transport: Box<dyn Transport>,
        flight: FlightRecorder,
        monitor: Option<RankMonitor>,
        cfg: DistributedConfig,
    ) -> Self {
        let n_ranks = transport.n_ranks();
        RankCtx {
            rank,
            op,
            n_levels,
            dof_level,
            plan,
            sources,
            my_sources,
            dt,
            transport,
            gone: vec![false; n_ranks],
            inbox: vec![VecDeque::new(); n_ranks],
            send_seq: vec![0; n_ranks],
            flight,
            send_buf: Vec::new(),
            pending: Vec::new(),
            cursors: Vec::new(),
            pool: Vec::new(),
            reg: MetricsRegistry::new(),
            monitor,
            cfg,
            ws: Workspace::new(),
            step_idx: 0,
            busy_since: Instant::now(),
        }
    }

    fn amplify(&self, n_elems: usize) {
        if self.cfg.work_amplify > 0 && self.cfg.amplify_rank.is_none_or(|r| r == self.rank) {
            let iters = self.cfg.work_amplify as u64 * n_elems as u64;
            let mut x = 0u64;
            for i in 0..iters {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
    }

    /// Warm every compiled gather entry the run will touch, before the timed
    /// loop: with comm/compute overlap the first send would otherwise be
    /// delayed by the boundary list's one-time compile.
    fn precompile(&mut self) {
        for l in 0..self.n_levels {
            for elems in [
                &self.plan.my_boundary_elems[l],
                &self.plan.my_interior_elems[l],
            ] {
                if !elems.is_empty() {
                    self.op
                        .precompile_masked(elems, self.dof_level, l as u8, &mut self.ws);
                }
            }
        }
    }

    /// Post this rank's interface partials to every level-`l` peer. Stages
    /// each payload in the reused `send_buf`; allocation-free steady state
    /// (enforced via `lint/hotpaths.toml`).
    fn send_partials(&mut self, l: usize, f: &[f64]) -> Result<(), RuntimeError> {
        let mut dofs_sent = 0u64;
        for pi in 0..self.plan.peers[l].len() {
            let peer = self.plan.peers[l][pi];
            if self.gone[peer] {
                return Err(peer_gone(self.rank, peer, l));
            }
            self.send_buf.clear();
            for &d in &self.plan.pair_dofs[l][pi] {
                self.send_buf.push(f[d as usize]);
            }
            dofs_sent += self.send_buf.len() as u64;
            let seq = self.send_seq[peer];
            if let Err(e) = self.transport.send(peer, l as u8, seq, &self.send_buf) {
                return Err(send_error(self.rank, peer, l, e));
            }
            self.send_seq[peer] = seq + 1;
            self.flight
                .record(EventKind::Send, l as u8, self.step_idx, peer as u32, seq);
        }
        if let Err(e) = self.transport.flush() {
            return Err(recv_error(self.rank, l, e));
        }
        self.reg
            .inc_level(names::MSGS_SENT, l as u8, self.plan.peers[l].len() as u64);
        self.reg.inc_level(names::DOFS_SENT, l as u8, dofs_sent);
        Ok(())
    }

    /// Await one payload per level-`l` peer, then assemble shared-DOF totals
    /// in ascending-rank order for bitwise cross-rank consistency. A peer's
    /// goodbye while its payload is still awaited surfaces as
    /// [`RuntimeError::PeerDisconnected`]; payload lengths are validated
    /// against the exchange plan before any indexing. Buffers recycle
    /// through `pool`; allocation-free steady state (see
    /// `lint/hotpaths.toml`).
    fn recv_and_assemble(&mut self, l: usize, f: &mut [f64]) -> Result<(), RuntimeError> {
        let busy_s = self.busy_since.elapsed().as_secs_f64();
        self.reg.observe(names::BUSY, Some(l as u8), busy_s);
        self.flight
            .record(EventKind::ExchangeBegin, l as u8, self.step_idx, NO_PEER, 0);
        let wait_start = Instant::now();
        let np = self.plan.peers[l].len();
        // opportunistic drain: claim everything the transport has already
        // delivered before deciding what to block on. Best-effort — a
        // backend that cannot poll returns None and loses nothing (its
        // partials arrive through the blocking loop below); real errors
        // also resurface there, on the path that can classify them.
        loop {
            let mut buf = self.pool.pop().unwrap_or_default();
            match self.transport.try_recv_into(&mut buf) {
                Ok(Some(Recv::Msg { from, level, seq })) => {
                    if from >= self.inbox.len() {
                        return Err(not_a_peer(self.rank, from, l));
                    }
                    self.flight
                        .record(EventKind::Recv, level, self.step_idx, from as u32, seq);
                    self.inbox[from].push_back((level, seq, buf));
                }
                Ok(Some(Recv::Goodbye { from })) => {
                    self.pool.push(buf);
                    if from < self.gone.len() {
                        self.gone[from] = true;
                    }
                }
                Ok(None) | Err(_) => {
                    self.pool.push(buf);
                    break;
                }
            }
        }
        self.pending.clear();
        self.pending.resize_with(np, || None);
        let mut missing = np;
        let mut ready = 0u64;
        for pi in 0..np {
            let peer = self.plan.peers[l][pi];
            if let Some((tag, _seq, m)) = self.inbox[peer].pop_front() {
                if tag as usize != l {
                    return Err(bad_payload(self.rank, peer, l));
                }
                self.pending[pi] = Some(m);
                missing -= 1;
                ready += 1;
            } else if self.gone[peer] {
                // nothing stashed and the peer is dead: its payload for this
                // exchange can never arrive
                return Err(peer_gone(self.rank, peer, l));
            }
        }
        while missing > 0 {
            let mut buf = self.pool.pop().unwrap_or_default();
            match self
                .transport
                .recv_into_timeout(&mut buf, Some(EXCHANGE_WATCHDOG))
            {
                Ok(Recv::Msg { from, level, seq }) => {
                    self.flight
                        .record(EventKind::Recv, level, self.step_idx, from as u32, seq);
                    let slot = self.plan.peers[l].iter().position(|&p| p == from);
                    match slot {
                        Some(pi) if self.pending[pi].is_none() => {
                            if level as usize != l {
                                return Err(bad_payload(self.rank, from, l));
                            }
                            self.pending[pi] = Some(buf);
                            missing -= 1;
                        }
                        _ => {
                            if from >= self.inbox.len() {
                                return Err(not_a_peer(self.rank, from, l));
                            }
                            self.inbox[from].push_back((level, seq, buf));
                        }
                    }
                }
                Ok(Recv::Goodbye { from }) => {
                    self.pool.push(buf);
                    if from < self.gone.len() {
                        self.gone[from] = true;
                    }
                    let awaited = self.plan.peers[l]
                        .iter()
                        .position(|&p| p == from)
                        .is_some_and(|pi| self.pending[pi].is_none());
                    if awaited {
                        return Err(peer_gone(self.rank, from, l));
                    }
                }
                Err(e) => {
                    self.pool.push(buf);
                    return Err(recv_error(self.rank, l, e));
                }
            }
        }
        // validate payload lengths against the plan before any indexing
        for pi in 0..np {
            let ok = match self.pending[pi].as_ref() {
                Some(m) => m.len() == self.plan.pair_dofs[l][pi].len(),
                None => false,
            };
            if !ok {
                return Err(bad_payload(self.rank, self.plan.peers[l][pi], l));
            }
        }
        let wait_s = wait_start.elapsed().as_secs_f64();
        self.flight
            .record(EventKind::ExchangeEnd, l as u8, self.step_idx, NO_PEER, 0);
        self.reg.observe(names::WAIT, Some(l as u8), wait_s);
        self.reg.inc_level(names::EXCHANGES, l as u8, 1);
        if ready > 0 {
            self.reg.inc_level(names::EXCHANGE_READY, l as u8, ready);
        }
        if let Some(m) = self.monitor.as_mut() {
            if m.on_exchange(&mut self.reg, l as u8, busy_s, wait_s) {
                self.flight
                    .record(EventKind::StallWarning, l as u8, self.step_idx, NO_PEER, 0);
            }
        }
        // assemble in ascending-rank order for bitwise consistency
        self.cursors.clear();
        self.cursors.resize(np, 0);
        let rank = self.rank;
        let plan = self.plan;
        for (d, ranks) in plan.shared[l].entries() {
            let mut total = 0.0;
            for &r in ranks {
                if r as usize == rank {
                    total += f[d as usize];
                } else {
                    let pi = match plan.peers[l].iter().position(|&p| p == r as usize) {
                        Some(pi) => pi,
                        None => return Err(not_a_peer(rank, r as usize, l)),
                    };
                    match self.pending[pi].as_ref() {
                        Some(m) => {
                            total += m[self.cursors[pi]];
                            self.cursors[pi] += 1;
                        }
                        None => return Err(not_a_peer(rank, r as usize, l)),
                    }
                }
            }
            f[d as usize] = total;
        }
        // recycle the payload buffers for the next exchange
        while let Some(p) = self.pending.pop() {
            if let Some(b) = p {
                self.pool.push(b);
            }
        }
        self.busy_since = Instant::now();
        Ok(())
    }

    /// One global step through the shared recursion, framed by the step's
    /// flight events.
    fn step(
        &mut self,
        levels: &mut LevelState,
        u: &mut [f64],
        v: &mut [f64],
        t: f64,
    ) -> Result<(), RuntimeError> {
        self.flight
            .record(EventKind::StepBegin, NO_LEVEL, self.step_idx, NO_PEER, 0);
        let dt = self.dt;
        // qualified, so the call graph of `crates/lint` links this `step` only
        LevelState::step(levels, self, dt, u, v, t)?;
        self.flight
            .record(EventKind::StepEnd, NO_LEVEL, self.step_idx, NO_PEER, 0);
        self.step_idx += 1;
        Ok(())
    }
}

impl<O: Operator> LevelForce for RankCtx<'_, O> {
    type Error = RuntimeError;

    /// Apply the masked product over this rank's elements, amplify work,
    /// then assemble totals on shared DOFs.
    ///
    /// Boundary elements are applied first in *both* modes (interface
    /// partials are then complete, since interior elements by definition
    /// touch no shared DOF); `overlap` only decides whether the sends are
    /// posted between the two applies (SPECFEM3D-style, messages fly while
    /// interior elements compute) or after them. The per-DOF summation
    /// order — and therefore every field bit — is identical either way.
    fn force(&mut self, l: usize, state: &[f64], f: &mut [f64]) -> Result<(), RuntimeError> {
        self.flight
            .record(EventKind::LevelBegin, l as u8, self.step_idx, NO_PEER, 0);
        // the level's active prefix; entries the product and the assembly
        // never write are already 0.0
        f.fill(0.0);
        let has_peers = !self.plan.peers[l].is_empty();
        if !self.plan.my_boundary_elems[l].is_empty() {
            self.op.apply_masked_threads(
                state,
                f,
                &self.plan.my_boundary_elems[l],
                self.dof_level,
                l as u8,
                &mut self.ws,
                self.cfg.threads_per_rank,
            );
        }
        self.amplify(self.plan.my_boundary_elems[l].len());
        if has_peers && self.cfg.overlap {
            self.send_partials(l, f)?;
        }
        if !self.plan.my_interior_elems[l].is_empty() {
            self.op.apply_masked_threads(
                state,
                f,
                &self.plan.my_interior_elems[l],
                self.dof_level,
                l as u8,
                &mut self.ws,
                self.cfg.threads_per_rank,
            );
        }
        self.amplify(self.plan.my_interior_elems[l].len());
        self.reg
            .inc_level(names::ELEM_OPS, l as u8, self.plan.my_elems[l].len() as u64);
        if has_peers {
            if !self.cfg.overlap {
                self.send_partials(l, f)?;
            }
            self.recv_and_assemble(l, f)?;
        }
        self.flight
            .record(EventKind::LevelEnd, l as u8, self.step_idx, NO_PEER, 0);
        Ok(())
    }

    /// Inject `Δ·F(t)/M` for this rank's sources at `level` into `target`.
    fn inject(&self, level: usize, target: &mut [f64], dt: f64, t: f64, half: f64) {
        for &(si, dof) in &self.my_sources[level] {
            let src = &self.sources[si];
            let d = dof as usize;
            target[d] += half * dt * (src.amplitude)(t) / self.op.mass()[d];
        }
    }
}

/// Step one rank's world for `spec.n_steps` over `transport`, then stamp
/// its transport metrics (labelled by backend) and close the endpoint so
/// peers observe a clean goodbye. On error the context drops, which closes
/// the endpoint too — that drop is what propagates the failure cascade.
///
/// This is the one rank body: the in-process rank threads and
/// `wave-lts worker` both run it. A `cfg.fault` naming this rank wraps the
/// endpoint first.
fn step_rank<O: Operator>(
    rank: usize,
    world: LocalRank<O>,
    transport: Box<dyn Transport>,
    flight: FlightRecorder,
    monitor: Option<RankMonitor>,
    spec: &RunSpec<'_>,
) -> (RankRun, RankRecording) {
    let transport = match spec.cfg.fault {
        Some((r, plan)) if r == rank => faulty::wrap(transport, plan),
        _ => transport,
    };
    let LocalRank {
        op,
        sets,
        dof_level,
        plan,
        mut u,
        mut v,
        my_sources,
        global_of_local,
    } = world;
    let mut ctx = RankCtx::new(
        rank,
        &op,
        sets.n_levels(),
        &dof_level,
        &plan,
        spec.sources,
        my_sources,
        spec.dt,
        transport,
        flight,
        monitor,
        spec.cfg,
    );
    let mut levels = LevelState::new(sets);
    ctx.precompile();
    ctx.busy_since = Instant::now();
    for step in 0..spec.n_steps {
        if let Err(e) = ctx.step(&mut levels, &mut u, &mut v, step as f64 * spec.dt) {
            // terminal fault event, then freeze the ring for the post-mortem
            let (level, peer) = fault_context(&e);
            ctx.flight
                .record(EventKind::Fault, level, ctx.step_idx, peer, 0);
            return (Err(e), ctx.flight.snapshot(rank as u32));
        }
    }
    // busy tail after the last exchange, recorded level-less
    ctx.reg
        .observe(names::BUSY, None, ctx.busy_since.elapsed().as_secs_f64());
    if let Some(mut m) = ctx.monitor.take() {
        m.flush_window(&mut ctx.reg);
    }
    let backend = ctx.transport.backend();
    let tm = ctx.transport.metrics();
    ctx.reg
        .set_gauge_labeled(names::TRANSPORT_SEND_BLOCK_S, backend, tm.send_block_s);
    ctx.reg
        .set_gauge_labeled(names::TRANSPORT_MSGS, backend, tm.msgs_sent as f64);
    ctx.reg
        .set_gauge_labeled(names::TRANSPORT_BYTES, backend, tm.bytes_sent as f64);
    ctx.transport.close();
    let rec = ctx.flight.snapshot(rank as u32);
    let stats = RankStats::from_registry(rank, ctx.reg);
    let fields = RankFields {
        u,
        v,
        global_of_local,
    };
    (Ok((fields, stats)), rec)
}

/// Stamp the monitor's final per-level Eq. 21 λ (and its run-long watermark)
/// into the given registries as gauges. Runs after the join, when all busy
/// totals are complete, so [`names::STALL_LAMBDA`] agrees with the post-hoc
/// [`crate::stats::lambda_from_stats`].
fn stamp_lambda_gauges<'r>(
    monitor: Option<&StallMonitor>,
    regs: impl Iterator<Item = &'r mut MetricsRegistry>,
) {
    let Some(mon) = monitor else { return };
    let lam = mon.update_lambda_watermarks();
    let wm = mon.lambda_watermarks();
    for reg in regs {
        for l in 0..lam.len() {
            reg.set_gauge_level(names::STALL_LAMBDA, l as u8, lam[l]);
            reg.set_gauge_level(names::STALL_LAMBDA_WM, l as u8, wm[l]);
        }
    }
}

/// The rank-thread driver: runs [`step_rank`] for every world on one
/// scoped thread per rank, every recorder on one epoch so the recordings
/// share a time axis. All threads are joined before anything propagates: a
/// failed rank's endpoint closes, which unblocks any peer still waiting in
/// recv (goodbye cascade). A panicked rank yields
/// [`RuntimeError::RankPanicked`] and an empty recording. The monitor's λ
/// gauges are then stamped into every surviving registry.
fn run_rank_threads<O: Operator + Send>(
    worlds: Vec<LocalRank<O>>,
    endpoints: Vec<Box<dyn Transport>>,
    spec: &RunSpec<'_>,
) -> (Vec<RankRun>, Vec<RankRecording>) {
    let cfg = &spec.cfg;
    let n_levels = worlds.first().map_or(1, |w| w.sets.n_levels());
    let monitor = cfg
        .stall_monitor
        .map(|mc| StallMonitor::new(mc, endpoints.len(), n_levels));
    let epoch = Instant::now();
    let monitor_ref = &monitor;
    let (mut outcomes, recordings): (Vec<RankRun>, Vec<RankRecording>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = worlds
                .into_iter()
                .zip(endpoints)
                .enumerate()
                .map(|(rank, (world, transport))| {
                    scope.spawn(move || {
                        let flight = FlightRecorder::with_epoch(cfg.flight_capacity, epoch);
                        let mon = monitor_ref.clone().map(|s| RankMonitor::new(s, rank));
                        step_rank(rank, world, transport, flight, mon, spec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join().unwrap_or_else(|_| {
                        let rec = RankRecording {
                            rank: rank as u32,
                            dropped: 0,
                            events: Vec::new(),
                        };
                        (Err(RuntimeError::RankPanicked { rank }), rec)
                    })
                })
                .unzip()
        });
    stamp_lambda_gauges(
        monitor.as_deref(),
        outcomes
            .iter_mut()
            .filter_map(|o| o.as_mut().ok().map(|(_, st)| &mut st.registry)),
    );
    (outcomes, recordings)
}

/// One rank's complete owned world: a private operator over its own
/// elements, its plan, level sets and metadata, state and sources, all in
/// the grouped rank-local numbering (see [`crate::local`]).
pub(crate) struct LocalRank<O: Operator> {
    pub op: O,
    /// The prefix ends of the rank's level sets.
    pub sets: LevelSets,
    pub dof_level: Vec<u8>,
    pub plan: RankPlan,
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    /// Per leaf level: (source index, rank-local DOF).
    pub my_sources: Vec<Vec<(usize, u32)>>,
    /// Global DOF id of each local DOF (for final assembly).
    pub global_of_local: Vec<u32>,
}

/// The global `(u, v)` over `ndof` DOFs from every rank's final fields, in
/// rank order: the lowest rank holding a DOF provides it. The in-process
/// run and the multi-process coordinator both assemble through here.
pub(crate) fn assemble_fields<'r>(
    ndof: usize,
    ranks: impl DoubleEndedIterator<Item = &'r RankFields>,
) -> (Vec<f64>, Vec<f64>) {
    let mut u = vec![0.0; ndof];
    let mut v = vec![0.0; ndof];
    // highest rank first, so the lowest holder writes each DOF last
    for f in ranks.rev() {
        for (l, &g) in f.global_of_local.iter().enumerate() {
            u[g as usize] = f.u[l];
            v[g as usize] = f.v[l];
        }
    }
    (u, v)
}

/// What one run decomposes and steps, besides the problem itself.
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Each element's LTS level.
    pub elem_level: &'a [u8],
    /// Each element's rank.
    pub partition: &'a [u32],
    /// The global (coarsest) step `Δt`.
    pub dt: f64,
    /// Initial global `u` and `v`.
    pub u0: &'a [f64],
    pub v0: &'a [f64],
    pub n_steps: usize,
    /// Point sources, on global DOFs; each rank holding a source's DOF
    /// injects it, so interface DOFs stay consistent.
    pub sources: &'a [Source],
    pub cfg: DistributedConfig,
}

/// What an in-process run returns.
#[derive(Debug)]
pub struct RunOutput {
    /// Each rank's own outcome: its statistics, or its failure.
    pub ranks: Vec<Result<RankStats, RuntimeError>>,
    /// Each rank's drained flight-recorder ring, on success and failure
    /// alike: the material of a crash report.
    pub recordings: Vec<RankRecording>,
    /// The assembled global `(u, v)`, when every rank succeeded.
    pub fields: Option<(Vec<f64>, Vec<f64>)>,
}

impl RunOutput {
    /// Fields and per-rank statistics, or the lowest failed rank's error
    /// (rank order, so deterministic across runs).
    pub fn into_result(self) -> RunResult {
        let stats = self.ranks.into_iter().collect::<Result<Vec<_>, _>>()?;
        let (u, v) = self.fields.ok_or(RuntimeError::MissingRank { rank: 0 })?;
        Ok((u, v, stats))
    }
}

/// Run `spec` on `cfg.n_ranks` in-process ranks, each a thread stepping
/// its own local world.
///
/// Builds the global setup, mass and plans once (the decomposer phase a
/// real code runs before its ranks start), hands each rank only its slice
/// of the world, and drops the global operator before stepping. The ranks
/// exchange over `endpoints` when given — one per rank, e.g. wrapped to
/// inject faults or latency — and otherwise over a fresh `cfg.transport`
/// cluster. The phases are recorded as spans in `host`
/// (`decompose.discretize`, `decompose.build_worlds`, `run.steps`), and
/// every successful rank's registry is folded into it.
pub fn run<P: Decompose>(
    problem: &P,
    spec: &RunSpec<'_>,
    endpoints: Option<Vec<Box<dyn Transport>>>,
    host: &mut MetricsRegistry,
) -> RunOutput {
    let n_ranks = spec.cfg.n_ranks;
    let endpoints =
        endpoints.unwrap_or_else(|| transport::make_cluster(spec.cfg.transport, n_ranks));
    assert_eq!(endpoints.len(), n_ranks, "one endpoint per rank");
    let ndof = spec.u0.len();
    let discretize = host.start_span("decompose.discretize", None);
    let d = decompose(problem, spec);
    drop(discretize);
    host.set_gauge("ndof", ndof as f64);
    host.set_gauge("n_ranks", n_ranks as f64);
    let worlds_span = host.start_span("decompose.build_worlds", None);
    let worlds = local_worlds(problem, spec, d);
    drop(worlds_span);
    let run_span = host.start_span("run.steps", None);
    let (outcomes, recordings) = run_rank_threads(worlds, endpoints, spec);
    drop(run_span);
    let fields = outcomes
        .iter()
        .map(|o| o.as_ref().ok().map(|(f, _)| f))
        .collect::<Option<Vec<_>>>()
        .map(|all| assemble_fields(ndof, all.into_iter()));
    let ranks: Vec<_> = outcomes.into_iter().map(|o| o.map(|(_, st)| st)).collect();
    for st in ranks.iter().flatten() {
        host.merge_from(&st.registry);
    }
    RunOutput {
        ranks,
        recordings,
        fields,
    }
}

/// Run rank `rank` of `spec` alone, on an endpoint already connected to
/// its peers — what each `wave-lts worker` process runs. It discretizes
/// and plans the whole problem like [`run`], builds only its own world,
/// drops the global operator, and steps through the same rank body as the
/// in-process threads. Returns the rank's fields in its own numbering and
/// its flight recording, on failure too.
///
/// The recorder gets its own epoch (one per OS process); the causal merge
/// never compares raw timestamps across ranks. The online stall monitor
/// needs shared memory across ranks, so it does not run here.
pub fn run_rank<P: Decompose>(
    problem: &P,
    spec: &RunSpec<'_>,
    rank: usize,
    transport: Box<dyn Transport>,
) -> (RankRun, RankRecording) {
    let world = rank_world(problem, spec, &decompose(problem, spec), rank);
    let flight = FlightRecorder::new(spec.cfg.flight_capacity);
    step_rank(rank, world, transport, flight, None, spec)
}

/// [`run`] on the acoustic SEM of `mesh` at `order`, returning
/// [`RunResult`]; the decomposer phases are recorded in `host`.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_acoustic_observed(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> RunResult {
    run_distributed_local_acoustic_flight(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
    .0
}

/// [`run_distributed_local_acoustic_observed`] that also returns every
/// rank's flight recording, on the `Err` side too.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_acoustic_flight(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    let spec = RunSpec {
        elem_level: &levels.elem_level,
        partition,
        dt,
        u0,
        v0,
        n_steps,
        sources,
        cfg: *cfg,
    };
    let mut out = run(&Acoustic { mesh, order }, &spec, None, host);
    let recordings = std::mem::take(&mut out.recordings);
    (out.into_result(), recordings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::{Chain1d, LtsNewmark, LtsSetup};

    /// [`run`] on the chain `c` with zero initial velocity and no sources.
    fn run_chain(
        c: &Chain1d,
        setup: &LtsSetup,
        partition: &[u32],
        dt: f64,
        u0: &[f64],
        n_steps: usize,
        cfg: &DistributedConfig,
    ) -> RunOutput {
        let v0 = vec![0.0; u0.len()];
        let spec = RunSpec {
            elem_level: &setup.elem_level,
            partition,
            dt,
            u0,
            v0: &v0,
            n_steps,
            sources: &[],
            cfg: *cfg,
        };
        run(c, &spec, None, &mut MetricsRegistry::new())
    }

    fn serial(
        c: &Chain1d,
        setup: &LtsSetup,
        dt: f64,
        u0: &[f64],
        steps: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut u = u0.to_vec();
        let mut v = vec![0.0; u0.len()];
        let mut lts = LtsNewmark::new(c, setup, dt);
        lts.run(&mut u, &mut v, 0.0, steps, &[]);
        (u, v)
    }

    fn gaussian(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (-((i as f64 - n as f64 / 2.5) / 2.0).powi(2)).exp())
            .collect()
    }

    #[test]
    fn two_ranks_match_serial_single_level() {
        let c = Chain1d::uniform(16, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 16]);
        let u0 = gaussian(17);
        let (us, vs) = serial(&c, &setup, 0.5, &u0, 30);
        let part: Vec<u32> = (0..16).map(|e| u32::from(e >= 8)).collect();
        let cfg = DistributedConfig::new(2);
        let (ud, vd, stats) = run_chain(&c, &setup, &part, 0.5, &u0, 30, &cfg)
            .into_result()
            .unwrap();
        for i in 0..17 {
            assert_eq!(us[i], ud[i], "u[{i}]");
            assert_eq!(vs[i], vd[i], "v[{i}]");
        }
        assert_eq!(stats.len(), 2);
        assert!(stats[0].n_exchanges > 0);
    }

    #[test]
    fn four_ranks_match_serial_three_levels() {
        let mut vel = vec![1.0; 24];
        for (i, vx) in vel.iter_mut().enumerate() {
            if i >= 20 {
                *vx = 4.0;
            } else if i >= 17 {
                *vx = 2.0;
            }
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        assert_eq!(setup.n_levels, 3);
        let u0 = gaussian(25);
        let (us, _) = serial(&c, &setup, dt, &u0, 20);
        let part: Vec<u32> = (0..24).map(|e| (e / 6) as u32).collect();
        let cfg = DistributedConfig::new(4);
        let (ud, _, _) = run_chain(&c, &setup, &part, dt, &u0, 20, &cfg)
            .into_result()
            .unwrap();
        for i in 0..25 {
            assert!(
                (us[i] - ud[i]).abs() < 1e-13,
                "u[{i}]: serial {} vs distributed {}",
                us[i],
                ud[i]
            );
        }
    }

    #[test]
    fn scrambled_partition_still_exact() {
        let mut vel = vec![1.0; 12];
        for v in vel.iter_mut().skip(8) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(13);
        let (us, _) = serial(&c, &setup, dt, &u0, 15);
        // interleaved ownership → many interfaces
        let part: Vec<u32> = (0..12).map(|e| (e % 3) as u32).collect();
        let cfg = DistributedConfig::new(3);
        let (ud, _, _) = run_chain(&c, &setup, &part, dt, &u0, 15, &cfg)
            .into_result()
            .unwrap();
        for i in 0..13 {
            assert!((us[i] - ud[i]).abs() < 1e-13, "u[{i}]");
        }
    }

    #[test]
    fn single_rank_matches_serial() {
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 8]);
        let u0 = gaussian(9);
        let (us, _) = serial(&c, &setup, 0.5, &u0, 10);
        let cfg = DistributedConfig::new(1);
        let (ud, _, stats) = run_chain(&c, &setup, &[0; 8], 0.5, &u0, 10, &cfg)
            .into_result()
            .unwrap();
        assert_eq!(us, ud);
        assert_eq!(stats[0].n_exchanges, 0);
    }

    /// The unified boundary-first force path makes overlap a pure *send
    /// placement* choice: fields must agree bit-for-bit, not just to
    /// round-off, and the deterministic counters must be identical.
    #[test]
    fn overlap_matches_blocking_bitwise() {
        let mut vel = vec![1.0; 24];
        for (i, vx) in vel.iter_mut().enumerate() {
            if i >= 20 {
                *vx = 4.0;
            } else if i >= 17 {
                *vx = 2.0;
            }
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(25);
        let part: Vec<u32> = (0..24).map(|e| (e / 8) as u32).collect();
        let blocking = DistributedConfig::new(3);
        let overlapped = DistributedConfig {
            overlap: true,
            ..blocking
        };
        let (ub, vb, sb) = run_chain(&c, &setup, &part, dt, &u0, 20, &blocking)
            .into_result()
            .unwrap();
        let (uo, vo, so) = run_chain(&c, &setup, &part, dt, &u0, 20, &overlapped)
            .into_result()
            .unwrap();
        for i in 0..25 {
            assert_eq!(ub[i].to_bits(), uo[i].to_bits(), "u[{i}]");
            assert_eq!(vb[i].to_bits(), vo[i].to_bits(), "v[{i}]");
        }
        for (b, o) in sb.iter().zip(&so) {
            assert_eq!(b.elem_ops, o.elem_ops);
            assert_eq!(b.n_exchanges, o.n_exchanges);
            assert_eq!(b.msgs_sent, o.msgs_sent);
            assert_eq!(b.dofs_sent, o.dofs_sent);
        }
    }

    /// Pluggable means interchangeable: the socket backend must produce the
    /// same field bits and the same deterministic counters as the channel
    /// reference, in both communication modes.
    #[test]
    fn every_transport_matches_channel_bitwise() {
        let mut vel = vec![1.0; 12];
        for v in vel.iter_mut().skip(8) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(13);
        let part: Vec<u32> = (0..12).map(|e| (e % 3) as u32).collect();
        for overlap in [false, true] {
            let base = DistributedConfig {
                overlap,
                ..DistributedConfig::new(3)
            };
            let (uc, vc, sc) = run_chain(&c, &setup, &part, dt, &u0, 15, &base)
                .into_result()
                .unwrap();
            let cfg = DistributedConfig {
                transport: TransportKind::UnixSocket,
                ..base
            };
            let (u, v, st) = run_chain(&c, &setup, &part, dt, &u0, 15, &cfg)
                .into_result()
                .unwrap();
            for i in 0..13 {
                assert_eq!(uc[i].to_bits(), u[i].to_bits(), "u[{i}]");
                assert_eq!(vc[i].to_bits(), v[i].to_bits(), "v[{i}]");
            }
            for (a, b) in sc.iter().zip(&st) {
                assert_eq!(a.elem_ops, b.elem_ops);
                assert_eq!(a.n_exchanges, b.n_exchanges);
                assert_eq!(a.msgs_sent, b.msgs_sent);
                assert_eq!(a.dofs_sent, b.dofs_sent);
            }
        }
    }

    #[test]
    fn overlap_covers_all_elements() {
        let c = Chain1d::uniform(12, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 12]);
        let part: Vec<u32> = (0..12).map(|e| u32::from(e >= 6)).collect();
        let plans = crate::exchange::build_plans(&c, &setup, &part, 2);
        for p in &plans {
            for l in 0..setup.n_levels {
                let mut all = p.my_boundary_elems[l].clone();
                all.extend_from_slice(&p.my_interior_elems[l]);
                all.sort_unstable();
                let mut expect = p.my_elems[l].clone();
                expect.sort_unstable();
                assert_eq!(all, expect);
            }
        }
    }

    #[test]
    fn imbalanced_partition_shows_stall() {
        // Fig. 1 scenario: all fine elements on one rank; with amplified
        // work, the coarse-only rank must wait.
        let mut vel = vec![1.0; 16];
        for v in vel.iter_mut().skip(12) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let part: Vec<u32> = (0..16).map(|e| u32::from(e >= 8)).collect(); // rank 1 has all fine
        let cfg = DistributedConfig {
            work_amplify: 20_000,
            flight_capacity: FlightRecorder::DEFAULT_CAPACITY,
            ..DistributedConfig::new(2)
        };
        let u0 = gaussian(17);
        let mut out = run_chain(&c, &setup, &part, dt, &u0, 50, &cfg);
        let recordings = std::mem::take(&mut out.recordings);
        let (_, _, stats) = out.into_result().unwrap();
        // rank 0 (coarse only) waits more than rank 1
        assert!(
            stats[0].wait_s > stats[1].wait_s,
            "rank0 wait {} vs rank1 wait {}",
            stats[0].wait_s,
            stats[1].wait_s
        );
        // rank 0's ring holds one exchange end per exchange it awaited
        let ends = recordings[0]
            .events
            .iter()
            .filter(|e| e.kind == EventKind::ExchangeEnd)
            .count() as u64;
        assert_eq!(recordings[0].dropped, 0);
        assert!(ends > 0);
        assert_eq!(ends, stats[0].n_exchanges);
    }

    #[test]
    fn monitor_lambda_matches_posthoc_eq21() {
        use crate::stats::lambda_from_stats;
        // uniform mesh, even partition — then skew all amplified work onto
        // rank 1 so the ranks' busy times differ. Whether a rank's window
        // crosses the wait threshold depends on host load, so the
        // warn/no-warn verdict is tested on injected durations in
        // `monitor::tests`; this end-to-end check is load-independent.
        let c = Chain1d::uniform(16, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 16]);
        let part: Vec<u32> = (0..16).map(|e| u32::from(e >= 8)).collect();
        let cfg = DistributedConfig {
            work_amplify: 60_000,
            amplify_rank: Some(1),
            stall_monitor: Some(MonitorConfig {
                window_exchanges: 4,
                wait_warn_fraction: 0.5,
                log_warnings: false,
            }),
            ..DistributedConfig::new(2)
        };
        let u0 = gaussian(17);
        let (_, _, stats) = run_chain(&c, &setup, &part, 0.5, &u0, 60, &cfg)
            .into_result()
            .unwrap();
        let posthoc = lambda_from_stats(&stats);
        assert!(!posthoc.is_empty());
        for &(l, lam) in &posthoc {
            // the online monitor accumulates the same per-exchange busy
            // durations in integer nanoseconds; after the post-join stamp the
            // gauge must agree with the post-hoc Eq. 21 value
            for st in &stats {
                let gauge = st
                    .registry
                    .gauge(names::STALL_LAMBDA, Some(l))
                    .expect("final lambda gauge stamped on every rank");
                assert!(
                    (gauge - lam).abs() < 1e-3,
                    "level {l}: monitor lambda {gauge} vs post-hoc {lam}"
                );
                let wm = st
                    .registry
                    .gauge(names::STALL_LAMBDA_WM, Some(l))
                    .expect("lambda watermark stamped");
                assert!(wm + 1e-12 >= gauge, "watermark {wm} below final {gauge}");
            }
        }
        for st in &stats {
            assert!(
                st.registry
                    .gauge(names::STALL_WAIT_FRAC_WM, Some(0))
                    .is_some(),
                "wait-fraction watermark recorded on rank {}",
                st.rank
            );
        }
    }

    /// The observers' neutrality contract: the flight recorder and the
    /// stall monitor both on vs. both off must produce bitwise-identical
    /// fields and exactly identical deterministic counters — observation,
    /// never perturbation.
    #[test]
    fn observers_on_off_are_bitwise_neutral() {
        let mut vel = vec![1.0; 24];
        for (i, vx) in vel.iter_mut().enumerate() {
            if i >= 20 {
                *vx = 4.0;
            } else if i >= 17 {
                *vx = 2.0;
            }
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(25);
        let part: Vec<u32> = (0..24).map(|e| (e / 6) as u32).collect();
        let on = DistributedConfig {
            flight_capacity: 512,
            stall_monitor: Some(MonitorConfig {
                window_exchanges: 4,
                log_warnings: false,
                ..MonitorConfig::default()
            }),
            ..DistributedConfig::new(4)
        };
        let off = DistributedConfig {
            flight_capacity: 0,
            stall_monitor: None,
            ..on
        };
        let (u1, v1, s1) = run_chain(&c, &setup, &part, dt, &u0, 20, &on)
            .into_result()
            .unwrap();
        let windows: u64 = s1
            .iter()
            .map(|s| s.registry.counter_total(names::STALL_WINDOWS))
            .sum();
        assert!(windows > 0, "the stall monitor closed no window");
        let (u0r, v0r, s0) = run_chain(&c, &setup, &part, dt, &u0, 20, &off)
            .into_result()
            .unwrap();
        for i in 0..25 {
            assert_eq!(u1[i].to_bits(), u0r[i].to_bits(), "u[{i}]");
            assert_eq!(v1[i].to_bits(), v0r[i].to_bits(), "v[{i}]");
        }
        for (a, b) in s1.iter().zip(&s0) {
            assert_eq!(a.elem_ops, b.elem_ops);
            assert_eq!(a.n_exchanges, b.n_exchanges);
            assert_eq!(a.msgs_sent, b.msgs_sent);
            assert_eq!(a.dofs_sent, b.dofs_sent);
        }
    }

    /// A configured fault yields errors *and* recordings on every rank, and
    /// the recordings merge into a causally valid order with the victim's
    /// terminal fault event present.
    #[test]
    fn config_fault_produces_mergeable_recordings() {
        use crate::transport::faulty::FaultPlan;
        use lts_obs::merge_recordings;
        let mut vel = vec![1.0; 12];
        for v in vel.iter_mut().skip(8) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(13);
        let part: Vec<u32> = (0..12).map(|e| (e % 3) as u32).collect();
        let cfg = DistributedConfig {
            flight_capacity: 1024,
            fault: Some((
                1,
                FaultPlan {
                    die_on_send_at_level: Some(1),
                    ..FaultPlan::default()
                },
            )),
            ..DistributedConfig::new(3)
        };
        let out = run_chain(&c, &setup, &part, dt, &u0, 15, &cfg);
        let (outcomes, recs) = (out.ranks, out.recordings);
        for (rank, o) in outcomes.iter().enumerate() {
            assert!(o.is_err(), "rank {rank} should fail after the cascade");
        }
        assert_eq!(recs.len(), 3);
        assert!(recs
            .iter()
            .any(|r| r.events.iter().any(|e| e.kind == EventKind::Fault)));
        let merged = merge_recordings(&recs).expect("faulted recordings still merge");
        assert!(!merged.is_empty());
    }

    /// Transport accounting rides along as backend-labelled gauges.
    #[test]
    fn transport_gauges_are_stamped() {
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 8]);
        let u0 = gaussian(9);
        let part: Vec<u32> = (0..8).map(|e| u32::from(e >= 4)).collect();
        let cfg = DistributedConfig::new(2);
        let (_, _, stats) = run_chain(&c, &setup, &part, 0.5, &u0, 5, &cfg)
            .into_result()
            .unwrap();
        for st in &stats {
            let msgs = st
                .registry
                .gauge_labeled(names::TRANSPORT_MSGS, "channel")
                .expect("transport msgs gauge");
            assert_eq!(msgs as u64, st.msgs_sent);
            assert!(st
                .registry
                .gauge_labeled(names::TRANSPORT_SEND_BLOCK_S, "channel")
                .is_some());
        }
    }
}
