//! A timing wrapper around any [`Operator`]: forwards every call unchanged
//! and adds the wall time and element count of each masked product to a
//! per-level tally. The wrapped operator computes exactly what the bare one
//! does (the tests check the fields bit for bit), so the stepper's own time
//! minus the tallied kernel time is the time spent outside the kernel.

use lts_core::{Operator, Workspace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// LTS levels the tally has room for (the setup caps levels at 16).
const MAX_LEVELS: usize = 16;

pub struct TimedOp<'a, O: Operator> {
    inner: &'a O,
    // Statistics only: Relaxed, they publish no other data.
    nanos: [AtomicU64; MAX_LEVELS],
    calls: [AtomicU64; MAX_LEVELS],
    elems: [AtomicU64; MAX_LEVELS],
}

/// Per-level kernel totals read off a [`TimedOp`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTally {
    pub seconds: Vec<f64>,
    pub calls: Vec<u64>,
    pub elems: Vec<u64>,
}

impl KernelTally {
    pub fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    pub fn total_elems(&self) -> u64 {
        self.elems.iter().sum()
    }
}

impl<'a, O: Operator> TimedOp<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        TimedOp {
            inner,
            nanos: Default::default(),
            calls: Default::default(),
            elems: Default::default(),
        }
    }

    /// Totals for levels `0..n_levels`.
    pub fn tally(&self, n_levels: usize) -> KernelTally {
        let read = |a: &[AtomicU64; MAX_LEVELS]| -> Vec<u64> {
            a[..n_levels]
                .iter()
                .map(|x| x.load(Ordering::Relaxed))
                .collect()
        };
        KernelTally {
            seconds: read(&self.nanos)
                .iter()
                .map(|&ns| ns as f64 * 1e-9)
                .collect(),
            calls: read(&self.calls),
            elems: read(&self.elems),
        }
    }

    fn record(&self, level: u8, n_elems: usize, started: Instant) {
        let l = level as usize;
        let ns = started.elapsed().as_nanos() as u64;
        self.nanos[l].fetch_add(ns, Ordering::Relaxed);
        self.calls[l].fetch_add(1, Ordering::Relaxed);
        self.elems[l].fetch_add(n_elems as u64, Ordering::Relaxed);
    }
}

impl<O: Operator> Operator for TimedOp<'_, O> {
    fn ndof(&self) -> usize {
        self.inner.ndof()
    }

    fn apply_ws(&self, u: &[f64], out: &mut [f64], ws: &mut Workspace) {
        self.inner.apply_ws(u, out, ws);
    }

    fn apply_masked_ws(
        &self,
        u: &[f64],
        out: &mut [f64],
        elems: &[u32],
        dof_level: &[u8],
        level: u8,
        ws: &mut Workspace,
    ) {
        let started = Instant::now();
        self.inner
            .apply_masked_ws(u, out, elems, dof_level, level, ws);
        self.record(level, elems.len(), started);
    }

    fn apply_masked_threads(
        &self,
        u: &[f64],
        out: &mut [f64],
        elems: &[u32],
        dof_level: &[u8],
        level: u8,
        ws: &mut Workspace,
        threads: usize,
    ) {
        let started = Instant::now();
        self.inner
            .apply_masked_threads(u, out, elems, dof_level, level, ws, threads);
        self.record(level, elems.len(), started);
    }

    fn precompile_masked(&self, elems: &[u32], dof_level: &[u8], level: u8, ws: &mut Workspace) {
        self.inner.precompile_masked(elems, dof_level, level, ws);
    }

    fn mass(&self) -> &[f64] {
        self.inner.mass()
    }
}
