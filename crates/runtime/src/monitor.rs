//! Online stall/imbalance monitoring.
//!
//! The paper's diagnosis loop is post-hoc: run, dump `RankStats`, look at
//! Fig. 1. This module watches the same signals *while the run is live*:
//! each rank feeds its per-exchange busy/wait durations into a shared
//! [`StallMonitor`] (two relaxed atomic adds per exchange — the hot path
//! stays lock-free), and a per-rank [`RankMonitor`] tracks a sliding window
//! of `window_exchanges` exchanges. At every window boundary the rank
//!
//! * records its windowed per-level wait-fraction watermark as a gauge
//!   ([`crate::stats::names::STALL_WAIT_FRAC_WM`]),
//! * refreshes the per-level λ watermark (Eq. 21 over the ranks' measured
//!   busy time so far), and
//! * raises a [`StallWarning`] (once per rank × level) when the window's
//!   wait fraction crosses the configured threshold.
//!
//! Final λ gauges ([`crate::stats::names::STALL_LAMBDA`]) are stamped into
//! every rank's registry after the join, when all busy totals are complete —
//! they then agree with the post-hoc [`crate::stats::lambda_from_stats`].

use crate::stats::names;
use lts_obs::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Stall-monitor knobs, carried inside [`crate::DistributedConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Exchanges per observation window (per rank).
    pub window_exchanges: u32,
    /// Warn when a window's per-level wait fraction reaches this value.
    pub wait_warn_fraction: f64,
    /// Print structured `[stall-monitor]` warning lines to stderr.
    pub log_warnings: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_exchanges: 16,
            wait_warn_fraction: 0.5,
            log_warnings: true,
        }
    }
}

/// One threshold crossing: rank `rank` spent `wait_fraction` of the last
/// window blocked at exchanges of `level`, while the run-wide per-level
/// imbalance stood at `lambda`.
#[derive(Debug, Clone, PartialEq)]
pub struct StallWarning {
    pub rank: usize,
    pub level: u8,
    /// Exchanges this rank had completed when the warning fired.
    pub exchanges_seen: u64,
    pub wait_fraction: f64,
    pub lambda: f64,
}

/// Eq. 21 over a slice of per-rank loads: `(max − min) / max`, as a fraction
/// (0 = perfectly balanced, → 1 = one rank idles). Zero when nothing ran.
pub fn eq21_lambda(loads: &[f64]) -> f64 {
    let max = loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
    if max > 0.0 {
        (max - min) / max
    } else {
        0.0
    }
}

/// Shared cross-rank accumulator. Ranks write only their own `(rank, level)`
/// slots, so the relaxed atomics never contend on the hot path; readers take
/// an instantaneous (slightly stale) snapshot.
#[derive(Debug)]
pub struct StallMonitor {
    cfg: MonitorConfig,
    n_ranks: usize,
    n_levels: usize,
    /// Busy/wait nanoseconds per `rank * n_levels + level`.
    busy_ns: Vec<AtomicU64>,
    wait_ns: Vec<AtomicU64>,
    /// Per-level watermark of λ snapshots, stored as `f64` bits.
    lambda_wm_bits: Vec<AtomicU64>,
    warnings: Mutex<Vec<StallWarning>>,
}

impl StallMonitor {
    pub fn new(cfg: MonitorConfig, n_ranks: usize, n_levels: usize) -> Arc<Self> {
        let slots = n_ranks * n_levels;
        Arc::new(StallMonitor {
            cfg,
            n_ranks,
            n_levels,
            busy_ns: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            wait_ns: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            lambda_wm_bits: (0..n_levels)
                .map(|_| AtomicU64::new(0f64.to_bits()))
                .collect(),
            warnings: Mutex::new(Vec::new()),
        })
    }

    pub fn config(&self) -> MonitorConfig {
        self.cfg
    }

    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// Fold one exchange's busy/wait seconds into `(rank, level)`.
    pub fn record(&self, rank: usize, level: u8, busy_s: f64, wait_s: f64) {
        let slot = rank * self.n_levels + level as usize;
        self.busy_ns[slot].fetch_add((busy_s * 1e9) as u64, Ordering::Relaxed);
        self.wait_ns[slot].fetch_add((wait_s * 1e9) as u64, Ordering::Relaxed);
    }

    /// Instantaneous Eq. 21 λ per level over the ranks' busy time so far.
    /// Callable from inside the exchange loop, so the per-level fold streams
    /// min/max instead of materializing a per-rank load vector.
    pub fn lambda_per_level(&self) -> Vec<f64> {
        (0..self.n_levels)
            .map(|l| {
                let (mut max, mut min) = (f64::NEG_INFINITY, f64::INFINITY);
                for r in 0..self.n_ranks {
                    let load = self.busy_ns[r * self.n_levels + l].load(Ordering::Relaxed) as f64;
                    max = max.max(load);
                    min = min.min(load);
                }
                if max > 0.0 {
                    (max - min) / max
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Refresh the per-level λ watermarks from a fresh snapshot and return it.
    pub fn update_lambda_watermarks(&self) -> Vec<f64> {
        let snap = self.lambda_per_level();
        for (l, &lam) in snap.iter().enumerate() {
            let cell = &self.lambda_wm_bits[l];
            let mut cur = cell.load(Ordering::Relaxed);
            while lam > f64::from_bits(cur) {
                match cell.compare_exchange_weak(
                    cur,
                    lam.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        snap
    }

    pub fn lambda_watermarks(&self) -> Vec<f64> {
        self.lambda_wm_bits
            .iter()
            .map(|b| f64::from_bits(b.load(Ordering::Relaxed)))
            .collect()
    }

    pub fn push_warning(&self, w: StallWarning) {
        if self.cfg.log_warnings {
            eprintln!(
                "[stall-monitor] rank={} level={} window_wait_frac={:.2} lambda={:.2} threshold={:.2} exchanges={}",
                w.rank, w.level, w.wait_fraction, w.lambda, self.cfg.wait_warn_fraction, w.exchanges_seen
            );
        }
        // A panicked rank may have poisoned the mutex; the warning list is
        // still coherent (push is atomic w.r.t. the lock), so recover it.
        self.warnings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(w);
    }

    pub fn warnings(&self) -> Vec<StallWarning> {
        self.warnings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// The rank-thread side of the monitor: window accumulation and gauge
/// recording. Owned by one rank; `reg` is that rank's registry.
#[derive(Debug)]
pub struct RankMonitor {
    shared: Arc<StallMonitor>,
    rank: usize,
    exchanges: u64,
    win_busy: Vec<f64>,
    win_wait: Vec<f64>,
    warned: Vec<bool>,
}

impl RankMonitor {
    pub fn new(shared: Arc<StallMonitor>, rank: usize) -> Self {
        let n_levels = shared.n_levels();
        RankMonitor {
            shared,
            rank,
            exchanges: 0,
            win_busy: vec![0.0; n_levels],
            win_wait: vec![0.0; n_levels],
            warned: vec![false; n_levels],
        }
    }

    /// Called by the rank at every exchange point. Returns `true` when the
    /// call closed a window that raised a new stall warning (the flight
    /// recorder logs a `stall_warning` event off this).
    pub fn on_exchange(
        &mut self,
        reg: &mut MetricsRegistry,
        level: u8,
        busy_s: f64,
        wait_s: f64,
    ) -> bool {
        self.shared.record(self.rank, level, busy_s, wait_s);
        self.win_busy[level as usize] += busy_s;
        self.win_wait[level as usize] += wait_s;
        self.exchanges += 1;
        if self
            .exchanges
            .is_multiple_of(self.shared.config().window_exchanges.max(1) as u64)
        {
            self.flush_window(reg)
        } else {
            false
        }
    }

    /// Close the current window: count it, record watermarks, raise
    /// threshold warnings. Also called once at end of run for the final
    /// partial window. Returns whether a new warning fired.
    pub fn flush_window(&mut self, reg: &mut MetricsRegistry) -> bool {
        reg.inc(names::STALL_WINDOWS, 1);
        let mut warned_now = false;
        let lambda = self.shared.update_lambda_watermarks();
        let threshold = self.shared.config().wait_warn_fraction;
        for (l, &lam) in lambda.iter().enumerate().take(self.win_busy.len()) {
            let total = self.win_busy[l] + self.win_wait[l];
            if total <= 0.0 {
                continue;
            }
            let wf = self.win_wait[l] / total;
            let wm = reg
                .gauge(names::STALL_WAIT_FRAC_WM, Some(l as u8))
                .unwrap_or(0.0);
            if wf > wm {
                reg.set_gauge_level(names::STALL_WAIT_FRAC_WM, l as u8, wf);
            }
            if wf >= threshold && !self.warned[l] {
                self.warned[l] = true;
                warned_now = true;
                reg.inc_level(names::STALL_WARNINGS, l as u8, 1);
                self.shared.push_warning(StallWarning {
                    rank: self.rank,
                    level: l as u8,
                    exchanges_seen: self.exchanges,
                    wait_fraction: wf,
                    lambda: lam,
                });
            }
            self.win_busy[l] = 0.0;
            self.win_wait[l] = 0.0;
        }
        warned_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq21_lambda_edge_cases() {
        assert_eq!(eq21_lambda(&[]), 0.0);
        assert_eq!(eq21_lambda(&[0.0, 0.0]), 0.0);
        assert_eq!(eq21_lambda(&[2.0, 2.0]), 0.0);
        assert!((eq21_lambda(&[1.0, 4.0]) - 0.75).abs() < 1e-12);
        assert_eq!(eq21_lambda(&[0.0, 3.0]), 1.0);
    }

    #[test]
    fn monitor_accumulates_and_snapshots_lambda() {
        let mon = StallMonitor::new(MonitorConfig::default(), 2, 2);
        mon.record(0, 0, 1.0, 0.0);
        mon.record(1, 0, 0.25, 0.75);
        mon.record(0, 1, 0.5, 0.0);
        let lam = mon.lambda_per_level();
        assert!((lam[0] - 0.75).abs() < 1e-9, "{lam:?}");
        assert_eq!(lam[1], 1.0); // rank 1 never busy at level 1
    }

    #[test]
    fn watermark_only_rises() {
        let mon = StallMonitor::new(MonitorConfig::default(), 2, 1);
        mon.record(0, 0, 1.0, 0.0);
        mon.record(1, 0, 0.5, 0.0);
        mon.update_lambda_watermarks();
        let wm1 = mon.lambda_watermarks()[0];
        assert!((wm1 - 0.5).abs() < 1e-9);
        // rank 1 catches up → snapshot drops, watermark must not
        mon.record(1, 0, 0.5, 0.0);
        let snap = mon.update_lambda_watermarks();
        assert!(snap[0].abs() < 1e-9);
        assert_eq!(mon.lambda_watermarks()[0], wm1);
    }

    #[test]
    fn rank_monitor_warns_once_per_level_and_records_gauges() {
        let cfg = MonitorConfig {
            window_exchanges: 2,
            wait_warn_fraction: 0.6,
            log_warnings: false,
        };
        let mon = StallMonitor::new(cfg, 2, 1);
        let mut rm = RankMonitor::new(mon.clone(), 0);
        let mut reg = MetricsRegistry::new();
        // window 1: 80 % wait → warning
        rm.on_exchange(&mut reg, 0, 0.2, 0.8);
        rm.on_exchange(&mut reg, 0, 0.2, 0.8);
        // window 2: still stalled → no second warning
        rm.on_exchange(&mut reg, 0, 0.2, 0.8);
        rm.on_exchange(&mut reg, 0, 0.2, 0.8);
        let warnings = mon.warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].rank, 0);
        assert_eq!(warnings[0].level, 0);
        assert!((warnings[0].wait_fraction - 0.8).abs() < 1e-9);
        assert_eq!(reg.counter(names::STALL_WARNINGS, Some(0)), 1);
        assert_eq!(reg.counter(names::STALL_WINDOWS, None), 2);
        let wm = reg.gauge(names::STALL_WAIT_FRAC_WM, Some(0)).unwrap();
        assert!((wm - 0.8).abs() < 1e-9);
    }

    /// The verdict of a skewed two-rank run, on injected durations: the
    /// rank that waits past the threshold warns, the busy one never does.
    #[test]
    fn stalled_rank_warns_and_busy_rank_does_not() {
        let cfg = MonitorConfig {
            window_exchanges: 4,
            wait_warn_fraction: 0.5,
            log_warnings: false,
        };
        let mon = StallMonitor::new(cfg, 2, 1);
        let mut idle = RankMonitor::new(mon.clone(), 0);
        let mut busy = RankMonitor::new(mon.clone(), 1);
        let (mut reg0, mut reg1) = (MetricsRegistry::new(), MetricsRegistry::new());
        for _ in 0..60 {
            // rank 1 computes 10 ms per exchange; rank 0 computes 1 ms and
            // waits the other 9 for rank 1's partials
            idle.on_exchange(&mut reg0, 0, 0.001, 0.009);
            busy.on_exchange(&mut reg1, 0, 0.010, 0.000_01);
        }
        idle.flush_window(&mut reg0);
        busy.flush_window(&mut reg1);
        assert_eq!(reg0.counter_total(names::STALL_WARNINGS), 1);
        assert_eq!(reg1.counter_total(names::STALL_WARNINGS), 0);
        let wf = reg0.gauge(names::STALL_WAIT_FRAC_WM, Some(0)).unwrap();
        assert!((wf - 0.9).abs() < 1e-9, "windowed wait fraction {wf}");
        let warnings = mon.warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].rank, 0);
        // the warning carries λ at its window close (rank 1 one exchange
        // behind); after both ranks finish, λ = (10 − 1) / 10
        assert!((warnings[0].lambda - 26.0 / 30.0).abs() < 1e-6);
        assert!((mon.lambda_per_level()[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn below_threshold_records_watermark_but_no_warning() {
        let cfg = MonitorConfig {
            window_exchanges: 1,
            wait_warn_fraction: 0.9,
            log_warnings: false,
        };
        let mon = StallMonitor::new(cfg, 1, 1);
        let mut rm = RankMonitor::new(mon.clone(), 0);
        let mut reg = MetricsRegistry::new();
        rm.on_exchange(&mut reg, 0, 0.5, 0.5);
        assert!(mon.warnings().is_empty());
        assert_eq!(reg.counter(names::STALL_WARNINGS, Some(0)), 0);
        assert!((reg.gauge(names::STALL_WAIT_FRAC_WM, Some(0)).unwrap() - 0.5).abs() < 1e-9);
    }
}
