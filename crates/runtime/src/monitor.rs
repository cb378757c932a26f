//! The per-rank stall monitor.
//!
//! The paper's diagnosis loop is post-hoc: run, dump `RankStats`, look at
//! Fig. 1. This module watches one rank's own signals *while the run is
//! live*: a `RankMonitor` folds each exchange's busy/wait durations into
//! a window of `WINDOW_EXCHANGES` exchanges. At every window boundary the
//! rank
//!
//! * counts the window ([`crate::stats::names::STALL_WINDOWS`]),
//! * records its windowed per-level wait-fraction watermark as a gauge
//!   (`crate::stats::names::STALL_WAIT_FRAC_WM`), and
//! * raises a stall warning (once per level) when the window's wait
//!   fraction reaches `WAIT_WARN_FRACTION`: a
//!   `crate::stats::names::STALL_WARNINGS` count, a `stall_warning`
//!   flight event and one `[stall-monitor]` stderr line.
//!
//! The monitor reads nothing of other ranks, so an in-process rank thread
//! and a `wave-lts worker` process run the same one. The Eq. 21 λ is not
//! tracked live: [`crate::stats::lambda_from_stats`] computes it after the
//! run from the ranks' busy histograms.

use crate::stats::names;
use lts_obs::{EventKind, FlightRecorder, MetricsRegistry, NO_PEER};

/// Exchanges per observation window (per rank).
pub(crate) const WINDOW_EXCHANGES: u64 = 16;

/// A window whose per-level wait fraction reaches this value warns.
pub(crate) const WAIT_WARN_FRACTION: f64 = 0.5;

/// The stall monitor's on-switch: `DistributedConfig::stall_monitor =
/// Some(MonitorConfig)` runs a `RankMonitor` on every rank.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonitorConfig;

/// One rank's window accumulation and gauge recording; `reg` is that
/// rank's registry.
#[derive(Debug)]
pub(crate) struct RankMonitor {
    rank: usize,
    exchanges: u64,
    win_busy: Vec<f64>,
    win_wait: Vec<f64>,
    warned: Vec<bool>,
}

impl RankMonitor {
    pub(crate) fn new(rank: usize, n_levels: usize) -> Self {
        RankMonitor {
            rank,
            exchanges: 0,
            win_busy: vec![0.0; n_levels],
            win_wait: vec![0.0; n_levels],
            warned: vec![false; n_levels],
        }
    }

    /// Called by the rank at every exchange point of `step`; closes a
    /// window every [`WINDOW_EXCHANGES`] calls.
    pub(crate) fn on_exchange(
        &mut self,
        reg: &mut MetricsRegistry,
        flight: &mut FlightRecorder,
        level: u8,
        step: u32,
        busy_s: f64,
        wait_s: f64,
    ) {
        self.win_busy[level as usize] += busy_s;
        self.win_wait[level as usize] += wait_s;
        self.exchanges += 1;
        if self.exchanges.is_multiple_of(WINDOW_EXCHANGES) {
            self.flush_window(reg, flight, step);
        }
    }

    /// Close the current window: count it, record watermarks, raise
    /// threshold warnings. Also called once at end of run for the final
    /// partial window. Every level that warns counts one
    /// [`names::STALL_WARNINGS`] and records one `stall_warning` flight
    /// event at that level, so the counter and the ring agree.
    pub(crate) fn flush_window(
        &mut self,
        reg: &mut MetricsRegistry,
        flight: &mut FlightRecorder,
        step: u32,
    ) {
        reg.inc(names::STALL_WINDOWS, 1);
        for l in 0..self.win_busy.len() {
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
            if wf >= WAIT_WARN_FRACTION && !self.warned[l] {
                self.warned[l] = true;
                reg.inc_level(names::STALL_WARNINGS, l as u8, 1);
                flight.record(EventKind::Stall, l as u8, step, NO_PEER, 0);
                self.warn(l, wf);
            }
            self.win_busy[l] = 0.0;
            self.win_wait[l] = 0.0;
        }
    }

    /// The structured warning line; runs at most once per level.
    #[cold]
    fn warn(&self, level: usize, wait_fraction: f64) {
        eprintln!(
            "[stall-monitor] rank={} level={level} window_wait_frac={wait_fraction:.2} threshold={WAIT_WARN_FRACTION:.2} exchanges={}",
            self.rank, self.exchanges
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `stall_warning` events of a ring, as `(level, step)`.
    fn stall_events(flight: &FlightRecorder) -> Vec<(u8, u32)> {
        flight
            .snapshot(0)
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Stall)
            .map(|e| (e.level, e.step))
            .collect()
    }

    #[test]
    fn rank_monitor_warns_once_per_level_and_records_gauges() {
        let mut rm = RankMonitor::new(0, 1);
        let mut reg = MetricsRegistry::new();
        let mut flight = FlightRecorder::new(64);
        // window 1: 80 % wait → warning; window 2: still stalled → no
        // second warning
        for step in 0..2 * WINDOW_EXCHANGES as u32 {
            rm.on_exchange(&mut reg, &mut flight, 0, step, 0.2, 0.8);
        }
        assert_eq!(
            stall_events(&flight),
            vec![(0, WINDOW_EXCHANGES as u32 - 1)]
        );
        assert_eq!(reg.counter(names::STALL_WARNINGS, Some(0)), 1);
        assert_eq!(reg.counter(names::STALL_WINDOWS, None), 2);
        let wm = reg.gauge(names::STALL_WAIT_FRAC_WM, Some(0)).unwrap();
        assert!((wm - 0.8).abs() < 1e-9);
    }

    /// The verdict of a skewed two-rank run, on injected durations: the
    /// rank that waits past the threshold warns, the busy one never does.
    #[test]
    fn stalled_rank_warns_and_busy_rank_does_not() {
        let mut idle = RankMonitor::new(0, 1);
        let mut busy = RankMonitor::new(1, 1);
        let (mut reg0, mut reg1) = (MetricsRegistry::new(), MetricsRegistry::new());
        let (mut fl0, mut fl1) = (FlightRecorder::new(64), FlightRecorder::new(64));
        for step in 0..60 {
            // rank 1 computes 10 ms per exchange; rank 0 computes 1 ms and
            // waits the other 9 for rank 1's partials
            idle.on_exchange(&mut reg0, &mut fl0, 0, step, 0.001, 0.009);
            busy.on_exchange(&mut reg1, &mut fl1, 0, step, 0.010, 0.000_01);
        }
        idle.flush_window(&mut reg0, &mut fl0, 60);
        busy.flush_window(&mut reg1, &mut fl1, 60);
        assert_eq!(reg0.counter_total(names::STALL_WARNINGS), 1);
        assert_eq!(reg1.counter_total(names::STALL_WARNINGS), 0);
        assert_eq!(stall_events(&fl0).len(), 1);
        assert!(stall_events(&fl1).is_empty());
        // three full windows of 16 plus the final partial one
        assert_eq!(reg0.counter(names::STALL_WINDOWS, None), 4);
        let wf = reg0.gauge(names::STALL_WAIT_FRAC_WM, Some(0)).unwrap();
        assert!((wf - 0.9).abs() < 1e-9, "windowed wait fraction {wf}");
    }

    /// Two levels crossing the threshold in one window: one counted
    /// warning and one flight event per level, each tagged with its own
    /// level, whichever level's exchange closed the window.
    #[test]
    fn two_levels_warning_in_one_window_record_one_event_each() {
        let mut rm = RankMonitor::new(0, 3);
        let mut reg = MetricsRegistry::new();
        let mut flight = FlightRecorder::new(64);
        for i in 0..WINDOW_EXCHANGES as u32 {
            // levels 0 and 2 stall; level 1 (which closes the window) does not
            let (level, busy, wait) = match i % 4 {
                0 => (0, 0.1, 0.9),
                1 => (2, 0.3, 0.7),
                _ => (1, 0.9, 0.1),
            };
            rm.on_exchange(&mut reg, &mut flight, level, 7, busy, wait);
        }
        assert_eq!(reg.counter(names::STALL_WINDOWS, None), 1);
        assert_eq!(reg.counter(names::STALL_WARNINGS, Some(0)), 1);
        assert_eq!(reg.counter(names::STALL_WARNINGS, Some(1)), 0);
        assert_eq!(reg.counter(names::STALL_WARNINGS, Some(2)), 1);
        assert_eq!(stall_events(&flight), vec![(0, 7), (2, 7)]);
    }

    /// A level that first crosses the threshold in the final partial
    /// window warns from the end-of-run flush, with its flight event.
    #[test]
    fn final_partial_window_warning_records_its_event() {
        let mut rm = RankMonitor::new(0, 2);
        let mut reg = MetricsRegistry::new();
        let mut flight = FlightRecorder::new(64);
        for step in 0..WINDOW_EXCHANGES as u32 {
            rm.on_exchange(&mut reg, &mut flight, 1, step, 0.9, 0.1);
        }
        assert!(stall_events(&flight).is_empty());
        for step in 16..20 {
            rm.on_exchange(&mut reg, &mut flight, 1, step, 0.2, 0.8);
        }
        assert!(stall_events(&flight).is_empty());
        rm.flush_window(&mut reg, &mut flight, 20);
        assert_eq!(reg.counter(names::STALL_WINDOWS, None), 2);
        assert_eq!(reg.counter(names::STALL_WARNINGS, Some(1)), 1);
        assert_eq!(stall_events(&flight), vec![(1, 20)]);
    }

    #[test]
    fn below_threshold_records_watermark_but_no_warning() {
        let mut rm = RankMonitor::new(0, 2);
        let mut reg = MetricsRegistry::new();
        let mut flight = FlightRecorder::new(64);
        for step in 0..WINDOW_EXCHANGES as u32 {
            rm.on_exchange(&mut reg, &mut flight, 1, step, 0.6, 0.4);
        }
        assert_eq!(reg.counter_total(names::STALL_WARNINGS), 0);
        assert!(stall_events(&flight).is_empty());
        assert_eq!(reg.counter(names::STALL_WINDOWS, None), 1);
        assert!((reg.gauge(names::STALL_WAIT_FRAC_WM, Some(1)).unwrap() - 0.4).abs() < 1e-9);
        // level 0 saw no exchange, so it has no watermark
        assert!(reg.gauge(names::STALL_WAIT_FRAC_WM, Some(0)).is_none());
    }
}
