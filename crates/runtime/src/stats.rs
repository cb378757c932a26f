//! Per-rank busy/stall accounting (the aggregates behind the paper's Fig. 1
//! runtime profile).
//!
//! The runtime records every aggregate into a per-rank [`MetricsRegistry`]
//! (crate `lts-obs`); [`RankStats`] is a *view* materialized from that
//! registry after the run. The deterministic counters (element-operations,
//! exchange message counts, DOF send volumes) are exact integers independent
//! of timing, so integration tests can assert them against closed-form
//! oracles. Per-event timelines are not kept here: each rank's flight ring
//! ([`lts_obs::FlightRecorder`]) is the one event record, and
//! [`lts_obs::flight_chrome_trace`] renders it.

use lts_obs::{Json, MetricsRegistry};

/// Metric names the runtime records per rank. Level-scoped keys use
/// `Some(level)`; the end-of-run busy tail is recorded level-less.
pub mod names {
    /// Counter: masked element products, per level.
    pub const ELEM_OPS: &str = "elem_ops";
    /// Counter: exchange points awaited, per level.
    pub const EXCHANGES: &str = "exchanges";
    /// Counter: partial-force messages posted, per level.
    pub const MSGS_SENT: &str = "msgs_sent";
    /// Counter, per level: partials that had **already arrived** when the
    /// rank reached the exchange point (drained from the inbox without
    /// touching the transport). The scheduler-independent witness of
    /// comm/compute overlap: with sends posted before the interior apply
    /// this approaches `msgs_sent`, with blocking sends it stays near the
    /// out-of-order stash rate. Timing-free but schedule-*shifted*, so it
    /// is deliberately not part of the exact-match bench counters.
    pub const EXCHANGE_READY: &str = "exchange.partials_ready";
    /// Counter: interface DOF values sent (message payload lengths), per level.
    pub const DOFS_SENT: &str = "dofs_sent";
    /// Histogram: compute segments ending at an exchange of this level (s).
    pub(crate) const BUSY: &str = "busy";
    /// Histogram: blocked time at exchanges of this level (s).
    pub(crate) const WAIT: &str = "wait";
    /// Gauge, per level: watermark of the rank's *windowed* wait fraction —
    /// the worst `wait/(busy+wait)` any monitor window saw at this level.
    pub(crate) const STALL_WAIT_FRAC_WM: &str = "stall.wait_frac_wm";
    /// Counter, per level: stall warnings raised by this rank (the monitor
    /// warns at most once per rank × level).
    pub(crate) const STALL_WARNINGS: &str = "stall.warnings";
    /// Observation windows the stall monitor closed on this rank (counter,
    /// level-less). The count follows the exchange count, so it is
    /// deterministic.
    pub const STALL_WINDOWS: &str = "stall.windows";
    /// Gauge: element operations per busy second over the whole run — the
    /// rank's masked-product throughput. Stamped after the join; derived
    /// from counters + timings, so it never enters counter-exact compares.
    pub(crate) const ELEM_OPS_PER_SEC: &str = "elem_ops_per_sec";
    /// Gauge, labelled by transport backend name: seconds the rank's
    /// endpoint spent blocked in `send` on backpressure.
    pub(crate) const TRANSPORT_SEND_BLOCK_S: &str = "transport.send_block_s";
    /// Gauge, labelled by transport backend name: payload bytes copied
    /// into ring slots or put on the wire.
    pub(crate) const TRANSPORT_BYTES: &str = "transport.bytes";
}

/// Per-LTS-level slice of one rank's accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct LevelStats {
    pub level: u8,
    /// Seconds of compute segments that ended at an exchange of this level.
    pub busy_s: f64,
    /// Seconds blocked at exchanges of this level.
    pub wait_s: f64,
    /// Masked element products at this level.
    pub(crate) elem_ops: u64,
    /// Exchange points awaited at this level.
    pub(crate) n_exchanges: u64,
    /// Partial-force messages posted at this level.
    pub(crate) msgs_sent: u64,
    /// Interface DOF values sent at this level.
    pub(crate) dofs_sent: u64,
}

/// Aggregated statistics of one rank after a run — a view over the rank's
/// [`MetricsRegistry`], which rides along in [`RankStats::registry`] for
/// exporters and per-level queries.
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    pub rank: usize,
    /// Total seconds spent computing.
    pub busy_s: f64,
    /// Total seconds spent blocked in exchanges.
    pub wait_s: f64,
    /// Element-operations performed (masked products, one per element).
    pub elem_ops: u64,
    /// Number of exchange points.
    pub n_exchanges: u64,
    /// Partial-force messages posted.
    pub msgs_sent: u64,
    /// Interface DOF values sent (sum of message payload lengths).
    pub dofs_sent: u64,
    /// The raw per-rank metrics this view was materialized from.
    pub registry: MetricsRegistry,
}

impl RankStats {
    /// Materialize the aggregate view from a rank's registry.
    pub(crate) fn from_registry(rank: usize, mut registry: MetricsRegistry) -> Self {
        let busy_s = registry.histogram_sum_total(names::BUSY);
        let elem_ops = registry.counter_total(names::ELEM_OPS);
        if busy_s > 0.0 {
            registry.set_gauge(names::ELEM_OPS_PER_SEC, elem_ops as f64 / busy_s);
        }
        RankStats {
            rank,
            busy_s,
            wait_s: registry.histogram_sum_total(names::WAIT),
            elem_ops,
            n_exchanges: registry.counter_total(names::EXCHANGES),
            msgs_sent: registry.counter_total(names::MSGS_SENT),
            dofs_sent: registry.counter_total(names::DOFS_SENT),
            registry,
        }
    }

    /// Fraction of wall time spent waiting.
    pub fn wait_fraction(&self) -> f64 {
        let total = self.busy_s + self.wait_s;
        if total > 0.0 {
            self.wait_s / total
        } else {
            0.0
        }
    }

    /// Per-level breakdown, ascending by level. Levels are the union of all
    /// levels any metric was recorded under.
    pub fn per_level(&self) -> Vec<LevelStats> {
        let mut levels: Vec<u8> = self.registry.iter().filter_map(|(k, _)| k.level).collect();
        levels.sort_unstable();
        levels.dedup();
        levels
            .into_iter()
            .map(|l| LevelStats {
                level: l,
                busy_s: self
                    .registry
                    .histogram(names::BUSY, Some(l))
                    .map(|h| h.sum)
                    .unwrap_or(0.0),
                wait_s: self
                    .registry
                    .histogram(names::WAIT, Some(l))
                    .map(|h| h.sum)
                    .unwrap_or(0.0),
                elem_ops: self.registry.counter(names::ELEM_OPS, Some(l)),
                n_exchanges: self.registry.counter(names::EXCHANGES, Some(l)),
                msgs_sent: self.registry.counter(names::MSGS_SENT, Some(l)),
                dofs_sent: self.registry.counter(names::DOFS_SENT, Some(l)),
            })
            .collect()
    }
}

/// Build the machine-readable run profile (the Fig. 1 JSON): one entry per
/// rank with totals and the per-level busy/wait/exchange-volume breakdown.
pub fn profile_json(stats: &[RankStats]) -> Json {
    let ranks = stats
        .iter()
        .map(|s| {
            let levels = s
                .per_level()
                .into_iter()
                .map(|l| {
                    Json::Obj(vec![
                        ("level".to_string(), Json::UInt(l.level as u64)),
                        ("busy_s".to_string(), Json::Num(l.busy_s)),
                        ("wait_s".to_string(), Json::Num(l.wait_s)),
                        ("elem_ops".to_string(), Json::UInt(l.elem_ops)),
                        ("n_exchanges".to_string(), Json::UInt(l.n_exchanges)),
                        ("msgs_sent".to_string(), Json::UInt(l.msgs_sent)),
                        ("dofs_sent".to_string(), Json::UInt(l.dofs_sent)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("rank".to_string(), Json::UInt(s.rank as u64)),
                ("busy_s".to_string(), Json::Num(s.busy_s)),
                ("wait_s".to_string(), Json::Num(s.wait_s)),
                ("wait_fraction".to_string(), Json::Num(s.wait_fraction())),
                ("elem_ops".to_string(), Json::UInt(s.elem_ops)),
                ("n_exchanges".to_string(), Json::UInt(s.n_exchanges)),
                ("msgs_sent".to_string(), Json::UInt(s.msgs_sent)),
                ("dofs_sent".to_string(), Json::UInt(s.dofs_sent)),
                ("levels".to_string(), Json::Arr(levels)),
            ])
        })
        .collect();
    Json::Obj(vec![("ranks".to_string(), Json::Arr(ranks))])
}

/// Post-hoc Eq. 21 λ per level over the ranks' measured busy seconds:
/// `λ_l = (max_r busy_l − min_r busy_l) / max_r busy_l`, as a fraction.
/// Levels are the union of levels any rank recorded; ranks without work at a
/// level contribute a zero load (λ → 1 when a level lives on one rank only).
pub fn lambda_from_stats(stats: &[RankStats]) -> Vec<(u8, f64)> {
    let mut levels: Vec<u8> = stats
        .iter()
        .flat_map(|s| s.registry.iter().filter_map(|(k, _)| k.level))
        .collect();
    levels.sort_unstable();
    levels.dedup();
    levels
        .into_iter()
        .map(|l| {
            let loads: Vec<f64> = stats
                .iter()
                .map(|s| {
                    s.registry
                        .histogram(names::BUSY, Some(l))
                        .map(|h| h.sum)
                        .unwrap_or(0.0)
                })
                .collect();
            (l, eq21_lambda(&loads))
        })
        .collect()
}

/// Eq. 21 over a slice of per-rank loads: `(max − min) / max`, as a fraction
/// (0 = perfectly balanced, → 1 = one rank idles). Zero when nothing ran.
fn eq21_lambda(loads: &[f64]) -> f64 {
    let max = loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
    if max > 0.0 {
        (max - min) / max
    } else {
        0.0
    }
}

/// Render per-rank busy/wait bars as ASCII (the Fig. 1 bottom panel). Each
/// bar is exactly `width` cells: `#` busy, `.` wait, padded with spaces.
pub fn ascii_timeline(stats: &[RankStats], width: usize) -> String {
    let max_total = stats
        .iter()
        .map(|s| s.busy_s + s.wait_s)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let mut out = String::new();
    for s in stats {
        // Clamp busy to the box, then wait to what remains: independent
        // rounding of the two segments can otherwise overflow `width` by one.
        let busy = (((s.busy_s / max_total) * width as f64).round() as usize).min(width);
        let wait = (((s.wait_s / max_total) * width as f64).round() as usize).min(width - busy);
        out.push_str(&format!(
            "rank {:>3} |{}{}{}| busy {:>7.3}ms wait {:>7.3}ms ({:>4.1}% stalled)\n",
            s.rank,
            "#".repeat(busy),
            ".".repeat(wait),
            " ".repeat(width - busy - wait),
            s.busy_s * 1e3,
            s.wait_s * 1e3,
            100.0 * s.wait_fraction(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bar_len(line: &str) -> usize {
        let open = line.find('|').unwrap();
        let close = line.rfind('|').unwrap();
        line[open + 1..close].chars().count()
    }

    #[test]
    fn wait_fraction_bounds() {
        let s = RankStats {
            busy_s: 3.0,
            wait_s: 1.0,
            ..Default::default()
        };
        assert!((s.wait_fraction() - 0.25).abs() < 1e-12);
        let z = RankStats::default();
        assert_eq!(z.wait_fraction(), 0.0);
    }

    #[test]
    fn ascii_contains_each_rank() {
        let stats = vec![
            RankStats {
                rank: 0,
                busy_s: 1.0,
                wait_s: 0.5,
                ..Default::default()
            },
            RankStats {
                rank: 1,
                busy_s: 0.5,
                wait_s: 1.0,
                ..Default::default()
            },
        ];
        let s = ascii_timeline(&stats, 40);
        assert!(s.contains("rank   0"));
        assert!(s.contains("rank   1"));
        assert_eq!(s.lines().count(), 2);
    }

    /// Regression: both segments round up (busy 4.5→5, wait 5.5→6 at
    /// width 10) — the bar must still be exactly `width` cells.
    #[test]
    fn ascii_bar_never_exceeds_width() {
        let width = 10;
        let stats = vec![RankStats {
            rank: 0,
            busy_s: 0.45,
            wait_s: 0.55,
            ..Default::default()
        }];
        let line = ascii_timeline(&stats, width);
        assert_eq!(bar_len(line.lines().next().unwrap()), width);

        // sweep many fractional splits across several ranks
        let stats: Vec<RankStats> = (0..50)
            .map(|i| RankStats {
                rank: i,
                busy_s: 0.01 + 0.02 * i as f64,
                wait_s: 1.0 - 0.017 * i as f64,
                ..Default::default()
            })
            .collect();
        for w in [1usize, 7, 10, 33, 80] {
            for line in ascii_timeline(&stats, w).lines() {
                assert_eq!(bar_len(line), w, "width {w}: {line}");
            }
        }
    }

    #[test]
    fn view_materializes_from_registry() {
        let mut reg = MetricsRegistry::new();
        reg.inc_level(names::ELEM_OPS, 0, 8);
        reg.inc_level(names::ELEM_OPS, 1, 24);
        reg.inc_level(names::EXCHANGES, 1, 4);
        reg.inc_level(names::MSGS_SENT, 1, 8);
        reg.inc_level(names::DOFS_SENT, 1, 40);
        reg.observe(names::BUSY, Some(1), 0.5);
        reg.observe(names::BUSY, None, 0.25); // end-of-run tail
        reg.observe(names::WAIT, Some(1), 0.125);
        let s = RankStats::from_registry(3, reg);
        assert_eq!(s.rank, 3);
        assert_eq!(s.elem_ops, 32);
        assert_eq!(s.n_exchanges, 4);
        assert_eq!(s.msgs_sent, 8);
        assert_eq!(s.dofs_sent, 40);
        assert!((s.busy_s - 0.75).abs() < 1e-12);
        assert!((s.wait_s - 0.125).abs() < 1e-12);
        let per = s.per_level();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].level, 0);
        assert_eq!(per[0].elem_ops, 8);
        assert_eq!(per[1].level, 1);
        assert_eq!(per[1].dofs_sent, 40);
        assert_eq!(per[1].n_exchanges, 4);
    }

    #[test]
    fn profile_json_has_rank_and_level_entries() {
        let mut reg = MetricsRegistry::new();
        reg.inc_level(names::ELEM_OPS, 0, 5);
        reg.inc_level(names::DOFS_SENT, 0, 10);
        reg.observe(names::BUSY, Some(0), 0.5);
        reg.observe(names::WAIT, Some(0), 0.25);
        let s = RankStats::from_registry(0, reg);
        let json = profile_json(&[s]).render();
        assert!(json.contains(r#""rank":0"#));
        assert!(json.contains(r#""elem_ops":5"#));
        assert!(json.contains(r#""dofs_sent":10"#));
        assert!(json.contains(r#""levels":[{"level":0"#));
        assert!(!json.contains("timeline"));
    }

    fn timed_rank(rank: usize, busy: &[(u8, f64)], wait: &[(u8, f64)]) -> RankStats {
        let mut reg = MetricsRegistry::new();
        for &(l, b) in busy {
            reg.observe(names::BUSY, Some(l), b);
        }
        for &(l, w) in wait {
            reg.observe(names::WAIT, Some(l), w);
        }
        RankStats::from_registry(rank, reg)
    }

    #[test]
    fn lambda_from_stats_matches_hand_computation() {
        let stats = vec![
            timed_rank(0, &[(0, 4.0), (1, 1.0)], &[]),
            timed_rank(1, &[(0, 2.0)], &[(1, 0.5)]),
        ];
        let lam = lambda_from_stats(&stats);
        assert_eq!(lam.len(), 2);
        assert_eq!(lam[0].0, 0);
        assert!((lam[0].1 - 0.5).abs() < 1e-12); // (4−2)/4
        assert_eq!(lam[1], (1, 1.0)); // level 1 busy only on rank 0
    }

    #[test]
    fn eq21_lambda_edge_cases() {
        assert!(lambda_from_stats(&[]).is_empty());
        // level 0 never busy, level 1 balanced, level 2 (4 − 1) / 4
        let stats = vec![
            timed_rank(0, &[(0, 0.0), (1, 2.0), (2, 1.0)], &[]),
            timed_rank(1, &[(0, 0.0), (1, 2.0), (2, 4.0)], &[]),
        ];
        assert_eq!(
            lambda_from_stats(&stats),
            vec![(0, 0.0), (1, 0.0), (2, 0.75)]
        );
    }
}
