//! The metrics registry: typed counters, gauges and histogram timers.

use crate::span::Span;
use std::collections::BTreeMap;

/// Metric identity: a static name plus optional LTS-level and free-form
/// labels. Ordering is derived so exports are stable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub name: &'static str,
    /// LTS level the sample belongs to (`None` = level-independent).
    pub level: Option<u8>,
    /// Free-form discriminator (peer rank, phase detail, …).
    pub label: Option<String>,
}

impl Key {
    pub(crate) fn new(name: &'static str) -> Self {
        Key {
            name,
            level: None,
            label: None,
        }
    }

    pub(crate) fn at_level(name: &'static str, level: u8) -> Self {
        Key {
            name,
            level: Some(level),
            label: None,
        }
    }
}

/// A duration/value summary: exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// Registry of one owner (a rank, a partitioner run, a bench binary).
///
/// All mutation is `&mut self`; cross-thread aggregation is an explicit
/// [`MetricsRegistry::merge_from`] after the threads join, keeping the hot
/// path free of synchronization.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<Key, Metric>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    // ---- counters ---------------------------------------------------------

    pub fn inc_key(&mut self, key: Key, by: u64) {
        match self.metrics.entry(key).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += by,
            // lint: allow(hot-path-panic) — name/type collision is a programming
            // error caught the first time the metric is touched
            other => panic!("metric type mismatch: counter vs {other:?}"),
        }
    }

    pub fn inc(&mut self, name: &'static str, by: u64) {
        self.inc_key(Key::new(name), by);
    }

    pub fn inc_level(&mut self, name: &'static str, level: u8, by: u64) {
        self.inc_key(Key::at_level(name, level), by);
    }

    /// Counter value for an exact `(name, level)` (0 when never incremented).
    /// Accessors scan the (small) map so they accept any `&str`; the hot
    /// recording path uses the keyed entry API instead.
    pub fn counter(&self, name: &str, level: Option<u8>) -> u64 {
        self.metrics
            .iter()
            .find(|(k, _)| k.name == name && k.level == level && k.label.is_none())
            .and_then(|(_, m)| match m {
                Metric::Counter(c) => Some(*c),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Sum of a counter over every level/label it was recorded under.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, m)| match m {
                Metric::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// `(level, value)` pairs of a counter, ascending by level.
    pub fn counter_by_level(&self, name: &str) -> Vec<(u8, u64)> {
        self.metrics
            .iter()
            .filter_map(|(k, m)| match (k.name == name, k.level, m) {
                (true, Some(l), Metric::Counter(c)) => Some((l, *c)),
                _ => None,
            })
            .collect()
    }

    // ---- gauges -----------------------------------------------------------

    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(Key::new(name), Metric::Gauge(value));
    }

    pub fn set_gauge_level(&mut self, name: &'static str, level: u8, value: f64) {
        self.metrics
            .insert(Key::at_level(name, level), Metric::Gauge(value));
    }

    pub fn gauge(&self, name: &str, level: Option<u8>) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k.name == name && k.level == level)
            .and_then(|(_, m)| match m {
                Metric::Gauge(g) => Some(*g),
                _ => None,
            })
    }

    /// Set a label-dimensioned gauge (e.g. per-transport-backend wait time,
    /// labelled by backend name).
    pub fn set_gauge_labeled(&mut self, name: &'static str, label: &str, value: f64) {
        self.metrics.insert(
            Key {
                name,
                level: None,
                label: Some(label.to_string()),
            },
            Metric::Gauge(value),
        );
    }

    pub fn gauge_labeled(&self, name: &str, label: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k.name == name && k.label.as_deref() == Some(label))
            .and_then(|(_, m)| match m {
                Metric::Gauge(g) => Some(*g),
                _ => None,
            })
    }

    // ---- histograms / timers ----------------------------------------------

    pub(crate) fn observe_key(&mut self, key: Key, value: f64) {
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.observe(value),
            // lint: allow(hot-path-panic) — name/type collision is a programming
            // error caught the first time the metric is touched
            other => panic!("metric type mismatch: histogram vs {other:?}"),
        }
    }

    pub fn observe(&mut self, name: &'static str, level: Option<u8>, value: f64) {
        self.observe_key(
            Key {
                name,
                level,
                label: None,
            },
            value,
        );
    }

    /// Install a fully materialized histogram under `key`, replacing any
    /// previous metric there. This is the wire-decode path: a histogram that
    /// crossed a process boundary is reinstated *exactly* (count, sum,
    /// min/max), which `observe`-replay could not guarantee.
    pub fn set_histogram(&mut self, key: Key, hist: Histogram) {
        self.metrics.insert(key, Metric::Histogram(hist));
    }

    pub fn histogram(&self, name: &str, level: Option<u8>) -> Option<&Histogram> {
        self.metrics
            .iter()
            .find(|(k, _)| k.name == name && k.level == level)
            .and_then(|(_, m)| match m {
                Metric::Histogram(h) => Some(h),
                _ => None,
            })
    }

    /// Sum of a histogram's `sum` over every level (e.g. total busy seconds).
    pub fn histogram_sum_total(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, m)| match m {
                Metric::Histogram(h) => h.sum,
                _ => 0.0,
            })
            .sum()
    }

    /// Start a scoped span; the guard records a histogram observation when
    /// dropped. Prefer the [`crate::span!`] macro at call sites.
    pub fn start_span(&mut self, name: &'static str, level: Option<u8>) -> Span<'_> {
        Span::new(self, name, level)
    }

    // ---- aggregation ------------------------------------------------------

    /// Fold `other` into `self`: counters add, histograms merge, gauges take
    /// `other`'s value.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (k, m) in other.metrics.iter() {
            match m {
                Metric::Counter(c) => self.inc_key(k.clone(), *c),
                Metric::Gauge(g) => {
                    self.metrics.insert(k.clone(), Metric::Gauge(*g));
                }
                Metric::Histogram(h) => {
                    match self
                        .metrics
                        .entry(k.clone())
                        .or_insert_with(|| Metric::Histogram(Histogram::default()))
                    {
                        Metric::Histogram(mine) => mine.merge(h),
                        other => panic!("metric type mismatch: histogram vs {other:?}"),
                    }
                }
            }
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Metric)> {
        self.metrics.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_total() {
        let mut r = MetricsRegistry::new();
        r.inc("elem_ops", 3);
        r.inc_level("elem_ops", 0, 10);
        r.inc_level("elem_ops", 1, 20);
        r.inc_level("elem_ops", 1, 5);
        assert_eq!(r.counter("elem_ops", None), 3);
        assert_eq!(r.counter("elem_ops", Some(1)), 25);
        assert_eq!(r.counter_total("elem_ops"), 38);
        assert_eq!(r.counter_by_level("elem_ops"), vec![(0, 10), (1, 25)]);
        assert_eq!(r.counter("missing", None), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("imbalance_pct", 33.0);
        r.set_gauge("imbalance_pct", 6.0);
        assert_eq!(r.gauge("imbalance_pct", None), Some(6.0));
        assert_eq!(r.gauge("imbalance_pct", Some(1)), None);
    }

    #[test]
    fn histogram_stats_exact() {
        let mut h = Histogram::default();
        for v in [1e-6, 2e-6, 3e-6] {
            h.observe(v);
        }
        assert_eq!(h.count, 3);
        assert!((h.sum - 6e-6).abs() < 1e-18);
        assert_eq!(h.min, 1e-6);
        assert_eq!(h.max, 3e-6);
        assert!((h.mean() - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc_level("msgs", 0, 4);
        b.inc_level("msgs", 0, 6);
        b.inc_level("msgs", 2, 1);
        a.observe("busy", Some(0), 0.5);
        b.observe("busy", Some(0), 1.5);
        a.merge_from(&b);
        assert_eq!(a.counter("msgs", Some(0)), 10);
        assert_eq!(a.counter("msgs", Some(2)), 1);
        let h = a.histogram("busy", Some(0)).unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 2.0).abs() < 1e-12);
    }

    #[test]
    fn span_records_histogram() {
        let mut r = MetricsRegistry::new();
        {
            let _s = r.start_span("phase.coarsen", Some(1));
            std::hint::black_box(0u64);
        }
        let h = r
            .histogram("phase.coarsen", Some(1))
            .expect("span histogram");
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.0);
    }

    #[test]
    fn type_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.inc("x", 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.observe("x", None, 1.0);
        }));
        assert!(caught.is_err());
    }
}
