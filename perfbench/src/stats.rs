//! Summary statistics of repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the default
//! "exclusive" method), so the spreads printed here are the spreads an
//! external checker computes from the same samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// First and third quartile, as `statistics.quantiles(xs, n=4)` gives them.
/// A single sample is its own quartiles. `None` for an empty slice.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let q = |i: usize| {
                let m = i * (n + 1);
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (4 * j) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// The `p`-th percentile (`0 < p < 1`, nearest rank), reported only when at
/// least ten samples lie strictly beyond it; a tail percentile resting on
/// fewer samples is noise, so `None` is returned instead.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let rank = reportable_rank(s.len(), p)?;
    Some(s[rank - 1])
}

/// The highest of the usual tail percentiles that [`tail_percentile`] can
/// report for `n` samples.
pub fn highest_reportable(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&p| reportable_rank(n, p).is_some())
}

/// Nearest rank (1-based) of percentile `p` among `n` samples, if at least
/// ten samples lie beyond it.
fn reportable_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then_some(rank)
}

/// Metric and workload names: non-empty, at most 64 characters, starting with
/// a letter or digit, made of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th value with exactly 10 beyond it
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
        // p95 would leave only 5 beyond
        assert_eq!(tail_percentile(&xs, 0.95), None);
        assert_eq!(highest_reportable(100), Some(0.9));
        assert_eq!(highest_reportable(1000), Some(0.99));
        assert_eq!(highest_reportable(20), Some(0.5));
        assert_eq!(highest_reportable(12), None);
        assert_eq!(tail_percentile(&xs[..12], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["step_ms", "sem.kernel_s.l3", "trench-p4-r2", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "a b", "x/y", "ms%", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }
}
