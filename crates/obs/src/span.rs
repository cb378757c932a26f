//! Scoped phase timing.
//!
//! A [`Span`] is an RAII guard: created via
//! [`MetricsRegistry::start_span`](crate::MetricsRegistry::start_span) or the
//! [`span!`](crate::span!) macro, it measures wall time until drop and records the
//! duration into the histogram keyed by `(name, level)`. Per-event timelines
//! are the flight recorder's job ([`crate::flight`]); a span keeps only the
//! aggregate.

use std::time::Instant;

use crate::registry::MetricsRegistry;

/// RAII timing guard. Records on drop; use [`Span::cancel`] to discard.
#[must_use = "a Span records its duration when dropped; binding it to `_` drops immediately"]
pub struct Span<'a> {
    reg: &'a mut MetricsRegistry,
    name: &'static str,
    level: Option<u8>,
    start: Instant,
    cancelled: bool,
}

impl<'a> Span<'a> {
    pub(crate) fn new(reg: &'a mut MetricsRegistry, name: &'static str, level: Option<u8>) -> Self {
        Span {
            reg,
            name,
            level,
            start: Instant::now(),
            cancelled: false,
        }
    }

    /// Discard the span: nothing is recorded on drop.
    pub fn cancel(mut self) {
        self.cancelled = true;
    }

    /// Access the underlying registry while the span is open (e.g. to bump
    /// counters for work done inside the phase).
    pub fn registry(&mut self) -> &mut MetricsRegistry {
        self.reg
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.cancelled {
            return;
        }
        let dur_s = self.start.elapsed().as_secs_f64();
        self.reg.observe(self.name, self.level, dur_s);
    }
}

/// Time a phase against a registry: `span!(reg, level, "phase")` or
/// `span!(reg, "phase")` for level-less phases. Expands to a bound [`Span`]
/// guard, so the phase ends when the binding's scope ends (or on an explicit
/// `drop`).
#[macro_export]
macro_rules! span {
    ($reg:expr, $level:expr, $name:expr) => {
        $crate::MetricsRegistry::start_span($reg, $name, ::core::option::Option::Some($level))
    };
    ($reg:expr, $name:expr) => {
        $crate::MetricsRegistry::start_span($reg, $name, ::core::option::Option::None)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_histogram() {
        let mut reg = MetricsRegistry::new();
        {
            let _s = reg.start_span("phase_a", Some(2));
        }
        {
            let _s = span!(&mut reg, 2u8, "phase_a");
        }
        {
            let _s = span!(&mut reg, "no_level");
        }
        let h = reg.histogram("phase_a", Some(2)).expect("histogram exists");
        assert_eq!(h.count, 2);
        assert_eq!(reg.histogram("no_level", None).unwrap().count, 1);
    }

    #[test]
    fn cancel_discards() {
        let mut reg = MetricsRegistry::new();
        let s = reg.start_span("phase_b", None);
        s.cancel();
        assert!(reg.histogram("phase_b", None).is_none());
        assert_eq!(reg.iter().count(), 0);
    }
}
