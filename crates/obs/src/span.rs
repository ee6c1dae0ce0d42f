//! The monotonic clock wrapper and the RAII span guard.

use crate::sink;
use crate::trace::Phase;
use std::sync::OnceLock;
use std::time::Instant;

/// Process-global monotonic epoch; every timestamp in the sink is
/// nanoseconds since the first observation, so spans from different
/// threads are directly comparable.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-global monotonic epoch.
pub fn mono_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An RAII timing span: [`Span::enter`] writes a begin event into the
/// sink's span list and dropping the guard writes the matching end
/// event (see [`crate::trace::TraceEvent`]).
///
/// When nothing is being collected the guard is inert: no clock read,
/// no lock, just one relaxed atomic load and a branch.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    name: &'static str,
    /// The begin event was recorded; record the end event at drop.
    on: bool,
}

impl Span {
    /// Start a span named `name` (no-op when nothing is being
    /// collected).
    pub fn enter(name: &'static str) -> Span {
        let on = sink::state() != 0;
        if on {
            sink::record_span_event(name, Phase::Begin);
        }
        Span { name, on }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.on {
            sink::record_span_event(self.name, Phase::End);
        }
    }
}

/// Human-scale nanosecond formatting (ns/µs/ms/s with 2 decimals).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_clock_is_monotonic() {
        let a = mono_ns();
        let b = mono_ns();
        assert!(b >= a);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.50 µs");
        assert_eq!(fmt_ns(2_000_000), "2.00 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00 s");
    }
}
