//! Hierarchical span timers behind a zero-cost [`Sectioner`] trait.
//!
//! Hot paths that want optional per-phase timing take a generic
//! `&mut impl Sectioner` instead of timing unconditionally: the
//! [`NoopSectioner`]'s empty inlined methods vanish at compile time, so
//! the uninstrumented call has the exact cost of the bare code, while a
//! [`SpanTimer`] accumulates inclusive wall time per section name. This
//! formalizes the throwaway rdtsc sectioning used for earlier
//! bottleneck hunts: `pythia-core` sections its agent step, and
//! `pythia-cli bench --sections` reports the breakdown.

use std::time::Instant;

/// A sink for enter/exit section events on a hot path.
///
/// `enter`/`exit` calls must nest (LIFO); section names are `'static`
/// so implementations can key on pointer-cheap comparisons.
pub trait Sectioner {
    /// Marks the start of `section`.
    fn enter(&mut self, section: &'static str);
    /// Marks the end of `section` (the most recently entered one).
    fn exit(&mut self, section: &'static str);
}

/// The do-nothing sectioner: both methods inline to nothing, so generic
/// code instantiated with it pays zero overhead.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSectioner;

impl Sectioner for NoopSectioner {
    #[inline(always)]
    fn enter(&mut self, _section: &'static str) {}
    #[inline(always)]
    fn exit(&mut self, _section: &'static str) {}
}

/// Accumulated totals for one section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotal {
    /// Section name.
    pub name: &'static str,
    /// Times the section was entered.
    pub calls: u64,
    /// Total inclusive wall time spent inside, in nanoseconds (nested
    /// sections also count toward their parents).
    pub total_ns: u64,
}

/// A [`Sectioner`] that accumulates inclusive wall time per section.
///
/// Sections may nest: time inside a child counts toward both the child
/// and its enclosing parents (inclusive semantics), which keeps the
/// timer allocation-free on the hot path and lets a flat report still
/// show where an outer phase's time went.
#[derive(Debug, Default)]
pub struct SpanTimer {
    stack: Vec<(&'static str, Instant)>,
    totals: Vec<SpanTotal>,
}

impl SpanTimer {
    /// An empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated totals, in first-completed order (for sequential,
    /// non-nested sections this equals first-entered order).
    pub fn report(&self) -> &[SpanTotal] {
        &self.totals
    }
}

impl Sectioner for SpanTimer {
    fn enter(&mut self, section: &'static str) {
        self.stack.push((section, Instant::now()));
    }

    fn exit(&mut self, section: &'static str) {
        let (name, started) = self
            .stack
            .pop()
            .expect("SpanTimer::exit without a matching enter");
        debug_assert_eq!(name, section, "sections must nest LIFO");
        let ns = started.elapsed().as_nanos() as u64;
        match self.totals.iter_mut().find(|t| t.name == name) {
            Some(t) => {
                t.calls += 1;
                t.total_ns += ns;
            }
            None => self.totals.push(SpanTotal {
                name,
                calls: 1,
                total_ns: ns,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sectioner_is_callable_everywhere() {
        let mut s = NoopSectioner;
        s.enter("a");
        s.exit("a");
    }

    #[test]
    fn span_timer_accumulates_per_section() {
        let mut t = SpanTimer::new();
        for _ in 0..3 {
            t.enter("outer");
            t.enter("inner");
            std::hint::black_box(0u64);
            t.exit("inner");
            t.exit("outer");
        }
        let report = t.report();
        assert_eq!(report.len(), 2);
        // First-completed order: the nested section exits first.
        assert_eq!(report[0].name, "inner");
        assert_eq!(report[0].calls, 3);
        assert_eq!(report[1].name, "outer");
        assert_eq!(report[1].calls, 3);
        // Inclusive semantics: the outer section contains the inner one.
        assert!(report[1].total_ns >= report[0].total_ns);
    }

    #[test]
    #[should_panic(expected = "without a matching enter")]
    fn unbalanced_exit_panics() {
        SpanTimer::new().exit("never-entered");
    }
}
