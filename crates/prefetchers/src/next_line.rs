//! Degree-N next-line prefetcher — the simplest possible spatial prefetcher,
//! used in tests and as a worked example of the [`Prefetcher`] trait.

use pythia_sim::prefetch::{DemandAccess, PrefetchRequest, Prefetcher, SystemFeedback};

use crate::util::push_in_page;

/// Prefetches the next `degree` sequential lines after every demand.
#[derive(Debug, Clone)]
pub struct NextLine {
    degree: u32,
}

impl NextLine {
    /// Creates a next-line prefetcher of the given degree.
    pub fn new(degree: u32) -> Self {
        Self { degree }
    }
}

impl Default for NextLine {
    fn default() -> Self {
        Self::new(1)
    }
}

impl Prefetcher for NextLine {
    fn name(&self) -> &str {
        "next_line"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        _feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        for d in 1..=self.degree as i32 {
            push_in_page(out, access.line, d, true);
        }
    }

    fn storage_bits(&self) -> u64 {
        32 // a degree register
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_access;

    #[test]
    fn emits_next_lines_in_page() {
        let mut p = NextLine::new(2);
        let out = p.on_demand(&test_access(0, 0x1000), &SystemFeedback::idle());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].line, pythia_sim::addr::line_of(0x1000) + 1);
    }

    #[test]
    fn stops_at_page_end() {
        let mut p = NextLine::new(4);
        // Last line of a page: nothing to prefetch.
        let out = p.on_demand(&test_access(0, 0x1fc0), &SystemFeedback::idle());
        assert!(out.is_empty());
    }
}
