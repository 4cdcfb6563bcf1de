//! Composition of several prefetchers running concurrently, with request
//! deduplication — the `St`, `St+S`, `St+S+B`, `St+S+B+D`, `St+S+B+D+M`
//! ladders of Figs. 9(b) and 10(b) in the Pythia paper.
//!
//! The paper's observation: combining prefetchers adds their coverage but
//! *also adds their overpredictions*, which hurts in bandwidth-constrained
//! systems; Pythia exploits the same features within one agent instead.

use pythia_sim::prefetch::{DemandAccess, FillEvent, PrefetchRequest, Prefetcher, SystemFeedback};

use std::collections::HashSet;

/// Runs multiple prefetchers side by side, deduplicating their requests.
pub struct Multi {
    name: String,
    parts: Vec<Box<dyn Prefetcher>>,
    /// Reusable per-component request buffer (cleared per component).
    child_buf: Vec<PrefetchRequest>,
    /// Reusable dedup set (cleared per demand).
    seen: HashSet<u64>,
}

impl std::fmt::Debug for Multi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Multi")
            .field("name", &self.name)
            .field("parts", &self.parts.len())
            .finish()
    }
}

impl Multi {
    /// Composes the given prefetchers. The composite's name joins the part
    /// names with `+`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn new(parts: Vec<Box<dyn Prefetcher>>) -> Self {
        assert!(!parts.is_empty(), "Multi needs at least one component");
        let name = parts.iter().map(|p| p.name()).collect::<Vec<_>>().join("+");
        Self {
            name,
            parts,
            child_buf: Vec::new(),
            seen: HashSet::new(),
        }
    }
}

impl Prefetcher for Multi {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let start = out.len();
        let mut child = std::mem::take(&mut self.child_buf);
        self.seen.clear();
        for p in &mut self.parts {
            child.clear();
            p.on_demand_into(access, feedback, &mut child);
            for req in child.drain(..) {
                if self.seen.insert(req.line) {
                    out.push(req);
                } else if req.fill_l2 {
                    // Upgrade an LLC-only duplicate to fill L2.
                    if let Some(existing) = out[start..].iter_mut().find(|r| r.line == req.line) {
                        existing.fill_l2 = true;
                    }
                }
            }
        }
        self.child_buf = child;
    }

    fn on_fill(&mut self, event: &FillEvent) {
        for p in &mut self.parts {
            p.on_fill(event);
        }
    }

    fn on_useful(&mut self, line: u64) {
        for p in &mut self.parts {
            p.on_useful(line);
        }
    }

    fn on_useless(&mut self, line: u64) {
        for p in &mut self.parts {
            p.on_useless(line);
        }
    }

    fn storage_bits(&self) -> u64 {
        self.parts.iter().map(|p| p.storage_bits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::next_line::NextLine;
    use crate::stride::StridePrefetcher;
    use crate::test_access;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn composes_names_and_storage() {
        let m = Multi::new(vec![
            Box::new(StridePrefetcher::default()),
            Box::new(NextLine::default()),
        ]);
        assert_eq!(m.name(), "stride+next_line");
        assert_eq!(
            m.storage_bits(),
            StridePrefetcher::default().storage_bits() + NextLine::default().storage_bits()
        );
    }

    #[test]
    fn deduplicates_overlapping_requests() {
        // Two next-line prefetchers produce identical requests; the
        // composite must emit each line once.
        let mut m = Multi::new(vec![Box::new(NextLine::new(2)), Box::new(NextLine::new(3))]);
        let out = m.on_demand(&test_access(0, 0x1000), &SystemFeedback::idle());
        let mut lines: Vec<u64> = out.iter().map(|r| r.line).collect();
        let before = lines.len();
        lines.dedup();
        assert_eq!(before, lines.len(), "duplicate lines emitted");
        assert_eq!(before, 3, "union of degree-2 and degree-3 is 3 lines");
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_composition_rejected() {
        let _ = Multi::new(vec![]);
    }

    /// Records the useful (`true`) and useless notices it is sent.
    struct Heard(Rc<RefCell<Vec<(u64, bool)>>>);

    impl Prefetcher for Heard {
        fn name(&self) -> &str {
            "heard"
        }
        fn on_demand_into(
            &mut self,
            _: &DemandAccess,
            _: &SystemFeedback,
            _: &mut Vec<PrefetchRequest>,
        ) {
        }
        fn on_useful(&mut self, line: u64) {
            self.0.borrow_mut().push((line, true));
        }
        fn on_useless(&mut self, line: u64) {
            self.0.borrow_mut().push((line, false));
        }
    }

    #[test]
    fn feedback_propagates_to_parts() {
        let heard = Rc::new(RefCell::new(Vec::new()));
        let mut m = Multi::new(vec![
            Box::new(NextLine::new(1)),
            Box::new(Heard(heard.clone())),
        ]);
        m.on_demand(&test_access(0, 0x1000), &SystemFeedback::idle());
        m.on_useful(65);
        m.on_useless(66);
        assert_eq!(*heard.borrow(), [(65, true), (66, false)]);
    }
}
