//! A windowed time-series recorder: fixed-width windows along a
//! monotonic position axis, each closing with one row of named samples.
//!
//! The position axis is whatever the caller counts — `pythia-sim` uses
//! retired instructions per core — and the recorder only decides *when*
//! a window closes; the caller computes the row's fields (typically
//! deltas of its own counters since the previous row). The recorder
//! never feeds anything back, so wiring it up cannot perturb the
//! measured system.

/// One closed window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Zero-based window index.
    pub index: u64,
    /// Position (on the caller's axis) at which the window closed.
    pub at: u64,
    /// Named samples for the window, in a caller-fixed order.
    pub fields: Vec<(&'static str, f64)>,
}

/// Tracks window boundaries and collects closed rows.
#[derive(Debug)]
pub struct WindowRecorder {
    width: u64,
    next: u64,
    rows: Vec<WindowRow>,
}

impl WindowRecorder {
    /// A recorder with `width`-sized windows starting at position 0
    /// (`width` is clamped to at least 1).
    pub fn new(width: u64) -> Self {
        let width = width.max(1);
        WindowRecorder {
            width,
            next: width,
            rows: Vec::new(),
        }
    }

    /// The position at which the current window ends: a multiple of the
    /// width, the first past every position closed so far.
    pub fn end(&self) -> u64 {
        self.next
    }

    /// Closes the current window at `position` with `fields` and opens
    /// the next one. Call when `position` reaches [`WindowRecorder::end`],
    /// or once at end-of-run to flush a final partial window.
    pub fn close(&mut self, position: u64, fields: Vec<(&'static str, f64)>) {
        self.rows.push(WindowRow {
            index: self.rows.len() as u64,
            at: position,
            fields,
        });
        // Windows stay aligned to multiples of the width even when a
        // position jumps several windows at once.
        while self.next <= position {
            self.next += self.width;
        }
    }

    /// The rows closed so far.
    pub fn rows(&self) -> &[WindowRow] {
        &self.rows
    }

    /// Consumes the recorder, returning its rows.
    pub fn into_rows(self) -> Vec<WindowRow> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_close_on_width_boundaries() {
        let mut r = WindowRecorder::new(100);
        assert_eq!(r.end(), 100);
        r.close(100, vec![("x", 1.0)]);
        assert_eq!(r.end(), 200);
        r.close(205, vec![("x", 2.0)]);
        assert_eq!(r.end(), 300);
        // A position past several boundaries advances past all of them.
        r.close(512, vec![("x", 3.0)]);
        assert_eq!(r.end(), 600);
        let rows = r.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].index, 0);
        assert_eq!(rows[0].at, 100);
        assert_eq!(rows[1].index, 1);
        assert_eq!(rows[1].at, 205);
    }

    #[test]
    fn zero_width_is_clamped() {
        let r = WindowRecorder::new(0);
        assert_eq!(r.end(), 1);
    }
}
