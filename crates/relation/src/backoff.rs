//! When a memo is worth asking.
//!
//! Two memos in the workspace answer repeated rows from what they saw
//! before: the CSV scanner's row memo ([`crate::csv_io`]) and the `lRepair`
//! workers' plan memo in `fixrules`. Each costs a lookup per row, which
//! pays only when rows repeat. [`Backoff`] is the rule both follow to stop
//! asking when they do not.

/// Rows per window: a memo's hits are counted window by window.
const WINDOW: usize = 512;

/// Most rows skipped after one window with too few hits.
const MAX_SKIP: usize = 32 * WINDOW;

/// Whether to ask a memo about the next row. Rows are counted in windows
/// of 512 asked rows; when a window has fewer than a quarter of hits, the
/// memo costs more than it saves, and the next rows skip it for twice as
/// long as the last skip, from 512 rows up to 16,384. A window with enough
/// hits resets the skip length.
#[derive(Debug, Default)]
pub struct Backoff {
    /// Rows asked, and hits among them, in the current window.
    window_rows: usize,
    window_hits: usize,
    /// Rows still to skip, and how many the last skip was.
    skip: usize,
    last_skip: usize,
}

impl Backoff {
    /// Whether the next row skips the memo. Each call is one row: a row
    /// that does not skip must be [`Backoff::asked`] once it is.
    #[inline]
    pub fn skips(&mut self) -> bool {
        if self.skip == 0 {
            return false;
        }
        self.skip -= 1;
        true
    }

    /// Count a row asked of the memo, and whether the memo held it.
    #[inline]
    pub fn asked(&mut self, hit: bool) {
        self.window_rows += 1;
        self.window_hits += usize::from(hit);
        if self.window_rows == WINDOW {
            if self.window_hits < WINDOW / 4 {
                self.last_skip = (2 * self.last_skip).clamp(WINDOW, MAX_SKIP);
                self.skip = self.last_skip;
            } else {
                self.last_skip = 0;
            }
            self.window_rows = 0;
            self.window_hits = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows skipped in a row after each window of `hits` hits.
    fn skipped(backoff: &mut Backoff, hits: usize) -> usize {
        for r in 0..WINDOW {
            assert!(!backoff.skips());
            backoff.asked(r < hits);
        }
        let mut n = 0;
        while backoff.skips() {
            n += 1;
        }
        n
    }

    #[test]
    fn misses_double_the_skip_up_to_its_cap_and_hits_reset_it() {
        let mut b = Backoff::default();
        let skips: Vec<usize> = (0..8).map(|_| skipped(&mut b, 0)).collect();
        assert_eq!(skips, [512, 1024, 2048, 4096, 8192, 16384, 16384, 16384]);
        // A quarter of hits is enough: no skip, and the next miss starts
        // over from one window.
        assert_eq!(skipped(&mut b, WINDOW / 4), 0);
        assert_eq!(skipped(&mut b, WINDOW / 4 - 1), WINDOW);
        assert_eq!(skipped(&mut b, WINDOW / 4 - 1), 2 * WINDOW);
    }
}
