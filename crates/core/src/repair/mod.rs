//! Repairing data with a consistent set of fixing rules (§6).
//!
//! Two per-tuple algorithms, matching the paper — the reference
//! implementations behind the figures and the test oracles:
//!
//! * [`chase`] — `cRepair` (Fig 6): rescan the unused rules after every
//!   update; `O(size(Σ)·|R|)` per tuple.
//! * [`linear`] — `lRepair` (Fig 7): inverted lists from `(attribute,
//!   value)` keys to rules plus per-rule hash counters of matched evidence
//!   cells; `O(size(Σ))` per tuple.
//!
//! Each has a table driver ([`crepair_table`], [`lrepair_table`]);
//! [`parallel`] shards `lRepair` rows across threads — sound because
//! fixing rules are strictly per-tuple (unlike FD repair, which must
//! reason across tuples) — and [`stream`] runs `lRepair` over a CSV
//! stream in one pass.
//!
//! [`columnar`] is the grouped core: Σ is compiled once into a
//! [`RuleProgram`] ([`compile`]), the rows of a column batch are grouped
//! by [`TupleSignature`], and each distinct signature runs the compiled
//! engine once ([`repair_columns_grouped`]). [`CompiledEngine::Chase`]
//! and [`CompiledEngine::Linear`] reproduce `cRepair`'s and `lRepair`'s
//! output — table, update log and provenance ledger — byte for byte.
//!
//! Every table and stream driver takes an `observer: &O`; pass
//! [`NoopObserver`] when no hooks are wanted.
//!
//! Both algorithms require a **consistent** rule set; by the Church–Rosser
//! property (§6.1) they then produce the same unique fix per tuple, which is
//! asserted by the cross-algorithm tests and property tests.

pub mod chase;
pub mod columnar;
pub mod compile;
pub mod detect;
pub mod linear;
pub mod parallel;
pub mod stream;

pub use chase::{crepair_table, crepair_tuple};
pub use columnar::{columnar_table, repair_columns_grouped, BatchStats};
pub use compile::{
    crepair_compiled_tuple, CompiledEngine, CompiledScratch, PlanCache, PlanCacheStats, RepairPlan,
    RuleProgram, TupleSignature,
};
pub use detect::{detect_table, explain};
pub use linear::{lrepair_table, lrepair_tuple, LRepairIndex, LRepairScratch};
pub use obs::NoopObserver;
pub use parallel::{par_lrepair_table, LRepairWorker};
pub use stream::{stream_repair_csv, StreamStats};

use relation::{AttrId, Symbol};

use crate::ruleset::RuleId;

/// One cell update performed by a repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellUpdate {
    /// Row index in the table.
    pub row: usize,
    /// Updated attribute (`B` of the applied rule).
    pub attr: AttrId,
    /// Value before the update (a negative pattern of the rule).
    pub old: Symbol,
    /// Value after the update (the rule's fact).
    pub new: Symbol,
    /// The rule that fired.
    pub rule: RuleId,
    /// Chase round (`cRepair`) or candidate-queue pop index (`lRepair`)
    /// at which the rule fired, 1-based — the "when" of the provenance
    /// chain.
    pub round: u32,
}

impl CellUpdate {
    /// Translate into the plain-id [`obs::CellFix`] hook payload;
    /// `ordinal` is this update's application order within its row.
    /// Expects `row` to already be re-indexed by a table driver.
    pub fn as_fix(&self, ordinal: usize) -> obs::CellFix {
        obs::CellFix {
            row: self.row,
            ordinal,
            rule: self.rule.index(),
            attr: self.attr.index(),
            old: self.old.0,
            new: self.new.0,
            round: self.round,
        }
    }
}

/// Aggregate statistics of one repair run — the single reporting type
/// shared by the table drivers (via [`RepairOutcome::stats`]) and the
/// streaming driver (which returns it directly as
/// [`StreamStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Records processed.
    pub rows: usize,
    /// Cell updates applied.
    pub updates: usize,
    /// Records with at least one update.
    pub rows_touched: usize,
}

impl RepairStats {
    /// Fraction of rows that needed repair, in `[0, 1]`.
    pub fn touched_ratio(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.rows_touched as f64 / self.rows as f64
        }
    }

    /// Throughput over a measured wall-clock duration.
    pub fn rows_per_sec(&self, elapsed: std::time::Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.rows as f64 / secs
        }
    }
}

/// The full log of a table repair.
#[derive(Debug, Clone, Default)]
pub struct RepairOutcome {
    /// Every applied update, in application order per row.
    pub updates: Vec<CellUpdate>,
}

impl RepairOutcome {
    /// Total number of cell updates.
    pub fn total_updates(&self) -> usize {
        self.updates.len()
    }

    /// Number of distinct rows touched.
    pub fn rows_touched(&self) -> usize {
        let mut rows: Vec<usize> = self.updates.iter().map(|u| u.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.len()
    }

    /// Aggregate statistics for a run over `rows` records — the same shape
    /// the streaming driver reports, so callers have one reporting path.
    pub fn stats(&self, rows: usize) -> RepairStats {
        RepairStats {
            rows,
            updates: self.total_updates(),
            rows_touched: self.rows_touched(),
        }
    }

    /// Updates per rule id — the data behind Fig 12(a) ("number of errors
    /// corrected by every fixing rule").
    pub fn per_rule_counts(&self, num_rules: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_rules];
        for u in &self.updates {
            counts[u.rule.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_ratios_and_throughput() {
        let stats = RepairStats {
            rows: 100,
            updates: 7,
            rows_touched: 5,
        };
        assert!((stats.touched_ratio() - 0.05).abs() < 1e-12);
        let rps = stats.rows_per_sec(std::time::Duration::from_millis(500));
        assert!((rps - 200.0).abs() < 1e-9);
        assert_eq!(RepairStats::default().touched_ratio(), 0.0);
        assert_eq!(
            RepairStats::default().rows_per_sec(std::time::Duration::ZERO),
            0.0
        );
    }

    #[test]
    fn outcome_aggregations() {
        let outcome = RepairOutcome {
            updates: vec![
                CellUpdate {
                    row: 0,
                    attr: AttrId(2),
                    old: Symbol(1),
                    new: Symbol(2),
                    rule: RuleId(0),
                    round: 1,
                },
                CellUpdate {
                    row: 0,
                    attr: AttrId(3),
                    old: Symbol(3),
                    new: Symbol(4),
                    rule: RuleId(1),
                    round: 2,
                },
                CellUpdate {
                    row: 5,
                    attr: AttrId(2),
                    old: Symbol(1),
                    new: Symbol(2),
                    rule: RuleId(0),
                    round: 1,
                },
            ],
        };
        assert_eq!(outcome.total_updates(), 3);
        assert_eq!(outcome.rows_touched(), 2);
        assert_eq!(outcome.per_rule_counts(3), vec![2, 1, 0]);
        assert_eq!(
            outcome.stats(10),
            RepairStats {
                rows: 10,
                updates: 3,
                rows_touched: 2,
            }
        );
    }
}
