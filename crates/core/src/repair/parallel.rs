//! Parallel table repair.
//!
//! Fixing rules read and write a single tuple at a time — unlike FD repair,
//! no cross-tuple state exists — so a table repair is embarrassingly
//! parallel: cut the rows into blocks, give each worker its own
//! [`LRepairScratch`], and share the immutable [`LRepairIndex`]. This is an
//! extension beyond the paper (its experiments are single-threaded); the
//! `repro` harness uses the sequential drivers so timings stay comparable.

use std::sync::Mutex;

use obs::{Event, RepairObserver};
use relation::Table;

use crate::repair::linear::{lrepair_tuple_observed, LRepairIndex, LRepairScratch};
use crate::repair::{CellUpdate, RepairOutcome};
use crate::ruleset::RuleSet;

/// Blocks of rows per worker that [`par_lrepair_table`] cuts a table into.
/// Workers claim blocks one at a time, so when one worker's core is taken
/// away for a while, the others repair the blocks it would have.
const BLOCKS_PER_WORKER: usize = 8;

/// Repair a table with `lRepair` across `num_threads` workers.
///
/// Produces exactly the same table state and update log as the sequential
/// [`crate::repair::lrepair_table`]. The rows are cut into contiguous
/// blocks, which the workers claim one at a time; each block's updates are
/// recorded in (row, application order), and concatenating the blocks'
/// logs in row order gives the sequential driver's log, byte for byte.
///
/// Observer hooks: each worker keeps the per-tuple tallies in its own
/// [`LRepairScratch`] and flushes them every 4,096 tuples and once at the
/// end, so the shared observer (which must therefore be `Sync`) sees no
/// per-tuple traffic but the same totals.
/// Per-update hooks (`rule_applied`, `cell_repaired`, ...) fire in worker
/// order — provenance consumers sort by `(row, ordinal)` — plus one
/// [`Event::WorkerDone`] per worker; pass
/// [`obs::NoopObserver`] for none.
pub fn par_lrepair_table<O: RepairObserver>(
    rules: &RuleSet,
    index: &LRepairIndex,
    table: &mut Table,
    num_threads: usize,
    observer: &O,
) -> RepairOutcome {
    assert!(
        rules.schema().same_as(table.schema()),
        "rule set and table must share a schema"
    );
    let num_threads = num_threads.max(1);
    let rows = table.len();
    if rows == 0 {
        return RepairOutcome::default();
    }
    let arity = table.schema().arity();
    let block_rows = rows.div_ceil(num_threads * BLOCKS_PER_WORKER);
    let workers = num_threads.min(rows.div_ceil(block_rows));
    let blocks = Mutex::new(table.rows_mut_chunks(block_rows).enumerate());
    let mut repaired: Vec<(usize, Vec<CellUpdate>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let blocks = &blocks;
                scope.spawn(move || {
                    let start = std::time::Instant::now();
                    let mut scratch = LRepairScratch::new(rules.len());
                    let mut done = Vec::new();
                    let (mut worker_rows, mut updates) = (0usize, 0usize);
                    loop {
                        // A statement of its own, so the lock is not held
                        // while the block is repaired.
                        let claimed = blocks.lock().expect("row blocks").next();
                        let Some((b, block)) = claimed else { break };
                        let base_row = b * block_rows;
                        let mut local = Vec::new();
                        for (r, row) in block.chunks_exact_mut(arity).enumerate() {
                            let mut ups =
                                lrepair_tuple_observed(rules, index, &mut scratch, row, observer);
                            for (k, u) in ups.iter_mut().enumerate() {
                                u.row = base_row + r;
                                observer.cell_repaired(u.as_fix(k));
                            }
                            local.extend(ups);
                            worker_rows += 1;
                        }
                        updates += local.len();
                        done.push((b, local));
                    }
                    scratch.flush_tallies(observer);
                    let busy_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    observer.event(Event::WorkerDone {
                        worker,
                        rows: worker_rows,
                        updates,
                        busy_ns,
                    });
                    done
                })
            })
            .collect();
        for h in handles {
            repaired.extend(h.join().expect("repair worker panicked"));
        }
    });
    repaired.sort_unstable_by_key(|&(b, _)| b);
    RepairOutcome {
        updates: repaired.into_iter().flat_map(|(_, ups)| ups).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::lrepair_table;
    use obs::NoopObserver;
    use relation::{Schema, SymbolTable};

    fn setup(rows: usize) -> (RuleSet, Table, SymbolTable) {
        let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rules = RuleSet::new(schema.clone());
        rules
            .push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai", "Hongkong"],
                "Beijing",
            )
            .unwrap();
        rules
            .push_named(
                &mut sy,
                &[("country", "Canada")],
                "capital",
                &["Toronto"],
                "Ottawa",
            )
            .unwrap();
        let mut table = Table::with_capacity(schema, rows);
        for i in 0..rows {
            let dirty = i % 3 == 0;
            let row = if dirty {
                ["p", "China", "Shanghai", "x", "ICDE"]
            } else {
                ["p", "China", "Beijing", "x", "ICDE"]
            };
            let _ = i;
            table.push_strs(&mut sy, &row).unwrap();
        }
        (rules, table, sy)
    }

    #[test]
    fn matches_sequential_result() {
        let (rules, table, _sy) = setup(1000);
        let index = LRepairIndex::build(&rules);
        let mut seq = table.clone();
        let mut par = table.clone();
        let so = lrepair_table(&rules, &index, &mut seq, &NoopObserver);
        let po = par_lrepair_table(&rules, &index, &mut par, 4, &NoopObserver);
        assert_eq!(seq.diff_cells(&par).unwrap(), 0);
        assert_eq!(so.updates, po.updates, "full update logs must agree");
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let (rules, table, _sy) = setup(10);
        let index = LRepairIndex::build(&rules);
        let mut seq = table.clone();
        let mut par = table.clone();
        lrepair_table(&rules, &index, &mut seq, &NoopObserver);
        par_lrepair_table(&rules, &index, &mut par, 1, &NoopObserver);
        assert_eq!(seq.diff_cells(&par).unwrap(), 0);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let (rules, table, _sy) = setup(3);
        let index = LRepairIndex::build(&rules);
        let mut par = table.clone();
        let outcome = par_lrepair_table(&rules, &index, &mut par, 16, &NoopObserver);
        assert_eq!(outcome.total_updates(), 1);
    }

    #[test]
    fn empty_table_is_noop() {
        let (rules, mut table, _sy) = setup(0);
        let index = LRepairIndex::build(&rules);
        let outcome = par_lrepair_table(&rules, &index, &mut table, 4, &NoopObserver);
        assert_eq!(outcome.total_updates(), 0);
    }

    #[test]
    fn updates_row_indices_are_global() {
        let (rules, table, _sy) = setup(100);
        let index = LRepairIndex::build(&rules);
        let mut par = table.clone();
        let outcome = par_lrepair_table(&rules, &index, &mut par, 7, &NoopObserver);
        for u in &outcome.updates {
            assert_eq!(u.row % 3, 0, "only every third row is dirty");
        }
        assert_eq!(outcome.total_updates(), 34);
    }

    #[test]
    fn worker_tallies_add_up_to_the_sequential_counters() {
        use obs::{MetricsObserver, MetricsRegistry};
        let (rules, table, _sy) = setup(10_000);
        let index = LRepairIndex::build(&rules);
        let metrics = |threads: usize| {
            let reg = MetricsRegistry::new();
            let mut t = table.clone();
            if threads == 0 {
                lrepair_table(&rules, &index, &mut t, &MetricsObserver::new(&reg));
            } else {
                par_lrepair_table(&rules, &index, &mut t, threads, &MetricsObserver::new(&reg));
            }
            let snap = reg.snapshot();
            let mut out = Vec::new();
            for section in ["counters", "histograms"] {
                for (name, value) in snap.get(section).unwrap().as_obj().unwrap() {
                    if name.starts_with("repair.") && !name.starts_with("repair.worker.") {
                        out.push(format!("{name}={value}"));
                    }
                }
            }
            out
        };
        let sequential = metrics(0);
        assert!(sequential.contains(&"repair.tuples=10000".to_string()));
        for threads in [1, 2, 3, 7] {
            assert_eq!(metrics(threads), sequential, "threads={threads}");
        }
    }
}
