//! Parallel table repair.
//!
//! Fixing rules read and write a single tuple at a time — unlike FD repair,
//! no cross-tuple state exists — so a table repair is embarrassingly
//! parallel: shard the rows, give each worker its own
//! [`LRepairScratch`], and share the immutable [`LRepairIndex`]. This is an
//! extension beyond the paper (its experiments are single-threaded); the
//! `repro` harness uses the sequential drivers so timings stay comparable.

use obs::{Event, RepairObserver};
use relation::Table;

use crate::repair::linear::{lrepair_tuple_observed, LRepairIndex, LRepairScratch};
use crate::repair::{CellUpdate, RepairOutcome};
use crate::ruleset::RuleSet;

/// Repair a table with `lRepair` across `num_threads` workers.
///
/// Produces exactly the same table state and update log as the sequential
/// [`crate::repair::lrepair_table`]. Each worker repairs one contiguous
/// range of rows and records its updates in (row, application order);
/// joining the workers in range order concatenates those logs into the
/// sequential driver's log, byte for byte.
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
    let chunk_rows = rows.div_ceil(num_threads);
    let mut all_updates: Vec<CellUpdate> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (chunk_idx, chunk) in table.rows_mut_chunks(chunk_rows).enumerate() {
            let base_row = chunk_idx * chunk_rows;
            handles.push(scope.spawn(move || {
                let start = std::time::Instant::now();
                let mut scratch = LRepairScratch::new(rules.len());
                let mut local = Vec::new();
                let mut worker_rows = 0usize;
                for (r, row) in chunk.chunks_exact_mut(arity).enumerate() {
                    let mut ups = lrepair_tuple_observed(rules, index, &mut scratch, row, observer);
                    for (k, u) in ups.iter_mut().enumerate() {
                        u.row = base_row + r;
                        observer.cell_repaired(u.as_fix(k));
                    }
                    local.extend(ups);
                    worker_rows += 1;
                }
                scratch.flush_tallies(observer);
                let busy_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                observer.event(Event::WorkerDone {
                    worker: chunk_idx,
                    rows: worker_rows,
                    updates: local.len(),
                    busy_ns,
                });
                local
            }));
        }
        for h in handles {
            all_updates.extend(h.join().expect("repair worker panicked"));
        }
    });
    RepairOutcome {
        updates: all_updates,
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
