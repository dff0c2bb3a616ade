//! Batched columnar repair: gather, group by signature, repair each
//! group once.
//!
//! A batch dominated by duplicate evidence projections needs far fewer
//! engine runs than rows. The compiled program fingerprints every row
//! with one tight column scan per relevant attribute, rows are grouped by
//! fingerprint with exact verification against each group
//! representative's cells, and each distinct signature runs the compiled
//! chase exactly once — the resulting plan is scattered back to every
//! member row. A batch with `k` distinct signatures therefore does `k`
//! engine runs instead of `n`. Plans live for one call: nothing is shared
//! between batches unless a caller passes a [`PlanCache`], which only the
//! benchmark harness does.
//!
//! **Output equivalence.** Rows are visited in ascending order and the
//! core fires one hook, [`RepairObserver::cell_repaired`], once per fix in
//! the identical `(row, ordinal)` order a per-tuple driver would, so
//! ledgers, repaired columns and the update log are byte-identical to
//! `cRepair`'s (pinned by proptests).
//!
//! No product path runs the grouped core (`fixd` repairs each batch with
//! one [`crate::repair::LRepairWorker`]); it is kept only for perfbench's
//! per-layer replica, and goes with ROADMAP item 4.

use fxhash::FxHashMap;
use obs::RepairObserver;
use relation::Symbol;

use crate::repair::compile::{
    chase_compiled, CompiledEngine, CompiledScratch, Plan, PlanCache, RuleProgram,
};
use crate::repair::CellUpdate;
use crate::ruleset::RuleSet;

/// Group-by shape of one batched repair: how many rows were grouped into
/// how many distinct signatures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Rows in the batch.
    pub rows: usize,
    /// Distinct signatures (= engine runs or cache probes).
    pub groups: usize,
}

/// The plan of group representative `i`: a cache hit, or a compiled
/// chase over a copy of the row (recorded in the cache when there is
/// one). The columns are left as they are.
fn rep_plan(
    rules: &RuleSet,
    program: &RuleProgram,
    cache: Option<&PlanCache>,
    scratch: &mut CompiledScratch,
    cols: &[&mut [Symbol]],
    i: usize,
    row_buf: &mut Vec<Symbol>,
) -> Plan {
    row_buf.clear();
    row_buf.extend(cols.iter().map(|c| c[i]));
    let Some(cache) = cache else {
        return chase_compiled(rules, program, scratch, row_buf).into();
    };
    let sig: Box<[Symbol]> = program
        .relevant_attrs()
        .iter()
        .map(|a| row_buf[a.index()])
        .collect();
    cache.get(&sig).unwrap_or_else(|| {
        let plan: Plan = chase_compiled(rules, program, scratch, row_buf).into();
        cache.insert(sig, plan.clone());
        plan
    })
}

/// The grouped core, over raw column buffers: repair `cols` (one mutable
/// slice per attribute, all the same length) in place with the compiled
/// chase, returning updates re-indexed from `base_row` plus the batch's
/// group-by shape. The result equals [`crate::repair::crepair_table`]'s
/// on the same rows. The columns must follow the attribute order of
/// `rules`' schema.
#[allow(clippy::too_many_arguments)]
pub fn repair_columns_grouped<O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    cache: Option<&PlanCache>,
    scratch: &mut CompiledScratch,
    cols: &mut [&mut [Symbol]],
    base_row: usize,
    observer: &O,
) -> (Vec<CellUpdate>, BatchStats) {
    let CompiledEngine::Chase = engine;
    let rows = cols.first().map_or(0, |c| c.len());
    if rows == 0 {
        return (Vec::new(), BatchStats::default());
    }
    // Phase 1 — fingerprint every row's relevant-attribute projection
    // with one sequential pass per relevant column (no per-row signature
    // is materialized), then group provisionally by fingerprint: one
    // cheap u64 map probe per row. Each group's representative is its
    // first row. With an empty rule set every fingerprint equals the
    // seed and the whole batch is one clean group.
    let rel = program.relevant_attrs();
    let mut hashes = Vec::new();
    program.signature_hashes(&*cols, rows, &mut hashes);
    let mut index: FxHashMap<u64, u32> = FxHashMap::default();
    let mut group_of: Vec<u32> = Vec::with_capacity(rows);
    let mut reps: Vec<u32> = Vec::new();
    for (i, &h) in hashes.iter().enumerate() {
        let next = reps.len() as u32;
        let g = *index.entry(h).or_insert(next);
        if g == next {
            reps.push(i as u32);
        }
        group_of.push(g);
    }
    drop(index);
    drop(hashes);
    // Phase 2 — exact verification, one sequential pass per relevant
    // column against the (cache-resident) per-group representative
    // values: a row whose cell differs from its rep's is a fingerprint
    // collision and is demoted to its own singleton group, so a 64-bit
    // collision costs one extra engine run, never a wrong plan. No
    // repair has happened yet, so the live columns ARE the pre-repair
    // values.
    let mut collided: Vec<u32> = Vec::new();
    let mut rep_vals: Vec<Symbol> = Vec::with_capacity(reps.len());
    for attr in rel {
        let col = &cols[attr.index()];
        rep_vals.clear();
        rep_vals.extend(reps.iter().map(|&r| col[r as usize]));
        for (i, (&v, &g)) in col[..rows].iter().zip(group_of.iter()).enumerate() {
            if v != rep_vals[g as usize] {
                collided.push(i as u32);
            }
        }
    }
    if !collided.is_empty() {
        collided.sort_unstable();
        collided.dedup();
        for &i in &collided {
            let g = reps.len() as u32;
            reps.push(i);
            group_of[i as usize] = g;
        }
    }
    // Phase 3 — repair ascending so the fix stream interleaves exactly
    // like a per-tuple driver's: a group's representative resolves its
    // plan (cache probe or engine run — its row is still pre-repair at
    // that point, because it is the group's first row), and every row of
    // the group, the representative included, has the plan written onto
    // it.
    let groups = reps.len();
    let mut plans: Vec<Option<Plan>> = vec![None; groups];
    let mut all_updates: Vec<CellUpdate> = Vec::new();
    let mut row_buf: Vec<Symbol> = Vec::with_capacity(cols.len());
    for (i, &g) in group_of.iter().enumerate() {
        let plan = plans[g as usize]
            .get_or_insert_with(|| rep_plan(rules, program, cache, scratch, cols, i, &mut row_buf));
        for (k, u) in plan.iter().enumerate() {
            debug_assert_eq!(
                cols[u.attr.index()][i],
                u.old,
                "plan scattered onto a row with a different signature"
            );
            cols[u.attr.index()][i] = u.new;
            let upd = CellUpdate {
                row: base_row + i,
                ..*u
            };
            observer.cell_repaired(upd.as_fix(k));
            all_updates.push(upd);
        }
    }
    (all_updates, BatchStats { rows, groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::{ProvenanceLedger, ProvenanceObserver};
    use crate::repair::crepair_table;
    use obs::NoopObserver;
    use relation::{ColumnTable, Schema, SymbolTable, Table};

    fn schema() -> Schema {
        Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
    }

    fn fig8_rules(sy: &mut SymbolTable) -> RuleSet {
        let mut rs = RuleSet::new(schema());
        rs.push_named(
            sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        )
        .unwrap();
        rs.push_named(
            sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
        rs.push_named(
            sy,
            &[("capital", "Beijing"), ("conf", "ICDE")],
            "city",
            &["Hongkong"],
            "Shanghai",
        )
        .unwrap();
        rs
    }

    fn dup_table(rules: &RuleSet, sy: &mut SymbolTable, copies: usize) -> Table {
        let rows = [
            ["George", "China", "Beijing", "Beijing", "SIGMOD"],
            ["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
            ["Mike", "Canada", "Toronto", "Toronto", "VLDB"],
        ];
        let mut t = Table::with_capacity(rules.schema().clone(), rows.len() * copies);
        for c in 0..copies {
            for (j, r) in rows.iter().enumerate() {
                // Vary the irrelevant `name` so distinct rows share
                // signatures without being bytewise equal.
                let name = format!("p{c}-{j}");
                t.push_strs(sy, &[&name, r[1], r[2], r[3], r[4]]).unwrap();
            }
        }
        t
    }

    /// Transpose `table`, run the grouped core over all of it, and
    /// transpose the result back.
    fn grouped<O: RepairObserver>(
        rules: &RuleSet,
        program: &RuleProgram,
        cache: Option<&PlanCache>,
        table: &Table,
        observer: &O,
    ) -> (Table, Vec<CellUpdate>, BatchStats) {
        let mut columns = ColumnTable::from(table);
        let mut cols = columns.columns_mut();
        let mut scratch = CompiledScratch::new(rules.len());
        let (updates, stats) = repair_columns_grouped(
            rules,
            program,
            CompiledEngine::Chase,
            cache,
            &mut scratch,
            &mut cols,
            0,
            observer,
        );
        let mut out = Table::new(table.schema().clone());
        for i in 0..table.len() {
            let row: Vec<Symbol> = cols.iter().map(|c| c[i]).collect();
            out.push_row(&row).unwrap();
        }
        (out, updates, stats)
    }

    #[test]
    fn grouped_repair_matches_row_driver() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let table = dup_table(&rules, &mut sy, 20);
        let mut row_t = table.clone();
        let row_out = crepair_table(&rules, &mut row_t, &NoopObserver);
        for cached in [false, true] {
            let cache = cached.then(PlanCache::unbounded);
            let (col_t, updates, stats) =
                grouped(&rules, &program, cache.as_ref(), &table, &NoopObserver);
            assert_eq!(row_t.diff_cells(&col_t).unwrap(), 0);
            assert_eq!(row_out.updates, updates);
            assert_eq!(stats.rows, 60);
            assert_eq!(stats.groups, 3, "three distinct signatures");
        }
    }

    #[test]
    fn groups_run_engine_once_each() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let table = dup_table(&rules, &mut sy, 50);
        let cache = PlanCache::unbounded();
        let (_, _, stats) = grouped(&rules, &program, Some(&cache), &table, &NoopObserver);
        // One cache probe per group, not per row.
        let cs = cache.stats();
        assert_eq!(cs.hits + cs.misses, stats.groups as u64);
        assert_eq!(cs.misses, 3);
        // A second batch over a warm cache probes k times and hits k times.
        let (_, _, stats2) = grouped(&rules, &program, Some(&cache), &table, &NoopObserver);
        assert_eq!(stats2.groups, 3);
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn warm_plan_cache_keeps_table_updates_and_ledger() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let table = dup_table(&rules, &mut sy, 30);
        let run = |cache: Option<&PlanCache>| {
            let ledger = ProvenanceLedger::new();
            let observer = ProvenanceObserver::new(&rules, &ledger);
            let (t, updates, _) = grouped(&rules, &program, cache, &table, &observer);
            (t, updates, ledger.records())
        };
        let (cold, cold_updates, cold_records) = run(None);
        assert!(!cold_updates.is_empty());
        let cache = PlanCache::unbounded();
        run(Some(&cache));
        let (warm, warm_updates, warm_records) = run(Some(&cache));
        assert_eq!(cold.diff_cells(&warm).unwrap(), 0);
        assert_eq!(cold_updates, warm_updates);
        assert_eq!(cold_records, warm_records);
        assert!(cache.stats().hits >= 1, "the warm run replays cached plans");
    }

    #[test]
    fn empty_ruleset_gives_one_clean_group() {
        let mut sy = SymbolTable::new();
        let rules = RuleSet::new(schema());
        let program = RuleProgram::compile(&rules);
        assert!(program.relevant_attrs().is_empty(), "width-0 signatures");
        let mut t = Table::new(rules.schema().clone());
        for i in 0..5 {
            let v = format!("v{i}");
            t.push_strs(&mut sy, &[&v, "b", "c", "d", "e"]).unwrap();
        }
        let cache = PlanCache::unbounded();
        let (_, updates, stats) = grouped(&rules, &program, Some(&cache), &t, &NoopObserver);
        assert!(updates.is_empty());
        assert_eq!(stats.groups, 1, "all rows share the empty signature");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let empty = Table::new(rules.schema().clone());
        let (_, updates, stats) = grouped(&rules, &program, None, &empty, &NoopObserver);
        assert!(updates.is_empty());
        assert_eq!(stats, BatchStats::default());
    }
}
