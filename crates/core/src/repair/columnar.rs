//! Batched columnar repair: gather, group by signature, repair each
//! group once.
//!
//! A batch dominated by duplicate evidence projections needs far fewer
//! engine runs than rows. [`RuleProgram::signature_hashes`] fingerprints
//! every row with one tight column scan per relevant attribute, rows are
//! grouped by fingerprint with exact verification against each group
//! representative's cells, and each distinct signature runs the compiled
//! engine exactly once — the resulting [`RepairPlan`] is scattered back
//! to every member row. A batch with `k` distinct signatures therefore
//! does `k` engine runs instead of `n`. Plans live for one call: nothing
//! is shared between batches unless a caller passes a [`PlanCache`],
//! which only the benchmark harness still does.
//!
//! **Output equivalence.** Rows are visited in ascending order and each
//! row emits the hooks a per-tuple run would: a group's first row runs
//! the engine, and member rows replay the plan with the
//! per-fix `rule_applied`/`plan_replayed` calls, with the members'
//! single-tuple `tuples_done`s coalesced into one
//! [`RepairObserver::tuples_done`] per group (every final counter and
//! histogram matches; per-call observer cost for a clean duplicate row
//! drops to zero). Crucially `cell_repaired` fixes are still emitted per row in
//! the identical `(row, ordinal)` order, so ledgers, repaired tables and
//! output CSV are byte-identical to `cRepair`/`lRepair` (pinned by
//! proptests); only the columnar-only `repair.batch.*` counters depend on
//! the batching.

use std::sync::Arc;

use fxhash::FxHashMap;
use obs::{Event, RepairObserver};
use relation::{AttrSet, ColumnTable, Symbol};

use crate::repair::compile::{
    run_engine, CompiledEngine, CompiledScratch, PlanCache, RepairPlan, RuleProgram, TupleSignature,
};
use crate::repair::{CellUpdate, RepairOutcome};
use crate::ruleset::RuleSet;

/// Group-by shape of one batched repair: how many rows were grouped into
/// how many distinct signatures, and how many rows were repaired by
/// scattering a group plan instead of touching the engine or cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Rows in the batch.
    pub rows: usize,
    /// Distinct signatures (= engine runs or cache probes).
    pub groups: usize,
    /// Member rows repaired by plan scatter (`rows - groups`).
    pub scattered: usize,
}

/// Scatter a group's plan onto row `i` of the columns, emitting the
/// per-fix hooks a [`PlanCache`] replay does. The caller accounts for
/// `tuples_done` — once per rep for group representatives, coalesced
/// into one call per group for scattered members.
fn scatter_plan<O: RepairObserver>(
    plan: &RepairPlan,
    cols: &mut [&mut [Symbol]],
    i: usize,
    observer: &O,
) {
    for u in plan.updates() {
        debug_assert_eq!(
            cols[u.attr.index()][i],
            u.old,
            "plan scattered onto a row with a different signature"
        );
        cols[u.attr.index()][i] = u.new;
        observer.rule_applied(u.rule.index(), u.attr.index());
        observer.plan_replayed(u.rule.index(), u.attr.index());
    }
}

/// Run the engine on row `i` (gathered into `row_buf`), write the fixes
/// back into the columns, and record the run as a [`RepairPlan`].
#[allow(clippy::too_many_arguments)]
fn run_group_rep<O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    scratch: &mut CompiledScratch,
    cols: &mut [&mut [Symbol]],
    i: usize,
    row_buf: &mut Vec<Symbol>,
    observer: &O,
) -> RepairPlan {
    row_buf.clear();
    row_buf.extend(cols.iter().map(|c| c[i]));
    let (updates, rounds) = run_engine(rules, program, engine, scratch, row_buf, observer);
    observer.tuples_done(rounds, updates.len(), 1);
    for u in &updates {
        cols[u.attr.index()][i] = u.new;
    }
    let assured = updates.iter().fold(AttrSet::EMPTY, |acc, u| {
        acc.union(rules.rule(u.rule).assured_delta())
    });
    RepairPlan::new(updates, rounds, assured)
}

/// The grouped core behind [`columnar_table`] (and servers that hold raw
/// column buffers):
/// repair `cols` (one mutable slice per attribute, all the same length)
/// in place, returning updates re-indexed from `base_row` plus the
/// batch's group-by shape. Emits one [`Event::BatchGrouped`] per
/// non-empty batch. The columns must follow the attribute order of `rules`'
/// schema.
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
    let rows = cols.first().map_or(0, |c| c.len());
    if rows == 0 {
        return (Vec::new(), BatchStats::default());
    }
    // Phase 1 — fingerprint every row's relevant-attribute projection
    // with one sequential pass per relevant column (no per-row signature
    // is materialized), then group provisionally by fingerprint: one
    // cheap u64 map probe per row. Each group's representative is its
    // first row. With an empty rule set every fingerprint equals the
    // seed and the whole batch is one clean group — mirroring the row
    // path's single shared empty signature.
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
    // like a per-tuple driver's: a group's representative resolves its plan
    // (cache probe or engine run — its row is still pre-repair at that
    // point, because it is the group's first row), members scatter it.
    // Scattered members' `tuples_done`s are coalesced: one call per group
    // after the scan (all members share the plan's rounds and update
    // count), so a clean duplicate row costs zero observer atomics
    // instead of five. Only aggregating observers implement
    // `tuples_done`, so every final counter is unchanged;
    // `cell_repaired` stays strictly per-row and in order.
    let groups = reps.len();
    let mut plans: Vec<Option<Arc<RepairPlan>>> = vec![None; groups];
    let mut members: Vec<u32> = vec![0; groups];
    let mut all_updates: Vec<CellUpdate> = Vec::new();
    let mut row_buf: Vec<Symbol> = Vec::with_capacity(cols.len());
    let mut sig_buf: Vec<Symbol> = Vec::with_capacity(rel.len());
    let mut scattered = 0usize;
    for i in 0..rows {
        let g = group_of[i] as usize;
        if let Some(plan) = &plans[g] {
            scattered += 1;
            members[g] += 1;
            if !plan.updates().is_empty() {
                scatter_plan(plan, cols, i, observer);
                for (k, u) in plan.updates().iter().enumerate() {
                    let mut upd = *u;
                    upd.row = base_row + i;
                    observer.cell_repaired(upd.as_fix(k));
                    all_updates.push(upd);
                }
            }
            continue;
        }
        let plan = match cache {
            Some(cache) => {
                sig_buf.clear();
                sig_buf.extend(rel.iter().map(|a| cols[a.index()][i]));
                let sig = TupleSignature::from_slice(&sig_buf);
                match cache.get(&sig) {
                    Some(plan) => {
                        scatter_plan(&plan, cols, i, observer);
                        observer.tuples_done(plan.rounds(), plan.updates().len(), 1);
                        plan
                    }
                    None => {
                        let plan = run_group_rep(
                            rules,
                            program,
                            engine,
                            scratch,
                            cols,
                            i,
                            &mut row_buf,
                            observer,
                        );
                        cache.insert(sig, plan.clone());
                        Arc::new(plan)
                    }
                }
            }
            None => Arc::new(run_group_rep(
                rules,
                program,
                engine,
                scratch,
                cols,
                i,
                &mut row_buf,
                observer,
            )),
        };
        for (k, u) in plan.updates().iter().enumerate() {
            let mut upd = *u;
            upd.row = base_row + i;
            observer.cell_repaired(upd.as_fix(k));
            all_updates.push(upd);
        }
        plans[g] = Some(plan);
    }
    for (g, &count) in members.iter().enumerate() {
        if count > 0 {
            let plan = plans[g].as_ref().expect("group with members has a plan");
            observer.tuples_done(plan.rounds(), plan.updates().len(), count as usize);
        }
    }
    let stats = BatchStats {
        rows,
        groups,
        scattered,
    };
    observer.event(Event::BatchGrouped {
        rows,
        groups,
        scattered,
    });
    (all_updates, stats)
}

/// Batched columnar repair of a whole [`ColumnTable`]: group-by-plan on
/// top of the compiled engine. Produces exactly the table state and
/// update log of the driver `engine` emulates
/// ([`crate::repair::crepair_table`] for [`CompiledEngine::Chase`],
/// [`crate::repair::lrepair_table`] for [`CompiledEngine::Linear`]), plus
/// the batch's group-by shape. Observer hooks: the per-tuple hooks, plus
/// one [`Event::BatchGrouped`] per non-empty batch; pass
/// [`obs::NoopObserver`] for none.
pub fn columnar_table<O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    cache: Option<&PlanCache>,
    table: &mut ColumnTable,
    observer: &O,
) -> (RepairOutcome, BatchStats) {
    assert!(
        rules.schema().same_as(table.schema()),
        "rule set and table must share a schema"
    );
    let mut scratch = CompiledScratch::new(rules.len());
    let mut cols = table.columns_mut();
    let (updates, stats) = repair_columns_grouped(
        rules,
        program,
        engine,
        cache,
        &mut scratch,
        &mut cols,
        0,
        observer,
    );
    (RepairOutcome { updates }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{crepair_table, lrepair_table, LRepairIndex};
    use obs::{MetricsObserver, MetricsRegistry, NoopObserver};
    use relation::{Schema, SymbolTable, Table};
    use std::collections::BTreeMap;

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

    #[test]
    fn grouped_repair_matches_row_driver() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let index = LRepairIndex::build(&rules);
        let table = dup_table(&rules, &mut sy, 20);
        for engine in [CompiledEngine::Chase, CompiledEngine::Linear] {
            let mut row_t = table.clone();
            let row_out = match engine {
                CompiledEngine::Chase => crepair_table(&rules, &mut row_t, &NoopObserver),
                CompiledEngine::Linear => lrepair_table(&rules, &index, &mut row_t, &NoopObserver),
            };
            for cached in [false, true] {
                let cache = cached.then(PlanCache::unbounded);
                let mut col_t = ColumnTable::from_table(&table);
                let (col_out, stats) = columnar_table(
                    &rules,
                    &program,
                    engine,
                    cache.as_ref(),
                    &mut col_t,
                    &NoopObserver,
                );
                assert_eq!(row_t.diff_cells(&col_t.to_table()).unwrap(), 0);
                assert_eq!(row_out.updates, col_out.updates);
                assert_eq!(stats.rows, 60);
                assert_eq!(stats.groups, 3, "three distinct signatures");
                assert_eq!(stats.scattered, 57);
            }
        }
    }

    #[test]
    fn groups_run_engine_once_each() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let table = dup_table(&rules, &mut sy, 50);
        let cache = PlanCache::unbounded();
        let run = |t: &mut ColumnTable| {
            columnar_table(
                &rules,
                &program,
                CompiledEngine::Linear,
                Some(&cache),
                t,
                &NoopObserver,
            )
            .1
        };
        let stats = run(&mut ColumnTable::from_table(&table));
        // One cache probe per group, not per row.
        let cs = cache.stats();
        assert_eq!(cs.hits + cs.misses, stats.groups as u64);
        assert_eq!(cs.misses, 3);
        // A second batch over a warm cache probes k times and hits k times.
        let stats2 = run(&mut ColumnTable::from_table(&table));
        assert_eq!(stats2.groups, 3);
        assert_eq!(cache.stats().hits, 3);
    }

    /// `repair.*` counters and `repair.tuple_*` histograms of one run,
    /// minus the families that count live engine work (probes, and the
    /// chase flavour's rounds) and batching — the only ones a plan cache
    /// may change.
    fn repair_metrics(registry: &MetricsRegistry) -> BTreeMap<String, obs::Json> {
        let snap = registry.snapshot();
        let counters = snap.get("counters").and_then(|c| c.as_obj()).unwrap();
        let histograms = snap.get("histograms").and_then(|h| h.as_obj()).unwrap();
        counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with("repair.")
                    && !["repair.plan.", "repair.batch.", "repair.chase."]
                        .iter()
                        .any(|p| k.starts_with(p))
            })
            .chain(
                histograms
                    .iter()
                    .filter(|(k, _)| k.starts_with("repair.tuple_")),
            )
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    #[test]
    fn warm_plan_cache_keeps_table_and_repair_counters() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let table = dup_table(&rules, &mut sy, 30);
        for engine in [CompiledEngine::Chase, CompiledEngine::Linear] {
            let cold_registry = MetricsRegistry::new();
            let mut cold = ColumnTable::from_table(&table);
            let (cold_out, _) = columnar_table(
                &rules,
                &program,
                engine,
                None,
                &mut cold,
                &MetricsObserver::new(&cold_registry),
            );
            let cache = PlanCache::unbounded();
            columnar_table(
                &rules,
                &program,
                engine,
                Some(&cache),
                &mut ColumnTable::from_table(&table),
                &NoopObserver,
            );
            let warm_registry = MetricsRegistry::new();
            let mut warm = ColumnTable::from_table(&table);
            let (warm_out, _) = columnar_table(
                &rules,
                &program,
                engine,
                Some(&cache),
                &mut warm,
                &MetricsObserver::new(&warm_registry),
            );
            assert_eq!(cold.to_table().diff_cells(&warm.to_table()).unwrap(), 0);
            assert_eq!(cold_out.updates, warm_out.updates);
            let cold_metrics = repair_metrics(&cold_registry);
            assert!(cold_metrics.contains_key("repair.updates"));
            assert_eq!(cold_metrics, repair_metrics(&warm_registry), "{engine:?}");
            assert!(cache.stats().hits >= 1, "the warm run replays cached plans");
        }
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
        let mut cols = ColumnTable::from_table(&t);
        let (out, stats) = columnar_table(
            &rules,
            &program,
            CompiledEngine::Linear,
            Some(&cache),
            &mut cols,
            &NoopObserver,
        );
        assert!(out.updates.is_empty());
        assert_eq!(stats.groups, 1, "all rows share the empty signature");
        assert_eq!(stats.scattered, 4);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let mut empty = ColumnTable::new(rules.schema().clone());
        let (out, stats) = columnar_table(
            &rules,
            &program,
            CompiledEngine::Linear,
            None,
            &mut empty,
            &NoopObserver,
        );
        assert!(out.updates.is_empty());
        assert_eq!(stats, BatchStats::default());
    }
}
