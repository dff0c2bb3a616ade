//! Property-based tests for the fixing-rule machinery.
//!
//! These exercise the paper's meta-theorems on randomly generated rule sets
//! and tuples over a small vocabulary (dense vocabularies maximise rule
//! interaction):
//!
//! 1. the chase terminates within `|R|` applications (§4.1);
//! 2. `isConsist_t` and `isConsist_r` agree (Theorem 1 / Lemma 4 / Fig 4);
//! 3. for consistent Σ, all application orders agree (Church–Rosser) and
//!    `cRepair` = `lRepair`;
//! 4. repaired tuples are fixpoints;
//! 5. resolution always terminates in a consistent set;
//! 6. values outside Σ's constants are interchangeable: mapping them all
//!    to ⊥ leaves cRepair and lRepair unchanged (exact value abstraction);
//! 7. the parallel driver's per-worker plan memo is exact: at any worker
//!    count it reproduces `lrepair_table`'s table, update log, ledger,
//!    metrics and per-rule profile.

use std::collections::HashSet;
use std::sync::Mutex;

use proptest::prelude::*;

use fixrules::consistency::is_consistent_characterize;
use fixrules::consistency::resolve::{ensure_consistent, Strategy as ResolveStrategy};
use fixrules::provenance::{ProvenanceLedger, ProvenanceObserver};
use fixrules::repair::{
    crepair_table, crepair_tuple, lrepair_table, lrepair_tuple, par_lrepair_table,
    repair_columns_grouped, CellUpdate, CompiledEngine, CompiledScratch, LRepairIndex,
    LRepairScratch, NoopObserver, PlanCache, RuleProgram,
};
use fixrules::semantics::{all_fixes, is_fixpoint};
use fixrules::{FixingRule, RuleSet};
use obs::{
    AttributionObserver, CellFix, Event, MetricsObserver, MetricsRegistry, RepairObserver,
    RuleLabel, Tee,
};
use relation::{AttrId, AttrSet, ColumnTable, Schema, Symbol, Table};

const ARITY: usize = 5;
const VOCAB: u32 = 6;

fn schema() -> Schema {
    Schema::new("R", ["a0", "a1", "a2", "a3", "a4"]).unwrap()
}

/// A raw rule description: evidence (attr, value) pairs, b, negatives, fact.
#[derive(Debug, Clone)]
struct RawRule {
    evidence: Vec<(u16, u32)>,
    b: u16,
    neg: Vec<u32>,
    fact: u32,
}

fn raw_rule() -> impl Strategy<Value = RawRule> {
    (
        proptest::collection::vec((0u16..ARITY as u16, 0u32..VOCAB), 1..3),
        0u16..ARITY as u16,
        proptest::collection::vec(0u32..VOCAB, 1..4),
        0u32..VOCAB,
    )
        .prop_map(|(evidence, b, neg, fact)| RawRule {
            evidence,
            b,
            neg,
            fact,
        })
}

/// Materialise raw rules, silently dropping invalid ones (duplicate
/// evidence attrs, b ∈ X, fact ∈ neg) — the generator is intentionally
/// sloppy so the validator is also exercised.
fn build_ruleset(raws: &[RawRule]) -> RuleSet {
    let mut rs = RuleSet::new(schema());
    for raw in raws {
        let evidence: Vec<(AttrId, Symbol)> = raw
            .evidence
            .iter()
            .map(|&(a, v)| (AttrId(a), Symbol(v)))
            .collect();
        let neg: Vec<Symbol> = raw.neg.iter().map(|&v| Symbol(v)).collect();
        if let Ok(rule) = FixingRule::new(evidence, AttrId(raw.b), neg, Symbol(raw.fact)) {
            rs.push(rule);
        }
    }
    rs
}

fn rulesets() -> impl Strategy<Value = RuleSet> {
    proptest::collection::vec(raw_rule(), 0..8).prop_map(|raws| build_ruleset(&raws))
}

fn tuples() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec(0u32..VOCAB, ARITY..=ARITY)
        .prop_map(|vs| vs.into_iter().map(Symbol).collect())
}

/// The table the column slices `cols` hold, over `rs`'s schema.
fn table_of(rs: &RuleSet, cols: &[&mut [Symbol]]) -> Table {
    let mut table = Table::new(rs.schema().clone());
    for i in 0..cols[0].len() {
        let row: Vec<Symbol> = cols.iter().map(|c| c[i]).collect();
        table.push_row(&row).unwrap();
    }
    table
}

proptest! {
    /// §4.1: the all-orders chase terminates and every reached fix is a
    /// fixpoint; no sequence exceeds |R| applications (implied by
    /// termination of the bounded DFS).
    #[test]
    fn chase_terminates_and_reaches_fixpoints(rs in rulesets(), t in tuples()) {
        let refs: Vec<&FixingRule> = rs.rules().iter().collect();
        let fixes = all_fixes(&refs, &t);
        prop_assert!(!fixes.is_empty());
        for f in &fixes {
            // Recompute the assured set along *some* path is unavailable
            // here, but a fix must at least be stable under the empty
            // assured set for rules whose evidence it fails to match...
            // the strong check: chasing a fix yields only itself when Σ is
            // consistent; in general each fix differs from t only on B
            // attributes.
            for (i, (&orig, &now)) in t.iter().zip(f.iter()).enumerate() {
                if orig != now {
                    let attr = AttrId(i as u16);
                    prop_assert!(rs.rules().iter().any(|r| r.b() == attr),
                        "changed attribute {attr} is not any rule's B");
                }
            }
        }
    }

    /// Theorem 1 machinery: `check_both_agree` holds — the two consistency
    /// checkers reach the same verdict on every generated rule set, flag the
    /// same conflicting pairs, and every reported conflict materializes a
    /// genuine two-fix witness.
    #[test]
    fn checkers_agree(rs in rulesets()) {
        let (r, t) = fixrules::consistency::check_both_agree(&rs);
        prop_assert_eq!(r.is_consistent(), t.is_consistent(),
            "characterize={:?} enumerate={:?}", r.conflicts, t.conflicts);
        // They flag the same pairs...
        let pairs = |rep: &fixrules::ConsistencyReport| {
            let mut v: Vec<(u32, u32)> = rep.conflicts.iter()
                .map(|c| (c.first.0, c.second.0)).collect();
            v.sort();
            v
        };
        prop_assert_eq!(pairs(&r), pairs(&t));
        // ...and the same conflicting-rule sets.
        prop_assert_eq!(r.conflicting_rules(), t.conflicting_rules());
        // Every conflict is real: a tuple the pair chases to two different
        // fixpoints (the witness space is tiny under this vocabulary).
        for conflict in r.conflicts.iter().chain(t.conflicts.iter()) {
            let w = fixrules::consistency::conflict_witness(&rs, conflict, 1 << 16)
                .expect("conflict must yield a witness within budget");
            prop_assert_ne!(&w.fixes[0], &w.fixes[1]);
        }
    }

    /// Church–Rosser (§6.1): for consistent Σ every tuple has exactly one
    /// fix, and cRepair/lRepair both compute it.
    #[test]
    fn consistent_sets_give_unique_fixes(rs in rulesets(), t in tuples()) {
        if !is_consistent_characterize(&rs, 1).is_consistent() {
            // Conditioning by rejection would starve the generator; just
            // resolve the set first.
            let mut rs2 = rs.clone();
            ensure_consistent(&mut rs2, ResolveStrategy::ShrinkNegatives);
            let refs: Vec<&FixingRule> = rs2.rules().iter().collect();
            let fixes = all_fixes(&refs, &t);
            prop_assert_eq!(fixes.len(), 1);
            return Ok(());
        }
        let refs: Vec<&FixingRule> = rs.rules().iter().collect();
        let fixes = all_fixes(&refs, &t);
        prop_assert_eq!(fixes.len(), 1, "consistent Σ must give a unique fix");
        let unique = fixes.into_iter().next().unwrap();

        let mut via_chase = t.clone();
        crepair_tuple(&rs, &mut via_chase);
        prop_assert_eq!(&via_chase, &unique);

        let index = LRepairIndex::build(&rs);
        let mut scratch = LRepairScratch::new(rs.len());
        let mut via_linear = t.clone();
        lrepair_tuple(&rs, &index, &mut scratch, &mut via_linear);
        prop_assert_eq!(&via_linear, &unique);

        // The formal fixpoint property is relative to the accumulated
        // assured set (NOT a fresh empty one: a rule's fact may lie in
        // another same-B rule's negative patterns without making the pair
        // inconsistent, so an independent second repair run may legally
        // re-fire). Recompute the assured set from the fired rules and
        // check no rule is properly applicable.
        let mut replay = t.clone();
        let ups = crepair_tuple(&rs, &mut replay);
        let mut assured = AttrSet::EMPTY;
        for u in &ups {
            assured.union_with(rs.rule(u.rule).assured_delta());
        }
        prop_assert!(is_fixpoint(rs.rules().iter(), &replay, assured));
    }

    /// lRepair on a full table equals per-tuple cRepair, and the parallel
    /// driver equals the sequential one.
    #[test]
    fn table_drivers_agree(rs in rulesets(),
                           rows in proptest::collection::vec(tuples(), 1..24)) {
        // Work on a consistent set.
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let mut table = Table::new(rs.schema().clone());
        for r in &rows {
            table.push_row(r).unwrap();
        }
        let index = LRepairIndex::build(&rs);
        let mut by_c = table.clone();
        crepair_table(&rs, &mut by_c, &NoopObserver);
        let mut by_l = table.clone();
        lrepair_table(&rs, &index, &mut by_l, &NoopObserver);
        let mut by_p = table.clone();
        par_lrepair_table(&rs, &index, &mut by_p, 3, &NoopObserver);
        prop_assert_eq!(by_c.diff_cells(&by_l).unwrap(), 0);
        prop_assert_eq!(by_c.diff_cells(&by_p).unwrap(), 0);
    }

    /// Fixes are stable: after repair, no rule is properly applicable given
    /// the assured set accumulated from the fired rules.
    #[test]
    fn repaired_tuple_is_fixpoint(rs in rulesets(), t in tuples()) {
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let mut fixed = t.clone();
        let ups = crepair_tuple(&rs, &mut fixed);
        let mut assured = AttrSet::EMPTY;
        for u in &ups {
            assured.union_with(rs.rule(u.rule).assured_delta());
        }
        prop_assert!(is_fixpoint(rs.rules().iter(), &fixed, assured));
    }

    /// The compiled chase is a drop-in replacement for `cRepair` when
    /// driven through the lower-level entry point a server uses: the
    /// grouped core fed raw column chunks with running row offsets
    /// reproduces its final table, update log and provenance ledger,
    /// `round` stamps included, at every chunk size, with and without a
    /// plan cache shared across chunks.
    #[test]
    fn compiled_engines_reproduce_ledgers(rs in rulesets(),
                                          rows in proptest::collection::vec(tuples(), 1..24)) {
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let program = RuleProgram::compile(&rs);
        let mut table0 = Table::new(rs.schema().clone());
        for r in &rows {
            table0.push_row(r).unwrap();
        }
        let mut chase_table = table0.clone();
        let chase_ledger = ProvenanceLedger::new();
        let chase_out = crepair_table(
            &rs, &mut chase_table, &ProvenanceObserver::new(&rs, &chase_ledger));
        let chase_records = chase_ledger.records();

        for chunk_rows in [1usize, 5, rows.len()] {
            for cached in [false, true] {
                let cache = cached.then(PlanCache::unbounded);
                let mut columns = ColumnTable::from(&table0);
                let mut cols = columns.columns_mut();
                let ledger = ProvenanceLedger::new();
                let obs = ProvenanceObserver::new(&rs, &ledger);
                let mut scratch = CompiledScratch::new(rs.len());
                let mut updates = Vec::new();
                for start in (0..rows.len()).step_by(chunk_rows) {
                    let end = (start + chunk_rows).min(rows.len());
                    let mut chunk: Vec<&mut [Symbol]> =
                        cols.iter_mut().map(|c| &mut c[start..end]).collect();
                    let (u, batch) = repair_columns_grouped(
                        &rs, &program, CompiledEngine::Chase, cache.as_ref(), &mut scratch,
                        &mut chunk, start, &obs);
                    prop_assert_eq!(batch.rows, end - start,
                        "cached={} chunk={}: batch rows", cached, chunk_rows);
                    prop_assert!(batch.groups >= 1 && batch.groups <= batch.rows,
                        "cached={} chunk={}: batch groups", cached, chunk_rows);
                    updates.extend(u);
                }
                let t = table_of(&rs, &cols);
                prop_assert_eq!(chase_table.diff_cells(&t).unwrap(), 0,
                    "cached={} chunk={}: tables diverged", cached, chunk_rows);
                prop_assert_eq!(&updates, &chase_out.updates,
                    "cached={} chunk={}: update logs diverged", cached, chunk_rows);
                prop_assert_eq!(&ledger.records(), &chase_records,
                    "cached={} chunk={}: ledgers diverged", cached, chunk_rows);
            }
        }
    }

    /// Both resolution strategies terminate in a consistent set, and
    /// shrinking never drops more rules than the conservative strategy.
    #[test]
    fn resolution_terminates_consistent(rs in rulesets()) {
        let mut cons = rs.clone();
        let mut shr = rs.clone();
        ensure_consistent(&mut cons, ResolveStrategy::Conservative);
        ensure_consistent(&mut shr, ResolveStrategy::ShrinkNegatives);
        prop_assert!(is_consistent_characterize(&cons, 1).is_consistent());
        prop_assert!(is_consistent_characterize(&shr, 1).is_consistent());
        prop_assert!(shr.len() >= cons.len(),
            "shrinking should preserve at least as many rules");
    }

    /// Assured attributes grow monotonically along any repair and updates
    /// only ever touch un-assured B attributes.
    #[test]
    fn assured_set_monotone(rs in rulesets(), t in tuples()) {
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let mut fixed = t.clone();
        let ups = crepair_tuple(&rs, &mut fixed);
        let mut assured = AttrSet::EMPTY;
        for u in &ups {
            prop_assert!(!assured.contains(u.attr),
                "update touched an already-assured attribute");
            let before = assured;
            assured.union_with(rs.rule(u.rule).assured_delta());
            prop_assert!(before.is_subset(assured));
        }
    }

    /// Exact value abstraction (Defs 3.1/3.2): a tuple meets a rule only
    /// through equality with Σ's constants, so mapping every other value
    /// to ⊥ changes no engine: cRepair, lRepair, and the grouped core's
    /// compiled chase over several rows. Each gives the same fix
    /// once the ⊥ cells are restored and the same update log, and every
    /// old and new value in it is a constant. Tuples draw from a wider
    /// vocabulary than the rules, so some values are never constants.
    #[test]
    fn repairs_ignore_values_outside_the_constants(
        rs in rulesets(),
        ts in proptest::collection::vec(
            proptest::collection::vec(0u32..VOCAB + 3, ARITY..=ARITY), 1..8),
    ) {
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let constants: HashSet<Symbol> = rs
            .rules()
            .iter()
            .flat_map(|r| r.tp().iter().chain(r.neg()).copied().chain([r.fact()]))
            .collect();
        let abstract_row = |t: &[Symbol]| -> Vec<Symbol> {
            t.iter()
                .map(|s| if constants.contains(s) { *s } else { Symbol::BOTTOM })
                .collect()
        };
        let restored = |row: &[Symbol], t: &[Symbol]| -> Vec<Symbol> {
            row.iter()
                .zip(t)
                .map(|(&now, &was)| if now == Symbol::BOTTOM { was } else { now })
                .collect()
        };
        let log = |ups: &[CellUpdate]| -> Vec<_> {
            ups.iter().map(|u| (u.attr, u.old, u.new, u.rule, u.round)).collect()
        };
        let index = LRepairIndex::build(&rs);
        let mut scratch = LRepairScratch::new(rs.len());
        let ts: Vec<Vec<Symbol>> = ts
            .into_iter()
            .map(|t| t.into_iter().map(Symbol).collect())
            .collect();
        for t in &ts {
            let abstracted = abstract_row(t);
            let (mut full, mut abs) = (t.clone(), abstracted.clone());
            let by_c = crepair_tuple(&rs, &mut full);
            let by_c_abs = crepair_tuple(&rs, &mut abs);
            prop_assert_eq!(restored(&abs, t), full);
            prop_assert_eq!(log(&by_c_abs), log(&by_c));

            let (mut full, mut abs) = (t.clone(), abstracted);
            let by_l = lrepair_tuple(&rs, &index, &mut scratch, &mut full);
            let by_l_abs = lrepair_tuple(&rs, &index, &mut scratch, &mut abs);
            prop_assert_eq!(restored(&abs, t), full);
            prop_assert_eq!(log(&by_l_abs), log(&by_l));
            for u in by_c.iter().chain(&by_l) {
                prop_assert!(constants.contains(&u.old) && constants.contains(&u.new), "{:?}", u);
            }
        }

        let program = RuleProgram::compile(&rs);
        let mut scratch = CompiledScratch::new(rs.len());
        let (mut full, mut abs) = (Table::new(schema()), Table::new(schema()));
        for t in &ts {
            full.push_row(t).unwrap();
            abs.push_row(&abstract_row(t)).unwrap();
        }
        let mut grouped = |table: &Table| {
            let mut columns = ColumnTable::from(table);
            let mut cols = columns.columns_mut();
            let updates = repair_columns_grouped(
                &rs, &program, CompiledEngine::Chase, None, &mut scratch,
                &mut cols, 0, &NoopObserver).0;
            (table_of(&rs, &cols), updates)
        };
        let (full, by_full) = grouped(&full);
        let (abs, by_abs) = grouped(&abs);
        for (i, t) in ts.iter().enumerate() {
            prop_assert_eq!(restored(abs.row(i), t), full.row(i).to_vec(),
                "row {} repaired differently under ⊥", i);
        }
        prop_assert_eq!(&by_abs, &by_full, "update logs diverged");
        for u in &by_full {
            prop_assert!(constants.contains(&u.old) && constants.contains(&u.new), "{:?}", u);
        }
    }
}

/// Rule sets over `a0..a3` only, so `a4` is an attribute Σ never mentions.
fn rulesets_sparing_a4() -> impl Strategy<Value = RuleSet> {
    proptest::collection::vec(raw_rule(), 0..8).prop_map(|raws| {
        let raws: Vec<RawRule> = raws
            .into_iter()
            .map(|mut r| {
                r.evidence.iter_mut().for_each(|(a, _)| *a %= 4);
                r.b %= 4;
                r
            })
            .collect();
        build_ruleset(&raws)
    })
}

/// A table over Σ's relevant attributes drawn from `pool`, each member one
/// cell away from the one before so that a key missing an attribute would
/// confuse neighbours, and over every other attribute from `noise`, mostly
/// values no rule mentions.
fn pooled_table(rs: &RuleSet, pool: &[Vec<Symbol>], picks: &[usize], noise: &[u32]) -> Table {
    let relevant = LRepairIndex::build(rs).relevant_attrs().to_vec();
    let mut table = Table::new(rs.schema().clone());
    for (i, &pick) in picks.iter().enumerate() {
        let mut row = pool[pick % pool.len()].clone();
        for (a, cell) in row.iter_mut().enumerate() {
            if !relevant.contains(&AttrId(a as u16)) {
                *cell = Symbol(noise[(i * ARITY + a) % noise.len()]);
            }
        }
        table.push_row(&row).unwrap();
    }
    table
}

fn pool() -> impl Strategy<Value = Vec<Vec<Symbol>>> {
    (
        tuples(),
        proptest::collection::vec((0usize..ARITY, 0u32..VOCAB), 0..10),
    )
        .prop_map(|(base, edits)| {
            let mut pool = vec![base];
            for (a, v) in edits {
                let mut next = pool.last().unwrap().clone();
                next[a] = Symbol(v);
                pool.push(next);
            }
            pool
        })
}

/// Every hook call in order, minus latencies' nanoseconds and the
/// per-worker event.
#[derive(Default)]
struct HookLog(Mutex<Vec<String>>);

impl RepairObserver for HookLog {
    fn rule_rejected(&self, rule: usize) {
        self.0.lock().unwrap().push(format!("rejected {rule}"));
    }
    fn rule_latency(&self, rule: usize, _ns: u64) {
        self.0.lock().unwrap().push(format!("latency {rule}"));
    }
    fn wants_rule_timing(&self) -> bool {
        true
    }
    fn cell_repaired(&self, fix: CellFix) {
        self.0.lock().unwrap().push(format!("{fix:?}"));
    }
    fn tuples_done(&self, rounds: usize, updates: usize, count: usize) {
        self.0
            .lock()
            .unwrap()
            .push(format!("tuples {rounds} {updates} {count}"));
    }
    fn event(&self, e: Event) {
        if !matches!(e, Event::WorkerDone { .. }) {
            self.0.lock().unwrap().push(format!("{e:?}"));
        }
    }
}

/// What one observed table repair leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    table: Vec<Vec<Symbol>>,
    updates: Vec<CellUpdate>,
    ledger: Vec<fixrules::provenance::ProvenanceRecord>,
    metrics: Vec<String>,
    profile: String,
}

/// Repair `table` with `lrepair_table` (`threads` = `None`) or
/// `par_lrepair_table`, watched by metrics, provenance and attribution.
fn observed_repair(
    rs: &RuleSet,
    index: &LRepairIndex,
    table: &Table,
    threads: Option<usize>,
    timing: bool,
) -> Observed {
    let registry = MetricsRegistry::new();
    let metrics = MetricsObserver::new(&registry);
    let ledger = ProvenanceLedger::new();
    let provenance = ProvenanceObserver::new(rs, &ledger);
    let labels = (0..rs.len())
        .map(|i| RuleLabel {
            rule: format!("r{i}"),
            attr: rs.schema().attr_name(rs.rules()[i].b()).to_string(),
        })
        .collect();
    let attribution = AttributionObserver::new(&MetricsRegistry::new(), labels).with_timing(timing);
    let both = Tee(&metrics, &provenance);
    let observer = Tee(&both, &attribution);
    let mut repaired = table.clone();
    let outcome = match threads {
        None => lrepair_table(rs, index, &mut repaired, &observer),
        Some(n) => par_lrepair_table(rs, index, &mut repaired, n, &observer),
    };
    let snapshot = registry.snapshot();
    let mut metrics = Vec::new();
    for section in ["counters", "histograms"] {
        for (name, value) in snapshot.get(section).unwrap().as_obj().unwrap() {
            if !name.starts_with("repair.worker.") {
                metrics.push(format!("{name}={value}"));
            }
        }
    }
    Observed {
        table: (0..repaired.len())
            .map(|i| repaired.row(i).to_vec())
            .collect(),
        updates: outcome.updates,
        ledger: ledger.records(),
        metrics,
        profile: attribution.profile().to_json().to_string(),
    }
}

/// `par_lrepair_table` at 1–4 workers observes like `lrepair_table`, and
/// at one worker makes the very same hook calls in the same order.
fn assert_memo_is_exact(rs: &RuleSet, table: &Table, timing: bool) -> Result<(), String> {
    let index = LRepairIndex::build(rs);
    let sequential = observed_repair(rs, &index, table, None, timing);
    for threads in 1..=4 {
        let parallel = observed_repair(rs, &index, table, Some(threads), timing);
        prop_assert!(
            parallel == sequential,
            "{} workers differ from lrepair_table",
            threads
        );
    }
    let (seq_log, par_log) = (HookLog::default(), HookLog::default());
    lrepair_table(rs, &index, &mut table.clone(), &seq_log);
    par_lrepair_table(rs, &index, &mut table.clone(), 1, &par_log);
    prop_assert_eq!(
        seq_log.0.into_inner().unwrap(),
        par_log.0.into_inner().unwrap()
    );
    Ok(())
}

proptest! {
    /// Rows from a small pool of relevant projections, with noise
    /// elsewhere: most rows are memo hits. Σ as drawn (often inconsistent,
    /// where lRepair's result depends on its queue order, which a replay
    /// must keep) and made consistent.
    #[test]
    fn par_lrepair_memo_replays_lrepair_exactly(
        rs in rulesets_sparing_a4(),
        pool in pool(),
        picks in proptest::collection::vec(0usize..16, 1..300),
        noise in proptest::collection::vec(0u32..VOCAB + 40, 1..64),
        timing in any::<bool>(),
    ) {
        let table = pooled_table(&rs, &pool, &picks, &noise);
        assert_memo_is_exact(&rs, &table, timing)?;
        let mut consistent = rs;
        ensure_consistent(&mut consistent, ResolveStrategy::ShrinkNegatives);
        let table = pooled_table(&consistent, &pool, &picks, &noise);
        assert_memo_is_exact(&consistent, &table, timing)?;
    }
}

proptest! {
    /// More distinct projections than one worker's memo holds (4,096
    /// runs), each twice in a row so the memo keeps recording: the memo
    /// fills, starts over, and must stay exact across the restart.
    #[test]
    fn par_lrepair_memo_stays_exact_when_it_starts_over(
        rs in rulesets_sparing_a4(),
        pool in pool(),
        distinct in 4_100usize..4_600,
        timing in any::<bool>(),
    ) {
        let index = LRepairIndex::build(&rs);
        let Some(&first) = index.relevant_attrs().first() else {
            return Ok(());
        };
        let mut table = Table::new(rs.schema().clone());
        for i in 0..distinct {
            let mut row = pool[i % pool.len()].clone();
            // Σ's constants are below VOCAB: this cell is a fresh value
            // for every i, so every i is its own projection.
            row[first.index()] = Symbol(VOCAB + i as u32);
            table.push_row(&row).unwrap();
            table.push_row(&row).unwrap();
        }
        assert_memo_is_exact(&rs, &table, timing)?;
    }
}
