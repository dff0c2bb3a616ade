//! Compiled rule programs and repair-plan memoization.
//!
//! Real dirty data is dominated by *repeated* evidence projections: fixing
//! rules match on exact constants, so two tuples that agree on the
//! attributes Σ touches receive byte-identical fix sequences. This module
//! exploits that redundancy twice:
//!
//! * [`RuleProgram`] — Σ compiled once: rules are grouped by their
//!   evidence-attribute set `X` and each group becomes a hash-dispatch
//!   table keyed by the tuple's projection on `X`, so finding every rule
//!   whose evidence matches costs **one probe per distinct X-set** instead
//!   of one counter update per `(attribute, value)` cell. The program also
//!   computes the *relevant attribute closure* of Σ — every attribute any
//!   rule reads (`X`, and `B` for the negative patterns) or writes (`B`) —
//!   so each tuple reduces to a compact [`TupleSignature`].
//! * [`PlanCache`] — signature → [`RepairPlan`] memoization. The grouped
//!   core ([`crate::repair::repair_columns_grouped`]) runs the compiled
//!   engine once per distinct signature in a batch and records the ordered
//!   fix list (plus the assured-set delta); a cache carries those plans
//!   *across* batches, so a later batch with a known signature replays the
//!   plan. No production path passes one: within-batch grouping already
//!   does the work, and only the benchmark harness still measures the
//!   cross-batch case.
//!
//! **Why memoization is sound.** An engine run on a tuple `t` reads only
//! `t[A]` for `A` in the relevant closure (evidence via `X`, negative
//! patterns via `B`) and writes only `B` attributes, which are in the
//! closure too. Two tuples with equal projections on the closure therefore
//! drive the engine through the identical decision sequence, including the
//! recorded `old` values and `round` stamps — so a replayed plan reproduces
//! the *exact* [`crate::provenance::ProvenanceLedger`] the uncached driver
//! emits, which is what the ledger-equality property tests assert.
//!
//! **Exact driver emulation.** Plans carry engine-specific `round` values
//! (`cRepair`: chase round; `lRepair`: queue-pop index) and application
//! order, so the compiled engine comes in two flavors
//! ([`CompiledEngine::Chase`] / [`CompiledEngine::Linear`]) that replicate
//! the respective uncached algorithm's application order rule-for-rule:
//!
//! * the chase flavor sweeps matched candidates in ascending rule id per
//!   round, splicing rules enabled mid-round into the unscanned suffix —
//!   exactly where `cRepair`'s in-order rescan would encounter them;
//! * the linear flavor seeds its candidate stack in `(max evidence
//!   attribute, rule id)` order — the order in which `lRepair`'s cell scan
//!   saturates hash counters — and pushes newly enabled rules in id order
//!   after each update, matching the inverted-list traversal.
//!
//! A `PlanCache` must only be shared between runs using the same rule set
//! *and* the same engine flavor: plans are keyed by signature alone.
//!
//! No product path runs this module: `fixctl`, `fixd` and `fixcert` repair
//! with [`crate::repair::LRepairWorker`] and
//! [`crate::repair::crepair_tuple`]. It is kept only for perfbench's
//! per-layer replica of the grouped core, and goes with ROADMAP item 3.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fxhash::FxHashMap;
use obs::RepairObserver;
use relation::{AttrId, AttrSet, Symbol};

use crate::repair::CellUpdate;
use crate::ruleset::{RuleId, RuleSet};
use crate::semantics::{matches, properly_applicable};

/// Which uncached driver a compiled run replicates (and therefore which
/// `round` stamps and application order its plans carry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompiledEngine {
    /// Replicate `cRepair` (Fig 6): `round` = 1-based chase round.
    Chase,
    /// Replicate `lRepair` (Fig 7): `round` = 1-based queue-pop index.
    Linear,
}

/// One evidence group: all rules sharing the same evidence-attribute set
/// `X`, dispatched by the tuple's projection on `X`.
#[derive(Debug, Clone)]
struct RuleGroup {
    /// The shared evidence attributes, sorted ascending.
    attrs: Vec<AttrId>,
    /// `attrs.last()` — where `lRepair`'s cell scan saturates the counter.
    max_attr: AttrId,
    /// Projection on `attrs` → rules whose full evidence equals it, in
    /// rule-id order.
    table: FxHashMap<Box<[Symbol]>, Vec<RuleId>>,
}

impl RuleGroup {
    /// All rules whose evidence pattern matches `row`, in one hash probe.
    #[inline]
    fn probe<'g>(&'g self, row: &[Symbol], buf: &mut Vec<Symbol>) -> &'g [RuleId] {
        buf.clear();
        buf.extend(self.attrs.iter().map(|a| row[a.index()]));
        self.table
            .get(buf.as_slice())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// A rule set compiled for repeated per-tuple evaluation: evidence-group
/// dispatch tables plus the relevant attribute closure. Immutable and
/// shareable across threads.
#[derive(Debug, Clone)]
pub struct RuleProgram {
    groups: Vec<RuleGroup>,
    /// `attr.index()` → indices of groups whose `X` contains the attribute
    /// (the groups to re-probe after that attribute is updated).
    groups_by_attr: Vec<Vec<u32>>,
    /// Relevant attribute closure, sorted ascending — the signature layout.
    relevant_attrs: Vec<AttrId>,
    num_rules: usize,
}

impl RuleProgram {
    /// Compile `rules` once; reuse across tuples, tables and threads.
    pub fn compile(rules: &RuleSet) -> Self {
        let arity = rules.schema().arity();
        let mut by_xset: FxHashMap<AttrSet, usize> = FxHashMap::default();
        let mut groups: Vec<RuleGroup> = Vec::new();
        let mut relevant = AttrSet::EMPTY;
        for (id, rule) in rules.iter() {
            relevant.union_with(rule.assured_delta());
            let gi = *by_xset.entry(rule.x_set()).or_insert_with(|| {
                groups.push(RuleGroup {
                    attrs: rule.x().to_vec(),
                    max_attr: *rule.x().last().expect("evidence is non-empty"),
                    table: FxHashMap::default(),
                });
                groups.len() - 1
            });
            // `x()` is sorted and `tp()` is parallel to it, so the rule's
            // evidence pattern *is* the projection key.
            groups[gi]
                .table
                .entry(rule.tp().to_vec().into_boxed_slice())
                .or_default()
                .push(id);
        }
        let mut groups_by_attr = vec![Vec::new(); arity];
        for (gi, g) in groups.iter().enumerate() {
            for a in &g.attrs {
                groups_by_attr[a.index()].push(gi as u32);
            }
        }
        RuleProgram {
            groups,
            groups_by_attr,
            relevant_attrs: relevant.iter().collect(),
            num_rules: rules.len(),
        }
    }

    /// Fingerprint every row's relevant-attribute projection into
    /// `hashes`: one sequential pass per relevant column folds each cell
    /// into the row's running 64-bit hash (the fxhash rotate–xor–multiply
    /// step over an FNV offset seed). Two rows with equal signatures
    /// always hash equal; the converse is *not* guaranteed, so callers
    /// grouping by fingerprint must confirm candidates by comparing the
    /// projected cells — the columnar driver keeps exactness that way
    /// while avoiding a per-row signature materialization.
    pub fn signature_hashes<C: AsRef<[Symbol]>>(
        &self,
        columns: &[C],
        rows: usize,
        hashes: &mut Vec<u64>,
    ) {
        hashes.clear();
        hashes.resize(rows, 0xcbf2_9ce4_8422_2325);
        for attr in &self.relevant_attrs {
            let col = columns[attr.index()].as_ref();
            for (h, &sym) in hashes.iter_mut().zip(col[..rows].iter()) {
                *h = (h.rotate_left(5) ^ u64::from(sym.0)).wrapping_mul(0x517c_c1b7_2722_0a95);
            }
        }
    }

    /// The relevant attribute closure — every attribute some rule reads
    /// or writes — as a sorted slice: the [`TupleSignature`] layout.
    pub fn relevant_attrs(&self) -> &[AttrId] {
        &self.relevant_attrs
    }

    /// Number of evidence groups (distinct X-sets) — the probes per round.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of rules the program was compiled from.
    pub fn num_rules(&self) -> usize {
        self.num_rules
    }
}

/// A tuple's projection on the relevant attribute closure; the exact
/// projection (not a hash of it), so cache lookups cannot collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TupleSignature(Box<[Symbol]>);

impl TupleSignature {
    /// Build a signature from an already-gathered projection, in
    /// [`RuleProgram::relevant_attrs`] order.
    pub(crate) fn from_slice(symbols: &[Symbol]) -> Self {
        TupleSignature(symbols.into())
    }
}

/// A memoized repair: the ordered fix list one engine run produced for a
/// signature, replayable on any row with that signature.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairPlan {
    /// Applied updates in application order (`row` field 0; drivers
    /// re-index), with the engine's original `round` stamps.
    updates: Vec<CellUpdate>,
    /// Chase rounds / queue pops of the original run — replayed into
    /// `tuples_done` so cached and uncached metrics agree.
    rounds: usize,
    /// Union of the applied rules' assured sets (`X ∪ {B}` per rule).
    assured: AttrSet,
}

impl RepairPlan {
    pub(crate) fn new(updates: Vec<CellUpdate>, rounds: usize, assured: AttrSet) -> Self {
        RepairPlan {
            updates,
            rounds,
            assured,
        }
    }

    /// The planned updates, in application order.
    pub fn updates(&self) -> &[CellUpdate] {
        &self.updates
    }

    /// Chase rounds / queue pops of the engine run that produced the plan.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The assured-set delta the plan establishes.
    pub fn assured(&self) -> AttrSet {
        self.assured
    }
}

/// Hit/miss counters and current size of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
}

type Shard = FxHashMap<TupleSignature, Arc<RepairPlan>>;

/// Signature → plan memo shared across grouped-core batches, with no
/// capacity bound.
///
/// It has no production caller: `fixd` and `fixctl` repair with
/// [`crate::repair::LRepairWorker`], whose memo lives as long as the
/// worker. The benchmark harness still builds
/// one, so it goes, together with the `cache` parameter of
/// [`crate::repair::repair_columns_grouped`] and the `cache` label on
/// fixd's `serve.repair_stage_ns`, in the next change to the benchmark.
///
/// Interior state is sharded (`N` power-of-two shards, each behind its own
/// mutex) so parallel workers share hits with minimal contention; the
/// single-shard constructor serves sequential callers, where the one
/// uncontended lock costs a single atomic exchange per probe.
#[derive(Debug)]
pub struct PlanCache {
    shards: Box<[Mutex<Shard>]>,
    /// `64 - log2(shards.len())`; shard index = top hash bits.
    shift: u32,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Single shard, no capacity bound — the sequential fast path.
    pub fn unbounded() -> Self {
        PlanCache::sharded(1)
    }

    /// `shards` (rounded up to a power of two) mutex-guarded shards — for
    /// parallel workers; size to ~4× the worker count.
    pub fn sharded(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        PlanCache {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            shift: 64 - shards.trailing_zeros(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_for(&self, sig: &TupleSignature) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (fxhash::hash64(&sig.0) >> self.shift) as usize
        }
    }

    /// Look a signature up.
    pub fn get(&self, sig: &TupleSignature) -> Option<Arc<RepairPlan>> {
        let plan = self.shards[self.shard_for(sig)]
            .lock()
            .expect("plan cache shard poisoned")
            .get(sig)
            .cloned();
        let counter = if plan.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        plan
    }

    /// Insert a plan.
    pub fn insert(&self, sig: TupleSignature, plan: RepairPlan) {
        self.shards[self.shard_for(&sig)]
            .lock()
            .expect("plan cache shard poisoned")
            .insert(sig, Arc::new(plan));
    }

    /// Plans currently cached, summed over shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan cache shard poisoned").len())
            .sum()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters and current size.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Reusable per-thread scratch for the compiled engines: token-stamped
/// rule marks (O(1) clearing between tuples), the candidate worklist and
/// the probe-key buffer.
#[derive(Debug, Default)]
pub struct CompiledScratch {
    /// Globally unique, monotonically increasing stamps; a mark array cell
    /// is "set" iff it equals the current token, so clearing is free.
    token_gen: u64,
    tuple_token: u64,
    used: Vec<u64>,
    queued: Vec<u64>,
    worklist: Vec<RuleId>,
    fresh: Vec<RuleId>,
    seed: Vec<(AttrId, RuleId)>,
    proj: Vec<Symbol>,
}

impl CompiledScratch {
    /// Create scratch space for a program over `num_rules` rules.
    pub fn new(num_rules: usize) -> Self {
        CompiledScratch {
            used: vec![0; num_rules],
            queued: vec![0; num_rules],
            ..CompiledScratch::default()
        }
    }

    fn begin_tuple(&mut self, num_rules: usize) {
        if self.used.len() != num_rules {
            self.used = vec![0; num_rules];
            self.queued = vec![0; num_rules];
        }
        self.token_gen += 1;
        self.tuple_token = self.token_gen;
    }

    fn next_token(&mut self) -> u64 {
        self.token_gen += 1;
        self.token_gen
    }
}

/// The chase flavor: replicates `cRepair`'s application order exactly.
/// Returns the updates (`row` field 0) and the number of chase rounds.
fn chase_compiled<O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    scratch: &mut CompiledScratch,
    row: &mut [Symbol],
    observer: &O,
) -> (Vec<CellUpdate>, usize) {
    scratch.begin_tuple(program.num_rules);
    let tuple_token = scratch.tuple_token;
    let mut assured = AttrSet::EMPTY;
    let mut updates = Vec::new();
    let mut rounds = 0usize;
    let timing = observer.wants_rule_timing();
    loop {
        rounds += 1;
        observer.chase_round();
        let round_token = scratch.next_token();
        scratch.worklist.clear();
        for g in &program.groups {
            let hits = g.probe(row, &mut scratch.proj);
            observer.plan_probe(hits.len());
            for &rid in hits {
                if scratch.used[rid.index()] != tuple_token {
                    scratch.queued[rid.index()] = round_token;
                    scratch.worklist.push(rid);
                }
            }
        }
        scratch.worklist.sort_unstable();
        let mut applied = false;
        let mut pos = 0usize;
        while pos < scratch.worklist.len() {
            let rid = scratch.worklist[pos];
            pos += 1;
            if scratch.used[rid.index()] == tuple_token {
                continue;
            }
            let rule = rules.rule(rid);
            let t0 = timing.then(std::time::Instant::now);
            // An earlier application this round may have broken the
            // evidence that matched at probe time — re-verify, exactly as
            // cRepair's rescan would find the rule non-matching.
            if assured.contains(rule.b()) || !matches(rule, row) {
                observer.rule_rejected(rid.index());
                if let Some(t0) = t0 {
                    observer.rule_latency(rid.index(), t0.elapsed().as_nanos() as u64);
                }
                continue;
            }
            debug_assert!(properly_applicable(rule, row, assured));
            let b = rule.b();
            let old = row[b.index()];
            row[b.index()] = rule.fact();
            assured.union_with(rule.assured_delta());
            scratch.used[rid.index()] = tuple_token;
            applied = true;
            observer.rule_applied(rid.index(), b.index());
            if let Some(t0) = t0 {
                observer.rule_latency(rid.index(), t0.elapsed().as_nanos() as u64);
            }
            updates.push(CellUpdate {
                row: 0,
                attr: b,
                old,
                new: rule.fact(),
                rule: rid,
                round: rounds as u32,
            });
            // Rules enabled by this update whose id is *higher* than the
            // current one are still ahead of cRepair's in-order sweep this
            // round: splice them into the sorted unscanned suffix. Lower
            // ids are picked up by the next round's probes, as in Fig 6.
            for &gi in &program.groups_by_attr[b.index()] {
                let g = &program.groups[gi as usize];
                let hits = g.probe(row, &mut scratch.proj);
                observer.plan_probe(hits.len());
                for &nrid in hits {
                    if nrid > rid
                        && scratch.used[nrid.index()] != tuple_token
                        && scratch.queued[nrid.index()] != round_token
                    {
                        scratch.queued[nrid.index()] = round_token;
                        let at = pos + scratch.worklist[pos..].partition_point(|&x| x < nrid);
                        scratch.worklist.insert(at, nrid);
                    }
                }
            }
        }
        if !applied {
            break;
        }
    }
    (updates, rounds)
}

/// The linear flavor: replicates `lRepair`'s application order exactly.
/// Returns the updates (`row` field 0) and the number of queue pops.
fn linear_compiled<O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    scratch: &mut CompiledScratch,
    row: &mut [Symbol],
    observer: &O,
) -> (Vec<CellUpdate>, usize) {
    scratch.begin_tuple(program.num_rules);
    let tuple_token = scratch.tuple_token;
    // Seed: one probe per group. lRepair's cell scan saturates a matched
    // rule's counter at its largest evidence attribute and walks each
    // inverted list in rule-id order, so sorting candidates by
    // (max evidence attr, rule id) reproduces its enqueue order.
    scratch.seed.clear();
    for g in &program.groups {
        let hits = g.probe(row, &mut scratch.proj);
        observer.plan_probe(hits.len());
        for &rid in hits {
            scratch.seed.push((g.max_attr, rid));
        }
    }
    scratch.seed.sort_unstable();
    scratch.worklist.clear();
    for &(_, rid) in &scratch.seed {
        scratch.queued[rid.index()] = tuple_token;
        scratch.worklist.push(rid);
    }
    let mut assured = AttrSet::EMPTY;
    let mut updates = Vec::new();
    let mut pops = 0usize;
    let timing = observer.wants_rule_timing();
    while let Some(rid) = scratch.worklist.pop() {
        pops += 1;
        let rule = rules.rule(rid);
        let t0 = timing.then(std::time::Instant::now);
        // Pop-time verification, as in Fig 7 line 10: enqueue order is a
        // filter, not a proof.
        if !properly_applicable(rule, row, assured) {
            observer.rule_rejected(rid.index());
            if let Some(t0) = t0 {
                observer.rule_latency(rid.index(), t0.elapsed().as_nanos() as u64);
            }
            continue;
        }
        let b = rule.b();
        let old = row[b.index()];
        row[b.index()] = rule.fact();
        assured.union_with(rule.assured_delta());
        observer.rule_applied(rid.index(), b.index());
        if let Some(t0) = t0 {
            observer.rule_latency(rid.index(), t0.elapsed().as_nanos() as u64);
        }
        updates.push(CellUpdate {
            row: 0,
            attr: b,
            old,
            new: rule.fact(),
            rule: rid,
            round: pops as u32,
        });
        // Re-probe only the groups reading the updated attribute. A rule
        // that fully matches now and didn't before saturated on this very
        // cell in lRepair, which enqueues fresh-list hits in id order.
        scratch.fresh.clear();
        for &gi in &program.groups_by_attr[b.index()] {
            let g = &program.groups[gi as usize];
            let hits = g.probe(row, &mut scratch.proj);
            observer.plan_probe(hits.len());
            for &nrid in hits {
                if scratch.queued[nrid.index()] != tuple_token {
                    scratch.queued[nrid.index()] = tuple_token;
                    scratch.fresh.push(nrid);
                }
            }
        }
        scratch.fresh.sort_unstable();
        scratch.worklist.extend_from_slice(&scratch.fresh);
    }
    (updates, pops)
}

#[inline]
pub(crate) fn run_engine<O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    scratch: &mut CompiledScratch,
    row: &mut [Symbol],
    observer: &O,
) -> (Vec<CellUpdate>, usize) {
    match engine {
        CompiledEngine::Chase => chase_compiled(rules, program, scratch, row, observer),
        CompiledEngine::Linear => linear_compiled(rules, program, scratch, row, observer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::chase::crepair_tuple;
    use crate::repair::columnar::repair_columns_grouped;
    use crate::repair::linear::{lrepair_tuple, LRepairIndex, LRepairScratch};
    use obs::NoopObserver;
    use relation::{Schema, SymbolTable};

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
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
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

    fn fig1_rows(sy: &mut SymbolTable) -> Vec<Vec<Symbol>> {
        [
            ["George", "China", "Beijing", "Beijing", "SIGMOD"],
            ["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
            ["Peter", "China", "Tokyo", "Tokyo", "ICDE"],
            ["Mike", "Canada", "Toronto", "Toronto", "VLDB"],
        ]
        .iter()
        .map(|r| r.iter().map(|v| sy.intern(v)).collect())
        .collect()
    }

    fn intern(sy: &mut SymbolTable, row: [&str; 5]) -> Vec<Symbol> {
        row.iter().map(|v| sy.intern(v)).collect()
    }

    /// Repair one row as a one-row batch of the grouped core, so every
    /// call makes exactly one cache probe.
    fn repair_one(
        rules: &RuleSet,
        program: &RuleProgram,
        engine: CompiledEngine,
        cache: &PlanCache,
        scratch: &mut CompiledScratch,
        row: &mut [Symbol],
    ) -> Vec<CellUpdate> {
        let mut cols: Vec<Vec<Symbol>> = row.iter().map(|&s| vec![s]).collect();
        let mut slices: Vec<&mut [Symbol]> = cols.iter_mut().map(|c| c.as_mut_slice()).collect();
        let (updates, _) = repair_columns_grouped(
            rules,
            program,
            engine,
            Some(cache),
            scratch,
            &mut slices,
            0,
            &NoopObserver,
        );
        for (cell, col) in row.iter_mut().zip(&cols) {
            *cell = col[0];
        }
        updates
    }

    #[test]
    fn program_groups_and_closure() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        // X-sets: {country} (φ1, φ2), {capital, city, conf} (φ3),
        // {capital, conf} (φ4).
        assert_eq!(program.num_groups(), 3);
        assert_eq!(program.num_rules(), 4);
        // Relevant closure: everything but `name`.
        let s = schema();
        let expected: Vec<AttrId> = ["country", "capital", "city", "conf"]
            .iter()
            .map(|a| s.attr(a).unwrap())
            .collect();
        let mut expected_sorted = expected.clone();
        expected_sorted.sort();
        assert_eq!(program.relevant_attrs(), expected_sorted);
    }

    #[test]
    fn signatures_ignore_irrelevant_attributes() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let rows = [
            intern(&mut sy, ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]),
            intern(&mut sy, ["Zoe", "China", "Shanghai", "Hongkong", "ICDE"]),
            intern(&mut sy, ["Ian", "China", "Hongkong", "Hongkong", "ICDE"]),
        ];
        let cols: Vec<Vec<Symbol>> = (0..5)
            .map(|a| rows.iter().map(|r| r[a]).collect())
            .collect();
        let mut hashes = Vec::new();
        program.signature_hashes(&cols, rows.len(), &mut hashes);
        assert_eq!(hashes[0], hashes[1], "only `name` differs");
        assert_ne!(hashes[0], hashes[2], "`capital` differs");
    }

    #[test]
    fn both_flavors_match_their_uncached_engine_on_fig1() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let index = LRepairIndex::build(&rules);
        let mut cscratch = CompiledScratch::new(rules.len());
        let mut lscratch = LRepairScratch::new(rules.len());
        for row in fig1_rows(&mut sy) {
            let mut chase_row = row.clone();
            let mut compiled_row = row.clone();
            let chase_ups = crepair_tuple(&rules, &mut chase_row);
            let (compiled_ups, _) = run_engine(
                &rules,
                &program,
                CompiledEngine::Chase,
                &mut cscratch,
                &mut compiled_row,
                &NoopObserver,
            );
            assert_eq!(chase_ups, compiled_ups, "chase flavor diverged");
            assert_eq!(chase_row, compiled_row);

            let mut linear_row = row.clone();
            let mut compiled_row = row.clone();
            let linear_ups = lrepair_tuple(&rules, &index, &mut lscratch, &mut linear_row);
            let (compiled_ups, _) = run_engine(
                &rules,
                &program,
                CompiledEngine::Linear,
                &mut cscratch,
                &mut compiled_row,
                &NoopObserver,
            );
            assert_eq!(linear_ups, compiled_ups, "linear flavor diverged");
            assert_eq!(linear_row, compiled_row);
        }
    }

    #[test]
    fn cache_hits_replay_identical_updates() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let cache = PlanCache::unbounded();
        let mut scratch = CompiledScratch::new(rules.len());
        let dirty = intern(&mut sy, ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]);
        let mut first = dirty.clone();
        let miss_ups = repair_one(
            &rules,
            &program,
            CompiledEngine::Linear,
            &cache,
            &mut scratch,
            &mut first,
        );
        // Same signature, different irrelevant attr: must hit and replay.
        let mut second = intern(&mut sy, ["Zoe", "China", "Shanghai", "Hongkong", "ICDE"]);
        let hit_ups = repair_one(
            &rules,
            &program,
            CompiledEngine::Linear,
            &cache,
            &mut scratch,
            &mut second,
        );
        assert_eq!(miss_ups, hit_ups);
        assert_eq!(first[1..], second[1..]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        // The cached plan carries the assured delta of the applied rules.
        let sig: Vec<Symbol> = program
            .relevant_attrs()
            .iter()
            .map(|a| dirty[a.index()])
            .collect();
        let plan = cache.get(&TupleSignature::from_slice(&sig)).unwrap();
        assert_eq!(plan.updates().len(), 2);
        let s = schema();
        assert!(plan.assured().contains(s.attr("capital").unwrap()));
        assert!(plan.assured().contains(s.attr("city").unwrap()));
        assert!(!plan.assured().contains(s.attr("name").unwrap()));
    }

    #[test]
    fn sharded_cache_shares_plans_across_threads() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let program = RuleProgram::compile(&rules);
        let cache = PlanCache::sharded(8);
        let dirty = intern(&mut sy, ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (rules, program, cache, dirty) = (&rules, &program, &cache, &dirty);
                scope.spawn(move || {
                    let mut scratch = CompiledScratch::new(rules.len());
                    for _ in 0..50 {
                        let mut row = dirty.clone();
                        repair_one(
                            rules,
                            program,
                            CompiledEngine::Linear,
                            cache,
                            &mut scratch,
                            &mut row,
                        );
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert_eq!(stats.entries, 1, "one distinct signature");
        assert!(stats.hits >= 196, "at most one miss per thread");
    }

    #[test]
    fn empty_ruleset_compiles_to_clean_plans() {
        let mut sy = SymbolTable::new();
        let rules = RuleSet::new(schema());
        let program = RuleProgram::compile(&rules);
        assert_eq!(program.num_groups(), 0);
        let cache = PlanCache::unbounded();
        let mut scratch = CompiledScratch::new(0);
        let mut row = intern(&mut sy, ["a", "b", "c", "d", "e"]);
        for _ in 0..3 {
            let ups = repair_one(
                &rules,
                &program,
                CompiledEngine::Chase,
                &cache,
                &mut scratch,
                &mut row,
            );
            assert!(ups.is_empty());
        }
        // All rows share the empty signature: one miss, then hits.
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }
}
