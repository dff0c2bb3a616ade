//! `lRepair` — the fast linear repairing algorithm (Fig 7).
//!
//! Two indices make the per-tuple cost `O(size(Σ))`:
//!
//! * **Inverted lists** ([`LRepairIndex`]): built once per rule set, they
//!   map each `(attribute, value)` key to the rules whose evidence pattern
//!   contains that cell (Fig 8(a)).
//! * **Hash counters** ([`LRepairScratch`]): per tuple, `c(φ)` counts how
//!   many evidence cells of `φ` the current tuple matches. A rule becomes a
//!   candidate (enters `Γ`) exactly when `c(φ) = |X_φ|`.
//!
//! Per tuple: seed the counters from the tuple's cells via the inverted
//! lists; then pop candidates from `Γ`, verifying proper applicability
//! before applying (counters are a filter, not a proof — the negative
//! pattern and assured-set checks happen at pop time, Fig 7 line 10). After
//! an update to attribute `B`, only the inverted lists of the old and new
//! `B`-values are consulted, so each rule's counter moves at most `|X_φ|`
//! times in total. A rule enters `Γ` at most once (the appendix's
//! removal-once-and-for-all argument), enforced by the `enqueued` bitmap.
//!
//! Counters are epoch-stamped so repairing the next tuple costs `O(1)` to
//! "clear" them instead of `O(|Σ|)`.
//!
//! The per-tuple code calls no observer. What observers learn per probe,
//! per rejection and per tuple (probe and enqueue counts, each rule's
//! rejections, each tuple's pops and updates) is tallied in the scratch
//! with plain adds, and the table drivers hand it over every 4,096
//! tuples and at the end, so workers sharing one observer touch no
//! shared counter per tuple.

use fxhash::FxHashMap;
use obs::{Event, RepairObserver};
use relation::{AttrId, AttrSet, Symbol, Table};

use crate::repair::{CellUpdate, RepairOutcome};
use crate::ruleset::{RuleId, RuleSet};
use crate::semantics::properly_applicable;

/// Inverted lists from `(attribute, evidence value)` to rule ids.
///
/// Built once per rule set; immutable and shareable across threads. The
/// lists lie back to back in one vector, and an open-addressed table maps
/// each key to its list's range, so a probe touches one table slot and
/// then one contiguous run of rule ids.
#[derive(Debug, Clone)]
pub struct LRepairIndex {
    /// Every inverted list back to back, each in rule-id order.
    ids: Vec<RuleId>,
    /// `(attr, value)` key → range of `ids`, open-addressed with linear
    /// probing. Its length is a power of two at least twice Σ's evidence
    /// cells, so it is at most half full and a probe for a key that has no
    /// list stops at an empty slot within a few steps.
    slots: Vec<ListSlot>,
    /// `64 − log2(slots.len())`: a key's home slot is the top bits of its
    /// hash.
    shift: u32,
    /// Distinct keys in `slots`.
    keys: usize,
    /// `|X_φ|` per rule — the counter target.
    evidence_len: Vec<u16>,
    /// Σ's relevant attributes (∪ X_φ ∪ {B_φ}), ascending: the only cells
    /// a tuple's `lRepair` run reads or writes.
    relevant: Vec<AttrId>,
}

/// One slot of [`LRepairIndex`]'s key table: a packed `(attr, value)` key,
/// or [`NO_KEY`], and its list's range in `ids`.
#[derive(Debug, Clone, Copy)]
struct ListSlot {
    key: u64,
    start: u32,
    end: u32,
}

/// An empty [`ListSlot`]. No key equals it: attribute ids are 16 bits.
const NO_KEY: u64 = u64::MAX;

#[inline]
fn list_key(attr: AttrId, value: Symbol) -> u64 {
    (u64::from(attr.0) << 32) | u64::from(value.0)
}

impl LRepairIndex {
    /// Build the inverted lists for `rules` (Fig 8(a)).
    pub fn build(rules: &RuleSet) -> Self {
        let mut cells: Vec<(u64, RuleId)> = Vec::new();
        let mut evidence_len = Vec::with_capacity(rules.len());
        let mut relevant = AttrSet::EMPTY;
        for (id, rule) in rules.iter() {
            evidence_len.push(rule.x().len() as u16);
            relevant.union_with(rule.assured_delta());
            for (&attr, &val) in rule.x().iter().zip(rule.tp().iter()) {
                cells.push((list_key(attr, val), id));
            }
        }
        // Sorting by (key, rule) groups each key's rules in id order, the
        // order a list pushed rule by rule would have.
        cells.sort_unstable();
        let len = (2 * cells.len()).next_power_of_two().max(2);
        let empty = ListSlot {
            key: NO_KEY,
            start: 0,
            end: 0,
        };
        let mut index = LRepairIndex {
            ids: cells.iter().map(|&(_, id)| id).collect(),
            slots: vec![empty; len],
            shift: 64 - len.trailing_zeros(),
            keys: 0,
            evidence_len,
            relevant: relevant.iter().collect(),
        };
        let mut start = 0;
        for list in cells.chunk_by(|a, b| a.0 == b.0) {
            let key = list[0].0;
            let mut i = index.home(key);
            while index.slots[i].key != NO_KEY {
                i = (i + 1) & (len - 1);
            }
            let end = start + list.len();
            index.slots[i] = ListSlot {
                key,
                start: start as u32,
                end: end as u32,
            };
            index.keys += 1;
            start = end;
        }
        index
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Rules whose evidence contains the cell `(attr, value)`.
    #[inline]
    pub fn rules_for(&self, attr: AttrId, value: Symbol) -> &[RuleId] {
        let key = list_key(attr, value);
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot.key == key {
                return &self.ids[slot.start as usize..slot.end as usize];
            }
            if slot.key == NO_KEY {
                return &[];
            }
            i = (i + 1) & mask;
        }
    }

    /// Number of distinct `(attribute, value)` keys.
    pub fn num_keys(&self) -> usize {
        self.keys
    }

    /// Σ's relevant attributes, ascending: a tuple's `lRepair` run depends
    /// only on its cells there.
    pub fn relevant_attrs(&self) -> &[AttrId] {
        &self.relevant
    }
}

/// Tuples between two hand-overs of a scratch's tallies to the observer.
pub(crate) const TALLY_FLUSH_TUPLES: usize = 4096;

/// Tuples whose pops and updates are both below this are tallied in a
/// dense grid; the rest in a map.
const TALLY_GRID: usize = 16;

/// Observer tallies a worker keeps in its own memory between flushes.
#[derive(Debug)]
struct LRepairTally {
    probes: u64,
    probe_hits: u64,
    enqueued: u64,
    /// Pops that did not fire, per rule.
    rejected: Vec<usize>,
    /// Tuples per `(pops, updates)`, at `pops * TALLY_GRID + updates`.
    grid: [u64; TALLY_GRID * TALLY_GRID],
    beyond_grid: FxHashMap<(usize, usize), u64>,
    /// Tuples since the last flush.
    tuples: usize,
}

impl Default for LRepairTally {
    fn default() -> Self {
        LRepairTally {
            probes: 0,
            probe_hits: 0,
            enqueued: 0,
            rejected: Vec::new(),
            grid: [0; TALLY_GRID * TALLY_GRID],
            beyond_grid: FxHashMap::default(),
            tuples: 0,
        }
    }
}

impl LRepairTally {
    #[inline]
    fn tuple_done(
        &mut self,
        pops: usize,
        updates: usize,
        probes: usize,
        probe_hits: usize,
        enqueued: usize,
    ) {
        self.probes += probes as u64;
        self.probe_hits += probe_hits as u64;
        self.enqueued += enqueued as u64;
        self.tuples += 1;
        if pops < TALLY_GRID && updates < TALLY_GRID {
            self.grid[pops * TALLY_GRID + updates] += 1;
        } else {
            *self.beyond_grid.entry((pops, updates)).or_default() += 1;
        }
    }

    /// Hand every tally to `observer` as batched hooks and reset it. Cold
    /// and out of line: it runs once per [`TALLY_FLUSH_TUPLES`] tuples,
    /// and inlined it would bloat the per-tuple loop.
    #[cold]
    #[inline(never)]
    fn flush<O: RepairObserver>(&mut self, observer: &O) {
        for (cell, count) in self.grid.iter_mut().enumerate() {
            if *count > 0 {
                observer.tuples_done(cell / TALLY_GRID, cell % TALLY_GRID, *count as usize);
                *count = 0;
            }
        }
        for ((pops, updates), count) in self.beyond_grid.drain() {
            observer.tuples_done(pops, updates, count as usize);
        }
        for (rule, count) in self.rejected.iter_mut().enumerate() {
            if *count > 0 {
                observer.rule_rejected(rule, *count);
                *count = 0;
            }
        }
        if self.probes > 0 || self.enqueued > 0 {
            observer.event(Event::LRepairProbes {
                probes: self.probes,
                hits: self.probe_hits,
                enqueued: self.enqueued,
            });
        }
        self.probes = 0;
        self.probe_hits = 0;
        self.enqueued = 0;
        self.tuples = 0;
    }
}

/// Reusable per-thread scratch space: epoch-stamped counters, the
/// candidate queue, and the observer tallies.
#[derive(Debug, Default)]
pub struct LRepairScratch {
    epoch: u32,
    stamp: Vec<u32>,
    count: Vec<u16>,
    enqueued_stamp: Vec<u32>,
    queue: Vec<RuleId>,
    tally: LRepairTally,
}

impl LRepairScratch {
    /// Create scratch space for a rule set of `num_rules` rules.
    pub fn new(num_rules: usize) -> Self {
        let mut scratch = LRepairScratch::default();
        scratch.resize(num_rules);
        scratch
    }

    fn resize(&mut self, num_rules: usize) {
        self.stamp = vec![0; num_rules];
        self.count = vec![0; num_rules];
        self.enqueued_stamp = vec![0; num_rules];
        self.tally.rejected = vec![0; num_rules];
        self.epoch = 0;
    }

    /// Hand the tallies gathered since the last flush to `observer`: one
    /// [`RepairObserver::tuples_done`] per distinct `(pops, updates)`, one
    /// [`RepairObserver::rule_rejected`] per rule that missed, and one
    /// [`Event::LRepairProbes`]. Table drivers and workers call this when
    /// [`LRepairScratch::tallies_due`] says so and after their last tuple.
    pub(crate) fn flush_tallies<O: RepairObserver>(&mut self, observer: &O) {
        self.tally.flush(observer);
    }

    /// Whether [`TALLY_FLUSH_TUPLES`] tuples have gathered since the last
    /// flush. Table drivers and workers ask after each tuple, and then
    /// flush.
    #[inline]
    pub(crate) fn tallies_due(&self) -> bool {
        self.tally.tuples >= TALLY_FLUSH_TUPLES
    }

    /// Tally one finished tuple.
    #[inline]
    pub(crate) fn tuple_done(
        &mut self,
        pops: usize,
        updates: usize,
        probes: usize,
        probe_hits: usize,
        enqueued: usize,
    ) {
        self.tally
            .tuple_done(pops, updates, probes, probe_hits, enqueued);
    }

    /// Tally a pop of `rule` that did not fire.
    #[inline]
    pub(crate) fn rejected(&mut self, rule: RuleId) {
        self.tally.rejected[rule.index()] += 1;
    }

    fn begin_tuple(&mut self, num_rules: usize) {
        if self.stamp.len() != num_rules {
            self.resize(num_rules);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: hard reset once every 2^32 tuples.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.enqueued_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn count_of(&mut self, rule: RuleId) -> u16 {
        if self.stamp[rule.index()] != self.epoch {
            self.stamp[rule.index()] = self.epoch;
            self.count[rule.index()] = 0;
        }
        self.count[rule.index()]
    }

    #[inline]
    fn set_count(&mut self, rule: RuleId, v: u16) {
        self.stamp[rule.index()] = self.epoch;
        self.count[rule.index()] = v;
    }

    #[inline]
    fn try_enqueue(&mut self, rule: RuleId) {
        if self.enqueued_stamp[rule.index()] != self.epoch {
            self.enqueued_stamp[rule.index()] = self.epoch;
            self.queue.push(rule);
        }
    }
}

/// Repair one tuple in place with `lRepair`. Returns the applied updates
/// (`row` field 0; table drivers re-index). Inverted-list probes, counters
/// reaching `|X_φ|`, each rejected pop and the tuple's (pops, updates) go
/// to the scratch's tallies.
pub fn lrepair_tuple(
    rules: &RuleSet,
    index: &LRepairIndex,
    scratch: &mut LRepairScratch,
    row: &mut [Symbol],
) -> Vec<CellUpdate> {
    lrepair_tuple_recorded(rules, index, scratch, row, &mut ())
}

/// What a memoizing driver keeps of one `lRepair` run: every queue pop in
/// order, and the tuple's probe hits and enqueues. Together with the
/// rules, these replay the run's writes and tallies exactly.
pub(crate) trait RunRecorder {
    /// The run popped `rule`, which fired (`applied`) or was rejected.
    fn pop(&mut self, rule: RuleId, applied: bool);
    /// The run is over, after `probe_hits` list entries and `enqueued`
    /// enqueue attempts.
    fn done(&mut self, probe_hits: usize, enqueued: usize);
}

/// Record nothing: the plain `lRepair` run.
impl RunRecorder for () {
    #[inline]
    fn pop(&mut self, _rule: RuleId, _applied: bool) {}
    #[inline]
    fn done(&mut self, _probe_hits: usize, _enqueued: usize) {}
}

/// [`lrepair_tuple`] that also tells `recorder` what the run did.
pub(crate) fn lrepair_tuple_recorded<R: RunRecorder>(
    rules: &RuleSet,
    index: &LRepairIndex,
    scratch: &mut LRepairScratch,
    row: &mut [Symbol],
    recorder: &mut R,
) -> Vec<CellUpdate> {
    scratch.begin_tuple(rules.len());
    // The tuple's tallies stay in locals (registers) until it is done.
    let mut probe_hits = 0;
    let mut enqueued = 0;
    // Lines 3–7: seed counters from every cell; enqueue fully-matched
    // rules.
    for (a, &value) in row.iter().enumerate() {
        let attr = AttrId(a as u16);
        let hits = index.rules_for(attr, value);
        probe_hits += hits.len();
        for &rid in hits {
            let c = scratch.count_of(rid) + 1;
            scratch.set_count(rid, c);
            if c == index.evidence_len[rid.index()] {
                enqueued += 1;
                scratch.try_enqueue(rid);
            }
        }
    }
    let mut assured = AttrSet::EMPTY;
    let mut updates = Vec::new();
    let mut pops = 0usize;
    // Lines 8–16: chase over the candidate queue.
    while let Some(rid) = scratch.queue.pop() {
        pops += 1;
        let rule = rules.rule(rid);
        // Line 10: verify — counters guarantee the evidence matched at
        // enqueue time; the negative pattern and assured set are checked
        // here. Evidence is re-verified too: an update may have overwritten
        // an evidence cell after this rule was enqueued.
        if !properly_applicable(rule, row, assured) {
            scratch.rejected(rid);
            recorder.pop(rid, false);
            continue; // line 16: removed once and for all
        }
        let b = rule.b();
        let old = row[b.index()];
        let new = rule.fact();
        row[b.index()] = new;
        assured.union_with(rule.assured_delta());
        recorder.pop(rid, true);
        updates.push(CellUpdate {
            row: 0,
            attr: b,
            old,
            new,
            rule: rid,
            round: pops as u32,
        });
        // Lines 13–15: recalculate counters for the updated cell only.
        let stale = index.rules_for(b, old);
        let fresh = index.rules_for(b, new);
        probe_hits += stale.len() + fresh.len();
        for &other in stale {
            let c = scratch.count_of(other);
            scratch.set_count(other, c.saturating_sub(1));
        }
        for &other in fresh {
            let c = scratch.count_of(other) + 1;
            scratch.set_count(other, c);
            if c == index.evidence_len[other.index()] {
                enqueued += 1;
                scratch.try_enqueue(other);
            }
        }
    }
    // One probe per cell, then two per applied update.
    let probes = row.len() + 2 * updates.len();
    recorder.done(probe_hits, enqueued);
    scratch.tuple_done(pops, updates.len(), probes, probe_hits, enqueued);
    updates
}

/// Repair every tuple of a table in place with `lRepair`. Observer hooks:
/// one `cell_repaired` per applied update (the table driver knows the row
/// index; the per-tuple algorithm doesn't), and the tallies of
/// [`lrepair_tuple`] every 4,096 tuples and at the end;
/// pass [`obs::NoopObserver`] for none.
pub fn lrepair_table<O: RepairObserver>(
    rules: &RuleSet,
    index: &LRepairIndex,
    table: &mut Table,
    observer: &O,
) -> RepairOutcome {
    assert!(
        rules.schema().same_as(table.schema()),
        "rule set and table must share a schema"
    );
    let mut scratch = LRepairScratch::new(rules.len());
    let mut outcome = RepairOutcome::default();
    for i in 0..table.len() {
        let mut ups = lrepair_tuple(rules, index, &mut scratch, table.row_mut(i));
        for (k, u) in ups.iter_mut().enumerate() {
            u.row = i;
            observer.cell_repaired(u.as_fix(k));
        }
        outcome.updates.extend(ups);
        if scratch.tallies_due() {
            scratch.flush_tallies(observer);
        }
    }
    scratch.flush_tallies(observer);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::chase::crepair_table;
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

    fn fig1_table(sy: &mut SymbolTable, schema: &Schema) -> Table {
        let mut t = Table::new(schema.clone());
        for row in [
            ["George", "China", "Beijing", "Beijing", "SIGMOD"],
            ["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
            ["Peter", "China", "Tokyo", "Tokyo", "ICDE"],
            ["Mike", "Canada", "Toronto", "Toronto", "VLDB"],
        ] {
            t.push_strs(sy, &row).unwrap();
        }
        t
    }

    #[test]
    fn inverted_lists_match_fig8a() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let index = LRepairIndex::build(&rules);
        let s = schema();
        // (conf, ICDE) -> {φ3, φ4}
        let conf = rules.schema().attr("conf").unwrap();
        let icde = sy.get("ICDE").unwrap();
        assert_eq!(index.rules_for(conf, icde), &[RuleId(2), RuleId(3)]);
        // (country, China) -> {φ1}
        let country = s.attr("country").unwrap();
        assert_eq!(
            index.rules_for(country, sy.get("China").unwrap()),
            &[RuleId(0)]
        );
        // 6 distinct keys, exactly as in Fig 8(a).
        assert_eq!(index.num_keys(), 6);
    }

    #[test]
    fn flat_lists_equal_a_scan_of_every_rule() {
        // Rule sets of 0..40 rules over 6 attributes and 9 values, drawn
        // from a fixed LCG; every (attr, value) is probed, including ⊥ and
        // ids past every constant.
        let s = Schema::new("R", ["a", "b", "c", "d", "e", "f"]).unwrap();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % n) as u32
        };
        for size in 0..40 {
            let mut rs = RuleSet::new(s.clone());
            while rs.len() < size {
                let evidence: Vec<(AttrId, Symbol)> = (0..1 + next(3))
                    .map(|_| (AttrId(next(6) as u16), Symbol(next(9))))
                    .collect();
                let neg = vec![Symbol(next(9))];
                let rule =
                    crate::FixingRule::new(evidence, AttrId(next(6) as u16), neg, Symbol(next(9)));
                if let Ok(rule) = rule {
                    rs.push(rule);
                }
            }
            let index = LRepairIndex::build(&rs);
            let mut keys = 0;
            for a in 0..6u16 {
                let attr = AttrId(a);
                for v in (0..12).chain([u32::MAX - 2, Symbol::BOTTOM.0, u32::MAX]) {
                    let value = Symbol(v);
                    let scan: Vec<RuleId> = rs
                        .iter()
                        .filter(|(_, r)| r.evidence_value(attr) == Some(value))
                        .map(|(id, _)| id)
                        .collect();
                    keys += usize::from(!scan.is_empty());
                    assert_eq!(
                        index.rules_for(attr, value),
                        scan,
                        "{size} rules, {attr:?}={v}"
                    );
                }
            }
            assert_eq!(index.num_keys(), keys);
            let relevant: AttrSet = rs.rules().iter().map(|r| r.assured_delta()).fold(
                AttrSet::EMPTY,
                |mut all, delta| {
                    all.union_with(delta);
                    all
                },
            );
            assert_eq!(index.relevant_attrs(), relevant.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn replays_fig8_trace() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let index = LRepairIndex::build(&rules);
        let mut table = fig1_table(&mut sy, &rules.schema().clone());
        let outcome = lrepair_table(&rules, &index, &mut table, &NoopObserver);
        assert_eq!(outcome.total_updates(), 4);
        assert_eq!(
            table.row_strs(&sy, 0),
            vec!["George", "China", "Beijing", "Beijing", "SIGMOD"]
        );
        assert_eq!(
            table.row_strs(&sy, 1),
            vec!["Ian", "China", "Beijing", "Shanghai", "ICDE"]
        );
        assert_eq!(
            table.row_strs(&sy, 2),
            vec!["Peter", "Japan", "Tokyo", "Tokyo", "ICDE"]
        );
        assert_eq!(
            table.row_strs(&sy, 3),
            vec!["Mike", "Canada", "Ottawa", "Toronto", "VLDB"]
        );
    }

    #[test]
    fn agrees_with_crepair_on_fig1() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let index = LRepairIndex::build(&rules);
        let mut a = fig1_table(&mut sy, &rules.schema().clone());
        let mut b = a.clone();
        let oa = crepair_table(&rules, &mut a, &NoopObserver);
        let ob = lrepair_table(&rules, &index, &mut b, &NoopObserver);
        assert_eq!(a.diff_cells(&b).unwrap(), 0);
        assert_eq!(oa.total_updates(), ob.total_updates());
    }

    #[test]
    fn overwritten_evidence_never_happens_for_consistent_rules() {
        // For a *consistent* Σ an update can never invalidate another
        // matched evidence cell — that situation is exactly a case 2(a)
        // conflict (B_i ∈ X_j with tp_j[B_i] ∈ Tp_i[B_i]) which
        // `check_consistency` rejects. Verify that the pair is flagged, and
        // that on such an (inconsistent) input lRepair still terminates and
        // lands on one of the legitimate fixes, guarded by pop-time
        // re-verification and the counter decrement.
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s);
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        rs.push_named(
            &mut sy,
            &[("capital", "Shanghai")],
            "city",
            &["Paris"],
            "Shanghai",
        )
        .unwrap();
        assert!(!rs.check_consistency().is_consistent());
        let index = LRepairIndex::build(&rs);
        let mut scratch = LRepairScratch::new(rs.len());
        let mut row: Vec<Symbol> = ["Ian", "China", "Shanghai", "Paris", "ICDE"]
            .iter()
            .map(|v| sy.intern(v))
            .collect();
        let valid = crate::semantics::all_fixes(&[rs.rule(RuleId(0)), rs.rule(RuleId(1))], &row);
        assert_eq!(valid.len(), 2, "pair reaches two fixpoints");
        lrepair_tuple(&rs, &index, &mut scratch, &mut row);
        assert!(valid.contains(&row));
    }

    #[test]
    fn scratch_reuse_across_tuples_is_clean() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let index = LRepairIndex::build(&rules);
        let mut scratch = LRepairScratch::new(rules.len());
        // Repair the same dirty tuple twice with the same scratch; second
        // run must behave identically (fresh epoch).
        for _ in 0..2 {
            let mut row: Vec<Symbol> = ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]
                .iter()
                .map(|v| sy.intern(v))
                .collect();
            let ups = lrepair_tuple(&rules, &index, &mut scratch, &mut row);
            assert_eq!(ups.len(), 2);
            assert_eq!(sy.resolve(row[2]), "Beijing");
            assert_eq!(sy.resolve(row[3]), "Shanghai");
        }
    }

    #[test]
    fn empty_ruleset_is_a_noop() {
        let mut sy = SymbolTable::new();
        let rules = RuleSet::new(schema());
        let index = LRepairIndex::build(&rules);
        let mut table = fig1_table(&mut sy, &rules.schema().clone());
        let before = table.clone();
        let outcome = lrepair_table(&rules, &index, &mut table, &NoopObserver);
        assert_eq!(outcome.total_updates(), 0);
        assert_eq!(before.diff_cells(&table).unwrap(), 0);
    }

    #[test]
    fn rule_enqueued_at_most_once() {
        // A tuple matching a rule's evidence through two different cells
        // must still enqueue the rule once: counters target |X| exactly.
        let s = Schema::new("R", ["a", "b", "c"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s);
        rs.push_named(&mut sy, &[("a", "k"), ("b", "k")], "c", &["bad"], "good")
            .unwrap();
        let index = LRepairIndex::build(&rs);
        let mut scratch = LRepairScratch::new(rs.len());
        let mut row: Vec<Symbol> = ["k", "k", "bad"].iter().map(|v| sy.intern(v)).collect();
        let ups = lrepair_tuple(&rs, &index, &mut scratch, &mut row);
        assert_eq!(ups.len(), 1);
        assert_eq!(sy.resolve(row[2]), "good");
    }
}
