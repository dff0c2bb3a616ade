//! Repair provenance: a ledger of rule applications with their evidence.
//!
//! The paper's central claim is *dependable* repairing — every fix is
//! justified by an evidence pattern and a fact, never a heuristic guess
//! (§1). This module makes that justification a first-class artifact: a
//! [`ProvenanceLedger`] collects one [`ProvenanceRecord`] per applied fix,
//! carrying `(row, attr, old → new, rule, evidence bindings, round,
//! assured-set delta)`. Because matching requires `t[X] = tp[X]` exactly,
//! the recorded evidence bindings *are* the tuple's cell values at
//! application time, which makes the ledger replayable: applying the
//! records in order to the dirty table re-derives the repaired table
//! ([`ProvenanceLedger::replay`]), and walking evidence attributes
//! backwards re-derives the causal chain behind any one cell
//! ([`chain`]).
//!
//! The drivers feed the ledger through the value-carrying
//! `cell_repaired` observer hook; wrap the ledger in a
//! [`ProvenanceObserver`] (which knows the rule set and expands rule ids
//! into evidence bindings) and pass it to any table or stream driver.
//! As with every observer, the hook monomorphizes to nothing under
//! `NoopObserver` — untraced repairs pay zero cost.

use std::fmt;
use std::sync::Mutex;

use obs::{CellFix, Json, RepairObserver};
use relation::{AttrId, AttrSet, Schema, Symbol, SymbolTable, Table};

use crate::ruleset::{RuleId, RuleSet};
use crate::semantics::evidence_bindings;

/// One rule application, with everything needed to justify and replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// Row index in the table (record index for the stream driver).
    pub row: usize,
    /// Application order within the row, from 0.
    pub ordinal: usize,
    /// The repaired attribute `B`.
    pub attr: AttrId,
    /// Value before the fix (a negative pattern of the rule).
    pub old: Symbol,
    /// Value after the fix (the rule's fact `tp+[B]`).
    pub new: Symbol,
    /// The rule that fired.
    pub rule: RuleId,
    /// Chase round (`cRepair`) or queue-pop index (`lRepair`), 1-based.
    pub round: u32,
    /// The evidence cells `(A, tp[A])` the tuple exhibited at application
    /// time (exact equality is required for a match, so these are the
    /// tuple's own values).
    pub evidence: Vec<(AttrId, Symbol)>,
    /// `X ∪ {B}` — the attributes this application marked assured.
    pub assured_delta: AttrSet,
}

impl ProvenanceRecord {
    /// Serialize with attribute names and resolved values, so the record
    /// is meaningful outside this process (the trace journal stores these).
    pub fn to_json(&self, schema: &Schema, symbols: &SymbolTable) -> Json {
        let evidence = Json::Obj(
            self.evidence
                .iter()
                .map(|&(a, v)| {
                    (
                        schema.attr_name(a).to_string(),
                        Json::from(symbols.resolve(v)),
                    )
                })
                .collect(),
        );
        let assured: Vec<Json> = self
            .assured_delta
            .iter()
            .map(|a| Json::from(schema.attr_name(a)))
            .collect();
        Json::obj([
            ("assured", Json::Arr(assured)),
            ("attr", Json::from(schema.attr_name(self.attr))),
            ("evidence", evidence),
            ("new", Json::from(symbols.resolve(self.new))),
            ("old", Json::from(symbols.resolve(self.old))),
            ("ordinal", Json::from(self.ordinal)),
            ("round", Json::from(u64::from(self.round))),
            ("row", Json::from(self.row)),
            ("rule", Json::from(u64::from(self.rule.0))),
        ])
    }

    /// Parse a record serialized by [`ProvenanceRecord::to_json`],
    /// resolving attribute names against `schema` and interning values
    /// into `symbols`.
    pub fn from_json(
        json: &Json,
        schema: &Schema,
        symbols: &mut SymbolTable,
    ) -> Result<Self, String> {
        let attr_of = |name: &str| {
            schema
                .attr(name)
                .ok_or_else(|| format!("unknown attribute `{name}` in provenance record"))
        };
        let int_of = |key: &str| {
            json.get(key)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("provenance record missing integer `{key}`"))
        };
        let str_of = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("provenance record missing string `{key}`"))
        };
        let attr = attr_of(str_of("attr")?)?;
        let old = symbols.intern(str_of("old")?);
        let new = symbols.intern(str_of("new")?);
        let mut evidence = Vec::new();
        let ev_obj = json
            .get("evidence")
            .and_then(Json::as_obj)
            .ok_or_else(|| "provenance record missing object `evidence`".to_string())?;
        for (name, value) in ev_obj {
            let v = value
                .as_str()
                .ok_or_else(|| format!("evidence value for `{name}` is not a string"))?;
            evidence.push((attr_of(name)?, symbols.intern(v)));
        }
        evidence.sort_by_key(|&(a, _)| a);
        let assured_arr = json
            .get("assured")
            .and_then(Json::as_arr)
            .ok_or_else(|| "provenance record missing array `assured`".to_string())?;
        let mut assured_delta = AttrSet::new();
        for item in assured_arr {
            let name = item
                .as_str()
                .ok_or_else(|| "assured entry is not a string".to_string())?;
            assured_delta.insert(attr_of(name)?);
        }
        Ok(ProvenanceRecord {
            row: int_of("row")? as usize,
            ordinal: int_of("ordinal")? as usize,
            attr,
            old,
            new,
            rule: RuleId(int_of("rule")? as u32),
            round: int_of("round")? as u32,
            evidence,
            assured_delta,
        })
    }
}

/// A replay mismatch: the table's cell did not hold the recorded `old`
/// value, so the ledger does not describe this table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Row of the mismatching record.
    pub row: usize,
    /// Attribute of the mismatching record.
    pub attr: AttrId,
    /// The value the record expected to overwrite.
    pub expected: Symbol,
    /// The value actually found in the table.
    pub found: Symbol,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay mismatch at row {}, attr {}: expected symbol {:?}, found {:?}",
            self.row, self.attr, self.expected, self.found
        )
    }
}

impl std::error::Error for ReplayError {}

/// Thread-safe collection of [`ProvenanceRecord`]s for one repair run.
///
/// Records arrive in driver order — which under the parallel driver is
/// worker-interleaved — so [`ProvenanceLedger::records`] sorts by
/// `(row, ordinal)` before returning, giving a canonical view identical
/// across sequential, parallel, and streaming runs.
#[derive(Debug, Default)]
pub struct ProvenanceLedger {
    entries: Mutex<Vec<ProvenanceRecord>>,
}

impl ProvenanceLedger {
    /// Create an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record.
    pub fn record(&self, rec: ProvenanceRecord) {
        obs::lock(&self.entries).push(rec);
    }

    /// Number of recorded applications.
    pub fn len(&self) -> usize {
        obs::lock(&self.entries).len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records, sorted by `(row, ordinal)` — the canonical order.
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        let mut out = obs::lock(&self.entries).clone();
        out.sort_by_key(|r| (r.row, r.ordinal));
        out
    }

    /// The causal chain (in application order) behind the final value of
    /// `(row, attr)` — empty when the cell was never repaired. See
    /// [`chain`] for the derivation.
    pub fn chain_for(&self, row: usize, attr: AttrId) -> Vec<ProvenanceRecord> {
        let row_records: Vec<ProvenanceRecord> = self
            .records()
            .into_iter()
            .filter(|r| r.row == row)
            .collect();
        chain(&row_records, attr)
            .into_iter()
            .map(|i| row_records[i].clone())
            .collect()
    }

    /// Re-apply every record to `table` (which must be in the *dirty*
    /// pre-repair state), verifying that each overwritten cell holds the
    /// recorded `old` value. Returns the number of cells re-derived.
    pub fn replay(&self, table: &mut Table) -> Result<usize, ReplayError> {
        let mut applied = 0;
        for rec in self.records() {
            let cell = &mut table.row_mut(rec.row)[rec.attr.index()];
            if *cell != rec.old {
                return Err(ReplayError {
                    row: rec.row,
                    attr: rec.attr,
                    expected: rec.old,
                    found: *cell,
                });
            }
            *cell = rec.new;
            applied += 1;
        }
        Ok(applied)
    }
}

/// Indices (into `records`, which must hold one row's records sorted by
/// `ordinal`) of the applications that causally produced the final value
/// of `attr`, in application order.
///
/// Derivation: start from the *last* writer of `attr`; then walk
/// backwards — for every included application, include the latest earlier
/// application that wrote one of its evidence attributes (that write is
/// what the evidence binding observed) — until a fixpoint.
pub fn chain(records: &[ProvenanceRecord], attr: AttrId) -> Vec<usize> {
    let Some(last) = records.iter().rposition(|r| r.attr == attr) else {
        return Vec::new();
    };
    let mut included = vec![false; records.len()];
    included[last] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..records.len()).rev() {
            if !included[i] {
                continue;
            }
            for &(ev_attr, _) in &records[i].evidence {
                let dep = records[..i].iter().rposition(|r| r.attr == ev_attr);
                if let Some(d) = dep {
                    if !included[d] {
                        included[d] = true;
                        changed = true;
                    }
                }
            }
        }
    }
    (0..records.len()).filter(|&i| included[i]).collect()
}

/// A [`RepairObserver`] that expands `cell_repaired` hook payloads into
/// full [`ProvenanceRecord`]s. Holds the rule set so the plain rule id in
/// the hook can be expanded into evidence bindings and the assured-set
/// delta (kept out of the hook itself so `obs` stays a leaf crate).
#[derive(Debug)]
pub struct ProvenanceObserver<'a> {
    rules: &'a RuleSet,
    ledger: &'a ProvenanceLedger,
}

impl<'a> ProvenanceObserver<'a> {
    /// Observe repairs driven by `rules`, appending to `ledger`.
    pub fn new(rules: &'a RuleSet, ledger: &'a ProvenanceLedger) -> Self {
        ProvenanceObserver { rules, ledger }
    }
}

impl RepairObserver for ProvenanceObserver<'_> {
    fn cell_repaired(&self, fix: CellFix) {
        let rule_id = RuleId(fix.rule as u32);
        let rule = self.rules.rule(rule_id);
        self.ledger.record(ProvenanceRecord {
            row: fix.row,
            ordinal: fix.ordinal,
            attr: AttrId(fix.attr as u16),
            old: Symbol(fix.old),
            new: Symbol(fix.new),
            rule: rule_id,
            round: fix.round,
            evidence: evidence_bindings(rule),
            assured_delta: rule.assured_delta(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::crepair_table;

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

    fn run_fig1(sy: &mut SymbolTable) -> (RuleSet, Table, Table, ProvenanceLedger) {
        let rules = fig8_rules(sy);
        let dirty = fig1_table(sy, &rules.schema().clone());
        let mut repaired = dirty.clone();
        let ledger = ProvenanceLedger::new();
        let observer = ProvenanceObserver::new(&rules, &ledger);
        crepair_table(&rules, &mut repaired, &observer);
        (rules, dirty, repaired, ledger)
    }

    #[test]
    fn ledger_records_every_update() {
        let mut sy = SymbolTable::new();
        let (_rules, _dirty, _repaired, ledger) = run_fig1(&mut sy);
        assert_eq!(ledger.len(), 4);
        let recs = ledger.records();
        // Canonical order: sorted by (row, ordinal).
        assert!(recs
            .windows(2)
            .all(|w| (w[0].row, w[0].ordinal) <= (w[1].row, w[1].ordinal)));
    }

    #[test]
    fn replay_rederives_the_repaired_table() {
        let mut sy = SymbolTable::new();
        let (_rules, mut dirty, repaired, ledger) = run_fig1(&mut sy);
        let applied = ledger.replay(&mut dirty).unwrap();
        assert_eq!(applied, 4);
        assert_eq!(dirty.diff_cells(&repaired).unwrap(), 0);
    }

    #[test]
    fn replay_rejects_a_foreign_table() {
        let mut sy = SymbolTable::new();
        let (_rules, _dirty, mut repaired, ledger) = run_fig1(&mut sy);
        // Replaying onto the *already repaired* table must fail on the
        // first record whose `old` value is gone.
        let err = ledger.replay(&mut repaired).unwrap_err();
        assert_eq!(err.expected, sy.get("Shanghai").unwrap());
    }

    #[test]
    fn chain_follows_the_cascade() {
        // Row 1 (Ian): φ1 repairs capital, then φ4's evidence includes the
        // repaired capital — the chain for `city` must contain both.
        let mut sy = SymbolTable::new();
        let (rules, _dirty, _repaired, ledger) = run_fig1(&mut sy);
        let schema = rules.schema();
        let city = schema.attr("city").unwrap();
        let capital = schema.attr("capital").unwrap();
        let chain = ledger.chain_for(1, city);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].attr, capital);
        assert_eq!(chain[0].rule, RuleId(0));
        assert_eq!(chain[1].attr, city);
        assert_eq!(chain[1].rule, RuleId(3));
        // The capital fix itself has a single-link chain.
        let cap_chain = ledger.chain_for(1, capital);
        assert_eq!(cap_chain.len(), 1);
        assert_eq!(cap_chain[0].rule, RuleId(0));
        // Untouched cells have no chain.
        assert!(ledger.chain_for(0, city).is_empty());
        assert!(ledger.chain_for(1, schema.attr("name").unwrap()).is_empty());
    }

    #[test]
    fn records_round_trip_through_json() {
        let mut sy = SymbolTable::new();
        let (rules, _dirty, _repaired, ledger) = run_fig1(&mut sy);
        let schema = rules.schema();
        for rec in ledger.records() {
            let json = rec.to_json(schema, &sy);
            let back = ProvenanceRecord::from_json(&json, schema, &mut sy).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn from_json_rejects_malformed_records() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let missing = Json::obj([("row", Json::from(0u64))]);
        assert!(ProvenanceRecord::from_json(&missing, &schema, &mut sy).is_err());
        let bad_attr = Json::obj([
            ("assured", Json::Arr(vec![])),
            ("attr", Json::from("nope")),
            ("evidence", Json::Obj(Default::default())),
            ("new", Json::from("x")),
            ("old", Json::from("y")),
            ("ordinal", Json::from(0u64)),
            ("round", Json::from(1u64)),
            ("row", Json::from(0u64)),
            ("rule", Json::from(0u64)),
        ]);
        let err = ProvenanceRecord::from_json(&bad_attr, &schema, &mut sy).unwrap_err();
        assert!(err.contains("unknown attribute"), "{err}");
    }

    #[test]
    fn evidence_bindings_match_rule_patterns() {
        let mut sy = SymbolTable::new();
        let (rules, _dirty, _repaired, ledger) = run_fig1(&mut sy);
        for rec in ledger.records() {
            let rule = rules.rule(rec.rule);
            assert_eq!(rec.evidence.len(), rule.x().len());
            for &(a, v) in &rec.evidence {
                assert_eq!(rule.evidence_value(a), Some(v));
            }
            assert_eq!(rec.assured_delta, rule.assured_delta());
        }
    }
}
