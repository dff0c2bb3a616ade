//! Property-based test of the `fixcert` confluence certificate: any rule
//! set the certifier passes really is order-independent in practice.
//!
//! For every randomly generated rule set that certifies green, every
//! engine (chase, linear, the grouped core's compiled chase, parallel
//! linear) under every tested rule-order permutation must produce the *same* repaired
//! table and the same normalized provenance ledger. A single divergence
//! here means the certificate lied — the critical-pair analysis missed an
//! interaction the engines can reach.
//!
//! Normalization: rule attribution and round stamps legitimately differ
//! across engines and rule orders (the same semantic fix may be found by
//! a different permuted rule id, in a different round). What confluence
//! pins is the *semantic* repair: each attribute is written at most once
//! per tuple (it becomes assured), so the multiset of
//! `(row, attr, old, new)` cell changes — and the end table — must match
//! exactly.

use proptest::prelude::*;

use fixlint::{certify, CertOptions};
use fixrules::io::Span;
use fixrules::provenance::{ProvenanceLedger, ProvenanceObserver, ProvenanceRecord};
use fixrules::repair::{
    crepair_table, lrepair_table, par_lrepair_table, repair_columns_grouped, CompiledEngine,
    CompiledScratch, LRepairIndex, PlanCache, RuleProgram,
};
use fixrules::{FixingRule, RuleSet};
use relation::{AttrId, ColumnTable, Schema, Symbol, SymbolTable, Table};

const ARITY: usize = 5;
const VOCAB: u32 = 6;

fn schema() -> Schema {
    Schema::new("R", ["a0", "a1", "a2", "a3", "a4"]).unwrap()
}

/// A symbol table covering the whole generated vocabulary, so the
/// certifier can render witness tuples in its diagnostics.
fn symbols() -> SymbolTable {
    let mut table = SymbolTable::new();
    for v in 0..VOCAB {
        table.intern(&format!("v{v}"));
    }
    table
}

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

/// Rebuild the set with its rules rotated by `rot` (and optionally
/// reversed) — a deterministic family of shuffled rule orders.
fn permuted(rs: &RuleSet, rot: usize, rev: bool) -> RuleSet {
    let n = rs.len();
    let mut order: Vec<usize> = (0..n).collect();
    if n > 0 {
        order.rotate_left(rot % n);
    }
    if rev {
        order.reverse();
    }
    let mut out = RuleSet::new(rs.schema().clone());
    for &i in &order {
        out.push(rs.rules()[i].clone());
    }
    out
}

/// The order- and engine-independent core of a ledger: sorted
/// `(row, attr, old, new)` with attribution and rounds dropped.
fn normalized(records: &[ProvenanceRecord]) -> Vec<(usize, u16, u32, u32)> {
    let mut out: Vec<(usize, u16, u32, u32)> = records
        .iter()
        .map(|r| (r.row, r.attr.0, r.old.0, r.new.0))
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    /// A green `fixcert` certificate implies confluence in practice: all
    /// engines agree on the repaired table and the normalized ledger
    /// under every tested rule-order permutation.
    #[test]
    fn certified_sets_are_confluent_across_engines_and_orders(
        rs in rulesets(),
        rows in proptest::collection::vec(tuples(), 1..16),
        rot in 0usize..8,
    ) {
        let spans = vec![Span::default(); rs.len()];
        let cert = certify(&rs, &spans, &symbols(), &CertOptions::default());
        if !cert.is_certified() {
            // Red sets promise nothing; the certifier's *soundness* on
            // green sets is the property under test.
            return Ok(());
        }
        let mut table0 = Table::new(rs.schema().clone());
        for r in &rows {
            table0.push_row(r).unwrap();
        }

        // Reference: the textbook chase on the original order.
        let mut ref_table = table0.clone();
        let ref_ledger = ProvenanceLedger::new();
        crepair_table(&rs, &mut ref_table, &ProvenanceObserver::new(&rs, &ref_ledger));
        let reference = normalized(&ref_ledger.records());

        for rev in [false, true] {
            let prs = permuted(&rs, rot, rev);
            let program = RuleProgram::compile(&prs);
            let index = LRepairIndex::build(&prs);

            let mut runs: Vec<(&str, Table, Vec<ProvenanceRecord>)> = Vec::new();
            {
                let mut t = table0.clone();
                let ledger = ProvenanceLedger::new();
                crepair_table(&prs, &mut t, &ProvenanceObserver::new(&prs, &ledger));
                runs.push(("chase", t, ledger.records()));
            }
            {
                let mut t = table0.clone();
                let ledger = ProvenanceLedger::new();
                lrepair_table(
                    &prs, &index, &mut t, &ProvenanceObserver::new(&prs, &ledger));
                runs.push(("linear", t, ledger.records()));
            }
            {
                let cache = PlanCache::unbounded();
                let mut columns = ColumnTable::from(&table0);
                let mut cols = columns.columns_mut();
                let ledger = ProvenanceLedger::new();
                repair_columns_grouped(
                    &prs, &program, CompiledEngine::Chase, Some(&cache),
                    &mut CompiledScratch::new(prs.len()), &mut cols, 0,
                    &ProvenanceObserver::new(&prs, &ledger));
                let mut t = Table::new(prs.schema().clone());
                for i in 0..table0.len() {
                    let row: Vec<Symbol> = cols.iter().map(|c| c[i]).collect();
                    t.push_row(&row).unwrap();
                }
                runs.push(("columnar", t, ledger.records()));
            }
            {
                let mut t = table0.clone();
                let ledger = ProvenanceLedger::new();
                par_lrepair_table(
                    &prs, &index, &mut t, 4, &ProvenanceObserver::new(&prs, &ledger));
                runs.push(("parallel", t, ledger.records()));
            }

            for (name, t, records) in &runs {
                prop_assert_eq!(
                    ref_table.diff_cells(t).unwrap(), 0,
                    "{} diverged from the reference table under rot={} rev={}",
                    name, rot, rev);
                prop_assert_eq!(
                    &normalized(records), &reference,
                    "{} ledger diverged under rot={} rev={}", name, rot, rev);
            }
        }
    }
}
