//! `Edit` — automated editing rules, the Exp-2(d) comparator.
//!
//! Editing rules [Fan et al., VLDBJ'12] update a tuple from master data once
//! a user certifies the matched region. The paper automates them for a fair
//! fight: *"we removed negative patterns in fixing rules, to simulate
//! editing rules. Specifically, each time when seeing an evidence pattern,
//! it simulated users by saying yes, and then updated the right hand side
//! value to the fact."*
//!
//! So an [`EditRule`] is a fixing rule minus `Tp[B]`: whenever `t[X] =
//! tp[X]` and `t[B] ≠ tp+[B]`, set `t[B] := tp+[B]` (and assure `X ∪ {B}`,
//! keeping the chase semantics aligned). The predictable failure mode —
//! and the reason Fix beats Edit in Fig 12(b) — is that an error *inside the
//! evidence* is trusted as correct and triggers a wrong update, whereas a
//! fixing rule would not have matched its negative patterns.

use relation::{AttrId, AttrSet, Symbol, Table};

use fixrules::{RuleId, RuleSet};

/// An automated editing rule: evidence pattern → fact, no negative patterns.
#[derive(Debug, Clone)]
pub struct EditRule {
    x: Vec<AttrId>,
    tp: Vec<Symbol>,
    x_set: AttrSet,
    b: AttrId,
    fact: Symbol,
}

impl EditRule {
    /// The evidence attributes.
    pub fn x(&self) -> &[AttrId] {
        &self.x
    }

    /// The repaired attribute.
    pub fn b(&self) -> AttrId {
        self.b
    }

    /// The fact written on a match.
    pub fn fact(&self) -> Symbol {
        self.fact
    }

    fn matches(&self, row: &[Symbol]) -> bool {
        self.x
            .iter()
            .zip(self.tp.iter())
            .all(|(&a, &v)| row[a.index()] == v)
            && row[self.b.index()] != self.fact
    }
}

/// A set of automated editing rules derived from fixing rules.
#[derive(Debug, Clone)]
pub struct EditRuleSet {
    rules: Vec<EditRule>,
}

impl EditRuleSet {
    /// Strip the negative patterns off every fixing rule in `rules`.
    pub fn from_fixing_rules(rules: &RuleSet) -> Self {
        let rules = rules
            .rules()
            .iter()
            .map(|r| EditRule {
                x: r.x().to_vec(),
                tp: r.tp().to_vec(),
                x_set: r.x_set(),
                b: r.b(),
                fact: r.fact(),
            })
            .collect();
        EditRuleSet { rules }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// One applied edit.
#[derive(Debug, Clone, Copy)]
pub struct EditUpdate {
    /// Row index.
    pub row: usize,
    /// Updated attribute.
    pub attr: AttrId,
    /// Previous value.
    pub old: Symbol,
    /// New value (the fact).
    pub new: Symbol,
    /// Index of the edit rule that fired.
    pub rule: RuleId,
}

/// Repair `table` in place with automated editing rules (chase semantics,
/// assured attributes frozen as in the fixing-rule engine).
pub fn edit_repair(rules: &EditRuleSet, table: &mut Table) -> Vec<EditUpdate> {
    let mut updates = Vec::new();
    for i in 0..table.len() {
        let row = table.row_mut(i);
        let mut assured = AttrSet::EMPTY;
        let mut used = vec![false; rules.rules.len()];
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (k, rule) in rules.rules.iter().enumerate() {
                if used[k] || assured.contains(rule.b) || !rule.matches(row) {
                    continue;
                }
                let old = row[rule.b.index()];
                row[rule.b.index()] = rule.fact;
                let mut delta = rule.x_set;
                delta.insert(rule.b);
                assured.union_with(delta);
                used[k] = true;
                progressed = true;
                updates.push(EditUpdate {
                    row: i,
                    attr: rule.b,
                    old,
                    new: rule.fact,
                    rule: RuleId(k as u32),
                });
            }
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, SymbolTable};

    fn setup() -> (Schema, SymbolTable, RuleSet) {
        let s = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s.clone());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        )
        .unwrap();
        rs.push_named(
            &mut sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
        (s, sy, rs)
    }

    #[test]
    fn strips_negative_patterns() {
        let (_, _, rs) = setup();
        let edits = EditRuleSet::from_fixing_rules(&rs);
        assert_eq!(edits.len(), 2);
    }

    #[test]
    fn fires_without_negative_evidence() {
        // (China, Nanjing): the fixing rule would NOT fire (Nanjing is not
        // a negative pattern) — the edit rule does.
        let (s, mut sy, rs) = setup();
        let edits = EditRuleSet::from_fixing_rules(&rs);
        let mut t = Table::new(s.clone());
        t.push_strs(&mut sy, &["p", "China", "Nanjing", "x", "c"])
            .unwrap();
        let ups = edit_repair(&edits, &mut t);
        assert_eq!(ups.len(), 1);
        assert_eq!(sy.resolve(t.cell(0, s.attr("capital").unwrap())), "Beijing");
    }

    #[test]
    fn evidence_error_causes_wrong_fix() {
        // Truth is (Canada, Ottawa) but country was corrupted to China: the
        // edit rule trusts the evidence and wrongly rewrites the correct
        // capital — the Fig 12(b) failure mode.
        let (s, mut sy, rs) = setup();
        let edits = EditRuleSet::from_fixing_rules(&rs);
        let mut t = Table::new(s.clone());
        t.push_strs(&mut sy, &["p", "China", "Ottawa", "x", "c"])
            .unwrap();
        let ups = edit_repair(&edits, &mut t);
        assert_eq!(ups.len(), 1);
        assert_eq!(sy.resolve(t.cell(0, s.attr("capital").unwrap())), "Beijing");
        // The corresponding fixing rule stays conservative:
        let mut t2 = Table::new(s.clone());
        t2.push_strs(&mut sy, &["p", "China", "Ottawa", "x", "c"])
            .unwrap();
        let index = fixrules::repair::LRepairIndex::build(&rs);
        let out =
            fixrules::repair::lrepair_table(&rs, &index, &mut t2, &fixrules::repair::NoopObserver);
        assert_eq!(out.total_updates(), 0);
    }

    #[test]
    fn already_fact_is_a_noop() {
        let (s, mut sy, rs) = setup();
        let edits = EditRuleSet::from_fixing_rules(&rs);
        let mut t = Table::new(s.clone());
        t.push_strs(&mut sy, &["p", "China", "Beijing", "x", "c"])
            .unwrap();
        assert!(edit_repair(&edits, &mut t).is_empty());
    }

    #[test]
    fn assured_attributes_freeze_chains() {
        // Two edit rules targeting the same B: first match assures B, the
        // second cannot re-edit.
        let s = Schema::new("T", ["a", "b", "c"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s.clone());
        rs.push_named(&mut sy, &[("a", "k")], "c", &["z"], "v1")
            .unwrap();
        rs.push_named(&mut sy, &[("b", "k")], "c", &["z"], "v2")
            .unwrap();
        let edits = EditRuleSet::from_fixing_rules(&rs);
        let mut t = Table::new(s.clone());
        t.push_strs(&mut sy, &["k", "k", "z"]).unwrap();
        let ups = edit_repair(&edits, &mut t);
        assert_eq!(ups.len(), 1);
        assert_eq!(sy.resolve(t.cell(0, s.attr("c").unwrap())), "v1");
    }
}
