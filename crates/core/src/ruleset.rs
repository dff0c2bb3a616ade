//! Rule sets `Σ` and their bookkeeping.

use relation::{Schema, SymbolTable};

use crate::consistency::{self, ConsistencyReport};
use crate::rule::{FixRuleError, FixingRule};

/// Dense identifier of a rule within one [`RuleSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

impl RuleId {
    /// Index into the rule set's storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set `Σ` of fixing rules over one schema.
#[derive(Debug, Clone)]
pub struct RuleSet {
    schema: Schema,
    rules: Vec<FixingRule>,
}

impl RuleSet {
    /// Create an empty rule set over `schema`.
    pub fn new(schema: Schema) -> Self {
        RuleSet {
            schema,
            rules: Vec::new(),
        }
    }

    /// The schema the rules are defined on.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Add a pre-built rule, returning its id.
    pub fn push(&mut self, rule: FixingRule) -> RuleId {
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(rule);
        id
    }

    /// Build a rule from attribute names / string values and add it.
    pub fn push_named(
        &mut self,
        symbols: &mut SymbolTable,
        evidence: &[(&str, &str)],
        b: &str,
        neg: &[&str],
        fact: &str,
    ) -> Result<RuleId, FixRuleError> {
        let rule = FixingRule::from_named(&self.schema, symbols, evidence, b, neg, fact)?;
        Ok(self.push(rule))
    }

    /// Number of rules `|Σ|`.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// `size(Σ)`: total number of pattern cells across all rules — the unit
    /// in the paper's `O(size(Σ))` bounds.
    pub fn size(&self) -> usize {
        self.rules.iter().map(FixingRule::size).sum()
    }

    /// Borrow a rule.
    #[inline]
    pub fn rule(&self, id: RuleId) -> &FixingRule {
        &self.rules[id.index()]
    }

    /// Borrow a rule mutably (used by conflict resolution).
    pub fn rule_mut(&mut self, id: RuleId) -> &mut FixingRule {
        &mut self.rules[id.index()]
    }

    /// All rules in insertion order.
    pub fn rules(&self) -> &[FixingRule] {
        &self.rules
    }

    /// Iterate `(id, rule)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &FixingRule)> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, r)| (RuleId(i as u32), r))
    }

    /// Remove a set of rules by id, compacting the set. Ids of remaining
    /// rules are renumbered; used by the conservative conflict-resolution
    /// strategy.
    pub fn remove_rules(&mut self, ids: &[RuleId]) {
        if ids.is_empty() {
            return;
        }
        let mut drop = vec![false; self.rules.len()];
        for id in ids {
            if id.index() < drop.len() {
                drop[id.index()] = true;
            }
        }
        let mut i = 0;
        self.rules.retain(|_| {
            let keep = !drop[i];
            i += 1;
            keep
        });
    }

    /// Keep only the first `n` rules (used by the |Σ|-sweep experiments).
    pub fn truncate(&mut self, n: usize) {
        self.rules.truncate(n);
    }

    /// Check consistency with the rule-characterization algorithm
    /// (`isConsist_r`); see [`consistency`] for the enumeration variant and
    /// early-termination controls.
    pub fn check_consistency(&self) -> ConsistencyReport {
        consistency::is_consistent_characterize(self, usize::MAX)
    }

    /// Push `rule` only if it keeps the set consistent (assuming the set
    /// already is — Proposition 3 makes the incremental pairwise check
    /// sufficient). On conflict the rule is rejected and the conflicts
    /// returned.
    pub fn try_push_consistent(
        &mut self,
        rule: FixingRule,
    ) -> Result<RuleId, Vec<crate::consistency::Conflict>> {
        let conflicts = consistency::check_candidate(self, &rule);
        if conflicts.is_empty() {
            Ok(self.push(rule))
        } else {
            Err(conflicts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
    }

    #[test]
    fn push_and_access() {
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
        let id = rs
            .push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai"],
                "Beijing",
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rule(id).neg().len(), 1);
        assert_eq!(rs.size(), 3);
    }

    #[test]
    fn size_sums_pattern_cells() {
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
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
        // (1 + 2 + 1) + (1 + 1 + 1)
        assert_eq!(rs.size(), 7);
    }

    #[test]
    fn remove_rules_compacts() {
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
        let a = rs
            .push_named(&mut sy, &[("country", "A")], "capital", &["x"], "y")
            .unwrap();
        let _b = rs
            .push_named(&mut sy, &[("country", "B")], "capital", &["x"], "y")
            .unwrap();
        let _c = rs
            .push_named(&mut sy, &[("country", "C")], "capital", &["x"], "y")
            .unwrap();
        rs.remove_rules(&[a]);
        assert_eq!(rs.len(), 2);
        // Remaining rules renumbered from zero.
        assert_eq!(
            rs.rule(RuleId(0))
                .evidence_value(rs.schema().attr("country").unwrap()),
            sy.get("B")
        );
    }

    #[test]
    fn iter_yields_dense_ids() {
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
        rs.push_named(&mut sy, &[("country", "A")], "capital", &["x"], "y")
            .unwrap();
        rs.push_named(&mut sy, &[("country", "B")], "capital", &["x"], "y")
            .unwrap();
        let ids: Vec<u32> = rs.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn try_push_accepts_compatible_and_rejects_conflicting() {
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        )
        .unwrap();
        // Compatible: different evidence constant on the same X.
        let ok = crate::rule::FixingRule::from_named(
            rs.schema(),
            &mut sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
        assert!(rs.try_push_consistent(ok).is_ok());
        assert_eq!(rs.len(), 2);
        // Conflicting: φ3 against the over-broad φ'1 shape — same-B
        // overlapping negatives with a different fact.
        let bad = crate::rule::FixingRule::from_named(
            rs.schema(),
            &mut sy,
            &[("conf", "ICDE")],
            "capital",
            &["Shanghai"],
            "Nanjing",
        )
        .unwrap();
        let err = rs.try_push_consistent(bad).unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].first, RuleId(0));
        assert_eq!(rs.len(), 2, "rejected rule must not be added");
    }

    #[test]
    fn incremental_check_matches_full_check() {
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong", "Tokyo"],
            "Beijing",
        )
        .unwrap();
        let phi3 = crate::rule::FixingRule::from_named(
            rs.schema(),
            &mut sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        )
        .unwrap();
        let incremental = crate::consistency::check_candidate(&rs, &phi3);
        let mut full = rs.clone();
        full.push(phi3);
        let report = full.check_consistency();
        assert_eq!(incremental.len(), report.conflicts.len());
        assert_eq!(incremental[0].case, report.conflicts[0].case);
    }

    #[test]
    fn truncate_limits_rule_count() {
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
        for c in ["A", "B", "C", "D"] {
            rs.push_named(&mut sy, &[("country", c)], "capital", &["x"], "y")
                .unwrap();
        }
        rs.truncate(2);
        assert_eq!(rs.len(), 2);
    }
}
