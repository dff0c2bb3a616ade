//! The [`FixingRule`] type: syntax and validation (Definition 3.1).

use std::fmt;

use relation::{AttrId, AttrSet, Schema, Symbol, SymbolTable};

/// Errors raised while constructing a fixing rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixRuleError {
    /// `X` was empty — a rule needs at least one evidence attribute.
    EmptyEvidence,
    /// `Tp[B]` was empty — a rule with no negative patterns can never fire.
    EmptyNegativePatterns,
    /// `B ∈ X`, violating condition (1) of Definition 3.1.
    BInEvidence(String),
    /// `tp+[B] ∈ Tp[B]`, violating condition (4): the fact must differ from
    /// every known-wrong value.
    FactInNegativePatterns(String),
    /// The same attribute was listed twice in `X`.
    DuplicateEvidenceAttr(String),
    /// Evidence attributes and constants had different lengths.
    EvidenceArityMismatch {
        /// Number of attributes supplied.
        attrs: usize,
        /// Number of constants supplied.
        consts: usize,
    },
    /// An attribute name was not part of the schema.
    UnknownAttribute(String),
}

impl fmt::Display for FixRuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixRuleError::EmptyEvidence => {
                write!(f, "fixing rule must have a non-empty evidence pattern")
            }
            FixRuleError::EmptyNegativePatterns => {
                write!(f, "fixing rule must have at least one negative pattern")
            }
            FixRuleError::BInEvidence(a) => {
                write!(
                    f,
                    "attribute `{a}` cannot be both evidence and the repaired attribute B"
                )
            }
            FixRuleError::FactInNegativePatterns(v) => {
                write!(f, "fact `{v}` appears among the negative patterns")
            }
            FixRuleError::DuplicateEvidenceAttr(a) => {
                write!(f, "attribute `{a}` listed twice in the evidence pattern")
            }
            FixRuleError::EvidenceArityMismatch { attrs, consts } => {
                write!(f, "evidence has {attrs} attributes but {consts} constants")
            }
            FixRuleError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
        }
    }
}

impl std::error::Error for FixRuleError {}

/// A fixing rule `φ : ((X, tp[X]), (B, Tp[B])) → tp+[B]`.
///
/// Invariants enforced at construction:
///
/// 1. `X ≠ ∅` and `B ∉ X`;
/// 2. one constant per evidence attribute;
/// 3. `Tp[B] ≠ ∅` (a rule with no negative patterns can never match);
/// 4. `tp+[B] ∉ Tp[B]`.
///
/// Evidence attributes are stored sorted by [`AttrId`] and negative patterns
/// sorted by [`Symbol`], giving deterministic display and `O(log n)`
/// negative-pattern membership via binary search (the sets are tiny — the
/// hosp workload has mostly 2 patterns per rule, Fig 11a — so a sorted vec
/// beats a hash set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixingRule {
    x: Vec<AttrId>,
    tp: Vec<Symbol>,
    x_set: AttrSet,
    b: AttrId,
    neg: Vec<Symbol>,
    fact: Symbol,
}

impl FixingRule {
    /// Build a rule from raw parts.
    ///
    /// `evidence` pairs each attribute with its constant; `neg` lists the
    /// negative patterns of `b`; `fact` is `tp+[B]`.
    pub fn new(
        evidence: Vec<(AttrId, Symbol)>,
        b: AttrId,
        mut neg: Vec<Symbol>,
        fact: Symbol,
    ) -> Result<Self, FixRuleError> {
        if evidence.is_empty() {
            return Err(FixRuleError::EmptyEvidence);
        }
        if neg.is_empty() {
            return Err(FixRuleError::EmptyNegativePatterns);
        }
        let mut evidence = evidence;
        evidence.sort_by_key(|&(a, _)| a);
        let mut x_set = AttrSet::new();
        for &(a, _) in &evidence {
            if !x_set.insert(a) {
                return Err(FixRuleError::DuplicateEvidenceAttr(format!("{a}")));
            }
        }
        if x_set.contains(b) {
            return Err(FixRuleError::BInEvidence(format!("{b}")));
        }
        neg.sort();
        neg.dedup();
        if neg.binary_search(&fact).is_ok() {
            return Err(FixRuleError::FactInNegativePatterns(format!("{fact}")));
        }
        let (x, tp) = evidence.into_iter().unzip();
        Ok(FixingRule {
            x,
            tp,
            x_set,
            b,
            neg,
            fact,
        })
    }

    /// Build a rule from attribute names and string values, interning into
    /// `symbols`.
    pub fn from_named(
        schema: &Schema,
        symbols: &mut SymbolTable,
        evidence: &[(&str, &str)],
        b: &str,
        neg: &[&str],
        fact: &str,
    ) -> Result<Self, FixRuleError> {
        let mut ev = Vec::with_capacity(evidence.len());
        for &(attr, value) in evidence {
            let a = schema
                .attr(attr)
                .ok_or_else(|| FixRuleError::UnknownAttribute(attr.to_string()))?;
            ev.push((a, symbols.intern(value)));
        }
        let b = schema
            .attr(b)
            .ok_or_else(|| FixRuleError::UnknownAttribute(b.to_string()))?;
        let neg = neg.iter().map(|v| symbols.intern(v)).collect();
        let fact = symbols.intern(fact);
        FixingRule::new(ev, b, neg, fact)
    }

    /// Evidence attributes `X`, sorted by id.
    #[inline]
    pub fn x(&self) -> &[AttrId] {
        &self.x
    }

    /// Evidence constants `tp[X]`, aligned with [`FixingRule::x`].
    #[inline]
    pub fn tp(&self) -> &[Symbol] {
        &self.tp
    }

    /// Evidence attributes as a bitset.
    #[inline]
    pub fn x_set(&self) -> AttrSet {
        self.x_set
    }

    /// The repaired attribute `B`.
    #[inline]
    pub fn b(&self) -> AttrId {
        self.b
    }

    /// Negative patterns `Tp[B]`, sorted.
    #[inline]
    pub fn neg(&self) -> &[Symbol] {
        &self.neg
    }

    /// The fact `tp+[B]`.
    #[inline]
    pub fn fact(&self) -> Symbol {
        self.fact
    }

    /// `X ∪ {B}` — the attributes marked assured when the rule is applied.
    #[inline]
    pub fn assured_delta(&self) -> AttrSet {
        let mut s = self.x_set;
        s.insert(self.b);
        s
    }

    /// The evidence constant for attribute `a`, if `a ∈ X`.
    pub fn evidence_value(&self, a: AttrId) -> Option<Symbol> {
        self.x.binary_search(&a).ok().map(|i| self.tp[i])
    }

    /// True when `v ∈ Tp[B]`.
    #[inline]
    pub fn neg_contains(&self, v: Symbol) -> bool {
        self.neg.binary_search(&v).is_ok()
    }

    /// Number of pattern cells (`|X| + |Tp[B]| + 1`); `size(Σ)` in the
    /// paper's complexity bounds is the sum of this over the rule set.
    pub fn size(&self) -> usize {
        self.x.len() + self.neg.len() + 1
    }

    /// Rebuild the rule with additional negative patterns (the §7.1
    /// enrichment move). Values equal to the fact are skipped rather than
    /// erroring, since enrichment pools are fact-agnostic.
    pub fn with_extra_negatives(&self, extra: &[Symbol]) -> Self {
        let mut neg = self.neg.clone();
        neg.extend(extra.iter().copied().filter(|&v| v != self.fact));
        let evidence: Vec<(AttrId, Symbol)> = self
            .x
            .iter()
            .copied()
            .zip(self.tp.iter().copied())
            .collect();
        FixingRule::new(evidence, self.b, neg, self.fact)
            .expect("rebuilding a valid rule with filtered negatives cannot fail")
    }

    /// Rebuild the rule keeping only the first `n` negative patterns (at
    /// least one). Since every inconsistency condition of Fig 4 requires
    /// membership in `Tp[B]`, capping negatives preserves consistency of
    /// any rule set — used by the Fig 11(b) total-negative-patterns sweep.
    pub fn with_capped_negatives(&self, n: usize) -> Self {
        let mut capped = self.clone();
        capped.neg.truncate(n.max(1));
        capped
    }

    /// Remove one negative pattern (the §5.3 expert resolution move).
    /// Returns false (and leaves the rule unchanged) if removing it would
    /// leave `Tp[B]` empty or the value was absent.
    pub fn remove_negative_pattern(&mut self, v: Symbol) -> bool {
        if self.neg.len() <= 1 {
            return false;
        }
        match self.neg.binary_search(&v) {
            Ok(i) => {
                self.neg.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Render using attribute names and resolved values, in the paper's
    /// notation.
    pub fn display(&self, schema: &Schema, symbols: &SymbolTable) -> String {
        let ev_attrs = self
            .x
            .iter()
            .map(|&a| schema.attr_name(a))
            .collect::<Vec<_>>()
            .join(", ");
        let ev_vals = self
            .tp
            .iter()
            .map(|&s| symbols.resolve(s))
            .collect::<Vec<_>>()
            .join(", ");
        let negs = self
            .neg
            .iter()
            .map(|&s| symbols.resolve(s))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "((([{ev_attrs}], [{ev_vals}]), ({}, {{{negs}}})) -> {})",
            schema.attr_name(self.b),
            symbols.resolve(self.fact)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
    }

    fn phi1(schema: &Schema, sy: &mut SymbolTable) -> FixingRule {
        FixingRule::from_named(
            schema,
            sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        )
        .unwrap()
    }

    #[test]
    fn builds_phi1() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let r = phi1(&schema, &mut sy);
        assert_eq!(r.x(), &[schema.attr("country").unwrap()]);
        assert_eq!(r.b(), schema.attr("capital").unwrap());
        assert_eq!(r.neg().len(), 2);
        assert_eq!(sy.resolve(r.fact()), "Beijing");
        assert_eq!(r.size(), 4);
    }

    #[test]
    fn empty_evidence_rejected() {
        let mut sy = SymbolTable::new();
        let s = sy.intern("x");
        let err = FixingRule::new(vec![], AttrId(0), vec![s], s).unwrap_err();
        assert_eq!(err, FixRuleError::EmptyEvidence);
    }

    #[test]
    fn empty_negatives_rejected() {
        let mut sy = SymbolTable::new();
        let v = sy.intern("x");
        let err = FixingRule::new(vec![(AttrId(0), v)], AttrId(1), vec![], v).unwrap_err();
        assert_eq!(err, FixRuleError::EmptyNegativePatterns);
    }

    #[test]
    fn b_in_x_rejected() {
        let mut sy = SymbolTable::new();
        let v = sy.intern("x");
        let w = sy.intern("y");
        let err = FixingRule::new(vec![(AttrId(0), v)], AttrId(0), vec![v], w).unwrap_err();
        assert!(matches!(err, FixRuleError::BInEvidence(_)));
    }

    #[test]
    fn fact_in_negatives_rejected() {
        // Condition (4): Beijing cannot be both the fact and a negative.
        let schema = schema();
        let mut sy = SymbolTable::new();
        let err = FixingRule::from_named(
            &schema,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Beijing", "Shanghai"],
            "Beijing",
        )
        .unwrap_err();
        assert!(matches!(err, FixRuleError::FactInNegativePatterns(_)));
    }

    #[test]
    fn duplicate_evidence_attr_rejected() {
        let mut sy = SymbolTable::new();
        let v = sy.intern("a");
        let err = FixingRule::new(
            vec![(AttrId(0), v), (AttrId(0), v)],
            AttrId(1),
            vec![v],
            sy.intern("b"),
        )
        .unwrap_err();
        assert!(matches!(err, FixRuleError::DuplicateEvidenceAttr(_)));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let err = FixingRule::from_named(
            &schema,
            &mut sy,
            &[("kountry", "China")],
            "capital",
            &["x"],
            "y",
        )
        .unwrap_err();
        assert_eq!(err, FixRuleError::UnknownAttribute("kountry".into()));
    }

    #[test]
    fn negative_patterns_deduped_and_sorted() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let r = FixingRule::from_named(
            &schema,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong", "Shanghai"],
            "Beijing",
        )
        .unwrap();
        assert_eq!(r.neg().len(), 2);
        assert!(r.neg().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn neg_contains_and_evidence_value() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let r = phi1(&schema, &mut sy);
        assert!(r.neg_contains(sy.get("Shanghai").unwrap()));
        assert!(!r.neg_contains(sy.get("Beijing").unwrap()));
        assert_eq!(
            r.evidence_value(schema.attr("country").unwrap()),
            Some(sy.get("China").unwrap())
        );
        assert_eq!(r.evidence_value(schema.attr("city").unwrap()), None);
    }

    #[test]
    fn remove_negative_pattern_keeps_rule_nonempty() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let mut r = phi1(&schema, &mut sy);
        let hk = sy.get("Hongkong").unwrap();
        let sh = sy.get("Shanghai").unwrap();
        assert!(r.remove_negative_pattern(hk));
        assert_eq!(r.neg().len(), 1);
        // Refuses to empty the set.
        assert!(!r.remove_negative_pattern(sh));
        assert_eq!(r.neg().len(), 1);
    }

    #[test]
    fn display_matches_paper_notation() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let r = phi1(&schema, &mut sy);
        let d = r.display(&schema, &sy);
        assert!(d.contains("[country], [China]"), "{d}");
        // Negative patterns are sorted by symbol id (interning order), so
        // just check both values are listed.
        assert!(d.contains("Hongkong") && d.contains("Shanghai"), "{d}");
        assert!(d.ends_with("-> Beijing)"), "{d}");
    }

    #[test]
    fn assured_delta_is_x_union_b() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let r = phi1(&schema, &mut sy);
        let delta = r.assured_delta();
        assert!(delta.contains(schema.attr("country").unwrap()));
        assert!(delta.contains(schema.attr("capital").unwrap()));
        assert_eq!(delta.len(), 2);
    }

    #[test]
    fn evidence_sorted_by_attr_id() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        // Supply evidence out of order; constructor must sort.
        let r = FixingRule::from_named(
            &schema,
            &mut sy,
            &[("conf", "ICDE"), ("capital", "Tokyo"), ("city", "Tokyo")],
            "country",
            &["China"],
            "Japan",
        )
        .unwrap();
        let ids: Vec<u16> = r.x().iter().map(|a| a.0).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        // Alignment preserved: capital -> Tokyo.
        assert_eq!(
            r.evidence_value(schema.attr("conf").unwrap()),
            Some(sy.get("ICDE").unwrap())
        );
    }
}
