//! The implication problem (§4.3).
//!
//! `Σ |= φ` iff (i) `Σ ∪ {φ}` is consistent and (ii) every tuple reaches the
//! same fix under `Σ` and under `Σ ∪ {φ}` — i.e. `φ` is redundant.
//!
//! The problem is coNP-complete in general (Theorem 2) but PTIME for a
//! *fixed* schema: by the small-model property it suffices to check tuples
//! whose cells are drawn, per attribute, from the constants mentioned in
//! `Σ ∪ {φ}` plus one fresh value outside every pattern. This module
//! implements that fixed-schema checker with an explicit budget on the
//! number of candidate tuples (the space is `Π_A (|V(A)|+1)`, polynomial for
//! fixed `|R|` but still potentially large).

use std::collections::BTreeMap;

use relation::{AttrId, Symbol};

use crate::consistency::enumerate::WILDCARD;
use crate::consistency::is_consistent_characterize;
use crate::repair::chase::crepair_tuple;
use crate::rule::FixingRule;
use crate::ruleset::RuleSet;

/// Why `Σ |= φ` failed, or that the check could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImplicationOutcome {
    /// `φ` is implied: adding it changes no fix.
    Implied,
    /// `Σ ∪ {φ}` is inconsistent (condition (i) fails).
    ExtensionInconsistent,
    /// A tuple whose fixes differ was found (condition (ii) fails).
    NotImplied {
        /// The differing tuple.
        witness: Vec<Symbol>,
    },
    /// The candidate space exceeded the supplied budget, so the check ran
    /// out before deciding: `φ` was neither proved implied nor refuted.
    /// Callers must treat this as "don't know", never as a refutation.
    Unknown {
        /// Size of the space that was refused, or `usize::MAX` when that
        /// size overflows.
        candidates: usize,
    },
}

/// Build the per-attribute small-model value pools for `Σ ∪ {φ}`: every
/// constant mentioned for the attribute anywhere in the extended set
/// (evidence, negative patterns, facts), plus the wildcard. Facts are
/// included because a fact of one rule can be the evidence of another on
/// the *initial* tuple.
fn small_model_domains(extended: &RuleSet) -> BTreeMap<AttrId, Vec<Symbol>> {
    let mut values: BTreeMap<AttrId, Vec<Symbol>> = BTreeMap::new();
    for attr in extended.schema().attr_ids() {
        values.insert(attr, vec![WILDCARD]);
    }
    for rule in extended.rules() {
        for (&attr, &val) in rule.x().iter().zip(rule.tp().iter()) {
            values.get_mut(&attr).expect("schema attr").push(val);
        }
        let b = values.get_mut(&rule.b()).expect("schema attr");
        b.extend_from_slice(rule.neg());
        b.push(rule.fact());
    }
    for vals in values.values_mut() {
        vals.sort();
        vals.dedup();
    }
    values
}

/// Number of candidate tuples [`implies`] inspects for `Σ |= φ` — the
/// product `Π_A (|V(A)|)` over the small-model pools. Callers can pre-size
/// budgets with this: `implies(rules, phi, model_size(rules, phi))` always
/// decides.
pub fn model_size(rules: &RuleSet, phi: &FixingRule) -> usize {
    let mut extended = rules.clone();
    extended.push(phi.clone());
    small_model_domains(&extended)
        .values()
        .fold(1usize, |acc, vals| acc.saturating_mul(vals.len()))
}

/// Check whether a consistent `Σ` implies `φ`.
///
/// ```
/// use relation::{Schema, SymbolTable};
/// use fixrules::{FixingRule, RuleSet};
/// use fixrules::implication::{implies, ImplicationOutcome};
///
/// let schema = Schema::new("T", ["country", "capital"]).unwrap();
/// let mut sy = SymbolTable::new();
/// let mut rules = RuleSet::new(schema.clone());
/// rules.push_named(&mut sy, &[("country", "China")], "capital",
///                  &["Shanghai", "Hongkong"], "Beijing").unwrap();
/// // A narrower duplicate is redundant.
/// let narrower = FixingRule::from_named(&schema, &mut sy,
///     &[("country", "China")], "capital", &["Shanghai"], "Beijing").unwrap();
/// assert_eq!(implies(&rules, &narrower, 1 << 20), ImplicationOutcome::Implied);
/// ```
///
/// `Σ` must be consistent (checked by `debug_assert` only — callers come
/// from workflows that established it). `budget` caps the number of
/// candidate tuples inspected.
pub fn implies(rules: &RuleSet, phi: &FixingRule, budget: usize) -> ImplicationOutcome {
    debug_assert!(
        is_consistent_characterize(rules, 1).is_consistent(),
        "implication requires a consistent Σ"
    );
    // Condition (i): Σ ∪ {φ} consistent.
    let mut extended = rules.clone();
    extended.push(phi.clone());
    if !is_consistent_characterize(&extended, 1).is_consistent() {
        return ImplicationOutcome::ExtensionInconsistent;
    }
    implies_consistent(rules, &extended, budget)
}

/// [`implies`] when condition (i) is known to hold: `extended` is `Σ ∪
/// {φ}`, in any rule order, and is consistent, so only condition (ii) is
/// checked. For a rule φ of a consistent Σ, `implies_consistent(Σ∖φ, Σ,
/// budget)` decides whether the rest of Σ implies φ. The outcome is the
/// one [`implies`] gives: the small-model domains are sorted sets, and
/// cRepair's fix under a consistent set does not depend on rule order.
pub fn implies_consistent(
    rules: &RuleSet,
    extended: &RuleSet,
    budget: usize,
) -> ImplicationOutcome {
    debug_assert_eq!(extended.len(), rules.len() + 1);
    debug_assert!(
        is_consistent_characterize(extended, 1).is_consistent(),
        "implication requires a consistent Σ ∪ {{φ}}"
    );
    let values = small_model_domains(extended);
    let total = values
        .values()
        .fold(1usize, |acc, vals| acc.saturating_mul(vals.len()));
    if total > budget {
        return ImplicationOutcome::Unknown { candidates: total };
    }

    // Condition (ii): chase every candidate under both sets.
    let attrs: Vec<AttrId> = values.keys().copied().collect();
    let domains: Vec<&Vec<Symbol>> = values.values().collect();
    let mut indices = vec![0usize; attrs.len()];
    let arity = rules.schema().arity();
    let mut row = vec![WILDCARD; arity];
    loop {
        for (k, &attr) in attrs.iter().enumerate() {
            row[attr.index()] = domains[k][indices[k]];
        }
        let mut under_sigma = row.clone();
        crepair_tuple(rules, &mut under_sigma);
        let mut under_ext = row.clone();
        crepair_tuple(extended, &mut under_ext);
        if under_sigma != under_ext {
            return ImplicationOutcome::NotImplied { witness: row };
        }
        let mut k = 0;
        loop {
            if k == indices.len() {
                return ImplicationOutcome::Implied;
            }
            indices[k] += 1;
            if indices[k] < domains[k].len() {
                break;
            }
            indices[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, SymbolTable};

    fn schema() -> Schema {
        Schema::new("T", ["country", "capital", "city"]).unwrap()
    }

    #[test]
    fn narrower_rule_is_implied() {
        // φ with a subset of an existing rule's negative patterns and the
        // same fact adds nothing.
        let s = schema();
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
        let narrower = FixingRule::from_named(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        assert_eq!(
            implies(&rs, &narrower, 1 << 20),
            ImplicationOutcome::Implied
        );
    }

    #[test]
    fn broader_rule_is_not_implied() {
        // φ covering a new negative pattern (Nanjing) repairs tuples Σ does
        // not touch.
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s.clone());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        let broader = FixingRule::from_named(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Nanjing"],
            "Beijing",
        )
        .unwrap();
        match implies(&rs, &broader, 1 << 20) {
            ImplicationOutcome::NotImplied { witness } => {
                // Witness must be a (China, Nanjing, _) tuple.
                assert_eq!(witness[0], sy.get("China").unwrap());
                assert_eq!(witness[1], sy.get("Nanjing").unwrap());
            }
            other => panic!("expected NotImplied, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_extension_detected() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s.clone());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        let conflicting = FixingRule::from_named(
            &s,
            &mut sy,
            &[("city", "Pudong")],
            "capital",
            &["Shanghai"],
            "Nanjing",
        )
        .unwrap();
        assert_eq!(
            implies(&rs, &conflicting, 1 << 20),
            ImplicationOutcome::ExtensionInconsistent
        );
    }

    #[test]
    fn duplicate_rule_is_implied() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s.clone());
        rs.push_named(
            &mut sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
        let dup = rs.rule(crate::ruleset::RuleId(0)).clone();
        assert_eq!(implies(&rs, &dup, 1 << 20), ImplicationOutcome::Implied);
    }

    #[test]
    fn budget_is_respected() {
        let s = schema();
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
        let phi = FixingRule::from_named(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        match implies(&rs, &phi, 1) {
            ImplicationOutcome::Unknown { candidates } => assert!(candidates > 1),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn budget_boundary_is_exact() {
        // A budget of exactly the model size decides; one less is Unknown.
        let s = schema();
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
        let phi = FixingRule::from_named(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        let size = model_size(&rs, &phi);
        // country {China, _} × capital {Shanghai, Hongkong, Beijing, _} × city {_}.
        assert_eq!(size, 8);
        assert_eq!(implies(&rs, &phi, size), ImplicationOutcome::Implied);
        assert_eq!(
            implies(&rs, &phi, size - 1),
            ImplicationOutcome::Unknown { candidates: size }
        );
    }

    #[test]
    fn unknown_is_not_a_refutation() {
        // The same φ that is NotImplied with enough budget must come back
        // Unknown — not NotImplied — when the budget is too small.
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s.clone());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        let broader = FixingRule::from_named(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Nanjing"],
            "Beijing",
        )
        .unwrap();
        let size = model_size(&rs, &broader);
        assert!(matches!(
            implies(&rs, &broader, size),
            ImplicationOutcome::NotImplied { .. }
        ));
        assert_eq!(
            implies(&rs, &broader, size - 1),
            ImplicationOutcome::Unknown { candidates: size }
        );
    }

    #[test]
    fn cascade_composition_is_implied() {
        // Σ contains A-fix then B-fix chained; φ performing the second hop
        // directly on the already-correct evidence is implied.
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s.clone());
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
            &[("capital", "Beijing")],
            "city",
            &["Hongkong"],
            "Shanghai",
        )
        .unwrap();
        // φ: same second hop with the same semantics, narrower trigger.
        let phi = FixingRule::from_named(
            &s,
            &mut sy,
            &[("country", "China"), ("capital", "Beijing")],
            "city",
            &["Hongkong"],
            "Shanghai",
        )
        .unwrap();
        assert_eq!(implies(&rs, &phi, 1 << 20), ImplicationOutcome::Implied);
    }
}
