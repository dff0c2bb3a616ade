//! Consistency analysis of rule sets (§4.2, §5).
//!
//! A set `Σ` is *consistent* iff every tuple has a unique fix. Proposition 3
//! reduces this to **pairwise** consistency, so both checkers enumerate
//! pairs of distinct rules and decide each pair:
//!
//! * [`characterize`] — `isConsist_r` (Fig 4): decide a pair by a constant
//!   number of pattern-set tests; `O(size(Σ)²)` overall as published
//!   ([`is_consistent_all_pairs`]), and only over the pairs that share a
//!   constant in [`is_consistent_characterize`].
//! * [`enumerate`] — `isConsist_t` (§5.2.1): build the finite witness-tuple
//!   space from the pair's constants and chase every candidate in all
//!   orders.
//!
//! [`resolve`] implements the §5.3 strategies for repairing an inconsistent
//! rule set (conservative removal; negative-pattern shrinking).

pub mod characterize;
pub mod enumerate;
pub mod resolve;

pub use characterize::{is_consistent_all_pairs, is_consistent_characterize};
pub use enumerate::is_consistent_enumerate;

use obs::Event;
use relation::Symbol;

use crate::ruleset::{RuleId, RuleSet};

/// Which of the Fig 4 cases witnessed the conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictCase {
    /// Case 1: `Bi = Bj`, overlapping negative patterns, different facts.
    SameBDifferentFacts,
    /// Case 2(a): `Bi ∈ Xj`, `Bj ∉ Xi`, `tp_j[Bi] ∈ Tp_i[Bi]`.
    BiInXj,
    /// Case 2(b): symmetric to 2(a).
    BjInXi,
    /// Case 2(c): mutual — `Bi ∈ Xj` and `Bj ∈ Xi`, both pattern conditions.
    Mutual,
}

impl ConflictCase {
    /// Stable snake_case name, used as the observer's metric suffix
    /// (`consistency.conflicts.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            ConflictCase::SameBDifferentFacts => "same_b_different_facts",
            ConflictCase::BiInXj => "bi_in_xj",
            ConflictCase::BjInXi => "bj_in_xi",
            ConflictCase::Mutual => "mutual",
        }
    }
}

/// A pair of rules that can drive some tuple to two different fixpoints.
#[derive(Debug, Clone)]
pub struct Conflict {
    /// First rule of the pair (smaller id).
    pub first: RuleId,
    /// Second rule of the pair.
    pub second: RuleId,
    /// Which characterization case fired.
    pub case: ConflictCase,
    /// A witness tuple reaching two fixpoints, when produced by the
    /// enumeration checker (`isConsist_r` decides without materialising
    /// one).
    pub witness: Option<Vec<Symbol>>,
}

/// Result of a consistency check.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// Conflicting pairs found (bounded by the checker's `max_conflicts`).
    pub conflicts: Vec<Conflict>,
    /// Number of rule pairs examined before returning.
    pub pairs_checked: usize,
}

impl ConsistencyReport {
    /// True when no conflict was found.
    pub fn is_consistent(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// Feed this run's counts into an observer: total pairs examined, one
    /// `ConflictFound` per conflict (tagged with its Fig 4 case name).
    pub fn observe<O: obs::RepairObserver>(&self, observer: &O) {
        observer.event(Event::PairsChecked {
            pairs: self.pairs_checked,
        });
        for conflict in &self.conflicts {
            observer.event(Event::ConflictFound {
                case: conflict.case.name(),
            });
        }
    }

    /// Distinct rules participating in some conflict.
    pub fn conflicting_rules(&self) -> Vec<RuleId> {
        let mut ids: Vec<RuleId> = self
            .conflicts
            .iter()
            .flat_map(|c| [c.first, c.second])
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }
}

/// Decide whether the evidence patterns of two rules are *compatible*:
/// `Xi ∩ Xj = ∅` or `tp_i[Xi ∩ Xj] = tp_j[Xi ∩ Xj]` (line 2 of Fig 4).
/// Incompatible evidence means no tuple can match both rules, so the pair is
/// consistent by Lemma 4.
pub(crate) fn evidence_compatible(
    a: &crate::rule::FixingRule,
    b: &crate::rule::FixingRule,
) -> bool {
    let shared = a.x_set().intersect(b.x_set());
    shared
        .iter()
        .all(|attr| a.evidence_value(attr) == b.evidence_value(attr))
}

/// Incrementally check one candidate rule against an already-consistent
/// set: by Proposition 3 only the `|Σ|` new pairs need inspection, so
/// authoring workflows can validate each added rule in `O(size(Σ))` instead
/// of re-running the whole-set check.
///
/// Returns the conflicts the candidate would introduce (empty = safe to
/// push).
pub fn check_candidate(rules: &RuleSet, candidate: &crate::rule::FixingRule) -> Vec<Conflict> {
    let candidate_id = RuleId(rules.len() as u32);
    rules
        .iter()
        .filter_map(|(id, existing)| {
            characterize::check_pair(existing, candidate).map(|case| Conflict {
                first: id,
                second: candidate_id,
                case,
                witness: None,
            })
        })
        .collect()
}

/// A materialized proof of a pairwise conflict: a concrete tuple together
/// with two distinct fixes it can reach under the pair, depending on which
/// rule fires first. This is the evidence a diagnostic can show a rule
/// author — "on this valuation, your rules disagree".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictWitness {
    /// The witness tuple; attributes untouched by either rule hold
    /// [`enumerate::WILDCARD`].
    pub tuple: Vec<Symbol>,
    /// Two distinct fixpoints reachable from `tuple`, in sorted order.
    pub fixes: [Vec<Symbol>; 2],
}

/// Materialize a [`ConflictWitness`] for a conflict reported by either
/// checker. Enumerates the pair's candidate-tuple space (skipped, returning
/// `None`, when larger than `max_candidates`) and chases the witness tuple
/// in all rule orders; deterministic because the enumeration order and the
/// fixpoint set ([`crate::semantics::all_fixes`], a `BTreeSet`) are.
pub fn conflict_witness(
    rules: &RuleSet,
    conflict: &Conflict,
    max_candidates: usize,
) -> Option<ConflictWitness> {
    let a = rules.rule(conflict.first);
    let b = rules.rule(conflict.second);
    if enumerate::enumeration_size(a, b) > max_candidates {
        return None;
    }
    let tuple = match &conflict.witness {
        Some(tuple) => tuple.clone(),
        None => enumerate::check_pair_enumerate(a, b, rules.schema().arity())?,
    };
    let mut fixes = crate::semantics::all_fixes(&[a, b], &tuple).into_iter();
    match (fixes.next(), fixes.next()) {
        (Some(first), Some(second)) => Some(ConflictWitness {
            tuple,
            fixes: [first, second],
        }),
        _ => None,
    }
}

/// Convenience: check a whole rule set with both algorithms and assert they
/// agree (used by tests and the eval harness in debug runs).
pub fn check_both_agree(rules: &RuleSet) -> (ConsistencyReport, ConsistencyReport) {
    let r = is_consistent_characterize(rules, usize::MAX);
    let t = is_consistent_enumerate(rules, usize::MAX);
    debug_assert_eq!(r.is_consistent(), t.is_consistent());
    (r, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, SymbolTable};

    #[test]
    fn evidence_compatibility() {
        let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
        let mut sy = SymbolTable::new();
        let china = crate::rule::FixingRule::from_named(
            &schema,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        let canada = crate::rule::FixingRule::from_named(
            &schema,
            &mut sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
        let disjoint = crate::rule::FixingRule::from_named(
            &schema,
            &mut sy,
            &[("conf", "ICDE")],
            "city",
            &["Paris"],
            "Tokyo",
        )
        .unwrap();
        // Same X, different constants: incompatible.
        assert!(!evidence_compatible(&china, &canada));
        // Disjoint X: compatible.
        assert!(evidence_compatible(&china, &disjoint));
        // Identity: compatible.
        assert!(evidence_compatible(&china, &china));
    }

    #[test]
    fn conflict_witness_materializes_two_fixes() {
        // Example 8: φ'1 (Tokyo among the negatives) conflicts with φ3.
        let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rules = RuleSet::new(schema.clone());
        rules
            .push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai", "Hongkong", "Tokyo"],
                "Beijing",
            )
            .unwrap();
        rules
            .push_named(
                &mut sy,
                &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
                "country",
                &["China"],
                "Japan",
            )
            .unwrap();
        let report = is_consistent_characterize(&rules, usize::MAX);
        assert_eq!(report.conflicts.len(), 1);
        let witness =
            conflict_witness(&rules, &report.conflicts[0], 1 << 16).expect("witness space is tiny");
        assert_ne!(witness.fixes[0], witness.fixes[1]);
        // The two fixes disagree on country and/or capital.
        let country = schema.attr("country").unwrap().index();
        let capital = schema.attr("capital").unwrap().index();
        assert!(
            witness.fixes[0][country] != witness.fixes[1][country]
                || witness.fixes[0][capital] != witness.fixes[1][capital]
        );
        // A zero budget refuses to enumerate.
        assert_eq!(conflict_witness(&rules, &report.conflicts[0], 0), None);
    }

    #[test]
    fn report_collects_conflicting_rules() {
        let report = ConsistencyReport {
            conflicts: vec![
                Conflict {
                    first: RuleId(0),
                    second: RuleId(2),
                    case: ConflictCase::Mutual,
                    witness: None,
                },
                Conflict {
                    first: RuleId(2),
                    second: RuleId(3),
                    case: ConflictCase::BiInXj,
                    witness: None,
                },
            ],
            pairs_checked: 6,
        };
        assert!(!report.is_consistent());
        assert_eq!(
            report.conflicting_rules(),
            vec![RuleId(0), RuleId(2), RuleId(3)]
        );
    }
}
