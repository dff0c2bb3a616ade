//! `isConsist_r` — consistency by rule characterization (Fig 4).
//!
//! For each pair of distinct rules with compatible evidence, apply the case
//! analysis of §5.2.2:
//!
//! * **Case 1** (`Bi = Bj`): conflict iff the negative-pattern sets overlap
//!   and the facts differ — some tuple matches both rules and they pull `B`
//!   to different values.
//! * **Case 2(a)** (`Bi ∈ Xj`, `Bj ∉ Xi`): conflict iff `tp_j[Bi] ∈
//!   Tp_i[Bi]` — applying `φj` first freezes `Bi` as evidence, applying
//!   `φi` first rewrites it.
//! * **Case 2(b)**: symmetric.
//! * **Case 2(c)** (mutual): both 2(a)/2(b) pattern conditions must hold.
//! * **Case 2(d)** (`Bi ∉ Xj`, `Bj ∉ Xi`): never a conflict — the updates
//!   commute.
//!
//! Negative-pattern membership is a binary search over a tiny sorted vec, so
//! deciding one pair is `O(|Tp_i| + |Tp_j| + |Xi ∩ Xj|)` and the published
//! check, [`is_consistent_all_pairs`], is `O(size(Σ)²)` as stated in the
//! paper.
//!
//! Every conflicting case rests on an equality between two constants of the
//! pair: a shared value in `Tp_i[B] ∩ Tp_j[B]` (case 1) or an evidence
//! constant `tp_j[Bi]` inside `Tp_i[Bi]` (cases 2a–2c). So
//! [`is_consistent_characterize`] indexes Σ's negative patterns by
//! `(B, v)` and its evidence cells by `(A, tp[A])`, joins each rule's
//! constants against them, and runs [`check_pair`] only on the pairs the
//! join returns; every other pair is consistent by Fig 4. The report is the
//! one the all-pairs loop produces, `pairs_checked` included.

use relation::{AttrId, Symbol};

use crate::consistency::{evidence_compatible, Conflict, ConflictCase, ConsistencyReport};
use crate::rule::FixingRule;
use crate::ruleset::{RuleId, RuleSet};

/// Decide one pair of rules. Returns the case that makes them inconsistent,
/// or `None` when they are consistent.
pub fn check_pair(a: &FixingRule, b: &FixingRule) -> Option<ConflictCase> {
    // Line 2 of Fig 4: incompatible evidence ⇒ no tuple matches both
    // (Lemma 4) ⇒ consistent.
    if !evidence_compatible(a, b) {
        return None;
    }
    if a.b() == b.b() {
        // Case 1. Overlapping negatives with different facts.
        let overlap = if a.neg().len() <= b.neg().len() {
            a.neg().iter().any(|&v| b.neg_contains(v))
        } else {
            b.neg().iter().any(|&v| a.neg_contains(v))
        };
        if overlap && a.fact() != b.fact() {
            return Some(ConflictCase::SameBDifferentFacts);
        }
        return None;
    }
    let bi_in_xj = b.x_set().contains(a.b());
    let bj_in_xi = a.x_set().contains(b.b());
    match (bi_in_xj, bj_in_xi) {
        (true, false) => {
            // Case 2(a): tp_j[Bi] ∈ Tp_i[Bi].
            let tpj_bi = b.evidence_value(a.b()).expect("Bi ∈ Xj");
            if a.neg_contains(tpj_bi) {
                return Some(ConflictCase::BiInXj);
            }
            None
        }
        (false, true) => {
            // Case 2(b): tp_i[Bj] ∈ Tp_j[Bj].
            let tpi_bj = a.evidence_value(b.b()).expect("Bj ∈ Xi");
            if b.neg_contains(tpi_bj) {
                return Some(ConflictCase::BjInXi);
            }
            None
        }
        (true, true) => {
            // Case 2(c): both conditions.
            let tpj_bi = b.evidence_value(a.b()).expect("Bi ∈ Xj");
            let tpi_bj = a.evidence_value(b.b()).expect("Bj ∈ Xi");
            if a.neg_contains(tpj_bi) && b.neg_contains(tpi_bj) {
                return Some(ConflictCase::Mutual);
            }
            None
        }
        // Case 2(d): trivially consistent.
        (false, false) => None,
    }
}

/// Check a whole rule set pairwise (Proposition 3), stopping after
/// `max_conflicts` conflicts (pass 1 for the paper's "real case" behaviour
/// of Fig 9, `usize::MAX` for the worst case that inspects all pairs).
///
/// Only the pairs that share a constant through the indexes described in
/// the module doc are decided, but the report is exactly that of
/// [`is_consistent_all_pairs`]: the same conflicts in the same `(i, j)`
/// order, and `pairs_checked` counts the pairs the all-pairs loop would
/// have examined — `n(n−1)/2`, or the rank of the pair that reached
/// `max_conflicts`.
pub fn is_consistent_characterize(rules: &RuleSet, max_conflicts: usize) -> ConsistencyReport {
    let all = rules.rules();
    let n = all.len();
    let negatives = PatternIndex::new(all.iter().enumerate().flat_map(|(j, rule)| {
        rule.neg()
            .iter()
            .map(move |&v| (pattern_key(rule.b(), v), j as u32))
    }));
    let evidence = PatternIndex::new(all.iter().enumerate().flat_map(|(j, rule)| {
        rule.x()
            .iter()
            .zip(rule.tp())
            .map(move |(&a, &c)| (pattern_key(a, c), j as u32))
    }));
    let mut report = ConsistencyReport::default();
    // `stamp[j] == i` once j is among rule i's partners.
    let mut stamp = vec![u32::MAX; n];
    let mut partners: Vec<u32> = Vec::new();
    for (i, rule) in all.iter().enumerate() {
        let i = i as u32;
        partners.clear();
        let mut collect = |js: &[u32]| {
            for &j in js {
                if stamp[j as usize] != i {
                    stamp[j as usize] = i;
                    partners.push(j);
                }
            }
        };
        for &v in rule.neg() {
            let key = pattern_key(rule.b(), v);
            // Case 1: v is a negative of another rule repairing B.
            collect(negatives.after(key, i));
            // Cases 2(a)/2(c): another rule has B = v as evidence.
            collect(evidence.after(key, i));
        }
        for (&a, &c) in rule.x().iter().zip(rule.tp()) {
            // Cases 2(b)/2(c): this rule's evidence A = c is a negative of
            // another rule repairing A.
            collect(negatives.after(pattern_key(a, c), i));
        }
        partners.sort_unstable();
        for &j in &partners {
            if let Some(case) = check_pair(rule, &all[j as usize]) {
                report.conflicts.push(Conflict {
                    first: RuleId(i),
                    second: RuleId(j),
                    case,
                    witness: None,
                });
                if report.conflicts.len() >= max_conflicts {
                    report.pairs_checked = pair_rank(n, i as usize, j as usize);
                    return report;
                }
            }
        }
    }
    report.pairs_checked = n * n.saturating_sub(1) / 2;
    report
}

/// `isConsist_r` exactly as published: decide all `n(n−1)/2` pairs in
/// `(i, j)` order, stopping after `max_conflicts` conflicts. The reference
/// for [`is_consistent_characterize`], and the algorithm Exp-1 (Fig 9)
/// times.
pub fn is_consistent_all_pairs(rules: &RuleSet, max_conflicts: usize) -> ConsistencyReport {
    let mut report = ConsistencyReport::default();
    let n = rules.len();
    'outer: for i in 0..n {
        for j in (i + 1)..n {
            report.pairs_checked += 1;
            if let Some(case) =
                check_pair(rules.rule(RuleId(i as u32)), rules.rule(RuleId(j as u32)))
            {
                report.conflicts.push(Conflict {
                    first: RuleId(i as u32),
                    second: RuleId(j as u32),
                    case,
                    witness: None,
                });
                if report.conflicts.len() >= max_conflicts {
                    break 'outer;
                }
            }
        }
    }
    report
}

/// 1-based position of pair `(i, j)`, `i < j`, in the all-pairs order
/// `(0, 1), (0, 2), …, (n−2, n−1)`.
fn pair_rank(n: usize, i: usize, j: usize) -> usize {
    // Rows 0..i hold (n−1) + (n−2) + … + (n−i) pairs.
    i * (n - 1) - i * i.saturating_sub(1) / 2 + (j - i)
}

/// An `(attribute, constant)` pair packed into one sortable key.
fn pattern_key(attr: AttrId, value: Symbol) -> u64 {
    (u64::from(attr.0) << 32) | u64::from(value.0)
}

/// Read-only map from [`pattern_key`] to the ascending ids of the rules
/// that carry it, as one sorted array.
struct PatternIndex {
    keys: Vec<u64>,
    rules: Vec<u32>,
}

impl PatternIndex {
    fn new(entries: impl Iterator<Item = (u64, u32)>) -> Self {
        let mut entries: Vec<(u64, u32)> = entries.collect();
        entries.sort_unstable();
        let (keys, rules) = entries.into_iter().unzip();
        PatternIndex { keys, rules }
    }

    /// The rules with id greater than `i` that carry `key`.
    fn after(&self, key: u64, i: u32) -> &[u32] {
        let lo = self.keys.partition_point(|&k| k < key);
        let hi = lo + self.keys[lo..].partition_point(|&k| k == key);
        let run = &self.rules[lo..hi];
        &run[run.partition_point(|&j| j <= i)..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, SymbolTable};

    fn schema() -> Schema {
        Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
    }

    fn rule(
        schema: &Schema,
        sy: &mut SymbolTable,
        ev: &[(&str, &str)],
        b: &str,
        neg: &[&str],
        fact: &str,
    ) -> FixingRule {
        FixingRule::from_named(schema, sy, ev, b, neg, fact).unwrap()
    }

    #[test]
    fn example_10_phi1_prime_and_phi2_consistent() {
        // φ'1 (China) and φ2 (Canada) key on the same attribute with
        // different constants: no tuple matches both.
        let s = schema();
        let mut sy = SymbolTable::new();
        let p1p = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong", "Tokyo"],
            "Beijing",
        );
        let p2 = rule(
            &s,
            &mut sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        );
        assert_eq!(check_pair(&p1p, &p2), None);
    }

    #[test]
    fn example_10_phi1_prime_and_phi3_mutual_conflict() {
        // The paper's flagship inconsistency: capital ∈ X3, country ∈ X'1 —
        // case 2(c).
        let s = schema();
        let mut sy = SymbolTable::new();
        let p1p = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong", "Tokyo"],
            "Beijing",
        );
        let p3 = rule(
            &s,
            &mut sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        );
        assert_eq!(check_pair(&p1p, &p3), Some(ConflictCase::Mutual));
        // Symmetric invocation gives the same verdict.
        assert_eq!(check_pair(&p3, &p1p), Some(ConflictCase::Mutual));
    }

    #[test]
    fn phi1_and_phi3_consistent_after_expert_shrink() {
        // Removing Tokyo from φ'1's negatives (the §5.3 expert fix) makes
        // the pair consistent.
        let s = schema();
        let mut sy = SymbolTable::new();
        let p1 = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        );
        let p3 = rule(
            &s,
            &mut sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        );
        assert_eq!(check_pair(&p1, &p3), None);
    }

    #[test]
    fn case1_same_b_conflict() {
        let s = schema();
        let mut sy = SymbolTable::new();
        // Same evidence, overlapping negatives, different facts.
        let a = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        let b = rule(
            &s,
            &mut sy,
            &[("conf", "ICDE")],
            "capital",
            &["Shanghai"],
            "Nanjing",
        );
        assert_eq!(check_pair(&a, &b), Some(ConflictCase::SameBDifferentFacts));
    }

    #[test]
    fn case1_same_fact_is_consistent() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let a = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        let b = rule(
            &s,
            &mut sy,
            &[("conf", "ICDE")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        assert_eq!(check_pair(&a, &b), None);
    }

    #[test]
    fn case1_disjoint_negatives_is_consistent() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let a = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        let b = rule(
            &s,
            &mut sy,
            &[("conf", "ICDE")],
            "capital",
            &["Hongkong"],
            "Nanjing",
        );
        assert_eq!(check_pair(&a, &b), None);
    }

    #[test]
    fn case2a_conflict_and_nonconflict() {
        let s = schema();
        let mut sy = SymbolTable::new();
        // φi repairs capital with Tokyo among negatives; φj uses capital =
        // Tokyo as evidence to repair city. Bi (capital) ∈ Xj; Bj (city) ∉ Xi.
        let phi_i = rule(
            &s,
            &mut sy,
            &[("country", "Japan")],
            "capital",
            &["Tokyo"],
            "Kyoto",
        );
        let phi_j = rule(
            &s,
            &mut sy,
            &[("capital", "Tokyo")],
            "city",
            &["Osaka"],
            "Tokyo",
        );
        assert_eq!(check_pair(&phi_i, &phi_j), Some(ConflictCase::BiInXj));
        assert_eq!(check_pair(&phi_j, &phi_i), Some(ConflictCase::BjInXi));
        // If φj's evidence constant is not a negative of φi, no conflict.
        let phi_j2 = rule(
            &s,
            &mut sy,
            &[("capital", "Kyoto")],
            "city",
            &["Osaka"],
            "Kyoto2",
        );
        assert_eq!(check_pair(&phi_i, &phi_j2), None);
    }

    #[test]
    fn case2d_disjoint_updates_consistent() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let a = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        let b = rule(
            &s,
            &mut sy,
            &[("conf", "ICDE")],
            "city",
            &["Paris"],
            "Tokyo",
        );
        assert_eq!(check_pair(&a, &b), None);
    }

    #[test]
    fn ruleset_driver_reports_pairs_and_stops_early() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s.clone());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong", "Tokyo"],
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
        rs.push_named(
            &mut sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        )
        .unwrap();
        let full = is_consistent_characterize(&rs, usize::MAX);
        assert!(!full.is_consistent());
        assert_eq!(full.pairs_checked, 3);
        assert_eq!(full.conflicts.len(), 1);
        let early = is_consistent_characterize(&rs, 1);
        assert_eq!(early.conflicts.len(), 1);
        assert!(early.pairs_checked <= full.pairs_checked);
    }

    #[test]
    fn empty_and_singleton_sets_are_consistent() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s);
        assert!(is_consistent_characterize(&rs, usize::MAX).is_consistent());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        let rep = is_consistent_characterize(&rs, usize::MAX);
        assert!(rep.is_consistent());
        assert_eq!(rep.pairs_checked, 0);
    }
}
