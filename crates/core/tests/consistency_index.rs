//! The indexed `isConsist_r` against the published all-pairs loop.
//!
//! `is_consistent_characterize` decides only the pairs that share a
//! constant through its `(B, v ∈ Tp[B])` and `(A, tp[A])` indexes; every
//! report it returns must equal `is_consistent_all_pairs`'s: the same
//! conflicts (ids, order, Fig 4 case) and the same `pairs_checked`, for
//! every `max_conflicts`. The generator uses a tiny vocabulary so that
//! every Fig 4 case and incompatible evidence show up often; the last test
//! checks that they do.

use proptest::prelude::*;

use fixrules::consistency::{
    characterize::check_pair, is_consistent_all_pairs, is_consistent_characterize, ConflictCase,
};
use fixrules::{ConsistencyReport, FixingRule, RuleSet};
use relation::{AttrId, Schema, Symbol};

const ARITY: u16 = 5;
const VOCAB: u32 = 4;

fn schema() -> Schema {
    Schema::new("R", ["a0", "a1", "a2", "a3", "a4"]).unwrap()
}

/// Raw rule parts; invalid combinations (duplicate evidence attribute,
/// `B ∈ X`, fact among the negatives) are dropped by `FixingRule::new`.
type RawRule = (Vec<(u16, u32)>, u16, Vec<u32>, u32);

fn build(raws: Vec<RawRule>) -> RuleSet {
    let mut rules = RuleSet::new(schema());
    for (evidence, b, neg, fact) in raws {
        let evidence = evidence
            .into_iter()
            .map(|(a, v)| (AttrId(a), Symbol(v)))
            .collect();
        let neg = neg.into_iter().map(Symbol).collect();
        if let Ok(rule) = FixingRule::new(evidence, AttrId(b), neg, Symbol(fact)) {
            rules.push(rule);
        }
    }
    rules
}

fn rulesets() -> impl Strategy<Value = RuleSet> {
    let rule = (
        proptest::collection::vec((0..ARITY, 0..VOCAB), 1..3),
        0..ARITY,
        proptest::collection::vec(0..VOCAB, 1..3),
        0..VOCAB,
    );
    proptest::collection::vec(rule, 0..40).prop_map(build)
}

fn conflicts(report: &ConsistencyReport) -> Vec<(u32, u32, ConflictCase)> {
    report
        .conflicts
        .iter()
        .map(|c| (c.first.0, c.second.0, c.case))
        .collect()
}

proptest! {
    /// Same conflicts in the same order and the same `pairs_checked` as the
    /// all-pairs loop, whether the scan runs to the end or stops early.
    #[test]
    fn indexed_checker_matches_all_pairs(rules in rulesets()) {
        for max_conflicts in [1, 2, usize::MAX] {
            let indexed = is_consistent_characterize(&rules, max_conflicts);
            let reference = is_consistent_all_pairs(&rules, max_conflicts);
            prop_assert_eq!(
                conflicts(&indexed),
                conflicts(&reference),
                "max_conflicts {}",
                max_conflicts
            );
            prop_assert_eq!(
                indexed.pairs_checked,
                reference.pairs_checked,
                "max_conflicts {}",
                max_conflicts
            );
        }
    }
}

/// Evidence shares an attribute with different constants: no tuple
/// matches both rules, whatever their patterns say.
fn incompatible(a: &FixingRule, b: &FixingRule) -> bool {
    a.x()
        .iter()
        .zip(a.tp())
        .any(|(&attr, &v)| b.evidence_value(attr).is_some_and(|other| other != v))
}

/// Would the pair conflict if its evidence were ignored? Same test as
/// Fig 4's cases, without line 2.
fn patterns_clash(a: &FixingRule, b: &FixingRule) -> bool {
    if a.b() == b.b() {
        return a.fact() != b.fact() && a.neg().iter().any(|&v| b.neg_contains(v));
    }
    let forward = b.evidence_value(a.b()).map(|v| a.neg_contains(v));
    let backward = a.evidence_value(b.b()).map(|v| b.neg_contains(v));
    match (forward, backward) {
        (Some(f), Some(bk)) => f && bk,
        (Some(clash), None) | (None, Some(clash)) => clash,
        (None, None) => false,
    }
}

#[test]
fn generator_reaches_every_case_and_incompatible_evidence() {
    let runner = proptest::TestRunner::new("consistency_index::coverage");
    let strategy = rulesets();
    let (mut same_b, mut bi_in_xj, mut bj_in_xi, mut mutual, mut blocked) = (0, 0, 0, 0, 0);
    for case in 0..64 {
        let rules = strategy.generate(&mut runner.rng_for_case(case));
        let all = rules.rules();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                match check_pair(&all[i], &all[j]) {
                    Some(ConflictCase::SameBDifferentFacts) => same_b += 1,
                    Some(ConflictCase::BiInXj) => bi_in_xj += 1,
                    Some(ConflictCase::BjInXi) => bj_in_xi += 1,
                    Some(ConflictCase::Mutual) => mutual += 1,
                    None if incompatible(&all[i], &all[j]) && patterns_clash(&all[i], &all[j]) => {
                        blocked += 1
                    }
                    None => {}
                }
            }
        }
    }
    let counts = [same_b, bi_in_xj, bj_in_xi, mutual, blocked];
    assert!(counts.iter().all(|&c| c >= 10), "{counts:?}");
}
