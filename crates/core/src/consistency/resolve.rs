//! Resolving inconsistent rule sets (§5.3) and the §5.1 workflow.
//!
//! Two strategies are offered:
//!
//! * [`Strategy::Conservative`] — remove every rule participating in a
//!   conflict. Guaranteed to terminate (the rule count strictly decreases)
//!   but may discard useful rules, as the paper notes.
//! * [`Strategy::ShrinkNegatives`] — the automated "expert": for each
//!   conflict, delete the offending negative pattern(s) (e.g. remove
//!   `Tokyo` from φ'1, recovering φ1), falling back to rule removal when a
//!   rule would be left with no negative patterns. Mirrors the restriction
//!   that experts may only *remove* negative patterns or rules, never add —
//!   which is what makes the workflow terminate.

use relation::Symbol;

use crate::consistency::{is_consistent_characterize, Conflict, ConflictCase};
use crate::ruleset::{RuleId, RuleSet};

/// How to resolve conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Drop every rule involved in any conflict.
    Conservative,
    /// Shrink negative patterns where possible, drop rules otherwise.
    ShrinkNegatives,
}

/// One resolution action taken by the workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// A rule was removed outright.
    RemovedRule(RuleId),
    /// One negative pattern was removed from a rule.
    RemovedNegative(RuleId, Symbol),
}

/// Outcome of [`ensure_consistent`]: the actions applied, in order, and the
/// number of check→resolve rounds.
#[derive(Debug, Clone, Default)]
pub struct ResolutionLog {
    /// Actions in application order.
    pub actions: Vec<Action>,
    /// Number of consistency checks performed (workflow rounds + final).
    pub rounds: usize,
}

impl ResolutionLog {
    /// Count of removed rules.
    pub fn rules_removed(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, Action::RemovedRule(_)))
            .count()
    }

    /// Count of removed negative patterns.
    pub fn negatives_removed(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, Action::RemovedNegative(..)))
            .count()
    }
}

/// Run the §5.1 workflow: check, resolve, repeat until consistent.
///
/// Termination: every round either removes a negative pattern or a rule, and
/// neither can be added back, so the total pattern count strictly decreases.
pub fn ensure_consistent(rules: &mut RuleSet, strategy: Strategy) -> ResolutionLog {
    let mut log = ResolutionLog::default();
    loop {
        log.rounds += 1;
        // Step 1: check. One conflict at a time keeps rule ids stable
        // within a round (`remove_rules` renumbers).
        let report = is_consistent_characterize(rules, 1);
        let Some(conflict) = report.conflicts.first() else {
            return log; // Step 3: consistent.
        };
        // Step 2: resolve.
        match strategy {
            Strategy::Conservative => {
                let victims = [conflict.first, conflict.second];
                for v in victims {
                    log.actions.push(Action::RemovedRule(v));
                }
                rules.remove_rules(&victims);
            }
            Strategy::ShrinkNegatives => resolve_by_shrinking(rules, conflict, &mut log),
        }
    }
}

/// Batch variant of [`ensure_consistent`] with
/// [`Strategy::ShrinkNegatives`]: each round runs one full pairwise check,
/// applies the shrink move for *every* reported conflict, defers rule
/// removals to the end of the round (so conflict rule-ids stay valid), and
/// repeats. Equivalent fixpoint guarantees, far fewer whole-set check
/// rounds — use this for machine-generated rule sets in the thousands.
pub fn ensure_consistent_batch(rules: &mut RuleSet) -> ResolutionLog {
    let mut log = ResolutionLog::default();
    loop {
        log.rounds += 1;
        let report = is_consistent_characterize(rules, usize::MAX);
        if report.conflicts.is_empty() {
            return log;
        }
        let mut to_remove: Vec<RuleId> = Vec::new();
        for conflict in &report.conflicts {
            if to_remove.contains(&conflict.first) || to_remove.contains(&conflict.second) {
                continue; // already resolved by a pending removal
            }
            // Re-verify: an earlier shrink this round may have already
            // resolved this pair.
            let Some(case) =
                characterize::check_pair(rules.rule(conflict.first), rules.rule(conflict.second))
            else {
                continue;
            };
            let refreshed = Conflict {
                first: conflict.first,
                second: conflict.second,
                case,
                witness: None,
            };
            resolve_by_shrinking_deferred(rules, &refreshed, &mut log, &mut to_remove);
        }
        to_remove.sort();
        to_remove.dedup();
        rules.remove_rules(&to_remove);
    }
}

use crate::consistency::characterize;

/// Shrink move that defers rule removals into `to_remove` instead of
/// compacting immediately.
fn resolve_by_shrinking_deferred(
    rules: &mut RuleSet,
    conflict: &Conflict,
    log: &mut ResolutionLog,
    to_remove: &mut Vec<RuleId>,
) {
    let (i, j) = (conflict.first, conflict.second);
    let shrink_deferred = |rules: &mut RuleSet,
                           holder: RuleId,
                           evidence_rule: RuleId,
                           log: &mut ResolutionLog,
                           to_remove: &mut Vec<RuleId>| {
        let value = rules
            .rule(evidence_rule)
            .evidence_value(rules.rule(holder).b());
        match value {
            Some(v) if rules.rule_mut(holder).remove_negative_pattern(v) => {
                log.actions.push(Action::RemovedNegative(holder, v));
            }
            _ => {
                log.actions.push(Action::RemovedRule(holder));
                to_remove.push(holder);
            }
        }
    };
    match conflict.case {
        ConflictCase::SameBDifferentFacts => {
            let overlap: Vec<Symbol> = {
                let (a, b) = (rules.rule(i), rules.rule(j));
                a.neg()
                    .iter()
                    .copied()
                    .filter(|&v| b.neg_contains(v))
                    .collect()
            };
            let victim = if rules.rule(i).neg().len() >= rules.rule(j).neg().len() {
                i
            } else {
                j
            };
            let mut shrunk = false;
            for v in overlap {
                if rules.rule_mut(victim).remove_negative_pattern(v) {
                    log.actions.push(Action::RemovedNegative(victim, v));
                    shrunk = true;
                }
            }
            if !shrunk {
                log.actions.push(Action::RemovedRule(victim));
                to_remove.push(victim);
            }
        }
        ConflictCase::BiInXj => shrink_deferred(rules, i, j, log, to_remove),
        ConflictCase::BjInXi => shrink_deferred(rules, j, i, log, to_remove),
        ConflictCase::Mutual => {
            if rules.rule(i).neg().len() >= rules.rule(j).neg().len() {
                shrink_deferred(rules, i, j, log, to_remove);
            } else {
                shrink_deferred(rules, j, i, log, to_remove);
            }
        }
    }
}

/// Apply the expert move for one conflict: remove the negative pattern that
/// enables the conflict; if the rule would be left empty, remove the rule.
fn resolve_by_shrinking(rules: &mut RuleSet, conflict: &Conflict, log: &mut ResolutionLog) {
    let (i, j) = (conflict.first, conflict.second);
    match conflict.case {
        ConflictCase::SameBDifferentFacts => {
            // Remove the overlap from the rule with the larger negative set
            // (it is the more speculative one).
            let overlap: Vec<Symbol> = {
                let (a, b) = (rules.rule(i), rules.rule(j));
                a.neg()
                    .iter()
                    .copied()
                    .filter(|&v| b.neg_contains(v))
                    .collect()
            };
            let victim = if rules.rule(i).neg().len() >= rules.rule(j).neg().len() {
                i
            } else {
                j
            };
            let mut shrunk = false;
            for v in overlap {
                if rules.rule_mut(victim).remove_negative_pattern(v) {
                    log.actions.push(Action::RemovedNegative(victim, v));
                    shrunk = true;
                }
            }
            if !shrunk {
                log.actions.push(Action::RemovedRule(victim));
                rules.remove_rules(&[victim]);
            }
        }
        ConflictCase::BiInXj => shrink_one(rules, i, j, log),
        ConflictCase::BjInXi => shrink_one(rules, j, i, log),
        ConflictCase::Mutual => {
            // Breaking either direction suffices; shrink the rule with the
            // larger negative set first (the φ'1-style over-enrichment).
            if rules.rule(i).neg().len() >= rules.rule(j).neg().len() {
                shrink_one(rules, i, j, log);
            } else {
                shrink_one(rules, j, i, log);
            }
        }
    }
}

/// For a 2(a)-shaped conflict where `holder`'s negative patterns contain
/// `evidence_rule`'s evidence constant on `holder.b()`: remove that value
/// from `holder`, or remove `holder` when it cannot shrink.
fn shrink_one(rules: &mut RuleSet, holder: RuleId, evidence_rule: RuleId, log: &mut ResolutionLog) {
    let value = rules
        .rule(evidence_rule)
        .evidence_value(rules.rule(holder).b());
    match value {
        Some(v) if rules.rule_mut(holder).remove_negative_pattern(v) => {
            log.actions.push(Action::RemovedNegative(holder, v));
        }
        _ => {
            log.actions.push(Action::RemovedRule(holder));
            rules.remove_rules(&[holder]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, SymbolTable};

    fn schema() -> Schema {
        Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
    }

    /// The Example 8 set: φ'1 (over-broad), φ2, φ3.
    fn example8(sy: &mut SymbolTable) -> RuleSet {
        let mut rs = RuleSet::new(schema());
        rs.push_named(
            sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong", "Tokyo"],
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
        rs
    }

    #[test]
    fn shrinking_recovers_phi1_and_keeps_phi3() {
        // The expert fix of §5.3: remove Tokyo from φ'1, keep φ3.
        let mut sy = SymbolTable::new();
        let mut rs = example8(&mut sy);
        let log = ensure_consistent(&mut rs, Strategy::ShrinkNegatives);
        assert!(rs.check_consistency().is_consistent());
        assert_eq!(rs.len(), 3, "no rule should be dropped");
        assert_eq!(log.negatives_removed(), 1);
        assert_eq!(log.rules_removed(), 0);
        // φ'1 lost exactly Tokyo.
        let tokyo = sy.get("Tokyo").unwrap();
        assert!(!rs.rule(RuleId(0)).neg_contains(tokyo));
        assert_eq!(rs.rule(RuleId(0)).neg().len(), 2);
    }

    #[test]
    fn conservative_drops_both_conflicting_rules() {
        let mut sy = SymbolTable::new();
        let mut rs = example8(&mut sy);
        let log = ensure_consistent(&mut rs, Strategy::Conservative);
        assert!(rs.check_consistency().is_consistent());
        // φ'1 and φ3 are gone; φ2 survives.
        assert_eq!(rs.len(), 1);
        assert_eq!(log.rules_removed(), 2);
        let country = rs.schema().attr("country").unwrap();
        assert_eq!(rs.rule(RuleId(0)).evidence_value(country), sy.get("Canada"));
    }

    #[test]
    fn consistent_set_is_untouched() {
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        let log = ensure_consistent(&mut rs, Strategy::ShrinkNegatives);
        assert!(log.actions.is_empty());
        assert_eq!(log.rounds, 1);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn same_b_conflict_shrinks_overlap() {
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
            &[("conf", "ICDE")],
            "capital",
            &["Shanghai"],
            "Nanjing",
        )
        .unwrap();
        let log = ensure_consistent(&mut rs, Strategy::ShrinkNegatives);
        assert!(rs.check_consistency().is_consistent());
        assert_eq!(rs.len(), 2);
        assert!(log.negatives_removed() >= 1);
        // The larger rule (φ0) lost Shanghai; the pair no longer overlaps.
        let shanghai = sy.get("Shanghai").unwrap();
        assert!(!rs.rule(RuleId(0)).neg_contains(shanghai));
    }

    #[test]
    fn shrink_falls_back_to_removal_when_rule_would_empty() {
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
        // Single-negative rules conflicting on capital: shrinking would
        // empty them, so one rule must be dropped.
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
            &[("conf", "ICDE")],
            "capital",
            &["Shanghai"],
            "Nanjing",
        )
        .unwrap();
        let log = ensure_consistent(&mut rs, Strategy::ShrinkNegatives);
        assert!(rs.check_consistency().is_consistent());
        assert_eq!(rs.len(), 1);
        assert_eq!(log.rules_removed(), 1);
    }

    #[test]
    fn batch_resolution_matches_sequential_fixpoint_guarantees() {
        let mut sy = SymbolTable::new();
        let mut seq = example8(&mut sy);
        let mut bat = seq.clone();
        ensure_consistent(&mut seq, Strategy::ShrinkNegatives);
        let log = ensure_consistent_batch(&mut bat);
        assert!(bat.check_consistency().is_consistent());
        assert_eq!(bat.len(), 3, "batch also keeps all three rules");
        assert_eq!(log.negatives_removed(), 1);
        // Same surviving semantics: φ'1 shrunk to φ1.
        let tokyo = sy.get("Tokyo").unwrap();
        assert!(!bat.rule(RuleId(0)).neg_contains(tokyo));
    }

    #[test]
    fn batch_resolution_scales_on_many_conflicts() {
        // 60 rules that pairwise conflict in waves; batch mode must settle
        // in a handful of rounds.
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema());
        for i in 0..60 {
            let country = format!("C{}", i % 6);
            rs.push_named(
                &mut sy,
                &[("country", country.as_str())],
                "capital",
                &["w1", "w2"],
                // Same evidence groups get different facts → case-1
                // conflicts inside each group of 10.
                &format!("F{i}"),
            )
            .unwrap();
        }
        let log = ensure_consistent_batch(&mut rs);
        assert!(rs.check_consistency().is_consistent());
        assert!(log.rounds <= 10, "took {} rounds", log.rounds);
    }

    #[test]
    fn workflow_terminates_on_heavily_conflicting_sets() {
        // Many mutually conflicting rules; both strategies must converge.
        let mut sy = SymbolTable::new();
        for strategy in [Strategy::Conservative, Strategy::ShrinkNegatives] {
            let mut rs = RuleSet::new(schema());
            for fact in ["A", "B", "C", "D", "E"] {
                rs.push_named(
                    &mut sy,
                    &[("country", "X")],
                    "capital",
                    &["bad1", "bad2"],
                    fact,
                )
                .unwrap();
            }
            let log = ensure_consistent(&mut rs, strategy);
            assert!(rs.check_consistency().is_consistent(), "{strategy:?}");
            assert!(log.rounds < 100, "{strategy:?} looped");
        }
    }
}
