//! Fig 12: comparison with editing rules (hosp, 100 rules, 10% noise).
//!
//! * **(a)** — errors corrected per fixing rule: each correction would have
//!   cost one user interaction under editing rules, so a rule correcting
//!   fifty tuples saves fifty confirmations;
//! * **(b)** — Fix vs automated Edit (negative patterns stripped,
//!   evidence auto-confirmed) precision/recall.

use baselines::{edit_repair, EditRuleSet};
use fixrules::repair::{lrepair_table, LRepairIndex, NoopObserver};

use crate::config::ExpConfig;
use crate::experiments::{prepare, Which};
use crate::metrics::{score, Accuracy};

/// Fig 12(a) output: per-rule correction counts, sorted descending, plus
/// the total interactions editing rules would have needed.
#[derive(Debug, Clone)]
pub struct Fig12a {
    /// Corrections per rule, descending (only rules that fired).
    pub per_rule: Vec<usize>,
    /// Total corrections = user interactions saved vs editing rules.
    pub total_corrections: usize,
}

/// Fig 12(b) output.
#[derive(Debug, Clone)]
pub struct Fig12b {
    /// Fixing-rule accuracy.
    pub fix: Accuracy,
    /// Automated editing-rule accuracy.
    pub edit: Accuracy,
}

/// Run both halves of Fig 12 with `rule_target` rules (paper: 100).
pub fn run_fig12(which: Which, cfg: &ExpConfig, rule_target: usize) -> (Fig12a, Fig12b) {
    let mut cfg = cfg.clone();
    match which {
        Which::Hosp => cfg.hosp_rules = rule_target,
        Which::Uis => cfg.uis_rules = rule_target,
    }
    let p = prepare(which, &cfg, 0.5);
    let clean = &p.dataset.clean;

    // Fix.
    let index = LRepairIndex::build(&p.rules);
    let mut fixed = p.dirty.clone();
    let outcome = lrepair_table(&p.rules, &index, &mut fixed, &NoopObserver);
    let fix_acc = score(clean, &p.dirty, &fixed);

    // Per-rule corrections: count only updates that matched the truth.
    let mut per_rule = vec![0usize; p.rules.len()];
    for u in &outcome.updates {
        if clean.cell(u.row, u.attr) == u.new {
            per_rule[u.rule.index()] += 1;
        }
    }
    let total_corrections: usize = per_rule.iter().sum();
    let mut fired: Vec<usize> = per_rule.into_iter().filter(|&c| c > 0).collect();
    fired.sort_unstable_by(|a, b| b.cmp(a));

    // Edit: same rules, negative patterns stripped.
    let edits = EditRuleSet::from_fixing_rules(&p.rules);
    let mut edited = p.dirty.clone();
    edit_repair(&edits, &mut edited);
    let edit_acc = score(clean, &p.dirty, &edited);

    (
        Fig12a {
            per_rule: fired,
            total_corrections,
        },
        Fig12b {
            fix: fix_acc,
            edit: edit_acc,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            hosp_rows: 2_000,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn fix_beats_automated_edit_on_precision() {
        let (_, fig12b) = run_fig12(Which::Hosp, &tiny_cfg(), 80);
        assert!(
            fig12b.fix.precision() >= fig12b.edit.precision(),
            "fix {:?} edit {:?}",
            fig12b.fix,
            fig12b.edit
        );
        assert!(fig12b.fix.precision() > 0.85);
    }

    #[test]
    fn per_rule_counts_are_descending_and_sum_to_total() {
        let (fig12a, _) = run_fig12(Which::Hosp, &tiny_cfg(), 80);
        assert!(fig12a.per_rule.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(
            fig12a.per_rule.iter().sum::<usize>(),
            fig12a.total_corrections
        );
    }

    #[test]
    fn single_rules_repair_multiple_tuples() {
        // Fig 12(a)'s point: one fixing rule fixes many errors (= many
        // saved user interactions).
        let (fig12a, _) = run_fig12(Which::Hosp, &tiny_cfg(), 80);
        if let Some(&max) = fig12a.per_rule.first() {
            assert!(max >= 1);
        }
    }
}
