//! Fig 11: evaluation of negative patterns (hosp).
//!
//! * **(a)** — the per-rule negative-pattern-count distribution: rules
//!   sorted by count, every 30th point plotted;
//! * **(b)** — Fix precision/recall as the *total* number of negative
//!   patterns grows (sweeping the enrichment factor).

use fixrules::repair::{lrepair_table, LRepairIndex, NoopObserver};

use crate::config::ExpConfig;
use crate::experiments::{prepare, Which};
use crate::metrics::{score, Accuracy};

/// One Fig 11(a) point: rule rank → #negative patterns.
#[derive(Debug, Clone, Copy)]
pub struct Fig11aPoint {
    /// Rule rank after sorting by pattern count.
    pub rank: usize,
    /// Number of negative patterns of that rule.
    pub neg_patterns: usize,
}

/// Fig 11(a): sorted per-rule counts, one point every `stride` rules
/// (paper: 30).
pub fn run_fig11a(which: Which, cfg: &ExpConfig, stride: usize) -> (Vec<Fig11aPoint>, Vec<usize>) {
    let p = prepare(which, cfg, 0.5);
    let mut counts: Vec<usize> = p.rules.rules().iter().map(|r| r.neg().len()).collect();
    counts.sort_unstable();
    let points = counts
        .iter()
        .enumerate()
        .step_by(stride.max(1))
        .map(|(rank, &neg_patterns)| Fig11aPoint { rank, neg_patterns })
        .collect();
    (points, counts)
}

/// One Fig 11(b) point.
#[derive(Debug, Clone, Copy)]
pub struct Fig11bPoint {
    /// Fraction of each rule's negative patterns kept (the sweep knob).
    pub factor: f64,
    /// Total negative patterns across all rules (x-axis).
    pub total_neg_patterns: usize,
    /// Fix accuracy at this pattern budget.
    pub acc: Accuracy,
}

/// Fig 11(b): accuracy as the *total* number of negative patterns grows.
///
/// As in the paper, the rule set is fixed and the sweep varies how many
/// negative patterns each rule keeps — `factor` is the kept fraction of
/// each rule's (frequency-ranked) negative list, 1.0 being the full sets.
/// Capping can only remove Fig 4 conflict conditions, so every capped set
/// stays consistent.
pub fn run_fig11b(which: Which, cfg: &ExpConfig, factors: &[f64]) -> Vec<Fig11bPoint> {
    let p = prepare(which, cfg, 0.5);
    let dataset = p.dataset;
    let dirty = p.dirty;
    factors
        .iter()
        .map(|&factor| {
            let mut capped = fixrules::RuleSet::new(dataset.schema.clone());
            for (_, rule) in p.rules.iter() {
                let keep =
                    ((rule.neg().len() as f64 * factor).ceil() as usize).clamp(1, rule.neg().len());
                capped.push(rule.with_capped_negatives(keep));
            }
            debug_assert!(capped.check_consistency().is_consistent());
            let total = capped.rules().iter().map(|r| r.neg().len()).sum();
            let index = LRepairIndex::build(&capped);
            let mut fixed = dirty.clone();
            lrepair_table(&capped, &index, &mut fixed, &NoopObserver);
            Fig11bPoint {
                factor,
                total_neg_patterns: total,
                acc: score(&dataset.clean, &dirty, &fixed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            hosp_rows: 1_500,
            hosp_rules: 60,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn fig11a_counts_are_sorted_and_small() {
        let (points, counts) = run_fig11a(Which::Hosp, &tiny_cfg(), 5);
        assert!(!points.is_empty());
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        // The Fig 11(a) claim: most rules carry few negative patterns.
        let small = counts.iter().filter(|&&c| c <= 3).count();
        assert!(small * 2 > counts.len(), "{counts:?}");
    }

    #[test]
    fn fig11b_more_patterns_improves_recall() {
        let points = run_fig11b(Which::Hosp, &tiny_cfg(), &[0.25, 0.5, 1.0]);
        assert_eq!(points.len(), 3);
        assert!(points[2].total_neg_patterns > points[0].total_neg_patterns);
        assert!(
            points[2].acc.recall() >= points[0].acc.recall(),
            "recall did not grow: {points:?}"
        );
        // Precision stays high throughout — the "dependable" property.
        for p in &points {
            assert!(p.acc.precision() > 0.85, "{p:?}");
        }
    }
}
