//! Exp-2 (Fig 10): repair accuracy.
//!
//! * `(a,b)` / `(e,f)` — precision/recall of Fix vs Heu vs Csm as the typo
//!   share of the noise sweeps 0%→100% at a fixed 10% noise rate;
//! * `(c,d)` / `(g,h)` — the same metrics as the rule count sweeps over
//!   deciles of |Σ| at 50% typos (Heu/Csm do not consume rules, so their
//!   curves are horizontal lines, as in the paper).

use baselines::{csm_repair, heu_repair, heu_repair_with, HeuConfig};
use datagen::noise::{inject, NoiseConfig};
use fixrules::repair::{lrepair_table, LRepairIndex, NoopObserver};
use relation::Table;

use crate::config::ExpConfig;
use crate::experiments::{prepare, rule_steps, Which};
use crate::metrics::{score, Accuracy};
use crate::rules::{build_ruleset, RuleGenConfig};

/// Rounds given to the iterative baselines.
const HEU_ROUNDS: usize = 5;
const CSM_ROUNDS: usize = 10;

/// One accuracy measurement.
#[derive(Debug, Clone)]
pub struct AccuracyPoint {
    /// Sweep position: typo fraction (fig10 a/b/e/f) or rule count (c/d/g/h).
    pub x: f64,
    /// `Fix`, `Heu`, or `Csm`.
    pub algo: &'static str,
    /// Cell-level counts.
    pub acc: Accuracy,
}

/// Fig 10 (a,b) / (e,f): accuracy vs typo rate.
pub fn run_typo_sweep(which: Which, cfg: &ExpConfig) -> Vec<AccuracyPoint> {
    let mut out = Vec::new();
    for step in 0..=10 {
        let typo_fraction = step as f64 / 10.0;
        let mut p = prepare(which, cfg, typo_fraction);
        let datagen::Dataset {
            clean,
            symbols,
            fds,
            ..
        } = &mut p.dataset;
        let clean = &*clean;

        // Fix.
        let index = LRepairIndex::build(&p.rules);
        let mut fixed = p.dirty.clone();
        lrepair_table(&p.rules, &index, &mut fixed, &NoopObserver);
        out.push(AccuracyPoint {
            x: typo_fraction,
            algo: "Fix",
            acc: score(clean, &p.dirty, &fixed),
        });

        // Heu.
        let mut heu_t = p.dirty.clone();
        heu_repair(&mut heu_t, fds, HEU_ROUNDS, symbols);
        out.push(AccuracyPoint {
            x: typo_fraction,
            algo: "Heu",
            acc: score(clean, &p.dirty, &heu_t),
        });

        // Csm.
        let mut csm_t = p.dirty.clone();
        csm_repair(&mut csm_t, fds, CSM_ROUNDS, cfg.seed ^ 0xC531);
        out.push(AccuracyPoint {
            x: typo_fraction,
            algo: "Csm",
            acc: score(clean, &p.dirty, &csm_t),
        });
    }
    out
}

/// Fig 10 (c,d) / (g,h): accuracy vs |Σ| at 50% typos.
pub fn run_rulecount_sweep(which: Which, cfg: &ExpConfig) -> Vec<AccuracyPoint> {
    let mut p = prepare(which, cfg, 0.5);
    let datagen::Dataset {
        clean,
        symbols,
        fds,
        ..
    } = &mut p.dataset;
    let clean = &*clean;
    let mut out = Vec::new();

    // Baselines once — they do not depend on |Σ|.
    let mut heu_t = p.dirty.clone();
    heu_repair(&mut heu_t, fds, HEU_ROUNDS, symbols);
    let heu_acc = score(clean, &p.dirty, &heu_t);
    let mut csm_t = p.dirty.clone();
    csm_repair(&mut csm_t, fds, CSM_ROUNDS, cfg.seed ^ 0xC531);
    let csm_acc = score(clean, &p.dirty, &csm_t);

    for &k in &rule_steps(p.rules.len()) {
        let mut subset = p.rules.clone();
        subset.truncate(k);
        let index = LRepairIndex::build(&subset);
        let mut fixed = p.dirty.clone();
        lrepair_table(&subset, &index, &mut fixed, &NoopObserver);
        out.push(AccuracyPoint {
            x: k as f64,
            algo: "Fix",
            acc: score(clean, &p.dirty, &fixed),
        });
        out.push(AccuracyPoint {
            x: k as f64,
            algo: "Heu",
            acc: heu_acc,
        });
        out.push(AccuracyPoint {
            x: k as f64,
            algo: "Csm",
            acc: csm_acc,
        });
    }
    out
}

/// Ablation: Heu with and without cost-based LHS eviction, at three typo
/// mixes. Quantifies how much of Heu's precision loss is attributable to
/// key-corrupted tuples being conformed to foreign majorities.
pub fn run_heu_ablation(which: Which, cfg: &ExpConfig) -> Vec<AccuracyPoint> {
    let mut out = Vec::new();
    for typo_fraction in [0.0, 0.5, 1.0] {
        let mut p = prepare(which, cfg, typo_fraction);
        let datagen::Dataset {
            clean,
            symbols,
            fds,
            ..
        } = &mut p.dataset;
        let clean = &*clean;
        let mut plain = p.dirty.clone();
        heu_repair(&mut plain, fds, HEU_ROUNDS, symbols);
        out.push(AccuracyPoint {
            x: typo_fraction,
            algo: "Heu",
            acc: score(clean, &p.dirty, &plain),
        });
        let mut evicting = p.dirty.clone();
        heu_repair_with(
            &mut evicting,
            fds,
            HEU_ROUNDS,
            symbols,
            HeuConfig { lhs_eviction: true },
        );
        out.push(AccuracyPoint {
            x: typo_fraction,
            algo: "Heu(evict)",
            acc: score(clean, &p.dirty, &evicting),
        });
    }
    out
}

/// Variant of the typo sweep for a *fixed* rule set built once at 50%
/// typos, used by unit tests to validate monotonicity cheaply.
pub fn fix_accuracy_on(
    dataset: &mut datagen::Dataset,
    typo_fraction: f64,
    target_rules: usize,
    seed: u64,
) -> Accuracy {
    let attrs = dataset.constrained_attrs();
    let mut dirty = dataset.clean.clone();
    inject(
        &mut dirty,
        &mut dataset.symbols,
        &attrs,
        NoiseConfig {
            rate: 0.10,
            typo_fraction,
            seed,
        },
    );
    let (rules, _) = build_ruleset(
        dataset,
        &dirty,
        RuleGenConfig {
            target: target_rules,
            seed,
            enrich_factor: 1.0,
        },
    );
    let index = LRepairIndex::build(&rules);
    let mut fixed: Table = dirty.clone();
    lrepair_table(&rules, &index, &mut fixed, &NoopObserver);
    score(&dataset.clean, &dirty, &fixed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            uis_rows: 900,
            uis_rules: 40,
            hosp_rows: 1_500,
            hosp_rules: 60,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn typo_sweep_emits_all_algorithms() {
        let points = run_typo_sweep(Which::Uis, &tiny_cfg());
        assert_eq!(points.len(), 33); // 11 steps × 3 algos
        for algo in ["Fix", "Heu", "Csm"] {
            assert_eq!(points.iter().filter(|p| p.algo == algo).count(), 11);
        }
    }

    #[test]
    fn fix_precision_beats_baselines_on_hosp() {
        // The paper's headline: Fix repairs with the highest precision.
        let points = run_typo_sweep(Which::Hosp, &tiny_cfg());
        let avg = |algo: &str| {
            let v: Vec<f64> = points
                .iter()
                .filter(|p| p.algo == algo)
                .map(|p| p.acc.precision())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let (fix, heu, csm) = (avg("Fix"), avg("Heu"), avg("Csm"));
        assert!(fix > heu, "Fix {fix:.3} vs Heu {heu:.3}");
        assert!(fix > csm, "Fix {fix:.3} vs Csm {csm:.3}");
        assert!(fix > 0.9, "Fix precision should be high, got {fix:.3}");
    }

    #[test]
    fn rulecount_sweep_recall_is_monotone_for_fix() {
        let points = run_rulecount_sweep(Which::Hosp, &tiny_cfg());
        let fix_recalls: Vec<f64> = points
            .iter()
            .filter(|p| p.algo == "Fix")
            .map(|p| p.acc.recall())
            .collect();
        assert_eq!(fix_recalls.len(), 10);
        // More rules → recall should not decrease (allow tiny jitter from
        // conflict resolution).
        assert!(
            fix_recalls.last().unwrap() >= &(fix_recalls[0] - 1e-9),
            "{fix_recalls:?}"
        );
    }

    #[test]
    fn heu_eviction_improves_precision_under_active_domain_noise() {
        let points = run_heu_ablation(Which::Hosp, &tiny_cfg());
        let get = |algo: &str, x: f64| {
            points
                .iter()
                .find(|p| p.algo == algo && (p.x - x).abs() < 1e-9)
                .unwrap()
                .acc
                .precision()
        };
        // At 0% typos (all active-domain errors) eviction must help.
        assert!(get("Heu(evict)", 0.0) > get("Heu", 0.0), "{points:?}");
    }

    #[test]
    fn baselines_are_horizontal_in_rulecount_sweep() {
        let points = run_rulecount_sweep(Which::Uis, &tiny_cfg());
        let heus: Vec<usize> = points
            .iter()
            .filter(|p| p.algo == "Heu")
            .map(|p| p.acc.corrected)
            .collect();
        assert!(heus.windows(2).all(|w| w[0] == w[1]));
    }
}
