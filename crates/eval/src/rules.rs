//! The end-to-end rule-generation pipeline of §7.1, assembled from the
//! `fixrules::generation` primitives:
//!
//! 1. **Seed** rules from the dirty table's FD violations (expert = master
//!    oracle);
//! 2. **Enrich** each seed's negative patterns from same-domain pools, the
//!    per-rule budget following the Fig 11(a) distribution;
//! 3. **Pad** to the target count with ontology-style rules generated
//!    directly from the master data;
//! 4. **Shuffle** (so any prefix is FD-diverse — the |Σ| sweeps truncate
//!    prefixes) and **resolve** conflicts with the batch shrink workflow.

use fixrules::consistency::resolve::ensure_consistent_batch;
use fixrules::generation::{generate_from_master, seed_rules_all_fds};
use fixrules::{FixingRule, RuleSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relation::Table;

use datagen::master::{build_enrichment, build_master_indexes, neg_budget_schedule};
use datagen::Dataset;

/// Statistics of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct RuleGenReport {
    /// Rules seeded from observed FD violations.
    pub seeded: usize,
    /// Rules padded from the master oracle.
    pub padded: usize,
    /// Negative patterns / rules removed by conflict resolution.
    pub resolution_actions: usize,
    /// Final rule count.
    pub final_count: usize,
}

/// Pipeline knobs.
#[derive(Debug, Clone, Copy)]
pub struct RuleGenConfig {
    /// Requested rule count (paper: 1000 hosp / 100 uis).
    pub target: usize,
    /// RNG seed (budgets, shuffle, enrichment order).
    pub seed: u64,
    /// Scales per-rule negative-pattern budgets; 1.0 reproduces the Fig
    /// 11(a) distribution, 0.0 keeps only the observed wrong values
    /// (the Fig 11(b) sweep varies this).
    pub enrich_factor: f64,
}

impl Default for RuleGenConfig {
    fn default() -> Self {
        RuleGenConfig {
            target: 1_000,
            seed: 2014,
            enrich_factor: 1.0,
        }
    }
}

/// Run the pipeline against a dataset and one dirty instance of it.
pub fn build_ruleset(
    dataset: &mut Dataset,
    dirty: &Table,
    cfg: RuleGenConfig,
) -> (RuleSet, RuleGenReport) {
    let mut report = RuleGenReport::default();
    let masters = build_master_indexes(dataset);
    let enrichment = build_enrichment(dataset, 40, 2, cfg.seed ^ 0xE11);
    let budgets = neg_budget_schedule(cfg.target.max(1), cfg.seed ^ 0xB0D);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5F0);

    // 1. Seeds from violations, per original (multi-RHS) FD so the
    // key-suspect filter can see all of a row's deviations at once.
    // `masters` aligns with the single-RHS decomposition, so hand each FD
    // its consecutive chunk. Each FD's candidates come back sorted by
    // yield (errors they fix); a round-robin merge keeps the budgeted set
    // both high-impact (the expert triages by impact, which is what makes
    // single rules fix 50+ tuples in Fig 12(a)) and FD-diverse, so the |Σ|
    // sweeps truncate meaningful prefixes.
    let per_fd: Vec<Vec<(FixingRule, usize)>> = seed_rules_all_fds(dirty, &dataset.fds, &masters);
    let mut seeds: Vec<FixingRule> = Vec::new();
    let mut cursors = vec![0usize; per_fd.len()];
    loop {
        let mut advanced = false;
        for (list, cursor) in per_fd.iter().zip(cursors.iter_mut()) {
            if *cursor < list.len() {
                seeds.push(list[*cursor].0.clone());
                *cursor += 1;
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
    }
    dedupe_rules(&mut seeds);
    // Keep ~15% headroom over the target so conflict resolution can consume
    // rules and still leave `target`.
    let padded_target = cfg.target + cfg.target.div_ceil(7) + 8;
    seeds.truncate(padded_target);
    report.seeded = seeds.len();

    // 2. Enrichment: half of each rule's extra budget is spent on
    // known-misspelling variants of its fact (the typo corpus), half on
    // same-domain values — both are "related tables in the same domain" in
    // the paper's sense.
    let mut rules: Vec<FixingRule> = seeds
        .into_iter()
        .enumerate()
        .map(|(i, rule)| {
            let want = (budgets[i % budgets.len()] as f64 * cfg.enrich_factor).round() as usize;
            let extra_budget = want.saturating_sub(rule.neg().len());
            if extra_budget == 0 {
                return rule;
            }
            let typo_budget = extra_budget.div_ceil(2);
            let mut extra = datagen::noise::typo_neighborhood(
                &mut dataset.symbols,
                rule.fact(),
                typo_budget,
                cfg.seed ^ 0x7E90,
            );
            extra.retain(|v| !rule.neg().contains(v));
            let domain_budget = extra_budget - extra.len().min(extra_budget);
            extra.extend(enrichment.candidates(rule.b(), rule.fact(), rule.neg(), domain_budget));
            rule.with_extra_negatives(&extra)
        })
        .collect();

    // 3. Pad from the master oracle, up to the same padded target.
    if rules.len() < padded_target {
        let mut pool = RuleSet::new(dataset.schema.clone());
        let deficit = padded_target - rules.len();
        let per_master = deficit.div_ceil(masters.len().max(1)) + 4;
        let pad_budgets: Vec<usize> = budgets
            .iter()
            .map(|&b| ((b as f64 * cfg.enrich_factor).round() as usize).max(1))
            .collect();
        for master in &masters {
            generate_from_master(&mut pool, master, &enrichment, &pad_budgets, per_master);
        }
        let mut pads: Vec<FixingRule> = pool.rules().to_vec();
        pads.shuffle(&mut rng);
        for pad in pads {
            if rules.len() >= padded_target {
                break;
            }
            rules.push(pad);
        }
        dedupe_rules(&mut rules);
        report.padded = rules.len() - report.seeded.min(rules.len());
    }

    // 4. Resolve (rule order is yield-ranked; resolution preserves it).
    let mut set = RuleSet::new(dataset.schema.clone());
    for r in rules {
        set.push(r);
    }
    let log = ensure_consistent_batch(&mut set);
    report.resolution_actions = log.actions.len();
    set.truncate(cfg.target);
    report.final_count = set.len();
    debug_assert!(set.check_consistency().is_consistent());
    (set, report)
}

/// Remove duplicates by (evidence, B) key, keeping the first occurrence
/// (seeds win over pads; two rules with the same evidence and B but
/// different facts would be a case-1 conflict anyway).
fn dedupe_rules(rules: &mut Vec<FixingRule>) {
    use std::collections::HashSet;
    let mut seen: HashSet<(Vec<(u16, u32)>, u16)> = HashSet::with_capacity(rules.len());
    rules.retain(|r| {
        let key: (Vec<(u16, u32)>, u16) = (
            r.x()
                .iter()
                .zip(r.tp().iter())
                .map(|(a, v)| (a.0, v.0))
                .collect(),
            r.b().0,
        );
        seen.insert(key)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::noise::{inject, NoiseConfig};

    fn dirty_uis(rows: usize) -> (Dataset, Table) {
        let mut d = datagen::uis::generate(rows, 11);
        let attrs = d.constrained_attrs();
        let mut dirty = d.clean.clone();
        inject(
            &mut dirty,
            &mut d.symbols,
            &attrs,
            NoiseConfig {
                rate: 0.10,
                typo_fraction: 0.5,
                seed: 21,
            },
        );
        (d, dirty)
    }

    #[test]
    fn pipeline_hits_target_and_is_consistent() {
        let (mut d, dirty) = dirty_uis(1_500);
        let (rules, report) = build_ruleset(
            &mut d,
            &dirty,
            RuleGenConfig {
                target: 50,
                seed: 1,
                enrich_factor: 1.0,
            },
        );
        assert_eq!(rules.len(), 50, "{report:?}");
        assert!(rules.check_consistency().is_consistent());
        assert_eq!(report.final_count, 50);
    }

    #[test]
    fn seeds_catch_observed_errors() {
        // Repairing the same dirty table the rules were seeded from must
        // correct a nonzero number of cells with high precision.
        let (mut d, dirty) = dirty_uis(2_000);
        let (rules, _) = build_ruleset(
            &mut d,
            &dirty,
            RuleGenConfig {
                target: 80,
                seed: 2,
                enrich_factor: 1.0,
            },
        );
        let index = fixrules::repair::LRepairIndex::build(&rules);
        let mut repaired = dirty.clone();
        fixrules::repair::lrepair_table(
            &rules,
            &index,
            &mut repaired,
            &fixrules::repair::NoopObserver,
        );
        let acc = crate::metrics::score(&d.clean, &dirty, &repaired);
        assert!(acc.updates > 0, "no rule fired");
        assert!(
            acc.precision() > 0.8,
            "precision {:.2} too low ({acc:?})",
            acc.precision()
        );
    }

    #[test]
    fn enrich_factor_scales_negative_patterns() {
        let (mut d, dirty) = dirty_uis(1_200);
        let mut total = |factor: f64| {
            let (rules, _) = build_ruleset(
                &mut d,
                &dirty,
                RuleGenConfig {
                    target: 40,
                    seed: 3,
                    enrich_factor: factor,
                },
            );
            rules.rules().iter().map(|r| r.neg().len()).sum::<usize>()
        };
        let small = total(0.0);
        let big = total(4.0);
        assert!(big > small, "enrichment had no effect: {small} vs {big}");
    }

    #[test]
    fn dedupe_removes_identical_evidence_rules() {
        let schema = relation::Schema::new("T", ["a", "b"]).unwrap();
        let mut sy = relation::SymbolTable::new();
        let r1 = FixingRule::from_named(&schema, &mut sy, &[("a", "k")], "b", &["x"], "y").unwrap();
        let r2 = FixingRule::from_named(&schema, &mut sy, &[("a", "k")], "b", &["z"], "y").unwrap();
        let r3 = FixingRule::from_named(&schema, &mut sy, &[("a", "j")], "b", &["x"], "y").unwrap();
        let mut rules = vec![r1, r2, r3];
        dedupe_rules(&mut rules);
        assert_eq!(rules.len(), 2);
    }
}
