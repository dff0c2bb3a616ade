//! Ablation: automatically *discovered* rules (paper §8 future work — no
//! master data, support/confidence over FD groups) vs the §7.1 oracle
//! pipeline, on the same dirty instance.
//!
//! Expected shape: on redundant data (hosp) discovery recovers a large
//! share of the oracle pipeline's recall at comparable precision; on
//! sparse data (uis) discovery finds almost nothing — quantifying exactly
//! when the paper's experts/master data are indispensable.

use fixrules::consistency::resolve::ensure_consistent_batch;
use fixrules::discovery::{discover_all, DiscoveryConfig};
use fixrules::repair::{lrepair_table, LRepairIndex, NoopObserver};
use fixrules::RuleSet;

use crate::config::ExpConfig;
use crate::experiments::{prepare, Which};
use crate::metrics::{score, Accuracy};

/// One row of the discovery ablation.
#[derive(Debug, Clone)]
pub struct DiscoveryPoint {
    /// `oracle` (§7.1 pipeline) or `discovered` (§8 future work).
    pub source: &'static str,
    /// Rules used.
    pub n_rules: usize,
    /// Accuracy on the shared dirty instance.
    pub acc: Accuracy,
}

/// Run both rule sources on one dirty instance of `which`.
pub fn run_discovery_ablation(which: Which, cfg: &ExpConfig) -> Vec<DiscoveryPoint> {
    let p = prepare(which, cfg, 0.5);
    let clean = &p.dataset.clean;
    let mut out = Vec::new();

    // Oracle pipeline (already prepared).
    let index = LRepairIndex::build(&p.rules);
    let mut fixed = p.dirty.clone();
    lrepair_table(&p.rules, &index, &mut fixed, &NoopObserver);
    out.push(DiscoveryPoint {
        source: "oracle",
        n_rules: p.rules.len(),
        acc: score(clean, &p.dirty, &fixed),
    });

    // Discovery from the dirty data alone, impact-ranked, same budget.
    let discovered = discover_all(&p.dirty, &p.dataset.fds, DiscoveryConfig::default());
    let mut rules = RuleSet::new(p.dataset.schema.clone());
    for d in discovered.into_iter().take(p.rules.len().max(1)) {
        rules.push(d.rule);
    }
    ensure_consistent_batch(&mut rules);
    let index = LRepairIndex::build(&rules);
    let mut fixed = p.dirty.clone();
    lrepair_table(&rules, &index, &mut fixed, &NoopObserver);
    out.push(DiscoveryPoint {
        source: "discovered",
        n_rules: rules.len(),
        acc: score(clean, &p.dirty, &fixed),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_competitive_on_redundant_hosp() {
        let cfg = ExpConfig {
            hosp_rows: 2_000,
            hosp_rules: 80,
            ..ExpConfig::default()
        };
        let points = run_discovery_ablation(Which::Hosp, &cfg);
        let oracle = points.iter().find(|p| p.source == "oracle").unwrap();
        let disc = points.iter().find(|p| p.source == "discovered").unwrap();
        assert!(disc.n_rules > 0, "no rules discovered on redundant data");
        assert!(
            disc.acc.precision() > 0.8,
            "discovered rules imprecise: {disc:?}"
        );
        // Discovery should recover a meaningful share of oracle recall.
        assert!(
            disc.acc.recall() >= oracle.acc.recall() * 0.3,
            "oracle {oracle:?} vs discovered {disc:?}"
        );
    }

    #[test]
    fn discovery_starves_on_sparse_uis() {
        let cfg = ExpConfig {
            uis_rows: 1_000,
            uis_rules: 40,
            ..ExpConfig::default()
        };
        let points = run_discovery_ablation(Which::Uis, &cfg);
        let disc = points.iter().find(|p| p.source == "discovered").unwrap();
        let oracle = points.iter().find(|p| p.source == "oracle").unwrap();
        // Sparse FD groups: discovery finds (almost) nothing, oracle still
        // works.
        assert!(
            disc.acc.corrected <= oracle.acc.corrected,
            "oracle {oracle:?} vs discovered {disc:?}"
        );
        assert!(disc.n_rules <= oracle.n_rules);
    }
}
