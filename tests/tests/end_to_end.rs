//! End-to-end pipeline tests across crates: generate → corrupt → seed rules
//! → resolve → repair → score, on both synthetic datasets, with all repair
//! drivers agreeing and CSV persistence round-tripping.

use baselines::{csm_repair, edit_repair, heu_repair, EditRuleSet};
use datagen::noise::{inject, NoiseConfig};
use eval::rules::{build_ruleset, RuleGenConfig};
use eval::score;
use fixrules::repair::{
    crepair_table, lrepair_table, par_lrepair_table, LRepairIndex, NoopObserver,
};

fn pipeline(
    mut dataset: datagen::Dataset,
    target_rules: usize,
) -> (datagen::Dataset, relation::Table, fixrules::RuleSet) {
    let attrs = dataset.constrained_attrs();
    let mut dirty = dataset.clean.clone();
    inject(
        &mut dirty,
        &mut dataset.symbols,
        &attrs,
        NoiseConfig {
            rate: 0.10,
            typo_fraction: 0.5,
            seed: 99,
        },
    );
    let (rules, _) = build_ruleset(
        &mut dataset,
        &dirty,
        RuleGenConfig {
            target: target_rules,
            seed: 99,
            enrich_factor: 1.0,
        },
    );
    (dataset, dirty, rules)
}

#[test]
fn hosp_pipeline_repairs_with_high_precision() {
    let (dataset, dirty, rules) = pipeline(datagen::hosp::generate(4_000, 31), 150);
    assert!(rules.check_consistency().is_consistent());
    let index = LRepairIndex::build(&rules);
    let mut repaired = dirty.clone();
    let outcome = lrepair_table(&rules, &index, &mut repaired, &NoopObserver);
    assert!(outcome.total_updates() > 0);
    let acc = score(&dataset.clean, &dirty, &repaired);
    assert!(acc.precision() > 0.85, "{acc:?}");
    assert!(acc.recall() > 0.05, "{acc:?}");
}

#[test]
fn all_three_repair_drivers_agree_on_hosp() {
    let (_dataset, dirty, rules) = pipeline(datagen::hosp::generate(2_000, 32), 100);
    let index = LRepairIndex::build(&rules);
    let mut by_chase = dirty.clone();
    let mut by_linear = dirty.clone();
    let mut by_parallel = dirty.clone();
    let oc = crepair_table(&rules, &mut by_chase, &NoopObserver);
    let ol = lrepair_table(&rules, &index, &mut by_linear, &NoopObserver);
    let op = par_lrepair_table(&rules, &index, &mut by_parallel, 4, &NoopObserver);
    assert_eq!(by_chase.diff_cells(&by_linear).unwrap(), 0);
    assert_eq!(by_chase.diff_cells(&by_parallel).unwrap(), 0);
    assert_eq!(oc.total_updates(), ol.total_updates());
    assert_eq!(ol.total_updates(), op.total_updates());
}

#[test]
fn repair_is_idempotent_for_oracle_coherent_rules() {
    // Idempotence across *independent* repair runs is not guaranteed in
    // general (a fix is a fixpoint only w.r.t. its accumulated assured
    // set), but it does hold for rule sets whose facts come from one
    // coherent master oracle: rules reachable through each other's facts
    // agree on the target values, so a second run finds nothing to do.
    let (_dataset, dirty, rules) = pipeline(datagen::uis::generate(2_000, 33), 60);
    let index = LRepairIndex::build(&rules);
    let mut once = dirty.clone();
    lrepair_table(&rules, &index, &mut once, &NoopObserver);
    let mut twice = once.clone();
    let second = lrepair_table(&rules, &index, &mut twice, &NoopObserver);
    assert_eq!(second.total_updates(), 0);
    assert_eq!(once.diff_cells(&twice).unwrap(), 0);
}

#[test]
fn fix_has_higher_precision_than_heuristics_and_automated_edit() {
    let (mut dataset, dirty, rules) = pipeline(datagen::hosp::generate(3_000, 34), 120);
    let index = LRepairIndex::build(&rules);
    let mut fixed = dirty.clone();
    lrepair_table(&rules, &index, &mut fixed, &NoopObserver);
    let fix = score(&dataset.clean, &dirty, &fixed);

    let mut heu_t = dirty.clone();
    {
        let datagen::Dataset { symbols, fds, .. } = &mut dataset;
        heu_repair(&mut heu_t, fds, 5, symbols);
    }
    let heu = score(&dataset.clean, &dirty, &heu_t);

    let mut csm_t = dirty.clone();
    csm_repair(&mut csm_t, &dataset.fds, 10, 7);
    let csm = score(&dataset.clean, &dirty, &csm_t);

    let edits = EditRuleSet::from_fixing_rules(&rules);
    let mut edit_t = dirty.clone();
    edit_repair(&edits, &mut edit_t);
    let edit = score(&dataset.clean, &dirty, &edit_t);

    assert!(
        fix.precision() >= heu.precision(),
        "fix {fix:?} heu {heu:?}"
    );
    assert!(
        fix.precision() >= csm.precision(),
        "fix {fix:?} csm {csm:?}"
    );
    assert!(
        fix.precision() >= edit.precision(),
        "fix {fix:?} edit {edit:?}"
    );
    // Heuristics compute a consistent database; their recall may beat Fix,
    // but the dependable repairs are the high-precision ones.
    assert!(fix.precision() > 0.85);
}

#[test]
fn heuristic_baselines_reach_consistency() {
    let (mut dataset, dirty, _rules) = pipeline(datagen::uis::generate(1_200, 35), 40);
    let mut heu_t = dirty.clone();
    let h = {
        let datagen::Dataset { symbols, fds, .. } = &mut dataset;
        heu_repair(&mut heu_t, fds, 10, symbols)
    };
    assert!(h.consistent, "Heu did not converge: {h:?}");
    let mut csm_t = dirty.clone();
    let c = csm_repair(&mut csm_t, &dataset.fds, 20, 3);
    assert!(c.consistent, "Csm did not converge: {c:?}");
}

#[test]
fn csv_round_trip_preserves_repair_results() {
    let (dataset, dirty, rules) = pipeline(datagen::uis::generate(500, 36), 30);
    let index = LRepairIndex::build(&rules);
    let mut repaired = dirty.clone();
    lrepair_table(&rules, &index, &mut repaired, &NoopObserver);

    let mut buf = Vec::new();
    relation::csv_io::write_csv(&mut buf, &repaired, &dataset.symbols).unwrap();
    let mut sy2 = relation::SymbolTable::new();
    let loaded = relation::csv_io::read_csv(buf.as_slice(), "uis", &mut sy2).unwrap();
    assert_eq!(loaded.len(), repaired.len());
    for i in (0..repaired.len()).step_by(37) {
        assert_eq!(
            repaired.row_strs(&dataset.symbols, i),
            loaded.row_strs(&sy2, i)
        );
    }
}

#[test]
fn pipeline_is_deterministic_per_seed() {
    let run = || {
        let (dataset, dirty, rules) = pipeline(datagen::uis::generate(800, 37), 40);
        let index = LRepairIndex::build(&rules);
        let mut repaired = dirty.clone();
        lrepair_table(&rules, &index, &mut repaired, &NoopObserver);
        let acc = score(&dataset.clean, &dirty, &repaired);
        (rules.len(), acc.updates, acc.corrected, acc.errors)
    };
    assert_eq!(run(), run());
}

#[test]
fn truncated_rule_prefixes_never_lose_consistency() {
    // The |Σ| sweeps rely on prefixes of a consistent set being consistent
    // (consistency is pairwise, so any subset of a consistent set is
    // consistent).
    let (_dataset, _dirty, rules) = pipeline(datagen::hosp::generate(1_500, 38), 80);
    for k in [1, 10, 40, rules.len()] {
        let mut prefix = rules.clone();
        prefix.truncate(k);
        assert!(prefix.check_consistency().is_consistent(), "prefix {k}");
    }
}
