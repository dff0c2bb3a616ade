//! Mailing-list cleaning with baseline comparison — the paper's uis
//! workload (§7.1), Fix vs Heu vs Csm in one run.
//!
//! ```text
//! cargo run --release -p examples --bin uis_cleaning [rows] [rules]
//! ```

use baselines::{csm_repair, heu_repair};
use datagen::noise::{inject, NoiseConfig};
use eval::rules::{build_ruleset, RuleGenConfig};
use eval::score;
use fixrules::repair::{lrepair_table, LRepairIndex, NoopObserver};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(15_000);
    let target_rules: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(100);

    println!("generating uis with {rows} rows...");
    let mut dataset = datagen::uis::generate(rows, 2014);
    let attrs = dataset.constrained_attrs();
    let mut dirty = dataset.clean.clone();
    let errors = inject(
        &mut dirty,
        &mut dataset.symbols,
        &attrs,
        NoiseConfig::default(),
    );
    println!("injected {} errors", errors.len());

    let (rules, _) = build_ruleset(
        &mut dataset,
        &dirty,
        RuleGenConfig {
            target: target_rules,
            seed: 2014,
            enrich_factor: 1.0,
        },
    );
    println!("{} consistent fixing rules generated\n", rules.len());

    // Fix.
    let index = LRepairIndex::build(&rules);
    let mut fixed = dirty.clone();
    lrepair_table(&rules, &index, &mut fixed, &NoopObserver);
    let fix = score(&dataset.clean, &dirty, &fixed);

    // Heu.
    let mut heu_t = dirty.clone();
    heu_repair(&mut heu_t, &dataset.fds, 5, &mut dataset.symbols);
    let heu = score(&dataset.clean, &dirty, &heu_t);

    // Csm.
    let mut csm_t = dirty.clone();
    csm_repair(&mut csm_t, &dataset.fds, 10, 2014);
    let csm = score(&dataset.clean, &dirty, &csm_t);

    println!("algo  precision  recall   updates corrected");
    for (name, acc) in [("Fix", fix), ("Heu", heu), ("Csm", csm)] {
        println!(
            "{name:<5} {:<10.4} {:<8.4} {:<7} {}",
            acc.precision(),
            acc.recall(),
            acc.updates,
            acc.corrected
        );
    }
    println!(
        "\nthe uis dataset has few repeated FD patterns, so recall is low for\n\
         every method (the paper's Fig 10(f)); Fix keeps precision near 1.0\n\
         while the heuristics trade precision for consistency."
    );
}
