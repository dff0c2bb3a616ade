//! Hospital-data cleaning at scale — the paper's hosp workload (§7.1).
//!
//! Generates an FD-consistent hosp table, injects 10% noise (half typos,
//! half active-domain errors), runs the full §7.1 rule-generation pipeline,
//! repairs with sequential and parallel `lRepair`, and reports
//! precision/recall against the ground truth. Optionally dumps the dirty
//! and repaired tables as CSV.
//!
//! ```text
//! cargo run --release -p examples --bin hosp_cleaning [rows] [rules] [out_dir]
//! ```

use std::time::Instant;

use datagen::noise::{inject, NoiseConfig};
use eval::rules::{build_ruleset, RuleGenConfig};
use eval::score;
use fixrules::repair::{par_lrepair_table, LRepairIndex, NoopObserver};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let target_rules: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(500);
    let out_dir = args.get(2).cloned();

    println!("generating hosp with {rows} rows...");
    let mut dataset = datagen::hosp::generate(rows, 42);
    let attrs = dataset.constrained_attrs();
    println!(
        "  schema {} ({} attrs, {} FD-covered), {} FDs",
        dataset.schema.name(),
        dataset.schema.arity(),
        attrs.len(),
        dataset.fds.len()
    );
    for fd in &dataset.fds {
        println!("    {}", fd.display(&dataset.schema));
    }

    let mut dirty = dataset.clean.clone();
    let errors = inject(
        &mut dirty,
        &mut dataset.symbols,
        &attrs,
        NoiseConfig {
            rate: 0.10,
            typo_fraction: 0.5,
            seed: 7,
        },
    );
    println!("injected {} errors (10% noise, 50% typos)", errors.len());

    let t0 = Instant::now();
    let (rules, genreport) = build_ruleset(
        &mut dataset,
        &dirty,
        RuleGenConfig {
            target: target_rules,
            seed: 42,
            enrich_factor: 1.0,
        },
    );
    println!(
        "generated {} consistent fixing rules in {:.1?} ({} seeded from violations, {} resolution actions)",
        rules.len(),
        t0.elapsed(),
        genreport.seeded,
        genreport.resolution_actions
    );

    let t1 = Instant::now();
    let index = LRepairIndex::build(&rules);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut repaired = dirty.clone();
    let outcome = par_lrepair_table(&rules, &index, &mut repaired, threads, &NoopObserver);
    println!(
        "lRepair({} threads): {} updates on {} rows in {:.1?}",
        threads,
        outcome.total_updates(),
        outcome.rows_touched(),
        t1.elapsed()
    );

    let acc = score(&dataset.clean, &dirty, &repaired);
    println!(
        "precision {:.4}  recall {:.4}  f1 {:.4}  ({} corrected / {} updated / {} errors)",
        acc.precision(),
        acc.recall(),
        acc.f1(),
        acc.corrected,
        acc.updates,
        acc.errors
    );

    if let Some(dir) = out_dir {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create out dir");
        relation::csv_io::write_csv_file(dir.join("hosp_dirty.csv"), &dirty, &dataset.symbols)
            .expect("write dirty csv");
        relation::csv_io::write_csv_file(
            dir.join("hosp_repaired.csv"),
            &repaired,
            &dataset.symbols,
        )
        .expect("write repaired csv");
        println!(
            "wrote hosp_dirty.csv / hosp_repaired.csv under {}",
            dir.display()
        );
    }
}
