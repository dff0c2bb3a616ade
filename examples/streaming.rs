//! Streaming repair: clean a CSV of arbitrary size in one pass with
//! constant memory — the per-tuple nature of fixing rules means no table
//! ever needs to be materialised.
//!
//! Generates a uis dataset, writes it (dirtied) to a CSV file, builds rules
//! from it, then streams `dirty.csv → repaired.csv`.
//!
//! ```text
//! cargo run --release -p examples --bin streaming [rows] [out_dir]
//! ```

use std::time::Instant;

use datagen::noise::{inject, NoiseConfig};
use eval::rules::{build_ruleset, RuleGenConfig};
use fixrules::io::parse_rules;
use fixrules::repair::{stream_repair_csv, LRepairIndex, NoopObserver};
use relation::SymbolTable;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let out_dir = args.get(1).cloned().unwrap_or_else(|| {
        std::env::temp_dir()
            .join("fixrules_streaming")
            .display()
            .to_string()
    });
    let dir = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(dir).expect("create out dir");

    // 1. Produce a dirty CSV on disk plus a rule file, as a user would have.
    let mut dataset = datagen::uis::generate(rows, 11);
    let attrs = dataset.constrained_attrs();
    let mut dirty = dataset.clean.clone();
    let errors = inject(
        &mut dirty,
        &mut dataset.symbols,
        &attrs,
        NoiseConfig::default(),
    );
    let dirty_path = dir.join("uis_dirty.csv");
    relation::csv_io::write_csv_file(&dirty_path, &dirty, &dataset.symbols)
        .expect("write dirty csv");
    let (rules, _) = build_ruleset(
        &mut dataset,
        &dirty,
        RuleGenConfig {
            target: 100,
            seed: 11,
            enrich_factor: 1.0,
        },
    );
    let rules_path = dir.join("uis_rules.frl");
    std::fs::write(
        &rules_path,
        fixrules::io::format_rules(&rules, &dataset.symbols),
    )
    .expect("write rules");
    println!(
        "wrote {} ({} rows, {} injected errors) and {} ({} rules)",
        dirty_path.display(),
        rows,
        errors.len(),
        rules_path.display(),
        rules.len()
    );

    // 2. Stream-repair the file as an independent consumer: schema from the
    // CSV header, rules parsed from the rule file into a table that holds
    // their constants alone.
    let header = std::fs::File::open(&dirty_path).expect("open dirty csv");
    let schema = relation::csv_io::read_csv_header(header, "uis").expect("read header");
    let mut symbols = SymbolTable::new();
    let text = std::fs::read_to_string(&rules_path).expect("read rules");
    let rules = parse_rules(&text, &schema, &mut symbols).expect("parse rules");
    assert!(rules.check_consistency().is_consistent());
    let index = LRepairIndex::build(&rules);

    let repaired_path = dir.join("uis_repaired.csv");
    let reader = std::fs::File::open(&dirty_path).expect("open dirty csv");
    let writer = std::io::BufWriter::new(
        std::fs::File::create(&repaired_path).expect("create repaired csv"),
    );
    let t0 = Instant::now();
    let stats = stream_repair_csv(&rules, &index, &symbols, reader, writer, &NoopObserver)
        .expect("stream repair");
    println!(
        "streamed {} rows in {:.1?}: {} updates on {} rows -> {}",
        stats.rows,
        t0.elapsed(),
        stats.updates,
        stats.rows_touched,
        repaired_path.display()
    );
}
