//! Streaming repair: clean a CSV of arbitrary size in one pass with
//! constant memory — the per-tuple nature of fixing rules means no table
//! ever needs to be materialised.
//!
//! Generates a uis dataset, writes it (dirtied) to a CSV file, builds rules
//! from it, then repairs `dirty.csv → repaired.csv` one 256 KiB chunk at a
//! time on every core, as `fixctl repair` does.
//!
//! ```text
//! cargo run --release -p examples --bin streaming [rows] [out_dir]
//! ```

use std::io::Write;
use std::time::Instant;

use datagen::noise::{inject, NoiseConfig};
use eval::rules::{build_ruleset, RuleGenConfig};
use fixrules::io::parse_rules;
use fixrules::repair::{LRepairIndex, LRepairWorker, NoopObserver};
use relation::csv_io::par_repair_csv;
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

    // 2. Repair the file as an independent consumer: schema from the CSV
    // header, rules parsed from the rule file into a table that holds
    // their constants alone, so every other cell is ⊥ to the repair and is
    // written back as the file holds it.
    let header = std::fs::File::open(&dirty_path).expect("open dirty csv");
    let schema = relation::csv_io::read_csv_header(header, "uis").expect("read header");
    let mut symbols = SymbolTable::new();
    let text = std::fs::read_to_string(&rules_path).expect("read rules");
    let rules = parse_rules(&text, &schema, &mut symbols).expect("parse rules");
    assert!(rules.check_consistency().is_consistent());
    let index = LRepairIndex::build(&rules);

    let repaired_path = dir.join("uis_repaired.csv");
    let mut writer = std::io::BufWriter::new(
        std::fs::File::create(&repaired_path).expect("create repaired csv"),
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    let run = par_repair_csv(
        &dirty_path,
        rules.schema(),
        &symbols,
        threads,
        |w| {
            (
                LRepairWorker::new(&rules, &index, &NoopObserver, w),
                Vec::new(),
            )
        },
        |(worker, updates), mut chunk, _: &mut ()| {
            let from = updates.len();
            worker.repair_rows(chunk.first_row, chunk.cells, updates);
            for u in &updates[from..] {
                chunk.touch(u.row - chunk.first_row);
            }
        },
        |bytes, _| writer.write_all(bytes),
    )
    .expect("repair");
    writer.flush().expect("flush repaired csv");
    let mut rows_touched: Vec<usize> = run
        .workers
        .iter()
        .flat_map(|(_, updates)| updates.iter().map(|u| u.row))
        .collect();
    rows_touched.dedup();
    println!(
        "repaired {} rows in {:.1?} on {} worker(s): {} updates on {} rows -> {}",
        run.rows,
        t0.elapsed(),
        run.workers.len(),
        run.workers.iter().map(|(_, u)| u.len()).sum::<usize>(),
        rows_touched.len(),
        repaired_path.display()
    );
}
