//! Seeded, cached inputs and the paper-oracle reference outputs.
//!
//! Every workload draws on one generated hosp instance D and one rule set
//! Σ per seed. The programs under test only ever see the written files:
//! `distinct.csv` (D), `dup.csv` (the first [`HOT_ROWS`] rows of D tiled to
//! |D| rows), `rules.frl` (Σ) and `header.csv` (D's header alone). The same
//! seed gives byte-identical files, so they are cached per seed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use datagen::noise::{inject, NoiseConfig};
use eval::rules::{build_ruleset, RuleGenConfig};
use fixrules::io::{format_rules, parse_rules};
use fixrules::repair::{lrepair_tuple, LRepairIndex, LRepairScratch};
use relation::{csv_io, SymbolTable, Table};

/// Rows of D.
pub const ROWS: usize = 200_000;
/// The hot prefix of D: `dup.csv` tiles it and fixd's hot batches draw from it.
pub const HOT_ROWS: usize = 2_000;
/// |Σ|, as in the paper's hosp experiments.
const RULES: usize = 1_000;
/// Bump when generation changes, so stale cached files are regenerated.
const GENERATOR_VERSION: u32 = 1;

pub struct InputFiles {
    pub distinct: PathBuf,
    pub dup: PathBuf,
    pub rules: PathBuf,
    pub header: PathBuf,
    /// Seconds spent generating the files in this run (0 when cached).
    pub gen_s: f64,
    pub cached: bool,
}

/// The cached files for `seed` (about 95 MB), generating them first if
/// they are absent.
pub fn ensure(work: &Path, seed: u64) -> Result<InputFiles, String> {
    let dir = work.join(format!("inputs-v{GENERATOR_VERSION}-seed{seed}"));
    let files = |gen_s, cached| InputFiles {
        distinct: dir.join("distinct.csv"),
        dup: dir.join("dup.csv"),
        rules: dir.join("rules.frl"),
        header: dir.join("header.csv"),
        gen_s,
        cached,
    };
    if dir.is_dir() {
        return Ok(files(0.0, true));
    }
    let started = Instant::now();
    let generated = generate(seed);
    // Write into a private directory, then rename it into place, so an
    // interrupted run never leaves a half-written cache entry behind.
    let tmp = work.join(format!("tmp-{}-seed{seed}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    for (name, bytes) in [
        ("distinct.csv", &generated.distinct),
        ("dup.csv", &generated.dup),
        ("rules.frl", &generated.rules),
        ("header.csv", &generated.header),
    ] {
        let path = tmp.join(name);
        std::fs::write(&path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    std::fs::rename(&tmp, &dir).map_err(|e| format!("renaming {}: {e}", tmp.display()))?;
    Ok(files(started.elapsed().as_secs_f64(), false))
}

struct Generated {
    distinct: Vec<u8>,
    dup: Vec<u8>,
    rules: Vec<u8>,
    header: Vec<u8>,
}

fn generate(seed: u64) -> Generated {
    let mut dataset = datagen::hosp::generate(ROWS, seed);
    let attrs = dataset.constrained_attrs();
    let mut dirty = dataset.clean.clone();
    inject(
        &mut dirty,
        &mut dataset.symbols,
        &attrs,
        NoiseConfig {
            rate: 0.10,
            typo_fraction: 0.5,
            seed,
        },
    );
    let (rules, _) = build_ruleset(
        &mut dataset,
        &dirty,
        RuleGenConfig {
            target: RULES,
            seed,
            enrich_factor: 1.0,
        },
    );
    let mut tiled = Table::with_capacity(dirty.schema().clone(), dirty.len());
    for i in 0..dirty.len() {
        tiled
            .push_row(dirty.row(i % HOT_ROWS))
            .expect("tiled rows share D's schema");
    }
    let csv = |table: &Table| {
        let mut out = Vec::new();
        csv_io::write_csv(&mut out, table, &dataset.symbols).expect("writing to memory");
        out
    };
    let distinct = csv(&dirty);
    let header_len = distinct
        .iter()
        .position(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    Generated {
        header: distinct[..header_len].to_vec(),
        dup: csv(&tiled),
        distinct,
        rules: format_rules(&rules, &dataset.symbols).into_bytes(),
    }
}

/// A data file with its expected repair under the paper's lRepair.
pub struct Reference {
    /// The header line, without its newline.
    pub header: String,
    /// Each data row as written in the input file, without its newline.
    pub dirty_lines: Vec<String>,
    /// Each data row as the repaired output must render it.
    pub expected_lines: Vec<String>,
    /// The whole expected output file.
    pub expected: Vec<u8>,
    /// Per row, the indices of the attributes the repair changes.
    pub changed: Vec<Vec<usize>>,
    pub attr_names: Vec<String>,
}

impl Reference {
    pub fn rows(&self) -> usize {
        self.dirty_lines.len()
    }
}

/// Repair `data` with `lrepair_tuple` row by row — the paper's reference
/// algorithm — and render the result as `fixctl` and `fixd` must.
pub fn reference(data: &Path, rules: &Path) -> Result<Reference, String> {
    let text = std::fs::read_to_string(data).map_err(|e| format!("{}: {e}", data.display()))?;
    let rules_text =
        std::fs::read_to_string(rules).map_err(|e| format!("{}: {e}", rules.display()))?;
    let mut symbols = SymbolTable::new();
    let mut table = csv_io::read_csv(text.as_bytes(), "data", &mut symbols)
        .map_err(|e| format!("{}: {e}", data.display()))?;
    let rules = parse_rules(&rules_text, table.schema(), &mut symbols)
        .map_err(|e| format!("{}: {e}", rules.display()))?;
    let index = LRepairIndex::build(&rules);
    let mut scratch = LRepairScratch::new(rules.len());
    let mut changed = Vec::with_capacity(table.len());
    for i in 0..table.len() {
        let updates = lrepair_tuple(&rules, &index, &mut scratch, table.row_mut(i));
        let mut attrs: Vec<usize> = updates.iter().map(|u| u.attr.index()).collect();
        attrs.sort_unstable();
        attrs.dedup();
        changed.push(attrs);
    }
    let mut expected = Vec::new();
    csv_io::write_csv(&mut expected, &table, &symbols).map_err(|e| e.to_string())?;
    let lines =
        |bytes: &str| -> Vec<String> { bytes.lines().skip(1).map(str::to_string).collect() };
    let expected_text = std::str::from_utf8(&expected).map_err(|e| e.to_string())?;
    let dirty_lines = lines(&text);
    let expected_lines = lines(expected_text);
    if dirty_lines.len() != table.len() || expected_lines.len() != table.len() {
        return Err(format!(
            "{}: a quoted field spans lines; batches are cut at newlines",
            data.display()
        ));
    }
    Ok(Reference {
        header: text.lines().next().unwrap_or_default().to_string(),
        dirty_lines,
        expected_lines,
        expected,
        changed,
        attr_names: table.schema().attr_names().map(str::to_string).collect(),
    })
}
