//! The traced run's in-process calls into each layer.
//!
//! Three replicas of what the binaries do, each under a `path.*` span so
//! the layers' self times can be set against the end-to-end figure they
//! make up:
//!
//! * `path.cli` — one `fixctl repair` with the default engine: read the
//!   CSV, parse Σ, check consistency, lRepair every row, write the CSV;
//! * `path.boot` — one `fixd` boot: parse Σ with spans, lint, certify,
//!   check consistency, compile;
//! * `path.fixd` — one `POST /repair` per scheduled batch: parse the body,
//!   intern it into the shared symbols, repair it with the grouped core
//!   against a shared plan cache and provenance ledger, replay it into the
//!   quality monitor, render it.
//!
//! Layer calls that the default paths do not make (`ColumnTable::from`,
//! `RuleProgram::compile`, `repair_columns_grouped` over the whole table)
//! are timed on their own.

use std::path::Path;
use std::time::Instant;

use fixrules::io::{parse_rules, parse_rules_spanned};
use fixrules::repair::{
    lrepair_tuple, repair_columns_grouped, CompiledEngine, CompiledScratch, LRepairIndex,
    LRepairScratch, PlanCache, RuleProgram,
};
use fixrules::{ProvenanceLedger, ProvenanceObserver};
use obs::{QualityConfig, QualityMonitor, RepairObserver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{csv_io, AttrId, ColumnTable, Schema, Symbol, SymbolTable};

use crate::fixd::{Schedule, BATCH_ROWS, FRESH_EVERY};
use crate::inputs::Reference;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Report, Tally};

/// Repetitions of each whole-table layer call; metrics take the median.
const REPS: usize = 3;
/// Plan-cache shards, as `fixd` configures by default.
const CACHE_SHARDS: usize = 8;
/// Quality window rows, as `fixd` configures by default.
const QUALITY_WINDOW: usize = 256;
/// `ProvenanceLedger::chain_for` lookups behind `core.chain_for_ms`.
const CHAIN_LOOKUPS: usize = 50;

fn median_of(tracer: &Tracer, span: &str) -> (f64, usize) {
    let mut samples = Samples::default();
    for d in tracer.durations(span) {
        samples.push(d);
    }
    (samples.median(), samples.len())
}

/// Replicate `fixctl repair` on `data` [`REPS`] times, then time the
/// whole-table calls the default engine skips.
pub fn cli_path(
    tracer: &Tracer,
    data: &Path,
    rules_text: &str,
    reference: &Reference,
    work: &Path,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let out = work.join("layers-out.csv");
    let mut symbols_after_read = 0;
    let mut updates = 0;
    for _ in 0..REPS {
        let _path = tracer.span("path.cli");
        let mut symbols = SymbolTable::new();
        let mut table = {
            let _s = tracer.span("relation.read_csv");
            csv_io::read_csv_file(data, "data", &mut symbols).map_err(|e| e.to_string())?
        };
        symbols_after_read = symbols.len();
        let rules = {
            let _s = tracer.span("core.parse_rules");
            parse_rules(rules_text, table.schema(), &mut symbols).map_err(|e| e.message())?
        };
        {
            let _s = tracer.span("core.consistency");
            if !rules.check_consistency().is_consistent() {
                return Err("the generated rule set is inconsistent".to_string());
            }
        }
        {
            let _s = tracer.span("core.reference_repair");
            let index = LRepairIndex::build(&rules);
            let mut scratch = LRepairScratch::new(rules.len());
            updates = 0;
            for i in 0..table.len() {
                updates += lrepair_tuple(&rules, &index, &mut scratch, table.row_mut(i)).len();
            }
        }
        {
            let _s = tracer.span("relation.write_csv");
            csv_io::write_csv_file(&out, &table, &symbols).map_err(|e| e.to_string())?;
        }
        tally.record(std::fs::read(&out).is_ok_and(|b| b == reference.expected));
    }

    let mut symbols = SymbolTable::new();
    let table = csv_io::read_csv_file(data, "data", &mut symbols).map_err(|e| e.to_string())?;
    let rules = parse_rules(rules_text, table.schema(), &mut symbols).map_err(|e| e.message())?;
    let mut grouped = None;
    for _ in 0..REPS {
        let mut columns = {
            let _s = tracer.span("relation.to_columns");
            ColumnTable::from(&table)
        };
        let program = {
            let _s = tracer.span("core.compile");
            RuleProgram::compile(&rules)
        };
        let cache = PlanCache::unbounded();
        let mut scratch = CompiledScratch::new(rules.len());
        let mut cols = columns.columns_mut();
        let _s = tracer.span("core.grouped_repair");
        grouped = Some(repair_columns_grouped(
            &rules,
            &program,
            CompiledEngine::Chase,
            Some(&cache),
            &mut scratch,
            &mut cols,
            0,
            &obs::NoopObserver,
        ));
    }
    let (grouped_updates, batch) = grouped.expect("REPS > 0");
    tally.record(grouped_updates.len() == updates);

    let (read_s, n) = median_of(tracer, "relation.read_csv");
    let cells = (table.len() * table.schema().arity()) as f64;
    report.add("relation.read_csv_s", read_s, "s", n);
    report.add(
        "relation.read_csv_ns_per_cell",
        read_s * 1e9 / cells,
        "ns",
        n,
    );
    report.add("relation.symbols", symbols_after_read as f64, "count", 1);
    for (metric, span) in [
        ("relation.to_columns_s", "relation.to_columns"),
        ("relation.write_csv_s", "relation.write_csv"),
        ("core.parse_rules_s", "core.parse_rules"),
        ("core.consistency_s", "core.consistency"),
        ("core.compile_s", "core.compile"),
        ("core.reference_repair_s", "core.reference_repair"),
        ("core.grouped_repair_s", "core.grouped_repair"),
    ] {
        let (value, n) = median_of(tracer, span);
        report.add(metric, value, "s", n);
    }
    report.add(
        "core.groups_per_row",
        batch.groups as f64 / batch.rows.max(1) as f64,
        "ratio",
        1,
    );
    report.add("core.updates", updates as f64, "count", 1);
    Ok(())
}

/// Replicate one `fixd` boot: the same calls `fixd` makes before it
/// listens.
pub fn boot_path(
    tracer: &Tracer,
    rules_text: &str,
    attr_names: &[String],
    report: &mut Report,
) -> Result<(), String> {
    let _path = tracer.span("path.boot");
    let schema =
        Schema::new("R", attr_names.iter().map(String::as_str)).map_err(|e| e.to_string())?;
    let mut symbols = SymbolTable::new();
    let parsed = {
        let _s = tracer.span("core.boot_parse");
        parse_rules_spanned(rules_text, &schema, &mut symbols).map_err(|e| e.message())?
    };
    let lint = {
        let _s = tracer.span("analyzer.lint");
        fixlint::lint(
            &parsed.rules,
            &parsed.spans,
            &symbols,
            &fixlint::LintOptions::default(),
        )
    };
    let cert = {
        let _s = tracer.span("analyzer.certify");
        fixlint::certify(
            &parsed.rules,
            &parsed.spans,
            &symbols,
            &fixlint::CertOptions::default(),
        )
    };
    {
        let _s = tracer.span("core.boot_compile");
        std::hint::black_box(RuleProgram::compile(&parsed.rules));
    }
    {
        let _s = tracer.span("core.boot_consistency");
        std::hint::black_box(parsed.rules.check_consistency().is_consistent());
    }
    let (lint_s, n) = median_of(tracer, "analyzer.lint");
    report.add("analyzer.lint_s", lint_s, "s", n);
    let (certify_s, n) = median_of(tracer, "analyzer.certify");
    report.add("analyzer.certify_s", certify_s, "s", n);
    report.add(
        "analyzer.findings",
        (lint.diagnostics.len() + cert.report.diagnostics.len()) as f64,
        "count",
        1,
    );
    Ok(())
}

/// Wall times of the `path.fixd` batches, in ms, split by whether
/// tracing was on.
pub struct Overhead {
    pub traced: Samples,
    pub untraced: Samples,
}

/// Replay the fixd traffic in-process: one `path.fixd` span per batch,
/// every rendered batch checked against the reference. Tracing alternates
/// on and off between blocks of [`FRESH_EVERY`] batches, and each batch is
/// timed either way, so the difference is what the spans cost.
pub fn fixd_path(
    tracer: &Tracer,
    rules_text: &str,
    reference: &Reference,
    schedule: &Schedule,
    seed: u64,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<Overhead, String> {
    let schema = Schema::new("R", reference.attr_names.iter().map(String::as_str))
        .map_err(|e| e.to_string())?;
    let mut symbols = SymbolTable::new();
    let rules = parse_rules(rules_text, &schema, &mut symbols).map_err(|e| e.message())?;
    let program = RuleProgram::compile(&rules);
    let cache = PlanCache::sharded(CACHE_SHARDS);
    let ledger = ProvenanceLedger::new();
    let quality = QualityMonitor::new(
        QualityConfig::with_window(QUALITY_WINDOW),
        reference.attr_names.clone(),
    );
    let mut scratch = CompiledScratch::new(rules.len());
    let mut repaired_cells: Vec<(usize, usize)> = Vec::new();
    let mut row_base = 0usize;
    let traced = tracer.enabled();
    let mut overhead = Overhead {
        traced: Samples::default(),
        untraced: Samples::default(),
    };
    for (i, &batch) in schedule.warmup.iter().chain(&schedule.timed).enumerate() {
        let body = batch.body(reference);
        let on = traced && (i / FRESH_EVERY).is_multiple_of(2);
        tracer.set_enabled(on);
        let started = Instant::now();
        let _path = tracer.span("path.fixd");
        let mut local = SymbolTable::new();
        let request = {
            let _s = tracer.span("relation.batch_parse");
            csv_io::read_csv(body.as_slice(), "request", &mut local).map_err(|e| e.to_string())?
        };
        let mut cols: Vec<Vec<Symbol>> = {
            let _s = tracer.span("relation.intern");
            (0..reference.attr_names.len())
                .map(|a| {
                    (0..request.len())
                        .map(|i| symbols.intern(local.resolve(request.cell(i, AttrId(a as u16)))))
                        .collect()
                })
                .collect()
        };
        let pre: Vec<Vec<Symbol>> = cols.clone();
        let updates = {
            let _s = tracer.span("core.batch_repair");
            let mut slices: Vec<&mut [Symbol]> = cols.iter_mut().map(Vec::as_mut_slice).collect();
            let provenance = ProvenanceObserver::new(&rules, &ledger);
            repair_columns_grouped(
                &rules,
                &program,
                CompiledEngine::Chase,
                Some(&cache),
                &mut scratch,
                &mut slices,
                row_base,
                &provenance,
            )
            .0
        };
        {
            let _s = tracer.span("obs.quality_replay");
            let mut row = Vec::with_capacity(reference.attr_names.len());
            let mut cursor = 0;
            for i in 0..request.len() {
                row.clear();
                row.extend(pre.iter().map(|col| col[i].0));
                quality.row_observed(&row);
                let start = cursor;
                while cursor < updates.len() && updates[cursor].row == row_base + i {
                    cursor += 1;
                }
                for (ordinal, update) in updates[start..cursor].iter().enumerate() {
                    quality.cell_repaired(update.as_fix(ordinal));
                }
            }
        }
        let rendered = {
            let _s = tracer.span("relation.render");
            let mut out = reference.header.clone().into_bytes();
            out.push(b'\n');
            let mut cells: Vec<&str> = Vec::with_capacity(reference.attr_names.len());
            for i in 0..request.len() {
                cells.clear();
                cells.extend(cols.iter().map(|col| symbols.resolve(col[i])));
                out.extend_from_slice(cells.join(",").as_bytes());
                out.push(b'\n');
            }
            out
        };
        drop(_path);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.set_enabled(traced);
        if on {
            overhead.traced.push(ms);
        } else {
            overhead.untraced.push(ms);
        }
        tally.record(rendered == batch.expected(reference));
        for (j, r) in batch.rows().enumerate() {
            repaired_cells.extend(reference.changed[r].iter().map(|&a| (row_base + j, a)));
        }
        row_base += BATCH_ROWS;
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A1);
    for _ in 0..CHAIN_LOOKUPS.min(repaired_cells.len()) {
        let (row, attr) = repaired_cells[rng.gen_range(0..repaired_cells.len())];
        let chain = {
            let _s = tracer.span("core.chain_for");
            ledger.chain_for(row, AttrId(attr as u16))
        };
        tally.record(!chain.is_empty());
    }

    let (parse_s, n) = median_of(tracer, "relation.batch_parse");
    report.add("relation.batch_parse_us", parse_s * 1e6, "us", n);
    let (replay_s, n) = median_of(tracer, "obs.quality_replay");
    report.add("obs.quality_replay_us", replay_s * 1e6, "us", n);
    let stats = cache.stats();
    report.add(
        "core.plan_cache_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
        (stats.hits + stats.misses) as usize,
    );
    report.add("core.ledger_records", ledger.len() as f64, "count", 1);
    let (chain_s, n) = median_of(tracer, "core.chain_for");
    report.add("core.chain_for_ms", chain_s * 1e3, "ms", n);
    Ok(overhead)
}

/// Each layer's self time per operation on `path`, and its share of
/// `op_s`, the end-to-end time of one such operation.
pub fn shares(
    tracer: &Tracer,
    path: &str,
    label: &str,
    layers: &[&str],
    op_s: f64,
    report: &mut Report,
) {
    let (self_times, ops) = tracer.self_times_under(path);
    for layer in layers {
        let per_op = self_times.get(*layer).copied().unwrap_or(0.0) / ops.max(1) as f64;
        report.add(
            &format!("trace.{label}.{layer}_self_ms"),
            per_op * 1e3,
            "ms",
            ops,
        );
        report.add(
            &format!("trace.{label}.{layer}_share"),
            per_op / op_s,
            "ratio",
            ops,
        );
    }
}
