//! `bench quality` — sketch + window overhead of the repair-quality
//! observatory on the 20k duplicated-tuple workload.
//!
//! Configurations, all `csv_io::par_repair_csv` at one worker over the
//! same CSV file, each row repaired with `lRepair`:
//!
//! * `unmonitored` — no monitor: the worker never keys a row's values, so
//!   this is the true zero-cost baseline;
//! * `monitored/256` / `monitored/1024` — a fresh [`QualityMonitor`]
//!   per iteration, fed as `fixctl repair --quality-window` feeds it: the
//!   worker keys each row's values as the file holds them, and the
//!   delivering thread hands the monitor each row's keys and then its
//!   fixes, into per-attribute count–min, distinct, and reservoir
//!   sketches in tumbling windows of 256 / 1024 rows.
//!
//! The target, set when this bench ran the one-record-at-a-time stream
//! engine, is monitored ≤ 1.10× unmonitored wall-clock at the default
//! 256-row window; DESIGN.md §16 has where it stands against the faster
//! pipeline. Each monitored benchmark embeds its
//! metrics snapshot, so the pinned `BENCH_quality.json` also records
//! `quality.windows` and per-attribute `quality.drift` gauges next to
//! the wall clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use std::path::Path;

use fixrules::repair::{lrepair_tuple, CellUpdate, LRepairIndex, LRepairScratch};
use obs::quality::value_key;
use obs::{QualityConfig, QualityMonitor, RepairObserver};
use relation::{csv_io, Table};

/// Distinct source rows cycled into the benched stream.
const DISTINCT_ROWS: usize = 400;
/// Total rows streamed per iteration (each distinct row appears ~50×).
const TOTAL_ROWS: usize = 20_000;
/// Consecutive repetitions per distinct row. The real hosp file clusters
/// ~20 rows per provider (one per measure), so duplicates arrive in
/// runs; short runs of 8 keep the stream realistic without being the
/// monitor's best case.
const RUN_LEN: usize = 8;

/// Tile the workload's dirty table up to `TOTAL_ROWS` — duplicates in
/// runs of [`RUN_LEN`] — and render it as the CSV every configuration
/// repairs.
fn stream_csv(workload: &bench::Workload) -> Vec<u8> {
    let mut tiled = Table::with_capacity(workload.dirty.schema().clone(), TOTAL_ROWS);
    for i in 0..TOTAL_ROWS {
        tiled
            .push_row(workload.dirty.row((i / RUN_LEN) % DISTINCT_ROWS))
            .unwrap();
    }
    let mut out = Vec::new();
    csv_io::write_csv(&mut out, &tiled, &workload.dataset.symbols).unwrap();
    out
}

/// Repair the CSV file at `path` at one worker, feeding `monitor` if
/// there is one, and return the number of rows.
fn repair(
    workload: &bench::Workload,
    index: &LRepairIndex,
    path: &Path,
    monitor: Option<&QualityMonitor>,
) -> usize {
    let rules = &workload.rules;
    let arity = rules.schema().arity();
    let mut row = 0;
    csv_io::par_repair_csv(
        path,
        rules.schema(),
        &workload.dataset.symbols,
        1,
        |_| LRepairScratch::new(rules.len()),
        |scratch, mut chunk, seen: &mut (Vec<u32>, Vec<CellUpdate>)| {
            for i in 0..chunk.rows() {
                if monitor.is_some() {
                    seen.0.extend(chunk.fields(i).map(value_key));
                }
                let cells = &mut chunk.cells[i * arity..(i + 1) * arity];
                let mut fixes = lrepair_tuple(rules, index, scratch, cells);
                if !fixes.is_empty() {
                    chunk.touch(i);
                }
                if monitor.is_some() {
                    fixes.iter_mut().for_each(|u| u.row = chunk.first_row + i);
                    seen.1.extend(fixes);
                }
            }
        },
        |_, (keys, fixes)| {
            if let Some(monitor) = monitor {
                let mut fixes = fixes.iter().peekable();
                for keys in keys.chunks_exact(arity) {
                    monitor.row_observed(keys);
                    let row_fixes = std::iter::from_fn(|| fixes.next_if(|u| u.row == row));
                    for (ordinal, u) in row_fixes.enumerate() {
                        monitor.cell_repaired(u.as_fix(ordinal));
                    }
                    row += 1;
                }
            }
            Ok(())
        },
    )
    .unwrap()
    .rows
}

fn bench_quality(c: &mut Criterion) {
    let workload = bench::hosp_workload(DISTINCT_ROWS, 200);
    let index = LRepairIndex::build(&workload.rules);
    let dir = std::env::temp_dir().join(format!("bench_quality_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.csv");
    std::fs::write(&path, stream_csv(&workload)).unwrap();
    let attr_names: Vec<String> = workload
        .dirty
        .schema()
        .attr_names()
        .map(str::to_string)
        .collect();

    let mut group = c.benchmark_group("quality");
    group.throughput(Throughput::Elements(TOTAL_ROWS as u64));

    group.bench_with_input(BenchmarkId::new("unmonitored", "pipeline"), &(), |b, _| {
        b.iter(|| repair(&workload, &index, &path, None))
    });

    for window in [256usize, 1024] {
        group.bench_with_input(
            BenchmarkId::new("monitored", window),
            &window,
            |b, &window| {
                let registry = b.metrics().clone();
                b.iter_batched(
                    || {
                        let cfg = QualityConfig {
                            window_rows: window,
                            ..QualityConfig::default()
                        };
                        QualityMonitor::new(cfg, attr_names.clone()).with_registry(&registry)
                    },
                    |monitor| {
                        let rows = repair(&workload, &index, &path, Some(&monitor));
                        monitor.flush();
                        assert!(monitor.windows_sealed() > 0);
                        rows
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_quality);
criterion_main!(benches);
