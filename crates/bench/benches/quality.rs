//! `bench quality` — sketch + window overhead of the repair-quality
//! observatory on the 20k duplicated-tuple stream workload.
//!
//! Configurations, all one-pass `stream_repair_csv` over the
//! same in-memory CSV:
//!
//! * `unmonitored` — [`obs::NoopObserver`]: the `wants_rows` gate keeps
//!   the driver from even copying the pre-repair row, so this is the
//!   true zero-cost baseline;
//! * `monitored/256` / `monitored/1024` — a fresh [`QualityMonitor`]
//!   per iteration feeding per-attribute count–min, distinct, and
//!   reservoir sketches in tumbling windows of 256 / 1024 rows.
//!
//! The acceptance target is monitored ≤ 1.10× unmonitored wall-clock at
//! the default 256-row window. Each monitored benchmark embeds its
//! metrics snapshot, so the pinned `BENCH_quality.json` also records
//! `quality.windows` and per-attribute `quality.drift` gauges next to
//! the wall clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fixrules::repair::{stream_repair_csv, LRepairIndex};
use obs::{NoopObserver, QualityConfig, QualityMonitor};
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
/// runs of [`RUN_LEN`] — and render it as the CSV byte stream every
/// configuration repairs.
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

fn bench_quality(c: &mut Criterion) {
    let workload = bench::hosp_workload(DISTINCT_ROWS, 200);
    let rules = &workload.rules;
    let index = LRepairIndex::build(rules);
    let csv = stream_csv(&workload);
    let attr_names: Vec<String> = workload
        .dirty
        .schema()
        .attr_names()
        .map(str::to_string)
        .collect();

    let mut group = c.benchmark_group("quality");
    group.throughput(Throughput::Elements(TOTAL_ROWS as u64));

    group.bench_with_input(BenchmarkId::new("unmonitored", "stream"), &(), |b, _| {
        b.iter(|| {
            stream_repair_csv(
                rules,
                &index,
                &workload.dataset.symbols,
                &csv[..],
                std::io::sink(),
                &NoopObserver,
            )
            .unwrap()
        })
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
                        let stats = stream_repair_csv(
                            rules,
                            &index,
                            &workload.dataset.symbols,
                            &csv[..],
                            std::io::sink(),
                            &monitor,
                        )
                        .unwrap();
                        monitor.flush();
                        assert!(monitor.windows_sealed() > 0);
                        stats
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_quality);
criterion_main!(benches);
