//! `bench serve` — load-drive a live `fixd` daemon over loopback HTTP:
//! N concurrent clients hammer `POST /repair` with duplicate-heavy CSV
//! batches, pinning multi-client throughput (rows/sec) and the daemon's
//! own per-endpoint latency telemetry into `BENCH_serve_repair.json`.
//!
//! Configurations: `clients/1|4|8`. Every request repairs on its own,
//! with one `LRepairWorker` (lRepair, Fig 7) made for the request, whose
//! memo replays the batch's repeated rows and goes with it: nothing is
//! kept between requests but the provenance ledger, filled once per
//! request from its fixes.
//!
//! Each benchmark passes its metrics registry into the daemon
//! ([`Daemon::start_with_registry`]), so the pinned JSON embeds the
//! served-side `http.requests{endpoint="repair",status="200"}` counters,
//! the `http.latency_ns` and `serve.repair_stage_ns` histograms next to
//! the client-side wall clock. End-to-end wall clock is dominated by
//! transport and (de)serialization; the repair stage histogram isolates
//! the repair loop itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fixd::{Daemon, DaemonConfig, RulesSource, SchemaSource};
use fixrules::io::format_rules;
use obs::http_post;
use relation::{csv_io, Table};

/// Distinct dirty rows cycled into every batch.
const DISTINCT_ROWS: usize = 100;
/// Rows per `POST /repair` batch (each distinct row appears ~10×).
const BATCH_ROWS: usize = 1_000;
/// Concurrent client counts of the sweep.
const CLIENTS: [usize; 3] = [1, 4, 8];

/// Render a duplicate-heavy CSV batch from the workload's dirty table.
fn batch_csv(workload: &bench::Workload) -> Vec<u8> {
    let mut tiled = Table::with_capacity(workload.dirty.schema().clone(), BATCH_ROWS);
    for i in 0..BATCH_ROWS {
        tiled
            .push_row(workload.dirty.row(i % DISTINCT_ROWS))
            .unwrap();
    }
    let mut out = Vec::new();
    csv_io::write_csv(&mut out, &tiled, &workload.dataset.symbols).unwrap();
    out
}

fn daemon_config(workload: &bench::Workload) -> DaemonConfig {
    DaemonConfig {
        rules: RulesSource::Inline(format_rules(&workload.rules, &workload.dataset.symbols)),
        // The full dataset schema, so the batch CSV header always maps.
        schema: SchemaSource::Names(
            workload
                .dirty
                .schema()
                .attr_names()
                .map(str::to_string)
                .collect(),
        ),
        threads: 8,
        ..DaemonConfig::default()
    }
}

/// One load round: `clients` threads each post the batch once and assert
/// a `200` with the expected row count echoed back.
fn drive(url: &str, body: &[u8], clients: usize) {
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let reply = http_post(url, "text/csv", body).expect("POST /repair");
                assert_eq!(reply.status, 200, "{}", reply.body);
            });
        }
    });
}

fn bench_serve_repair(c: &mut Criterion) {
    let workload = bench::hosp_workload(DISTINCT_ROWS, 100);
    let body = batch_csv(&workload);

    let mut group = c.benchmark_group("serve_repair");
    for clients in CLIENTS {
        group.throughput(Throughput::Elements((clients * BATCH_ROWS) as u64));
        group.bench_with_input(
            BenchmarkId::new("clients", clients),
            &clients,
            |b, &clients| {
                let daemon =
                    Daemon::start_with_registry(daemon_config(&workload), b.metrics().clone())
                        .expect("start fixd");
                // CSV echo: the cheap response path, so the measurement
                // tracks repair throughput, not JSON tree rendering.
                let url = format!("http://{}/repair?format=csv", daemon.addr());
                // Warm-up round: intern every batch value once, so the
                // timed rounds measure the steady state.
                drive(&url, &body, 1);
                b.iter(|| drive(&url, &body, clients));
                daemon.shutdown();
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serve_repair);
criterion_main!(benches);
