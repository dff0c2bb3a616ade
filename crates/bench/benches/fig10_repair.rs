//! Fig 10 companion bench: `cRepair` vs `lRepair` on the hosp workload at
//! full |Σ|, with an embedded metrics snapshot per benchmark — the report
//! carries not just wall-clock but the pipeline counters
//! (`repair.rules_applied`, `repair.tuples_touched`, ...) the run implied,
//! so a timing regression can be told apart from a behavior change.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fixrules::repair::{crepair_table, lrepair_table, LRepairIndex};
use obs::MetricsObserver;

fn bench_fig10_repair(c: &mut Criterion) {
    let workload = bench::hosp_workload(5_000, 200);
    let mut group = c.benchmark_group("fig10_repair");
    group.throughput(Throughput::Elements(workload.dirty.len() as u64));
    group.bench_with_input(BenchmarkId::new("cRepair", "hosp"), &(), |b, _| {
        let observer = MetricsObserver::new(b.metrics());
        b.iter_batched(
            || workload.dirty.clone(),
            |mut table| crepair_table(&workload.rules, &mut table, &observer),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_with_input(BenchmarkId::new("lRepair", "hosp"), &(), |b, _| {
        let observer = MetricsObserver::new(b.metrics());
        let index = LRepairIndex::build(&workload.rules);
        b.iter_batched(
            || workload.dirty.clone(),
            |mut table| lrepair_table(&workload.rules, &index, &mut table, &observer),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig10_repair
}
criterion_main!(benches);
