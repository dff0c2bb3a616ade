//! Fig 13 bench: `cRepair` vs `lRepair` (and the parallel extension) as
//! |Σ| grows, on a fixed dirty table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fixrules::repair::{
    crepair_table, lrepair_table, par_lrepair_table, LRepairIndex, NoopObserver,
};

fn bench_repair(c: &mut Criterion) {
    let workload = bench::hosp_workload(10_000, 400);
    let mut group = c.benchmark_group("fig13_repair");
    group.throughput(Throughput::Elements(workload.dirty.len() as u64));
    for &n in &[50usize, 100, 200, 400] {
        let mut subset = workload.rules.clone();
        subset.truncate(n);
        group.bench_with_input(BenchmarkId::new("cRepair", n), &n, |b, _| {
            b.iter_batched(
                || workload.dirty.clone(),
                |mut table| crepair_table(&subset, &mut table, &NoopObserver),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("lRepair", n), &n, |b, _| {
            b.iter_batched(
                || workload.dirty.clone(),
                |mut table| {
                    let index = LRepairIndex::build(&subset);
                    lrepair_table(&subset, &index, &mut table, &NoopObserver)
                },
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("lRepair_par", n), &n, |b, _| {
            let threads = std::thread::available_parallelism().map_or(4, |t| t.get());
            b.iter_batched(
                || workload.dirty.clone(),
                |mut table| {
                    let index = LRepairIndex::build(&subset);
                    par_lrepair_table(&subset, &index, &mut table, threads, &NoopObserver)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_repair
}
criterion_main!(benches);
