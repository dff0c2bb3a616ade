//! §7.2 runtime-table bench: `lRepair` vs `Heu` vs `Csm` end to end on
//! both datasets (the paper's closing comparison, where lRepair wins by
//! detecting errors per tuple instead of per tuple-pair).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use baselines::{csm_repair, heu_repair};
use fixrules::repair::{lrepair_table, LRepairIndex, NoopObserver};

fn bench_baselines(c: &mut Criterion) {
    let workloads = vec![
        ("hosp", bench::hosp_workload(8_000, 300)),
        ("uis", bench::uis_workload(4_000, 80)),
    ];
    let mut group = c.benchmark_group("table_rt_baselines");
    for (name, w) in &workloads {
        group.bench_with_input(BenchmarkId::new("lRepair", name), name, |b, _| {
            b.iter_batched(
                || w.dirty.clone(),
                |mut table| {
                    let index = LRepairIndex::build(&w.rules);
                    lrepair_table(&w.rules, &index, &mut table, &NoopObserver)
                },
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("Heu", name), name, |b, _| {
            b.iter_batched(
                || (w.dirty.clone(), w.dataset.symbols.clone()),
                |(mut table, mut symbols)| heu_repair(&mut table, &w.dataset.fds, 5, &mut symbols),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("Csm", name), name, |b, _| {
            b.iter_batched(
                || w.dirty.clone(),
                |mut table| csm_repair(&mut table, &w.dataset.fds, 10, 7),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_baselines
}
criterion_main!(benches);
