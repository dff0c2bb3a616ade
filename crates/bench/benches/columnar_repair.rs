//! Columnar group-by-plan bench: the paper's drivers vs the grouped core
//! on duplicated-tuple tables at 20k and 200k rows.
//!
//! The columnar driver groups a batch by relevant-attribute signature and
//! runs the engine (or probes the plan cache) once per *group*, scattering
//! the plan to members — so a duplicate row costs a scatter, not a rule
//! evaluation. Configurations over the same table, per size:
//!
//! * `cRepair` / `lRepair` — the paper's drivers (every row pays full rule
//!   evaluation);
//! * `columnar_cold` — group-by-plan with a fresh plan cache per
//!   iteration (each group's first row runs the engine);
//! * `columnar_warm` — group-by-plan with a cache pre-warmed on the same
//!   table (every group representative hits — the steady state of a
//!   daemon serving repeated batches);
//! * `lRepair_attributed` / `columnar_warm_attributed` — the same drivers
//!   with an [`obs::AttributionObserver`] teed in (timing off), pinning the
//!   per-rule attribution overhead next to its unattributed baseline.
//!
//! Each benchmark embeds its metrics snapshot, so the report records the
//! `repair.batch.*` group-by shape and cache hit/miss counts alongside
//! wall-clock. The attribution observers count into a registry of their
//! own, so the per-rule series stay out of the report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fixrules::repair::{
    columnar_table, crepair_table, lrepair_table, CompiledEngine, LRepairIndex, PlanCache,
    RuleProgram,
};
use fixrules::RuleSet;
use obs::{AttributionObserver, MetricsObserver, MetricsRegistry, NoopObserver, RuleLabel, Tee};
use relation::{ColumnTable, Table};

/// Distinct source rows cycled into each benched table.
const DISTINCT_ROWS: usize = 400;
/// Benched table sizes (each distinct row appears total/400 times).
const SIZES: [(&str, usize); 2] = [("20k", 20_000), ("200k", 200_000)];

/// Tile the first `DISTINCT_ROWS` rows of the workload's dirty table up to
/// `total` rows — real dirty data is dominated by repeated records, which
/// is exactly what signature grouping exploits.
fn duplicated_table(src: &Table, total: usize) -> Table {
    let mut dup = Table::with_capacity(src.schema().clone(), total);
    for i in 0..total {
        dup.push_row(src.row(i % DISTINCT_ROWS)).unwrap();
    }
    dup
}

/// Per-rule series labels for the attribution rows, mirroring `fixctl`:
/// stable rule id plus the attribute the rule fixes.
fn rule_labels(rules: &RuleSet) -> Vec<RuleLabel> {
    rules
        .iter()
        .map(|(id, rule)| RuleLabel {
            rule: format!("r{}", id.0),
            attr: rules.schema().attr_name(rule.b()).to_string(),
        })
        .collect()
}

/// A plan cache holding one plan per distinct signature of `columns`.
fn warm_cache(rules: &RuleSet, program: &RuleProgram, columns: &ColumnTable) -> PlanCache {
    let cache = PlanCache::unbounded();
    columnar_table(
        rules,
        program,
        CompiledEngine::Linear,
        Some(&cache),
        &mut columns.clone(),
        &NoopObserver,
    );
    cache
}

fn bench_columnar_repair(c: &mut Criterion) {
    let workload = bench::hosp_workload(DISTINCT_ROWS, 200);
    let rules = &workload.rules;
    let index = LRepairIndex::build(rules);
    let program = RuleProgram::compile(rules);

    let mut group = c.benchmark_group("columnar_repair");
    for (label, total) in SIZES {
        let table = duplicated_table(&workload.dirty, total);
        let columns = ColumnTable::from(&table);
        group.throughput(Throughput::Elements(total as u64));

        group.bench_with_input(BenchmarkId::new("cRepair", label), &(), |b, _| {
            let observer = MetricsObserver::new(b.metrics());
            b.iter_batched(
                || table.clone(),
                |mut t| crepair_table(rules, &mut t, &observer),
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_with_input(BenchmarkId::new("lRepair", label), &(), |b, _| {
            let observer = MetricsObserver::new(b.metrics());
            b.iter_batched(
                || table.clone(),
                |mut t| lrepair_table(rules, &index, &mut t, &observer),
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_with_input(
            BenchmarkId::new("lRepair_attributed", label),
            &(),
            |b, _| {
                let observer = MetricsObserver::new(b.metrics());
                let attribution =
                    AttributionObserver::new(&MetricsRegistry::new(), rule_labels(rules));
                let teed = Tee(&observer, &attribution);
                b.iter_batched(
                    || table.clone(),
                    |mut t| lrepair_table(rules, &index, &mut t, &teed),
                    criterion::BatchSize::LargeInput,
                )
            },
        );

        group.bench_with_input(BenchmarkId::new("columnar_cold", label), &(), |b, _| {
            let observer = MetricsObserver::new(b.metrics());
            b.iter_batched(
                || (columns.clone(), PlanCache::unbounded()),
                |(mut t, cache)| {
                    columnar_table(
                        rules,
                        &program,
                        CompiledEngine::Linear,
                        Some(&cache),
                        &mut t,
                        &observer,
                    )
                },
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_with_input(BenchmarkId::new("columnar_warm", label), &(), |b, _| {
            let observer = MetricsObserver::new(b.metrics());
            let cache = warm_cache(rules, &program, &columns);
            b.iter_batched(
                || columns.clone(),
                |mut t| {
                    columnar_table(
                        rules,
                        &program,
                        CompiledEngine::Linear,
                        Some(&cache),
                        &mut t,
                        &observer,
                    )
                },
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_with_input(
            BenchmarkId::new("columnar_warm_attributed", label),
            &(),
            |b, _| {
                let observer = MetricsObserver::new(b.metrics());
                let attribution =
                    AttributionObserver::new(&MetricsRegistry::new(), rule_labels(rules));
                let teed = Tee(&observer, &attribution);
                let cache = warm_cache(rules, &program, &columns);
                b.iter_batched(
                    || columns.clone(),
                    |mut t| {
                        columnar_table(
                            rules,
                            &program,
                            CompiledEngine::Linear,
                            Some(&cache),
                            &mut t,
                            &teed,
                        )
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_columnar_repair
}
criterion_main!(benches);
