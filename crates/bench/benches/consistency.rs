//! Fig 9 bench: consistency checking, `isConsist_r` vs `isConsist_t`,
//! worst case (all pairs) and real case (stop at first conflict).
//! `isConsist_r` is the published all-pairs loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fixrules::consistency::{is_consistent_all_pairs, is_consistent_enumerate};
use fixrules::FixingRule;

fn bench_consistency(c: &mut Criterion) {
    let workload = bench::hosp_workload(4_000, 400);
    let mut group = c.benchmark_group("fig9_consistency");
    for &n in &[100usize, 200, 400] {
        let mut subset = workload.rules.clone();
        subset.truncate(n);
        group.bench_with_input(BenchmarkId::new("isConsist_r_worst", n), &n, |b, _| {
            b.iter(|| is_consistent_all_pairs(&subset, usize::MAX))
        });
        group.bench_with_input(BenchmarkId::new("isConsist_t_worst", n), &n, |b, _| {
            b.iter(|| is_consistent_enumerate(&subset, usize::MAX))
        });
        // Real case: a cloned rule with a different fact conflicts with its
        // original; checking stops at the first hit.
        let mut dirty_set = subset.clone();
        let victim = dirty_set.rule(fixrules::RuleId(0)).clone();
        let evidence = victim
            .x()
            .iter()
            .copied()
            .zip(victim.tp().iter().copied())
            .collect();
        // A symbol no real value uses (SymbolTable ids are dense from 0).
        let fresh = relation::Symbol(u32::MAX - 1);
        dirty_set
            .push(FixingRule::new(evidence, victim.b(), victim.neg().to_vec(), fresh).unwrap());
        group.bench_with_input(BenchmarkId::new("isConsist_r_real", n), &n, |b, _| {
            b.iter(|| is_consistent_all_pairs(&dirty_set, 1))
        });
        group.bench_with_input(BenchmarkId::new("isConsist_t_real", n), &n, |b, _| {
            b.iter(|| is_consistent_enumerate(&dirty_set, 1))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_consistency
}
criterion_main!(benches);
