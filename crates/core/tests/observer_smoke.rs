//! Observability must not change repair results, and an aggregating
//! observer must not make the hot path measurably slower — the drivers
//! monomorphize over the observer, so with [`obs::NoopObserver`] every hook
//! compiles to nothing.

use std::time::{Duration, Instant};

use fixrules::repair::{lrepair_table, LRepairIndex};
use fixrules::RuleSet;
use obs::{AttributionObserver, MetricsObserver, MetricsRegistry, NoopObserver, RuleLabel};
use relation::{Schema, SymbolTable, Table};

fn labels() -> Vec<RuleLabel> {
    ["r0", "r1"]
        .iter()
        .map(|r| RuleLabel {
            rule: r.to_string(),
            attr: "capital".to_string(),
        })
        .collect()
}

fn setup(rows: usize) -> (RuleSet, Table) {
    let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
    let mut sy = SymbolTable::new();
    let mut rules = RuleSet::new(schema.clone());
    rules
        .push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        )
        .unwrap();
    rules
        .push_named(
            &mut sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
    let capitals = ["Beijing", "Shanghai", "Hongkong", "Toronto"].map(|v| sy.intern(v));
    let countries = ["China", "Canada"].map(|v| sy.intern(v));
    let names: Vec<_> = (0..97).map(|i| sy.intern(&format!("n{i}"))).collect();
    let filler = sy.intern("x");
    let mut table = Table::new(schema);
    for i in 0..rows {
        table
            .push_row(&[
                names[i % names.len()],
                countries[i % 2],
                capitals[i % 4],
                filler,
                filler,
            ])
            .unwrap();
    }
    (rules, table)
}

#[test]
fn observed_repair_matches_plain_repair() {
    let (rules, table) = setup(2_000);
    let index = LRepairIndex::build(&rules);

    let mut plain = table.clone();
    let out_plain = lrepair_table(&rules, &index, &mut plain, &NoopObserver);

    let registry = MetricsRegistry::new();
    let mut metered = table.clone();
    let out_metered = lrepair_table(
        &rules,
        &index,
        &mut metered,
        &MetricsObserver::new(&registry),
    );

    assert_eq!(out_plain.updates, out_metered.updates);
    for i in 0..plain.len() {
        assert_eq!(plain.row(i), metered.row(i));
    }

    // The metered run really counted: every touched tuple and update shows
    // up in the registry.
    let snap = registry.snapshot();
    let counters = snap.get("counters").unwrap();
    let get = |name: &str| counters.get(name).and_then(|v| v.as_i64()).unwrap();
    assert_eq!(get("repair.tuples"), 2_000);
    assert_eq!(get("repair.updates") as usize, out_plain.total_updates());
    assert_eq!(
        get("repair.tuples_touched") as usize,
        out_plain.rows_touched()
    );
}

/// The attribution observer neither changes results nor loses a single
/// application: the per-rule split sums back to the driver's own totals,
/// and on this synthetic workload each rule's count is exactly known
/// (every fourth row matches r0, every fourth matches r1).
#[test]
fn attribution_observer_matches_plain_and_attributes_per_rule() {
    let (rules, table) = setup(2_000);
    let index = LRepairIndex::build(&rules);

    let mut plain = table.clone();
    let out_plain = lrepair_table(&rules, &index, &mut plain, &NoopObserver);

    let registry = MetricsRegistry::new();
    let attribution = AttributionObserver::new(&registry, labels());
    let mut attributed = table.clone();
    let out_attr = lrepair_table(&rules, &index, &mut attributed, &attribution);

    assert_eq!(out_plain.updates, out_attr.updates);
    for i in 0..plain.len() {
        assert_eq!(plain.row(i), attributed.row(i));
    }

    let profile = attribution.profile();
    let total: u64 = profile.rows.iter().map(|r| r.applied).sum();
    assert_eq!(total as usize, out_plain.total_updates());
    let row_of = |rule: &str| profile.rows.iter().find(|r| r.rule == rule).unwrap();
    // setup(): China rows are even, Hongkong sits at i % 4 == 2 (r0 fires)
    // and Beijing at i % 4 == 0 (r0 is popped and rejected); Canada rows
    // are odd, Toronto at i % 4 == 3 (r1 fires) and Shanghai at i % 4 == 1
    // (r1 is rejected). The rejections arrive batched, once per rule.
    for rule in ["r0", "r1"] {
        assert_eq!(row_of(rule).applied, 500, "{rule}");
        assert_eq!(row_of(rule).rejected, 500, "{rule}");
    }
    // The same split is scrapeable as labeled registry series.
    let snap = registry.snapshot();
    assert_eq!(
        snap.get("counters")
            .unwrap()
            .get("repair.rule.applied{attr=\"capital\",rule=\"r0\"}")
            .and_then(|v| v.as_i64()),
        Some(500)
    );
}

/// Smoke check, not a benchmark: an observed run must finish in the same
/// ballpark as the plain ([`NoopObserver`]) run. The bound is deliberately
/// loose (4× + 25 ms on best-of-5) so scheduler noise can't flake it; a
/// real regression — an observer that allocates or locks per tuple —
/// blows past it by an order of magnitude.
#[test]
fn noop_observer_overhead_is_negligible() {
    let (rules, table) = setup(30_000);
    let index = LRepairIndex::build(&rules);

    let best_of = |f: &dyn Fn(&mut Table)| {
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let mut copy = table.clone();
            let start = Instant::now();
            f(&mut copy);
            best = best.min(start.elapsed());
        }
        best
    };

    let plain = best_of(&|t| {
        lrepair_table(&rules, &index, t, &NoopObserver);
    });
    // The attribution observer is relaxed atomics per hook —
    // slower than no-op, but it must stay in the same ballpark too.
    let registry = MetricsRegistry::new();
    let attribution = AttributionObserver::new(&registry, labels());
    let attributed = best_of(&|t| {
        lrepair_table(&rules, &index, t, &attribution);
    });
    assert!(
        attributed <= plain * 4 + Duration::from_millis(25),
        "attributed repair took {attributed:?} vs plain {plain:?}"
    );
}
