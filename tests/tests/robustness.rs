//! Failure-injection and edge-condition tests: the engine must stay
//! well-behaved when its inputs are hostile — poisoned reference data,
//! inconsistent rule sets, unicode content, extreme noise rates.

use datagen::noise::{inject, NoiseConfig};
use eval::rules::{build_ruleset, RuleGenConfig};
use eval::score;
use fixrules::generation::MasterIndex;
use fixrules::repair::{crepair_table, lrepair_table, LRepairIndex, NoopObserver};
use fixrules::{FixingRule, RuleSet};
use relation::{Schema, SymbolTable, Table};

#[test]
fn poisoned_master_data_degrades_gracefully() {
    // Corrupt the reference data the oracle is built from: rules stay
    // structurally valid and consistent, repairs get worse — but nothing
    // panics and precision is exactly measurable.
    let mut dataset = datagen::uis::generate(1_000, 41);
    let attrs = dataset.constrained_attrs();
    let mut dirty = dataset.clean.clone();
    inject(
        &mut dirty,
        &mut dataset.symbols,
        &attrs,
        NoiseConfig {
            rate: 0.10,
            typo_fraction: 0.5,
            seed: 41,
        },
    );

    // Poison: swap the ground truth used for oracle building by shuffling
    // one column's values cyclically.
    let state = dataset.schema.attr("state").unwrap();
    let n = dataset.clean.len();
    let first = dataset.clean.cell(0, state);
    for i in 0..n - 1 {
        let next = dataset.clean.cell(i + 1, state);
        dataset.clean.set_cell(i, state, next);
        let _ = next;
    }
    dataset.clean.set_cell(n - 1, state, first);

    let (rules, _) = build_ruleset(
        &mut dataset,
        &dirty,
        RuleGenConfig {
            target: 40,
            seed: 41,
            enrich_factor: 1.0,
        },
    );
    assert!(rules.check_consistency().is_consistent());
    let index = LRepairIndex::build(&rules);
    let mut repaired = dirty.clone();
    lrepair_table(&rules, &index, &mut repaired, &NoopObserver); // must not panic
}

#[test]
fn inconsistent_rules_still_terminate_per_tuple() {
    // Production repair requires consistent Σ, but feeding an inconsistent
    // set must never loop: every application assures an attribute, so at
    // most |R| rules fire per tuple.
    let schema = Schema::new("R", ["a", "b", "c"]).unwrap();
    let mut sy = SymbolTable::new();
    let mut rules = RuleSet::new(schema.clone());
    // Mutually conflicting pair (case 2c shape).
    rules
        .push_named(&mut sy, &[("a", "k")], "b", &["x"], "y")
        .unwrap();
    rules
        .push_named(&mut sy, &[("b", "x")], "a", &["k"], "j")
        .unwrap();
    assert!(!rules.check_consistency().is_consistent());
    let mut t = Table::new(schema);
    t.push_strs(&mut sy, &["k", "x", "z"]).unwrap();
    let index = LRepairIndex::build(&rules);
    let mut by_l = t.clone();
    let out_l = lrepair_table(&rules, &index, &mut by_l, &NoopObserver);
    let mut by_c = t.clone();
    let out_c = crepair_table(&rules, &mut by_c, &NoopObserver);
    // Each algorithm applied at most |R| rules and terminated; with an
    // inconsistent set they may legitimately disagree.
    assert!(out_l.total_updates() <= 3);
    assert!(out_c.total_updates() <= 3);
}

#[test]
fn unicode_values_flow_through_the_whole_stack() {
    let schema = Schema::new("T", ["国家", "首都"]).unwrap();
    let mut sy = SymbolTable::new();
    let mut rules = RuleSet::new(schema.clone());
    rules
        .push_named(
            &mut sy,
            &[("国家", "中国")],
            "首都",
            &["上海", "香港"],
            "北京",
        )
        .unwrap();
    assert!(rules.check_consistency().is_consistent());
    let mut t = Table::new(schema.clone());
    t.push_strs(&mut sy, &["中国", "上海"]).unwrap();
    t.push_strs(&mut sy, &["日本", "東京"]).unwrap();
    let index = LRepairIndex::build(&rules);
    let out = lrepair_table(&rules, &index, &mut t, &NoopObserver);
    assert_eq!(out.total_updates(), 1);
    assert_eq!(sy.resolve(t.cell(0, schema.attr("首都").unwrap())), "北京");

    // Rule file round-trip with CJK content.
    let text = fixrules::io::format_rules(&rules, &sy);
    let parsed = fixrules::io::parse_rules(&text, &schema, &mut sy).unwrap();
    assert_eq!(parsed.len(), 1);

    // CSV round-trip too.
    let mut buf = Vec::new();
    relation::csv_io::write_csv(&mut buf, &t, &sy).unwrap();
    let mut sy2 = SymbolTable::new();
    let loaded = relation::csv_io::read_csv(buf.as_slice(), "T", &mut sy2).unwrap();
    assert_eq!(loaded.row_strs(&sy2, 0), vec!["中国", "北京"]);
}

#[test]
fn extreme_noise_rates_are_handled() {
    for rate in [0.0, 1.0] {
        let mut d = datagen::uis::generate(300, 43);
        let attrs = d.constrained_attrs();
        let mut dirty = d.clean.clone();
        let log = inject(
            &mut dirty,
            &mut d.symbols,
            &attrs,
            NoiseConfig {
                rate,
                typo_fraction: 0.5,
                seed: 43,
            },
        );
        if rate == 0.0 {
            assert!(log.is_empty());
            assert_eq!(d.clean.diff_cells(&dirty).unwrap(), 0);
        } else {
            assert_eq!(log.len(), 300);
        }
        let (rules, _) = build_ruleset(
            &mut d,
            &dirty,
            RuleGenConfig {
                target: 20,
                seed: 43,
                enrich_factor: 1.0,
            },
        );
        let index = LRepairIndex::build(&rules);
        let mut repaired = dirty.clone();
        lrepair_table(&rules, &index, &mut repaired, &NoopObserver);
        let acc = score(&d.clean, &dirty, &repaired);
        assert!(acc.precision() >= 0.0 && acc.precision() <= 1.0);
    }
}

#[test]
fn master_index_on_empty_reference_yields_no_rules() {
    let schema = Schema::new("T", ["k", "v"]).unwrap();
    let empty = Table::new(schema.clone());
    let k = schema.attr("k").unwrap();
    let v = schema.attr("v").unwrap();
    let master = MasterIndex::build(&empty, &[k], v);
    assert!(master.is_empty());
    let mut sy = SymbolTable::new();
    let mut dirty = Table::new(schema.clone());
    dirty.push_strs(&mut sy, &["a", "1"]).unwrap();
    dirty.push_strs(&mut sy, &["a", "2"]).unwrap();
    let fd = fd::Fd::from_names(&schema, ["k"], ["v"]).unwrap();
    let seeds = fixrules::generation::seed_rules_from_violations(&dirty, &fd, &[master]);
    assert!(seeds.is_empty());
}

#[test]
fn rule_against_every_attribute_width() {
    // Schemas at the 128-attribute cap still work end to end.
    let names: Vec<String> = (0..128).map(|i| format!("a{i}")).collect();
    let schema = Schema::new("Wide", names).unwrap();
    let mut sy = SymbolTable::new();
    let mut rules = RuleSet::new(schema.clone());
    // Evidence on the first and last attributes, repairing the middle.
    let ev_first = ("a0", "k");
    let ev_last = ("a127", "k");
    rules
        .push_named(&mut sy, &[ev_first, ev_last], "a64", &["bad"], "good")
        .unwrap();
    let mut row: Vec<&str> = vec!["-"; 128];
    row[0] = "k";
    row[127] = "k";
    row[64] = "bad";
    let mut t = Table::new(schema.clone());
    t.push_strs(&mut sy, &row).unwrap();
    let index = LRepairIndex::build(&rules);
    let out = lrepair_table(&rules, &index, &mut t, &NoopObserver);
    assert_eq!(out.total_updates(), 1);
    assert_eq!(sy.resolve(t.cell(0, schema.attr("a64").unwrap())), "good");
}

#[test]
fn single_row_and_single_rule_minimal_cases() {
    let schema = Schema::new("T", ["k", "v"]).unwrap();
    let mut sy = SymbolTable::new();
    let mut rules = RuleSet::new(schema.clone());
    rules
        .push_named(&mut sy, &[("k", "a")], "v", &["1"], "2")
        .unwrap();
    // Empty table.
    let mut empty = Table::new(schema.clone());
    let index = LRepairIndex::build(&rules);
    assert_eq!(
        lrepair_table(&rules, &index, &mut empty, &NoopObserver).total_updates(),
        0
    );
    // One matching row.
    let mut one = Table::new(schema.clone());
    one.push_strs(&mut sy, &["a", "1"]).unwrap();
    assert_eq!(
        lrepair_table(&rules, &index, &mut one, &NoopObserver).total_updates(),
        1
    );
    // Rule with evidence value never present.
    let phi = FixingRule::from_named(&schema, &mut sy, &[("k", "zz")], "v", &["1"], "3").unwrap();
    let mut rs2 = RuleSet::new(schema.clone());
    rs2.push(phi);
    let index2 = LRepairIndex::build(&rs2);
    let mut again = one.clone();
    assert_eq!(
        lrepair_table(&rs2, &index2, &mut again, &NoopObserver).total_updates(),
        0
    );
}
