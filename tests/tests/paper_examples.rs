//! The paper's worked examples, end to end through the public API: Fig 1
//! (dirty Travel data), Fig 2 (master data), Fig 3 (φ1/φ2), Example 8
//! (inconsistency), Fig 8 (lRepair trace), and the §5.3 resolution.

use fixrules::consistency::resolve::{ensure_consistent, Strategy};
use fixrules::repair::{crepair_table, lrepair_table, LRepairIndex, NoopObserver};
use fixrules::semantics::all_fixes;
use fixrules::{FixingRule, RuleId};
use relation::SymbolTable;

#[test]
fn fig1_fig3_phi1_phi2_fix_two_of_four_errors() {
    // Example 2: with only φ1 and φ2, r2.capital and r4.capital are
    // repaired; r2.city and r3.country remain.
    let schema = datagen::travel::schema();
    let mut sy = SymbolTable::new();
    let mut dirty = datagen::travel::dirty_instance(&mut sy, &schema);
    let clean = datagen::travel::clean_instance(&mut sy, &schema);
    let mut rules = fixrules::RuleSet::new(schema.clone());
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
    let outcome = crepair_table(&rules, &mut dirty, &NoopObserver);
    assert_eq!(outcome.total_updates(), 2);
    // Two errors remain (r2.city, r3.country).
    assert_eq!(dirty.diff_cells(&clean).unwrap(), 2);
    let capital = schema.attr("capital").unwrap();
    assert_eq!(sy.resolve(dirty.cell(1, capital)), "Beijing");
    assert_eq!(sy.resolve(dirty.cell(3, capital)), "Ottawa");
}

#[test]
fn fig8_full_rule_set_fixes_everything_with_both_algorithms() {
    let schema = datagen::travel::schema();
    let mut sy = SymbolTable::new();
    let rules = datagen::travel::fig8_rules(&mut sy, &schema);
    let clean = datagen::travel::clean_instance(&mut sy, &schema);
    for use_linear in [false, true] {
        let mut dirty = datagen::travel::dirty_instance(&mut sy, &schema);
        if use_linear {
            let index = LRepairIndex::build(&rules);
            lrepair_table(&rules, &index, &mut dirty, &NoopObserver);
        } else {
            crepair_table(&rules, &mut dirty, &NoopObserver);
        }
        assert_eq!(dirty.diff_cells(&clean).unwrap(), 0, "linear={use_linear}");
    }
}

#[test]
fn example_8_inconsistency_detected_resolved_and_verified() {
    let schema = datagen::travel::schema();
    let mut sy = SymbolTable::new();
    let mut rules = fixrules::RuleSet::new(schema.clone());
    rules.push(datagen::travel::phi1_prime(&mut sy, &schema));
    rules
        .push_named(
            &mut sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        )
        .unwrap();

    // r3 reaches two fixpoints under the inconsistent pair.
    let r3: Vec<relation::Symbol> = ["Peter", "China", "Tokyo", "Tokyo", "ICDE"]
        .iter()
        .map(|v| sy.intern(v))
        .collect();
    let refs: Vec<&FixingRule> = rules.rules().iter().collect();
    assert_eq!(all_fixes(&refs, &r3).len(), 2);

    // Both checkers agree; resolution applies the paper's expert fix.
    assert!(!rules.check_consistency().is_consistent());
    let log = ensure_consistent(&mut rules, Strategy::ShrinkNegatives);
    assert_eq!(log.negatives_removed(), 1);
    assert!(rules.check_consistency().is_consistent());

    // After resolution r3 has the unique (correct) fix: country := Japan.
    let refs: Vec<&FixingRule> = rules.rules().iter().collect();
    let fixes = all_fixes(&refs, &r3);
    assert_eq!(fixes.len(), 1);
    let fixed = fixes.into_iter().next().unwrap();
    assert_eq!(sy.resolve(fixed[1]), "Japan");
    assert_eq!(sy.resolve(fixed[2]), "Tokyo");
}

#[test]
fn fig2_master_data_drives_rule_generation() {
    // Seeds from Fig 1's country→capital violations with Fig 2's master
    // data reproduce φ1/φ2-shaped rules that then repair the data they
    // were seeded from.
    let schema = datagen::travel::schema();
    let mut sy = SymbolTable::new();
    let dirty = datagen::travel::dirty_instance(&mut sy, &schema);
    // Master data (Fig 2) projected through the Travel schema.
    let mut master_rows = relation::Table::new(schema.clone());
    for row in [
        ["-", "China", "Beijing", "-", "-"],
        ["-", "Canada", "Ottawa", "-", "-"],
        ["-", "Japan", "Tokyo", "-", "-"],
    ] {
        master_rows.push_strs(&mut sy, &row).unwrap();
    }
    let country = schema.attr("country").unwrap();
    let capital = schema.attr("capital").unwrap();
    let master = fixrules::generation::MasterIndex::build(&master_rows, &[country], capital);
    let fd = fd::Fd::from_names(&schema, ["country"], ["capital"]).unwrap();
    let seeds = fixrules::generation::seed_rules_from_violations(&dirty, &fd, &[master]);
    // China group: Shanghai and Tokyo disagree with Beijing; Canada group
    // is not violated (r4 alone carries Canada)... r4 is a singleton group,
    // so only the China rule is seeded.
    assert_eq!(seeds.len(), 1);
    let rule = &seeds[0];
    assert_eq!(rule.evidence_value(country), sy.get("China"));
    assert_eq!(rule.fact(), sy.get("Beijing").unwrap());

    let mut rules = fixrules::RuleSet::new(schema.clone());
    for s in seeds {
        rules.push(s);
    }
    let mut repaired = dirty.clone();
    let outcome = crepair_table(&rules, &mut repaired, &NoopObserver);
    // Both China capital errors (r2 Shanghai, r3 Tokyo) are rewritten to
    // Beijing; for r3 that is exactly the dependable-but-wrong trade the
    // paper resolves by *removing* Tokyo from the negatives (§5.3).
    assert_eq!(outcome.total_updates(), 2);
}

#[test]
fn fig8_lrepair_trace_matches_walkthrough() {
    // The Fig 8 narrative: r1 unchanged; r2 repaired by φ1 then φ4; r3 by
    // φ3; r4 by φ2.
    let schema = datagen::travel::schema();
    let mut sy = SymbolTable::new();
    let rules = datagen::travel::fig8_rules(&mut sy, &schema);
    let index = LRepairIndex::build(&rules);
    let mut dirty = datagen::travel::dirty_instance(&mut sy, &schema);
    let outcome = lrepair_table(&rules, &index, &mut dirty, &NoopObserver);

    let rules_for_row = |row: usize| -> Vec<RuleId> {
        outcome
            .updates
            .iter()
            .filter(|u| u.row == row)
            .map(|u| u.rule)
            .collect()
    };
    assert!(rules_for_row(0).is_empty());
    assert_eq!(rules_for_row(1), vec![RuleId(0), RuleId(3)]);
    assert_eq!(rules_for_row(2), vec![RuleId(2)]);
    assert_eq!(rules_for_row(3), vec![RuleId(1)]);
}
