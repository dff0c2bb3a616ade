//! The paper's running example: the Travel relation of Fig 1, the master
//! data of Fig 2, and the rules φ1–φ4 of Fig 3 / §6.2.

use fd::Fd;
use fixrules::RuleSet;
use relation::{Schema, SymbolTable, Table};

use crate::Dataset;

/// The Travel schema of Example 1.
pub fn schema() -> Schema {
    Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
}

/// The dirty instance of Fig 1 (r1–r4, errors included).
pub fn dirty_instance(symbols: &mut SymbolTable, schema: &Schema) -> Table {
    let mut t = Table::new(schema.clone());
    for row in [
        ["George", "China", "Beijing", "Beijing", "SIGMOD"],
        ["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
        ["Peter", "China", "Tokyo", "Tokyo", "ICDE"],
        ["Mike", "Canada", "Toronto", "Toronto", "VLDB"],
    ] {
        t.push_strs(symbols, &row).unwrap();
    }
    t
}

/// The corrected instance (bracketed values of Fig 1 applied).
pub fn clean_instance(symbols: &mut SymbolTable, schema: &Schema) -> Table {
    let mut t = Table::new(schema.clone());
    for row in [
        ["George", "China", "Beijing", "Beijing", "SIGMOD"],
        ["Ian", "China", "Beijing", "Shanghai", "ICDE"],
        ["Peter", "Japan", "Tokyo", "Tokyo", "ICDE"],
        ["Mike", "Canada", "Ottawa", "Toronto", "VLDB"],
    ] {
        t.push_strs(symbols, &row).unwrap();
    }
    t
}

/// The rules φ1–φ4 used in the Fig 8 walk-through.
pub fn fig8_rules(symbols: &mut SymbolTable, schema: &Schema) -> RuleSet {
    let mut rs = RuleSet::new(schema.clone());
    rs.push_named(
        symbols,
        &[("country", "China")],
        "capital",
        &["Shanghai", "Hongkong"],
        "Beijing",
    )
    .unwrap();
    rs.push_named(
        symbols,
        &[("country", "Canada")],
        "capital",
        &["Toronto"],
        "Ottawa",
    )
    .unwrap();
    rs.push_named(
        symbols,
        &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
        "country",
        &["China"],
        "Japan",
    )
    .unwrap();
    rs.push_named(
        symbols,
        &[("capital", "Beijing"), ("conf", "ICDE")],
        "city",
        &["Hongkong"],
        "Shanghai",
    )
    .unwrap();
    rs
}

/// The over-broad φ'1 of Example 8 (inconsistent with φ3), for the
/// rule-authoring example and tests.
pub fn phi1_prime(symbols: &mut SymbolTable, schema: &Schema) -> fixrules::FixingRule {
    fixrules::FixingRule::from_named(
        schema,
        symbols,
        &[("country", "China")],
        "capital",
        &["Shanghai", "Hongkong", "Tokyo"],
        "Beijing",
    )
    .unwrap()
}

/// Travel as a [`Dataset`] (clean instance as ground truth, the ψ1 FD).
pub fn dataset() -> Dataset {
    let schema = schema();
    let mut symbols = SymbolTable::new();
    let clean = clean_instance(&mut symbols, &schema);
    let fds = vec![Fd::from_names(&schema, ["country"], ["capital"]).unwrap()];
    Dataset {
        name: "travel",
        schema,
        symbols,
        clean,
        fds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_and_clean_differ_on_the_four_errors() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let dirty = dirty_instance(&mut sy, &schema);
        let clean = clean_instance(&mut sy, &schema);
        assert_eq!(dirty.diff_cells(&clean).unwrap(), 4);
    }

    #[test]
    fn fig8_rules_are_consistent_and_fix_everything() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy, &schema);
        assert!(rules.check_consistency().is_consistent());
        let mut dirty = dirty_instance(&mut sy, &schema);
        let clean = clean_instance(&mut sy, &schema);
        fixrules::repair::crepair_table(&rules, &mut dirty, &fixrules::repair::NoopObserver);
        assert_eq!(dirty.diff_cells(&clean).unwrap(), 0);
    }

    #[test]
    fn phi1_prime_conflicts_with_phi3() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let mut rules = fig8_rules(&mut sy, &schema);
        rules.push(phi1_prime(&mut sy, &schema));
        assert!(!rules.check_consistency().is_consistent());
    }

    #[test]
    fn dataset_truth_satisfies_fd() {
        let d = dataset();
        assert!(fd::violation::satisfies_all(&d.clean, &d.fds));
    }
}
