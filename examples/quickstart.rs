//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Travel table of Fig 1 (four tuples, four injected errors),
//! declares the fixing rules φ1–φ4 of Fig 3/§6.2, checks their consistency,
//! and repairs the table with `lRepair`, printing the Fig 8 walk-through.
//!
//! ```text
//! cargo run -p examples --bin quickstart
//! ```

use fixrules::repair::{lrepair_table, LRepairIndex, NoopObserver};
use fixrules::RuleSet;
use relation::{Schema, SymbolTable, Table};

fn main() {
    // Travel(name, country, capital, city, conf) — Example 1.
    let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
    let mut symbols = SymbolTable::new();

    // Fig 1: r2.capital, r2.city, r3.country and r4.capital are wrong.
    let mut table = Table::new(schema.clone());
    for row in [
        ["George", "China", "Beijing", "Beijing", "SIGMOD"],
        ["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
        ["Peter", "China", "Tokyo", "Tokyo", "ICDE"],
        ["Mike", "Canada", "Toronto", "Toronto", "VLDB"],
    ] {
        table.push_strs(&mut symbols, &row).unwrap();
    }

    // φ1–φ4.
    let mut rules = RuleSet::new(schema.clone());
    rules
        .push_named(
            &mut symbols,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        )
        .unwrap();
    rules
        .push_named(
            &mut symbols,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
    rules
        .push_named(
            &mut symbols,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        )
        .unwrap();
    rules
        .push_named(
            &mut symbols,
            &[("capital", "Beijing"), ("conf", "ICDE")],
            "city",
            &["Hongkong"],
            "Shanghai",
        )
        .unwrap();

    println!("rules:");
    for (id, rule) in rules.iter() {
        println!("  φ{}: {}", id.0 + 1, rule.display(&schema, &symbols));
    }

    // §5: never repair with unchecked rules.
    let report = rules.check_consistency();
    assert!(report.is_consistent());
    println!(
        "\nconsistency: OK ({} rule pairs checked)\n",
        report.pairs_checked
    );

    println!("before repair:");
    for i in 0..table.len() {
        println!("  r{}: {:?}", i + 1, table.row_strs(&symbols, i));
    }

    // §6.2: lRepair with inverted lists + hash counters.
    let index = LRepairIndex::build(&rules);
    let outcome = lrepair_table(&rules, &index, &mut table, &NoopObserver);

    println!("\napplied updates (Fig 8):");
    for u in &outcome.updates {
        println!(
            "  r{}.{}: {} -> {}   (φ{})",
            u.row + 1,
            schema.attr_name(u.attr),
            symbols.resolve(u.old),
            symbols.resolve(u.new),
            u.rule.0 + 1
        );
    }

    println!("\nafter repair:");
    for i in 0..table.len() {
        println!("  r{}: {:?}", i + 1, table.row_strs(&symbols, i));
    }

    assert_eq!(outcome.total_updates(), 4);
    println!("\nall four errors of Fig 1 corrected ✓");
}
