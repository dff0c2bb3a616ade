//! `cRepair` — the chase-based repairing algorithm (Fig 6).
//!
//! Repeatedly scan the not-yet-applied rules; whenever one is properly
//! applicable, apply it and rescan. Each application assures at least one
//! new attribute, so the outer loop runs at most `|R|` times and the whole
//! tuple costs `O(size(Σ)·|R|)`.

use obs::{NoopObserver, RepairObserver};
use relation::{AttrSet, Symbol, Table};

use crate::repair::{CellUpdate, RepairOutcome};
use crate::ruleset::{RuleId, RuleSet};
use crate::semantics::{matches, properly_applicable};

/// Repair one tuple in place. Returns the applied updates (with `row` set
/// to 0; table drivers re-index).
pub fn crepair_tuple(rules: &RuleSet, row: &mut [Symbol]) -> Vec<CellUpdate> {
    crepair_tuple_observed(rules, row, &NoopObserver)
}

/// [`crepair_tuple`] with observer hooks: `rule_applied` per fired rule,
/// `rule_rejected` per miss, `tuples_done(.., 1)` at fixpoint.
/// With [`NoopObserver`] this monomorphizes to the unobserved hot path.
pub(crate) fn crepair_tuple_observed<O: RepairObserver>(
    rules: &RuleSet,
    row: &mut [Symbol],
    observer: &O,
) -> Vec<CellUpdate> {
    let mut assured = AttrSet::EMPTY;
    // Γ: rules not yet applied. A rule leaves Γ when it fires (Fig 6 line
    // 7); unapplied rules are rescanned after every update.
    let mut unused = vec![true; rules.len()];
    let mut updates = Vec::new();
    let mut rounds = 0usize;
    let mut updated = true;
    // Per-rule latency is opt-in: under NoopObserver the Instant pair and
    // the rejection hook fold away with the rest of the instrumentation.
    let timing = observer.wants_rule_timing();
    while updated {
        updated = false;
        rounds += 1;
        for (i, rule) in rules.rules().iter().enumerate() {
            if !unused[i] {
                continue; // already fired — not an evaluation
            }
            let t0 = timing.then(std::time::Instant::now);
            if assured.contains(rule.b()) || !matches(rule, row) {
                observer.rule_rejected(i);
                if let Some(t0) = t0 {
                    observer.rule_latency(i, t0.elapsed().as_nanos() as u64);
                }
                continue;
            }
            debug_assert!(properly_applicable(rule, row, assured));
            let b = rule.b();
            let old = row[b.index()];
            row[b.index()] = rule.fact();
            assured.union_with(rule.assured_delta());
            unused[i] = false;
            updated = true;
            observer.rule_applied(i, b.index());
            if let Some(t0) = t0 {
                observer.rule_latency(i, t0.elapsed().as_nanos() as u64);
            }
            updates.push(CellUpdate {
                row: 0,
                attr: b,
                old,
                new: rule.fact(),
                rule: RuleId(i as u32),
                round: rounds as u32,
            });
        }
    }
    observer.tuples_done(rounds, updates.len(), 1);
    updates
}

/// Repair every tuple of a table in place with `cRepair`. Observer hooks:
/// the per-tuple hooks of [`crepair_tuple`] plus one `cell_repaired` per
/// applied update (the table driver knows the row index; the per-tuple
/// algorithm doesn't); pass [`NoopObserver`] for none.
pub fn crepair_table<O: RepairObserver>(
    rules: &RuleSet,
    table: &mut Table,
    observer: &O,
) -> RepairOutcome {
    assert!(
        rules.schema().same_as(table.schema()),
        "rule set and table must share a schema"
    );
    let mut outcome = RepairOutcome::default();
    for i in 0..table.len() {
        let mut ups = crepair_tuple_observed(rules, table.row_mut(i), observer);
        for (k, u) in ups.iter_mut().enumerate() {
            u.row = i;
            observer.cell_repaired(u.as_fix(k));
        }
        outcome.updates.extend(ups);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, SymbolTable};

    fn schema() -> Schema {
        Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
    }

    /// The four rules of Fig 8 (φ1–φ4).
    fn fig8_rules(sy: &mut SymbolTable) -> RuleSet {
        let mut rs = RuleSet::new(schema());
        rs.push_named(
            sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        )
        .unwrap();
        rs.push_named(
            sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
        rs.push_named(
            sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        )
        .unwrap();
        rs.push_named(
            sy,
            &[("capital", "Beijing"), ("conf", "ICDE")],
            "city",
            &["Hongkong"],
            "Shanghai",
        )
        .unwrap();
        rs
    }

    /// The Fig 1 instance, over the rule set's schema instance.
    fn fig1_table(sy: &mut SymbolTable, schema: &Schema) -> Table {
        let mut t = Table::new(schema.clone());
        for row in [
            ["George", "China", "Beijing", "Beijing", "SIGMOD"],
            ["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
            ["Peter", "China", "Tokyo", "Tokyo", "ICDE"],
            ["Mike", "Canada", "Toronto", "Toronto", "VLDB"],
        ] {
            t.push_strs(sy, &row).unwrap();
        }
        t
    }

    #[test]
    fn repairs_fig1_exactly_as_fig8() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        assert!(rules.check_consistency().is_consistent());
        let mut table = fig1_table(&mut sy, &rules.schema().clone());
        let outcome = crepair_table(&rules, &mut table, &NoopObserver);
        // All four errors corrected: r2.capital, r2.city, r3.country,
        // r4.capital.
        assert_eq!(outcome.total_updates(), 4);
        assert_eq!(outcome.rows_touched(), 3);
        let strs = |i: usize| -> Vec<&str> { table.row_strs(&sy, i) };
        assert_eq!(
            strs(0),
            vec!["George", "China", "Beijing", "Beijing", "SIGMOD"]
        );
        assert_eq!(strs(1), vec!["Ian", "China", "Beijing", "Shanghai", "ICDE"]);
        assert_eq!(strs(2), vec!["Peter", "Japan", "Tokyo", "Tokyo", "ICDE"]);
        assert_eq!(strs(3), vec!["Mike", "Canada", "Ottawa", "Toronto", "VLDB"]);
    }

    #[test]
    fn clean_tuple_untouched() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let mut row: Vec<Symbol> = ["George", "China", "Beijing", "Beijing", "SIGMOD"]
            .iter()
            .map(|v| sy.intern(v))
            .collect();
        let before = row.clone();
        let ups = crepair_tuple(&rules, &mut row);
        assert!(ups.is_empty());
        assert_eq!(row, before);
    }

    #[test]
    fn cascade_fires_within_one_tuple() {
        // r2: φ1 then φ4 (via the updated capital), as in Fig 8.
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let mut row: Vec<Symbol> = ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]
            .iter()
            .map(|v| sy.intern(v))
            .collect();
        let ups = crepair_tuple(&rules, &mut row);
        assert_eq!(ups.len(), 2);
        assert_eq!(ups[0].rule, RuleId(0));
        assert_eq!(ups[1].rule, RuleId(3));
        assert_eq!(sy.resolve(row[2]), "Beijing");
        assert_eq!(sy.resolve(row[3]), "Shanghai");
    }

    #[test]
    fn each_rule_applies_at_most_once_per_tuple() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let mut row: Vec<Symbol> = ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]
            .iter()
            .map(|v| sy.intern(v))
            .collect();
        let ups = crepair_tuple(&rules, &mut row);
        let mut fired: Vec<RuleId> = ups.iter().map(|u| u.rule).collect();
        fired.sort();
        let before = fired.len();
        fired.dedup();
        assert_eq!(fired.len(), before);
    }

    #[test]
    fn updates_record_old_and_new_values() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let mut table = fig1_table(&mut sy, &rules.schema().clone());
        let outcome = crepair_table(&rules, &mut table, &NoopObserver);
        let u = outcome
            .updates
            .iter()
            .find(|u| u.row == 3)
            .expect("r4 repaired");
        assert_eq!(sy.resolve(u.old), "Toronto");
        assert_eq!(sy.resolve(u.new), "Ottawa");
        assert_eq!(u.rule, RuleId(1));
    }

    #[test]
    #[should_panic(expected = "share a schema")]
    fn schema_mismatch_panics() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let other = Schema::new("Other", ["a", "b", "c", "d", "e"]).unwrap();
        let mut table = Table::new(other);
        table
            .push_strs(&mut sy, &["1", "2", "3", "4", "5"])
            .unwrap();
        crepair_table(&rules, &mut table, &NoopObserver);
    }
}
