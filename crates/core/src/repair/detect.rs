//! Detect-only mode and repair explanation.
//!
//! Fixing rules subsume the *detection* capability of CFDs (§2): a matching
//! rule certifies that `t[B]` is wrong. [`detect_table`] reports what a
//! repair *would* change without mutating anything — the audit/monitoring
//! deployment mode, where a human signs off before writes. [`explain`]
//! renders one planned or applied update with the evidence that justified
//! it.

use relation::{Schema, SymbolTable, Table};

use crate::repair::linear::{lrepair_tuple, LRepairIndex, LRepairScratch};
use crate::repair::{CellUpdate, RepairOutcome};
use crate::ruleset::RuleSet;

/// Compute the updates a repair would apply, leaving `table` untouched.
///
/// Chased updates are included: if fixing one cell would enable another
/// rule, both planned updates are reported, exactly as `lRepair` would
/// apply them.
pub fn detect_table(rules: &RuleSet, index: &LRepairIndex, table: &Table) -> RepairOutcome {
    assert!(
        rules.schema().same_as(table.schema()),
        "rule set and table must share a schema"
    );
    let mut scratch = LRepairScratch::new(rules.len());
    let mut outcome = RepairOutcome::default();
    let mut row = Vec::with_capacity(table.schema().arity());
    for i in 0..table.len() {
        row.clear();
        row.extend_from_slice(table.row(i));
        let mut ups = lrepair_tuple(rules, index, &mut scratch, &mut row);
        for u in &mut ups {
            u.row = i;
        }
        outcome.updates.extend(ups);
    }
    outcome
}

/// Render a human-readable justification of one update: the rule, its
/// evidence cells, and the negative pattern that fired.
pub fn explain(
    update: &CellUpdate,
    rules: &RuleSet,
    schema: &Schema,
    symbols: &SymbolTable,
) -> String {
    let rule = rules.rule(update.rule);
    let evidence: Vec<String> = rule
        .x()
        .iter()
        .zip(rule.tp().iter())
        .map(|(&a, &v)| format!("{} = {}", schema.attr_name(a), symbols.resolve(v)))
        .collect();
    format!(
        "row {}: {} `{}` is a known wrong value given {}; rule #{} fixes it to `{}`",
        update.row,
        schema.attr_name(update.attr),
        symbols.resolve(update.old),
        evidence.join(" ∧ "),
        update.rule.0,
        symbols.resolve(update.new),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::lrepair_table;
    use relation::Schema;

    fn setup() -> (RuleSet, SymbolTable, Table) {
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
                &[("capital", "Beijing"), ("conf", "ICDE")],
                "city",
                &["Hongkong"],
                "Shanghai",
            )
            .unwrap();
        let mut t = Table::new(schema);
        t.push_strs(&mut sy, &["Ian", "China", "Shanghai", "Hongkong", "ICDE"])
            .unwrap();
        t.push_strs(
            &mut sy,
            &["George", "China", "Beijing", "Beijing", "SIGMOD"],
        )
        .unwrap();
        (rules, sy, t)
    }

    #[test]
    fn detect_reports_chased_plan_without_mutation() {
        let (rules, _sy, table) = setup();
        let index = LRepairIndex::build(&rules);
        let before = table.clone();
        let plan = detect_table(&rules, &index, &table);
        // Both the capital fix and the enabled city fix are planned.
        assert_eq!(plan.total_updates(), 2);
        assert_eq!(before.diff_cells(&table).unwrap(), 0, "table mutated");
    }

    #[test]
    fn detect_plan_matches_actual_repair() {
        let (rules, _sy, table) = setup();
        let index = LRepairIndex::build(&rules);
        let plan = detect_table(&rules, &index, &table);
        let mut repaired = table.clone();
        let applied = lrepair_table(&rules, &index, &mut repaired, &obs::NoopObserver);
        assert_eq!(plan.updates, applied.updates);
        // Applying the plan manually reproduces the repair.
        let mut manual = table.clone();
        for u in &plan.updates {
            manual.set_cell(u.row, u.attr, u.new);
        }
        assert_eq!(manual.diff_cells(&repaired).unwrap(), 0);
    }

    #[test]
    fn explain_names_rule_evidence_and_values() {
        let (rules, sy, table) = setup();
        let index = LRepairIndex::build(&rules);
        let plan = detect_table(&rules, &index, &table);
        let first = plan
            .updates
            .iter()
            .find(|u| u.rule == crate::RuleId(0))
            .unwrap();
        let text = explain(first, &rules, rules.schema(), &sy);
        assert!(text.contains("country = China"), "{text}");
        assert!(text.contains("`Shanghai`"), "{text}");
        assert!(text.contains("`Beijing`"), "{text}");
        assert!(text.contains("row 0"), "{text}");
    }

    #[test]
    fn clean_table_yields_empty_plan() {
        let (rules, mut sy, _) = setup();
        let index = LRepairIndex::build(&rules);
        let mut clean = Table::new(rules.schema().clone());
        clean
            .push_strs(&mut sy, &["Ann", "Japan", "Tokyo", "Tokyo", "VLDB"])
            .unwrap();
        let plan = detect_table(&rules, &index, &clean);
        assert_eq!(plan.total_updates(), 0);
    }
}
