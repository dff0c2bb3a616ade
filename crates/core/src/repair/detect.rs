//! Repair explanation for detect-only mode.
//!
//! Fixing rules subsume the *detection* capability of CFDs (§2): a matching
//! rule certifies that `t[B]` is wrong. Detection is lRepair with the write
//! left out, so `fixctl detect` runs the same lRepair workers as `fixctl
//! repair` over the same chunk pipeline and discards the repaired rows —
//! the audit/monitoring deployment mode, where a human signs off before
//! writes. [`explain`] renders one planned or applied update with the
//! evidence that justified it.

use relation::{Schema, SymbolTable};

use crate::repair::CellUpdate;
use crate::ruleset::RuleSet;

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
    use crate::repair::{lrepair_table, LRepairIndex, RepairOutcome};
    use relation::{Schema, Table};

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

    /// What detection reports: lRepair's updates on a copy of `table`.
    fn plan(rules: &RuleSet, table: &Table) -> RepairOutcome {
        let index = LRepairIndex::build(rules);
        lrepair_table(rules, &index, &mut table.clone(), &obs::NoopObserver)
    }

    #[test]
    fn detect_reports_chased_plan_without_mutation() {
        let (rules, _sy, table) = setup();
        let before = table.clone();
        let plan = plan(&rules, &table);
        // Both the capital fix and the enabled city fix are planned.
        assert_eq!(plan.total_updates(), 2);
        assert_eq!(plan.rows_touched(), 1);
        assert_eq!(before.diff_cells(&table).unwrap(), 0, "table mutated");
    }

    #[test]
    fn detect_plan_matches_actual_repair() {
        let (rules, _sy, table) = setup();
        let plan = plan(&rules, &table);
        let mut repaired = table.clone();
        let index = LRepairIndex::build(&rules);
        lrepair_table(&rules, &index, &mut repaired, &obs::NoopObserver);
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
        let plan = plan(&rules, &table);
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
        let mut clean = Table::new(rules.schema().clone());
        clean
            .push_strs(&mut sy, &["Ann", "Japan", "Tokyo", "Tokyo", "VLDB"])
            .unwrap();
        let plan = plan(&rules, &clean);
        assert_eq!(plan.total_updates(), 0);
    }
}
