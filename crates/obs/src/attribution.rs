//! Per-rule attribution: which fixing rules do the work.
//!
//! [`AttributionObserver`] is a [`RepairObserver`] that splits the
//! aggregate repair counters by rule, writing labeled series
//! (`repair.rule.applied{attr="city",rule="r3"}`, …) into a shared
//! [`MetricsRegistry`] and keeping the same handles for its own
//! [`AttributionProfile`] report. The hot path stays the usual relaxed
//! atomics: handles for every known rule are resolved at construction.
//!
//! Every figure in the profile is a count that is a pure function of the
//! input, so both renderings — the ranked
//! [`AttributionProfile::render_table`] and the machine
//! [`AttributionProfile::to_json`] — are byte-identical across identical
//! runs and across worker counts.
//!
//! This crate stays a leaf: rules are described by plain
//! [`RuleLabel`] strings the caller derives from its rule set.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Counter, MetricsRegistry};
use crate::observer::{CellFix, RepairObserver};

/// Caller-supplied description of one rule, used both as metric labels and
/// in profile rows. `rule` is a short stable id (e.g. `"r3"`), `attr` the
/// name of the attribute the rule's fix writes (its B attribute).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleLabel {
    pub rule: String,
    pub attr: String,
}

/// The labeled series one rule writes to. All counters live in the shared
/// registry, so `/metrics` and the profile report read the same cells.
#[derive(Debug, Clone)]
struct RuleSeries {
    applied: Counter,
    rejected: Counter,
}

impl RuleSeries {
    fn new(registry: &MetricsRegistry, label: &RuleLabel) -> Self {
        let labels: &[(&str, &str)] = &[("attr", &label.attr), ("rule", &label.rule)];
        RuleSeries {
            applied: registry.counter_with("repair.rule.applied", labels),
            rejected: registry.counter_with("repair.rule.rejected", labels),
        }
    }
}

/// A [`RepairObserver`] that attributes repair work to individual rules.
///
/// It is built from the labels of the rule set it watches, one per rule,
/// so every rule id a repair of that set reports has a series.
#[derive(Debug, Clone)]
pub struct AttributionObserver {
    labels: Vec<RuleLabel>,
    rules: Vec<RuleSeries>,
}

impl AttributionObserver {
    /// Build an observer over `registry`, pre-registering series for every
    /// rule in `labels` (so unfired rules still appear, at zero).
    pub fn new(registry: &MetricsRegistry, labels: Vec<RuleLabel>) -> Self {
        let rules = labels
            .iter()
            .map(|l| RuleSeries::new(registry, l))
            .collect();
        AttributionObserver { labels, rules }
    }

    /// Snapshot the per-rule aggregates as a report.
    pub fn profile(&self) -> AttributionProfile {
        let mut rows: Vec<ProfileRow> = self
            .labels
            .iter()
            .zip(&self.rules)
            .map(|(label, s)| ProfileRow {
                rule: label.rule.clone(),
                attr: label.attr.clone(),
                applied: s.applied.get(),
                rejected: s.rejected.get(),
            })
            .collect();
        // Ranked: most applications first; ties broken by declaration
        // order (stable sort), so the ranking is deterministic.
        rows.sort_by_key(|r| std::cmp::Reverse(r.applied));
        AttributionProfile { rows }
    }
}

impl RepairObserver for AttributionObserver {
    #[inline]
    fn cell_repaired(&self, fix: CellFix) {
        // Each fix is one application.
        self.rules[fix.rule].applied.inc();
    }

    #[inline]
    fn rule_rejected(&self, rule: usize, count: usize) {
        self.rules[rule].rejected.add(count as u64);
    }
}

/// One rule's row in an [`AttributionProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    pub rule: String,
    pub attr: String,
    /// Rule applications, one per repaired cell.
    pub applied: u64,
    /// Evaluations that probed the rule's evidence and missed.
    pub rejected: u64,
}

/// Ranked per-rule report from [`AttributionObserver::profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionProfile {
    /// Rows ranked by `applied` descending (ties in declaration order).
    pub rows: Vec<ProfileRow>,
}

impl AttributionProfile {
    /// Rules that never fired.
    pub fn never_fired(&self) -> Vec<&ProfileRow> {
        self.rows.iter().filter(|r| r.applied == 0).collect()
    }

    /// Human-readable ranked table, with a note naming the rules that
    /// never fired.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:<12} {:>10} {:>10}\n",
            "rule", "attr", "applied", "rejected"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:<12} {:>10} {:>10}\n",
                r.rule, r.attr, r.applied, r.rejected
            ));
        }
        let unfired = self.never_fired();
        if !unfired.is_empty() {
            let names: Vec<&str> = unfired.iter().map(|r| r.rule.as_str()).collect();
            out.push_str(&format!(
                "note: {} rule(s) never fired: {}\n",
                names.len(),
                names.join(", ")
            ));
        }
        out
    }

    /// The ranked rows and their totals as JSON. Two identical runs
    /// serialize byte-identically.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("rule", Json::from(r.rule.as_str())),
                    ("attr", Json::from(r.attr.as_str())),
                    ("applied", Json::from(r.applied)),
                    ("rejected", Json::from(r.rejected)),
                ])
            })
            .collect();
        let totals = Json::obj([
            (
                "applied",
                Json::from(self.rows.iter().map(|r| r.applied).sum::<u64>()),
            ),
            (
                "rejected",
                Json::from(self.rows.iter().map(|r| r.rejected).sum::<u64>()),
            ),
        ]);
        Json::Obj(BTreeMap::from([
            ("rules".to_string(), Json::Arr(rows)),
            ("totals".to_string(), totals),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{NoopObserver, Tee};

    fn labels() -> Vec<RuleLabel> {
        vec![
            RuleLabel {
                rule: "r0".into(),
                attr: "city".into(),
            },
            RuleLabel {
                rule: "r1".into(),
                attr: "state".into(),
            },
            RuleLabel {
                rule: "r2".into(),
                attr: "city".into(),
            },
        ]
    }

    /// One fix by `rule`, in row 0.
    fn fix(rule: usize) -> CellFix {
        CellFix {
            row: 0,
            ordinal: 0,
            rule,
            attr: 0,
            old: 1,
            new: 2,
            round: 1,
        }
    }

    #[test]
    fn attribution_splits_by_rule_and_ranks() {
        let reg = MetricsRegistry::new();
        let obs = AttributionObserver::new(&reg, labels());
        obs.cell_repaired(fix(1));
        obs.cell_repaired(fix(1));
        obs.cell_repaired(fix(0));
        obs.rule_rejected(0, 1);
        obs.rule_rejected(2, 3);
        obs.rule_rejected(2, 1);
        let profile = obs.profile();
        assert_eq!(profile.rows[0].rule, "r1");
        assert_eq!(profile.rows[0].applied, 2);
        assert_eq!(profile.rows[1].rule, "r0");
        assert_eq!(profile.rows[1].rejected, 1);
        assert_eq!(profile.rows[2].rejected, 4);
        // r2 never fired and shows up in the dead-rule summary.
        let unfired: Vec<&str> = profile
            .never_fired()
            .iter()
            .map(|r| r.rule.as_str())
            .collect();
        assert_eq!(unfired, ["r2"]);
        // The same data is visible as labeled registry series.
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("counters")
                .unwrap()
                .get("repair.rule.applied{attr=\"state\",rule=\"r1\"}")
                .unwrap()
                .as_i64(),
            Some(2)
        );
    }

    #[test]
    fn profile_json_is_deterministic_and_free_of_wall_clock() {
        let run = || {
            let reg = MetricsRegistry::new();
            let obs = AttributionObserver::new(&reg, labels());
            obs.cell_repaired(fix(0));
            obs.rule_rejected(1, 2);
            obs.profile().to_json().to_string()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.contains("_ns"), "profile JSON leaks nanoseconds: {a}");
        assert!(a.contains("\"rejected\":2"), "{a}");
    }

    #[test]
    fn hooks_reach_attribution_through_tee_and_refs() {
        let reg = MetricsRegistry::new();
        let attribution = AttributionObserver::new(&reg, labels());
        let noop = NoopObserver;
        Tee(&noop, &attribution).rule_rejected(1, 5);
        // Blanket &T forwarding keeps the hooks.
        let via_ref: &dyn RepairObserver = &attribution;
        (&via_ref).cell_repaired(fix(0));
        let profile = attribution.profile();
        let row = |rule: &str| profile.rows.iter().find(|r| r.rule == rule).unwrap();
        assert_eq!(row("r0").applied, 1);
        assert_eq!(row("r1").rejected, 5);
    }

    #[test]
    fn render_table_marks_unfired_rules() {
        let reg = MetricsRegistry::new();
        let obs = AttributionObserver::new(&reg, labels());
        obs.cell_repaired(fix(0));
        let table = obs.profile().render_table();
        assert!(table.contains("rule"), "{table}");
        assert!(table.contains("never fired: r1, r2"), "{table}");
    }
}
