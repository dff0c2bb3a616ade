//! Per-rule attribution: which fixing rules do the work, and at what cost.
//!
//! [`AttributionObserver`] is a [`RepairObserver`] that splits the
//! aggregate repair counters by rule, writing labeled series
//! (`repair.rule.applied{attr="city",rule="r3"}`, …) into a shared
//! [`MetricsRegistry`] and keeping the same handles for its own
//! [`AttributionProfile`] report. The hot path stays the usual relaxed
//! atomics: handles for every known rule are resolved at construction.
//!
//! The profile has two renderings with different determinism contracts:
//!
//! * [`AttributionProfile::render_table`] — human-ranked table including
//!   latency quantiles (wall-clock, run-dependent);
//! * [`AttributionProfile::to_json`] — machine output restricted to
//!   deterministic fields (counts and latency *sample counts*, never
//!   nanoseconds), so two identical runs serialize byte-identically.
//!
//! This crate stays a leaf: rules are described by plain
//! [`RuleLabel`] strings the caller derives from its rule set.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Counter, Histogram, MetricsRegistry};
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
    cells: Counter,
    rejected: Counter,
    latency: Histogram,
}

impl RuleSeries {
    fn new(registry: &MetricsRegistry, label: &RuleLabel) -> Self {
        let labels: &[(&str, &str)] = &[("attr", &label.attr), ("rule", &label.rule)];
        RuleSeries {
            applied: registry.counter_with("repair.rule.applied", labels),
            cells: registry.counter_with("repair.rule.cells", labels),
            rejected: registry.counter_with("repair.rule.rejected", labels),
            latency: registry.histogram_with("repair.rule.latency_ns", labels),
        }
    }
}

/// A [`RepairObserver`] that attributes repair work to individual rules.
///
/// Out-of-range rule ids (possible when the observer outlives a rule-set
/// reload) aggregate into a catch-all `rule="other"` series rather than
/// being dropped. Enable `with_timing` to also collect per-rule latency
/// histograms; [`RepairObserver::wants_rule_timing`] then tells the
/// drivers to measure.
#[derive(Debug, Clone)]
pub struct AttributionObserver {
    labels: Vec<RuleLabel>,
    rules: Vec<RuleSeries>,
    other: RuleSeries,
    timing: bool,
}

impl AttributionObserver {
    /// Build an observer over `registry`, pre-registering series for every
    /// rule in `labels` (so unfired rules still appear, at zero).
    pub fn new(registry: &MetricsRegistry, labels: Vec<RuleLabel>) -> Self {
        let rules = labels
            .iter()
            .map(|l| RuleSeries::new(registry, l))
            .collect();
        let other = RuleSeries::new(
            registry,
            &RuleLabel {
                rule: "other".to_string(),
                attr: "?".to_string(),
            },
        );
        AttributionObserver {
            labels,
            rules,
            other,
            timing: false,
        }
    }

    /// Enable per-rule latency collection (drivers consult
    /// [`RepairObserver::wants_rule_timing`]).
    pub fn with_timing(mut self, timing: bool) -> Self {
        self.timing = timing;
        self
    }

    #[inline]
    fn series(&self, rule: usize) -> &RuleSeries {
        self.rules.get(rule).unwrap_or(&self.other)
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
                cells: s.cells.get(),
                rejected: s.rejected.get(),
                latency_samples: s.latency.count(),
                latency_sum_ns: s.latency.sum(),
                latency_p50_ns: s.latency.quantile(0.50),
                latency_p99_ns: s.latency.quantile(0.99),
            })
            .collect();
        if self.other.applied.get() + self.other.rejected.get() + self.other.cells.get() > 0 {
            rows.push(ProfileRow {
                rule: "other".to_string(),
                attr: "?".to_string(),
                applied: self.other.applied.get(),
                cells: self.other.cells.get(),
                rejected: self.other.rejected.get(),
                latency_samples: self.other.latency.count(),
                latency_sum_ns: self.other.latency.sum(),
                latency_p50_ns: self.other.latency.quantile(0.50),
                latency_p99_ns: self.other.latency.quantile(0.99),
            });
        }
        // Ranked: most applications first; ties broken by declaration
        // order (stable sort), so the ranking is deterministic.
        rows.sort_by_key(|r| std::cmp::Reverse(r.applied));
        AttributionProfile { rows }
    }
}

impl RepairObserver for AttributionObserver {
    #[inline]
    fn rule_applied(&self, rule: usize, _attr: usize) {
        self.series(rule).applied.inc();
    }

    #[inline]
    fn cell_repaired(&self, fix: CellFix) {
        self.series(fix.rule).cells.inc();
    }

    #[inline]
    fn rule_rejected(&self, rule: usize) {
        self.series(rule).rejected.inc();
    }

    #[inline]
    fn rule_latency(&self, rule: usize, ns: u64) {
        self.series(rule).latency.record(ns);
    }

    #[inline]
    fn wants_rule_timing(&self) -> bool {
        self.timing
    }
}

/// One rule's row in an [`AttributionProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    pub rule: String,
    pub attr: String,
    /// Rule applications.
    pub applied: u64,
    /// Cells repaired, attributed via the provenance hook.
    pub cells: u64,
    /// Evaluations that probed the rule's evidence and missed.
    pub rejected: u64,
    pub latency_samples: u64,
    pub latency_sum_ns: u64,
    pub latency_p50_ns: u64,
    pub latency_p99_ns: u64,
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

    /// Human-readable ranked table, latency quantiles included. Not
    /// byte-deterministic across runs (wall-clock); use [`Self::to_json`]
    /// for machine consumption.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:<12} {:>10} {:>10} {:>10} {:>12} {:>12}\n",
            "rule", "attr", "applied", "cells", "rejected", "p50(ns)", "p99(ns)"
        ));
        for r in &self.rows {
            let (p50, p99) = if r.latency_samples > 0 {
                (r.latency_p50_ns.to_string(), r.latency_p99_ns.to_string())
            } else {
                ("-".to_string(), "-".to_string())
            };
            out.push_str(&format!(
                "{:<8} {:<12} {:>10} {:>10} {:>10} {:>12} {:>12}\n",
                r.rule, r.attr, r.applied, r.cells, r.rejected, p50, p99
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

    /// Deterministic JSON: ranked rows restricted to counts that are a
    /// pure function of the input (no nanosecond values — only the
    /// *number* of latency samples). Two identical runs serialize
    /// byte-identically.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("rule", Json::from(r.rule.as_str())),
                    ("attr", Json::from(r.attr.as_str())),
                    ("applied", Json::from(r.applied)),
                    ("cells", Json::from(r.cells)),
                    ("rejected", Json::from(r.rejected)),
                    ("latency_samples", Json::from(r.latency_samples)),
                ])
            })
            .collect();
        let totals = Json::obj([
            (
                "applied",
                Json::from(self.rows.iter().map(|r| r.applied).sum::<u64>()),
            ),
            (
                "cells",
                Json::from(self.rows.iter().map(|r| r.cells).sum::<u64>()),
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

    #[test]
    fn attribution_splits_by_rule_and_ranks() {
        let reg = MetricsRegistry::new();
        let obs = AttributionObserver::new(&reg, labels());
        obs.rule_applied(1, 0);
        obs.rule_applied(1, 0);
        obs.rule_applied(0, 1);
        obs.rule_rejected(0);
        obs.rule_rejected(2);
        obs.cell_repaired(CellFix {
            row: 0,
            ordinal: 0,
            rule: 1,
            attr: 0,
            old: 1,
            new: 2,
            round: 1,
        });
        let profile = obs.profile();
        assert_eq!(profile.rows[0].rule, "r1");
        assert_eq!(profile.rows[0].applied, 2);
        assert_eq!(profile.rows[0].cells, 1);
        assert_eq!(profile.rows[1].rule, "r0");
        assert_eq!(profile.rows[1].rejected, 1);
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
    fn out_of_range_rules_hit_the_catch_all() {
        let reg = MetricsRegistry::new();
        let obs = AttributionObserver::new(&reg, labels());
        obs.rule_applied(99, 0);
        let profile = obs.profile();
        let other = profile.rows.iter().find(|r| r.rule == "other").unwrap();
        assert_eq!(other.applied, 1);
    }

    #[test]
    fn profile_json_is_deterministic_and_free_of_wall_clock() {
        let run = || {
            let reg = MetricsRegistry::new();
            let obs = AttributionObserver::new(&reg, labels()).with_timing(true);
            obs.rule_applied(0, 1);
            obs.rule_rejected(1);
            // Latency values differ between "runs" but only the sample
            // count may appear in the JSON.
            obs.rule_latency(0, 1000 + reg.counter("seed").get());
            obs.profile().to_json().to_string()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.contains("_ns"), "profile JSON leaks nanoseconds: {a}");
        assert!(a.contains("\"latency_samples\": 1") || a.contains("\"latency_samples\":1"));
    }

    #[test]
    fn timing_opt_in_propagates_through_tee_and_refs() {
        let reg = MetricsRegistry::new();
        let plain = AttributionObserver::new(&reg, labels());
        assert!(!plain.wants_rule_timing());
        let timed = plain.clone().with_timing(true);
        assert!(timed.wants_rule_timing());
        let noop = NoopObserver;
        let tee = Tee(&noop, &timed);
        assert!(tee.wants_rule_timing());
        // Blanket &T forwarding keeps both the hooks and the timing flag.
        let via_ref: &dyn RepairObserver = &timed;
        assert!((&via_ref).wants_rule_timing());
        (&via_ref).rule_applied(0, 0);
        assert_eq!(
            timed
                .profile()
                .rows
                .iter()
                .find(|r| r.rule == "r0")
                .unwrap()
                .applied,
            1
        );
    }

    #[test]
    fn render_table_marks_unfired_rules() {
        let reg = MetricsRegistry::new();
        let obs = AttributionObserver::new(&reg, labels());
        obs.rule_applied(0, 1);
        let table = obs.profile().render_table();
        assert!(table.contains("rule"), "{table}");
        assert!(table.contains("never fired: r1, r2"), "{table}");
    }
}
