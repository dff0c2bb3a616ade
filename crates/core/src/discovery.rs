//! Automatic fixing-rule discovery — the paper's future-work item §8(1):
//! *"We are planning to design algorithm to automatically discover fixing
//! rules."*
//!
//! Unlike [`crate::generation`], which consults a master oracle (reference
//! data), discovery works from the dirty table **alone**, using the
//! redundancy that FDs induce: in a group of tuples agreeing on `X`, a
//! heavily-supported `B` value is evidence of the truth and rarely-occurring
//! dissenters are evidence of errors. A rule
//! `((X, key), (B, {minority values})) → majority` is emitted when
//!
//! * the majority value's support is at least `min_support` rows **and** at
//!   least `min_confidence` of the group (so the fact is trustworthy), and
//! * each harvested negative has support at most `max_negative_support`
//!   rows (so we never classify a genuinely contested value as an error —
//!   the (China, Tokyo) conservatism, support-based).
//!
//! Discovered rules carry an empirical confidence and are deduplicated and
//! conflict-resolved by the caller like any other rule source. On data
//! without redundancy (uis-like), discovery finds little — exactly the
//! regime where the paper's experts, and our oracle pipeline, are needed.

use std::collections::HashMap;

use fd::partition::Partition;
use fd::Fd;
use relation::{AttrId, Symbol, Table};

use crate::rule::FixingRule;

/// Discovery thresholds.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryConfig {
    /// Minimum rows carrying the majority value for it to become a fact.
    pub min_support: usize,
    /// Minimum fraction of the group the majority value must cover.
    pub min_confidence: f64,
    /// Maximum rows a value may have while still being harvested as a
    /// negative pattern.
    pub max_negative_support: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            min_support: 3,
            min_confidence: 0.7,
            max_negative_support: 1,
        }
    }
}

/// One discovered rule with its supporting statistics.
#[derive(Debug, Clone)]
pub struct DiscoveredRule {
    /// The rule itself.
    pub rule: FixingRule,
    /// Rows supporting the fact.
    pub fact_support: usize,
    /// Rows carrying some negative pattern (the rule's immediate yield).
    pub error_support: usize,
    /// `fact_support / group size`.
    pub confidence: f64,
}

/// Discover fixing rules for one (possibly multi-RHS) FD from the (dirty)
/// table.
///
/// ```
/// use relation::{Schema, SymbolTable, Table};
/// use fixrules::discovery::{discover_rules, DiscoveryConfig};
///
/// let schema = Schema::new("T", ["country", "capital"]).unwrap();
/// let mut sy = SymbolTable::new();
/// let mut t = Table::new(schema.clone());
/// for _ in 0..4 {
///     t.push_strs(&mut sy, &["China", "Beijing"]).unwrap();
/// }
/// t.push_strs(&mut sy, &["China", "Bejing"]).unwrap(); // a typo to learn from
/// let fd = fd::Fd::from_names(&schema, ["country"], ["capital"]).unwrap();
/// let found = discover_rules(&t, &fd, DiscoveryConfig::default());
/// assert_eq!(found.len(), 1);
/// assert_eq!(sy.resolve(found[0].rule.fact()), "Beijing");
/// ```
///
/// The FD is analysed as a whole so key-suspect rows can be recognised: a
/// row deviating from its group's majorities on **two or more** RHS
/// attributes almost certainly carries a wrong key (its whole record
/// belongs to some other group), so it is excluded from negative-pattern
/// harvesting — the same conservatism
/// [`crate::generation::seed_rules_all_fds`] applies with the oracle.
pub fn discover_rules(table: &Table, fd: &Fd, config: DiscoveryConfig) -> Vec<DiscoveredRule> {
    let singles: Vec<Fd> = fd.split_rhs().collect();
    let partition = Partition::build(table, fd.lhs());
    let mut out = Vec::new();
    for (key, rows) in partition.non_singleton_groups() {
        // Majority per RHS attribute.
        let per_attr_counts: Vec<HashMap<Symbol, usize>> = singles
            .iter()
            .map(|single| {
                let rhs = single.rhs()[0];
                let mut counts: HashMap<Symbol, usize> = HashMap::new();
                for &r in rows {
                    *counts.entry(table.cell(r, rhs)).or_insert(0) += 1;
                }
                counts
            })
            .collect();
        let majorities: Vec<(Symbol, usize)> = per_attr_counts
            .iter()
            .map(|counts| {
                counts
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                    .map(|(&v, &c)| (v, c))
                    .expect("non-empty group")
            })
            .collect();
        // Key-suspect rows: deviate from the majorities on ≥ 2 RHS attrs.
        let mut neg_per_attr: Vec<Vec<Symbol>> = vec![Vec::new(); singles.len()];
        let mut yield_per_attr: Vec<usize> = vec![0; singles.len()];
        for &r in rows {
            let row = table.row(r);
            let deviating: Vec<usize> = singles
                .iter()
                .enumerate()
                .filter(|(k, single)| row[single.rhs()[0].index()] != majorities[*k].0)
                .map(|(k, _)| k)
                .collect();
            if deviating.len() != 1 {
                continue;
            }
            let k = deviating[0];
            let v = row[singles[k].rhs()[0].index()];
            if per_attr_counts[k][&v] > config.max_negative_support {
                continue; // contested value, not evidently wrong
            }
            yield_per_attr[k] += 1;
            if !neg_per_attr[k].contains(&v) {
                neg_per_attr[k].push(v);
            }
        }
        for (k, mut neg) in neg_per_attr.into_iter().enumerate() {
            if neg.is_empty() {
                continue;
            }
            let (fact, fact_support) = majorities[k];
            let confidence = fact_support as f64 / rows.len() as f64;
            if fact_support < config.min_support || confidence < config.min_confidence {
                continue;
            }
            neg.sort();
            let error_support = yield_per_attr[k];
            let evidence: Vec<(AttrId, Symbol)> =
                fd.lhs().iter().copied().zip(key.iter().copied()).collect();
            if let Ok(rule) = FixingRule::new(evidence, singles[k].rhs()[0], neg, fact) {
                out.push(DiscoveredRule {
                    rule,
                    fact_support,
                    error_support,
                    confidence,
                });
            }
        }
    }
    // Highest-impact first, deterministic.
    out.sort_by(|a, b| {
        b.error_support
            .cmp(&a.error_support)
            .then(b.fact_support.cmp(&a.fact_support))
            .then_with(|| a.rule.tp().cmp(b.rule.tp()))
    });
    out
}

/// Discover across a list of (multi-RHS) FDs, flattened and globally
/// impact-ranked.
pub fn discover_all(table: &Table, fds: &[Fd], config: DiscoveryConfig) -> Vec<DiscoveredRule> {
    let mut out: Vec<DiscoveredRule> = fds
        .iter()
        .flat_map(|fd| discover_rules(table, fd, config))
        .collect();
    out.sort_by(|a, b| {
        b.error_support
            .cmp(&a.error_support)
            .then(b.fact_support.cmp(&a.fact_support))
            .then_with(|| a.rule.tp().cmp(b.rule.tp()))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, SymbolTable};

    fn table_with(rows: &[[&str; 2]]) -> (Table, SymbolTable, Schema) {
        let schema = Schema::new("T", ["country", "capital"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut t = Table::new(schema.clone());
        for row in rows {
            t.push_strs(&mut sy, row).unwrap();
        }
        (t, sy, schema)
    }

    #[test]
    fn discovers_majority_fact_and_minority_negatives() {
        let (t, sy, schema) = table_with(&[
            ["China", "Beijing"],
            ["China", "Beijing"],
            ["China", "Beijing"],
            ["China", "Beijing"],
            ["China", "Shanghai"], // lone dissenter: an error
        ]);
        let fd = Fd::from_names(&schema, ["country"], ["capital"]).unwrap();
        let found = discover_rules(&t, &fd, DiscoveryConfig::default());
        assert_eq!(found.len(), 1);
        let d = &found[0];
        assert_eq!(d.rule.fact(), sy.get("Beijing").unwrap());
        assert_eq!(d.rule.neg(), &[sy.get("Shanghai").unwrap()]);
        assert_eq!(d.fact_support, 4);
        assert_eq!(d.error_support, 1);
        assert!((d.confidence - 0.8).abs() < 1e-9); // 4 of 5
    }

    #[test]
    fn contested_values_are_not_negatives() {
        // Two values with support 2 each: no trustworthy fact at the
        // default thresholds — the (China, Tokyo) ambiguity, support form.
        let (t, _, schema) = table_with(&[
            ["China", "Beijing"],
            ["China", "Beijing"],
            ["China", "Shanghai"],
            ["China", "Shanghai"],
        ]);
        let fd = Fd::from_names(&schema, ["country"], ["capital"]).unwrap();
        assert!(discover_rules(&t, &fd, DiscoveryConfig::default()).is_empty());
    }

    #[test]
    fn low_support_groups_are_skipped() {
        let (t, _, schema) = table_with(&[["China", "Beijing"], ["China", "Shanghai"]]);
        let fd = Fd::from_names(&schema, ["country"], ["capital"]).unwrap();
        assert!(discover_rules(&t, &fd, DiscoveryConfig::default()).is_empty());
        // But a permissive config finds it.
        let lax = DiscoveryConfig {
            min_support: 1,
            min_confidence: 0.5,
            max_negative_support: 1,
        };
        assert_eq!(discover_rules(&t, &fd, lax).len(), 1);
    }

    #[test]
    fn discovered_rules_repair_the_errors_they_saw() {
        let (mut t, sy, schema) = table_with(&[
            ["China", "Beijing"],
            ["China", "Beijing"],
            ["China", "Beijing"],
            ["China", "Bejing"], // typo
            ["Canada", "Ottawa"],
            ["Canada", "Ottawa"],
            ["Canada", "Ottawa"],
            ["Canada", "Toronto"], // active-domain error
        ]);
        let fd = Fd::from_names(&schema, ["country"], ["capital"]).unwrap();
        let found = discover_rules(&t, &fd, DiscoveryConfig::default());
        assert_eq!(found.len(), 2);
        let mut rules = crate::RuleSet::new(schema.clone());
        for d in found {
            rules.push(d.rule);
        }
        assert!(rules.check_consistency().is_consistent());
        let outcome = crate::repair::crepair_table(&rules, &mut t, &obs::NoopObserver);
        assert_eq!(outcome.total_updates(), 2);
        let cap = schema.attr("capital").unwrap();
        assert_eq!(sy.resolve(t.cell(3, cap)), "Beijing");
        assert_eq!(sy.resolve(t.cell(7, cap)), "Ottawa");
    }

    #[test]
    fn impact_ranking_puts_bigger_yields_first() {
        let schema = Schema::new("T", ["k", "v"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut t = Table::new(schema.clone());
        // Group g1: 5 good + 1 bad; group g2: 5 good + 2 distinct bads.
        for _ in 0..5 {
            t.push_strs(&mut sy, &["g1", "A"]).unwrap();
        }
        t.push_strs(&mut sy, &["g1", "a1"]).unwrap();
        for _ in 0..5 {
            t.push_strs(&mut sy, &["g2", "B"]).unwrap();
        }
        t.push_strs(&mut sy, &["g2", "b1"]).unwrap();
        t.push_strs(&mut sy, &["g2", "b2"]).unwrap();
        let fd = Fd::from_names(&schema, ["k"], ["v"]).unwrap();
        let found = discover_all(&t, &[fd], DiscoveryConfig::default());
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].error_support, 2);
        assert_eq!(found[1].error_support, 1);
    }

    #[test]
    fn no_redundancy_no_discovery() {
        // uis-like data: singleton groups teach nothing.
        let (t, _, schema) = table_with(&[
            ["China", "Beijing"],
            ["Japan", "Tokyo"],
            ["Canada", "Ottawa"],
        ]);
        let fd = Fd::from_names(&schema, ["country"], ["capital"]).unwrap();
        assert!(discover_rules(&t, &fd, DiscoveryConfig::default()).is_empty());
    }
}
