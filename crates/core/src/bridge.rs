//! Interoperating with other data-quality rule classes — the paper's
//! future-work item §8(2): *"explore the interaction between fixing rules
//! and other data quality rules, such as CFDs, MDs, editing rules"*.
//!
//! Two directions are implemented:
//!
//! * **Constant CFD → fixing rule** ([`from_cfd`]): a constant CFD
//!   `(X = tp → B = c)` asserts what `B` *should* be but carries no error
//!   evidence — applying it blindly is exactly the automated-editing-rule
//!   failure mode of Fig 12(b). Supplying the missing negative patterns
//!   (known-wrong values of `B` under that evidence) upgrades it into a
//!   fixing rule with the paper's dependable semantics.
//! * **Fixing rule → constant CFD** ([`to_cfd`]): dropping the negative
//!   patterns and keeping `(X = tp → B = fact)` yields the CFD that the
//!   rule *implies* for detection purposes — useful for exporting a rule
//!   set to CFD-based tools, which can detect (but not repair) the same
//!   errors.

use fd::cfd::{Cfd, PatternCell};
use relation::Symbol;

use crate::rule::{FixRuleError, FixingRule};

/// Upgrade a constant CFD into a fixing rule by supplying the negative
/// patterns that license automatic repair.
///
/// Fails when the CFD is not fully constant (wildcards carry no evidence),
/// or when the resulting rule is ill-formed (e.g. the CFD's RHS constant
/// appears among `negatives`).
pub fn from_cfd(cfd: &Cfd, negatives: Vec<Symbol>) -> Result<FixingRule, FixRuleError> {
    let mut evidence = Vec::with_capacity(cfd.lhs.len());
    for &(attr, cell) in &cfd.lhs {
        match cell {
            PatternCell::Const(v) => evidence.push((attr, v)),
            PatternCell::Wildcard => {
                return Err(FixRuleError::UnknownAttribute(format!(
                    "CFD has a wildcard on {attr}; only constant CFDs carry evidence"
                )))
            }
        }
    }
    let fact = match cfd.rhs_pattern {
        PatternCell::Const(v) => v,
        PatternCell::Wildcard => {
            return Err(FixRuleError::UnknownAttribute(
                "CFD has a wildcard RHS; no fact to repair towards".into(),
            ))
        }
    };
    FixingRule::new(evidence, cfd.rhs_attr, negatives, fact)
}

/// Project a fixing rule down to the constant CFD it implies: tuples
/// matching the evidence must carry the fact on `B`.
///
/// The negative patterns are lost — the CFD can only *detect* that
/// something matching the evidence disagrees with the fact, not certify
/// which side is wrong.
pub fn to_cfd(rule: &FixingRule) -> Cfd {
    Cfd {
        lhs: rule
            .x()
            .iter()
            .zip(rule.tp().iter())
            .map(|(&a, &v)| (a, PatternCell::Const(v)))
            .collect(),
        rhs_attr: rule.b(),
        rhs_pattern: PatternCell::Const(rule.fact()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, SymbolTable, Table};

    fn setup() -> (Schema, SymbolTable) {
        (
            Schema::new("T", ["country", "capital"]).unwrap(),
            SymbolTable::new(),
        )
    }

    #[test]
    fn cfd_round_trips_through_fixing_rule() {
        let (s, mut sy) = setup();
        let cfd = Cfd {
            lhs: vec![(
                s.attr("country").unwrap(),
                PatternCell::Const(sy.intern("China")),
            )],
            rhs_attr: s.attr("capital").unwrap(),
            rhs_pattern: PatternCell::Const(sy.intern("Beijing")),
        };
        let negs = vec![sy.intern("Shanghai"), sy.intern("Hongkong")];
        let rule = from_cfd(&cfd, negs).unwrap();
        assert_eq!(rule.fact(), sy.get("Beijing").unwrap());
        assert_eq!(rule.neg().len(), 2);
        let back = to_cfd(&rule);
        assert_eq!(back.rhs_attr, cfd.rhs_attr);
        assert_eq!(back.lhs, cfd.lhs);
        assert_eq!(back.rhs_pattern, cfd.rhs_pattern);
    }

    #[test]
    fn wildcard_cfds_are_rejected() {
        let (s, mut sy) = setup();
        let wild_lhs = Cfd {
            lhs: vec![(s.attr("country").unwrap(), PatternCell::Wildcard)],
            rhs_attr: s.attr("capital").unwrap(),
            rhs_pattern: PatternCell::Const(sy.intern("Beijing")),
        };
        assert!(from_cfd(&wild_lhs, vec![sy.intern("x")]).is_err());
        let wild_rhs = Cfd {
            lhs: vec![(
                s.attr("country").unwrap(),
                PatternCell::Const(sy.intern("China")),
            )],
            rhs_attr: s.attr("capital").unwrap(),
            rhs_pattern: PatternCell::Wildcard,
        };
        assert!(from_cfd(&wild_rhs, vec![sy.intern("x")]).is_err());
    }

    #[test]
    fn fact_among_negatives_is_rejected() {
        let (s, mut sy) = setup();
        let cfd = Cfd {
            lhs: vec![(
                s.attr("country").unwrap(),
                PatternCell::Const(sy.intern("China")),
            )],
            rhs_attr: s.attr("capital").unwrap(),
            rhs_pattern: PatternCell::Const(sy.intern("Beijing")),
        };
        let err = from_cfd(&cfd, vec![sy.intern("Beijing")]).unwrap_err();
        assert!(matches!(err, FixRuleError::FactInNegativePatterns(_)));
    }

    #[test]
    fn exported_cfd_detects_what_the_rule_repairs_and_more() {
        // The CFD flags every evidence-matching row whose capital is not
        // the fact; the fixing rule repairs only the certified-wrong
        // subset — the conservatism gap in one test.
        let (s, mut sy) = setup();
        let rule = FixingRule::from_named(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        let cfd = to_cfd(&rule);
        let mut t = Table::new(s.clone());
        t.push_strs(&mut sy, &["China", "Shanghai"]).unwrap(); // in Tp: repairable
        t.push_strs(&mut sy, &["China", "Tokyo"]).unwrap(); // ambiguous: only detectable
        t.push_strs(&mut sy, &["China", "Beijing"]).unwrap(); // clean
        assert_eq!(cfd.violating_rows(&t), vec![0, 1]);
        let mut rules = crate::RuleSet::new(s);
        rules.push(rule);
        let outcome = crate::repair::crepair_table(&rules, &mut t, &obs::NoopObserver);
        assert_eq!(outcome.total_updates(), 1);
        assert_eq!(outcome.updates[0].row, 0);
    }
}
