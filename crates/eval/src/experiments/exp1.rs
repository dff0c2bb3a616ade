//! Exp-1 (Fig 9): efficiency of consistency checking.
//!
//! For each rule-count step, time the worst case of both checkers (all
//! pairs inspected) and ten "real cases" — sets containing an injected
//! conflict, where checking stops at the first inconsistent pair, exactly
//! as in Fig 9's small markers below the worst-case curve. `isConsist_r`
//! is timed as published ([`is_consistent_all_pairs`]), not through the
//! indexed checker the rest of the system uses.

use fixrules::consistency::{is_consistent_all_pairs, is_consistent_enumerate};
use fixrules::{FixingRule, RuleSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::SymbolTable;

use crate::timing::{stage_ms, time_ms};

/// One measured point of Fig 9.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Rule count (x-axis).
    pub n_rules: usize,
    /// `isConsist_t` or `isConsist_r`.
    pub algo: &'static str,
    /// `worst` (all pairs) or `real` (stop at first conflict).
    pub case: &'static str,
    /// Wall-clock milliseconds (y-axis).
    pub millis: f64,
}

/// Run Fig 9 over prefix sizes `steps` of `rules`.
///
/// `symbols` is needed to mint fresh conflicting facts for the real cases.
pub fn run_fig9(
    rules: &RuleSet,
    symbols: &mut SymbolTable,
    steps: &[usize],
    seed: u64,
    real_cases: usize,
) -> Vec<Fig9Point> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for &n in steps {
        let n = n.min(rules.len());
        if n == 0 {
            continue;
        }
        let mut subset = rules.clone();
        subset.truncate(n);
        // Worst case: inspect every pair.
        let (rep_r, ms_r) = stage_ms("consistency_check", || {
            is_consistent_all_pairs(&subset, usize::MAX)
        });
        let (rep_t, ms_t) = stage_ms("consistency_check", || {
            is_consistent_enumerate(&subset, usize::MAX)
        });
        debug_assert_eq!(rep_r.is_consistent(), rep_t.is_consistent());
        out.push(Fig9Point {
            n_rules: n,
            algo: "isConsist_r",
            case: "worst",
            millis: ms_r,
        });
        out.push(Fig9Point {
            n_rules: n,
            algo: "isConsist_t",
            case: "worst",
            millis: ms_t,
        });
        // Real cases: inject one conflict, stop at first detection.
        for k in 0..real_cases {
            let mut dirty_set = subset.clone();
            inject_conflict(&mut dirty_set, symbols, &mut rng, k);
            let (rep, ms) = time_ms(|| is_consistent_all_pairs(&dirty_set, 1));
            debug_assert!(!rep.is_consistent());
            out.push(Fig9Point {
                n_rules: n,
                algo: "isConsist_r",
                case: "real",
                millis: ms,
            });
            let (rep, ms) = time_ms(|| is_consistent_enumerate(&dirty_set, 1));
            debug_assert!(!rep.is_consistent());
            out.push(Fig9Point {
                n_rules: n,
                algo: "isConsist_t",
                case: "real",
                millis: ms,
            });
        }
    }
    out
}

/// Clone a random rule with a fresh, different fact — a guaranteed case-1
/// conflict with its original — and insert it at a random position.
fn inject_conflict(rules: &mut RuleSet, symbols: &mut SymbolTable, rng: &mut StdRng, tag: usize) {
    assert!(!rules.is_empty());
    let victim = rules
        .rule(fixrules::RuleId(rng.gen_range(0..rules.len()) as u32))
        .clone();
    let fresh_fact = symbols.intern(&format!("__conflict_fact_{tag}"));
    let evidence = victim
        .x()
        .iter()
        .copied()
        .zip(victim.tp().iter().copied())
        .collect();
    let clone = FixingRule::new(evidence, victim.b(), victim.neg().to_vec(), fresh_fact)
        .expect("fresh fact cannot collide with negatives");
    rules.push(clone);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_rules() -> (RuleSet, SymbolTable) {
        let schema = relation::Schema::new("T", ["a", "b", "c"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(schema);
        for i in 0..20 {
            let k = format!("k{i}");
            rs.push_named(&mut sy, &[("a", k.as_str())], "b", &["w1", "w2"], "ok")
                .unwrap();
        }
        (rs, sy)
    }

    #[test]
    fn produces_worst_and_real_points() {
        let (rules, mut sy) = small_rules();
        let points = run_fig9(&rules, &mut sy, &[10, 20], 1, 3);
        // Per step: 2 worst + 3×2 real = 8 points.
        assert_eq!(points.len(), 16);
        assert!(points.iter().all(|p| p.millis >= 0.0));
        assert!(points
            .iter()
            .any(|p| p.case == "worst" && p.algo == "isConsist_t"));
        assert!(points
            .iter()
            .any(|p| p.case == "real" && p.algo == "isConsist_r"));
    }

    #[test]
    fn injected_conflict_is_detected() {
        let (mut rules, mut sy) = small_rules();
        let mut rng = StdRng::seed_from_u64(5);
        inject_conflict(&mut rules, &mut sy, &mut rng, 0);
        assert!(!rules.check_consistency().is_consistent());
    }
}
