//! Critical-pair confluence analysis (FR009).
//!
//! For every rule pair that can interact — directly conflicting under the
//! Fig 4 characterization, or connected through the interaction graph's
//! enabling edges — synthesize a bounded set of witness tuples from the
//! pair's constant pools and chase each with the paper's `cRepair`
//! ([`fixrules::repair::crepair_tuple`], Fig 6) under the two
//! pair orders `(φᵢ, φⱼ, rest…)` and `(φⱼ, φᵢ, rest…)`. Divergent end
//! states are confluence violations: the diagnostic carries the concrete
//! tuple, both end states, and the two causal chains (which rule wrote
//! which cell, in which round), rendered rustc-style.
//!
//! # Incompleteness caveat
//!
//! This is a *critical-pair* analysis: only pairs seed witness synthesis,
//! and tuples are drawn from the pair's own constants (plus one wildcard
//! per free attribute). Divergence that needs three rules' constants on
//! one tuple, or a pair whose candidate space exceeds the witness budget
//! (counted in [`ConfluenceSummary::pairs_skipped`]), can escape. The
//! certificate is therefore sound in what it *rejects* (every FR009 ships
//! a replayable counterexample) and bounded-complete in what it accepts —
//! see DESIGN.md §15.

use std::collections::BTreeSet;

use fixrules::consistency::enumerate::{candidate_values, enumeration_size, WILDCARD};
use fixrules::consistency::{conflict_witness, is_consistent_characterize};
use fixrules::repair::{crepair_tuple, CellUpdate};
use fixrules::RuleSet;
use relation::{Symbol, SymbolTable};

use crate::diagnostic::{Code, Diagnostic};
use crate::fixcert::graph::InteractionGraph;
use crate::fixcert::CertOptions;
use crate::Span;

/// What the confluence pass measured, for the certificate summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConfluenceSummary {
    /// Interacting pairs examined.
    pub pairs_checked: usize,
    /// Pairs whose candidate-tuple space exceeded the witness budget —
    /// the certificate's incompleteness surface.
    pub pairs_skipped: usize,
    /// Witness tuples chased (both orders count as one run).
    pub witness_runs: usize,
    /// Pairs with a proven divergence (one FR009 each).
    pub violations: usize,
}

/// One rule order's chase of a witness tuple.
struct OrderRun {
    end: Vec<Symbol>,
    chain: Vec<CellUpdate>,
    /// Maps the permuted rule ids in `chain` back to original ids.
    perm: Vec<usize>,
}

/// Run the pass over every interacting pair.
pub(crate) fn run(
    rules: &RuleSet,
    spans: &[Span],
    symbols: &SymbolTable,
    graph: &InteractionGraph,
    opts: &CertOptions,
) -> (ConfluenceSummary, Vec<Diagnostic>) {
    let mut summary = ConfluenceSummary::default();
    let mut diags = Vec::new();
    let n = rules.len();

    // Directly conflicting pairs, with the characterization's case. These
    // are confluence violations by definition; `conflict_witness` finds
    // the tuple two distinct fixpoints are reachable from.
    let consistency = is_consistent_characterize(rules, usize::MAX);
    let mut conflicting: BTreeSet<(usize, usize)> = BTreeSet::new();
    for conflict in &consistency.conflicts {
        let (i, j) = (conflict.first.index(), conflict.second.index());
        if !conflicting.insert((i.min(j), i.max(j))) {
            continue;
        }
        summary.pairs_checked += 1;
        let Some(witness) = conflict_witness(rules, conflict, opts.witness_budget) else {
            summary.pairs_skipped += 1;
            diags.push(pair_diag(spans, i, j).with_note(format!(
                "candidate space exceeds the witness budget ({}); divergence proven \
                 by the Fig 4 characterization but no tuple was synthesized",
                opts.witness_budget
            )));
            summary.violations += 1;
            continue;
        };
        summary.witness_runs += 1;
        let (run_a, run_b) = chase_both_orders(rules, i, j, &witness.tuple);
        // The pair conflicts, but the surrounding rules can mask the
        // divergence under these two particular orders; fall back to the
        // pair-local fixpoints from the witness machinery.
        let (end_a, end_b) = if run_a.end != run_b.end {
            (run_a.end.clone(), run_b.end.clone())
        } else {
            (witness.fixes[0].clone(), witness.fixes[1].clone())
        };
        diags.push(divergence_diag(
            rules,
            spans,
            symbols,
            i,
            j,
            &witness.tuple,
            &end_a,
            &end_b,
            &run_a,
            &run_b,
        ));
        summary.violations += 1;
    }

    // Pairs connected through the interaction graph: one rule's firing
    // can influence the other's applicability, so commute them explicitly.
    for i in 0..n {
        for j in (i + 1)..n {
            if conflicting.contains(&(i, j)) || !graph.connected(i, j) {
                continue;
            }
            summary.pairs_checked += 1;
            let a = &rules.rules()[i];
            let b = &rules.rules()[j];
            if enumeration_size(a, b) > opts.witness_budget {
                summary.pairs_skipped += 1;
                continue;
            }
            let mut violation = None;
            for tuple in candidate_tuples(rules, i, j) {
                summary.witness_runs += 1;
                let (run_a, run_b) = chase_both_orders(rules, i, j, &tuple);
                if run_a.end != run_b.end {
                    violation = Some((tuple, run_a, run_b));
                    break;
                }
            }
            if let Some((tuple, run_a, run_b)) = violation {
                let (end_a, end_b) = (run_a.end.clone(), run_b.end.clone());
                diags.push(divergence_diag(
                    rules, spans, symbols, i, j, &tuple, &end_a, &end_b, &run_a, &run_b,
                ));
                summary.violations += 1;
            }
        }
    }

    (summary, diags)
}

/// Cross product of the pair's per-attribute candidate pools (evidence
/// constants, negative patterns, facts, plus one wildcard), in the same
/// deterministic order the enumeration checker uses.
fn candidate_tuples(rules: &RuleSet, i: usize, j: usize) -> Vec<Vec<Symbol>> {
    let a = &rules.rules()[i];
    let b = &rules.rules()[j];
    let pools = candidate_values(a, b);
    let arity = rules.schema().arity();
    let mut tuples = vec![vec![WILDCARD; arity]];
    for (attr, values) in &pools {
        let mut next = Vec::with_capacity(tuples.len() * values.len());
        for tuple in &tuples {
            for &v in values {
                let mut t = tuple.clone();
                t[attr.index()] = v;
                next.push(t);
            }
        }
        tuples = next;
    }
    tuples
}

/// Chase `tuple` under orders `(i, j, rest…)` and `(j, i, rest…)` with
/// `cRepair`, which applies rules in id order within a round.
fn chase_both_orders(
    rules: &RuleSet,
    i: usize,
    j: usize,
    tuple: &[Symbol],
) -> (OrderRun, OrderRun) {
    (
        chase_order(rules, &pair_first_perm(rules.len(), i, j), tuple),
        chase_order(rules, &pair_first_perm(rules.len(), j, i), tuple),
    )
}

/// `[first, second, everything else in id order]`.
fn pair_first_perm(n: usize, first: usize, second: usize) -> Vec<usize> {
    let mut perm = Vec::with_capacity(n);
    perm.push(first);
    perm.push(second);
    perm.extend((0..n).filter(|&k| k != first && k != second));
    perm
}

fn chase_order(rules: &RuleSet, perm: &[usize], tuple: &[Symbol]) -> OrderRun {
    let mut permuted = RuleSet::new(rules.schema().clone());
    for &k in perm {
        permuted.push(rules.rules()[k].clone());
    }
    let mut row = tuple.to_vec();
    let chain = crepair_tuple(&permuted, &mut row);
    OrderRun {
        end: row,
        chain,
        perm: perm.to_vec(),
    }
}

/// The FR009 skeleton: anchored at the later rule, pointing at the other.
fn pair_diag(spans: &[Span], i: usize, j: usize) -> Diagnostic {
    let span_of = |k: usize| spans.get(k).copied().unwrap_or_default();
    // Anchor at the rule written later, like FR001.
    let (anchor, other) = if span_of(j) >= span_of(i) {
        (j, i)
    } else {
        (i, j)
    };
    Diagnostic::new(
        Code::ConfluenceViolation,
        span_of(anchor),
        format!(
            "rules are not confluent: applying this rule before or after the rule \
             at line {} repairs a witness tuple differently",
            span_of(other).line
        ),
    )
    .with_related(span_of(other), "the other rule of the diverging pair")
}

/// The full FR009: tuple, both end states, both causal chains.
#[allow(clippy::too_many_arguments)]
fn divergence_diag(
    rules: &RuleSet,
    spans: &[Span],
    symbols: &SymbolTable,
    i: usize,
    j: usize,
    tuple: &[Symbol],
    end_a: &[Symbol],
    end_b: &[Symbol],
    run_a: &OrderRun,
    run_b: &OrderRun,
) -> Diagnostic {
    let mut diag = pair_diag(spans, i, j)
        .with_note(format!(
            "witness tuple: {}",
            valuation(rules, symbols, tuple)
        ))
        .with_note(format!(
            "end state under order (φ{i}, φ{j}): {}",
            valuation(rules, symbols, end_a)
        ))
        .with_note(format!(
            "end state under order (φ{j}, φ{i}): {}",
            valuation(rules, symbols, end_b)
        ));
    for (label_first, label_second, run) in [(i, j, run_a), (j, i, run_b)] {
        diag = diag.with_note(format!(
            "chase under (φ{label_first}, φ{label_second}): {}",
            render_chain(rules, symbols, run)
        ));
    }
    diag
}

/// `country = "China", capital = "Shanghai"` — wildcard cells omitted.
fn valuation(rules: &RuleSet, symbols: &SymbolTable, tuple: &[Symbol]) -> String {
    let schema = rules.schema();
    let parts: Vec<String> = schema
        .attr_ids()
        .filter(|a| tuple[a.index()] != WILDCARD)
        .map(|a| {
            format!(
                "{} = \"{}\"",
                schema.attr_name(a),
                symbols.resolve(tuple[a.index()])
            )
        })
        .collect();
    if parts.is_empty() {
        "(all wildcards)".to_string()
    } else {
        parts.join(", ")
    }
}

/// `φ0 set capital := "Beijing" [round 1]; φ2 set city := …` with rule
/// ids mapped back to the original (file) order.
fn render_chain(rules: &RuleSet, symbols: &SymbolTable, run: &OrderRun) -> String {
    if run.chain.is_empty() {
        return "no rule fired".to_string();
    }
    let schema = rules.schema();
    let steps: Vec<String> = run
        .chain
        .iter()
        .map(|u| {
            format!(
                "φ{} set {} := \"{}\" (was \"{}\") [round {}]",
                run.perm[u.rule.index()],
                schema.attr_name(u.attr),
                symbols.resolve(u.new),
                symbols.resolve(u.old),
                u.round
            )
        })
        .collect();
    steps.join("; ")
}
