//! FR003 / FR006 — redundant rules, via the §4.3 implication check.
//!
//! A rule φ is redundant when `Σ \ {φ} |= φ`: removing it changes no
//! repair. The check is exact on the small-model candidate space, so a
//! positive is never a false positive; when the space exceeds the budget
//! the outcome is [`ImplicationOutcome::Unknown`] and the pass emits an
//! FR006 *note* instead — explicitly undecided, never promoted to a
//! warning.
//!
//! The pass is skipped entirely for inconsistent sets (implication is only
//! defined over a consistent Σ) and for rules the shadow pass already
//! proved dead (shadowing is a stronger, cheaper form of redundancy).

use fixrules::implication::{implies_consistent, ImplicationOutcome};
use fixrules::io::Span;
use fixrules::RuleSet;

use crate::diagnostic::{Code, Diagnostic};
use crate::passes::Ctx;

/// Run the pass. `consistent` comes from the conflicts pass; `dead` from
/// the shadow pass.
pub fn run(ctx: &Ctx<'_>, consistent: bool, dead: &[bool]) -> Vec<Diagnostic> {
    if !consistent {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for (id, _) in ctx.rules.iter() {
        if dead[id.index()] {
            continue;
        }
        let mut rest = RuleSet::new(ctx.rules.schema().clone());
        for (other_id, other) in ctx.rules.iter() {
            if other_id != id {
                rest.push(other.clone());
            }
        }
        // The conflicts pass found Σ = (Σ∖φ) ∪ {φ} consistent, so the
        // check skips condition (i).
        match implies_consistent(&rest, ctx.rules, ctx.opts.implication_budget) {
            ImplicationOutcome::Implied => diags.push(Diagnostic::new(
                Code::RedundantRule,
                ctx.span(id),
                format!(
                    "rule is redundant: the other {} rule(s) imply it, so removing \
                         it changes no repair",
                    rest.len()
                ),
            )),
            ImplicationOutcome::Unknown { candidates } => diags.push(undecided(
                ctx.span(id),
                candidates,
                ctx.opts.implication_budget,
            )),
            // NotImplied: the rule pulls its weight. ExtensionInconsistent
            // cannot happen: condition (i) is not checked.
            ImplicationOutcome::NotImplied { .. } | ImplicationOutcome::ExtensionInconsistent => {}
        }
    }
    diags
}

/// The FR006 note for a rule whose check needs `candidates` tuples, more
/// than `budget`. A space too large to count (the product saturated at
/// `usize::MAX`) is not a number to print, and no budget decides it.
fn undecided(span: Span, candidates: usize, budget: usize) -> Diagnostic {
    if candidates == usize::MAX {
        return Diagnostic::new(
            Code::ImplicationUnknown,
            span,
            "redundancy undecided: the implication check's candidate space overflows, \
             so no budget can decide this rule",
        );
    }
    Diagnostic::new(
        Code::ImplicationUnknown,
        span,
        format!(
            "redundancy undecided: the implication check needs {candidates} \
             candidate tuples but the budget is {budget}"
        ),
    )
    .with_note(format!(
        "re-run with a budget of at least {candidates} to decide this rule"
    ))
}
