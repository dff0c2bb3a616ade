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

use fixrules::implication::{implies, ImplicationOutcome};
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
    for (id, rule) in ctx.rules.iter() {
        if dead[id.index()] {
            continue;
        }
        let mut rest = RuleSet::new(ctx.rules.schema().clone());
        for (other_id, other) in ctx.rules.iter() {
            if other_id != id {
                rest.push(other.clone());
            }
        }
        match implies(&rest, rule, ctx.opts.implication_budget) {
            ImplicationOutcome::Implied => diags.push(Diagnostic::new(
                Code::RedundantRule,
                ctx.span(id),
                format!(
                    "rule is redundant: the other {} rule(s) imply it, so removing \
                         it changes no repair",
                    rest.len()
                ),
            )),
            ImplicationOutcome::Unknown { candidates } => diags.push(
                Diagnostic::new(
                    Code::ImplicationUnknown,
                    ctx.span(id),
                    format!(
                        "redundancy undecided: the implication check needs {candidates} \
                         candidate tuples but the budget is {}",
                        ctx.opts.implication_budget
                    ),
                )
                .with_note(format!(
                    "re-run with a budget of at least {candidates} to decide this rule"
                )),
            ),
            // NotImplied: the rule pulls its weight. ExtensionInconsistent
            // cannot happen — Σ itself is consistent, so Σ \ {φ} ∪ {φ} = Σ
            // is too.
            ImplicationOutcome::NotImplied { .. } | ImplicationOutcome::ExtensionInconsistent => {}
        }
    }
    diags
}
