//! Lint-vs-runtime coverage: join a static [`LintReport`] against a
//! per-rule attribution profile (`fixctl coverage --lint`).
//!
//! The static passes reason about what *can* happen; the attribution
//! profiler records what *did*. The join reports the two disagreement
//! cases:
//!
//! * **FR007** — a statically live rule never fired on the profiled run.
//!   Not a defect by itself, but the same rule-set-drift smell the
//!   rule-discovery literature mines for: either the data no longer
//!   contains the error pattern, or the rule never matched anything.
//! * **FR008** — a rule the shadowing pass flagged dead (FR002) *did*
//!   fire. A shadowed rule cannot fire under the paper's semantics, so
//!   this means the profile was taken with a different rule file (or
//!   engine) than the one linted — the join's consistency check.
//!
//! Both diagnostics anchor at the rule's span in the lint source, so
//! `fixlint`'s rustc-style renderer shows the offending rule line.

use fixrules::io::Span;

use crate::diagnostic::{Code, Diagnostic};
use crate::LintReport;

/// Per-rule runtime totals the join consumes, in rule-id order. The CLI
/// fills this from an `AttributionObserver` profile; tests fill it by
/// hand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleActivity {
    /// Rule applications.
    pub applied: u64,
    /// Evaluations that probed the rule's evidence and missed.
    pub rejected: u64,
}

/// Join the static report for a rule set against the runtime activity of
/// its rules. `spans[i]` locates rule `i` in the linted source (missing
/// spans render without a location); `activity[i]` is rule `i`'s runtime
/// totals. Returns a report holding only the FR007/FR008 findings.
pub fn coverage_join(lint: &LintReport, spans: &[Span], activity: &[RuleActivity]) -> LintReport {
    let dead_spans: Vec<Span> = lint
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::DeadRule)
        .map(|d| d.span)
        .collect();
    let mut diags = Vec::new();
    for (i, act) in activity.iter().enumerate() {
        let span = spans.get(i).copied().unwrap_or(Span::point(0, 0));
        let dead = spans.get(i).is_some() && dead_spans.contains(&span);
        if act.applied == 0 && !dead {
            let mut diag = Diagnostic::new(
                Code::UnfiredRule,
                span,
                format!("rule r{i} never fired during the profiled repair"),
            );
            diag = if act.rejected > 0 {
                diag.with_note(format!(
                    "evaluated and rejected {} time(s): the evidence pattern partially \
                     matched but never held in full",
                    act.rejected
                ))
            } else {
                diag.with_note(
                    "zero applications, zero evaluations: the data may have drifted \
                     away from this rule's error pattern",
                )
            };
            diags.push(diag);
        } else if act.applied > 0 && dead {
            diags.push(
                Diagnostic::new(
                    Code::DeadRuleFired,
                    span,
                    format!(
                        "rule r{i} is flagged dead by the shadowing analysis (FR002) but \
                         fired {} time(s) at runtime",
                        act.applied
                    ),
                )
                .with_note(
                    "a fully shadowed rule cannot fire; the profile was likely taken with \
                     a different rule file or data path than the one linted",
                ),
            );
        }
    }
    LintReport::new(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint, LintOptions};
    use fixrules::io::parse_rules_spanned;
    use relation::{Schema, SymbolTable};

    fn setup(text: &str) -> (LintReport, Vec<Span>) {
        let schema = Schema::new("Travel", ["country", "capital", "city", "conf"]).unwrap();
        let mut symbols = SymbolTable::new();
        let parsed = parse_rules_spanned(text, &schema, &mut symbols).unwrap();
        let report = lint(
            &parsed.rules,
            &parsed.spans,
            &symbols,
            &LintOptions::default(),
        );
        (report, parsed.spans)
    }

    const DEAD_PAIR: &str = r#"
IF country = "China" AND capital IN {"Shanghai", "Nanjing"} THEN capital := "Beijing"
IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing"
"#;

    #[test]
    fn live_rule_that_never_fired_is_fr007() {
        let (lint_report, spans) = setup(DEAD_PAIR);
        assert!(lint_report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::DeadRule));
        // r0 (live) never fired; r1 (dead) silent as the analysis predicts.
        let activity = vec![RuleActivity::default(), RuleActivity::default()];
        let cov = coverage_join(&lint_report, &spans, &activity);
        let codes: Vec<&str> = cov.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["FR007"]);
        assert_eq!(cov.diagnostics[0].span, spans[0]);
        assert_eq!(cov.notes(), 1, "FR007 is a note, not a warning");
    }

    #[test]
    fn dead_rule_that_fired_is_fr008() {
        let (lint_report, spans) = setup(DEAD_PAIR);
        let activity = vec![
            RuleActivity {
                applied: 3,
                rejected: 0,
            },
            RuleActivity {
                applied: 1,
                rejected: 0,
            },
        ];
        let cov = coverage_join(&lint_report, &spans, &activity);
        let codes: Vec<&str> = cov.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["FR008"]);
        assert_eq!(cov.diagnostics[0].span, spans[1]);
        assert_eq!(cov.warnings(), 1, "FR008 is a warning");
    }

    #[test]
    fn fired_live_rules_and_silent_dead_rules_are_clean() {
        let (lint_report, spans) = setup(DEAD_PAIR);
        let activity = vec![
            RuleActivity {
                applied: 5,
                rejected: 2,
            },
            RuleActivity::default(),
        ];
        let cov = coverage_join(&lint_report, &spans, &activity);
        assert!(cov.is_clean(), "{:?}", cov.diagnostics);
    }

    #[test]
    fn rejected_but_never_applied_notes_the_near_misses() {
        let (lint_report, spans) = setup(DEAD_PAIR);
        let activity = vec![
            RuleActivity {
                applied: 0,
                rejected: 7,
            },
            RuleActivity::default(),
        ];
        let cov = coverage_join(&lint_report, &spans, &activity);
        assert_eq!(cov.diagnostics[0].code, Code::UnfiredRule);
        assert!(cov.diagnostics[0].notes[0].contains("rejected 7 time(s)"));
    }
}
