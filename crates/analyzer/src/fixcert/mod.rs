//! # fixcert — whole-rule-set chase certification
//!
//! `fixlint`'s passes judge rules pairwise and in isolation; this module
//! certifies the **whole set** as a rewrite system:
//!
//! 1. **Termination** ([`graph`]): the fix→evidence interaction graph with
//!    a fixpoint rank pass. Acyclic ⇒ a well-founded ordering on
//!    assured-attribute sets bounds every firing sequence by an
//!    order-independent round count; a cycle ⇒ FR010 naming the members.
//! 2. **Confluence** ([`confluence`]): critical-pair analysis. Every
//!    interacting pair gets bounded witness tuples synthesized from its
//!    constant pools and chased with the paper's `cRepair` (Fig 6) under
//!    both pair orders; divergent end states ⇒ FR009 with the tuple, both
//!    end states, and the causal chains.
//! 3. **Semantic diff** ([`diff()`]): classify a candidate set against a
//!    certified one (added/removed/semantically-equivalent via the §4.3
//!    implication check) and name the certified properties the delta can
//!    invalidate (FR011), so re-certification is proportional to change.
//!
//! A green [`Certificate`] is the promotion gate for `fixd`'s `POST
//! /rules` hot-swap and the substance behind `fixctl certify`.

pub mod confluence;
pub mod diff;
pub mod graph;

pub use confluence::ConfluenceSummary;
pub use diff::{diff, DiffEntry, DiffReport, RuleDelta};
pub use graph::InteractionGraph;

use fixrules::consistency::is_consistent_characterize;
use fixrules::RuleSet;
use obs::{Event, Json, RepairObserver};
use relation::SymbolTable;

use crate::diagnostic::{Code, Diagnostic};
use crate::{LintReport, Span};

/// Budgets for the certification passes.
#[derive(Debug, Clone)]
pub struct CertOptions {
    /// Max candidate tuples synthesized per interacting pair; larger
    /// pairs are skipped and counted in
    /// [`ConfluenceSummary::pairs_skipped`].
    pub witness_budget: usize,
    /// Max small-model size per implication check in [`diff()`].
    pub implication_budget: usize,
}

impl Default for CertOptions {
    fn default() -> Self {
        CertOptions {
            witness_budget: 1 << 16,
            implication_budget: 1 << 20,
        }
    }
}

/// What the termination pass certified.
#[derive(Debug, Clone, Default)]
pub struct TerminationSummary {
    /// True when the interaction graph is acyclic.
    pub certified: bool,
    /// The order-independent round bound (`max enabling chain + 1`);
    /// `None` when uncertified.
    pub round_bound: Option<usize>,
    /// Number of interaction cycles (FR010s reported).
    pub cycles: usize,
}

/// The certifier's verdict over one rule set: findings plus the measured
/// summaries of each certified property.
#[derive(Debug, Clone, Default)]
pub struct Certificate {
    /// FR009/FR010 findings, in canonical report order.
    pub report: LintReport,
    /// Rules examined.
    pub rules: usize,
    /// Pairwise consistency (Fig 4) — a prerequisite the confluence pass
    /// re-derives, surfaced here for the summary.
    pub consistent: bool,
    /// The termination certificate.
    pub termination: TerminationSummary,
    /// The confluence certificate.
    pub confluence: ConfluenceSummary,
}

impl Certificate {
    /// Green when no error-severity finding exists: the set is pairwise
    /// consistent, terminating with an order-independent bound, and no
    /// critical pair diverged within budget.
    pub fn is_certified(&self) -> bool {
        self.report.errors() == 0
    }

    /// Feed the confluence pass's pair and witness-run counts, one
    /// `CertFinding` per diagnostic and the final verdict into an observer
    /// (the CLI and `fixd` wire this to the `cert.*` metrics).
    pub fn observe<O: RepairObserver>(&self, observer: &O) {
        observer.event(Event::CertChecked {
            pairs: self.confluence.pairs_checked,
            witness_runs: self.confluence.witness_runs,
        });
        for diag in &self.report.diagnostics {
            observer.event(Event::CertFinding {
                code: diag.code.as_str(),
                severity: diag.severity.as_str(),
            });
        }
        observer.event(Event::CertCompleted {
            certified: self.is_certified(),
        });
    }

    /// The certificate as a JSON document:
    /// `{file, certified, rules, consistent, termination, confluence,
    /// findings, summary}` with byte-deterministic serialization.
    pub fn to_json(&self, file: &str) -> Json {
        let mut termination = Json::Null;
        termination.set("certified", self.termination.certified);
        match self.termination.round_bound {
            Some(bound) => termination.set("round_bound", bound),
            None => termination.set("round_bound", Json::Null),
        }
        termination.set("cycles", self.termination.cycles);

        let mut confluence = Json::Null;
        confluence.set("pairs_checked", self.confluence.pairs_checked);
        confluence.set("pairs_skipped", self.confluence.pairs_skipped);
        confluence.set("witness_runs", self.confluence.witness_runs);
        confluence.set("violations", self.confluence.violations);

        let mut obj = self.report.to_json(file);
        obj.set("certified", self.is_certified());
        obj.set("rules", self.rules);
        obj.set("consistent", self.consistent);
        obj.set("termination", termination);
        obj.set("confluence", confluence);
        obj
    }
}

/// Certify a rule set. `spans` aligns with rule ids (pass an empty slice
/// when unknown and findings render without source locations).
pub fn certify(
    rules: &RuleSet,
    spans: &[Span],
    symbols: &SymbolTable,
    opts: &CertOptions,
) -> Certificate {
    let interaction = InteractionGraph::build(rules);
    let mut diags: Vec<Diagnostic> = Vec::new();

    let termination = TerminationSummary {
        certified: interaction.is_acyclic(),
        round_bound: interaction.round_bound(),
        cycles: interaction.cycles.len(),
    };
    for cycle in &interaction.cycles {
        diags.push(cycle_diag(spans, cycle));
    }

    let (confluence, mut confluence_diags) =
        confluence::run(rules, spans, symbols, &interaction, opts);
    diags.append(&mut confluence_diags);

    Certificate {
        report: LintReport::new(diags),
        rules: rules.len(),
        consistent: is_consistent_characterize(rules, 1).is_consistent(),
        termination,
        confluence,
    }
}

/// FR010: anchored at the cycle member written first, like FR005 — but an
/// error, because the certificate cannot bound the chase order-independently.
fn cycle_diag(spans: &[Span], cycle: &[usize]) -> Diagnostic {
    let span_of = |k: usize| spans.get(k).copied().unwrap_or_default();
    let mut members: Vec<usize> = cycle.to_vec();
    members.sort_by_key(|&k| span_of(k));
    let lines: Vec<String> = members
        .iter()
        .map(|&k| span_of(k).line.to_string())
        .collect();
    let mut diag = Diagnostic::new(
        Code::UncertifiedTermination,
        span_of(members[0]),
        format!(
            "termination cannot be certified: {} rules form a fix-to-evidence \
             interaction cycle (lines {}), so no well-founded ordering bounds \
             the chase independently of firing order",
            members.len(),
            lines.join(", ")
        ),
    )
    .with_note(
        "every chase still halts within one application per rule (assured cells \
         are never rewritten), but the round bound depends on firing order"
            .to_string(),
    );
    for &k in &members[1..] {
        diag = diag.with_related(span_of(k), "cycle member");
    }
    diag
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;

    fn travel_schema() -> Schema {
        Schema::new("Travel", ["country", "capital", "city", "conf"]).unwrap()
    }

    fn certify_text(text: &str) -> (Certificate, SymbolTable) {
        let mut symbols = SymbolTable::new();
        let parsed =
            fixrules::io::parse_rules_spanned(text, &travel_schema(), &mut symbols).unwrap();
        let cert = certify(
            &parsed.rules,
            &parsed.spans,
            &symbols,
            &CertOptions::default(),
        );
        (cert, symbols)
    }

    fn codes(cert: &Certificate) -> Vec<&'static str> {
        cert.report
            .diagnostics
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    #[test]
    fn clean_set_certifies_green() {
        let (cert, _) = certify_text(
            r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
IF country = "Canada" AND capital IN {"Toronto"} THEN capital := "Ottawa"
"#,
        );
        assert!(cert.is_certified(), "{:?}", codes(&cert));
        assert!(cert.consistent);
        assert!(cert.termination.certified);
        assert_eq!(cert.termination.round_bound, Some(1));
        assert_eq!(cert.confluence.violations, 0);
    }

    #[test]
    fn conflicting_pair_yields_fr009_with_witness_and_end_states() {
        let (cert, _) = certify_text(
            r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
IF conf = "ICDE" AND capital IN {"Shanghai"} THEN capital := "Nanjing"
"#,
        );
        assert!(!cert.is_certified());
        assert_eq!(codes(&cert), vec!["FR009"]);
        assert!(!cert.consistent);
        assert_eq!(cert.confluence.violations, 1);
        let notes = cert.report.diagnostics[0].notes.join("\n");
        assert!(notes.contains("witness tuple"), "{notes}");
        assert!(
            notes.contains("\"Beijing\"") && notes.contains("\"Nanjing\""),
            "{notes}"
        );
        assert!(notes.contains("end state under order"), "{notes}");
        assert!(notes.contains("chase under"), "{notes}");
    }

    #[test]
    fn interaction_cycle_yields_fr010() {
        let (cert, _) = certify_text(
            r#"
IF city = "Pudong" AND capital IN {"Nanjing"} THEN capital := "Beijing"
IF capital = "Beijing" AND city IN {"Hangzhou"} THEN city := "Pudong"
"#,
        );
        assert!(!cert.is_certified());
        assert!(codes(&cert).contains(&"FR010"), "{:?}", codes(&cert));
        assert!(!cert.termination.certified);
        assert_eq!(cert.termination.round_bound, None);
        let fr010 = cert
            .report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::UncertifiedTermination)
            .unwrap();
        assert_eq!(fr010.span.line, 2);
        assert_eq!(fr010.related.len(), 1);
    }

    #[test]
    fn enabling_chain_without_divergence_stays_green() {
        // r0 manufactures evidence for r1, but there is only one order in
        // which anything fires — end states agree.
        let (cert, _) = certify_text(
            r#"
IF country = "China" AND capital IN {"Nanjing"} THEN capital := "Beijing"
IF capital = "Beijing" AND city IN {"Hangzhou"} THEN city := "Pudong"
"#,
        );
        assert!(cert.is_certified(), "{:?}", codes(&cert));
        assert!(cert.termination.certified);
        assert_eq!(cert.termination.round_bound, Some(2));
        assert!(cert.confluence.pairs_checked >= 1);
        assert!(cert.confluence.witness_runs >= 1);
    }

    #[test]
    fn json_is_deterministic_and_carries_the_verdict() {
        let (cert, _) = certify_text(
            r#"
IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing"
"#,
        );
        let a = cert.to_json("rules.frl").to_string_pretty();
        let b = cert.to_json("rules.frl").to_string_pretty();
        assert_eq!(a, b);
        let parsed = obs::json::parse(&a).unwrap();
        assert_eq!(parsed.get("certified").and_then(Json::as_bool), Some(true));
        assert!(parsed.get("termination").is_some());
        assert!(parsed.get("confluence").is_some());
    }

    #[test]
    fn observer_sees_findings_and_verdict() {
        let registry = obs::MetricsRegistry::new();
        let metrics = obs::MetricsObserver::new(&registry);
        let mut symbols = SymbolTable::new();
        let parsed = fixrules::io::parse_rules_spanned(
            r#"
IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing"
IF conf = "ICDE" AND capital IN {"Shanghai"} THEN capital := "Nanjing"
"#,
            &travel_schema(),
            &mut symbols,
        )
        .unwrap();
        let cert = certify(
            &parsed.rules,
            &parsed.spans,
            &symbols,
            &CertOptions::default(),
        );
        cert.observe(&metrics);
        let snap = registry.snapshot();
        let counters = snap.get("counters").unwrap();
        let get = |name: &str| counters.get(name).and_then(Json::as_i64).unwrap_or(0);
        assert!(get("cert.pairs_checked") >= 1);
        assert!(get("cert.witness_runs") >= 1);
        assert_eq!(
            get("cert.pairs_checked"),
            cert.confluence.pairs_checked as i64
        );
        assert_eq!(
            get("cert.witness_runs"),
            cert.confluence.witness_runs as i64
        );
        assert_eq!(get("cert.findings.FR009"), 1);
        assert_eq!(get("cert.rejected"), 1);
    }
}
