//! # fixlint — static analysis for fixing-rule sets
//!
//! The paper's dependability story is that rule sets can be certified
//! *before* any data is touched: consistency is PTIME (Fig 4) and
//! implication is decidable for a fixed schema (§4.3). This crate turns
//! those checks — plus cheaper structural ones — into a multi-pass
//! analyzer with stable diagnostic codes, rustc-style rendering and
//! deterministic JSON output, surfaced on the command line as
//! `fixctl lint`.
//!
//! | Code  | Severity | Finding |
//! |-------|----------|---------|
//! | FR000 | error    | rule file does not parse |
//! | FR001 | error    | conflicting rule pair (with witness valuation) |
//! | FR002 | warning  | dead rule, fully shadowed by an earlier rule |
//! | FR003 | warning  | redundant rule, implied by the rest of the set |
//! | FR004 | warning  | negative patterns duplicated across rules |
//! | FR005 | warning  | fact→evidence dependency cycle |
//! | FR006 | note     | redundancy check exhausted its budget |
//! | FR007 | note     | statically live rule never fired on a profiled run |
//! | FR008 | warning  | statically dead rule (FR002) fired on a profiled run |
//! | FR009 | error    | confluence violation: two rule orders repair a witness tuple differently |
//! | FR010 | error    | termination uncertifiable: fix→evidence interaction cycle |
//! | FR011 | note     | rule-set delta can invalidate certified properties |
//!
//! FR007/FR008 come from the [`coverage`] join of a static report against
//! a runtime attribution profile, not from the static passes; FR009–FR011
//! come from the whole-set certifier ([`fixcert`], surfaced as
//! `fixctl certify`), which judges the set as a rewrite system rather
//! than rule by rule.
//!
//! # Example
//!
//! ```
//! use relation::{Schema, SymbolTable};
//! use fixlint::{lint_source, LintOptions};
//!
//! let schema = Schema::new("T", ["country", "capital", "conf"]).unwrap();
//! let mut symbols = SymbolTable::new();
//! let text = r#"
//! IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing"
//! IF conf = "ICDE" AND capital IN {"Shanghai"} THEN capital := "Nanjing"
//! "#;
//! let report = lint_source(text, &schema, &mut symbols, &LintOptions::default());
//! assert_eq!(report.errors(), 1); // FR001: the pair conflicts on Shanghai
//! assert!(!report.is_clean());
//! ```

#![warn(missing_docs)]

pub mod coverage;
pub mod diagnostic;
pub mod fixcert;
pub mod passes;
pub mod render;

pub use coverage::{coverage_join, RuleActivity};
pub use diagnostic::{Code, Diagnostic, Related, Severity};
pub use fixcert::{certify, CertOptions, Certificate};
pub use fixrules::io::Span;
pub use render::{render, render_block, render_report, render_sarif, Excerpt};

use fixrules::io::{parse_rules_spanned, RuleParseError};
use fixrules::RuleSet;
use obs::Json;
use relation::{Schema, SymbolTable};

/// Budgets for the expensive passes.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Max candidate tuples per implication check (FR003); larger models
    /// come back as FR006 notes.
    pub implication_budget: usize,
    /// Max candidate tuples to enumerate when materializing an FR001
    /// witness; larger pairs report without one.
    pub witness_budget: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            implication_budget: 1 << 20,
            witness_budget: 1 << 16,
        }
    }
}

/// Which findings are fatal for the CLI exit status: errors always, plus
/// all warnings (`--deny warnings`) and/or specific codes (`--deny
/// FR002,FR006`).
#[derive(Debug, Clone, Default)]
pub struct DenyList {
    deny_warnings: bool,
    codes: Vec<Code>,
}

impl DenyList {
    /// Nothing denied beyond errors.
    pub fn none() -> DenyList {
        DenyList::default()
    }

    /// Parse a `--deny` argument: a comma-separated list of `warnings`
    /// and/or code strings. Duplicate targets and contradictory spellings
    /// (`errors` — errors are always fatal, denying them is a no-op that
    /// usually means a typo'd severity) are rejected rather than silently
    /// accepted, so a CI config drift surfaces immediately.
    pub fn parse(spec: &str) -> Result<DenyList, String> {
        let mut deny = DenyList::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "warnings" {
                if deny.deny_warnings {
                    return Err("duplicate deny target `warnings`".to_string());
                }
                deny.deny_warnings = true;
            } else if part == "errors" || part == "notes" {
                return Err(format!(
                    "unsupported deny severity `{part}` (errors are always fatal; \
                     deny notes by code, e.g. FR006)"
                ));
            } else if let Some(code) = Code::parse(part) {
                if deny.codes.contains(&code) {
                    return Err(format!("duplicate deny target `{part}`"));
                }
                deny.codes.push(code);
            } else {
                return Err(format!(
                    "unknown deny target `{part}` (expected `warnings` or a code like FR002)"
                ));
            }
        }
        Ok(deny)
    }

    /// Is this finding fatal under the list?
    pub fn is_fatal(&self, diag: &Diagnostic) -> bool {
        diag.severity == Severity::Error
            || (self.deny_warnings && diag.severity == Severity::Warning)
            || self.codes.contains(&diag.code)
    }
}

/// The analyzer's output: findings sorted by source position, then code,
/// then message — a total, deterministic order.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// The findings, in report order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Build a report, establishing the canonical order.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> LintReport {
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        LintReport { diagnostics }
    }

    /// Number of findings at a severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of errors.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warnings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of notes.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings fatal under `deny`.
    pub fn fatal(&self, deny: &DenyList) -> usize {
        self.diagnostics.iter().filter(|d| deny.is_fatal(d)).count()
    }

    /// Feed one `LintFinding` event per diagnostic into an observer (the
    /// CLI wires this to the `lint.findings*` metrics).
    pub fn observe<O: obs::RepairObserver>(&self, observer: &O) {
        for diag in &self.diagnostics {
            observer.event(obs::Event::LintFinding {
                code: diag.code.as_str(),
                severity: diag.severity.as_str(),
            });
        }
    }

    /// The report as a JSON document: `{file, findings, summary}` with
    /// byte-deterministic serialization (sorted findings, sorted object
    /// members).
    pub fn to_json(&self, file: &str) -> Json {
        let mut summary = Json::Null;
        summary.set("errors", self.errors());
        summary.set("warnings", self.warnings());
        summary.set("notes", self.notes());
        let mut obj = Json::Null;
        obj.set("file", file);
        obj.set(
            "findings",
            Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
        );
        obj.set("summary", summary);
        obj
    }
}

/// Analyze a parsed rule set. `spans` aligns with rule ids (from
/// [`fixrules::io::parse_rules_spanned`]); pass an empty slice when spans
/// are unknown and findings will render without source locations.
pub fn lint(
    rules: &RuleSet,
    spans: &[Span],
    symbols: &SymbolTable,
    opts: &LintOptions,
) -> LintReport {
    let ctx = passes::Ctx {
        rules,
        spans,
        symbols,
        opts,
    };
    let mut diags = Vec::new();
    let (consistency, mut conflict_diags) = passes::conflicts::run(&ctx);
    diags.append(&mut conflict_diags);
    let (dead, mut shadow_diags) = passes::shadow::run(&ctx);
    diags.append(&mut shadow_diags);
    diags.append(&mut passes::unreachable::run(&ctx, &dead));
    diags.append(&mut passes::redundant::run(
        &ctx,
        consistency.is_consistent(),
        &dead,
    ));
    diags.append(&mut passes::cycles::run(&ctx));
    LintReport::new(diags)
}

/// Parse `text` against `schema` and analyze it; a parse failure becomes a
/// single-FR000 report instead of an error, so callers get diagnostics
/// either way.
pub fn lint_source(
    text: &str,
    schema: &Schema,
    symbols: &mut SymbolTable,
    opts: &LintOptions,
) -> LintReport {
    match parse_rules_spanned(text, schema, symbols) {
        Ok(parsed) => lint(&parsed.rules, &parsed.spans, symbols, opts),
        Err(error) => parse_error_report(&error),
    }
}

/// A report holding the single FR000 diagnostic for a parse failure.
pub fn parse_error_report(error: &RuleParseError) -> LintReport {
    LintReport::new(vec![Diagnostic::new(
        Code::ParseError,
        error.span(),
        error.message(),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn travel_schema() -> Schema {
        Schema::new("Travel", ["country", "capital", "city", "conf"]).unwrap()
    }

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_ruleset_has_no_findings() {
        let mut symbols = SymbolTable::new();
        let text = r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
IF country = "Canada" AND capital IN {"Toronto"} THEN capital := "Ottawa"
IF capital = "Tokyo" AND city = "Tokyo" AND conf = "ICDE" AND country IN {"China"} THEN country := "Japan"
"#;
        let report = lint_source(
            text,
            &travel_schema(),
            &mut symbols,
            &LintOptions::default(),
        );
        assert!(report.is_clean(), "{:?}", codes(&report));
    }

    #[test]
    fn conflict_reports_fr001_with_witness() {
        let mut symbols = SymbolTable::new();
        let text = r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
IF conf = "ICDE" AND capital IN {"Shanghai"} THEN capital := "Nanjing"
"#;
        let report = lint_source(
            text,
            &travel_schema(),
            &mut symbols,
            &LintOptions::default(),
        );
        assert_eq!(codes(&report), vec!["FR001"]);
        let diag = &report.diagnostics[0];
        assert_eq!(diag.severity, Severity::Error);
        // Anchored at the later rule (line 3), pointing back at line 2.
        assert_eq!(diag.span.line, 3);
        assert_eq!(diag.related[0].span.line, 2);
        // The witness names the disagreeing facts.
        let notes = diag.notes.join("\n");
        assert!(notes.contains("witness tuple"), "{notes}");
        assert!(
            notes.contains("\"Beijing\"") && notes.contains("\"Nanjing\""),
            "{notes}"
        );
    }

    #[test]
    fn dead_and_redundant_rules_reported() {
        let mut symbols = SymbolTable::new();
        let text = r#"
IF country = "China" AND capital IN {"Shanghai", "Nanjing"} THEN capital := "Beijing"
IF country = "China" AND capital IN {"Hongkong", "Macau"} THEN capital := "Beijing"
IF country = "China" AND conf = "ICDE" AND capital IN {"Shanghai"} THEN capital := "Beijing"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
"#;
        let report = lint_source(
            text,
            &travel_schema(),
            &mut symbols,
            &LintOptions::default(),
        );
        // Line 4 is dead (shadowed by line 2); line 5 is redundant (implied
        // jointly by lines 2 and 3) with its negatives split across both.
        let got: Vec<(usize, &'static str)> = report
            .diagnostics
            .iter()
            .map(|d| (d.span.line, d.code.as_str()))
            .collect();
        assert_eq!(
            got,
            vec![(4, "FR002"), (5, "FR003"), (5, "FR004"), (5, "FR004")]
        );
    }

    #[test]
    fn budget_exhaustion_is_a_note_not_a_warning() {
        let mut symbols = SymbolTable::new();
        let text = r#"
IF country = "China" AND capital IN {"Shanghai", "Nanjing"} THEN capital := "Beijing"
IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing"
"#;
        let opts = LintOptions {
            implication_budget: 1,
            ..LintOptions::default()
        };
        let report = lint_source(text, &travel_schema(), &mut symbols, &opts);
        // Line 3 is dead (FR002, budget-independent); line 2's redundancy
        // check exhausts the budget and must come back FR006, not FR003.
        assert_eq!(codes(&report), vec!["FR006", "FR002"]);
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.notes(), 1);
        assert!(!DenyList::parse("warnings")
            .unwrap()
            .is_fatal(&report.diagnostics[0]));
    }

    #[test]
    fn fr006_names_the_budget_or_says_the_space_overflows() {
        // Over the budget: the exact size, and the budget that decides.
        let mut symbols = SymbolTable::new();
        let text = r#"IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing""#;
        let opts = LintOptions {
            implication_budget: 1,
            ..LintOptions::default()
        };
        let report = lint_source(text, &travel_schema(), &mut symbols, &opts);
        let diag = &report.diagnostics[0];
        assert_eq!(
            diag.message,
            "redundancy undecided: the implication check needs 6 candidate tuples but the \
             budget is 1"
        );
        assert_eq!(
            diag.notes,
            ["re-run with a budget of at least 6 to decide this rule"]
        );
        // Two evidence constants on each of 68 attributes: 3^68 candidate
        // tuples, which no `usize` holds, so no size and no budget advice.
        let names: Vec<String> = (0..70).map(|i| format!("a{i}")).collect();
        let schema = Schema::new("Wide", &names).unwrap();
        let evidence = |v: &str| {
            (0..68)
                .map(|i| format!("a{i} = \"{v}\""))
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        let text = format!(
            "IF {} AND a68 IN {{\"x\"}} THEN a68 := \"y\"\n\
             IF {} AND a69 IN {{\"x\"}} THEN a69 := \"y\"\n",
            evidence("u"),
            evidence("w")
        );
        let report = lint_source(&text, &schema, &mut symbols, &LintOptions::default());
        assert_eq!(codes(&report), vec!["FR006", "FR006"]);
        for diag in &report.diagnostics {
            assert_eq!(
                diag.message,
                "redundancy undecided: the implication check's candidate space overflows, \
                 so no budget can decide this rule"
            );
            assert!(diag.notes.is_empty(), "{:?}", diag.notes);
        }
    }

    #[test]
    fn cycle_reported_once_at_first_member() {
        let mut symbols = SymbolTable::new();
        // capital's fact enables the city rule's evidence and vice versa —
        // a consistent 2-cycle.
        let text = r#"
IF city = "Pudong" AND capital IN {"Nanjing"} THEN capital := "Beijing"
IF capital = "Beijing" AND city IN {"Hangzhou"} THEN city := "Pudong"
"#;
        let report = lint_source(
            text,
            &travel_schema(),
            &mut symbols,
            &LintOptions::default(),
        );
        assert_eq!(codes(&report), vec!["FR005"]);
        let diag = &report.diagnostics[0];
        assert_eq!(diag.span.line, 2);
        assert_eq!(diag.related.len(), 1);
        assert_eq!(diag.related[0].span.line, 3);
    }

    #[test]
    fn parse_error_becomes_fr000() {
        let mut symbols = SymbolTable::new();
        let report = lint_source(
            "IF country = \"China\" THEN capital := \"Beijing\"",
            &travel_schema(),
            &mut symbols,
            &LintOptions::default(),
        );
        assert_eq!(codes(&report), vec!["FR000"]);
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn deny_list_parses_and_applies() {
        let deny = DenyList::parse("FR002, FR006").unwrap();
        let warn = Diagnostic::new(Code::DeadRule, Span::point(1, 1), "w");
        let note = Diagnostic::new(Code::ImplicationUnknown, Span::point(1, 1), "n");
        let other = Diagnostic::new(Code::RedundantRule, Span::point(1, 1), "r");
        assert!(deny.is_fatal(&warn));
        assert!(deny.is_fatal(&note));
        assert!(!deny.is_fatal(&other));
        assert!(DenyList::parse("bogus").is_err());
        // Errors are always fatal, even with nothing denied.
        let err = Diagnostic::new(Code::ConflictingRules, Span::point(1, 1), "e");
        assert!(DenyList::none().is_fatal(&err));
    }

    #[test]
    fn deny_list_rejects_duplicates_and_contradictions() {
        // Duplicate codes and duplicate `warnings` are config drift.
        let err = DenyList::parse("FR002,FR002").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = DenyList::parse("FR002, FR006, FR002").unwrap_err();
        assert!(err.contains("duplicate deny target `FR002`"), "{err}");
        let err = DenyList::parse("warnings,warnings").unwrap_err();
        assert!(err.contains("duplicate deny target `warnings`"), "{err}");
        // Severities other than `warnings` are contradictions, not codes.
        let err = DenyList::parse("errors").unwrap_err();
        assert!(err.contains("always fatal"), "{err}");
        assert!(DenyList::parse("notes").is_err());
        // Boundary cases that must still parse: empty spec, stray commas
        // and whitespace, every shipped code at once.
        assert!(DenyList::parse("").is_ok());
        assert!(DenyList::parse(" , ,").is_ok());
        let all = Code::ALL
            .iter()
            .map(|c| c.as_str())
            .collect::<Vec<_>>()
            .join(",");
        assert!(DenyList::parse(&all).is_ok());
    }

    #[test]
    fn json_report_is_deterministic_and_round_trips() {
        let mut symbols = SymbolTable::new();
        let text = r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
IF conf = "ICDE" AND capital IN {"Shanghai"} THEN capital := "Nanjing"
"#;
        let report = lint_source(
            text,
            &travel_schema(),
            &mut symbols,
            &LintOptions::default(),
        );
        let a = report.to_json("rules.frl").to_string_pretty();
        let b = report.to_json("rules.frl").to_string_pretty();
        assert_eq!(a, b);
        let parsed = obs::json::parse(&a).unwrap();
        assert_eq!(parsed.to_string_pretty(), a);
        assert_eq!(
            parsed
                .get("summary")
                .and_then(|s| s.get("errors"))
                .and_then(Json::as_i64),
            Some(1)
        );
    }
}
