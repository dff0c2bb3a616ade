//! Textual rule files.
//!
//! A line-oriented, human-editable serialization of fixing rules, so rule
//! sets can be authored in a file, versioned, and shared between the CLI
//! and the library:
//!
//! ```text
//! # φ1 of the paper
//! IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
//! ```
//!
//! Grammar (one rule per line, `#` comments, blank lines ignored):
//!
//! ```text
//! rule  := "IF" cond ("AND" cond)* "THEN" attr ":=" value
//! cond  := attr "=" value                       (evidence cell)
//!        | attr "IN" "{" value ("," value)* "}" (negative patterns of B)
//! value := '"' escaped-string '"'
//! ```
//!
//! Exactly one `IN` condition is required and its attribute must match the
//! `THEN` attribute. Values are double-quoted with `\"` and `\\` escapes,
//! so arbitrary cell content round-trips.

use std::borrow::Cow;
use std::fmt::Write as _;

use obs::Json;
use relation::{Schema, SymbolTable};

use crate::rule::FixingRule;
use crate::ruleset::RuleSet;

/// A source location inside a rule file: 1-based line and column plus the
/// length of the region, all measured in characters. Spans order by
/// position, so sorting diagnostics by span yields file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in characters) of the first character.
    pub col: usize,
    /// Length of the region in characters (at least 1 for point spans).
    pub len: usize,
}

impl Span {
    /// A span covering `len` characters starting at `line:col`.
    pub fn new(line: usize, col: usize, len: usize) -> Span {
        Span { line, col, len }
    }

    /// A single-character span at `line:col`.
    pub fn point(line: usize, col: usize) -> Span {
        Span { line, col, len: 1 }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors raised while parsing a rule file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleParseError {
    /// Line did not match the grammar.
    Syntax {
        /// Where the parse failed.
        span: Span,
        /// What went wrong.
        message: String,
    },
    /// The parsed rule failed validation (e.g. fact among negatives).
    Invalid {
        /// The offending rule line.
        span: Span,
        /// The validation failure.
        source: crate::rule::FixRuleError,
    },
}

impl RuleParseError {
    /// Where the error occurred.
    pub fn span(&self) -> Span {
        match self {
            RuleParseError::Syntax { span, .. } | RuleParseError::Invalid { span, .. } => *span,
        }
    }

    /// 1-based line of the error.
    pub fn line(&self) -> usize {
        self.span().line
    }

    /// The error text without the location prefix.
    pub fn message(&self) -> String {
        match self {
            RuleParseError::Syntax { message, .. } => message.clone(),
            RuleParseError::Invalid { source, .. } => format!("invalid rule: {source}"),
        }
    }
}

impl std::fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let span = self.span();
        write!(f, "line {}:{}: {}", span.line, span.col, self.message())
    }
}

impl std::error::Error for RuleParseError {}

/// Serialize one rule as a rule-file line.
pub fn format_rule(rule: &FixingRule, schema: &Schema, symbols: &SymbolTable) -> String {
    let mut out = String::from("IF ");
    for (i, (&attr, &val)) in rule.x().iter().zip(rule.tp().iter()).enumerate() {
        if i > 0 {
            out.push_str(" AND ");
        }
        let _ = write!(
            out,
            "{} = {}",
            schema.attr_name(attr),
            quote(symbols.resolve(val))
        );
    }
    let _ = write!(out, " AND {} IN {{", schema.attr_name(rule.b()));
    for (i, &neg) in rule.neg().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&quote(symbols.resolve(neg)));
    }
    let _ = write!(
        out,
        "}} THEN {} := {}",
        schema.attr_name(rule.b()),
        quote(symbols.resolve(rule.fact()))
    );
    out
}

/// Serialize a whole rule set (with a header comment).
pub fn format_rules(rules: &RuleSet, symbols: &SymbolTable) -> String {
    let mut out = format!(
        "# {} fixing rules over schema {}\n",
        rules.len(),
        rules.schema()
    );
    for (_, rule) in rules.iter() {
        out.push_str(&format_rule(rule, rules.schema(), symbols));
        out.push('\n');
    }
    out
}

/// Parse a rule file into a [`RuleSet`] over `schema`, interning values
/// into `symbols`.
///
/// ```
/// use relation::{Schema, SymbolTable};
/// let schema = Schema::new("T", ["country", "capital"]).unwrap();
/// let mut sy = SymbolTable::new();
/// let rules = fixrules::io::parse_rules(
///     r#"IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing""#,
///     &schema,
///     &mut sy,
/// ).unwrap();
/// assert_eq!(rules.len(), 1);
/// assert!(rules.check_consistency().is_consistent());
/// ```
pub fn parse_rules(
    text: &str,
    schema: &Schema,
    symbols: &mut SymbolTable,
) -> Result<RuleSet, RuleParseError> {
    parse_rules_spanned(text, schema, symbols).map(|spanned| spanned.rules)
}

/// A parsed rule set together with the source span of each rule, aligned
/// with [`crate::ruleset::RuleId`] order: `spans[id.index()]` is where the
/// rule with that id was written. Produced by [`parse_rules_spanned`] so
/// tooling (the `fixlint` analyzer, error reporters) can point back at the
/// offending line of the rule file.
#[derive(Debug, Clone)]
pub struct SpannedRuleSet {
    /// The parsed rules.
    pub rules: RuleSet,
    /// One span per rule, in rule-id order.
    pub spans: Vec<Span>,
}

/// [`parse_rules`], additionally reporting where in the file each rule was
/// written (the span covers the whole rule text on its line).
pub fn parse_rules_spanned(
    text: &str,
    schema: &Schema,
    symbols: &mut SymbolTable,
) -> Result<SpannedRuleSet, RuleParseError> {
    let mut rules = RuleSet::new(schema.clone());
    let mut spans = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        if is_skippable(raw) {
            continue;
        }
        let span = line_span(raw, line_no);
        let parsed = parse_raw(raw, line_no)?;
        rules.push(resolve_raw(&parsed, span, schema, symbols)?);
        spans.push(span);
    }
    Ok(SpannedRuleSet { rules, spans })
}

/// Infer a schema from the attribute names a rule file mentions, in order
/// of first appearance. This lets tools operate on a rule file alone (no
/// CSV header to borrow a schema from): the rules themselves name every
/// attribute they constrain, which is exactly the projection the rule
/// semantics can observe.
pub fn infer_schema(text: &str, relation: impl Into<String>) -> Result<Schema, RuleParseError> {
    let mut names: Vec<&str> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if is_skippable(raw) {
            continue;
        }
        let parsed = parse_raw(raw, i + 1)?;
        let mentioned = parsed
            .evidence
            .iter()
            .map(|(attr, _)| attr.text)
            .chain([parsed.neg_attr.text, parsed.then_attr.text]);
        for name in mentioned {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    Schema::new(relation, names).map_err(|e| RuleParseError::Syntax {
        span: Span::point(1, 1),
        message: format!("cannot infer schema: {e}"),
    })
}

/// Parse a single rule line.
pub fn parse_rule_line(
    line: &str,
    line_no: usize,
    schema: &Schema,
    symbols: &mut SymbolTable,
) -> Result<FixingRule, RuleParseError> {
    let parsed = parse_raw(line, line_no)?;
    resolve_raw(&parsed, line_span(line, line_no), schema, symbols)
}

fn is_skippable(raw: &str) -> bool {
    let line = raw.trim();
    line.is_empty() || line.starts_with('#')
}

/// Span of the rule text on `raw` (leading/trailing whitespace excluded).
fn line_span(raw: &str, line_no: usize) -> Span {
    let leading = raw.len() - raw.trim_start().len();
    Span {
        line: line_no,
        col: raw[..leading].chars().count() + 1,
        len: raw.trim().chars().count().max(1),
    }
}

/// 1-based character column of byte offset `off` in `line`. Only error
/// paths call this, so the lexer itself stays linear in the line length.
fn char_col(line: &str, off: usize) -> usize {
    line[..off].chars().count() + 1
}

/// An attribute-name token with its byte offset in the line.
struct RawToken<'a> {
    text: &'a str,
    off: usize,
}

impl RawToken<'_> {
    fn span(&self, line_no: usize, line: &str) -> Span {
        Span::new(
            line_no,
            char_col(line, self.off),
            self.text.chars().count().max(1),
        )
    }
}

/// One rule line in purely syntactic form: attribute *names* (with their
/// columns, for diagnostics) and unresolved string values. Produced by
/// [`parse_raw`], turned into a [`FixingRule`] by [`resolve_raw`] —
/// splitting the two lets [`infer_schema`] read attribute names before any
/// schema exists.
struct RawRule<'a> {
    line: usize,
    text: &'a str,
    evidence: Vec<(RawToken<'a>, Cow<'a, str>)>,
    neg_attr: RawToken<'a>,
    negatives: Vec<Cow<'a, str>>,
    then_attr: RawToken<'a>,
    fact: Cow<'a, str>,
}

fn parse_raw(line: &str, line_no: usize) -> Result<RawRule<'_>, RuleParseError> {
    let at = |off: usize, message: String| RuleParseError::Syntax {
        span: Span::point(line_no, char_col(line, off)),
        message,
    };
    let syntax = |e: LexError| at(e.off, e.message);
    let mut lex = Lexer::new(line);
    lex.expect_word("IF").map_err(syntax)?;

    let mut evidence: Vec<(RawToken<'_>, Cow<'_, str>)> = Vec::new();
    let mut neg_clause: Option<(RawToken<'_>, Vec<Cow<'_, str>>)> = None;
    loop {
        let attr = lex.ident().map_err(syntax)?;
        if lex.try_word("=") {
            let value = lex.quoted().map_err(syntax)?;
            evidence.push((attr, value));
        } else if lex.try_word("IN") {
            if neg_clause.is_some() {
                return Err(at(attr.off, "more than one IN clause".into()));
            }
            lex.expect_word("{").map_err(syntax)?;
            let mut values = Vec::new();
            loop {
                values.push(lex.quoted().map_err(syntax)?);
                if lex.try_word(",") {
                    continue;
                }
                lex.expect_word("}").map_err(syntax)?;
                break;
            }
            neg_clause = Some((attr, values));
        } else {
            return Err(at(
                lex.next_off(),
                format!("expected `=` or `IN` after `{}`", attr.text),
            ));
        }
        if lex.try_word("AND") {
            continue;
        }
        lex.expect_word("THEN").map_err(syntax)?;
        break;
    }
    let then_attr = lex.ident().map_err(syntax)?;
    lex.expect_word(":=").map_err(syntax)?;
    let fact = lex.quoted().map_err(syntax)?;
    lex.expect_end().map_err(syntax)?;

    let Some((neg_attr, negatives)) = neg_clause else {
        let leading = line.len() - line.trim_start().len();
        return Err(at(leading, "missing IN clause (negative patterns)".into()));
    };
    if neg_attr.text != then_attr.text {
        return Err(at(
            then_attr.off,
            format!(
                "IN attribute `{}` does not match THEN attribute `{}`",
                neg_attr.text, then_attr.text
            ),
        ));
    }
    Ok(RawRule {
        line: line_no,
        text: line,
        evidence,
        neg_attr,
        negatives,
        then_attr,
        fact,
    })
}

fn resolve_raw(
    raw: &RawRule<'_>,
    span: Span,
    schema: &Schema,
    symbols: &mut SymbolTable,
) -> Result<FixingRule, RuleParseError> {
    let resolve = |token: &RawToken<'_>| {
        schema
            .attr(token.text)
            .ok_or_else(|| RuleParseError::Syntax {
                span: token.span(raw.line, raw.text),
                message: format!("attribute `{}` is not in schema {schema}", token.text),
            })
    };
    let mut ev = Vec::with_capacity(raw.evidence.len());
    for (attr, value) in &raw.evidence {
        ev.push((resolve(attr)?, symbols.intern(value)));
    }
    let b = resolve(&raw.then_attr)?;
    let neg = raw.negatives.iter().map(|v| symbols.intern(v)).collect();
    let fact = symbols.intern(&raw.fact);
    FixingRule::new(ev, b, neg, fact).map_err(|source| RuleParseError::Invalid { span, source })
}

/// A fixing rule in schema-independent, serializable form (attribute names
/// and string values). The bridge between the in-memory interned
/// representation and JSON documents ([`PortableRuleSet::to_json`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortableRule {
    /// Evidence cells: `(attribute, value)` pairs.
    pub evidence: Vec<(String, String)>,
    /// The repaired attribute `B`.
    pub b: String,
    /// Negative patterns of `B`.
    pub negatives: Vec<String>,
    /// The fact written on a match.
    pub fact: String,
}

/// A serializable rule-set document: the schema it applies to plus the
/// rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortableRuleSet {
    /// Relation name.
    pub relation: String,
    /// Attribute names in schema order.
    pub attributes: Vec<String>,
    /// The rules.
    pub rules: Vec<PortableRule>,
}

impl PortableRule {
    fn to_json(&self) -> Json {
        let mut obj = Json::Null;
        obj.set(
            "evidence",
            Json::Arr(
                self.evidence
                    .iter()
                    .map(|(a, v)| Json::Arr(vec![Json::from(a.as_str()), Json::from(v.as_str())]))
                    .collect(),
            ),
        );
        obj.set("b", self.b.as_str());
        obj.set("negatives", self.negatives.clone());
        obj.set("fact", self.fact.as_str());
        obj
    }

    fn from_json(value: &Json) -> Result<PortableRule, String> {
        let evidence = value
            .get("evidence")
            .and_then(Json::as_arr)
            .ok_or("rule is missing `evidence` array")?
            .iter()
            .map(|pair| match pair.as_arr() {
                Some([a, v]) => match (a.as_str(), v.as_str()) {
                    (Some(a), Some(v)) => Ok((a.to_string(), v.to_string())),
                    _ => Err("evidence pair must hold two strings".to_string()),
                },
                _ => Err("evidence entry must be an `[attr, value]` pair".to_string()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PortableRule {
            evidence,
            b: json_str(value, "b")?,
            negatives: json_str_arr(value, "negatives")?,
            fact: json_str(value, "fact")?,
        })
    }
}

impl PortableRuleSet {
    /// The document as a JSON value (stable member order).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::Null;
        obj.set("relation", self.relation.as_str());
        obj.set("attributes", self.attributes.clone());
        obj.set(
            "rules",
            Json::Arr(self.rules.iter().map(PortableRule::to_json).collect()),
        );
        obj
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parse a JSON document produced by [`PortableRuleSet::to_json`].
    pub fn from_json_str(text: &str) -> Result<PortableRuleSet, String> {
        let doc = obs::json::parse(text).map_err(|e| e.to_string())?;
        let rules = doc
            .get("rules")
            .and_then(Json::as_arr)
            .ok_or("document is missing `rules` array")?
            .iter()
            .enumerate()
            .map(|(i, r)| PortableRule::from_json(r).map_err(|e| format!("rule #{i}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PortableRuleSet {
            relation: json_str(&doc, "relation")?,
            attributes: json_str_arr(&doc, "attributes")?,
            rules,
        })
    }
}

fn json_str(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string member `{key}`"))
}

fn json_str_arr(value: &Json, key: &str) -> Result<Vec<String>, String> {
    value
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array member `{key}`"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` entries must be strings"))
        })
        .collect()
}

/// Export a rule set to portable form.
pub fn to_portable(rules: &RuleSet, symbols: &SymbolTable) -> PortableRuleSet {
    let schema = rules.schema();
    PortableRuleSet {
        relation: schema.name().to_string(),
        attributes: schema.attr_names().map(str::to_string).collect(),
        rules: rules
            .rules()
            .iter()
            .map(|r| PortableRule {
                evidence: r
                    .x()
                    .iter()
                    .zip(r.tp().iter())
                    .map(|(&a, &v)| {
                        (
                            schema.attr_name(a).to_string(),
                            symbols.resolve(v).to_string(),
                        )
                    })
                    .collect(),
                b: schema.attr_name(r.b()).to_string(),
                negatives: r
                    .neg()
                    .iter()
                    .map(|&v| symbols.resolve(v).to_string())
                    .collect(),
                fact: symbols.resolve(r.fact()).to_string(),
            })
            .collect(),
    }
}

/// Errors importing a portable document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortableError {
    /// The document's schema could not be rebuilt.
    BadSchema(String),
    /// A rule referenced an unknown attribute or failed validation.
    BadRule {
        /// Index of the offending rule in the document.
        index: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for PortableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortableError::BadSchema(m) => write!(f, "bad schema: {m}"),
            PortableError::BadRule { index, message } => {
                write!(f, "rule #{index}: {message}")
            }
        }
    }
}

impl std::error::Error for PortableError {}

/// Import a portable document, rebuilding the schema it declares.
pub fn from_portable(
    doc: &PortableRuleSet,
    symbols: &mut SymbolTable,
) -> Result<RuleSet, PortableError> {
    let schema = Schema::new(doc.relation.clone(), doc.attributes.iter().cloned())
        .map_err(|e| PortableError::BadSchema(e.to_string()))?;
    let mut rules = RuleSet::new(schema.clone());
    for (index, pr) in doc.rules.iter().enumerate() {
        let evidence: Vec<(&str, &str)> = pr
            .evidence
            .iter()
            .map(|(a, v)| (a.as_str(), v.as_str()))
            .collect();
        let negatives: Vec<&str> = pr.negatives.iter().map(String::as_str).collect();
        let rule = FixingRule::from_named(&schema, symbols, &evidence, &pr.b, &negatives, &pr.fact)
            .map_err(|e| PortableError::BadRule {
                index,
                message: e.to_string(),
            })?;
        rules.push(rule);
    }
    Ok(rules)
}

fn quote(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A lexing failure: byte offset of the offending character in the line
/// plus the message. Converted to [`RuleParseError::Syntax`] by the caller,
/// which knows the line and turns the offset into a character column.
struct LexError {
    off: usize,
    message: String,
}

/// Minimal hand-rolled tokenizer over one line, tracking the byte offset of
/// the next unconsumed character so errors can point into the source.
struct Lexer<'a> {
    full: &'a str,
    rest: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(line: &'a str) -> Self {
        Lexer {
            full: line,
            rest: line.trim_start(),
        }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    /// Byte offset of the next unconsumed character.
    fn next_off(&self) -> usize {
        self.full.len() - self.rest.len()
    }

    fn err<T>(&self, message: String) -> Result<T, LexError> {
        Err(LexError {
            off: self.next_off(),
            message,
        })
    }

    fn expect_word(&mut self, word: &str) -> Result<(), LexError> {
        self.skip_ws();
        if let Some(stripped) = self.rest.strip_prefix(word) {
            self.rest = stripped;
            Ok(())
        } else {
            self.err(format!(
                "expected `{word}`, found `{}`",
                self.rest.chars().take(12).collect::<String>()
            ))
        }
    }

    fn try_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        if let Some(stripped) = self.rest.strip_prefix(word) {
            self.rest = stripped;
            true
        } else {
            false
        }
    }

    /// Attribute identifier: up to whitespace or a reserved delimiter.
    fn ident(&mut self) -> Result<RawToken<'a>, LexError> {
        self.skip_ws();
        let off = self.next_off();
        let end = self
            .rest
            .find(|c: char| c.is_whitespace() || "={},".contains(c))
            .unwrap_or(self.rest.len());
        if end == 0 {
            return self.err(format!(
                "expected attribute name, found `{}`",
                self.rest.chars().take(12).collect::<String>()
            ));
        }
        let (ident, rest) = self.rest.split_at(end);
        self.rest = rest;
        Ok(RawToken { text: ident, off })
    }

    /// Double-quoted string with `\"`/`\\` escapes. A value without a
    /// backslash is borrowed from the line as is.
    fn quoted(&mut self) -> Result<Cow<'a, str>, LexError> {
        self.skip_ws();
        let start = self.next_off();
        let Some(body) = self.rest.strip_prefix('"') else {
            return self.err(format!(
                "expected quoted value, found `{}`",
                self.rest.chars().take(12).collect::<String>()
            ));
        };
        let unterminated = || LexError {
            off: start,
            message: "unterminated quoted value".into(),
        };
        let stop = body.find(['"', '\\']).ok_or_else(unterminated)?;
        if body.as_bytes()[stop] == b'"' {
            self.rest = &body[stop + 1..];
            return Ok(Cow::Borrowed(&body[..stop]));
        }
        let mut out = String::from(&body[..stop]);
        let mut escaped = false;
        for (i, ch) in body[stop..].char_indices() {
            if escaped {
                match ch {
                    '"' | '\\' => out.push(ch),
                    other => {
                        return Err(LexError {
                            off: start,
                            message: format!("bad escape `\\{other}`"),
                        })
                    }
                }
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                self.rest = &body[stop + i + 1..];
                return Ok(Cow::Owned(out));
            } else {
                out.push(ch);
            }
        }
        Err(unterminated())
    }

    fn expect_end(&mut self) -> Result<(), LexError> {
        self.skip_ws();
        if self.rest.is_empty() {
            Ok(())
        } else {
            self.err(format!("trailing input `{}`", self.rest))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
    }

    #[test]
    fn round_trips_phi1() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let rule = FixingRule::from_named(
            &schema,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        )
        .unwrap();
        let line = format_rule(&rule, &schema, &sy);
        assert!(
            line.starts_with("IF country = \"China\" AND capital IN {"),
            "{line}"
        );
        let parsed = parse_rule_line(&line, 1, &schema, &mut sy).unwrap();
        assert_eq!(parsed, rule);
    }

    #[test]
    fn round_trips_multi_evidence() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let rule = FixingRule::from_named(
            &schema,
            &mut sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        )
        .unwrap();
        let line = format_rule(&rule, &schema, &sy);
        let parsed = parse_rule_line(&line, 1, &schema, &mut sy).unwrap();
        assert_eq!(parsed, rule);
    }

    #[test]
    fn round_trips_tricky_values() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let rule = FixingRule::from_named(
            &schema,
            &mut sy,
            &[("country", "He said \"hi\", twice")],
            "capital",
            &["back\\slash", "brace } and , comma"],
            "plain",
        )
        .unwrap();
        let line = format_rule(&rule, &schema, &sy);
        let parsed = parse_rule_line(&line, 1, &schema, &mut sy).unwrap();
        assert_eq!(parsed, rule);
    }

    #[test]
    fn parses_file_with_comments_and_blanks() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let text = r#"
# φ1 and φ2
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"

IF country = "Canada" AND capital IN {"Toronto"} THEN capital := "Ottawa"
"#;
        let rules = parse_rules(text, &schema, &mut sy).unwrap();
        assert_eq!(rules.len(), 2);
        assert!(rules.check_consistency().is_consistent());
    }

    #[test]
    fn format_rules_round_trips_a_set() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let mut rules = RuleSet::new(schema.clone());
        rules
            .push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai", "Hongkong"],
                "Beijing",
            )
            .unwrap();
        rules
            .push_named(
                &mut sy,
                &[("country", "Canada")],
                "capital",
                &["Toronto"],
                "Ottawa",
            )
            .unwrap();
        let text = format_rules(&rules, &sy);
        let parsed = parse_rules(&text, &schema, &mut sy).unwrap();
        assert_eq!(parsed.len(), 2);
        for ((_, a), (_, b)) in rules.iter().zip(parsed.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn error_reports_line_numbers() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let text = "# ok\nIF country = \"China\" THEN capital := \"Beijing\"\n";
        let err = parse_rules(text, &schema, &mut sy).unwrap_err();
        match err {
            RuleParseError::Syntax { span, message } => {
                assert_eq!(span.line, 2);
                assert!(message.contains("IN"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_reports_columns() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        // `nation` starts at column 4 of the line.
        let line = r#"IF nation = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing""#;
        let err = parse_rule_line(line, 7, &schema, &mut sy).unwrap_err();
        let span = err.span();
        assert_eq!((span.line, span.col, span.len), (7, 4, 6));
        assert!(err.to_string().starts_with("line 7:4: "), "{err}");
    }

    #[test]
    fn error_columns_count_characters_after_multibyte_values() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        // `=` in place of `:=` is character 82 of the line (byte 91).
        let line = r#"IF city = "Zürich" AND conf = "北京 say \"hi\"" AND capital IN {"上海"} THEN capital = "Beijing""#;
        let err = parse_rule_line(line, 2, &schema, &mut sy).unwrap_err();
        assert!(matches!(err, RuleParseError::Syntax { .. }), "{err:?}");
        let span = err.span();
        assert_eq!((span.line, span.col, span.len), (2, 82, 1));
        assert_eq!(
            err.to_string(),
            r#"line 2:82: expected `:=`, found `= "Beijing"`"#
        );
        // Unknown attribute `länd`: character 51 (byte 56), 4 characters
        // long (5 bytes).
        let line = r#"IF city = "Zürich" AND conf = "北京 say \"hi\"" AND länd = "中国" AND capital IN {"上海"} THEN capital := "Beijing""#;
        let err = parse_rule_line(line, 3, &schema, &mut sy).unwrap_err();
        let span = err.span();
        assert_eq!((span.line, span.col, span.len), (3, 51, 4));
        assert!(
            err.to_string().starts_with("line 3:51: attribute `länd`"),
            "{err}"
        );
        // A bad escape points at the opening quote of its value.
        let line = r#"IF city = "Zürich" AND conf = "a\q" AND capital IN {"上海"} THEN capital := "Beijing""#;
        let err = parse_rule_line(line, 4, &schema, &mut sy).unwrap_err();
        assert_eq!(err.to_string(), r#"line 4:31: bad escape `\q`"#);
    }

    #[test]
    fn spans_and_escaped_values_on_an_indented_multibyte_line() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        // Indented by a space, an ideographic space (3 bytes) and a space.
        let text = "# header\n \u{3000} IF city = \"Zürich\" AND capital IN {\"北京\", \"上\\\"海\"} THEN capital := \"Beijing\"\n";
        let spanned = parse_rules_spanned(text, &schema, &mut sy).unwrap();
        assert_eq!(spanned.spans, vec![Span::new(2, 4, 74)]);
        let rule = spanned.rules.rule(crate::ruleset::RuleId(0));
        let negatives: Vec<&str> = rule.neg().iter().map(|&v| sy.resolve(v)).collect();
        assert!(negatives.contains(&"北京"), "{negatives:?}");
        assert!(negatives.contains(&"上\"海"), "{negatives:?}");
        assert_eq!(sy.resolve(rule.tp()[0]), "Zürich");
    }

    #[test]
    fn parse_rules_spanned_reports_rule_spans() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let text = "# header\n\n  IF country = \"China\" AND capital IN {\"Shanghai\"} THEN capital := \"Beijing\"\nIF country = \"Canada\" AND capital IN {\"Toronto\"} THEN capital := \"Ottawa\"\n";
        let spanned = parse_rules_spanned(text, &schema, &mut sy).unwrap();
        assert_eq!(spanned.rules.len(), 2);
        assert_eq!(spanned.spans.len(), 2);
        // First rule is indented by two spaces on line 3.
        assert_eq!(spanned.spans[0].line, 3);
        assert_eq!(spanned.spans[0].col, 3);
        assert_eq!(spanned.spans[1].line, 4);
        assert_eq!(spanned.spans[1].col, 1);
        // The span covers the trimmed rule text.
        assert_eq!(
            spanned.spans[1].len,
            text.lines().nth(3).unwrap().chars().count()
        );
    }

    #[test]
    fn infer_schema_collects_attributes_in_order() {
        let text = r#"
# rules over an undeclared schema
IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing"
IF capital = "Tokyo" AND conf = "ICDE" AND country IN {"China"} THEN country := "Japan"
"#;
        let schema = infer_schema(text, "Inferred").unwrap();
        let names: Vec<&str> = schema.attr_names().collect();
        assert_eq!(names, vec!["country", "capital", "conf"]);
        // The inferred schema parses the same file.
        let mut sy = SymbolTable::new();
        let rules = parse_rules(text, &schema, &mut sy).unwrap();
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn mismatched_then_attribute_rejected() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let line = r#"IF country = "China" AND capital IN {"Shanghai"} THEN city := "Beijing""#;
        let err = parse_rule_line(line, 1, &schema, &mut sy).unwrap_err();
        assert!(matches!(err, RuleParseError::Syntax { .. }));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let line = r#"IF nation = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing""#;
        let err = parse_rule_line(line, 1, &schema, &mut sy).unwrap_err();
        assert!(err.to_string().contains("nation"));
    }

    #[test]
    fn invalid_rule_surfaces_validation_error() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        // Fact among the negatives.
        let line = r#"IF country = "China" AND capital IN {"Beijing"} THEN capital := "Beijing""#;
        let err = parse_rule_line(line, 1, &schema, &mut sy).unwrap_err();
        assert!(matches!(err, RuleParseError::Invalid { .. }));
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn portable_round_trip() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let mut rules = RuleSet::new(schema.clone());
        rules
            .push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai", "Hongkong"],
                "Beijing",
            )
            .unwrap();
        rules
            .push_named(
                &mut sy,
                &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
                "country",
                &["China"],
                "Japan",
            )
            .unwrap();
        let doc = to_portable(&rules, &sy);
        let json = doc.to_json_string();
        let parsed = PortableRuleSet::from_json_str(&json).unwrap();
        assert_eq!(parsed, doc);
        let mut sy2 = SymbolTable::new();
        let rebuilt = from_portable(&parsed, &mut sy2).unwrap();
        assert_eq!(rebuilt.len(), 2);
        // Semantically identical: same display under the fresh interner.
        for ((_, a), (_, b)) in rules.iter().zip(rebuilt.iter()) {
            assert_eq!(a.display(&schema, &sy), b.display(rebuilt.schema(), &sy2));
        }
    }

    #[test]
    fn portable_rejects_bad_rules() {
        let doc = PortableRuleSet {
            relation: "R".into(),
            attributes: vec!["a".into(), "b".into()],
            rules: vec![PortableRule {
                evidence: vec![("a".into(), "1".into())],
                b: "b".into(),
                negatives: vec!["x".into()],
                fact: "x".into(), // fact ∈ negatives
            }],
        };
        let mut sy = SymbolTable::new();
        let err = from_portable(&doc, &mut sy).unwrap_err();
        assert!(matches!(err, PortableError::BadRule { index: 0, .. }));
    }

    #[test]
    fn portable_rejects_bad_schema() {
        let doc = PortableRuleSet {
            relation: "R".into(),
            attributes: vec!["a".into(), "a".into()],
            rules: vec![],
        };
        let mut sy = SymbolTable::new();
        assert!(matches!(
            from_portable(&doc, &mut sy),
            Err(PortableError::BadSchema(_))
        ));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let schema = schema();
        let mut sy = SymbolTable::new();
        let line = r#"IF country = "China AND capital IN {"x"} THEN capital := "y""#;
        assert!(parse_rule_line(line, 3, &schema, &mut sy).is_err());
    }
}
