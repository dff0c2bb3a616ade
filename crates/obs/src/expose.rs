//! Prometheus text-format (v0.0.4) exposition over metric snapshots.
//!
//! [`prometheus_text`] renders any [`MetricsRegistry::snapshot`](crate::MetricsRegistry::snapshot)
//! JSON into the exposition format scrapers expect: counters and gauges as
//! single samples, histograms as summaries (`quantile` series plus `_sum`
//! and `_count`). Metric names are sanitized (`.` → `_`); labeled series
//! keys produced by [`series_key`](crate::metrics::series_key) pass their
//! label block through unchanged — the registry's canonical encoding *is*
//! the Prometheus label syntax.
//!
//! [`parse_prometheus`] is the matching tiny parser — enough to validate a
//! scrape in tests and `fixctl scrape`, not a full client.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;

/// Split a registry series key into `(name, label_block)`, where the
/// label block keeps its surrounding braces (`{k="v"}`) or is `""` for an
/// unlabeled series.
pub fn split_series(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (&key[..i], &key[i..]),
        None => (key, ""),
    }
}

/// Map a registry metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and any other invalid byte become
/// `_`, and a leading digit gets a `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
            continue;
        }
        let valid = c.is_ascii_alphabetic() || c == '_' || c == ':' || c.is_ascii_digit();
        out.push(if valid { c } else { '_' });
    }
    out
}

/// One metric family: its `# TYPE` plus all sample lines, keyed by
/// sanitized name so families render once even when labeled and unlabeled
/// series interleave in snapshot order.
#[derive(Default)]
struct Family {
    kind: &'static str,
    samples: Vec<String>,
}

/// Render a snapshot (the `{"counters":…,"gauges":…,"histograms":…}`
/// schema) as Prometheus text format v0.0.4. Output is deterministic:
/// families sorted by name, samples in snapshot (sorted-key) order.
pub fn prometheus_text(snapshot: &Json) -> String {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut add = |name: String, kind: &'static str, line: String| {
        let fam = families.entry(name).or_default();
        fam.kind = kind;
        fam.samples.push(line);
    };

    let section = |key: &str| {
        snapshot
            .get(key)
            .and_then(|v| v.as_obj())
            .cloned()
            .unwrap_or_default()
    };

    for (key, v) in section("counters") {
        let (name, labels) = split_series(&key);
        let name = sanitize_name(name);
        let value = v.as_i64().unwrap_or(0);
        let line = format!("{name}{labels} {value}");
        add(name, "counter", line);
    }
    for (key, v) in section("gauges") {
        let (name, labels) = split_series(&key);
        let name = sanitize_name(name);
        let value = v.as_i64().unwrap_or(0);
        let line = format!("{name}{labels} {value}");
        add(name, "gauge", line);
    }
    for (key, v) in section("histograms") {
        let (name, labels) = split_series(&key);
        let name = sanitize_name(name);
        let stat = |field: &str| v.get(field).and_then(|x| x.as_i64()).unwrap_or(0);
        // Summaries: quantile label joins any series labels.
        let joined = |q: &str| {
            if labels.is_empty() {
                format!("{{quantile=\"{q}\"}}")
            } else {
                format!("{},quantile=\"{q}\"}}", &labels[..labels.len() - 1])
            }
        };
        for (q, field) in [("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")] {
            add(
                name.clone(),
                "summary",
                format!("{name}{} {}", joined(q), stat(field)),
            );
        }
        add(
            name.clone(),
            "summary",
            format!("{name}_sum{labels} {}", stat("sum")),
        );
        add(
            name.clone(),
            "summary",
            format!("{name}_count{labels} {}", stat("count")),
        );
    }

    let mut out = String::new();
    for (name, fam) in &families {
        let _ = writeln!(out, "# TYPE {name} {}", fam.kind);
        for line in &fam.samples {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// One sample parsed back out of exposition text.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (for summaries, the `_sum`/`_count` suffixed name).
    pub name: String,
    /// Raw label block including braces, or `""`.
    pub labels: String,
    pub value: f64,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

/// Validate a label block: `{k="v",...}` with proper quoting and escapes.
fn parse_labels(block: &str) -> Result<(), String> {
    parse_label_pairs(block).map(|_| ())
}

/// Parse a label block (`{k="v",...}`, or `""` for no labels) into
/// unescaped `(name, value)` pairs in written order. This is the
/// machine-readable side of [`PromSample::labels`], used by
/// `fixctl scrape --require name{k="v"}` to match a required series
/// regardless of label order.
pub fn parse_label_pairs(block: &str) -> Result<Vec<(String, String)>, String> {
    if block.is_empty() {
        return Ok(Vec::new());
    }
    let inner = block
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("malformed label block {block:?}"))?;
    let mut pairs = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {block:?}"))?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("unquoted label value in {block:?}"))?;
        // Scan the quoted value, honoring \\ \" \n escapes.
        let mut value = String::new();
        let mut end = None;
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    _ => return Err(format!("bad escape in label value in {block:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in {block:?}"))?;
        pairs.push((key.to_string(), value));
        rest = &rest[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            if r.is_empty() {
                return Err(format!("trailing comma in {block:?}"));
            }
            rest = r;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value in {block:?}"));
        }
    }
    Ok(pairs)
}

/// Parse (and thereby validate) Prometheus text exposition. Returns every
/// sample; `# HELP`/`# TYPE`/blank lines are skipped, anything else
/// malformed is an error naming the offending line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            if let Some("TYPE") = words.next() {
                let name = words.next().unwrap_or("");
                let kind = words.next().unwrap_or("");
                if !valid_name(name)
                    || !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    )
                {
                    return Err(format!("line {}: bad TYPE comment: {line}", lineno + 1));
                }
            }
            continue;
        }
        // Sample: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| c == '{' || c.is_ascii_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(format!("line {}: invalid metric name: {line}", lineno + 1));
        }
        let mut rest = &line[name_end..];
        let mut labels = String::new();
        if rest.starts_with('{') {
            let close = rest
                .find('}')
                .ok_or_else(|| format!("line {}: unclosed label block: {line}", lineno + 1))?;
            labels = rest[..=close].to_string();
            parse_labels(&labels).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            rest = &rest[close + 1..];
        }
        let mut fields = rest.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| format!("line {}: missing value: {line}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value {value:?}", lineno + 1))?;
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|_| format!("line {}: bad timestamp {ts:?}", lineno + 1))?;
        }
        if fields.next().is_some() {
            return Err(format!("line {}: trailing fields: {line}", lineno + 1));
        }
        samples.push(PromSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn renders_and_reparses_a_registry_snapshot() {
        let reg = MetricsRegistry::new();
        reg.counter("repair.rules_applied").add(7);
        reg.counter_with("repair.rule.applied", &[("rule", "r0"), ("attr", "city")])
            .add(3);
        reg.gauge("fixd.symbols").set(42);
        let h = reg.histogram_with("http.latency_ns", &[("endpoint", "repair")]);
        h.record(100);
        h.record(200);
        let text = prometheus_text(&reg.snapshot());

        assert!(
            text.contains("# TYPE repair_rules_applied counter"),
            "{text}"
        );
        assert!(text.contains("repair_rules_applied 7"), "{text}");
        assert!(
            text.contains("repair_rule_applied{attr=\"city\",rule=\"r0\"} 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE http_latency_ns summary"), "{text}");
        assert!(
            text.contains("http_latency_ns{endpoint=\"repair\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("http_latency_ns_count{endpoint=\"repair\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("http_latency_ns_sum{endpoint=\"repair\"} 300"),
            "{text}"
        );

        let samples = parse_prometheus(&text).expect("own output must parse");
        assert!(samples
            .iter()
            .any(|s| s.name == "repair_rules_applied" && s.value == 7.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "repair_rule_applied" && s.labels.contains("rule=\"r0\"")));
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.counter_with("m", &[("b", "2")]).inc();
            reg.counter_with("m", &[("a", "1")]).inc();
            reg.counter("z").inc();
            prometheus_text(&reg.snapshot())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("repair.rule.applied"), "repair_rule_applied");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
    }

    #[test]
    fn label_blocks_parse_to_unescaped_pairs() {
        assert_eq!(parse_label_pairs("").unwrap(), vec![]);
        assert_eq!(
            parse_label_pairs("{endpoint=\"repair\",status=\"200\"}").unwrap(),
            vec![
                ("endpoint".to_string(), "repair".to_string()),
                ("status".to_string(), "200".to_string()),
            ]
        );
        assert_eq!(
            parse_label_pairs("{k=\"a\\\"b\\\\c\\nd\"}").unwrap(),
            vec![("k".to_string(), "a\"b\\c\nd".to_string())]
        );
        assert!(parse_label_pairs("{k=v}").is_err());
        assert!(parse_label_pairs("{k=\"v\"").is_err());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("ok 1\n").is_ok());
        assert!(parse_prometheus("bad name 1\n").is_err());
        assert!(parse_prometheus("m{k=\"v\" 1\n").is_err(), "unclosed block");
        assert!(parse_prometheus("m{k=v} 1\n").is_err(), "unquoted value");
        assert!(parse_prometheus("m nope\n").is_err(), "non-numeric value");
        assert!(parse_prometheus("m 1 2 3\n").is_err(), "trailing fields");
        assert!(parse_prometheus("# TYPE m nonsense\n").is_err());
        assert!(parse_prometheus("# HELP m anything at all\n").is_ok());
        assert!(parse_prometheus("m{k=\"a\\\"b\"} 2 1700000000\n").is_ok());
    }
}
