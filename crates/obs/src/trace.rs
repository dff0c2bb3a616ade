//! Structured trace journal: append-only span/event records with
//! byte-deterministic JSONL serialization and a Chrome trace-event
//! converter (viewable in Perfetto / `chrome://tracing`).
//!
//! Like the rest of this crate the journal is a leaf: callers pass names
//! and ids, never relational types. Three record phases mirror the Chrome
//! trace-event `ph` field: `"B"` (span begin), `"E"` (span end), `"i"`
//! (instant event with an attached payload object).
//!
//! Two clocks:
//!
//! * [`TraceClock::Logical`] (the default) — records carry only the
//!   monotonic sequence number, so two runs with identical behavior
//!   serialize **byte-identically**. The CI determinism gate diffs two
//!   `fixctl repair --trace` journals and relies on this.
//! * [`TraceClock::Wall`] — records additionally carry `ts_us`,
//!   microseconds since journal creation, for real timings in the Chrome
//!   converter.
//!
//! # Example
//!
//! ```
//! use obs::trace::{TraceClock, TraceJournal};
//!
//! let journal = TraceJournal::new(TraceClock::Logical);
//! {
//!     let span = journal.span("stage.repair", 0);
//!     let mut fields = obs::Json::Null;
//!     fields.set("rows", 4u64);
//!     journal.event("repair.done", span.id(), fields);
//! }
//! let text = journal.to_jsonl();
//! let records = obs::trace::parse_jsonl(&text).unwrap();
//! assert_eq!(records.len(), 3); // begin, event, end
//! let chrome = obs::trace::chrome_trace(&records);
//! assert!(chrome.get("traceEvents").is_some());
//! ```

use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Json};

/// A fresh empty JSON object.
fn empty_obj() -> Json {
    Json::Obj(std::collections::BTreeMap::new())
}

/// Timestamp mode of a [`TraceJournal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceClock {
    /// Sequence numbers only — byte-deterministic output.
    #[default]
    Logical,
    /// Sequence numbers plus `ts_us` microseconds since journal creation.
    Wall,
}

impl std::str::FromStr for TraceClock {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "logical" => Ok(TraceClock::Logical),
            "wall" => Ok(TraceClock::Wall),
            other => Err(format!("unknown trace clock `{other}` (logical|wall)")),
        }
    }
}

/// The `ph` phase of one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A span opened (`"B"`).
    SpanBegin,
    /// A span closed (`"E"`).
    SpanEnd,
    /// An instant event with a payload (`"i"`).
    Event,
}

impl TracePhase {
    /// The Chrome trace-event phase letter.
    pub fn as_str(self) -> &'static str {
        match self {
            TracePhase::SpanBegin => "B",
            TracePhase::SpanEnd => "E",
            TracePhase::Event => "i",
        }
    }

    /// Parse a phase letter.
    pub fn parse(s: &str) -> Option<TracePhase> {
        match s {
            "B" => Some(TracePhase::SpanBegin),
            "E" => Some(TracePhase::SpanEnd),
            "i" => Some(TracePhase::Event),
            _ => None,
        }
    }
}

/// One journal record. Span ids start at 1; `span`/`parent` of 0 mean
/// "none"/"root".
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotonic sequence number, from 0, gap-free within a journal.
    pub seq: u64,
    /// Record phase.
    pub phase: TracePhase,
    /// Span or event name.
    pub name: String,
    /// Span id for begin/end records; 0 for events.
    pub span: u64,
    /// Enclosing span id; 0 for root.
    pub parent: u64,
    /// Microseconds since journal creation ([`TraceClock::Wall`] only).
    pub ts_us: Option<u64>,
    /// Event payload; always a (possibly empty) JSON object.
    pub fields: Json,
}

impl TraceRecord {
    /// The record as one JSON object (sorted keys — deterministic bytes).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::Null;
        obj.set("fields", self.fields.clone());
        obj.set("name", self.name.as_str());
        obj.set("parent", self.parent);
        obj.set("ph", self.phase.as_str());
        obj.set("seq", self.seq);
        obj.set("span", self.span);
        if let Some(ts) = self.ts_us {
            obj.set("ts_us", ts);
        }
        obj
    }

    /// Parse one journal line back into a record.
    pub fn from_json(value: &Json) -> Result<TraceRecord, String> {
        let get_u64 = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Json::as_i64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("trace record missing `{key}`"))
        };
        let phase = value
            .get("ph")
            .and_then(Json::as_str)
            .and_then(TracePhase::parse)
            .ok_or("trace record has no valid `ph`")?;
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("trace record has no `name`")?
            .to_string();
        Ok(TraceRecord {
            seq: get_u64("seq")?,
            phase,
            name,
            span: get_u64("span")?,
            parent: get_u64("parent")?,
            ts_us: value.get("ts_us").and_then(Json::as_i64).map(|v| v as u64),
            fields: value.get("fields").cloned().unwrap_or(Json::Null),
        })
    }
}

#[derive(Debug, Default)]
struct Inner {
    records: Vec<TraceRecord>,
    next_span: u64,
}

/// An append-only, thread-safe journal of spans and events.
#[derive(Debug)]
pub struct TraceJournal {
    inner: Mutex<Inner>,
    clock: TraceClock,
    epoch: Instant,
}

impl TraceJournal {
    /// An empty journal using `clock`.
    pub fn new(clock: TraceClock) -> TraceJournal {
        TraceJournal {
            inner: Mutex::new(Inner::default()),
            clock,
            epoch: Instant::now(),
        }
    }

    /// The journal's clock mode.
    pub fn clock(&self) -> TraceClock {
        self.clock
    }

    fn now_us(&self) -> Option<u64> {
        match self.clock {
            TraceClock::Logical => None,
            TraceClock::Wall => {
                Some(u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX))
            }
        }
    }

    fn push(&self, phase: TracePhase, name: &str, span: u64, parent: u64, fields: Json) {
        let ts_us = self.now_us();
        let mut inner = crate::lock(&self.inner);
        let seq = inner.records.len() as u64;
        inner.records.push(TraceRecord {
            seq,
            phase,
            name: name.to_string(),
            span,
            parent,
            ts_us,
            fields,
        });
    }

    /// Open a span under `parent` (0 = root). The returned guard closes the
    /// span on drop; use [`TraceSpan::id`] as the parent of nested records.
    pub fn span(&self, name: &str, parent: u64) -> TraceSpan<'_> {
        let id = {
            let mut inner = crate::lock(&self.inner);
            inner.next_span += 1;
            inner.next_span
        };
        self.push(TracePhase::SpanBegin, name, id, parent, empty_obj());
        TraceSpan {
            journal: self,
            name: name.to_string(),
            id,
            parent,
        }
    }

    /// Record an instant event with a payload (`fields` should be a JSON
    /// object; anything else is wrapped under `{"value": ...}`).
    pub fn event(&self, name: &str, parent: u64, fields: Json) {
        let fields = match fields {
            obj @ Json::Obj(_) => obj,
            Json::Null => empty_obj(),
            other => Json::obj([("value", other)]),
        };
        self.push(TracePhase::Event, name, 0, parent, fields);
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        crate::lock(&self.inner).records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all records in append order.
    pub fn records(&self) -> Vec<TraceRecord> {
        crate::lock(&self.inner).records.clone()
    }

    /// The journal as JSONL: one compact JSON object per line, sorted keys,
    /// trailing newline. Byte-deterministic under [`TraceClock::Logical`].
    pub fn to_jsonl(&self) -> String {
        let inner = crate::lock(&self.inner);
        let mut out = String::new();
        for record in &inner.records {
            out.push_str(&record.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

/// RAII guard from [`TraceJournal::span`]; emits the matching `"E"` record
/// on drop.
#[derive(Debug)]
pub struct TraceSpan<'a> {
    journal: &'a TraceJournal,
    name: String,
    id: u64,
    parent: u64,
}

impl TraceSpan<'_> {
    /// This span's id — pass as `parent` to nest records under it.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        self.journal.push(
            TracePhase::SpanEnd,
            &self.name,
            self.id,
            self.parent,
            empty_obj(),
        );
    }
}

/// Parse a JSONL journal back into records. Blank lines are skipped; the
/// error names the offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("journal line {}: {e}", i + 1))?;
        out.push(
            TraceRecord::from_json(&value).map_err(|e| format!("journal line {}: {e}", i + 1))?,
        );
    }
    Ok(out)
}

/// Convert journal records to Chrome trace-event JSON
/// (`{"displayTimeUnit": "ms", "traceEvents": [...]}`).
///
/// Span begin/end map to `"B"`/`"E"` pairs, events to `"i"` instants with
/// scope `"t"`. `ts` is `ts_us` when present (wall clock), else the
/// sequence number — logical journals still render as an ordered timeline.
pub fn chrome_trace(records: &[TraceRecord]) -> Json {
    let events: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut ev = Json::Null;
            ev.set("args", r.fields.clone());
            ev.set("name", r.name.as_str());
            ev.set("ph", r.phase.as_str());
            ev.set("pid", 1u64);
            ev.set("tid", 1u64);
            ev.set("ts", r.ts_us.unwrap_or(r.seq));
            if r.phase == TracePhase::Event {
                ev.set("s", "t");
            }
            ev
        })
        .collect();
    let mut root = Json::Null;
    root.set("displayTimeUnit", "ms");
    root.set("traceEvents", Json::Arr(events));
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> TraceJournal {
        let journal = TraceJournal::new(TraceClock::Logical);
        let outer = journal.span("stage.repair", 0);
        let mut fields = Json::Null;
        fields.set("row", 1u64);
        fields.set("attr", "capital");
        journal.event("repair.cell", outer.id(), fields);
        drop(outer);
        journal
    }

    #[test]
    fn logical_journal_is_byte_deterministic() {
        let a = sample_journal().to_jsonl();
        let b = sample_journal().to_jsonl();
        assert_eq!(a, b);
        assert!(!a.contains("ts_us"), "{a}");
    }

    #[test]
    fn wall_clock_stamps_microseconds() {
        let journal = TraceJournal::new(TraceClock::Wall);
        journal.event("e", 0, empty_obj());
        let records = journal.records();
        assert!(records[0].ts_us.is_some());
        assert!(journal.to_jsonl().contains("ts_us"));
    }

    #[test]
    fn jsonl_round_trips() {
        let journal = sample_journal();
        let text = journal.to_jsonl();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, journal.records());
        // begin(seq 0) → event(seq 1) → end(seq 2), ids/parents intact.
        assert_eq!(parsed[0].phase, TracePhase::SpanBegin);
        assert_eq!(parsed[1].phase, TracePhase::Event);
        assert_eq!(parsed[1].parent, parsed[0].span);
        assert_eq!(parsed[2].phase, TracePhase::SpanEnd);
        assert_eq!(parsed[2].span, parsed[0].span);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("{\"seq\": 0}\n").is_err(), "missing ph");
    }

    #[test]
    fn spans_nest_and_count() {
        let journal = TraceJournal::new(TraceClock::Logical);
        {
            let outer = journal.span("outer", 0);
            let inner = journal.span("inner", outer.id());
            assert_ne!(outer.id(), inner.id());
        }
        let records = journal.records();
        assert_eq!(records.len(), 4);
        // inner closes before outer (drop order).
        assert_eq!(records[2].name, "inner");
        assert_eq!(records[3].name, "outer");
        assert_eq!(records[1].parent, records[0].span);
    }

    #[test]
    fn non_object_event_fields_are_wrapped() {
        let journal = TraceJournal::new(TraceClock::Logical);
        journal.event("e", 0, Json::from(7u64));
        let records = journal.records();
        assert_eq!(
            records[0].fields.get("value").and_then(Json::as_i64),
            Some(7)
        );
    }

    /// Golden test pinning the exact Chrome trace-event bytes for a small
    /// logical journal — the `fixctl trace export --chrome` contract.
    #[test]
    fn chrome_export_golden() {
        let journal = sample_journal();
        let chrome = chrome_trace(&journal.records());
        let expected = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
            "{\"args\":{},\"name\":\"stage.repair\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},",
            "{\"args\":{\"attr\":\"capital\",\"row\":1},\"name\":\"repair.cell\",",
            "\"ph\":\"i\",\"pid\":1,\"s\":\"t\",\"tid\":1,\"ts\":1},",
            "{\"args\":{},\"name\":\"stage.repair\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2}",
            "]}"
        );
        assert_eq!(chrome.to_string(), expected);
        // And it parses back as valid JSON with balanced B/E phases.
        let reparsed = json::parse(&chrome.to_string()).unwrap();
        let events = reparsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let begins = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
            .count();
        assert_eq!(begins, ends);
    }

    /// The daemon thread-pool contract: concurrent appends of nested
    /// spans and events from many threads must still serialize to a
    /// parseable JSONL journal with gap-free monotone logical clocks,
    /// unique span ids, and balanced begin/end pairs.
    #[test]
    fn concurrent_spans_produce_valid_jsonl_with_monotone_clocks() {
        let journal = TraceJournal::new(TraceClock::Logical);
        const WORKERS: usize = 8;
        const REQUESTS: usize = 25;
        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let journal = &journal;
                s.spawn(move || {
                    for r in 0..REQUESTS {
                        let req = journal.span("request", 0);
                        let mut fields = Json::Null;
                        fields.set("worker", w as u64);
                        fields.set("request", r as u64);
                        journal.event("request.meta", req.id(), fields);
                        {
                            let stage = journal.span("stage.repair", req.id());
                            journal.event("repair.done", stage.id(), Json::Null);
                        }
                    }
                });
            }
        });
        let text = journal.to_jsonl();
        let records = parse_jsonl(&text).expect("concurrent journal must parse");
        // 6 records per request: B(request) + meta + B(stage) + done + 2×E.
        assert_eq!(records.len(), WORKERS * REQUESTS * 6);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "logical clock is gap-free monotone");
            assert!(r.ts_us.is_none(), "logical journal carries no wall time");
        }
        // Span ids are unique per begin, every begin has exactly one end,
        // and the end never precedes its begin.
        let mut begin_at = std::collections::HashMap::new();
        let mut ends = std::collections::HashMap::new();
        for r in &records {
            match r.phase {
                TracePhase::SpanBegin => {
                    assert!(
                        begin_at.insert(r.span, r.seq).is_none(),
                        "span id {} begun twice",
                        r.span
                    );
                }
                TracePhase::SpanEnd => {
                    *ends.entry(r.span).or_insert(0u32) += 1;
                    assert!(begin_at[&r.span] < r.seq, "end precedes begin");
                }
                TracePhase::Event => {}
            }
        }
        assert_eq!(begin_at.len(), WORKERS * REQUESTS * 2);
        assert!(ends.values().all(|&n| n == 1), "every span ends once");
        assert_eq!(begin_at.len(), ends.len());
        // Nested stage spans point at a real enclosing request span.
        for r in records
            .iter()
            .filter(|r| r.phase == TracePhase::SpanBegin && r.name == "stage.repair")
        {
            assert!(begin_at.contains_key(&r.parent), "dangling parent");
        }
    }

    #[test]
    fn journal_is_thread_safe() {
        let journal = TraceJournal::new(TraceClock::Logical);
        std::thread::scope(|s| {
            for t in 0..4 {
                let journal = &journal;
                s.spawn(move || {
                    for i in 0..50 {
                        let mut fields = Json::Null;
                        fields.set("i", i as u64);
                        journal.event(&format!("worker.{t}"), 0, fields);
                    }
                });
            }
        });
        let records = journal.records();
        assert_eq!(records.len(), 200);
        // seq is gap-free regardless of interleaving.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }
}
