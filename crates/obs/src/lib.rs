//! # obs — observability for the fixing-rules repair stack
//!
//! A zero-dependency (std-only) measurement layer:
//!
//! * [`MetricsRegistry`] — named lock-free [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed [`Histogram`]s (p50/p95/p99), plus RAII [`SpanTimer`]s
//!   for scoped stage timing ([`metrics`]);
//! * [`RepairObserver`] — hook points called from the repair pipeline
//!   (per-rule applications, `lRepair` inverted-list probes, parallel
//!   worker accounting, consistency pair checks, provenance fixes), with
//!   a [`NoopObserver`] default that monomorphizes to nothing
//!   ([`observer`]);
//! * [`Json`] — a small self-contained JSON value for deterministic
//!   snapshot export and parsing ([`json`]);
//! * [`TraceJournal`] — an append-only structured event journal
//!   (`span_begin`/`span_end`/`event` records) with byte-deterministic
//!   JSONL output and a Chrome trace-event converter ([`trace`]);
//! * structured `key=value` stderr logging behind a global level
//!   ([`log`], [`info!`], [`debug!`]);
//! * [`AttributionObserver`] — per-rule attribution over labeled series
//!   (`repair.rule.applied{attr="city",rule="r3"}`), with a ranked
//!   [`AttributionProfile`] report ([`attribution`]);
//! * Prometheus text-format v0.0.4 exposition over any snapshot plus a
//!   matching validator parser ([`expose`]); `fixd` serves it live at
//!   `GET /metrics`;
//! * hand-rolled HTTP/1.1 plumbing — request parsing, response writing,
//!   a one-shot client — for the `fixd` repair daemon and its clients
//!   ([`http`]);
//! * [`HealthEvaluator`] — a rolling window of request outcomes judged
//!   against error-rate and p99-latency SLO thresholds, the readiness
//!   signal behind `fixd`'s `GET /readyz` ([`health`]);
//! * streaming sketches — mergeable, deterministic [`CountMinSketch`],
//!   [`DistinctCounter`], and [`Reservoir`] summaries ([`sketch`]) — and
//!   the [`QualityMonitor`] built on them: tumbling row windows scoring
//!   per-attribute repair rate, new-value ratio, and frequency drift,
//!   with [`AlertRule`] thresholds feeding `quality.alert{attr,signal}`
//!   counters and `fixd`'s quality gate ([`quality`]).
//!
//! The paper's evaluation (§7) is entirely about measured behavior —
//! repair counts and wall-clock scaling of `cRepair` vs `lRepair` — and
//! this crate is what makes those measurements visible outside of
//! one-off experiment code: `fixctl ... --metrics out.json` dumps a
//! [`MetricsRegistry::snapshot`], and the bench harness writes the same
//! shape per stage.
//!
//! # Example
//!
//! ```
//! use obs::{MetricsRegistry, MetricsObserver, RepairObserver};
//!
//! let registry = MetricsRegistry::new();
//! let observer = MetricsObserver::new(&registry);
//! {
//!     let _span = registry.span("stage.index_build");
//!     // ... build the index ...
//! }
//! observer.rule_applied(0, 2);
//! observer.tuples_done(1, 1, 1);
//! let snapshot = registry.snapshot(); // deterministic JSON
//! assert_eq!(
//!     snapshot.get("counters").unwrap().get("repair.rules_applied").unwrap().as_i64(),
//!     Some(1),
//! );
//! assert!(snapshot.get("histograms").unwrap().get("stage.index_build_ns").is_some());
//! ```

pub mod attribution;
pub mod expose;
pub mod health;
pub mod http;
pub mod json;
pub mod log;
pub mod metrics;
pub mod observer;
pub mod quality;
pub mod sketch;
pub mod trace;

pub use attribution::{AttributionObserver, AttributionProfile, ProfileRow, RuleLabel};
pub use expose::{parse_label_pairs, parse_prometheus, prometheus_text, PromSample};
pub use health::{HealthEvaluator, HealthReport, SloConfig};
pub use http::{http_get, http_post, http_request, http_request_with_headers, HttpResponse};
pub use json::Json;
pub use log::Level;
pub use metrics::{series_key, Counter, Gauge, Histogram, MetricsRegistry, SpanTimer};
pub use observer::{
    CellFix, Event, MetricsObserver, NoopObserver, RepairObserver, Tee, METRIC_NAMES,
};
pub use quality::{
    render_snapshot, AlertEvent, AlertRule, AttrSummary, QualityConfig, QualityMonitor, Signal,
    WindowSummary,
};
pub use sketch::{CountMinSketch, DistinctCounter, Reservoir, SlotBloom};
pub use trace::{TraceClock, TraceJournal, TracePhase, TraceRecord};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `mutex`, taking it over from a thread that panicked while holding
/// it. The shared state behind these locks (a journal, a ledger, a queue)
/// is whole between any two of its holder's statements, so one panicking
/// request must not make every later request that takes the lock panic
/// too.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
