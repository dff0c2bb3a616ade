//! # fixd — a long-running repair daemon over compiled fixing rules
//!
//! The paper's repair algorithms are batch procedures: load rules, load a
//! table, chase. A *dependable* deployment looks different — rules are
//! loaded once, requests arrive continuously, and the service must expose
//! how healthy it is. `fixd` packages the compiled repair stack as a
//! std-only HTTP/1.1 daemon (hand-rolled on [`std::net::TcpListener`] with
//! a fixed thread pool, no external dependencies — the same plumbing as
//! [`obs::http`]):
//!
//! * rules are parsed, linted, and compiled **once** into a
//!   [`RuleProgram`]; every request repairs against the same program,
//!   running the engine once per distinct tuple signature in its batch.
//!   No repair state outlives a request;
//! * every request gets a **trace id** (`X-Trace-Id` response header) and
//!   a span scope in a global [`TraceJournal`]; `GET /trace/{id}` replays
//!   the request's records as JSONL (or `?format=chrome` for
//!   `chrome://tracing`);
//! * per-endpoint labeled telemetry (`http.requests{endpoint=...,status=...}`
//!   counters, `http.latency_ns{endpoint=...}` histograms) is scrapeable at
//!   `GET /metrics` in Prometheus text format;
//! * a rolling-window [`HealthEvaluator`] judges recent request outcomes
//!   against error-rate and p99-latency SLOs; `GET /healthz` is pure
//!   liveness while `GET /readyz` is readiness — lint-clean rules,
//!   consistent and certified rule set, green SLOs — from boot on;
//! * repairs append to a [`ProvenanceLedger`] with daemon-global row ids
//!   (`row_base` in each response), so `GET /explain/{row}/{attr}` can
//!   justify any cell the daemon ever changed;
//! * every repaired batch also feeds a windowed
//!   [`QualityMonitor`]: per-attribute repair rate,
//!   new-value ratio, and sketch-based frequency drift over tumbling row
//!   windows, served at `GET /quality` and exported as
//!   `quality.drift{attr=...}` gauges; firing
//!   [`AlertRule`]s optionally gate `GET /readyz`
//!   (`quality_gate` in [`DaemonConfig`]);
//! * `POST /rules` hot-swaps the rule set behind a **certified promotion
//!   gate**: the candidate text is linted, certified by `fixcert`
//!   (termination + confluence), and semantically diffed against the
//!   serving set; only a green certificate atomically promotes a freshly
//!   compiled program bundle, which serves (and reports ready) from the
//!   next request on. A red candidate is rejected wholesale and the old
//!   program keeps serving, so a bad rule set can never reach the data
//!   path;
//! * `POST /shutdown` (or [`Daemon::shutdown`]) drains in-flight requests
//!   and flushes the trace journal to disk.
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /repair` | Repair a batch (CSV with header, or JSON rows); mutating |
//! | `POST /check` | Dry-run repair: per-row violation counts, nothing recorded |
//! | `POST /rules` | Hot-swap the rule set (lint + certify + diff gate) |
//! | `GET /explain/{row}/{attr}` | Provenance chain for a repaired cell, JSONL |
//! | `GET /trace/{id}` | One request's trace records (`?format=chrome` optional) |
//! | `GET /quality` | Repair-quality snapshot: current window, history, alerts |
//! | `GET /metrics` | Prometheus text v0.0.4 (`/metrics.json` for the snapshot) |
//! | `GET /healthz` | Liveness — always `200 ok` while the process serves |
//! | `GET /readyz` | Readiness — `200`/`503` with a JSON explanation |
//! | `POST /shutdown` | Graceful drain: `202`, then stop accepting |
//!
//! # Example
//!
//! ```
//! use fixd::{Daemon, DaemonConfig, RulesSource};
//! use obs::http::{http_get, http_post};
//!
//! let config = DaemonConfig {
//!     rules: RulesSource::Inline(
//!         r#"IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing""#.into(),
//!     ),
//!     ..DaemonConfig::default()
//! };
//! let daemon = Daemon::start(config).unwrap();
//! let url = format!("http://{}/repair", daemon.addr());
//! let body = "country,capital\nChina,Shanghai\n";
//! let reply = http_post(&url, "text/csv", body.as_bytes()).unwrap();
//! assert_eq!(reply.status, 200);
//! assert!(reply.body.contains("Beijing"));
//! daemon.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cli;

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use fixrules::io::{infer_schema, parse_rules_spanned};
use fixrules::provenance::{ProvenanceLedger, ProvenanceObserver};
use fixrules::repair::{
    repair_columns_grouped, CellUpdate, CompiledEngine, CompiledScratch, RuleProgram,
};
use fixrules::RuleSet;
use obs::http::{Request, Response};
use obs::quality::value_key;
use obs::trace::TraceSpan;
use obs::{
    prometheus_text, Json, MetricsObserver, MetricsRegistry, RepairObserver, SloConfig, TraceClock,
    TraceJournal, TracePhase, TraceRecord,
};
use obs::{AlertRule, HealthEvaluator, QualityConfig, QualityMonitor, Tee};
use relation::{csv_io, ColumnTable, RelationError, Schema, Symbol, SymbolTable};

/// How many recent trace ids stay resolvable via `GET /trace/{id}`: the
/// trace index is a ring of `(trace_id, root span id)`, so old requests
/// age out once this many newer ones have been served.
const TRACE_INDEX_CAP: usize = 1024;

/// Default per-request cap on `row.repaired` journal events
/// ([`DaemonConfig::trace_sample`]; 0 disables row events entirely).
/// Aggregate totals always land in the request's `request.end` record.
const ROW_EVENT_SAMPLE: usize = 16;

/// Default rows per repair-quality window ([`DaemonConfig::quality_window`];
/// 0 disables quality monitoring entirely).
const QUALITY_WINDOW: usize = 256;

/// The compiled engine that serves every repair: the cRepair chase order.
/// The lRepair order writes byte-identical output (the engine-equivalence
/// proptests pin that), so there is nothing to choose between.
const ENGINE: CompiledEngine = CompiledEngine::Chase;

/// Where the daemon's rule text comes from.
#[derive(Debug, Clone)]
pub enum RulesSource {
    /// Read the rule file at this path at startup.
    Path(String),
    /// Use this text directly (tests, benches, embedding).
    Inline(String),
}

/// Where the daemon's schema comes from.
#[derive(Debug, Clone)]
pub enum SchemaSource {
    /// Infer attribute names from the rule text, in order of first
    /// appearance ([`fixrules::io::infer_schema`]). Requests may then only
    /// carry rule-mentioned attributes.
    Infer,
    /// Explicit attribute names, e.g. the full relation header. Requests
    /// must cover every one of them.
    Names(Vec<String>),
}

/// Everything [`Daemon::start`] needs; `Default` is a loopback daemon on
/// an ephemeral port with default SLOs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Rule text source. The default (empty inline text) is only useful
    /// for liveness tests — real configs set a path or inline rules.
    pub rules: RulesSource,
    /// Schema source (default: infer from the rules).
    pub schema: SchemaSource,
    /// Bind address (default `127.0.0.1:0` — ephemeral port).
    pub addr: String,
    /// Worker threads handling connections (default 4, clamped ≥ 1).
    pub threads: usize,
    /// SLO thresholds for `GET /readyz`.
    pub slo: SloConfig,
    /// Trace clock for the journal (default logical — byte-deterministic).
    pub trace_clock: TraceClock,
    /// If set, the journal is flushed here (JSONL) on graceful shutdown.
    pub journal_path: Option<String>,
    /// Per-request cap on sampled `row.repaired` journal events
    /// (default 16; 0 = no row events). Recorded in the journal's
    /// `trace.meta` record so a trace reader knows the sampling regime.
    pub trace_sample: usize,
    /// Rows per repair-quality window (default 256; 0 disables the
    /// quality monitor and `GET /quality` reports `enabled: false`).
    pub quality_window: usize,
    /// Alert thresholds evaluated whenever a quality window seals.
    pub quality_alerts: Vec<AlertRule>,
    /// Fold firing quality alerts into `GET /readyz` (opt-in: a drifting
    /// upstream then flips readiness until a calm window seals).
    pub quality_gate: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            rules: RulesSource::Inline(String::new()),
            schema: SchemaSource::Infer,
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            slo: SloConfig::default(),
            trace_clock: TraceClock::Logical,
            journal_path: None,
            trace_sample: ROW_EVENT_SAMPLE,
            quality_window: QUALITY_WINDOW,
            quality_alerts: Vec::new(),
            quality_gate: false,
        }
    }
}

/// Everything that must swap *atomically* when `POST /rules` promotes a
/// new rule set: the rules, their constants, their compiled program, and
/// the analysis verdicts `GET /readyz` reports. Handlers take one `Arc`
/// snapshot at request start, so an in-flight batch keeps a consistent
/// rules/program view across a concurrent swap.
#[derive(Debug)]
struct ProgramBundle {
    rules: RuleSet,
    /// The constants of this rule set and of every generation before it,
    /// numbered at parse and never written afterwards. A tuple meets a
    /// rule only through them, so every other request value is ⊥ for the
    /// repair; and since each generation's table extends the last one's,
    /// every symbol the ledger holds resolves in the newest table.
    symbols: SymbolTable,
    program: RuleProgram,
    lint_errors: usize,
    consistent: bool,
    certified: bool,
    cert_errors: usize,
    /// Monotonic swap counter: 0 for the boot set, +1 per promotion.
    generation: u64,
}

/// Shared daemon state: the swappable [`ProgramBundle`] plus the
/// concurrent journals every worker thread touches.
#[derive(Debug)]
struct DaemonState {
    schema: Schema,
    bundle: RwLock<Arc<ProgramBundle>>,
    registry: MetricsRegistry,
    health: HealthEvaluator,
    journal: TraceJournal,
    ledger: ProvenanceLedger,
    trace_index: Mutex<VecDeque<(String, u64)>>,
    /// Held by `POST /rules` from its first step to its promotion, so
    /// swaps run one at a time; repairs never take it.
    swap: Mutex<()>,
    trace_seq: AtomicU64,
    rows_served: AtomicUsize,
    trace_sample: usize,
    quality: Option<QualityMonitor>,
    quality_gate: bool,
    stop: AtomicBool,
    journal_path: Option<String>,
}

impl DaemonState {
    /// The currently serving bundle (one atomic refcount bump).
    fn bundle(&self) -> Arc<ProgramBundle> {
        Arc::clone(&self.bundle.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Lint, certify, and compile parsed rules into a promotable bundle that
/// owns `symbols`, the table they were parsed into. Never rejects analysis
/// findings — the verdicts ride along for the caller (boot surfaces them
/// via `/readyz`; the hot-swap gate refuses to promote on them).
fn build_bundle(
    parsed: fixrules::io::SpannedRuleSet,
    symbols: SymbolTable,
    generation: u64,
) -> (ProgramBundle, fixlint::Certificate, Vec<fixrules::io::Span>) {
    let lint = fixlint::lint(
        &parsed.rules,
        &parsed.spans,
        &symbols,
        &fixlint::LintOptions::default(),
    );
    let cert = fixlint::certify(
        &parsed.rules,
        &parsed.spans,
        &symbols,
        &fixlint::CertOptions::default(),
    );
    let program = RuleProgram::compile(&parsed.rules);
    let bundle = ProgramBundle {
        consistent: parsed.rules.check_consistency().is_consistent(),
        program,
        lint_errors: lint.errors(),
        certified: cert.is_certified(),
        cert_errors: cert.report.errors(),
        generation,
        rules: parsed.rules,
        symbols,
    };
    (bundle, cert, parsed.spans)
}

/// A handler-level failure: an HTTP status plus a message the client sees
/// as `{"error": ...}`.
struct SrvError {
    status: u16,
    message: String,
}

impl SrvError {
    fn new(status: u16, message: impl Into<String>) -> SrvError {
        SrvError {
            status,
            message: message.into(),
        }
    }
}

type SrvResult = Result<Response, SrvError>;

fn bad_request(message: impl Into<String>) -> SrvError {
    SrvError::new(400, message)
}

/// A running repair daemon. Dropping the handle does **not** stop the
/// daemon — call [`Daemon::shutdown`] (drain + flush) or [`Daemon::wait`]
/// (block until `POST /shutdown` arrives).
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    state: Arc<DaemonState>,
    accept: JoinHandle<()>,
}

impl Daemon {
    /// Load, lint, and compile the configured rules, bind the listener,
    /// and start serving. Fails on unreadable/unparseable rules or an
    /// unbindable address.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        Daemon::start_with_registry(config, MetricsRegistry::new())
    }

    /// [`Daemon::start`] against a caller-owned [`MetricsRegistry`], so an
    /// embedding harness (the `bench serve` driver) can snapshot daemon
    /// telemetry itself.
    pub fn start_with_registry(
        config: DaemonConfig,
        registry: MetricsRegistry,
    ) -> io::Result<Daemon> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let text = match &config.rules {
            RulesSource::Path(path) => std::fs::read_to_string(path)?,
            RulesSource::Inline(text) => text.clone(),
        };
        let schema = match &config.schema {
            SchemaSource::Infer => infer_schema(&text, "R").map_err(|e| invalid(e.message()))?,
            SchemaSource::Names(names) => Schema::new("R", names.iter().map(String::as_str))
                .map_err(|e| invalid(e.to_string()))?,
        };
        let mut symbols = SymbolTable::new();
        // Boot runs the same build as a hot-swap (lint + certify + compile),
        // but tolerates red verdicts — `GET /readyz` reports them as 503
        // instead, so a probe can distinguish "bad rules" from "down".
        let parsed =
            parse_rules_spanned(&text, &schema, &mut symbols).map_err(|e| invalid(e.message()))?;
        let (bundle, cert, _spans) = build_bundle(parsed, symbols, 0);
        cert.observe(&MetricsObserver::new(&registry));
        publish_symbols(&registry, &bundle);

        let quality = (config.quality_window > 0).then(|| {
            let qcfg = QualityConfig {
                window_rows: config.quality_window,
                alerts: config.quality_alerts.clone(),
                ..QualityConfig::default()
            };
            let names = schema.attr_names().map(str::to_string).collect();
            QualityMonitor::new(qcfg, names).with_registry(&registry)
        });

        let state = Arc::new(DaemonState {
            schema,
            bundle: RwLock::new(Arc::new(bundle)),
            registry: registry.clone(),
            health: HealthEvaluator::new(config.slo),
            journal: TraceJournal::new(config.trace_clock),
            ledger: ProvenanceLedger::new(),
            trace_index: Mutex::default(),
            swap: Mutex::default(),
            trace_seq: AtomicU64::new(0),
            rows_served: AtomicUsize::new(0),
            trace_sample: config.trace_sample,
            quality,
            quality_gate: config.quality_gate,
            stop: AtomicBool::new(false),
            journal_path: config.journal_path.clone(),
        });
        // The journal leads with the configuration a reader needs to
        // interpret it — in particular the row-event sampling regime.
        state.journal.event(
            "trace.meta",
            0,
            Json::obj([
                ("quality_window", Json::from(config.quality_window)),
                ("row_event_sample", Json::from(config.trace_sample)),
                ("source", Json::from("fixd")),
            ]),
        );

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let threads = config.threads.max(1);
        let accept = {
            let state = Arc::clone(&state);
            thread::spawn(move || accept_loop(listener, state, threads))
        };
        obs::info!("fixd.listening", addr = addr, threads = threads);
        Ok(Daemon {
            addr,
            state,
            accept,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` configs).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry collecting per-endpoint telemetry.
    pub fn registry(&self) -> MetricsRegistry {
        self.state.registry.clone()
    }

    /// The generation of the serving rule set: 0 at boot, +1 per
    /// promoted `POST /rules` hot-swap.
    pub fn rules_generation(&self) -> u64 {
        self.state.bundle().generation
    }

    /// The current rolling SLO verdict (what `GET /readyz` consults).
    pub fn health_report(&self) -> obs::HealthReport {
        self.state.health.report()
    }

    /// The journal so far, serialized as JSONL.
    pub fn journal_jsonl(&self) -> String {
        self.state.journal.to_jsonl()
    }

    /// Request a graceful stop and block until in-flight requests drain
    /// and the journal is flushed.
    pub fn shutdown(self) {
        self.state.stop.store(true, Ordering::SeqCst);
        let _ = self.accept.join();
    }

    /// Block until the daemon stops on its own (`POST /shutdown`).
    pub fn wait(self) {
        let _ = self.accept.join();
    }
}

/// Set the `fixd.symbols` gauge to the size of `bundle`'s constants table:
/// it moves only when `POST /rules` promotes new constants, never with
/// traffic.
fn publish_symbols(registry: &MetricsRegistry, bundle: &ProgramBundle) {
    registry
        .gauge("fixd.symbols")
        .set(bundle.symbols.len() as i64);
}

/// Repair `batch` in place with the grouped core against `bundle`'s
/// program, numbering rows from `row_base` for `observer`. Returns the
/// updates in application order, grouped by row. `/repair` and `/check`
/// both repair through here, with different observers.
fn repair_batch<O: RepairObserver>(
    bundle: &ProgramBundle,
    scratch: &mut CompiledScratch,
    batch: &mut Batch,
    row_base: usize,
    observer: &O,
) -> Vec<CellUpdate> {
    repair_columns_grouped(
        &bundle.rules,
        &bundle.program,
        ENGINE,
        None,
        scratch,
        &mut batch.repair.columns_mut(),
        row_base,
        observer,
    )
    .0
}

/// Accept loop + fixed worker pool. Runs until the stop flag is set, then
/// drains: the channel sender drops, each worker finishes its in-flight
/// connection and exits, and the journal is flushed.
fn accept_loop(listener: TcpListener, state: Arc<DaemonState>, threads: usize) {
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..threads)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            thread::spawn(move || {
                // One scratch per worker, reused across every request it
                // serves — zero steady-state allocation in the hot path.
                // Survives hot-swaps: `begin_tuple` resizes the scratch
                // whenever the rule count changes.
                let mut scratch = CompiledScratch::new(state.bundle().rules.len());
                loop {
                    let stream = match obs::lock(&rx).recv() {
                        Ok(stream) => stream,
                        Err(_) => break, // sender dropped: drain complete
                    };
                    handle_connection(&state, &mut scratch, stream);
                }
            })
        })
        .collect();

    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // A send can only fail after drain starts; drop the
                // connection in that case.
                let _ = tx.send(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    drop(tx);
    for worker in workers {
        let _ = worker.join();
    }
    if let Some(path) = &state.journal_path {
        if let Err(e) = std::fs::write(path, state.journal.to_jsonl()) {
            obs::info!("fixd.journal_flush_failed", path = path, error = e);
        }
    }
    obs::info!(
        "fixd.stopped",
        rows_served = state.rows_served.load(Ordering::SeqCst)
    );
}

/// Which label the request contributes to `http.requests{endpoint=...}`.
fn endpoint_label(request: &Request) -> &'static str {
    match request.path.as_str() {
        "/repair" => "repair",
        "/check" => "check",
        "/rules" => "rules",
        "/metrics" | "/metrics.json" => "metrics",
        "/quality" => "quality",
        "/healthz" => "healthz",
        "/readyz" => "readyz",
        "/shutdown" => "shutdown",
        p if p.starts_with("/explain/") => "explain",
        p if p.starts_with("/trace/") => "trace",
        _ => "other",
    }
}

/// Endpoints whose outcomes feed the SLO window. Scrapes and probes are
/// excluded so a tight scrape interval can't dilute (or trip) the SLO.
fn counts_for_slo(endpoint: &str) -> bool {
    matches!(endpoint, "repair" | "check" | "explain" | "trace")
}

fn handle_connection(state: &DaemonState, scratch: &mut CompiledScratch, mut stream: TcpStream) {
    let started = Instant::now();
    let request = match Request::read_from(&mut stream) {
        Ok(request) => request,
        Err(e) => {
            // A client too slow to send its request within the deadline
            // gets 408; anything else it sent wrong, 400.
            let status = if e.kind() == std::io::ErrorKind::TimedOut {
                408
            } else {
                400
            };
            let response = Response::json(status, format!("{{\"error\":{:?}}}\n", e.to_string()));
            state
                .registry
                .counter_with(
                    "http.requests",
                    &[("endpoint", "other"), ("status", &status.to_string())],
                )
                .inc();
            let _ = response.write_to(&mut stream);
            return;
        }
    };
    let endpoint = endpoint_label(&request);
    let error = |status: u16, message: String| {
        Response::json(
            status,
            format!("{}\n", Json::obj([("error", Json::from(message))])),
        )
    };
    // A handler that panics answers 500 and leaves its worker serving:
    // the locks it may have held tolerate the poisoning (`obs::lock`), and
    // the scratch it may have left half-written is replaced.
    let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        route(state, scratch, &request, endpoint)
    }));
    let response = match routed {
        Ok(Ok(response)) => response,
        Ok(Err(e)) => error(e.status, e.message),
        Err(_) => {
            state.registry.counter("fixd.panics").inc();
            *scratch = CompiledScratch::new(state.bundle().rules.len());
            error(
                500,
                format!("internal error: the {endpoint} handler panicked"),
            )
        }
    };
    let latency_ns = started.elapsed().as_nanos() as u64;
    state
        .registry
        .counter_with(
            "http.requests",
            &[
                ("endpoint", endpoint),
                ("status", &response.status.to_string()),
            ],
        )
        .inc();
    state
        .registry
        .histogram_with("http.latency_ns", &[("endpoint", endpoint)])
        .record(latency_ns);
    if counts_for_slo(endpoint) {
        state.health.record(response.status < 500, latency_ns);
    }
    let _ = response.write_to(&mut stream);
}

/// A request path whose handler panics while it holds the trace index's
/// lock, set by [`inject_panic_at`].
static PANIC_AT: OnceLock<String> = OnceLock::new();

/// Make every request for `path` panic in its handler while it holds a
/// lock that other requests take, for tests of panic isolation. The path
/// can be set once per process; a later call changes nothing.
#[doc(hidden)]
pub fn inject_panic_at(path: &str) {
    let _ = PANIC_AT.set(path.to_string());
}

fn route(
    state: &DaemonState,
    scratch: &mut CompiledScratch,
    request: &Request,
    endpoint: &str,
) -> SrvResult {
    if PANIC_AT.get() == Some(&request.path) {
        let _index = obs::lock(&state.trace_index);
        panic!("injected panic at {}", request.path);
    }
    match (request.method.as_str(), endpoint) {
        ("POST", "repair") => handle_repair(state, scratch, request),
        ("POST", "check") => handle_check(state, scratch, request),
        ("POST", "rules") => handle_rules(state, request),
        ("GET", "explain") => handle_explain(state, request),
        ("GET", "trace") => handle_trace(state, request),
        ("GET", "metrics") => Ok(handle_metrics(state, request)),
        ("GET", "quality") => Ok(handle_quality(state)),
        ("GET", "healthz") => Ok(Response::text(200, "ok\n")),
        ("GET", "readyz") => Ok(handle_readyz(state)),
        ("POST", "shutdown") => {
            state.stop.store(true, Ordering::SeqCst);
            Ok(Response::text(202, "draining\n"))
        }
        (_, "other") => Err(SrvError::new(404, format!("no route {}", request.path))),
        (method, _) => Err(SrvError::new(
            405,
            format!("{method} not allowed on {}", request.path),
        )),
    }
}

/// One request's rows over the daemon schema, in two column buffers.
/// `sent` holds each cell as the request sent it, an id into the
/// request-local dictionary `local`; `repair`, which the repair reads and
/// writes, holds each cell's constant in the serving bundle's table, or ⊥
/// for a value Σ never mentions. A fix writes a constant over a constant,
/// so a cell still ⊥ after the repair renders from `sent`.
struct Batch {
    local: SymbolTable,
    sent: ColumnTable,
    repair: ColumnTable,
}

impl Batch {
    fn len(&self) -> usize {
        self.sent.len()
    }
}

/// The request body as a batch: UTF-8 text (a body that does not decode
/// is rejected, never rewritten), read as JSON when the content type says
/// so (or, without one, when it starts like JSON) and as CSV otherwise.
fn request_batch(
    state: &DaemonState,
    bundle: &ProgramBundle,
    request: &Request,
) -> Result<Batch, SrvError> {
    let body = request
        .body_text()
        .map_err(|e| bad_request(format!("request body is not UTF-8: {e}")))?;
    if body.trim().is_empty() {
        return Err(bad_request("empty request body"));
    }
    let json = request
        .header("content-type")
        .map(|ct| ct.contains("json"))
        .unwrap_or_else(|| matches!(body.trim_start().as_bytes().first(), Some(b'{' | b'[')));
    intake(state, bundle, body, json)
}

/// Read a batch into one column per daemon-schema attribute. Cells are
/// interned into a request-local dictionary as they are parsed and written
/// straight into the columns; then each distinct value is looked up once
/// in `bundle`'s constants, which no request writes, so batches share no
/// lock and leave nothing behind.
fn intake(
    state: &DaemonState,
    bundle: &ProgramBundle,
    body: &str,
    json: bool,
) -> Result<Batch, SrvError> {
    let mut local = SymbolTable::new();
    let mut sent = ColumnTable::new(state.schema.clone());
    if json {
        read_json_rows(state, body, &mut local, &mut sent)?;
    } else {
        read_csv_rows(state, body.as_bytes(), &mut local, &mut sent)?;
    }
    let constant: Vec<Symbol> = local
        .iter()
        .map(|(_, value)| bundle.symbols.get(value).unwrap_or(Symbol::BOTTOM))
        .collect();
    let mut repair = sent.clone();
    for column in repair.columns_mut() {
        for cell in column.iter_mut() {
            *cell = constant[cell.index()];
        }
    }
    Ok(Batch {
        local,
        sent,
        repair,
    })
}

/// CSV with a header row. Columns may come in any order; every daemon
/// schema attribute must be present and unknown columns are rejected —
/// silently dropping a column the rules constrain would repair against
/// evidence the client never sent.
fn read_csv_rows(
    state: &DaemonState,
    body: &[u8],
    local: &mut SymbolTable,
    batch: &mut ColumnTable,
) -> Result<(), SrvError> {
    let csv_error = |e: csv::Error| bad_request(format!("csv: {}", RelationError::from(e)));
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .flexible(false)
        .from_reader(body);
    let header = Schema::new("request", rdr.headers().map_err(csv_error)?.iter())
        .map_err(|e| bad_request(format!("csv: {e}")))?;
    for name in header.attr_names() {
        if state.schema.attr(name).is_none() {
            return Err(bad_request(format!("unknown column {name:?}")));
        }
    }
    // Schema attribute `a` is field `field[a]` of every record.
    let mut field = Vec::with_capacity(state.schema.arity());
    for name in state.schema.attr_names() {
        let k = header
            .attr(name)
            .ok_or_else(|| bad_request(format!("missing column {name:?}")))?;
        field.push(k.index());
    }
    // As in `csv_io::read_csv`: a cell equal to the cell above reuses its
    // symbol without a hash probe.
    let mut row = vec![Symbol(0); field.len()];
    let mut record = csv::StringRecord::new();
    let mut above = csv::StringRecord::new();
    while rdr.read_record(&mut record).map_err(csv_error)? {
        for (cell, &k) in row.iter_mut().zip(&field) {
            let value = record.get(k).unwrap_or_default();
            if above.get(k) != Some(value) {
                *cell = local.intern(value);
            }
        }
        batch.push_row(&row).expect("a row per schema attribute");
        std::mem::swap(&mut record, &mut above);
    }
    Ok(())
}

/// JSON rows: either a bare array or `{"rows": [...]}`, each row an
/// object with exactly the daemon schema's attributes as string values.
fn read_json_rows(
    state: &DaemonState,
    body: &str,
    local: &mut SymbolTable,
    batch: &mut ColumnTable,
) -> Result<(), SrvError> {
    let value = obs::json::parse(body).map_err(|e| bad_request(format!("json: {e}")))?;
    let rows_value = value.get("rows").unwrap_or(&value);
    let items = rows_value.as_arr().ok_or_else(|| {
        bad_request("expected a JSON array of row objects (or {\"rows\": [...]})")
    })?;
    let mut row = vec![Symbol(0); state.schema.arity()];
    for (i, item) in items.iter().enumerate() {
        let obj = item
            .as_obj()
            .ok_or_else(|| bad_request(format!("row {i}: expected an object")))?;
        for key in obj.keys() {
            if state.schema.attr(key).is_none() {
                return Err(bad_request(format!("row {i}: unknown attribute {key:?}")));
            }
        }
        for (cell, name) in row.iter_mut().zip(state.schema.attr_names()) {
            let value = obj
                .get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| bad_request(format!("row {i}: missing attribute {name:?}")))?;
            *cell = local.intern(value);
        }
        batch.push_row(&row).expect("a row per schema attribute");
    }
    Ok(())
}

/// `t` plus exactly eight lowercase hex digits — the shape every
/// daemon-generated id has, and the only shape accepted from callers.
fn valid_trace_id(id: &str) -> bool {
    let bytes = id.as_bytes();
    bytes.len() == 9
        && bytes[0] == b't'
        && bytes[1..]
            .iter()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(b))
}

/// Open a request's root span, give the request its trace id, and
/// journal its `request.begin` record (with the body size, where the
/// endpoint reports one).
///
/// A caller may supply its own id in an `X-Trace-Id` request header to
/// correlate its logs with the daemon's journal end-to-end; it is honored
/// iff it has the canonical `t%08x` shape (anything else falls back to a
/// generated id — a malformed or hostile header must not pollute the
/// index). `GET /trace/{id}` resolves the newest request under an id, so
/// a caller reusing one id simply shadows its older requests.
fn begin_request<'s>(
    state: &'s DaemonState,
    request: &Request,
    endpoint: &str,
    bytes: Option<usize>,
) -> (TraceSpan<'s>, String) {
    let span = state.journal.span("request", 0);
    let trace_id = match request.header("x-trace-id").filter(|id| valid_trace_id(id)) {
        Some(id) => id.to_string(),
        None => format!("t{:08x}", state.trace_seq.fetch_add(1, Ordering::SeqCst)),
    };
    let mut index = obs::lock(&state.trace_index);
    if index.len() == TRACE_INDEX_CAP {
        index.pop_front();
    }
    index.push_back((trace_id.clone(), span.id()));
    drop(index);
    let mut fields = Json::obj([
        ("endpoint", Json::from(endpoint)),
        ("trace_id", Json::from(trace_id.as_str())),
    ]);
    if let Some(bytes) = bytes {
        fields.set("bytes", bytes);
    }
    state.journal.event("request.begin", span.id(), fields);
    (span, trace_id)
}

/// The `?format=` a request asks for: one of `known`, whose first entry
/// is the default when the query names none. Any other value is a `400`.
fn response_format<'a>(request: &Request, known: &[&'a str]) -> Result<&'a str, SrvError> {
    let format = request.query_param("format").unwrap_or(known[0]);
    known.iter().copied().find(|&k| k == format).ok_or_else(|| {
        let expected = known.join("|");
        bad_request(format!("unknown format {format:?} (expected {expected})"))
    })
}

fn handle_repair(
    state: &DaemonState,
    scratch: &mut CompiledScratch,
    request: &Request,
) -> SrvResult {
    let csv = response_format(request, &["json", "csv"])? == "csv";
    let (span, trace_id) = begin_request(state, request, "repair", Some(request.body.len()));
    // One bundle snapshot for the whole batch, from intake to render: a
    // concurrent hot-swap must never mix old-rules plans with new-rules
    // attribution mid-request.
    let bundle = state.bundle();
    let mut batch = request_batch(state, &bundle, request)?;
    let row_base = state.rows_served.fetch_add(batch.len(), Ordering::SeqCst);
    let metrics = MetricsObserver::new(&state.registry);
    let provenance = ProvenanceObserver::new(&bundle.rules, &state.ledger);
    let observer = Tee(&metrics, &provenance);
    let repair_started = Instant::now();
    let (updates, repaired_rows) = {
        let repair_span = state.journal.span("repair", span.id());
        let updates = repair_batch(&bundle, scratch, &mut batch, row_base, &observer);
        let repaired_rows = replay_rows(state, &batch, &updates, row_base, repair_span.id());
        (updates, repaired_rows)
    };
    // Stage-level latency: end-to-end `http.latency_ns` is dominated by
    // transport and (de)serialization.
    // perfbench's `server_metrics` parses this exact key, label included.
    state
        .registry
        .histogram_with("serve.repair_stage_ns", &[("cache", "on")])
        .record(repair_started.elapsed().as_nanos() as u64);
    state.journal.event(
        "request.end",
        span.id(),
        Json::obj([
            ("repaired_rows", Json::from(repaired_rows)),
            (
                "rows_sampled",
                Json::from(repaired_rows.min(state.trace_sample)),
            ),
            ("rows", Json::from(batch.len())),
            ("updates", Json::from(updates.len())),
        ]),
    );
    let (symbols, local) = (&bundle.symbols, &batch.local);
    let (repaired, sent) = (batch.repair.columns(), batch.sent.columns());
    let row_values = |i: usize| {
        repaired.iter().zip(&sent).map(move |(r, s)| match r[i] {
            Symbol::BOTTOM => local.resolve(s[i]),
            constant => symbols.resolve(constant),
        })
    };
    let response = if csv {
        // Quoted exactly as `fixctl repair` writes its output file.
        let mut out = Vec::new();
        csv_io::push_record(&mut out, state.schema.attr_names());
        for i in 0..batch.len() {
            csv_io::push_record(&mut out, row_values(i));
        }
        Response::new(200, "text/csv; charset=utf-8", out)
    } else {
        let rows_json: Vec<Json> = (0..batch.len())
            .map(|i| Json::Arr(row_values(i).map(Json::from).collect()))
            .collect();
        let updates_json: Vec<Json> = updates
            .iter()
            .map(|update| {
                Json::obj([
                    ("attr", Json::from(state.schema.attr_name(update.attr))),
                    ("new", Json::from(symbols.resolve(update.new))),
                    ("old", Json::from(symbols.resolve(update.old))),
                    ("round", Json::from(u64::from(update.round))),
                    ("row", Json::from(update.row)),
                    ("rule", Json::from(update.rule.index())),
                ])
            })
            .collect();
        let body = Json::obj([
            (
                "columns",
                Json::Arr(state.schema.attr_names().map(Json::from).collect()),
            ),
            ("repaired_rows", Json::from(repaired_rows)),
            ("row_base", Json::from(row_base)),
            ("rows", Json::Arr(rows_json)),
            ("trace_id", Json::from(trace_id.as_str())),
            ("updates", Json::Arr(updates_json)),
        ]);
        Response::json(200, format!("{body}\n"))
    };
    Ok(response.with_header("X-Trace-Id", &trace_id))
}

/// Walk a repaired batch row by row: feed the quality monitor the
/// [`value_key`]s of each row's *incoming* values and then that row's
/// fixes (it attributes repairs to the window that observed the row), and
/// journal a sampled `row.repaired` event under `parent` per repaired row.
/// Returns the number of repaired rows.
fn replay_rows(
    state: &DaemonState,
    batch: &Batch,
    updates: &[CellUpdate],
    row_base: usize,
    parent: u64,
) -> usize {
    let columns = batch.sent.columns();
    let keys: Vec<u32> = match &state.quality {
        Some(_) => batch.local.iter().map(|(_, v)| value_key(v)).collect(),
        None => Vec::new(),
    };
    let mut incoming: Vec<u32> = Vec::with_capacity(columns.len());
    let mut repaired_rows = 0usize;
    let mut cursor = 0usize;
    for i in 0..batch.len() {
        let start = cursor;
        while cursor < updates.len() && updates[cursor].row == row_base + i {
            cursor += 1;
        }
        let fixes = &updates[start..cursor];
        if let Some(quality) = &state.quality {
            incoming.clear();
            incoming.extend(columns.iter().map(|column| keys[column[i].index()]));
            quality.row_observed(&incoming);
            for (ordinal, fix) in fixes.iter().enumerate() {
                quality.cell_repaired(fix.as_fix(ordinal));
            }
        }
        if fixes.is_empty() {
            continue;
        }
        repaired_rows += 1;
        // Row-level detail is sampled: a large dirty batch would otherwise
        // append thousands of journal records per request (one global
        // mutex hit each) and grow the in-memory journal without bound
        // under sustained traffic. The request.end record always carries
        // the exact totals.
        if repaired_rows <= state.trace_sample {
            state.journal.event(
                "row.repaired",
                parent,
                Json::obj([
                    ("row", Json::from(row_base + i)),
                    ("updates", Json::from(fixes.len())),
                ]),
            );
        }
    }
    repaired_rows
}

/// Dry-run repair: same parsing and the same repair as `/repair`, but
/// nothing is recorded — no ledger rows, no global row ids, no quality
/// observations.
fn handle_check(
    state: &DaemonState,
    scratch: &mut CompiledScratch,
    request: &Request,
) -> SrvResult {
    let (span, trace_id) = begin_request(state, request, "check", None);
    let bundle = state.bundle();
    let mut batch = request_batch(state, &bundle, request)?;
    let updates = repair_batch(&bundle, scratch, &mut batch, 0, &obs::NoopObserver);
    let mut counts = vec![0usize; batch.len()];
    for update in &updates {
        counts[update.row] += 1;
    }
    let dirty_rows = counts.iter().filter(|&&n| n > 0).count();
    let per_row: Vec<Json> = counts.into_iter().map(Json::from).collect();
    state.journal.event(
        "request.end",
        span.id(),
        Json::obj([
            ("dirty_rows", Json::from(dirty_rows)),
            ("rows", Json::from(batch.len())),
        ]),
    );
    let body = Json::obj([
        ("clean", Json::from(dirty_rows == 0)),
        ("dirty_rows", Json::from(dirty_rows)),
        ("per_row", Json::Arr(per_row)),
        ("rows", Json::from(batch.len())),
        ("total_updates", Json::from(updates.len())),
        ("trace_id", Json::from(trace_id.as_str())),
    ]);
    Ok(Response::json(200, format!("{body}\n")).with_header("X-Trace-Id", &trace_id))
}

/// `POST /rules` — certified hot-swap of the serving rule set.
///
/// The body is rule text against the daemon's (fixed) schema. It is
/// parsed, linted, certified by `fixcert`, and semantically diffed
/// against the serving set. Promotion is all-or-nothing:
///
/// * parse error → `400`, lint errors or a red certificate → `422`; in
///   every rejection the old bundle keeps serving untouched and the
///   response says why (`promoted: false`, the findings, the diff);
/// * a green certificate atomically swaps in a freshly compiled
///   [`ProgramBundle`]; every later request repairs against it, and
///   `GET /readyz` reports it at once.
fn handle_rules(state: &DaemonState, request: &Request) -> SrvResult {
    // Swaps run one at a time, in the order they take this lock (which is
    // also the order of their trace ids), so each one diffs against and
    // replaces the set the previous one promoted.
    let _swap = obs::lock(&state.swap);
    let (span, trace_id) = begin_request(state, request, "rules", Some(request.body.len()));
    let text = request
        .body_text()
        .map_err(|e| bad_request(format!("rule text is not UTF-8: {e}")))?;
    if text.trim().is_empty() {
        return Err(bad_request("empty rule text"));
    }
    // The candidate is parsed into a copy of the serving table, so it
    // keeps every constant of every earlier generation under its id, and
    // the ledger's symbols resolve in it. Batches never wait on a swap:
    // they read the serving bundle until the promotion replaces it.
    let serving = state.bundle();
    let mut symbols = serving.symbols.clone();
    let parsed = parse_rules_spanned(text, &state.schema, &mut symbols)
        .map_err(|e| bad_request(format!("rules: {}", e.message())))?;
    let (mut candidate, cert, spans) = build_bundle(parsed, symbols, 0);
    cert.observe(&MetricsObserver::new(&state.registry));
    let delta = fixlint::fixcert::diff(
        &serving.rules,
        &candidate.rules,
        &spans,
        &candidate.symbols,
        &fixlint::CertOptions::default(),
    );
    let findings: Vec<Json> = cert
        .report
        .diagnostics
        .iter()
        .map(|d| {
            Json::from(format!(
                "{}[{}]: {}",
                d.severity.as_str(),
                d.code.as_str(),
                d.message
            ))
        })
        .collect();
    let lint_errors = candidate.lint_errors;
    let accepted = lint_errors == 0 && candidate.certified;
    let generation = if accepted {
        candidate.generation = serving.generation + 1;
        let generation = candidate.generation;
        publish_symbols(&state.registry, &candidate);
        *state.bundle.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(candidate);
        generation
    } else {
        serving.generation
    };
    state.journal.event(
        "rules.swap",
        span.id(),
        Json::obj([
            ("certified", Json::from(cert.is_certified())),
            ("generation", Json::from(generation)),
            ("lint_errors", Json::from(lint_errors)),
            ("promoted", Json::from(accepted)),
        ]),
    );
    let body = Json::obj([
        ("cert_errors", Json::from(cert.report.errors())),
        ("certified", Json::from(cert.is_certified())),
        ("diff", delta.to_json()),
        ("findings", Json::Arr(findings)),
        ("generation", Json::from(generation)),
        ("lint_errors", Json::from(lint_errors)),
        ("promoted", Json::from(accepted)),
        ("trace_id", Json::from(trace_id.as_str())),
    ]);
    let status = if accepted { 200 } else { 422 };
    Ok(Response::json(status, format!("{body}\n")).with_header("X-Trace-Id", &trace_id))
}

/// `GET /explain/{row}/{attr}` — the provenance chain justifying the
/// current value of one cell, one JSON record per line (newest last).
fn handle_explain(state: &DaemonState, request: &Request) -> SrvResult {
    let rest = request.path.trim_start_matches("/explain/");
    let (row_text, attr_name) = rest
        .split_once('/')
        .ok_or_else(|| bad_request("expected /explain/{row}/{attr}"))?;
    let row: usize = row_text
        .parse()
        .map_err(|_| bad_request(format!("bad row index {row_text:?}")))?;
    let attr = state
        .schema
        .attr(attr_name)
        .ok_or_else(|| SrvError::new(404, format!("unknown attribute {attr_name:?}")))?;
    let chain = state.ledger.chain_for(row, attr);
    if chain.is_empty() {
        return Err(SrvError::new(
            404,
            format!("no provenance for row {row} attribute {attr_name:?}"),
        ));
    }
    // Every generation's table extends the one before, so the newest
    // resolves the symbols of records written under any of them.
    let bundle = state.bundle();
    let mut body = String::new();
    for record in &chain {
        body.push_str(&record.to_json(&state.schema, &bundle.symbols).to_string());
        body.push('\n');
    }
    Ok(Response::new(
        200,
        "application/jsonl; charset=utf-8",
        body.into_bytes(),
    ))
}

/// `GET /trace/{id}` — replay one request's records from the global
/// journal: the root `request` span plus every descendant, in journal
/// order. `?format=chrome` converts to the Chrome trace-event JSON.
fn handle_trace(state: &DaemonState, request: &Request) -> SrvResult {
    let chrome = response_format(request, &["jsonl", "chrome"])? == "chrome";
    let trace_id = request.path.trim_start_matches("/trace/");
    let root = obs::lock(&state.trace_index)
        .iter()
        .rev()
        .find_map(|(id, span)| (id == trace_id).then_some(*span))
        .ok_or_else(|| SrvError::new(404, format!("unknown trace id {trace_id:?}")))?;
    // Parents always precede children in append order, so one forward
    // pass with a membership set reconstructs the subtree.
    let mut members = std::collections::HashSet::from([root]);
    let subtree: Vec<TraceRecord> = state
        .journal
        .records()
        .into_iter()
        .filter(|record| {
            if record.span == root || members.contains(&record.parent) {
                if record.phase == TracePhase::SpanBegin {
                    members.insert(record.span);
                }
                return true;
            }
            false
        })
        .collect();
    if chrome {
        let chrome = obs::trace::chrome_trace(&subtree);
        return Ok(Response::json(200, format!("{chrome}\n")));
    }
    let mut body = String::new();
    for record in &subtree {
        body.push_str(&record.to_json().to_string());
        body.push('\n');
    }
    Ok(Response::new(
        200,
        "application/jsonl; charset=utf-8",
        body.into_bytes(),
    ))
}

/// `GET /quality` — the [`QualityMonitor`] snapshot: configuration,
/// logical window clock, the in-progress window's signals, sealed window
/// history, and the active alert set. Byte-deterministic for a given
/// request sequence (integer counts and per-mille ratios only).
fn handle_quality(state: &DaemonState) -> Response {
    match &state.quality {
        Some(quality) => {
            let mut snapshot = quality.snapshot();
            snapshot.set("enabled", true);
            Response::json(200, format!("{}\n", snapshot.to_string_pretty()))
        }
        None => Response::json(
            200,
            format!("{}\n", Json::obj([("enabled", Json::from(false))])),
        ),
    }
}

fn handle_metrics(state: &DaemonState, request: &Request) -> Response {
    let snapshot = state.registry.snapshot();
    if request.path == "/metrics.json" {
        Response::json(200, format!("{snapshot}\n"))
    } else {
        Response::new(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(&snapshot).into_bytes(),
        )
    }
}

/// Readiness: lint-clean rules, a consistent rule set, a green `fixcert`
/// certificate (termination + confluence), and green SLOs. With the
/// opt-in quality gate, active quality alerts also flip readiness
/// (without the gate they are reported but never gate). `503` otherwise,
/// with every sub-verdict in the JSON body. Nothing waits on traffic: a
/// booted or just-promoted rule set is ready at once.
fn handle_readyz(state: &DaemonState) -> Response {
    let report = state.health.report();
    let bundle = state.bundle();
    let lint_clean = bundle.lint_errors == 0;
    let quality_alerts = state
        .quality
        .as_ref()
        .map_or(0, |quality| quality.active_alerts().len());
    let quality_ok = !state.quality_gate || quality_alerts == 0;
    let ready = lint_clean && bundle.consistent && bundle.certified && report.healthy && quality_ok;
    let body = Json::obj([
        ("cert_errors", Json::from(bundle.cert_errors)),
        ("certified", Json::from(bundle.certified)),
        ("consistent", Json::from(bundle.consistent)),
        ("generation", Json::from(bundle.generation)),
        ("health", report.to_json()),
        ("lint_clean", Json::from(lint_clean)),
        ("lint_errors", Json::from(bundle.lint_errors)),
        ("quality_alerts", Json::from(quality_alerts)),
        ("quality_gate", Json::from(state.quality_gate)),
        ("quality_ok", Json::from(quality_ok)),
        ("ready", Json::from(ready)),
        (
            "rows_served",
            Json::from(state.rows_served.load(Ordering::SeqCst)),
        ),
        ("rules", Json::from(bundle.rules.len())),
    ]);
    Response::json(if ready { 200 } else { 503 }, format!("{body}\n"))
}
