//! `fixctl` — repair CSV data with fixing rules from the command line.
//!
//! ```text
//! fixctl lint    rules.frl [--deny warnings] [--format json]
//!                                                         # static analysis (fixlint)
//! fixctl check   --rules rules.frl --data data.csv        # consistency report
//! fixctl resolve --rules rules.frl --data data.csv --out fixed_rules.frl
//!                [--strategy shrink|drop]                 # §5.3 workflow
//! fixctl repair  --rules rules.frl --data dirty.csv --out repaired.csv
//!                [--engine lrepair|stream] [--threads N]
//!                [--updates-log updates.csv]
//!                [--trace trace.jsonl]                    # provenance journal
//! fixctl stats   --rules rules.frl --data data.csv        # rule-set statistics
//! fixctl explain trace.jsonl --row R --attr A             # why did this cell change?
//! fixctl trace export trace.jsonl --chrome out.json       # Perfetto-viewable timeline
//! fixctl coverage --rules rules.frl --data data.csv [--lint]
//!                                                         # per-rule attribution profile,
//!                                                         # joined against the linter
//! fixctl scrape http://HOST:PORT/metrics [--require NAME] # fetch + validate exposition
//!                                                         # NAME may be a labeled series:
//!                                                         #   http.requests{endpoint="repair"}
//! fixctl quality http://HOST:PORT [--window W]            # repair-quality window table
//!                [--require-green]                        # (also reads a snapshot file;
//!                                                         #  exit 1 on active alerts)
//! fixctl serve  --rules rules.frl [fixd flags]            # the `fixd` repair daemon
//!                                                         # (`fixctl serve --help`)
//! fixctl client repair rows.csv --addr HOST:PORT [--format csv]
//! fixctl client check  rows.csv --addr HOST:PORT          # dry run, nothing recorded
//! fixctl client get    /readyz  --addr HOST:PORT          # any GET endpoint
//! fixctl client shutdown        --addr HOST:PORT          # graceful drain
//! ```
//!
//! `repair` has two engines, and they write the same output, and neither
//! one's memory grows with the input: `lrepair` (the default) runs a chunk
//! pipeline, whose workers each read a 256 KiB chunk of the input with
//! every cell one of Σ's constants or ⊥, repair it, and render it back,
//! untouched rows from the chunk's own bytes, while the calling thread
//! writes the chunks in order; `stream` repairs one record at a time as it
//! reads them, on one thread. `--threads N` only sets the worker count for
//! the pipeline (and for the CSV load of the other commands). It defaults
//! to the available cores, and no output depends on it. `stream` refuses
//! an N > 1 and `--updates-log`. `check`, `detect`, `repair` and
//! `coverage` check every rule pair on one thread and report every
//! conflict.
//!
//! `repair` additionally takes the profiling flags:
//!
//! * `--profile` — print a ranked per-rule attribution table after the run;
//! * `--profile-json FILE` — write the profile as deterministic JSON (counts
//!   only, no wall-clock: two identical runs are byte-identical).
//!
//! Every command but `serve` also takes the observability flags:
//!
//! * `--metrics <path>` — write a JSON snapshot of per-stage timings
//!   (`stage.*_ns` histograms), repair counters (`repair.rules_applied`,
//!   `repair.tuples_touched`, `consistency.conflicts`, ...; see
//!   [`obs::METRIC_NAMES`]), the `repair` pipeline's busy time per phase
//!   (`pipeline.*_ns`), and the process's peak memory
//!   (`process.peak_rss_bytes`, where `/proc/self/status` is readable).
//!   All but the timings and the memory are deterministic.
//! * `--log <off|info|debug>` — structured `key=value` progress lines on
//!   stderr.
//! * `--trace <path>` — append-only JSONL journal of stage spans plus, for
//!   `repair`, the full provenance ledger (one `repair.cell` event per
//!   fix, with rule, evidence bindings, and assured-set delta).
//!   `--trace-clock logical|wall` picks timestamps: `logical` (default)
//!   is byte-deterministic across runs, `wall` records microseconds.
//!
//! `repair`, `coverage` and `serve` reject any flag they do not read
//! (exit 2, `unknown flag --NAME`), so a typo never falls back to a
//! default. `serve` hands its arguments to the `fixd` parser
//! ([`fixd::cli::run`]); the daemon's telemetry is at `GET /metrics` and
//! its journal is `--journal`, so it takes no `--metrics` or `--trace`.
//!
//! The schema is taken from the CSV header; rule files use the
//! [`fixrules::io`] line format:
//!
//! ```text
//! IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use fixrules::consistency::resolve::{ensure_consistent, Strategy};
use fixrules::consistency::{
    conflict_witness, enumerate::WILDCARD, is_consistent_characterize, ConsistencyReport,
};
use fixrules::io::{format_rule, format_rules, parse_rules, parse_rules_spanned, Span};
use fixrules::provenance::{ProvenanceLedger, ProvenanceObserver, ProvenanceRecord};
use fixrules::repair::{
    lrepair_table, stream_repair_csv, CellUpdate, LRepairIndex, LRepairWorker, RepairStats,
};
use fixrules::RuleSet;
use obs::trace::{chrome_trace, parse_jsonl, TracePhase, TraceSpan};
use obs::{
    http_get, parse_prometheus, render_snapshot, AlertRule, AttributionObserver, Event, Json,
    MetricsObserver, MetricsRegistry, QualityConfig, QualityMonitor, RepairObserver, RuleLabel,
    Tee, TraceClock, TraceJournal,
};
use relation::csv_io::{par_read_csv_constants, par_repair_csv, PipelineError};
use relation::{Schema, Symbol, SymbolTable, Table};

/// The error a command returns when a write to stdout finds the reader
/// gone (`fixctl lint ... | head -1`): `main` then ends quietly with the
/// status a shell reports for a process killed by SIGPIPE.
const STDOUT_CLOSED: &str = "stdout closed";

/// Write to stdout, the one writer behind `out!` and `outln!`. A
/// closed pipe is [`STDOUT_CLOSED`]; any other failure, a message.
fn write_stdout(args: std::fmt::Arguments) -> Result<(), String> {
    use std::io::Write;
    std::io::stdout().lock().write_fmt(args).map_err(|e| {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.to_string()
        } else {
            format!("writing to stdout: {e}")
        }
    })
}

/// `print!` for commands: returns the write's error from the enclosing
/// function (which must return `Result<_, String>`) instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))?
    };
}

/// `println!` for commands, as `out!`.
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) if msg == STDOUT_CLOSED => ExitCode::from(128 + 13),
        Err(msg) => {
            eprintln!("fixctl: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Observability context shared by every command: a metrics registry, the
/// observer the repair drivers report into, an optional trace journal, and
/// where (if anywhere) to dump each at exit.
struct ObsCtx {
    registry: MetricsRegistry,
    observer: MetricsObserver,
    metrics_path: Option<String>,
    journal: Option<TraceJournal>,
    trace_path: Option<String>,
}

/// Compound stage guard from [`ObsCtx::span`]: a metrics span timer plus,
/// when `--trace` is active, a matching journal span. Both close on drop.
struct StageSpan<'a> {
    _timer: obs::SpanTimer,
    _trace: Option<TraceSpan<'a>>,
}

impl ObsCtx {
    fn from_flags(flags: &Flags) -> Result<ObsCtx, String> {
        if let Some(level) = flags.optional("log") {
            obs::log::set_level(level.parse()?);
        }
        let registry = MetricsRegistry::new();
        let observer = MetricsObserver::new(&registry);
        let (journal, trace_path) = match flags.optional("trace") {
            Some(path) => {
                let clock = match flags.optional("trace-clock") {
                    Some(c) => c.parse::<TraceClock>()?,
                    None => TraceClock::Logical,
                };
                (Some(TraceJournal::new(clock)), Some(path.to_string()))
            }
            None => (None, None),
        };
        Ok(ObsCtx {
            observer,
            metrics_path: flags.optional("metrics").map(str::to_string),
            journal,
            trace_path,
            registry,
        })
    }

    /// Time a named stage; the span records into `stage.<name>_ns` and, when
    /// tracing, opens a `stage.<name>` journal span.
    fn span(&self, stage: &str) -> StageSpan<'_> {
        let name = format!("stage.{stage}");
        StageSpan {
            _timer: self.registry.span(&name),
            _trace: self.journal.as_ref().map(|j| j.span(&name, 0)),
        }
    }

    /// Write the metrics snapshot and trace journal if `--metrics`/`--trace`
    /// were given. Called on both success and failure so partial runs still
    /// leave a trace.
    fn finish(&self) -> Result<(), String> {
        if let Some(path) = &self.metrics_path {
            if let Some(bytes) = peak_rss_bytes() {
                self.registry
                    .gauge("process.peak_rss_bytes")
                    .set(i64::try_from(bytes).unwrap_or(i64::MAX));
            }
            let snapshot = self.registry.snapshot();
            std::fs::write(path, snapshot.to_string_pretty() + "\n")
                .map_err(|e| format!("writing {path}: {e}"))?;
            obs::info!("metrics.written", path = path);
        }
        if let (Some(journal), Some(path)) = (&self.journal, &self.trace_path) {
            std::fs::write(path, journal.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
            obs::info!("trace.written", path = path, records = journal.len());
        }
        Ok(())
    }
}

/// The process's peak resident memory so far, in bytes: `VmHWM` in
/// `/proc/self/status`, or `None` where that file cannot be read.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kib * 1024)
}

struct Flags {
    values: HashMap<String, String>,
}

/// Flags that are plain switches: present or absent, consuming no value.
const SWITCH_FLAGS: &[&str] = &["profile", "lint", "require-green"];

/// Observability flags every command reads (see [`ObsCtx::from_flags`]).
const OBS_FLAGS: &[&str] = &["log", "metrics", "trace", "trace-clock"];

/// Flags `fixctl repair` reads, besides [`OBS_FLAGS`].
const REPAIR_FLAGS: &[&str] = &[
    "rules",
    "data",
    "out",
    "engine",
    "threads",
    "updates-log",
    "profile",
    "profile-json",
    "quality-window",
    "quality-alert",
    "quality-json",
];

/// Flags `fixctl coverage` reads, besides [`OBS_FLAGS`].
const COVERAGE_FLAGS: &[&str] = &["rules", "data", "lint", "profile-json"];

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, found `{}`", args[i]))?;
            if SWITCH_FLAGS.contains(&flag) {
                values.insert(flag.to_string(), String::new());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{flag} needs a value"))?;
            values.insert(flag.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags { values })
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn optional(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// Whether a switch flag (see [`SWITCH_FLAGS`]) was given.
    fn switch(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Reject every flag outside [`OBS_FLAGS`] and `known`, so a typo or
    /// a retired flag fails instead of being silently ignored.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .map(String::as_str)
            .filter(|name| !OBS_FLAGS.contains(name) && !known.contains(name))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            Some(name) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    if command == "serve" {
        return fixd::cli::run(&args[1..]).map(|()| ExitCode::SUCCESS);
    }
    // `lint`, `certify` and `explain` take a file as a positional argument
    // (like rustc), `trace` has an `export` subcommand; every other
    // command is pure `--flag value` pairs.
    let (positional, flag_args) = match command.as_str() {
        "lint" | "certify" | "explain" | "scrape" | "quality" => match args.get(1) {
            Some(arg) if !arg.starts_with("--") => (Some(arg.as_str()), &args[2..]),
            _ => (None, &args[1..]),
        },
        "client" => {
            match args.get(1).map(String::as_str) {
                Some("repair" | "check" | "get" | "rules" | "shutdown") => {}
                _ => {
                    return Err("unknown client subcommand (expected `fixctl client \
                         <repair|check|get|rules|shutdown> ... --addr HOST:PORT`)"
                        .to_string())
                }
            }
            match args.get(2) {
                Some(arg) if !arg.starts_with("--") => (Some(arg.as_str()), &args[3..]),
                _ => (None, &args[2..]),
            }
        }
        "trace" => {
            if args.get(1).map(String::as_str) != Some("export") {
                return Err(
                    "unknown trace subcommand (expected `fixctl trace export <trace.jsonl> \
                     --chrome out.json`)"
                        .to_string(),
                );
            }
            match args.get(2) {
                Some(arg) if !arg.starts_with("--") => (Some(arg.as_str()), &args[3..]),
                _ => (None, &args[2..]),
            }
        }
        _ => (None, &args[1..]),
    };
    let flags = Flags::parse(flag_args)?;
    let obs_ctx = ObsCtx::from_flags(&flags)?;
    let result = match command.as_str() {
        "check" => cmd_check(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "convert" => cmd_convert(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "coverage" => cmd_coverage(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "detect" => cmd_detect(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "discover" => cmd_discover(&flags).map(|()| ExitCode::SUCCESS),
        "explain" => cmd_explain(positional, &flags),
        "lint" => cmd_lint(positional, &flags, &obs_ctx),
        "certify" => cmd_certify(positional, &flags, &obs_ctx),
        "resolve" => cmd_resolve(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "repair" => cmd_repair(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "scrape" => cmd_scrape(positional, &flags),
        "quality" => cmd_quality(positional, &flags),
        "client" => cmd_client(args[1].as_str(), positional, &flags),
        "stats" => cmd_stats(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "trace" => cmd_trace_export(positional, &flags).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            outln!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    obs_ctx.finish()?;
    result
}

fn usage() -> String {
    "usage: fixctl <check|detect|discover|resolve|repair|stats|convert> --rules FILE --data FILE.csv \
     [--out FILE] [--engine lrepair|stream (neither one's memory grows with FILE.csv)] \
     [--threads N (default: all cores)] [--strategy shrink|drop] [--updates-log FILE] \
     [--metrics FILE.json] [--log off|info|debug] [--trace FILE.jsonl] [--trace-clock logical|wall] \
     [--profile] [--profile-json FILE] \
     [--quality-window N] [--quality-alert SPEC,...] [--quality-json FILE] \
     | lint RULES.frl [--schema a,b,c | --data FILE.csv] [--format human|json|sarif] \
     [--deny warnings|FR001,...] \
     | certify RULES.frl [--schema a,b,c | --data FILE.csv] [--format human|json|sarif] \
     [--deny warnings|FR001,...] \
     | coverage --rules FILE --data FILE.csv [--lint] [--profile-json FILE] \
     | serve --rules FILE [fixd flags: fixctl serve --help] \
     | client repair|check FILE --addr HOST:PORT [--format csv|json] \
     | client rules RULES.frl --addr HOST:PORT \
     | client get PATH --addr HOST:PORT | client shutdown --addr HOST:PORT \
     | scrape URL|FILE [--require METRIC[{k=\"v\",...}]] \
     | quality URL|SNAPSHOT.json [--window W] [--require-green] \
     | explain TRACE.jsonl --row N --attr NAME \
     | trace export TRACE.jsonl --chrome OUT.json \
     | discover --data FILE.csv --fds FILE --out rules.frl [--min-support N] [--min-confidence F]"
        .to_string()
}

/// Static analysis of a rule file: parse (inferring a schema from the
/// rules themselves unless `--schema`/`--data` provides one), run the
/// `fixlint` passes, and render the findings rustc-style or as JSON.
/// Exit status: 2 on operational errors, 1 when any finding is fatal
/// (errors always; plus whatever `--deny` promotes), 0 otherwise.
fn cmd_lint(positional: Option<&str>, flags: &Flags, obs_ctx: &ObsCtx) -> Result<ExitCode, String> {
    let path = positional
        .or_else(|| flags.optional("rules"))
        .ok_or("lint needs a rules file: fixctl lint <rules.frl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let deny = match flags.optional("deny") {
        Some(spec) => fixlint::DenyList::parse(spec)?,
        None => fixlint::DenyList::none(),
    };
    let format = flags.optional("format").unwrap_or("human");
    let mut symbols = SymbolTable::new();
    let schema = if let Some(names) = flags.optional("schema") {
        relation::Schema::new("R", names.split(',').map(str::trim)).map_err(|e| e.to_string())?
    } else if let Some(data_path) = flags.optional("data") {
        read_header(data_path)?
    } else {
        match fixrules::io::infer_schema(&text, "R") {
            Ok(schema) => schema,
            // An unparseable file still gets a rendered FR000 report below.
            Err(_) => relation::Schema::new("R", ["_"]).map_err(|e| e.to_string())?,
        }
    };
    let report = {
        let _span = obs_ctx.span("lint");
        fixlint::lint_source(
            &text,
            &schema,
            &mut symbols,
            &fixlint::LintOptions::default(),
        )
    };
    report.observe(&obs_ctx.observer);
    obs::info!(
        "lint.done",
        file = path,
        errors = report.errors(),
        warnings = report.warnings(),
        notes = report.notes()
    );
    match format {
        "json" => outln!("{}", report.to_json(path).to_string_pretty()),
        "sarif" => outln!("{}", fixlint::render_sarif(&report, path)),
        "human" => out!("{}", fixlint::render_report(&report, path, &text)),
        other => return Err(format!("unknown format `{other}` (human|json|sarif)")),
    }
    if report.fatal(&deny) > 0 {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Whole-set chase certification of a rule file: build the interaction
/// graph (termination), commute every interacting critical pair through
/// the compiled engine (confluence), and render the certificate. Exit
/// status mirrors `lint`: 2 on operational errors, 1 when any finding is
/// fatal under `--deny` (FR009/FR010 are errors, hence always fatal),
/// 0 on a green certificate.
fn cmd_certify(
    positional: Option<&str>,
    flags: &Flags,
    obs_ctx: &ObsCtx,
) -> Result<ExitCode, String> {
    let path = positional
        .or_else(|| flags.optional("rules"))
        .ok_or("certify needs a rules file: fixctl certify <rules.frl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let deny = match flags.optional("deny") {
        Some(spec) => fixlint::DenyList::parse(spec)?,
        None => fixlint::DenyList::none(),
    };
    let format = flags.optional("format").unwrap_or("human");
    let mut symbols = SymbolTable::new();
    let schema = if let Some(names) = flags.optional("schema") {
        relation::Schema::new("R", names.split(',').map(str::trim)).map_err(|e| e.to_string())?
    } else if let Some(data_path) = flags.optional("data") {
        read_header(data_path)?
    } else {
        match fixrules::io::infer_schema(&text, "R") {
            Ok(schema) => schema,
            // An unparseable file still gets a rendered FR000 report below.
            Err(_) => relation::Schema::new("R", ["_"]).map_err(|e| e.to_string())?,
        }
    };
    let cert = {
        let _span = obs_ctx.span("certify");
        match fixrules::io::parse_rules_spanned(&text, &schema, &mut symbols) {
            Ok(parsed) => fixlint::certify(
                &parsed.rules,
                &parsed.spans,
                &symbols,
                &fixlint::CertOptions::default(),
            ),
            Err(error) => fixlint::Certificate {
                report: fixlint::parse_error_report(&error),
                ..fixlint::Certificate::default()
            },
        }
    };
    cert.observe(&obs_ctx.observer);
    obs::info!(
        "certify.done",
        file = path,
        certified = cert.is_certified(),
        rules = cert.rules,
        pairs = cert.confluence.pairs_checked,
        violations = cert.confluence.violations
    );
    match format {
        "json" => outln!("{}", cert.to_json(path).to_string_pretty()),
        "sarif" => outln!("{}", fixlint::render_sarif(&cert.report, path)),
        "human" => {
            out!("{}", fixlint::render_report(&cert.report, path, &text));
            let bound = match cert.termination.round_bound {
                Some(b) => format!("round bound {b}"),
                None => "no order-independent round bound".to_string(),
            };
            outln!(
                "{path}: {} — {} rule(s), {}, {} pair(s) checked, {} witness run(s), \
                 {} skipped over budget",
                if cert.is_certified() {
                    "certificate GREEN"
                } else {
                    "certificate RED"
                },
                cert.rules,
                bound,
                cert.confluence.pairs_checked,
                cert.confluence.witness_runs,
                cert.confluence.pairs_skipped
            );
        }
        other => return Err(format!("unknown format `{other}` (human|json|sarif)")),
    }
    if cert.report.fatal(&deny) > 0 {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Convert between the `.frl` line format and the portable JSON document,
/// picking the direction from the output extension.
fn cmd_convert(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let out = flags.required("out")?;
    let (_table, rules, symbols) = load(flags, obs_ctx)?;
    if out.ends_with(".json") {
        let doc = fixrules::io::to_portable(&rules, &symbols);
        std::fs::write(out, doc.to_json_string()).map_err(|e| format!("writing {out}: {e}"))?;
    } else {
        std::fs::write(out, format_rules(&rules, &symbols))
            .map_err(|e| format!("writing {out}: {e}"))?;
    }
    outln!("wrote {out} ({} rules)", rules.len());
    Ok(())
}

/// Discover fixing rules from the data alone (support/confidence over FD
/// groups) and write them as a rule file.
fn cmd_discover(flags: &Flags) -> Result<(), String> {
    let data_path = flags.required("data")?;
    let fds_path = flags.required("fds")?;
    let out = flags.required("out")?;
    let mut symbols = SymbolTable::new();
    let table = relation::csv_io::read_csv_file(data_path, "data", &mut symbols)
        .map_err(|e| format!("reading {data_path}: {e}"))?;
    let fds_text =
        std::fs::read_to_string(fds_path).map_err(|e| format!("reading {fds_path}: {e}"))?;
    let fds = fd::parse::parse_fds(table.schema(), &fds_text)
        .map_err(|e| format!("parsing {fds_path}: {e}"))?;
    let mut config = fixrules::discovery::DiscoveryConfig::default();
    if let Some(s) = flags.optional("min-support") {
        config.min_support = s.parse().map_err(|_| "--min-support N".to_string())?;
    }
    if let Some(c) = flags.optional("min-confidence") {
        config.min_confidence = c.parse().map_err(|_| "--min-confidence F".to_string())?;
    }
    let discovered = fixrules::discovery::discover_all(&table, &fds, config);
    let mut rules = RuleSet::new(table.schema().clone());
    for d in &discovered {
        rules.push(d.rule.clone());
    }
    let log = fixrules::consistency::resolve::ensure_consistent_batch(&mut rules);
    outln!(
        "discovered {} rule(s) from {} FD(s); {} resolution action(s) applied",
        rules.len(),
        fds.len(),
        log.actions.len()
    );
    std::fs::write(out, format_rules(&rules, &symbols))
        .map_err(|e| format!("writing {out}: {e}"))?;
    outln!("wrote {out}");
    Ok(())
}

/// Audit mode: report and explain every update a repair would apply,
/// without writing anything.
fn cmd_detect(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let (table, rules, symbols) = load(flags, obs_ctx)?;
    require_consistent(&rules, obs_ctx)?;
    let index = {
        let _span = obs_ctx.span("index_build");
        LRepairIndex::build(&rules)
    };
    let plan = {
        let _span = obs_ctx.span("detect");
        fixrules::repair::detect_table(&rules, &index, &table)
    };
    outln!(
        "{} planned update(s) across {} row(s) of {}",
        plan.total_updates(),
        plan.rows_touched(),
        table.len()
    );
    for u in plan.updates.iter().take(100) {
        outln!(
            "  {}",
            fixrules::repair::explain(u, &rules, table.schema(), &symbols)
        );
    }
    if plan.total_updates() > 100 {
        outln!("  ... and {} more", plan.total_updates() - 100);
    }
    Ok(())
}

/// Load the rule file against the CSV header, then the CSV in
/// [`worker_threads`] chunks with each cell a constant of Σ or ⊥: a tuple
/// meets a fixing rule only through equality with its constants, so no
/// other value can change a repair (DESIGN.md §18). The symbol table holds
/// Σ's constants alone, in rule-parse order.
fn load(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(Table, RuleSet, SymbolTable), String> {
    let threads = worker_threads(flags)?;
    let _span = obs_ctx.span("load");
    let data_path = flags.required("data")?;
    let (schema, rules, symbols) = read_sigma(data_path, flags.required("rules")?)?;
    // A bad rule file is reported only once the data has loaded, so a bad
    // data file is the first error reported.
    let table = read_data(data_path, &schema, &symbols, threads)?;
    let rules = rules?;
    obs::info!(
        "load.done",
        rows = table.len(),
        rules = rules.len(),
        constants = symbols.len()
    );
    Ok((table, rules, symbols))
}

/// The header of the CSV file at `data_path` and Σ parsed against it from
/// `rules_path`, or the rule file's error. The symbol table holds Σ's
/// constants, or none if the rule file failed.
fn read_sigma(
    data_path: &str,
    rules_path: &str,
) -> Result<(Schema, Result<RuleSet, String>, SymbolTable), String> {
    let schema = read_header(data_path)?;
    let mut symbols = SymbolTable::new();
    let rules = read_rules(rules_path, &schema, &mut symbols);
    if rules.is_err() {
        symbols = SymbolTable::new();
    }
    Ok((schema, rules, symbols))
}

/// Load the CSV file at `path` with each cell one of `symbols` or ⊥.
fn read_data(
    path: &str,
    schema: &Schema,
    symbols: &SymbolTable,
    threads: usize,
) -> Result<Table, String> {
    par_read_csv_constants(path, schema, symbols, threads)
        .map_err(|e| format!("reading {path}: {e}"))
}

/// The schema of the CSV file at `path`, read from its header row alone.
fn read_header(path: &str) -> Result<Schema, String> {
    std::fs::File::open(path)
        .map_err(relation::RelationError::from)
        .and_then(|file| relation::csv_io::read_csv_header(file, "data"))
        .map_err(|e| format!("reading {path}: {e}"))
}

/// Read and parse the rule file at `path` against `schema`.
fn read_rules(path: &str, schema: &Schema, symbols: &mut SymbolTable) -> Result<RuleSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_rules(&text, schema, symbols).map_err(|e| format!("parsing {path}: {e}"))
}

/// `--threads N` as given, or `None` when absent.
fn threads_flag(flags: &Flags) -> Result<Option<usize>, String> {
    flags
        .optional("threads")
        .map(|t| {
            t.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "--threads takes a worker count >= 1".to_string())
        })
        .transpose()
}

/// Workers for CSV load, lRepair and CSV write, none of whose output
/// depends on the worker count: `--threads`, or every available core.
fn worker_threads(flags: &Flags) -> Result<usize, String> {
    Ok(threads_flag(flags)?
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())))
}

/// Labels for the attribution profiler: rule `i` becomes `r{i}`, tagged
/// with the name of the attribute its fix writes (the rule's B attribute).
fn rule_labels(rules: &RuleSet) -> Vec<RuleLabel> {
    rules
        .iter()
        .map(|(id, rule)| RuleLabel {
            rule: format!("r{}", id.0),
            attr: rules.schema().attr_name(rule.b()).to_string(),
        })
        .collect()
}

/// Build the attribution observer when `--profile` or `--profile-json`
/// asks for one. Latency collection rides on `--profile` (the table shows
/// quantiles); the JSON rendering never includes measured nanoseconds, so
/// `--profile-json` stays byte-deterministic either way.
fn attribution_for(
    flags: &Flags,
    obs_ctx: &ObsCtx,
    rules: &RuleSet,
) -> Option<AttributionObserver> {
    (flags.switch("profile") || flags.optional("profile-json").is_some()).then(|| {
        AttributionObserver::new(&obs_ctx.registry, rule_labels(rules))
            .with_timing(flags.switch("profile"))
    })
}

/// Print/write the per-rule profile after a run, per `--profile` and
/// `--profile-json`.
fn emit_profile(flags: &Flags, attribution: Option<&AttributionObserver>) -> Result<(), String> {
    let Some(attribution) = attribution else {
        return Ok(());
    };
    let profile = attribution.profile();
    if flags.switch("profile") {
        out!("{}", profile.render_table());
    }
    if let Some(path) = flags.optional("profile-json") {
        std::fs::write(path, profile.to_json().to_string_pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote {path}");
    }
    Ok(())
}

/// The pairwise `isConsist_r` check run to the end (it reports every
/// conflict), timed and fed into the observer.
fn check_consistency(rules: &RuleSet, obs_ctx: &ObsCtx) -> ConsistencyReport {
    let _span = obs_ctx.span("consistency_check");
    let report = is_consistent_characterize(rules, usize::MAX);
    report.observe(&obs_ctx.observer);
    obs::info!(
        "consistency.done",
        pairs_checked = report.pairs_checked,
        conflicts = report.conflicts.len()
    );
    report
}

/// The gate in front of every repair: [`check_consistency`], failing on
/// any conflict.
fn require_consistent(rules: &RuleSet, obs_ctx: &ObsCtx) -> Result<(), String> {
    let report = check_consistency(rules, obs_ctx);
    if report.is_consistent() {
        Ok(())
    } else {
        Err(format!(
            "rule set has {} conflict(s); run `fixctl resolve` first",
            report.conflicts.len()
        ))
    }
}

fn cmd_check(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let (_table, rules, symbols) = load(flags, obs_ctx)?;
    let report = check_consistency(&rules, obs_ctx);
    outln!(
        "{} rules, size(Σ) = {}, {} pairs checked",
        rules.len(),
        rules.size(),
        report.pairs_checked
    );
    if report.is_consistent() {
        outln!("consistent ✓");
        Ok(())
    } else {
        outln!(
            "INCONSISTENT — {} conflicting pair(s):",
            report.conflicts.len()
        );
        for c in report.conflicts.iter().take(20) {
            outln!("  [{}] vs [{}]  ({:?})", c.first.0, c.second.0, c.case);
            outln!(
                "    {}",
                rules.rule(c.first).display(rules.schema(), &symbols)
            );
            outln!(
                "    {}",
                rules.rule(c.second).display(rules.schema(), &symbols)
            );
            // Materialize a concrete two-fixpoint witness when the pair's
            // candidate space is small enough; each one is counted in the
            // `consistency.witness_found` metric.
            if let Some(w) = conflict_witness(&rules, c, 4096) {
                obs_ctx.observer.event(Event::WitnessFound);
                outln!(
                    "    witness: ({}) can end as ({}) or ({})",
                    render_tuple(&w.tuple, &symbols),
                    render_tuple(&w.fixes[0], &symbols),
                    render_tuple(&w.fixes[1], &symbols)
                );
            }
        }
        if report.conflicts.len() > 20 {
            outln!("  ... and {} more", report.conflicts.len() - 20);
        }
        Err("rule set is inconsistent (run `fixctl resolve`)".into())
    }
}

/// Render a witness tuple; attributes unconstrained by either rule hold
/// the enumeration wildcard and print as `_`.
fn render_tuple(tuple: &[Symbol], symbols: &SymbolTable) -> String {
    tuple
        .iter()
        .map(|&s| {
            if s == WILDCARD {
                "_".to_string()
            } else {
                format!("\"{}\"", symbols.resolve(s))
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Run lRepair with the attribution profiler attached and print the
/// ranked per-rule table; with `--lint`, join the runtime profile against
/// the static analysis (FR007: live rule that never fired; FR008: rule
/// flagged dead that did fire) and render the findings rustc-style.
fn cmd_coverage(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    flags.only(COVERAGE_FLAGS)?;
    let data_path = flags.required("data")?;
    let rules_path = flags.required("rules")?;
    let mut symbols = SymbolTable::new();
    let mut table = {
        let _span = obs_ctx.span("load");
        relation::csv_io::read_csv_file(data_path, "data", &mut symbols)
            .map_err(|e| format!("reading {data_path}: {e}"))?
    };
    let text =
        std::fs::read_to_string(rules_path).map_err(|e| format!("reading {rules_path}: {e}"))?;
    let parsed = parse_rules_spanned(&text, table.schema(), &mut symbols)
        .map_err(|e| format!("parsing {rules_path}: {e}"))?;
    let rules = parsed.rules;
    require_consistent(&rules, obs_ctx)?;
    let attribution =
        AttributionObserver::new(&obs_ctx.registry, rule_labels(&rules)).with_timing(true);
    let observer = Tee(&obs_ctx.observer, &attribution);
    {
        let _span = obs_ctx.span("repair");
        let index = LRepairIndex::build(&rules);
        lrepair_table(&rules, &index, &mut table, &observer);
    }
    let profile = attribution.profile();
    out!("{}", profile.render_table());
    if let Some(path) = flags.optional("profile-json") {
        std::fs::write(path, profile.to_json().to_string_pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote {path}");
    }
    if flags.switch("lint") {
        let lint_report = fixlint::lint(
            &rules,
            &parsed.spans,
            &symbols,
            &fixlint::LintOptions::default(),
        );
        // Rows carry the `r{i}` labels built above; fold them back into
        // rule-id order for the join (the catch-all row has no id).
        let mut activity = vec![fixlint::RuleActivity::default(); rules.len()];
        for row in &profile.rows {
            if let Some(i) = row
                .rule
                .strip_prefix('r')
                .and_then(|s| s.parse::<usize>().ok())
            {
                if let Some(slot) = activity.get_mut(i) {
                    slot.applied = row.applied;
                    slot.rejected = row.rejected;
                }
            }
        }
        let coverage = fixlint::coverage_join(&lint_report, &parsed.spans, &activity);
        out!("{}", fixlint::render_report(&coverage, rules_path, &text));
    }
    Ok(())
}

/// Fetch a Prometheus exposition (over HTTP, or from a file written by a
/// previous scrape) and validate it with the in-repo text-format parser.
/// Exit 1 when `--require NAME` names a metric the exposition lacks.
fn cmd_scrape(positional: Option<&str>, flags: &Flags) -> Result<ExitCode, String> {
    let target =
        positional.ok_or("scrape needs a target: fixctl scrape http://HOST:PORT/metrics")?;
    let text = if target.starts_with("http://") {
        let (status, body) = http_get(target).map_err(|e| format!("fetching {target}: {e}"))?;
        if status != 200 {
            return Err(format!("{target} answered HTTP {status}"));
        }
        body
    } else {
        std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?
    };
    let samples =
        parse_prometheus(&text).map_err(|e| format!("invalid exposition from {target}: {e}"))?;
    let mut names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    outln!(
        "{target}: exposition OK, {} sample(s) across {} metric(s)",
        samples.len(),
        names.len()
    );
    if let Some(required) = flags.optional("require") {
        if !require_present(&samples, required)? {
            outln!("required metric `{required}` is missing");
            return Ok(ExitCode::from(1));
        }
        outln!("required metric `{required}` present");
    }
    Ok(ExitCode::SUCCESS)
}

/// Does any scraped sample satisfy `required`? A bare name (`up`) matches
/// on the sanitized metric name alone; a labeled series
/// (`http.requests{endpoint="repair"}`) additionally needs every required
/// label pair on the same sample, in any order, extra labels allowed.
fn require_present(samples: &[obs::PromSample], required: &str) -> Result<bool, String> {
    let (raw_name, raw_block) = obs::expose::split_series(required);
    let name = obs::expose::sanitize_name(raw_name);
    let required_pairs = obs::parse_label_pairs(raw_block)
        .map_err(|e| format!("bad --require series {required:?}: {e}"))?;
    Ok(samples.iter().any(|sample| {
        if sample.name != name {
            return false;
        }
        if required_pairs.is_empty() {
            return true;
        }
        // The exposition already validated, so its blocks parse.
        let pairs = obs::parse_label_pairs(&sample.labels).unwrap_or_default();
        required_pairs.iter().all(|pair| pairs.contains(pair))
    }))
}

/// Fetch a repair-quality snapshot — from a running daemon's
/// `GET /quality`, or from a file written by `repair --quality-json` —
/// and render the per-window signal table. Exit 1 when `--require-green`
/// finds active alerts (the CI spelling of "is the data still healthy?").
fn cmd_quality(positional: Option<&str>, flags: &Flags) -> Result<ExitCode, String> {
    let target = positional
        .ok_or("quality needs a target: fixctl quality http://HOST:PORT | snapshot.json")?;
    let text = if target.starts_with("http://") {
        // Accept both a daemon base URL and the endpoint itself.
        let url = if target.ends_with("/quality") {
            target.to_string()
        } else {
            format!("{}/quality", target.trim_end_matches('/'))
        };
        let (status, body) = http_get(&url).map_err(|e| format!("fetching {url}: {e}"))?;
        if status != 200 {
            return Err(format!("{url} answered HTTP {status}"));
        }
        body
    } else {
        std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?
    };
    let snapshot =
        obs::json::parse(&text).map_err(|e| format!("invalid snapshot from {target}: {e}"))?;
    let last = match flags.optional("window") {
        Some(n) => Some(
            n.parse()
                .ok()
                .filter(|&w| w >= 1)
                .ok_or_else(|| format!("--window: bad value `{n}` (newest N windows)"))?,
        ),
        None => None,
    };
    out!("{}", render_snapshot(&snapshot, last)?);
    if flags.switch("require-green") {
        let alerts = snapshot
            .get("alerts")
            .and_then(|j| j.as_arr())
            .map_or(0, |arr| arr.len());
        if alerts > 0 {
            outln!("require-green: {alerts} active alert(s)");
            return Ok(ExitCode::from(1));
        }
        outln!("require-green: no active alerts");
    }
    Ok(ExitCode::SUCCESS)
}

/// Normalize `--addr` into a base URL (a bare `host:port` is accepted).
fn client_base(flags: &Flags) -> Result<String, String> {
    let addr = flags.required("addr")?;
    Ok(if addr.starts_with("http://") {
        addr.trim_end_matches('/').to_string()
    } else {
        format!("http://{addr}")
    })
}

/// Thin HTTP client for a running `fixd` daemon: post a repair/check
/// batch from a file, fetch any GET endpoint, or request a graceful
/// shutdown. Prints the response body; exit status 1 on a non-2xx reply.
fn cmd_client(sub: &str, positional: Option<&str>, flags: &Flags) -> Result<ExitCode, String> {
    let base = client_base(flags)?;
    let reply =
        match sub {
            "repair" | "check" => {
                let data = positional.or_else(|| flags.optional("data")).ok_or_else(|| {
                format!("client {sub} needs a batch file: fixctl client {sub} rows.csv --addr ...")
            })?;
                let body = std::fs::read(data).map_err(|e| format!("reading {data}: {e}"))?;
                let content_type = if data.ends_with(".json") {
                    "application/json"
                } else {
                    "text/csv"
                };
                let query = match flags.optional("format") {
                    Some("csv") => "?format=csv",
                    Some("json") | None => "",
                    Some(other) => return Err(format!("unknown --format `{other}` (csv|json)")),
                };
                obs::http_post(&format!("{base}/{sub}{query}"), content_type, &body)
            }
            "get" => {
                let path = positional
                    .ok_or("client get needs a path, e.g. fixctl client get /readyz --addr ...")?;
                obs::http_request("GET", &format!("{base}{path}"), "text/plain", b"")
            }
            "rules" => {
                let path = positional
                    .or_else(|| flags.optional("rules"))
                    .ok_or_else(|| {
                        "client rules needs a rule file: fixctl client rules rules.frl --addr ..."
                            .to_string()
                    })?;
                let body = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
                obs::http_post(&format!("{base}/rules"), "text/plain", &body)
            }
            "shutdown" => obs::http_post(&format!("{base}/shutdown"), "text/plain", b""),
            other => return Err(format!("unknown client subcommand `{other}`")),
        }
        .map_err(|e| format!("talking to {base}: {e}"))?;
    if let Some((_, trace_id)) = reply
        .headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("x-trace-id"))
    {
        eprintln!("trace id: {trace_id}");
    }
    out!("{}", reply.body);
    if !reply.body.ends_with('\n') {
        outln!();
    }
    Ok(if reply.status < 400 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_resolve(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let (_table, mut rules, symbols) = load(flags, obs_ctx)?;
    let strategy = match flags.optional("strategy").unwrap_or("shrink") {
        "shrink" => Strategy::ShrinkNegatives,
        "drop" => Strategy::Conservative,
        other => return Err(format!("unknown strategy `{other}` (shrink|drop)")),
    };
    let before = rules.len();
    let log = {
        let _span = obs_ctx.span("resolve");
        ensure_consistent(&mut rules, strategy)
    };
    outln!(
        "resolved in {} round(s): {} negative pattern(s) removed, {} rule(s) removed ({} -> {})",
        log.rounds,
        log.negatives_removed(),
        log.rules_removed(),
        before,
        rules.len()
    );
    let out = flags.required("out")?;
    std::fs::write(out, format_rules(&rules, &symbols))
        .map_err(|e| format!("writing {out}: {e}"))?;
    outln!("wrote {out}");
    Ok(())
}

/// `fixctl repair`: gate Σ, then repair every row into `--out`. The two
/// engines differ only in how rows are read, repaired and written:
/// `lrepair` runs [`run_pipeline`], which repairs the input chunk by
/// chunk on the `--threads` workers and writes each chunk back from its own
/// bytes, re-rendering only the rows it touched or that hold a `"`;
/// `stream` repairs each record as it is read, on one thread. Neither
/// holds the table, so neither's memory grows with the input. Both gate
/// before `--out` is created, and `lrepair` renames `--out` into place
/// only once it is whole ([`OutFile`]).
fn cmd_repair(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    flags.only(REPAIR_FLAGS)?;
    let engine = flags.optional("engine").unwrap_or("lrepair");
    let stream = match engine {
        "lrepair" => false,
        "stream" => true,
        other => return Err(format!("unknown engine `{other}` (lrepair|stream)")),
    };
    if stream {
        if threads_flag(flags)?.is_some_and(|n| n > 1) {
            return Err(
                "--threads does not apply to the stream engine (one pass, one reader)".to_string(),
            );
        }
        if flags.optional("updates-log").is_some() {
            return Err(
                "--updates-log does not apply to the stream engine (it keeps no update log)"
                    .to_string(),
            );
        }
    } else if flags.optional("quality-window").is_some() {
        return Err(
            "--quality-window only applies to the stream engine (got `lrepair`)".to_string(),
        );
    }
    let threads = worker_threads(flags)?;
    let data_path = flags.required("data")?;
    let rules_path = flags.required("rules")?;
    let out = flags.required("out")?;
    let (schema, rules, symbols) = {
        let _span = obs_ctx.span("load");
        read_sigma(data_path, rules_path)?
    };
    // As `load` reports them, a bad data file comes before a bad rule file,
    // which comes before an inconsistent Σ; `lrepair` reads the data only
    // in its pipeline, so on those paths it reads the data through first.
    let data_first = |error: String| {
        if stream {
            return error;
        }
        read_data(data_path, &schema, &SymbolTable::new(), threads)
            .err()
            .unwrap_or(error)
    };
    let rules = rules.map_err(data_first)?;
    if stream {
        obs::info!("load.done", rules = rules.len(), constants = symbols.len());
    }
    require_consistent(&rules, obs_ctx).map_err(data_first)?;
    // `--quality-window` hangs a QualityMonitor off the observer chain:
    // tumbling windows of sketches over the incoming stream, summarized
    // as a per-window table after the run.
    let quality = match flags.optional("quality-window") {
        Some(n) => {
            let window: usize = n
                .parse()
                .ok()
                .filter(|&w| w >= 1)
                .ok_or_else(|| format!("--quality-window: bad value `{n}` (rows >= 1)"))?;
            let cfg = QualityConfig {
                window_rows: window,
                alerts: flags
                    .optional("quality-alert")
                    .map_or(Ok(Vec::new()), AlertRule::parse_list)?,
                ..QualityConfig::default()
            };
            let names = rules.schema().attr_names().map(str::to_string).collect();
            Some(QualityMonitor::new(cfg, names).with_registry(&obs_ctx.registry))
        }
        None => None,
    };
    let ledger = ProvenanceLedger::new();
    // Optional observers (provenance for `--trace`, attribution for
    // `--profile*`, quality for `--quality-window`) tee onto the metrics
    // observer as trait objects. The blanket `impl RepairObserver for &T`
    // lets every generic driver take the assembled `&dyn` chain, instead
    // of monomorphizing each Tee/no-Tee combination per engine.
    let attribution = attribution_for(flags, obs_ctx, &rules);
    let prov = obs_ctx
        .journal
        .is_some()
        .then(|| ProvenanceObserver::new(&rules, &ledger));
    let tee_prov;
    let tee_attr;
    let tee_quality;
    let mut observer: &dyn RepairObserver = &obs_ctx.observer;
    if let Some(p) = &prov {
        tee_prov = Tee(observer, p as &dyn RepairObserver);
        observer = &tee_prov;
    }
    if let Some(a) = &attribution {
        tee_attr = Tee(observer, a as &dyn RepairObserver);
        observer = &tee_attr;
    }
    if let Some(q) = &quality {
        tee_quality = Tee(observer, q as &dyn RepairObserver);
        observer = &tee_quality;
    }
    let index = {
        let _span = obs_ctx.span("index_build");
        LRepairIndex::build(&rules)
    };
    let (stats, updates, out_file) = if stream {
        let reader =
            std::fs::File::open(data_path).map_err(|e| format!("opening {data_path}: {e}"))?;
        let writer = std::io::BufWriter::new(
            std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?,
        );
        let _span = obs_ctx.span("repair");
        let stats = stream_repair_csv(&rules, &index, &symbols, reader, writer, &observer)
            .map_err(|e| format!("streaming: {e}"))?;
        (stats, Vec::new(), None)
    } else {
        let _span = obs_ctx.span("repair");
        let mut out_file = OutFile::create(out, data_path)?;
        let (stats, updates) = run_pipeline(
            &rules,
            &symbols,
            &index,
            threads,
            data_path,
            &mut out_file.file,
            &observer,
            flags.optional("updates-log").is_some(),
            obs_ctx,
        )
        .map_err(|e| match e {
            PipelineError::Read(e) => format!("reading {data_path}: {e}"),
            PipelineError::Write(e) => format!("writing {out}: {e}"),
        })?;
        obs::info!(
            "load.done",
            rows = stats.rows,
            rules = rules.len(),
            constants = symbols.len()
        );
        (stats, updates, Some(out_file))
    };
    if let Some(journal) = &obs_ctx.journal {
        write_trace_events(journal, &rules, &symbols, &ledger, engine);
    }
    obs::info!(
        "repair.done",
        algo = engine,
        rows = stats.rows,
        updates = stats.updates,
        rows_touched = stats.rows_touched
    );
    outln!(
        "{} update(s) across {} row(s) of {}{}",
        stats.updates,
        stats.rows_touched,
        stats.rows,
        if stream { " (streamed)" } else { "" }
    );
    if let Some(out_file) = out_file {
        let _span = obs_ctx.span("write");
        out_file.commit()?;
    }
    if let Some(quality) = &quality {
        // Seal the trailing partial window so the table covers every
        // row, then print the per-window signal summary.
        quality.flush();
        out!("{}", quality.render_table());
        if let Some(path) = flags.optional("quality-json") {
            std::fs::write(path, quality.snapshot().to_string_pretty() + "\n")
                .map_err(|e| format!("writing {path}: {e}"))?;
            obs::info!("quality.written", path = path);
        }
    }
    outln!("wrote {out}");
    if let Some(log_path) = flags.optional("updates-log") {
        let schema = rules.schema();
        let mut log = Vec::new();
        relation::csv_io::push_record(&mut log, ["row", "attribute", "old", "new", "rule"]);
        for u in &updates {
            let (row, rule) = (u.row.to_string(), u.rule.0.to_string());
            relation::csv_io::push_record(
                &mut log,
                [
                    row.as_str(),
                    schema.attr_name(u.attr),
                    symbols.resolve(u.old),
                    symbols.resolve(u.new),
                    rule.as_str(),
                ],
            );
        }
        std::fs::write(log_path, log).map_err(|e| format!("writing {log_path}: {e}"))?;
        outln!("wrote {log_path}");
    }
    emit_profile(flags, attribution.as_ref())?;
    Ok(())
}

/// `repair`'s default engine: [`par_repair_csv`] with one [`LRepairWorker`]
/// per worker, so each chunk of `data` is scanned, repaired, rendered and
/// written to `out` once, and no table is built (DESIGN.md §18). Returns
/// the run's totals and, if `keep_log`, every update in row order; each
/// worker's tallies and [`Event::WorkerDone`] go to `observer`, and the
/// pipeline's busy time per phase to `pipeline.*_ns` counters.
#[allow(clippy::too_many_arguments)]
fn run_pipeline<O: RepairObserver>(
    rules: &RuleSet,
    symbols: &SymbolTable,
    index: &LRepairIndex,
    threads: usize,
    data: &str,
    out: &mut std::fs::File,
    observer: &O,
    keep_log: bool,
    obs_ctx: &ObsCtx,
) -> Result<(RepairStats, Vec<CellUpdate>), PipelineError> {
    let run = par_repair_csv(
        data,
        rules.schema(),
        symbols,
        out,
        threads,
        |w| PipelineWorker {
            lrepair: LRepairWorker::new(rules, index, observer, w),
            log: Vec::new(),
            updates: 0,
            rows_touched: 0,
        },
        |w, mut chunk| {
            let from = w.log.len();
            w.lrepair
                .repair_rows(chunk.first_row, chunk.cells, &mut w.log);
            let mut last = None;
            for u in &w.log[from..] {
                if last != Some(u.row) {
                    chunk.touch(u.row - chunk.first_row);
                    w.rows_touched += 1;
                    last = Some(u.row);
                }
            }
            w.updates += w.log.len() - from;
            if !keep_log {
                w.log.truncate(from);
            }
        },
    )?;
    let times = run.times;
    for (phase, ns) in [
        ("scan", times.scan_ns),
        ("repair", times.repair_ns),
        ("render", times.render_ns),
        ("write", times.write_ns),
        ("wait", times.wait_ns),
    ] {
        obs_ctx
            .registry
            .counter(&format!("pipeline.{phase}_ns"))
            .add(ns);
    }
    let mut stats = RepairStats {
        rows: run.rows,
        ..RepairStats::default()
    };
    let mut updates = Vec::new();
    for w in run.workers {
        stats.updates += w.updates;
        stats.rows_touched += w.rows_touched;
        updates.extend(w.log);
        w.lrepair.finish();
    }
    // Each worker's log is in row order and no two share a row, so a
    // stable sort by row merges them and keeps each row's own order.
    updates.sort_by_key(|u| u.row);
    Ok((stats, updates))
}

/// A [`run_pipeline`] worker: its lRepair state and what it repaired.
struct PipelineWorker<'a, O: RepairObserver> {
    lrepair: LRepairWorker<'a, O>,
    /// Its updates in row order, kept only for `--updates-log`.
    log: Vec<CellUpdate>,
    updates: usize,
    rows_touched: usize,
}

/// `repair`'s `--out`, written through a temporary file that is renamed
/// into place once the output is whole: a failed run creates no `--out`
/// and leaves an existing one as it was, and `--out` may be `--data`
/// itself. A link is followed: the temporary file goes beside the file it
/// names and replaces that file, so the link stays a link. The rename
/// gives the file a new inode with the old one's mode; its owner, ACLs
/// and other hard links are not carried over.
///
/// Written in place instead, with no rename: an `--out` that is not a
/// regular file (`/dev/stdout`, a pipe), a dangling link, and an existing
/// file beside which no temporary file may be made (its directory is not
/// writable). Such an `--out` must not be `--data`, which the run has yet
/// to read.
struct OutFile {
    /// `--out` as given, for messages.
    name: String,
    /// The temporary file and the path it replaces, until the rename.
    temp: Option<(std::path::PathBuf, std::path::PathBuf)>,
    file: std::fs::File,
}

impl OutFile {
    /// Open `out` for a run that will read `data`.
    fn create(out: &str, data: &str) -> Result<OutFile, String> {
        let error =
            |e: std::io::Error| format!("writing {out}: {}", relation::RelationError::from(e));
        let in_place = || {
            if same_file(out, data) {
                return Err(format!(
                    "writing {out}: it is --data, and a temporary file cannot replace it"
                ));
            }
            let file = std::fs::File::create(out).map_err(error)?;
            Ok(OutFile {
                name: out.to_string(),
                temp: None,
                file,
            })
        };
        let existing = match std::fs::metadata(out) {
            Ok(meta) if meta.is_file() => Some(meta),
            Ok(_) => return in_place(),
            Err(_) if std::fs::symlink_metadata(out).is_ok() => return in_place(),
            Err(_) => None,
        };
        let target = match existing {
            Some(_) => std::fs::canonicalize(out).map_err(error)?,
            None => std::path::PathBuf::from(out),
        };
        let Some(name) = target.file_name() else {
            return in_place();
        };
        let temp = target.with_file_name(format!(
            ".{}.{}.tmp",
            name.to_string_lossy(),
            std::process::id()
        ));
        let file = match std::fs::File::create(&temp) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied && existing.is_some() => {
                return in_place()
            }
            Err(e) => return Err(error(e)),
        };
        let out_file = OutFile {
            name: out.to_string(),
            temp: Some((temp, target)),
            file,
        };
        if let (Some(meta), Some((temp, _))) = (existing, &out_file.temp) {
            std::fs::set_permissions(temp, meta.permissions()).map_err(error)?;
        }
        Ok(out_file)
    }

    /// Flush the output and rename it into place.
    fn commit(mut self) -> Result<(), String> {
        use std::io::Write;
        let error = |e: std::io::Error| {
            format!(
                "writing {}: {}",
                self.name,
                relation::RelationError::from(e)
            )
        };
        self.file.flush().map_err(error)?;
        if let Some((temp, target)) = &self.temp {
            std::fs::rename(temp, target).map_err(error)?;
        }
        self.temp = None;
        Ok(())
    }
}

impl Drop for OutFile {
    fn drop(&mut self) {
        if let Some((temp, _)) = &self.temp {
            let _ = std::fs::remove_file(temp);
        }
    }
}

/// Whether two paths name one file, following links.
fn same_file(a: &str, b: &str) -> bool {
    match (std::fs::metadata(a), std::fs::metadata(b)) {
        #[cfg(unix)]
        (Ok(a), Ok(b)) => {
            use std::os::unix::fs::MetadataExt;
            a.dev() == b.dev() && a.ino() == b.ino()
        }
        #[cfg(not(unix))]
        (Ok(_), Ok(_)) => {
            matches!((std::fs::canonicalize(a), std::fs::canonicalize(b)), (Ok(a), Ok(b)) if a == b)
        }
        _ => false,
    }
}

/// Dump the run metadata, rule texts, and provenance ledger into the trace
/// journal as instant events; `fixctl explain` reconstructs rule chains
/// from exactly these records.
fn write_trace_events(
    journal: &TraceJournal,
    rules: &RuleSet,
    symbols: &SymbolTable,
    ledger: &ProvenanceLedger,
    algo: &str,
) {
    let schema = rules.schema();
    let attrs: Vec<Json> = schema.attr_names().map(Json::from).collect();
    journal.event(
        "trace.meta",
        0,
        Json::obj([
            ("algo", Json::from(algo)),
            ("attrs", Json::Arr(attrs)),
            ("schema", Json::from(schema.name())),
        ]),
    );
    for (id, rule) in rules.iter() {
        journal.event(
            "rule",
            0,
            Json::obj([
                ("id", Json::from(u64::from(id.0))),
                (
                    "text",
                    Json::from(format_rule(rule, schema, symbols).as_str()),
                ),
            ]),
        );
    }
    for rec in ledger.records() {
        journal.event("repair.cell", 0, rec.to_json(schema, symbols));
    }
}

/// Reconstruct and render the causal rule chain behind one repaired cell,
/// from a journal written by `fixctl repair --trace`. Exit status: 1 when
/// the cell was never repaired, 0 when a chain is rendered.
fn cmd_explain(positional: Option<&str>, flags: &Flags) -> Result<ExitCode, String> {
    let path = positional
        .or_else(|| flags.optional("trace"))
        .ok_or("explain needs a journal: fixctl explain <trace.jsonl> --row N --attr NAME")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let records = parse_jsonl(&text)?;
    // Rebuild the run context from the journal's instant events.
    let meta = records
        .iter()
        .find(|r| r.phase == TracePhase::Event && r.name == "trace.meta")
        .ok_or("journal has no `trace.meta` event (was it written by `fixctl repair --trace`?)")?;
    let attr_names: Vec<String> = meta
        .fields
        .get("attrs")
        .and_then(Json::as_arr)
        .ok_or("trace.meta has no `attrs` array")?
        .iter()
        .filter_map(|a| a.as_str().map(str::to_string))
        .collect();
    let schema_name = meta
        .fields
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("R");
    let algo = meta
        .fields
        .get("algo")
        .and_then(Json::as_str)
        .unwrap_or("?");
    let schema = Schema::new(schema_name, attr_names.iter().map(String::as_str))
        .map_err(|e| e.to_string())?;
    let mut rule_texts: Vec<String> = Vec::new();
    for r in &records {
        if r.phase != TracePhase::Event || r.name != "rule" {
            continue;
        }
        let Some(id) = r.fields.get("id").and_then(Json::as_i64) else {
            continue;
        };
        let rule_text = r.fields.get("text").and_then(Json::as_str).unwrap_or("");
        let id = id as usize;
        if rule_texts.len() <= id {
            rule_texts.resize(id + 1, String::new());
        }
        rule_texts[id] = rule_text.to_string();
    }
    let mut symbols = SymbolTable::new();
    let mut cells: Vec<ProvenanceRecord> = Vec::new();
    for r in &records {
        if r.phase == TracePhase::Event && r.name == "repair.cell" {
            cells.push(ProvenanceRecord::from_json(
                &r.fields,
                &schema,
                &mut symbols,
            )?);
        }
    }
    let row: usize = flags
        .required("row")?
        .parse()
        .map_err(|_| "--row takes a 0-based row index".to_string())?;
    let attr_name = flags.required("attr")?;
    let attr = schema.attr(attr_name).ok_or_else(|| {
        format!(
            "unknown attribute `{attr_name}` (schema: {})",
            attr_names.join(", ")
        )
    })?;
    let mut row_records: Vec<ProvenanceRecord> =
        cells.into_iter().filter(|r| r.row == row).collect();
    row_records.sort_by_key(|r| r.ordinal);
    let chain_ix = fixrules::provenance::chain(&row_records, attr);
    if chain_ix.is_empty() {
        outln!("no repair recorded for row {row}, attribute `{attr_name}`");
        return Ok(ExitCode::from(1));
    }
    let chain: Vec<&ProvenanceRecord> = chain_ix.iter().map(|&i| &row_records[i]).collect();
    // Render rustc-style over a synthesized "source" where line N holds the
    // text of rule N-1, so each chain link underlines the rule that fired.
    let source = rule_texts.join("\n");
    let last = chain.last().expect("chain is non-empty");
    let header = format!(
        "fix[row {row}, {attr_name}]: \"{}\" -> \"{}\"",
        symbols.resolve(last.old),
        symbols.resolve(last.new)
    );
    let location = format!("{path} (row {row})");
    let mut excerpts = Vec::new();
    for (step, rec) in chain.iter().enumerate() {
        let rule_ix = rec.rule.0 as usize;
        let text_len = rule_texts.get(rule_ix).map_or(1, |t| t.len().max(1));
        let evidence: Vec<String> = rec
            .evidence
            .iter()
            .map(|&(a, v)| format!("{} = \"{}\"", schema.attr_name(a), symbols.resolve(v)))
            .collect();
        excerpts.push(fixlint::Excerpt {
            span: Span::new(rule_ix + 1, 1, text_len),
            marker: if step + 1 == chain.len() { '^' } else { '-' },
            label: format!(
                "step {}: {} \"{}\" -> \"{}\" (round {}, evidence: {})",
                step + 1,
                schema.attr_name(rec.attr),
                symbols.resolve(rec.old),
                symbols.resolve(rec.new),
                rec.round,
                evidence.join(", ")
            ),
        });
    }
    let notes = vec![format!(
        "chain of {} rule application(s) recorded by `{algo}`",
        chain.len()
    )];
    out!(
        "{}",
        fixlint::render_block(&header, &location, &excerpts, &notes, &source)
    );
    Ok(ExitCode::SUCCESS)
}

/// Convert a JSONL trace journal to Chrome trace-event JSON (viewable in
/// Perfetto / `chrome://tracing`).
fn cmd_trace_export(positional: Option<&str>, flags: &Flags) -> Result<(), String> {
    let path = positional.or_else(|| flags.optional("trace")).ok_or(
        "trace export needs a journal: fixctl trace export <trace.jsonl> --chrome out.json",
    )?;
    let out = flags.required("chrome")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let records = parse_jsonl(&text)?;
    let chrome = chrome_trace(&records);
    std::fs::write(out, chrome.to_string_pretty() + "\n")
        .map_err(|e| format!("writing {out}: {e}"))?;
    outln!("wrote {out} ({} trace event(s))", records.len());
    Ok(())
}

fn cmd_stats(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let (table, rules, _symbols) = load(flags, obs_ctx)?;
    outln!("schema: {}", table.schema());
    outln!("data:   {} rows", table.len());
    outln!("rules:  {} (size(Σ) = {})", rules.len(), rules.size());
    let mut by_b: HashMap<&str, usize> = HashMap::new();
    let mut neg_total = 0usize;
    let mut neg_max = 0usize;
    for (_, rule) in rules.iter() {
        *by_b.entry(table.schema().attr_name(rule.b())).or_insert(0) += 1;
        neg_total += rule.neg().len();
        neg_max = neg_max.max(rule.neg().len());
    }
    if !rules.is_empty() {
        outln!(
            "negative patterns: {} total, {:.1} avg, {} max",
            neg_total,
            neg_total as f64 / rules.len() as f64,
            neg_max
        );
    }
    let mut attrs: Vec<(&str, usize)> = by_b.into_iter().collect();
    attrs.sort_by_key(|&(attr, n)| (std::cmp::Reverse(n), attr));
    outln!("rules per repaired attribute:");
    for (attr, n) in attrs {
        outln!("  {attr:<20} {n}");
    }
    Ok(())
}
