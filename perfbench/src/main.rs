//! `perfbench` — the end-to-end benchmark for `fixctl repair` and `fixd`.
//!
//! ```text
//! perfbench --workload <cli-dup|cli-distinct> --seed <n>
//!           --seconds <s> --trace <0|1> --bin-dir <dir with fixctl and fixd>
//! ```
//!
//! `run.sh` builds the binaries and this program, then runs it from the
//! repository root. Inputs are generated from `--seed` (see `inputs`) and
//! cached under `.perfbench_work/`. Every output is checked against the
//! paper's reference repair; a wrong answer counts as a failed operation.
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics.
//! With `--trace 1` it instead drives both user paths with benchmark-side
//! spans on — `fixctl repair` over the workload's table, and `fixd` with
//! the fixd-mixed traffic over the distinct table — times each layer's
//! public calls in-process, reads the stage figures the binaries emit, and
//! writes the spans to `.perfbench_work/`.
//!
//! The report is printed as a table, and the last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod cli;
mod fixd;
mod inputs;
mod layers;
mod proc;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::Samples;
use trace::Tracer;

const WORKLOADS: [&str; 2] = ["cli-dup", "cli-distinct"];
const WORK_DIR: &str = ".perfbench_work";

/// Operations attempted and failed. A failure is a non-zero exit, a
/// non-200 response, or output that differs from the reference.
#[derive(Default)]
pub struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Report(Vec<Metric>);

impl Report {
    /// Record `name`; `samples` is the sample count behind the figure.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn add_quantiles(&mut self, prefix: &str, ms: &Samples) {
        self.add(&format!("{prefix}_p50"), ms.median(), "ms", ms.len());
        self.add(&format!("{prefix}_p90"), ms.quantile(0.9), "ms", ms.len());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => trace = Some(number(&value)? != 0),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        bin_dir: bin_dir.ok_or("missing --bin-dir")?,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let work = Path::new(WORK_DIR);
    std::fs::create_dir_all(work).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let fixctl = args.bin_dir.join("fixctl");
    let fixd = args.bin_dir.join("fixd");
    for bin in [&fixctl, &fixd] {
        if !bin.is_file() {
            return Err(format!("{} is not built", bin.display()));
        }
    }

    let files = inputs::ensure(work, args.seed)?;
    let data = if args.workload == "cli-dup" {
        &files.dup
    } else {
        &files.distinct
    };
    let reference = inputs::reference(data, &files.rules)?;
    let rules_text = std::fs::read_to_string(&files.rules).map_err(|e| e.to_string())?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} rows={} inputs={} gen_s={:.3}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        reference.rows(),
        if files.cached { "cached" } else { "generated" },
        files.gen_s,
    );

    let tracer = Tracer::new(&args.workload, args.trace);
    let mut report = Report::default();
    let mut tally = Tally::default();
    let fixctl = cli::Fixctl {
        bin: &fixctl,
        rules: &files.rules,
        work,
    };
    let seconds = args.seconds as f64;
    if args.trace {
        let _run = tracer.span("run");
        let repairs = fixctl.repairs(
            data,
            &reference.expected,
            seconds / 2.0,
            cli::Mode::Traced(&tracer),
            &mut tally,
        )?;
        let cli_wall = repairs.wall_s.median();
        for (stage, metric) in [
            ("load", "cli.load_s"),
            ("consistency_check", "cli.consistency_s"),
            ("repair", "cli.repair_s"),
            ("write", "cli.write_s"),
        ] {
            let samples = repairs
                .stages
                .iter()
                .find(|(name, _)| name == stage)
                .map(|(_, s)| s)
                .ok_or_else(|| format!("fixctl --metrics has no stage.{stage}_ns"))?;
            report.add(metric, samples.median(), "s", samples.len());
        }
        report.add("cli.wall_s", cli_wall, "s", repairs.wall_s.len());
        report.add(
            "cli.stage_residual_frac",
            repairs.residual.median(),
            "ratio",
            repairs.residual.len(),
        );

        layers::cli_path(
            &tracer,
            data,
            &rules_text,
            &reference,
            work,
            &mut report,
            &mut tally,
        )?;
        layers::boot_path(&tracer, &rules_text, &reference.attr_names, &mut report)?;

        // fixd always serves the fixd-mixed traffic: hot batches from the
        // first rows of D, fresh ones from the rest of D.
        let distinct_reference;
        let fixd_reference = if data == &files.distinct {
            &reference
        } else {
            distinct_reference = inputs::reference(&files.distinct, &files.rules)?;
            &distinct_reference
        };
        let schedule = fixd::Schedule::new(args.seed, fixd_reference.rows());
        let overhead_ms = layers::fixd_path(
            &tracer,
            &rules_text,
            fixd_reference,
            &schedule,
            args.seed,
            &mut report,
            &mut tally,
        )?;

        let journal = work.join("fixd-journal.jsonl");
        let _ = std::fs::remove_file(&journal);
        let daemon =
            fixd::Daemon::boot(&fixd, &files.rules, &fixd_reference.header, Some(&journal))?;
        let boot_s = daemon.boot_s;
        let traffic = fixd::drive(
            &daemon,
            &schedule,
            fixd_reference,
            args.seed,
            &tracer,
            &mut tally,
        )?;
        let server = server_metrics(&daemon)?;
        let rss = proc::vm_hwm_mb(daemon.pid())?;
        daemon.shutdown()?;
        let journal_records = std::fs::read_to_string(&journal)
            .map_err(|e| format!("{}: {e}", journal.display()))?
            .lines()
            .count();

        let client_repair_ms = traffic.repair_ms.mean();
        // The daemon's own end-to-end figures from this one lifetime.
        report.add("fixd.setup_s", boot_s, "s", 1);
        report.add(
            "fixd.rows_per_s",
            traffic.rows as f64 / traffic.wall_s,
            "rows/s",
            traffic.repair_ms.len(),
        );
        report.add_quantiles("fixd.repair_ms", &traffic.repair_ms);
        report.add("fixd.peak_rss_mb", rss, "MiB", 1);
        report.add(
            "fixd.server_repair_ms_mean",
            server.repair_ms,
            "ms",
            server.repairs,
        );
        report.add(
            "fixd.server_explain_ms_mean",
            server.explain_ms,
            "ms",
            server.explains,
        );
        report.add(
            "fixd.repair_stage_ms_mean",
            server.stage_ms,
            "ms",
            server.repairs,
        );
        report.add(
            "fixd.outside_server_ms",
            client_repair_ms - server.repair_ms,
            "ms",
            traffic.repair_ms.len(),
        );
        report.add(
            "fixd.repair_ms_p99",
            traffic.repair_ms.quantile(0.99),
            "ms",
            traffic.repair_ms.len(),
        );
        report.add(
            "fixd.explain_ms_p50",
            traffic.explain_ms.median(),
            "ms",
            traffic.explain_ms.len(),
        );
        report.add("obs.journal_records", journal_records as f64, "count", 1);

        report.add(
            "trace.overhead_ms",
            overhead_ms.traced.mean() - overhead_ms.untraced.mean(),
            "ms",
            overhead_ms.traced.len() + overhead_ms.untraced.len(),
        );
        layers::shares(
            &tracer,
            "path.cli",
            "cli",
            &["relation", "core"],
            cli_wall,
            &mut report,
        );
        layers::shares(
            &tracer,
            "path.fixd",
            "fixd",
            &["relation", "core", "obs"],
            client_repair_ms * 1e-3,
            &mut report,
        );
        layers::shares(
            &tracer,
            "path.boot",
            "boot",
            &["analyzer", "core"],
            boot_s,
            &mut report,
        );
    } else {
        let repairs = fixctl.repairs(
            data,
            &reference.expected,
            seconds,
            cli::Mode::Measured {
                header: &files.header,
            },
            &mut tally,
        )?;
        report.add(
            "setup_s",
            repairs.setup_s.median(),
            "s",
            repairs.setup_s.len(),
        );
        report.add(
            "rows_per_s",
            reference.rows() as f64 / repairs.wall_s.median(),
            "rows/s",
            repairs.wall_s.len(),
        );
        report.add(
            "peak_rss_mb",
            proc::children_peak_rss_mb()?,
            "MiB",
            repairs.wall_s.len(),
        );
    }

    if args.trace {
        let path = work.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    print_report(&report, &tally);
    Ok(())
}

struct ServerMetrics {
    repair_ms: f64,
    repairs: usize,
    explain_ms: f64,
    explains: usize,
    stage_ms: f64,
}

/// Mean server-side latencies from `GET /metrics.json`, as `_sum/_count`.
fn server_metrics(daemon: &fixd::Daemon) -> Result<ServerMetrics, String> {
    let (status, body) = fixd::http(daemon.addr, "GET", "/metrics.json", b"")?;
    if status != 200 {
        return Err(format!("GET /metrics.json: HTTP {status}"));
    }
    let json = obs::json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
    let mean = |key: &str| -> Result<(f64, usize), String> {
        let hist = json
            .get("histograms")
            .and_then(|h| h.get(key))
            .ok_or_else(|| format!("/metrics.json has no {key}"))?;
        let sum = hist.get("sum").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let count = hist.get("count").and_then(|v| v.as_i64()).unwrap_or(0);
        Ok((sum / count.max(1) as f64 * 1e-6, count as usize))
    };
    let (repair_ms, repairs) = mean("http.latency_ns{endpoint=\"repair\"}")?;
    let (explain_ms, explains) = mean("http.latency_ns{endpoint=\"explain\"}")?;
    let (stage_ms, _) = mean("serve.repair_stage_ns{cache=\"on\"}")?;
    Ok(ServerMetrics {
        repair_ms,
        repairs,
        explain_ms,
        explains,
        stage_ms,
    })
}

fn print_report(report: &Report, tally: &Tally) {
    println!("{:<34} {:>16} {:<8} samples", "metric", "value", "unit");
    for m in &report.0 {
        println!(
            "{:<34} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "error_rate {} ({} failed of {} operations)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let metrics: Vec<String> = report
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
}

/// JSON has no NaN or infinity; report those as null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
