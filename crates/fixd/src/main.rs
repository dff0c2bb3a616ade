//! `fixd` — run the repair daemon from the command line.
//!
//! ```text
//! fixd --rules rules.frl [--addr 127.0.0.1:0] [--threads 4]
//!      [--schema a,b,c] [--warm data.csv]
//!      [--journal trace.jsonl] [--trace-clock logical|wall]
//!      [--cache-shards 8] [--slo-window N] [--slo-min-samples N]
//!      [--slo-max-error-rate F] [--slo-max-p99-ms N]
//! ```
//!
//! The process serves until `POST /shutdown`, then drains in-flight
//! requests, flushes the journal, and exits 0. (`fixctl serve` wraps the
//! same daemon with the full CLI's flag conventions.)

use std::process::ExitCode;

use fixd::{Daemon, DaemonConfig, RulesSource, SchemaSource};
use obs::TraceClock;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("fixd: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", USAGE);
        return Ok(ExitCode::SUCCESS);
    }
    let mut config = DaemonConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            iter.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--rules" => config.rules = RulesSource::Path(value("--rules")?.clone()),
            "--addr" => config.addr = value("--addr")?.clone(),
            "--threads" => config.threads = parse(value("--threads")?, "--threads")?,
            "--cache-shards" => {
                config.cache_shards = parse(value("--cache-shards")?, "--cache-shards")?
            }
            "--schema" => {
                config.schema = SchemaSource::Names(
                    value("--schema")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                )
            }
            "--journal" => config.journal_path = Some(value("--journal")?.clone()),
            "--plan-cache" => {
                config.plan_cache = match value("--plan-cache")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("unknown --plan-cache {other:?} (on|off)")),
                }
            }
            "--warm" => config.warm = Some(value("--warm")?.clone()),
            "--trace-clock" => {
                config.trace_clock = match value("--trace-clock")?.as_str() {
                    "logical" => TraceClock::Logical,
                    "wall" => TraceClock::Wall,
                    other => return Err(format!("unknown clock {other:?} (logical|wall)")),
                }
            }
            "--slo-window" => config.slo.window = parse(value("--slo-window")?, "--slo-window")?,
            "--slo-min-samples" => {
                config.slo.min_samples = parse(value("--slo-min-samples")?, "--slo-min-samples")?
            }
            "--slo-max-error-rate" => {
                config.slo.max_error_rate =
                    parse(value("--slo-max-error-rate")?, "--slo-max-error-rate")?
            }
            "--slo-max-p99-ms" => {
                let ms: u64 = parse(value("--slo-max-p99-ms")?, "--slo-max-p99-ms")?;
                config.slo.max_p99_ns = ms.saturating_mul(1_000_000);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if matches!(&config.rules, RulesSource::Inline(text) if text.is_empty()) {
        return Err("missing --rules <file.frl>".to_string());
    }
    let daemon = Daemon::start(config).map_err(|e| e.to_string())?;
    // Parseable by scripts waiting for the ephemeral port.
    println!("fixd listening on http://{}", daemon.addr());
    daemon.wait();
    Ok(ExitCode::SUCCESS)
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: bad value {text:?}"))
}

const USAGE: &str = "\
fixd — long-running fixing-rules repair daemon

USAGE:
    fixd --rules <file.frl> [options]

OPTIONS:
    --rules <file>            rule file to load, lint, and compile (required)
    --addr <host:port>        bind address (default 127.0.0.1:0)
    --threads <n>             worker threads (default 4)
    --schema <a,b,c>          explicit schema (default: inferred from rules)
    --warm <file.csv>         pre-warm the plan cache from a CSV at startup
    --journal <file.jsonl>    flush the trace journal here on shutdown
    --plan-cache <on|off>     shared repair-plan memoization (default on)
    --trace-clock <logical|wall>  journal clock (default logical)
    --cache-shards <n>        plan cache shards (default 8)
    --slo-window <n>          rolling SLO window size (default 512)
    --slo-min-samples <n>     samples before the SLO applies (default 20)
    --slo-max-error-rate <f>  readiness error-rate ceiling (default 0.05)
    --slo-max-p99-ms <n>      readiness p99 latency ceiling (default 2000)

ENDPOINTS:
    POST /repair    POST /check    GET /explain/{row}/{attr}
    GET /trace/{id}    GET /metrics    GET /healthz    GET /readyz
    POST /shutdown
";
