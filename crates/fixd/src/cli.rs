//! The daemon's command line: one flag parser and one usage text, shared
//! by the `fixd` binary and `fixctl serve`.

use obs::log::Level;
use obs::AlertRule;

use crate::{Daemon, DaemonConfig, RulesSource, SchemaSource};

const USAGE: &str = "\
fixd — long-running fixing-rules repair daemon

USAGE:
    fixd --rules <file.frl> [options]
    fixctl serve --rules <file.frl> [options]

OPTIONS:
    --rules <file>            rule file to load, lint, and index (required)
    --addr <host:port>        bind address (default 127.0.0.1:0)
    --threads <n>             worker threads (default 4)
    --schema <a,b,c>          explicit schema (default: inferred from rules)
    --journal <file.jsonl>    flush the trace journal here on shutdown
    --trace-clock <logical|wall>  journal clock (default logical)
    --trace-sample <n>        row.repaired journal events per request (default 16)
    --slo-window <n>          rolling SLO window size (default 512)
    --slo-min-samples <n>     samples before the SLO applies (default 20)
    --slo-max-error-rate <f>  readiness error-rate ceiling (default 0.05)
    --slo-max-p99-ms <n>      readiness p99 latency ceiling (default 2000)
    --quality-window <n>      rows per repair-quality window (default 256, 0 disables)
    --quality-alert <specs>   alert rules, e.g. drift>0.5,repair_rate:city>0.25
    --quality-gate            firing quality alerts turn /readyz red
    --log <off|info|debug>    structured progress lines on stderr (default off)

ENDPOINTS:
    POST /repair    POST /check    POST /rules    GET /explain/{row}/{attr}
    GET /trace/{id}    GET /quality    GET /metrics    GET /metrics.json
    GET /healthz    GET /readyz    POST /shutdown
";

/// Run the daemon from its command-line arguments (program name
/// excluded): parse the flags, start, print the
/// `fixd listening on http://ADDR` banner, and block until
/// `POST /shutdown` drains it. `--help` prints the usage text instead.
/// Errors are flag or startup failures, for the caller to report.
pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }
    let (config, log) = parse(args)?;
    if let Some(level) = log {
        obs::log::set_level(level);
    }
    let daemon = Daemon::start(config).map_err(|e| format!("starting fixd: {e}"))?;
    // Parseable by scripts waiting for the ephemeral port.
    println!("fixd listening on http://{}", daemon.addr());
    daemon.wait();
    Ok(())
}

/// The daemon config the flags describe, plus the `--log` level.
fn parse(args: &[String]) -> Result<(DaemonConfig, Option<Level>), String> {
    let mut config = DaemonConfig::default();
    let mut rules = None;
    let mut log = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--rules" => rules = Some(value()?.to_string()),
            "--addr" => config.addr = value()?.to_string(),
            "--threads" => config.threads = parse_value(flag, value()?)?,
            "--schema" => {
                config.schema =
                    SchemaSource::Names(value()?.split(',').map(|s| s.trim().to_string()).collect())
            }
            "--journal" => config.journal_path = Some(value()?.to_string()),
            "--trace-clock" => config.trace_clock = value()?.parse()?,
            "--trace-sample" => config.trace_sample = parse_value(flag, value()?)?,
            "--slo-window" => config.slo.window = parse_value(flag, value()?)?,
            "--slo-min-samples" => config.slo.min_samples = parse_value(flag, value()?)?,
            "--slo-max-error-rate" => config.slo.max_error_rate = parse_value(flag, value()?)?,
            "--slo-max-p99-ms" => {
                let ms: u64 = parse_value(flag, value()?)?;
                config.slo.max_p99_ns = ms.saturating_mul(1_000_000);
            }
            "--quality-window" => config.quality_window = parse_value(flag, value()?)?,
            "--quality-alert" => config.quality_alerts = AlertRule::parse_list(value()?)?,
            "--quality-gate" => config.quality_gate = true,
            "--log" => log = Some(value()?.parse()?),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    config.rules = RulesSource::Path(rules.ok_or("missing required flag --rules")?);
    if config.quality_gate && config.quality_window == 0 {
        return Err("--quality-gate needs quality monitoring (--quality-window > 0)".to_string());
    }
    Ok((config, log))
}

fn parse_value<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: bad value `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Every flag listed under OPTIONS, in the order it appears there.
    fn usage_flags() -> Vec<&'static str> {
        USAGE
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("--"))
            .map(|rest| &rest[..rest.find(' ').unwrap_or(rest.len())])
            .collect()
    }

    #[test]
    fn every_usage_flag_sets_its_config_field() {
        let default = DaemonConfig::default();
        // One non-default value per flag, and a check that it landed.
        type Check = fn(&DaemonConfig, Option<Level>) -> bool;
        let cases: &[(&str, Option<&str>, Check)] = &[
            (
                "rules",
                Some("r.frl"),
                |c, _| matches!(&c.rules, RulesSource::Path(p) if p == "r.frl"),
            ),
            ("addr", Some("127.0.0.1:9"), |c, _| c.addr == "127.0.0.1:9"),
            ("threads", Some("3"), |c, _| c.threads == 3),
            (
                "schema",
                Some("a, b"),
                |c, _| matches!(&c.schema, SchemaSource::Names(n) if n == &["a", "b"]),
            ),
            ("journal", Some("j.jsonl"), |c, _| {
                c.journal_path.as_deref() == Some("j.jsonl")
            }),
            ("trace-clock", Some("wall"), |c, _| {
                c.trace_clock == obs::TraceClock::Wall
            }),
            ("trace-sample", Some("0"), |c, _| c.trace_sample == 0),
            ("slo-window", Some("7"), |c, _| c.slo.window == 7),
            ("slo-min-samples", Some("5"), |c, _| c.slo.min_samples == 5),
            ("slo-max-error-rate", Some("0.5"), |c, _| {
                c.slo.max_error_rate == 0.5
            }),
            ("slo-max-p99-ms", Some("3"), |c, _| {
                c.slo.max_p99_ns == 3_000_000
            }),
            ("quality-window", Some("2"), |c, _| c.quality_window == 2),
            (
                "quality-alert",
                Some("drift>0.5, repair_rate:city>0.25"),
                |c, _| {
                    c.quality_alerts.len() == 2
                        && c.quality_alerts[1].to_string() == "repair_rate:city>0.25"
                },
            ),
            ("quality-gate", None, |c, _| c.quality_gate),
            ("log", Some("debug"), |_, log| log == Some(Level::Debug)),
        ];
        let listed: Vec<&str> = cases.iter().map(|(flag, _, _)| *flag).collect();
        assert_eq!(listed, usage_flags(), "usage text and parser cases diverge");

        let mut all = Vec::new();
        for (flag, value, _) in cases {
            all.push(format!("--{flag}"));
            all.extend(value.map(str::to_string));
        }
        let (config, log) = parse(&all).unwrap();
        for (flag, _, check) in cases {
            assert!(check(&config, log), "--{flag} did not set its field");
            assert!(!check(&default, None), "--{flag} case checks a default");
        }
    }

    #[test]
    fn rejects_bad_flag_sets() {
        let cases: &[(&[&str], &str)] = &[
            (
                &["--rules", "r.frl", "--engine", "chase"],
                "unknown flag --engine",
            ),
            (
                &["--rules", "r.frl", "--metrics", "m.json"],
                "unknown flag --metrics",
            ),
            (
                &["--rules", "r.frl", "--threads", "many"],
                "--threads: bad value `many`",
            ),
            (
                &["--rules", "r.frl", "--warm", "w.csv"],
                "unknown flag --warm (try --help)",
            ),
            (
                &["--rules", "r.frl", "--plan-cache", "on"],
                "unknown flag --plan-cache (try --help)",
            ),
            (
                &["--rules", "r.frl", "--trace-clock", "sundial"],
                "unknown trace clock",
            ),
            (
                &["--rules", "r.frl", "--quality-alert", "drift"],
                "missing `>threshold`",
            ),
            (&["--rules", "r.frl", "--log", "loud"], "unknown log level"),
            (&["--rules"], "--rules needs a value"),
            (&["--threads", "2"], "missing required flag --rules"),
            (
                &[
                    "--rules",
                    "r.frl",
                    "--quality-window",
                    "0",
                    "--quality-gate",
                ],
                "--quality-gate needs quality monitoring",
            ),
        ];
        for (list, expected) in cases {
            let err = parse(&args(list)).expect_err("flags must be rejected");
            assert!(err.contains(expected), "{list:?}: {err}");
        }
    }
}
