//! End-to-end tests driving the `fixctl` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fixctl"))
        .args(args)
        .output()
        .expect("spawn fixctl")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fixctl_test_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const TRAVEL_CSV: &str = "\
name,country,capital,city,conf
George,China,Beijing,Beijing,SIGMOD
Ian,China,Shanghai,Hongkong,ICDE
Peter,China,Tokyo,Tokyo,ICDE
Mike,Canada,Toronto,Toronto,VLDB
";

const GOOD_RULES: &str = r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
IF country = "Canada" AND capital IN {"Toronto"} THEN capital := "Ottawa"
IF capital = "Tokyo" AND city = "Tokyo" AND conf = "ICDE" AND country IN {"China"} THEN country := "Japan"
"#;

const BAD_RULES: &str = r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong", "Tokyo"} THEN capital := "Beijing"
IF capital = "Tokyo" AND city = "Tokyo" AND conf = "ICDE" AND country IN {"China"} THEN country := "Japan"
"#;

#[test]
fn check_accepts_consistent_rules() {
    let dir = tmpdir("check_ok");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let out = fixctl(&[
        "check",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("consistent ✓"));
}

#[test]
fn check_rejects_inconsistent_rules_with_nonzero_exit() {
    let dir = tmpdir("check_bad");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, BAD_RULES).unwrap();
    let out = fixctl(&[
        "check",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("INCONSISTENT"));
}

#[test]
fn resolve_then_repair_round_trip() {
    let dir = tmpdir("resolve_repair");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let fixed_rules = dir.join("fixed.frl");
    let repaired = dir.join("repaired.csv");
    let log = dir.join("updates.csv");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, BAD_RULES).unwrap();

    let out = fixctl(&[
        "resolve",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        fixed_rules.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = fixctl(&[
        "repair",
        "--rules",
        fixed_rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        repaired.to_str().unwrap(),
        "--updates-log",
        log.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(&repaired).unwrap();
    // r3 repaired to Japan (φ'1 lost Tokyo in resolution, φ3 wins).
    assert!(csv.contains("Peter,Japan,Tokyo,Tokyo,ICDE"), "{csv}");
    let log_text = std::fs::read_to_string(&log).unwrap();
    assert!(log_text.starts_with("row,attribute,old,new,rule"));
    assert!(log_text.contains("country,China,Japan"));
}

#[test]
fn repair_refuses_inconsistent_rules() {
    let dir = tmpdir("repair_refuse");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let out_path = dir.join("x.csv");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, BAD_RULES).unwrap();
    let out = fixctl(&[
        "repair",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("conflict"), "{stderr}");
    assert!(stderr.contains("resolve"), "{stderr}");
    // Σ is gated before the output file is created.
    assert!(!out_path.exists(), "an inconsistent Σ wrote output");
}

/// `fixctl repair` writes exactly the table the paper's cRepair (Fig 6)
/// produces: for a consistent Σ every tuple has one fix, so the algorithm
/// never changes the result.
#[test]
fn crepair_algo_matches_lrepair() {
    let dir = tmpdir("algos");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let out_path = dir.join("lrepair.csv");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let out = fixctl(&[
        "repair",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut symbols = relation::SymbolTable::new();
    let mut table = relation::csv_io::read_csv_file(&data, "data", &mut symbols).unwrap();
    let sigma = fixrules::io::parse_rules(GOOD_RULES, table.schema(), &mut symbols).unwrap();
    let chased =
        fixrules::repair::crepair_table(&sigma, &mut table, &fixrules::repair::NoopObserver);
    assert_eq!(chased.total_updates(), 3);
    let mut expected = Vec::new();
    relation::csv_io::write_csv(&mut expected, &table, &symbols).unwrap();
    assert_eq!(std::fs::read(&out_path).unwrap(), expected);
}

/// `examples/data/hosp_dirty.csv`'s rows tiled past 1 MiB, with a dirty
/// row whose quoted city holds 40 line breaks every 75 tiles and across
/// each 256 KiB cut after the header: the pipeline cuts the file into
/// several chunks, and each chunk after the first guesses its start
/// inside quotes and is scanned again from its true start.
fn tiled_hosp_csv() -> String {
    let text = std::fs::read_to_string(example("data/hosp_dirty.csv")).unwrap();
    let (header, rows) = text.split_once('\n').unwrap();
    let quoted = format!("36545,\"Jackson{}\",AK\n", "\nHeights".repeat(40));
    let cut = 256 << 10;
    let mut body = String::new();
    for tile in 1.. {
        body += rows;
        if tile % 75 == 0 || body.len() % cut > cut - 200 {
            body += &quoted;
        }
        if body.len() > 1 << 20 {
            break;
        }
    }
    format!("{header}\n{body}")
}

/// A `--metrics` snapshot's `repair.*` counters but the per-worker ones,
/// and the count and sum of each `repair.tuple_*` histogram.
fn repair_metrics(snapshot: &obs::Json) -> Vec<String> {
    let mut out = Vec::new();
    for (name, value) in snapshot.get("counters").unwrap().as_obj().unwrap() {
        if name.starts_with("repair.") && !name.starts_with("repair.worker.") {
            out.push(format!("{name}={value}"));
        }
    }
    for (name, value) in snapshot.get("histograms").unwrap().as_obj().unwrap() {
        if name.starts_with("repair.tuple_") {
            for field in ["count", "sum"] {
                out.push(format!("{name}.{field}={}", value.get(field).unwrap()));
            }
        }
    }
    out
}

/// A journal's `repair.cell` records, without their sequence numbers.
fn repair_cells(journal: &str) -> Vec<String> {
    obs::trace::parse_jsonl(journal)
        .unwrap()
        .into_iter()
        .filter(|r| r.name == "repair.cell")
        .map(|r| r.fields.to_string())
        .collect()
}

/// `fixctl repair`, which streams `--data` through the chunk pipeline, at
/// 1 and 2 workers equals the reference — `read_csv`,
/// lRepair on every row with no plan memo (`lrepair_table`) and
/// `write_csv`, in process — on a multi-chunk input: the CSV, the
/// `--updates-log`, every `repair.*` counter but the per-worker ones, the
/// count and sum of the per-tuple histograms, `--profile-json`, and the
/// `repair.cell` provenance records.
#[test]
fn stream_algo_matches_lrepair() {
    let dir = tmpdir("reference");
    let data = dir.join("hosp.csv");
    std::fs::write(&data, tiled_hosp_csv()).unwrap();
    let rules_path = example("rulesets/hosp_zip.frl");

    let mut symbols = relation::SymbolTable::new();
    let mut table = relation::csv_io::read_csv_file(&data, "data", &mut symbols).unwrap();
    let text = std::fs::read_to_string(&rules_path).unwrap();
    let rules = fixrules::io::parse_rules(&text, table.schema(), &mut symbols).unwrap();
    let registry = obs::MetricsRegistry::new();
    let metrics = obs::MetricsObserver::new(&registry);
    let labels = rules
        .iter()
        .map(|(id, rule)| obs::RuleLabel {
            rule: format!("r{}", id.0),
            attr: rules.schema().attr_name(rule.b()).to_string(),
        })
        .collect();
    let attribution = obs::AttributionObserver::new(&registry, labels);
    let ledger = fixrules::provenance::ProvenanceLedger::new();
    let provenance = fixrules::provenance::ProvenanceObserver::new(&rules, &ledger);
    let index = fixrules::repair::LRepairIndex::build(&rules);
    let observer = obs::Tee(&metrics, &obs::Tee(&attribution, &provenance));
    let outcome = fixrules::repair::lrepair_table(&rules, &index, &mut table, &observer);
    let mut want_csv = Vec::new();
    relation::csv_io::write_csv(&mut want_csv, &table, &symbols).unwrap();
    let mut want_log = Vec::new();
    relation::csv_io::push_record(&mut want_log, ["row", "attribute", "old", "new", "rule"]);
    for u in &outcome.updates {
        let (row, rule) = (u.row.to_string(), u.rule.0.to_string());
        relation::csv_io::push_record(
            &mut want_log,
            [
                row.as_str(),
                rules.schema().attr_name(u.attr),
                symbols.resolve(u.old),
                symbols.resolve(u.new),
                rule.as_str(),
            ],
        );
    }
    let want_profile = attribution.profile().to_json().to_string_pretty() + "\n";
    let journal = obs::TraceJournal::new(obs::TraceClock::Logical);
    for record in ledger.records() {
        journal.event("repair.cell", 0, record.to_json(rules.schema(), &symbols));
    }
    let want_cells = repair_cells(&journal.to_jsonl());
    let want_metrics = repair_metrics(&registry.snapshot());
    assert!(outcome.updates.len() > 1_000, "{}", outcome.updates.len());
    assert!(want_metrics
        .iter()
        .any(|m| m.starts_with("repair.index.probes=")));

    for threads in ["1", "2"] {
        let file = |name: &str| dir.join(format!("{threads}_{name}"));
        let out = fixctl(&[
            "repair",
            "--rules",
            &rules_path,
            "--data",
            data.to_str().unwrap(),
            "--threads",
            threads,
            "--out",
            file("out.csv").to_str().unwrap(),
            "--updates-log",
            file("updates.csv").to_str().unwrap(),
            "--metrics",
            file("metrics.json").to_str().unwrap(),
            "--profile-json",
            file("profile.json").to_str().unwrap(),
            "--trace",
            file("trace.jsonl").to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let read = |name: &str| std::fs::read(file(name)).unwrap();
        assert!(read("out.csv") == want_csv, "CSV at {threads} workers");
        assert!(
            read("updates.csv") == want_log,
            "update log at {threads} workers"
        );
        assert_eq!(
            read("profile.json"),
            want_profile.as_bytes(),
            "{threads} workers"
        );
        let snapshot = obs::json::parse(&String::from_utf8(read("metrics.json")).unwrap());
        assert_eq!(
            repair_metrics(&snapshot.unwrap()),
            want_metrics,
            "{threads} workers"
        );
        let trace = String::from_utf8(read("trace.jsonl")).unwrap();
        assert!(
            repair_cells(&trace) == want_cells,
            "provenance at {threads} workers"
        );
    }
}

#[test]
fn stats_reports_rule_shape() {
    let dir = tmpdir("stats");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let out = fixctl(&[
        "stats",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rules:  3"));
    assert!(stdout.contains("capital"));
}

#[test]
fn detect_explains_without_writing() {
    let dir = tmpdir("detect");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let before = std::fs::read_to_string(&data).unwrap();
    let out = fixctl(&[
        "detect",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 planned update(s)"), "{stdout}");
    assert!(stdout.contains("known wrong value given"), "{stdout}");
    // Data untouched.
    assert_eq!(before, std::fs::read_to_string(&data).unwrap());
}

#[test]
fn convert_to_json_and_back() {
    let dir = tmpdir("convert");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let json = dir.join("r.json");
    let frl2 = dir.join("r2.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let out = fixctl(&[
        "convert",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("\"relation\""));
    assert!(doc.contains("Beijing"));
    // Round-trip frl -> frl is a normalization pass.
    let out = fixctl(&[
        "convert",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        frl2.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&frl2).unwrap();
    assert!(text.contains("THEN capital := \"Beijing\""));
}

#[test]
fn discover_learns_rules_from_redundant_data() {
    let dir = tmpdir("discover");
    let data = dir.join("t.csv");
    let fds = dir.join("fds.txt");
    let out_rules = dir.join("learned.frl");
    // Redundant country→capital data with one lone dissenter.
    let mut csv = String::from("country,capital\n");
    for _ in 0..5 {
        csv.push_str("China,Beijing\n");
    }
    csv.push_str("China,Shanghai\n");
    for _ in 0..4 {
        csv.push_str("Canada,Ottawa\n");
    }
    csv.push_str("Canada,Toronto\n");
    std::fs::write(&data, csv).unwrap();
    std::fs::write(&fds, "country -> capital\n").unwrap();
    let out = fixctl(&[
        "discover",
        "--data",
        data.to_str().unwrap(),
        "--fds",
        fds.to_str().unwrap(),
        "--out",
        out_rules.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_rules).unwrap();
    assert!(text.contains("THEN capital := \"Beijing\""), "{text}");
    assert!(text.contains("THEN capital := \"Ottawa\""), "{text}");
    // The learned rules repair the data they were learned from.
    let repaired = dir.join("repaired.csv");
    let out = fixctl(&[
        "repair",
        "--rules",
        out_rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        repaired.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fixed = std::fs::read_to_string(&repaired).unwrap();
    assert!(!fixed.contains("Shanghai"));
    assert!(!fixed.contains("Toronto"));
}

#[test]
fn missing_flags_produce_usage_errors() {
    let out = fixctl(&["repair", "--data", "/nonexistent.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--rules"));
    let out = fixctl(&["frobnicate"]);
    assert!(!out.status.success());
    let out = fixctl(&[]);
    assert!(!out.status.success());
}

#[test]
fn bad_rule_file_reports_line() {
    let dir = tmpdir("bad_rule");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(
        &rules,
        "IF country = \"China\" THEN capital := \"Beijing\"\n",
    )
    .unwrap();
    let out = fixctl(&[
        "check",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
}

/// `--metrics` on the paper's Fig 1–3 running example: the snapshot must be
/// parseable JSON carrying per-stage timings and pipeline counters with the
/// documented names and the exact values the example implies (three dirty
/// tuples out of four, one update each, three rule pairs checked).
#[test]
fn metrics_flag_emits_stage_timings_and_counters() {
    let dir = tmpdir("metrics");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let repaired = dir.join("repaired.csv");
    let metrics = dir.join("metrics.json");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();

    let out = fixctl(&[
        "repair",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        repaired.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--log",
        "info",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Structured logging rode along: stage events as key=value lines.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("level=info event=load.done"), "{stderr}");
    assert!(stderr.contains("event=repair.done"), "{stderr}");
    assert!(stderr.contains("algo=lrepair"), "{stderr}");

    let text = std::fs::read_to_string(&metrics).unwrap();
    let snap = obs::json::parse(&text).expect("metrics file is valid JSON");

    // Per-stage wall-clock histograms, one sample per stage.
    let histograms = snap.get("histograms").expect("histograms section");
    for stage in [
        "stage.load_ns",
        "stage.consistency_check_ns",
        "stage.index_build_ns",
        "stage.repair_ns",
        "stage.write_ns",
    ] {
        let h = histograms
            .get(stage)
            .unwrap_or_else(|| panic!("missing stage histogram {stage}"));
        assert_eq!(h.get("count").unwrap().as_i64(), Some(1), "{stage}");
        for key in ["sum", "max", "p50", "p95", "p99"] {
            assert!(h.get(key).is_some(), "{stage} missing {key}");
        }
    }

    // Pipeline counters: Ian and Mike get a capital fix, Peter a country
    // fix; George is already clean. Three rules => three pairs checked.
    let counters = snap.get("counters").expect("counters section");
    let get = |name: &str| {
        counters
            .get(name)
            .and_then(|v| v.as_i64())
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(get("repair.tuples"), 4);
    assert_eq!(get("repair.tuples_touched"), 3);
    assert_eq!(get("repair.updates"), 3);
    assert_eq!(get("repair.rules_applied"), 3);
    assert_eq!(get("consistency.pairs_checked"), 3);
    assert!(get("repair.index.probes") > 0);

    // The repair itself still happened.
    let csv = std::fs::read_to_string(&repaired).unwrap();
    assert!(csv.contains("Ian,China,Beijing,Hongkong,ICDE"), "{csv}");
    assert!(csv.contains("Peter,Japan,Tokyo,Tokyo,ICDE"), "{csv}");
    assert!(csv.contains("Mike,Canada,Ottawa,Toronto,VLDB"), "{csv}");
}

/// Every `repair.*` series `MetricsObserver` registers moves on a plain
/// `fixctl repair` of a dirty example: the registry carries no series the
/// shipped repair path never writes.
#[test]
fn every_documented_repair_metric_moves_on_a_repair() {
    let dir = tmpdir("repair_metric_names");
    let metrics = dir.join("m.json");
    let out = fixctl(&[
        "repair",
        "--rules",
        &example("rulesets/hosp_zip.frl"),
        "--data",
        &example("data/hosp_dirty.csv"),
        "--out",
        dir.join("repaired.csv").to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snap = obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = snap.get("counters").expect("counters section");
    let names: Vec<&str> = obs::METRIC_NAMES
        .iter()
        .copied()
        .filter(|name| name.starts_with("repair."))
        .collect();
    assert!(!names.is_empty());
    for name in names {
        let value = counters.get(name).and_then(|v| v.as_i64());
        assert!(
            value.is_some_and(|v| v > 0),
            "{name} reads {value:?} after a repair"
        );
    }
}

fn example(rel: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(rel)
        .to_str()
        .unwrap()
        .to_string()
}

#[test]
fn lint_reports_conflict_with_stable_code_and_span() {
    let out = fixctl(&["lint", &example("lint/conflicting.frl")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[FR001]"), "{stdout}");
    assert!(stdout.contains("conflicting.frl:3:1"), "{stdout}");
    assert!(stdout.contains("witness tuple:"), "{stdout}");
    assert!(stdout.contains("1 error(s)"), "{stdout}");
}

#[test]
fn lint_warnings_exit_zero_unless_denied() {
    let path = example("lint/dead_redundant.frl");
    let out = fixctl(&["lint", &path]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[FR002]"), "{stdout}");
    assert!(stdout.contains("dead_redundant.frl:4:1"), "{stdout}");
    assert!(stdout.contains("warning[FR003]"), "{stdout}");
    assert!(stdout.contains("dead_redundant.frl:5:1"), "{stdout}");
    assert!(stdout.contains("warning[FR004]"), "{stdout}");

    let out = fixctl(&["lint", &path, "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn lint_deny_specific_code_is_fatal() {
    let path = example("lint/dead_redundant.frl");
    let out = fixctl(&["lint", &path, "--deny", "FR002"]);
    assert_eq!(out.status.code(), Some(1));
    // Denying a code that never fires stays clean.
    let out = fixctl(&["lint", &path, "--deny", "FR001"]);
    assert_eq!(out.status.code(), Some(0));
    // Unknown codes are an operational error, not a lint result.
    let out = fixctl(&["lint", &path, "--deny", "FR999"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn lint_good_rulesets_are_clean() {
    for rel in ["rulesets/travel.frl", "rulesets/hosp_zip.frl"] {
        let out = fixctl(&["lint", &example(rel), "--deny", "warnings"]);
        assert_eq!(out.status.code(), Some(0), "{rel} should lint clean");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
    }
}

#[test]
fn lint_json_is_deterministic_and_parses() {
    let path = example("lint/dead_redundant.frl");
    let first = fixctl(&["lint", &path, "--format", "json"]);
    let second = fixctl(&["lint", &path, "--format", "json"]);
    assert_eq!(first.stdout, second.stdout, "JSON output must be stable");
    let doc = obs::json::parse(&String::from_utf8_lossy(&first.stdout)).expect("valid JSON");
    let findings = doc
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings array");
    let codes: Vec<_> = findings
        .iter()
        .map(|f| f.get("code").and_then(|c| c.as_str()).unwrap())
        .collect();
    assert_eq!(codes, ["FR002", "FR003", "FR004", "FR004"]);
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("warnings").unwrap().as_i64(), Some(4));
    assert_eq!(summary.get("errors").unwrap().as_i64(), Some(0));
}

#[test]
fn lint_parse_error_is_fr000() {
    let dir = tmpdir("lint_parse");
    let rules = dir.join("broken.frl");
    std::fs::write(&rules, "IF country = \"China\" capital := \"Beijing\"\n").unwrap();
    let out = fixctl(&["lint", rules.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[FR000]"), "{stdout}");
    assert!(stdout.contains("broken.frl:1:"), "{stdout}");
}

#[test]
fn lint_counts_findings_in_metrics() {
    let dir = tmpdir("lint_metrics");
    let metrics = dir.join("m.json");
    let out = fixctl(&[
        "lint",
        &example("lint/dead_redundant.frl"),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let snap = obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = snap.get("counters").expect("counters");
    assert_eq!(counters.get("lint.findings").unwrap().as_i64(), Some(4));
    assert_eq!(
        counters.get("lint.findings.FR002").unwrap().as_i64(),
        Some(1)
    );
    assert_eq!(
        counters.get("lint.severity.warning").unwrap().as_i64(),
        Some(4)
    );
}

/// Rules that cascade: φ1 repairs `capital`, and the repaired capital is
/// then evidence for φ3's `city` fix — a two-link provenance chain.
const CASCADE_RULES: &str = r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
IF country = "Canada" AND capital IN {"Toronto"} THEN capital := "Ottawa"
IF capital = "Beijing" AND conf = "ICDE" AND city IN {"Hongkong"} THEN city := "Shanghai"
"#;

fn repair_with_trace(dir: &std::path::Path, tag: &str) -> String {
    let trace = dir.join(format!("{tag}.jsonl"));
    let out = fixctl(&[
        "repair",
        "--rules",
        dir.join("r.frl").to_str().unwrap(),
        "--data",
        dir.join("t.csv").to_str().unwrap(),
        "--out",
        dir.join(format!("{tag}.csv")).to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(&trace).unwrap()
}

/// Two identical runs under the default logical clock produce byte-identical
/// journals — the CI determinism gate relies on this.
#[test]
fn trace_journal_is_byte_deterministic() {
    let dir = tmpdir("trace_det");
    std::fs::write(dir.join("t.csv"), TRAVEL_CSV).unwrap();
    std::fs::write(dir.join("r.frl"), GOOD_RULES).unwrap();
    let first = repair_with_trace(&dir, "a");
    let second = repair_with_trace(&dir, "b");
    assert_eq!(
        first, second,
        "logical-clock journals must be byte-identical"
    );
    // The journal carries the run context and one event per applied fix.
    assert!(first.contains("\"name\":\"trace.meta\""), "{first}");
    assert!(first.contains("\"name\":\"stage.repair\""), "{first}");
    let cells = first.matches("\"name\":\"repair.cell\"").count();
    assert_eq!(cells, 3, "Ian, Peter, and Mike each get one fix:\n{first}");
    // Logical clock: no wall timestamps anywhere.
    assert!(!first.contains("ts_us"), "{first}");
}

/// The provenance events are worker-independent: the journal of a
/// streamed repair records exactly the `repair.cell` events of lRepair
/// over the table in process (`lrepair_table`), at 1 and 2 workers.
#[test]
fn stream_trace_records_same_provenance_as_lrepair() {
    let dir = tmpdir("trace_stream");
    std::fs::write(dir.join("t.csv"), TRAVEL_CSV).unwrap();
    std::fs::write(dir.join("r.frl"), CASCADE_RULES).unwrap();
    let mut symbols = relation::SymbolTable::new();
    let mut table =
        relation::csv_io::read_csv_file(dir.join("t.csv"), "data", &mut symbols).unwrap();
    let rules = fixrules::io::parse_rules(CASCADE_RULES, table.schema(), &mut symbols).unwrap();
    let ledger = fixrules::provenance::ProvenanceLedger::new();
    let observer = fixrules::provenance::ProvenanceObserver::new(&rules, &ledger);
    let index = fixrules::repair::LRepairIndex::build(&rules);
    fixrules::repair::lrepair_table(&rules, &index, &mut table, &observer);
    let journal = obs::TraceJournal::new(obs::TraceClock::Logical);
    for record in ledger.records() {
        journal.event("repair.cell", 0, record.to_json(rules.schema(), &symbols));
    }
    let want = repair_cells(&journal.to_jsonl());
    assert_eq!(want.len(), 3, "{want:?}");
    for threads in ["1", "2"] {
        let trace = dir.join(format!("{threads}.jsonl"));
        let out = fixctl(&[
            "repair",
            "--rules",
            dir.join("r.frl").to_str().unwrap(),
            "--data",
            dir.join("t.csv").to_str().unwrap(),
            "--out",
            dir.join(format!("{threads}.csv")).to_str().unwrap(),
            "--threads",
            threads,
            "--trace",
            trace.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let journal = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(repair_cells(&journal), want, "{threads} workers");
    }
}

/// `fixctl explain` walks the recorded evidence backwards and renders the
/// full rule chain rustc-style; cells that were never repaired exit 1.
#[test]
fn explain_reconstructs_the_rule_chain() {
    let dir = tmpdir("explain");
    std::fs::write(dir.join("t.csv"), TRAVEL_CSV).unwrap();
    std::fs::write(dir.join("r.frl"), CASCADE_RULES).unwrap();
    let trace = dir.join("a.jsonl");
    repair_with_trace(&dir, "a");

    // Row 1 (Ian): city was repaired by φ3 whose evidence (capital =
    // Beijing) was itself produced by φ1 — a two-step chain.
    let out = fixctl(&[
        "explain",
        trace.to_str().unwrap(),
        "--row",
        "1",
        "--attr",
        "city",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("fix[row 1, city]: \"Hongkong\" -> \"Shanghai\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("step 1: capital \"Shanghai\" -> \"Beijing\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("step 2: city \"Hongkong\" -> \"Shanghai\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("evidence: capital = \"Beijing\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("chain of 2 rule application(s)"),
        "{stdout}"
    );
    // The fired rules are excerpted from the journal's own rule listing,
    // final link underlined with carets, its dependency with dashes.
    assert!(stdout.contains("THEN city := \"Shanghai\""), "{stdout}");
    let dash = stdout.find("----").expect("dash underline");
    let caret = stdout.find("^^^^").expect("caret underline");
    assert!(dash < caret, "{stdout}");

    // George (row 0) was never touched.
    let out = fixctl(&[
        "explain",
        trace.to_str().unwrap(),
        "--row",
        "0",
        "--attr",
        "city",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("no repair recorded"));

    // Unknown attributes are an operational error.
    let out = fixctl(&[
        "explain",
        trace.to_str().unwrap(),
        "--row",
        "1",
        "--attr",
        "zipcode",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown attribute"));
}

/// `fixctl trace export --chrome` emits valid trace-event JSON with
/// balanced span begin/end pairs.
#[test]
fn trace_export_produces_chrome_json() {
    let dir = tmpdir("trace_chrome");
    std::fs::write(dir.join("t.csv"), TRAVEL_CSV).unwrap();
    std::fs::write(dir.join("r.frl"), GOOD_RULES).unwrap();
    repair_with_trace(&dir, "a");
    let chrome = dir.join("chrome.json");
    let out = fixctl(&[
        "trace",
        "export",
        dir.join("a.jsonl").to_str().unwrap(),
        "--chrome",
        chrome.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = obs::json::parse(&std::fs::read_to_string(&chrome).unwrap()).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let phase_count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
            .count()
    };
    assert_eq!(phase_count("B"), phase_count("E"), "balanced spans");
    assert!(phase_count("i") >= 3, "instant events carried over");

    // Unknown subcommands are rejected up front.
    let out = fixctl(&["trace", "frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace export"));
}

/// `--trace-clock wall` opts into real timestamps (and thereby gives up
/// byte determinism).
#[test]
fn wall_clock_trace_carries_timestamps() {
    let dir = tmpdir("trace_wall");
    std::fs::write(dir.join("t.csv"), TRAVEL_CSV).unwrap();
    std::fs::write(dir.join("r.frl"), GOOD_RULES).unwrap();
    let trace = dir.join("w.jsonl");
    let out = fixctl(&[
        "repair",
        "--rules",
        dir.join("r.frl").to_str().unwrap(),
        "--data",
        dir.join("t.csv").to_str().unwrap(),
        "--out",
        dir.join("w.csv").to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--trace-clock",
        "wall",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read_to_string(&trace).unwrap().contains("ts_us"));

    let out = fixctl(&[
        "repair",
        "--rules",
        dir.join("r.frl").to_str().unwrap(),
        "--data",
        dir.join("t.csv").to_str().unwrap(),
        "--out",
        dir.join("w.csv").to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--trace-clock",
        "sundial",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown trace clock"));
}

/// `--metrics` without `--log` still writes the snapshot; `--log off` (the
/// default) emits nothing on stderr beyond the usual human summary.
#[test]
fn metrics_without_log_is_quiet() {
    let dir = tmpdir("metrics_quiet");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let metrics = dir.join("m.json");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let out = fixctl(&[
        "check",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("level="));
    let snap = obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert!(snap.get("counters").is_some());
    assert!(snap.get("gauges").is_some());
    assert!(snap.get("histograms").is_some());
}

/// `repair` has one engine, the chunk pipeline, which runs on the calling
/// thread alone at one worker and hands chunks between threads at more:
/// the default worker count and explicit ones write byte-identical
/// repaired CSV and the same summary line.
#[test]
fn engines_agree_on_repaired_output() {
    let dir = tmpdir("workers_agree");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let run = |label: &str, extra: &[&str]| -> (String, String) {
        let out_path = dir.join(format!("{label}.csv"));
        let mut args = vec![
            "repair",
            "--rules",
            rules.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--out",
        ];
        let out_str = out_path.to_str().unwrap().to_string();
        args.push(&out_str);
        args.extend_from_slice(extra);
        let out = fixctl(&args);
        assert!(
            out.status.success(),
            "{label}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read_to_string(&out_path).unwrap(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (baseline, base_stdout) = run("default", &[]);
    assert!(base_stdout.contains("3 update(s)"), "{base_stdout}");
    for (label, extra) in [("one", &["--threads", "1"]), ("two", &["--threads", "2"])] {
        let (csv, stdout) = run(label, extra);
        assert_eq!(csv, baseline, "{label} diverged from the default");
        assert_eq!(stdout.lines().next(), base_stdout.lines().next(), "{label}");
    }
}

/// Flag validation: the retired `--engine`, whatever engine it names,
/// and a worker count of 0 are rejected before `--out` is created.
#[test]
fn engine_flag_validation() {
    let dir = tmpdir("engine_flags");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let base = |extra: &[&str]| {
        let mut args = vec![
            "repair",
            "--rules",
            rules.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--out",
        ];
        let out_str = dir.join("o.csv");
        let out_str = out_str.to_str().unwrap().to_string();
        args.push(&out_str);
        args.extend_from_slice(extra);
        fixctl(&args)
    };
    let log = dir.join("u.csv");
    for engine in [
        "lrepair",
        "stream",
        "chase",
        "columnar",
        "compiled",
        "compiled-chase",
        "columnar-chase",
        "crepair",
        "warp",
    ] {
        let out = base(&["--engine", engine, "--updates-log", log.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag --engine"),
            "{engine}: {stderr}"
        );
        assert!(!dir.join("o.csv").exists(), "{engine}: wrote output");
    }
    assert!(!log.exists(), "a rejected run wrote an update log");

    let out = base(&["--threads", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads takes"));
    assert!(!dir.join("o.csv").exists(), "--threads 0 wrote output");
}

/// Every command that reads `--data` rejects flags it does not read — a
/// typo such as `--engin` or `--thread` must not silently fall back to a
/// default, and the retired `repair --engine`, `--plan-cache`, `--algo`,
/// `--expose`, `serve --engine`, and `--engine` or `--quality-window`
/// on any command but `repair` must not be silently ignored. `serve`
/// takes no `--metrics`/`--trace`: the daemon's telemetry is at
/// `GET /metrics` and its journal is `--journal`.
#[test]
fn unknown_flags_are_rejected() {
    let dir = tmpdir("unknown_flags");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let out_path = dir.join("o.csv");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let mut cases = vec![
        ("repair", "engine", "lrepair"),
        ("repair", "engin", "columnar"),
        ("repair", "plan-cache", "on"),
        ("repair", "algo", "lrepair"),
        ("repair", "expose", "127.0.0.1:0"),
        ("coverage", "engin", "chase"),
        ("coverage", "engine", "lrepair"),
    ];
    for command in ["check", "detect", "stats", "convert", "resolve", "discover"] {
        cases.extend([
            (command, "engine", "stream"),
            (command, "quality-window", "2"),
            (command, "thread", "2"),
        ]);
    }
    for (command, flag, value) in cases {
        let flag_arg = format!("--{flag}");
        let mut args = vec![command, "--data", data.to_str().unwrap(), &flag_arg, value];
        // `discover` reads data and FDs, not rules.
        if command != "discover" {
            args.extend(["--rules", rules.to_str().unwrap()]);
        }
        if ["repair", "convert", "resolve", "discover"].contains(&command) {
            args.extend(["--out", out_path.to_str().unwrap()]);
        }
        let out = fixctl(&args);
        assert_eq!(out.status.code(), Some(2), "{command} {flag_arg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag_arg}")),
            "{command}: {stderr}"
        );
        assert!(!out_path.exists(), "{command} {flag_arg} wrote output");
    }

    // `serve` has no engine choice, and no CLI-side metrics or trace
    // files: each flag is refused before boot.
    let sink = dir.join("sink");
    for flag in ["--engine", "--metrics", "--trace"] {
        let out = fixctl(&[
            "serve",
            "--rules",
            rules.to_str().unwrap(),
            flag,
            sink.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(2), "serve {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "serve: {stderr}"
        );
        assert!(!sink.exists(), "serve {flag} wrote a file");
    }

    // The standalone scrape listener is gone.
    let out = fixctl(&["serve-metrics", "--addr", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown command `serve-metrics`"),
        "serve-metrics: {stderr}"
    );
}

/// The streamed repair gates on consistency before it creates any of its
/// outputs: at two workers, an inconsistent Σ exits 2 and leaves no
/// `--out`, `--updates-log` or `--quality-json` behind.
#[test]
fn stream_engine_rejects_inconsistent_rules_before_writing() {
    let dir = tmpdir("stream_inconsistent");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let out_path = dir.join("o.csv");
    let log = dir.join("u.csv");
    let snapshot = dir.join("q.json");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, BAD_RULES).unwrap();
    let out = fixctl(&[
        "repair",
        "--threads",
        "2",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
        "--updates-log",
        log.to_str().unwrap(),
        "--quality-window",
        "2",
        "--quality-json",
        snapshot.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("conflict"));
    assert!(!out_path.exists(), "an inconsistent stream wrote output");
    assert!(!log.exists(), "an inconsistent stream wrote an update log");
    assert!(
        !snapshot.exists(),
        "an inconsistent stream wrote a snapshot"
    );
}

/// `--updates-log` quotes each cell as the repaired CSV does: the
/// quoting fixture's fix to `Japan, "Nihon"` stays one field.
#[test]
fn updates_log_quotes_cells() {
    let dir = tmpdir("updates_log_quoting");
    let log = dir.join("updates.csv");
    let out = fixctl(&[
        "repair",
        "--rules",
        &example("rulesets/quoting.frl"),
        "--data",
        &example("data/quoting.csv"),
        "--out",
        dir.join("out.csv").to_str().unwrap(),
        "--updates-log",
        log.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read(example("data/quoting_updates.csv")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&std::fs::read(&log).unwrap()),
        String::from_utf8_lossy(&golden)
    );
}

/// GOOD_RULES plus one rule whose evidence never occurs in TRAVEL_CSV —
/// the attribution profiler must rank it last and flag it as unfired.
const RULES_WITH_UNFIRED: &str = r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
IF country = "Canada" AND capital IN {"Toronto"} THEN capital := "Ottawa"
IF capital = "Tokyo" AND city = "Tokyo" AND conf = "ICDE" AND country IN {"China"} THEN country := "Japan"
IF country = "Atlantis" AND capital IN {"Poseidonia"} THEN capital := "Atlantis City"
"#;

/// `repair --profile` prints a ranked per-rule table and calls out rules
/// that never fired.
#[test]
fn repair_profile_ranks_rules_and_flags_unfired() {
    let dir = tmpdir("profile_table");
    std::fs::write(dir.join("t.csv"), TRAVEL_CSV).unwrap();
    std::fs::write(dir.join("r.frl"), RULES_WITH_UNFIRED).unwrap();
    let out = fixctl(&[
        "repair",
        "--rules",
        dir.join("r.frl").to_str().unwrap(),
        "--data",
        dir.join("t.csv").to_str().unwrap(),
        "--out",
        dir.join("o.csv").to_str().unwrap(),
        "--profile",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rule"), "{stdout}");
    assert!(stdout.contains("applied"), "{stdout}");
    assert!(stdout.contains("never fired: r3"), "{stdout}");
    // Every live rule fires exactly once on the Fig 1 data.
    for rule in ["r0", "r1", "r2"] {
        assert!(stdout.contains(rule), "{stdout}");
    }
}

/// Two identical `--profile-json` runs write byte-identical files, and the
/// JSON never carries wall-clock nanoseconds.
#[test]
fn profile_json_is_byte_deterministic() {
    let dir = tmpdir("profile_json");
    std::fs::write(dir.join("t.csv"), TRAVEL_CSV).unwrap();
    std::fs::write(dir.join("r.frl"), RULES_WITH_UNFIRED).unwrap();
    let run = |tag: &str| {
        let json_path = dir.join(format!("{tag}.json"));
        let out = fixctl(&[
            "repair",
            "--rules",
            dir.join("r.frl").to_str().unwrap(),
            "--data",
            dir.join("t.csv").to_str().unwrap(),
            "--out",
            dir.join(format!("{tag}.csv")).to_str().unwrap(),
            "--profile",
            "--profile-json",
            json_path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&json_path).unwrap()
    };
    let first = run("a");
    let second = run("b");
    assert_eq!(first, second, "profile JSON must be byte-deterministic");
    assert!(!first.contains("_ns"), "wall-clock leaked: {first}");
    let doc = obs::json::parse(&first).expect("valid JSON");
    let rules = doc.get("rules").and_then(|r| r.as_arr()).expect("rules");
    assert_eq!(rules.len(), 4);
    // Ranked: the unfired rule sorts last.
    assert_eq!(
        rules[3].get("rule").and_then(|r| r.as_str()),
        Some("r3"),
        "{first}"
    );
    assert_eq!(rules[3].get("applied").and_then(|a| a.as_i64()), Some(0));
    let totals = doc.get("totals").expect("totals");
    assert_eq!(totals.get("applied").and_then(|a| a.as_i64()), Some(3));
}

/// `coverage --lint` joins the runtime profile against the static passes:
/// live rules that never fired are FR007 notes anchored at their spans,
/// while the statically dead rule staying silent produces no finding.
#[test]
fn coverage_lint_reports_unfired_rules() {
    let out = fixctl(&[
        "coverage",
        "--rules",
        &example("lint/dead_redundant.frl"),
        "--data",
        &example("lint/profile_dirty.csv"),
        "--lint",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The profile table came first, then the rustc-style join.
    assert!(stdout.contains("applied"), "{stdout}");
    assert!(stdout.contains("note[FR007]"), "{stdout}");
    assert!(stdout.contains("dead_redundant.frl:2:1"), "{stdout}");
    // The FR002-dead rule stayed silent, so no FR008 mismatch.
    assert!(!stdout.contains("FR008"), "{stdout}");

    // Without --lint only the profile table is printed.
    let out = fixctl(&[
        "coverage",
        "--rules",
        &example("lint/dead_redundant.frl"),
        "--data",
        &example("lint/profile_dirty.csv"),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("never fired"), "{stdout}");
    assert!(!stdout.contains("FR007"), "{stdout}");
}

/// `check` materializes a two-fixpoint witness for reported conflicts and
/// counts it under `consistency.witness_found`.
#[test]
fn check_materializes_conflict_witness() {
    let dir = tmpdir("check_witness");
    let metrics = dir.join("m.json");
    std::fs::write(dir.join("t.csv"), TRAVEL_CSV).unwrap();
    std::fs::write(dir.join("r.frl"), BAD_RULES).unwrap();
    let out = fixctl(&[
        "check",
        "--rules",
        dir.join("r.frl").to_str().unwrap(),
        "--data",
        dir.join("t.csv").to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("witness:"), "{stdout}");
    assert!(stdout.contains("can end as"), "{stdout}");
    let snap = obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = snap.get("counters").expect("counters");
    assert_eq!(
        counters
            .get("consistency.witness_found")
            .and_then(|v| v.as_i64()),
        Some(1)
    );
    assert_eq!(
        counters
            .get("consistency.pairs_checked")
            .and_then(|v| v.as_i64()),
        Some(1)
    );
}

// ---- scrape --require with labeled series -------------------------------

const LABELED_EXPOSITION: &str = "\
# TYPE http_requests counter
http_requests{endpoint=\"repair\",status=\"200\"} 3
http_requests{endpoint=\"readyz\",status=\"503\"} 1
# TYPE up gauge
up 1
";

#[test]
fn scrape_require_matches_labeled_series() {
    let dir = tmpdir("scrape_labeled");
    let file = dir.join("metrics.prom");
    std::fs::write(&file, LABELED_EXPOSITION).unwrap();
    let path = file.to_str().unwrap();
    // Bare names still work.
    let out = fixctl(&["scrape", path, "--require", "up"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // A labeled series matches regardless of label order, with the
    // registry's dotted name spelling.
    for required in [
        "http_requests{endpoint=\"repair\",status=\"200\"}",
        "http_requests{status=\"200\",endpoint=\"repair\"}",
        "http.requests{endpoint=\"repair\"}",
    ] {
        let out = fixctl(&["scrape", path, "--require", required]);
        assert!(
            out.status.success(),
            "--require {required}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("present"));
    }
}

#[test]
fn scrape_require_rejects_absent_or_malformed_series() {
    let dir = tmpdir("scrape_labeled_miss");
    let file = dir.join("metrics.prom");
    std::fs::write(&file, LABELED_EXPOSITION).unwrap();
    let path = file.to_str().unwrap();
    // Right name, wrong label value: missing (exit 1).
    let out = fixctl(&[
        "scrape",
        path,
        "--require",
        "http_requests{endpoint=\"nope\"}",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("missing"));
    // Label subset must sit on ONE sample: endpoint from one series plus
    // status from another does not count.
    let out = fixctl(&[
        "scrape",
        path,
        "--require",
        "http_requests{endpoint=\"repair\",status=\"503\"}",
    ]);
    assert_eq!(out.status.code(), Some(1));
    // Malformed label block: operational error (exit 2).
    let out = fixctl(&[
        "scrape",
        path,
        "--require",
        "http_requests{endpoint=repair}",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --require"));
}

// ---- fixctl serve / client ----------------------------------------------

const HOSP_RULES: &str = r#"
IF zip = "36545" AND city IN {"Jackson Heights", "Jaxon"} THEN city := "Jackson"
IF zip = "36545" AND state IN {"AK"} THEN state := "AL"
"#;

/// Spawn `fixctl serve` in the background and parse the bound address off
/// its first stdout line. Returns the child, `host:port`, and the live
/// stdout reader (kept open so the daemon's final prints don't EPIPE).
fn spawn_serve(
    args: &[&str],
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStdout>,
) {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_fixctl"))
        .arg("serve")
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn fixctl serve");
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("fixd listening on http://")
        .unwrap_or_else(|| panic!("unexpected serve banner {line:?}"))
        .to_string();
    (child, addr, reader)
}

#[test]
fn serve_and_client_roundtrip_with_journal() {
    let dir = tmpdir("serve_roundtrip");
    let rules = dir.join("r.frl");
    let batch = dir.join("rows.csv");
    let journal = dir.join("journal.jsonl");
    std::fs::write(&rules, HOSP_RULES).unwrap();
    std::fs::write(&batch, "zip,city,state\n36545,Jaxon,AK\n").unwrap();
    let (mut child, addr, _serve_stdout) = spawn_serve(&[
        "--rules",
        rules.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--threads",
        "2",
    ]);

    // Repair a batch through the client; the response carries the fixes.
    let out = fixctl(&["client", "repair", batch.to_str().unwrap(), "--addr", &addr]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("Jackson"), "{body}");
    assert!(body.contains("\"trace_id\""), "{body}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("trace id: "),
        "client should surface the X-Trace-Id header"
    );

    // Readiness is green.
    let out = fixctl(&["client", "get", "/readyz", "--addr", &addr]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"ready\":true"));

    // The live exposition satisfies a labeled --require.
    let out = fixctl(&[
        "scrape",
        &format!("http://{addr}/metrics"),
        "--require",
        "http.requests{endpoint=\"repair\",status=\"200\"}",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // check is a dry run against the same daemon.
    let out = fixctl(&["client", "check", batch.to_str().unwrap(), "--addr", &addr]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"dirty_rows\":1"));

    // Graceful shutdown: 202, the process exits 0, the journal parses.
    let out = fixctl(&["client", "shutdown", "--addr", &addr]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("draining"));
    let status = child.wait().unwrap();
    assert!(status.success());
    let text = std::fs::read_to_string(&journal).unwrap();
    let records = obs::trace::parse_jsonl(&text).unwrap();
    assert!(records.iter().any(|r| r.name == "request"));
}

#[test]
fn client_surfaces_daemon_errors_as_exit_one() {
    let dir = tmpdir("serve_client_errors");
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, "zip,nope\n1,2\n").unwrap();
    // An inconsistent Σ boots (readiness reports it) but never serves as
    // ready.
    let rules = example("lint/conflicting.frl");
    let (mut child, addr, _serve_stdout) = spawn_serve(&["--rules", &rules]);
    let out = fixctl(&["client", "repair", bad.to_str().unwrap(), "--addr", &addr]);
    assert_eq!(out.status.code(), Some(1), "daemon 4xx maps to exit 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("error"));
    // Readiness is red (503), and the client reports it as exit 1.
    let out = fixctl(&["client", "get", "/readyz", "--addr", &addr]);
    assert_eq!(out.status.code(), Some(1), "daemon 503 maps to exit 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"consistent\":false"));
    let out = fixctl(&["client", "shutdown", "--addr", &addr]);
    assert!(out.status.success());
    assert!(child.wait().unwrap().success());
}

/// The quality table and snapshot do not depend on the worker count: the
/// writing thread feeds the monitor in file order.
#[test]
fn stream_quality_window_prints_a_deterministic_table() {
    let dir = tmpdir("quality_window");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let mut runs = Vec::new();
    for tag in ["1", "2"] {
        let out_path = dir.join(format!("{tag}.csv"));
        let snap_path = dir.join(format!("{tag}.json"));
        let out = fixctl(&[
            "repair",
            "--rules",
            rules.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
            "--threads",
            tag,
            "--quality-window",
            "2",
            "--quality-json",
            snap_path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("window"), "missing table header: {stdout}");
        assert!(stdout.contains("capital"), "missing attr rows: {stdout}");
        // Drop the `wrote <path>` line — the paths differ by run tag.
        let table: String = stdout
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .map(|l| format!("{l}\n"))
            .collect();
        runs.push((table, std::fs::read_to_string(&snap_path).unwrap()));
    }
    // Both the printed table and the JSON snapshot are byte-identical
    // across runs — the CI cmp gate depends on this.
    assert_eq!(runs[0], runs[1]);
    // 4 rows through 2-row windows: both sealed windows are in history.
    let snapshot = runs[0].1.clone();
    assert!(snapshot.contains("\"clock\": 2"), "two sealed windows");
}

/// The monitor sees each row, then its fixes, in file order: on the hosp
/// example, the table and snapshot equal the goldens that the retired
/// one-record-at-a-time stream engine wrote, at 1 and 2 workers.
#[test]
fn quality_window_matches_the_one_record_at_a_time_goldens() {
    let dir = tmpdir("quality_golden");
    let want_table = std::fs::read_to_string(example("data/hosp_quality_table.txt")).unwrap();
    let want_snapshot = std::fs::read_to_string(example("data/hosp_quality.json")).unwrap();
    for threads in ["1", "2"] {
        let snap_path = dir.join(format!("{threads}.json"));
        let out = fixctl(&[
            "repair",
            "--rules",
            &example("rulesets/hosp_zip.frl"),
            "--data",
            &example("data/hosp_dirty.csv"),
            "--out",
            dir.join(format!("{threads}.csv")).to_str().unwrap(),
            "--threads",
            threads,
            "--quality-window",
            "2",
            "--quality-json",
            snap_path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let table: String = stdout
            .lines()
            .skip(1)
            .filter(|l| !l.starts_with("wrote "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(table, want_table, "{threads} workers");
        assert_eq!(std::fs::read_to_string(&snap_path).unwrap(), want_snapshot);
    }
}

#[test]
fn quality_command_renders_snapshots_and_gates_on_alerts() {
    let dir = tmpdir("quality_cmd");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let out_path = dir.join("out.csv");
    let snap_path = dir.join("snap.json");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    // Half the rows in each window repair `capital`, so a 10% repair-rate
    // threshold is guaranteed to fire.
    let out = fixctl(&[
        "repair",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
        "--quality-window",
        "2",
        "--quality-alert",
        "repair_rate>0.1",
        "--quality-json",
        snap_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("alert:"));

    // Plain rendering succeeds and shows the window table.
    let out = fixctl(&["quality", snap_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.starts_with("quality: clock 2"), "header: {stdout}");
    assert!(stdout.contains("active alert:"), "alerts: {stdout}");

    // `--window 1` trims the table to the newest sealed window.
    let out = fixctl(&["quality", snap_path.to_str().unwrap(), "--window", "1"]);
    let trimmed = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(trimmed.matches("capital").count() < stdout.matches("capital").count());

    // `--require-green` turns the active alert into exit status 1.
    let out = fixctl(&["quality", snap_path.to_str().unwrap(), "--require-green"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("active alert(s)"));
}

// ---- worker-count parity -------------------------------------------------

/// A ~3 MiB table, so the reader cuts it into chunks: Fig 1's rows tiled,
/// with quoted commas, `""` escapes, quoted line breaks and CRLF rows
/// mixed in, and three dirty rows in 40.
fn tiled_travel_csv() -> String {
    tiled_travel_rows(50_000)
}

/// [`tiled_travel_csv`] with `rows` rows, about 60 bytes each.
fn tiled_travel_rows(rows: usize) -> String {
    let mut text = String::from("name,country,capital,city,conf\n");
    for i in 0..rows {
        let name = match i % 4 {
            0 => format!("p{i}"),
            1 => format!("\"Doe, J{}\"", i % 97),
            2 => format!("\"say \"\"{}\"\"\nok\"", i % 13),
            _ => format!("q{}", i % 501),
        };
        let row = match i % 40 {
            0 => "China,Shanghai,Hongkong,ICDE",
            20 => "Canada,Toronto,Toronto,VLDB",
            13 => "China,Tokyo,Tokyo,ICDE",
            _ => "China,Beijing,Beijing,SIGMOD",
        };
        let end = if i % 3 == 0 { "\r\n" } else { "\n" };
        text += &format!("{name},{row}{end}");
    }
    text
}

/// The counters and histograms of a `--metrics` snapshot, minus the ones
/// that describe the workers themselves (`repair.worker.*`) or measure
/// time (`stage.*`, `pipeline.*`).
fn worker_independent_metrics(path: &std::path::Path) -> Vec<(String, String)> {
    let snap = obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let mut out = Vec::new();
    for section in ["counters", "histograms"] {
        for (name, value) in snap.get(section).unwrap().as_obj().unwrap() {
            if !["repair.worker.", "stage.", "pipeline."]
                .iter()
                .any(|prefix| name.starts_with(prefix))
            {
                out.push((format!("{section}.{name}"), value.to_string()));
            }
        }
    }
    out
}

#[test]
fn repair_output_is_identical_at_any_worker_count() {
    let dir = tmpdir("thread_parity");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, tiled_travel_csv()).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let run = |tag: &str, threads: &[&str]| {
        let file = |name: &str| dir.join(format!("{tag}_{name}"));
        let paths = [
            file("out.csv"),
            file("updates.csv"),
            file("profile.json"),
            file("metrics.json"),
            file("trace.jsonl"),
        ];
        let p: Vec<&str> = paths.iter().map(|p| p.to_str().unwrap()).collect();
        let mut args = vec![
            "repair",
            "--rules",
            rules.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--out",
            p[0],
            "--updates-log",
            p[1],
            "--profile-json",
            p[2],
            "--metrics",
            p[3],
            "--trace",
            p[4],
        ];
        args.extend_from_slice(threads);
        let out = fixctl(&args);
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Output paths differ per run; everything else must not.
        let stdout = String::from_utf8_lossy(&out.stdout).replace(tag, "RUN");
        let read = |i: usize| std::fs::read(&paths[i]).unwrap();
        (
            stdout,
            [read(0), read(1), read(2), read(4)],
            worker_independent_metrics(&paths[3]),
        )
    };
    let one = run("one", &["--threads", "1"]);
    assert!(one.0.contains("3750 row(s) of 50000"), "{}", one.0);
    for (tag, threads) in [("three", &["--threads", "3"][..]), ("default", &[][..])] {
        let other = run(tag, threads);
        assert_eq!(other.0, one.0, "{tag}: stdout");
        for (i, what) in ["--out", "--updates-log", "--profile-json", "--trace"]
            .iter()
            .enumerate()
        {
            assert!(other.1[i] == one.1[i], "{tag}: {what} differs");
        }
        assert_eq!(other.2, one.2, "{tag}: metrics");
    }
}

/// Three rules, two conflicting pairs: the gate reports both, at any
/// worker count.
const THREE_CONFLICTS: &str = r#"
IF country = "China" AND capital IN {"Shanghai", "Tokyo"} THEN capital := "Beijing"
IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Nanjing"
IF capital = "Tokyo" AND city = "Tokyo" AND conf = "ICDE" AND country IN {"China"} THEN country := "Japan"
"#;

#[test]
fn consistency_gate_stays_sequential_without_threads() {
    let dir = tmpdir("gate_default");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, THREE_CONFLICTS).unwrap();
    for command in ["check", "detect", "repair"] {
        let run = |tag: &str, threads: &[&str]| {
            let metrics = dir.join(format!("{command}_{tag}.json"));
            let out_csv = dir.join("x.csv");
            let mut args = vec![
                command,
                "--rules",
                rules.to_str().unwrap(),
                "--data",
                data.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
            ];
            if command == "repair" {
                args.extend(["--out", out_csv.to_str().unwrap()]);
            }
            args.extend_from_slice(threads);
            let out = fixctl(&args);
            assert!(!out.status.success(), "{command} {tag}");
            let snap = obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            let consistency: Vec<String> = snap
                .get("counters")
                .unwrap()
                .as_obj()
                .unwrap()
                .iter()
                .filter(|(name, _)| name.starts_with("consistency."))
                .map(|(name, value)| format!("{name}={value}"))
                .collect();
            (
                String::from_utf8_lossy(&out.stdout).into_owned(),
                String::from_utf8_lossy(&out.stderr).into_owned(),
                consistency,
            )
        };
        let default = run("default", &[]);
        for (tag, threads) in [("one", "1"), ("three", "3")] {
            assert_eq!(
                default,
                run(tag, &["--threads", threads]),
                "{command} {tag}"
            );
        }
        assert!(
            default.2.contains(&"consistency.conflicts=2".to_string()),
            "{command}: {:?}",
            default.2
        );
        if command == "check" {
            assert!(default.0.contains("INCONSISTENT"), "{}", default.0);
            assert!(default.0.contains("[0] vs [1]"), "{}", default.0);
        } else {
            assert!(default.1.contains("2 conflict(s)"), "{}", default.1);
        }
    }
}

#[test]
fn load_keeps_only_rule_constants_and_repair_can_overwrite_its_input() {
    let dir = tmpdir("constants_only");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    let fixed = dir.join("fixed.csv");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let (data, rules, fixed) = (
        data.to_str().unwrap(),
        rules.to_str().unwrap(),
        fixed.to_str().unwrap(),
    );
    // Σ's distinct constants: China, Shanghai, Hongkong, Beijing, Canada,
    // Toronto, Ottawa, Tokyo, ICDE, Japan. The data's other values
    // (names, SIGMOD, VLDB) are never interned.
    for command in ["check", "repair"] {
        let mut args = vec![command, "--rules", rules, "--data", data, "--log", "info"];
        if command == "repair" {
            args.extend(["--out", fixed]);
        }
        let out = fixctl(&args);
        assert!(out.status.success(), "{command}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("event=load.done rows=4 rules=3 constants=10\n"),
            "{command}: {stderr}"
        );
    }
    let want = std::fs::read(fixed).unwrap();
    assert!(String::from_utf8_lossy(&want).contains("Peter,Japan,Tokyo,Tokyo,ICDE\n"));
    // Written over its own input, the repair still reads every row first:
    // Fig 1's four rows, and a file of many chunks.
    let out = fixctl(&["repair", "--rules", rules, "--data", data, "--out", data]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(std::fs::read(data).unwrap(), want);
    std::fs::write(data, tiled_travel_csv()).unwrap();
    let out = fixctl(&["repair", "--rules", rules, "--data", data, "--out", fixed]);
    assert!(out.status.success(), "{out:?}");
    let want = std::fs::read(fixed).unwrap();
    assert_ne!(std::fs::read(data).unwrap(), want);
    for threads in ["1", "2"] {
        std::fs::write(data, tiled_travel_csv()).unwrap();
        let args = ["repair", "--rules", rules, "--data", data, "--out", data];
        let out = fixctl(&[&args[..], &["--threads", threads]].concat());
        assert!(out.status.success(), "{out:?}");
        assert!(std::fs::read(data).unwrap() == want, "threads={threads}");
    }
    assert_eq!(files_in(&dir), ["fixed.csv", "r.frl", "t.csv"]);
}

#[cfg(unix)]
#[test]
fn repair_through_a_link_to_its_input_replaces_the_file_it_names() {
    let dir = tmpdir("out_link");
    let (data, rules, fixed, link) = (
        dir.join("t.csv"),
        dir.join("r.frl"),
        dir.join("fixed.csv"),
        dir.join("link.csv"),
    );
    std::fs::write(&data, tiled_travel_csv()).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    std::os::unix::fs::symlink("t.csv", &link).unwrap();
    let (data, rules, fixed, link) = (
        data.to_str().unwrap(),
        rules.to_str().unwrap(),
        fixed.to_str().unwrap(),
        link.to_str().unwrap(),
    );
    let out = fixctl(&["repair", "--rules", rules, "--data", data, "--out", fixed]);
    assert!(out.status.success(), "{out:?}");
    let want = std::fs::read(fixed).unwrap();
    assert_ne!(std::fs::read(data).unwrap(), want);
    // `--out` is a link to `--data`: the input is read whole before the
    // linked file is replaced, and the link stays a link.
    for threads in ["1", "2"] {
        std::fs::write(data, tiled_travel_csv()).unwrap();
        let args = ["repair", "--rules", rules, "--data", data, "--out", link];
        let out = fixctl(&[&args[..], &["--threads", threads]].concat());
        assert!(out.status.success(), "{out:?}");
        assert!(std::fs::read(data).unwrap() == want, "threads={threads}");
        let meta = std::fs::symlink_metadata(link).unwrap();
        assert!(meta.file_type().is_symlink(), "threads={threads}");
    }
    assert_eq!(files_in(&dir), ["fixed.csv", "link.csv", "r.frl", "t.csv"]);
}

/// The files in `dir`, by name.
fn files_in(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn a_late_ragged_row_fails_the_repair_and_leaves_out_as_it_was() {
    let dir = tmpdir("late_ragged");
    let (data, rules, fixed) = (dir.join("t.csv"), dir.join("r.frl"), dir.join("fixed.csv"));
    // About 1.2 MiB: the ragged row sits in the last of several chunks.
    let mut text = tiled_travel_rows(20_000);
    text += "late,row\nlast,China,Beijing,Beijing,ICDE\n";
    std::fs::write(&data, &text).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let (data, rules, fixed) = (
        data.to_str().unwrap(),
        rules.to_str().unwrap(),
        fixed.to_str().unwrap(),
    );
    let message = format!(
        "fixctl: reading {data}: I/O error: CSV error: record has 2 fields, but the previous record has 5\n"
    );
    for threads in ["1", "2", "3"] {
        let args = [
            "repair",
            "--rules",
            rules,
            "--data",
            data,
            "--out",
            fixed,
            "--threads",
            threads,
        ];
        let out = fixctl(&args);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            message,
            "threads={threads}"
        );
        assert_eq!(files_in(&dir), ["r.frl", "t.csv"], "threads={threads}");
        // An existing --out keeps its bytes.
        std::fs::write(fixed, "kept\n").unwrap();
        let out = fixctl(&args);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        assert_eq!(std::fs::read(fixed).unwrap(), b"kept\n");
        assert_eq!(files_in(&dir), ["fixed.csv", "r.frl", "t.csv"]);
        std::fs::remove_file(fixed).unwrap();
    }
}

/// A run that fails on a late ragged row has repaired every chunk before
/// it and none after it, and each worker's tallies reach `--metrics`, so
/// the `repair.*` counters are the same at every worker count and run.
#[test]
fn a_failed_repair_writes_the_same_repair_counters_at_every_worker_count() {
    let dir = tmpdir("failed_counters");
    let (data, rules, metrics) = (dir.join("t.csv"), dir.join("r.frl"), dir.join("m.json"));
    let mut text = tiled_travel_rows(20_000);
    text += "late,row\nlast,China,Beijing,Beijing,ICDE\n";
    std::fs::write(&data, &text).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let fixed = dir.join("fixed.csv");
    let path = |p: &PathBuf| p.to_str().unwrap().to_string();
    let mut first: Option<Vec<String>> = None;
    for threads in ["1", "2", "3"] {
        for run in 0..3 {
            let out = fixctl(&[
                "repair",
                "--rules",
                &path(&rules),
                "--data",
                &path(&data),
                "--out",
                &path(&fixed),
                "--threads",
                threads,
                "--metrics",
                &path(&metrics),
            ]);
            assert_eq!(out.status.code(), Some(2), "{out:?}");
            let snapshot = obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            let counters = repair_metrics(&snapshot);
            let tuples = counters
                .iter()
                .find_map(|c| c.strip_prefix("repair.tuples="))
                .and_then(|n| n.parse::<usize>().ok())
                .unwrap_or(0);
            // Several whole chunks before the failing one, not every row.
            assert!((4_097..20_000).contains(&tuples), "{counters:?}");
            match &first {
                None => first = Some(counters),
                Some(want) => assert_eq!(&counters, want, "threads={threads} run={run}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every command that reads `--data` with `--rules`.
const DATA_COMMANDS: [&str; 7] = [
    "repair", "check", "detect", "stats", "convert", "resolve", "coverage",
];

#[test]
fn a_data_error_is_reported_before_a_rules_error_or_a_conflict() {
    let dir = tmpdir("error_order");
    let (data, fixed) = (dir.join("t.csv"), dir.join("fixed.csv"));
    std::fs::write(&data, format!("{TRAVEL_CSV}ragged,row\n")).unwrap();
    let message = format!(
        "fixctl: reading {}: I/O error: CSV error: record has 2 fields, but the previous record has 5\n",
        data.display()
    );
    let unparsable = "IF country = \"China\" AND THEN capital := \"Beijing\"\n";
    for (tag, text) in [
        ("unparsable", unparsable),
        ("inconsistent", BAD_RULES),
        ("consistent", GOOD_RULES),
    ] {
        let rules = dir.join(format!("{tag}.frl"));
        std::fs::write(&rules, text).unwrap();
        for command in DATA_COMMANDS {
            let mut args = vec![
                command,
                "--rules",
                rules.to_str().unwrap(),
                "--data",
                data.to_str().unwrap(),
            ];
            if ["repair", "convert", "resolve"].contains(&command) {
                args.extend(["--out", fixed.to_str().unwrap()]);
            }
            let out = fixctl(&args);
            assert_eq!(out.status.code(), Some(2), "{tag} {command}: {out:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stderr),
                message,
                "{tag} {command}"
            );
            assert!(!fixed.exists(), "{tag} {command}");
        }
    }
}

/// `process.peak_rss_bytes` from a `--metrics` file.
fn peak_rss_bytes(path: &std::path::Path) -> i64 {
    let snap = obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    snap.get("gauges")
        .and_then(|g| g.get("process.peak_rss_bytes"))
        .and_then(|v| v.as_i64())
        .expect("a process.peak_rss_bytes gauge")
}

#[test]
fn repair_memory_does_not_grow_with_the_input() {
    if !std::path::Path::new("/proc/self/status").exists() {
        return;
    }
    let dir = tmpdir("peak_rss");
    let rules = dir.join("r.frl");
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let peak = |rows: usize| {
        let (data, fixed, metrics) = (
            dir.join(format!("{rows}.csv")),
            dir.join("fixed.csv"),
            dir.join("m.json"),
        );
        std::fs::write(&data, tiled_travel_rows(rows)).unwrap();
        let out = fixctl(&[
            "repair",
            "--rules",
            rules.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--out",
            fixed.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
            "--threads",
            "2",
        ]);
        assert!(out.status.success(), "{out:?}");
        (
            std::fs::metadata(&data).unwrap().len(),
            peak_rss_bytes(&metrics),
        )
    };
    let (small_len, small) = peak(10_000);
    let (large_len, large) = peak(100_000);
    assert!(
        large_len > 2 << 20 && large_len >= 9 * small_len,
        "{large_len}"
    );
    assert!(
        large - small <= 4 << 20,
        "peak RSS {small} B on {small_len} B of input, {large} B on {large_len} B"
    );
}

/// No command that reads `--data` holds its rows: each one's peak memory
/// on 400,000 rows (about 15 MB, whose cells alone, 4 bytes each, would
/// take 8 MB) is within 4 MiB of its peak on 10,000.
#[test]
fn no_data_command_holds_the_rows() {
    if !std::path::Path::new("/proc/self/status").exists() {
        return;
    }
    let dir = tmpdir("peak_rss_all");
    let (rules, fixed, metrics) = (dir.join("r.frl"), dir.join("out"), dir.join("m.json"));
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let inputs = [10_000, 400_000].map(|rows| {
        let data = dir.join(format!("{rows}.csv"));
        std::fs::write(&data, tiled_travel_rows(rows)).unwrap();
        data
    });
    assert!(std::fs::metadata(&inputs[1]).unwrap().len() > 12 << 20);
    for command in DATA_COMMANDS.into_iter().skip(1) {
        let peak = |data: &PathBuf| {
            let mut args = vec![
                command,
                "--rules",
                rules.to_str().unwrap(),
                "--data",
                data.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
            ];
            if command != "coverage" {
                args.extend(["--threads", "2"]);
            }
            if ["convert", "resolve"].contains(&command) {
                args.extend(["--out", fixed.to_str().unwrap()]);
            }
            let out = fixctl(&args);
            assert!(out.status.success(), "{command}: {out:?}");
            peak_rss_bytes(&metrics)
        };
        let (small, large) = (peak(&inputs[0]), peak(&inputs[1]));
        assert!(
            large - small <= 4 << 20,
            "{command}: peak RSS {small} B on 10,000 rows, {large} B on 400,000"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// On a multi-chunk input, at 1 to 3 workers, `detect` reports what
/// `repair` does: its summary line is `repair`'s, and it explains the
/// first 100 records of `repair --updates-log` in order. `coverage`'s
/// `--profile-json` is `repair --profile --profile-json`'s (`coverage`
/// always times rules, which `--profile` turns on).
#[test]
fn detect_and_coverage_report_what_repair_does_on_a_multi_chunk_input() {
    let dir = tmpdir("detect_coverage");
    let data = dir.join("hosp.csv");
    std::fs::write(&data, tiled_hosp_csv()).unwrap();
    let rules_path = example("rulesets/hosp_zip.frl");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = |args: &[&str]| {
        let out = fixctl(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let data = data.to_str().unwrap();
    let repaired = run(&[
        "repair",
        "--rules",
        &rules_path,
        "--data",
        data,
        "--threads",
        "1",
        "--out",
        &file("out.csv"),
        "--updates-log",
        &file("updates.csv"),
        "--profile",
        "--profile-json",
        &file("profile.json"),
    ]);
    // The explanations `repair`'s update log gives, and the summary line.
    let mut symbols = relation::SymbolTable::new();
    let schema =
        relation::csv_io::read_csv_header(std::fs::File::open(data).unwrap(), "data").unwrap();
    let text = std::fs::read_to_string(&rules_path).unwrap();
    let rules = fixrules::io::parse_rules(&text, &schema, &mut symbols).unwrap();
    let log = std::fs::read(file("updates.csv")).unwrap();
    let log = relation::csv_io::read_csv(log.as_slice(), "log", &mut symbols).unwrap();
    assert!(log.len() > 1_000, "{}", log.len());
    let summary = repaired.lines().next().unwrap();
    let mut want = summary.replacen(" update(s)", " planned update(s)", 1) + "\n";
    for i in 0..100 {
        let [row, attr, old, new, rule] = <[&str; 5]>::try_from(log.row_strs(&symbols, i)).unwrap();
        let update = fixrules::repair::CellUpdate {
            row: row.parse().unwrap(),
            attr: schema.attr(attr).unwrap(),
            old: symbols.get(old).unwrap(),
            new: symbols.get(new).unwrap(),
            rule: fixrules::RuleId(rule.parse().unwrap()),
            round: 0,
        };
        let explained = fixrules::repair::explain(&update, &rules, &schema, &symbols);
        want += &format!("  {explained}\n");
    }
    want += &format!("  ... and {} more\n", log.len() - 100);
    for threads in ["1", "2", "3"] {
        let detected = run(&[
            "detect",
            "--rules",
            &rules_path,
            "--data",
            data,
            "--threads",
            threads,
        ]);
        assert!(detected == want, "detect at {threads} workers:\n{detected}");
    }
    run(&[
        "coverage",
        "--rules",
        &rules_path,
        "--data",
        data,
        "--profile-json",
        &file("coverage.json"),
    ]);
    assert!(
        std::fs::read(file("coverage.json")).unwrap()
            == std::fs::read(file("profile.json")).unwrap(),
        "coverage --profile-json differs from repair's"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A copy of `data` that keeps its header row and drops every record.
fn header_only(data: &str, dir: &std::path::Path) -> String {
    let text = std::fs::read_to_string(data).unwrap();
    let header = dir.join("header.csv");
    std::fs::write(&header, format!("{}\n", text.lines().next().unwrap())).unwrap();
    header.to_str().unwrap().to_string()
}

#[test]
fn lint_and_certify_read_only_the_header_of_data() {
    let dir = tmpdir("lint_header");
    let cases = [
        ("rulesets/hosp_zip.frl", "data/hosp_dirty.csv"),
        ("lint/dead_redundant.frl", "lint/profile_dirty.csv"),
        ("lint/conflicting.frl", "lint/profile_dirty.csv"),
    ];
    for (rules, data) in cases {
        let (rules, data) = (example(rules), example(data));
        let header = header_only(&data, &dir);
        for command in ["lint", "certify"] {
            for format in ["human", "json"] {
                let run =
                    |data: &str| fixctl(&[command, &rules, "--data", data, "--format", format]);
                let (full, head) = (run(&data), run(&header));
                assert_eq!(full.status.code(), head.status.code(), "{command} {rules}");
                assert!(
                    full.stdout == head.stdout,
                    "{command} {format} {rules}: --data changed the output\n{}\n---\n{}",
                    String::from_utf8_lossy(&full.stdout),
                    String::from_utf8_lossy(&head.stdout)
                );
            }
        }
    }
}

#[test]
fn convert_prints_constants_in_rule_parse_order() {
    let dir = tmpdir("convert_order");
    let (rules, data) = (
        example("rulesets/hosp_zip.frl"),
        example("data/hosp_dirty.csv"),
    );
    let header = header_only(&data, &dir);
    let out = dir.join("out.frl");
    let out = out.to_str().unwrap();
    let convert = |data: &str| {
        let run = fixctl(&["convert", "--rules", &rules, "--data", data, "--out", out]);
        assert!(run.status.success(), "{run:?}");
        std::fs::read_to_string(out).unwrap()
    };
    let (full, head) = (convert(&data), convert(&header));
    assert_eq!(full, head);
    // `Tp[B]` keeps the order the rule file lists it in, whatever the
    // data holds.
    assert!(
        full.contains(r#"city IN {"Jackson Heights", "Jaxon"}"#),
        "{full}"
    );
}

#[test]
fn stats_lists_tied_attributes_by_name() {
    let dir = tmpdir("stats_ties");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    // One rule per repaired attribute: four attributes tie at 1.
    std::fs::write(
        &rules,
        r#"
IF conf = "VLDB" AND name IN {"Mik"} THEN name := "Mike"
IF name = "Ian" AND city IN {"Hongkong"} THEN city := "Shanghai"
IF country = "China" AND capital IN {"Shanghai"} THEN capital := "Beijing"
IF capital = "Tokyo" AND conf = "ICDE" AND country IN {"China"} THEN country := "Japan"
"#,
    )
    .unwrap();
    let out = fixctl(&[
        "stats",
        "--rules",
        rules.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout
        .lines()
        .skip_while(|l| *l != "rules per repaired attribute:")
        .skip(1)
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(listed, ["capital", "city", "country", "name"], "{stdout}");
}

/// Both CSV readers, `repair`'s chunk pipeline and the table loader that
/// `check` runs, report a missing `--data` alike.
#[test]
fn both_engines_report_a_missing_data_file_alike() {
    let dir = tmpdir("missing_data");
    let rules = example("rulesets/hosp_zip.frl");
    let (data, out) = (dir.join("absent.csv"), dir.join("out.csv"));
    let stderr = |command: &str, extra: &[&str]| {
        let mut args = vec![command, "--rules", &rules, "--data", data.to_str().unwrap()];
        args.extend_from_slice(extra);
        let run = fixctl(&args);
        assert_eq!(run.status.code(), Some(2), "{command}: {run:?}");
        String::from_utf8(run.stderr).unwrap()
    };
    let repair = stderr("repair", &["--out", out.to_str().unwrap()]);
    assert!(repair.contains("absent.csv: I/O error: "), "{repair}");
    assert_eq!(stderr("check", &[]), repair);
    assert!(!out.exists());
}

/// `fixctl lint ... | head -1`: a reader that goes away before the output
/// is written ends the command quietly, with no panic and not with the
/// panic status 101.
#[test]
fn a_closed_stdout_ends_the_command_without_a_panic() {
    let dir = tmpdir("closed_stdout");
    let data = dir.join("t.csv");
    let rules = dir.join("r.frl");
    std::fs::write(&data, TRAVEL_CSV).unwrap();
    std::fs::write(&rules, GOOD_RULES).unwrap();
    let rules = rules.to_str().unwrap();
    let data = data.to_str().unwrap();
    for args in [
        vec!["lint", rules, "--data", data],
        vec!["check", "--rules", rules, "--data", data],
    ] {
        // The read end is closed before fixctl starts, so its first
        // write to stdout fails.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_fixctl"))
            .args(&args)
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .output()
            .expect("spawn fixctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(141), "{args:?}: {stderr}");
    }
}
