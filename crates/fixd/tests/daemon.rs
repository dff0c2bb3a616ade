//! End-to-end tests of the `fixd` daemon over real loopback sockets:
//! batch repair in both body formats, concurrent clients, trace
//! retrieval, readiness from boot on, provenance explain, error paths,
//! and graceful shutdown with a parseable journal.

use fixd::{Daemon, DaemonConfig, RulesSource, SchemaSource};
use fixrules::provenance::{chain, ProvenanceRecord};
use obs::http::{http_get, http_post, http_request};
use obs::{Json, SloConfig};

const RULES: &str = r#"
IF zip = "36545" AND city IN {"Jackson Heights", "Jaxon"} THEN city := "Jackson"
IF zip = "36545" AND state IN {"AK"} THEN state := "AL"
IF zip = "10001" AND city IN {"NYC", "New-York"} THEN city := "New York"
IF zip = "10001" AND state IN {"NJ"} THEN state := "NY"
"#;

fn daemon() -> Daemon {
    Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        threads: 4,
        ..DaemonConfig::default()
    })
    .unwrap()
}

fn url(daemon: &Daemon, path: &str) -> String {
    format!("http://{}{}", daemon.addr(), path)
}

fn parse_json(body: &str) -> Json {
    obs::json::parse(body).expect("response body must be JSON")
}

#[test]
fn repairs_a_csv_batch_and_serves_its_trace() {
    let daemon = daemon();
    let body = "zip,city,state\n36545,Jaxon,AK\n10001,New York,NY\n";
    let reply = http_post(&url(&daemon, "/repair"), "text/csv", body.as_bytes()).unwrap();
    assert_eq!(reply.status, 200);
    let json = parse_json(&reply.body);
    assert_eq!(json.get("repaired_rows").unwrap().as_i64(), Some(1));
    assert_eq!(json.get("row_base").unwrap().as_i64(), Some(0));
    let rows = json.get("rows").unwrap().as_arr().unwrap();
    let first = rows[0].as_arr().unwrap();
    // Schema is inferred from the rules: zip, city, state.
    assert_eq!(first[1].as_str(), Some("Jackson"));
    assert_eq!(first[2].as_str(), Some("AL"));
    assert_eq!(rows[1].as_arr().unwrap()[1].as_str(), Some("New York"));

    // The trace id is in both the header and the body, and resolves to a
    // JSONL subtree with the request/repair spans and row events.
    let trace_id = json.get("trace_id").unwrap().as_str().unwrap().to_string();
    let header = reply
        .headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("x-trace-id"))
        .map(|(_, value)| value.as_str());
    assert_eq!(header, Some(trace_id.as_str()));
    let (status, trace) = http_get(&url(&daemon, &format!("/trace/{trace_id}"))).unwrap();
    assert_eq!(status, 200);
    let records = obs::trace::parse_jsonl(&trace).unwrap();
    assert!(records.iter().any(|r| r.name == "request"));
    assert!(records.iter().any(|r| r.name == "repair"));
    assert_eq!(
        records.iter().filter(|r| r.name == "row.repaired").count(),
        1
    );

    // Chrome export of the same subtree wraps the events for
    // chrome://tracing.
    let (status, chrome) =
        http_get(&url(&daemon, &format!("/trace/{trace_id}?format=chrome"))).unwrap();
    assert_eq!(status, 200);
    let events = parse_json(&chrome);
    let events = events.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), records.len());
    daemon.shutdown();
}

#[test]
fn accepts_json_rows_and_reordered_csv_columns() {
    let daemon = daemon();
    // JSON rows under {"rows": [...]}.
    let body = r#"{"rows":[{"zip":"36545","city":"Jaxon","state":"AL"}]}"#;
    let reply = http_post(
        &url(&daemon, "/repair"),
        "application/json",
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(reply.status, 200);
    let json = parse_json(&reply.body);
    let row = json.get("rows").unwrap().as_arr().unwrap()[0]
        .as_arr()
        .unwrap();
    assert_eq!(row[1].as_str(), Some("Jackson"));

    // CSV columns in a different order than the daemon schema.
    let body = "state,zip,city\nAK,36545,Jackson\n";
    let reply = http_post(&url(&daemon, "/repair"), "text/csv", body.as_bytes()).unwrap();
    assert_eq!(reply.status, 200);
    let json = parse_json(&reply.body);
    let row = json.get("rows").unwrap().as_arr().unwrap()[0]
        .as_arr()
        .unwrap();
    assert_eq!(
        row[2].as_str(),
        Some("AL"),
        "state column remapped and repaired"
    );

    // format=csv echoes the repaired batch as CSV in schema order.
    let reply = http_request(
        "POST",
        &url(&daemon, "/repair?format=csv"),
        "text/csv",
        "zip,city,state\n36545,Jaxon,AK\n".as_bytes(),
    )
    .unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, "zip,city,state\n36545,Jackson,AL\n");
    daemon.shutdown();
}

#[test]
fn concurrent_batches_repair_alike_under_global_row_ids() {
    let daemon = daemon();
    let repair_url = url(&daemon, "/repair");
    // 4 distinct dirty signatures, hammered by 8 clients × 5 batches.
    let batch = "zip,city,state\n\
                 36545,Jaxon,AL\n36545,Jackson,AK\n10001,NYC,NY\n10001,New York,NJ\n";
    let repaired = r#"[["36545","Jackson","AL"],["36545","Jackson","AL"],["10001","New York","NY"],["10001","New York","NY"]]"#;
    let row_bases = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (repair_url, row_bases) = (&repair_url, &row_bases);
            s.spawn(move || {
                for _ in 0..5 {
                    let reply = http_post(repair_url, "text/csv", batch.as_bytes()).unwrap();
                    assert_eq!(reply.status, 200);
                    let json = parse_json(&reply.body);
                    assert_eq!(json.get("repaired_rows").unwrap().as_i64(), Some(4));
                    let rows = json.get("rows").unwrap().to_string();
                    assert_eq!(rows, repaired, "every request repairs alike");
                    let row_base = json.get("row_base").unwrap().as_i64().unwrap();
                    row_bases.lock().unwrap().push(row_base);
                }
            });
        }
    });
    // Each batch is a distinct request with its own global row ids:
    // 40 requests × 4 rows, in disjoint ranges.
    let mut row_bases = row_bases.into_inner().unwrap();
    row_bases.sort_unstable();
    assert_eq!(row_bases, (0..40).map(|i| i * 4).collect::<Vec<i64>>());
    let (_, readyz) = http_get(&url(&daemon, "/readyz")).unwrap();
    let json = parse_json(&readyz);
    assert_eq!(json.get("rows_served").unwrap().as_i64(), Some(160));
    daemon.shutdown();
}

/// Readiness waits on no traffic: a daemon is ready the moment it boots,
/// and again the moment a certified swap promotes.
#[test]
fn readyz_is_green_at_boot_and_right_after_a_promotion() {
    // Explicit schema: an attribute the rules never mention is legal.
    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        schema: SchemaSource::Names(
            ["zip", "city", "state", "note"]
                .map(str::to_string)
                .to_vec(),
        ),
        ..DaemonConfig::default()
    })
    .unwrap();
    let (status, body) = http_get(&url(&daemon, "/healthz")).unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = http_get(&url(&daemon, "/readyz")).unwrap();
    assert_eq!(status, 200, "ready at boot, before any traffic: {body}");
    let json = parse_json(&body);
    assert_eq!(json.get("ready").unwrap().as_bool(), Some(true));
    assert_eq!(json.get("lint_clean").unwrap().as_bool(), Some(true));
    assert_eq!(json.get("consistent").unwrap().as_bool(), Some(true));
    assert_eq!(json.get("rows_served").unwrap().as_i64(), Some(0));
    assert_eq!(json.get("generation").unwrap().as_i64(), Some(0));

    let swapped = "IF zip = \"36545\" AND city IN {\"Jaxon\"} THEN city := \"Jacksonville\"\n";
    let reply = http_post(&url(&daemon, "/rules"), "text/plain", swapped.as_bytes()).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let (status, body) = http_get(&url(&daemon, "/readyz")).unwrap();
    assert_eq!(status, 200, "ready right after the promotion: {body}");
    let json = parse_json(&body);
    assert_eq!(json.get("generation").unwrap().as_i64(), Some(1));
    assert_eq!(json.get("rows_served").unwrap().as_i64(), Some(0));

    // The unmentioned attribute is carried through untouched.
    let body = "note,zip,city,state\nkeep me,36545,Jaxon,AL\n";
    let reply = http_request(
        "POST",
        &url(&daemon, "/repair?format=csv"),
        "text/csv",
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        reply.body,
        "zip,city,state,note\n36545,Jacksonville,AL,keep me\n"
    );
    daemon.shutdown();
}

#[test]
fn slo_breach_turns_readiness_red_while_liveness_stays_green() {
    // A p99 ceiling of 0ns is unsatisfiable once min_samples arrive.
    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        slo: SloConfig {
            window: 8,
            min_samples: 3,
            max_error_rate: 1.0,
            max_p99_ns: 0,
        },
        ..DaemonConfig::default()
    })
    .unwrap();
    let body = "zip,city,state\n36545,Jaxon,AL\n";
    for _ in 0..3 {
        let reply = http_post(&url(&daemon, "/repair"), "text/csv", body.as_bytes()).unwrap();
        assert_eq!(reply.status, 200);
    }
    let (status, readyz) = http_get(&url(&daemon, "/readyz")).unwrap();
    assert_eq!(status, 503, "latency SLO breach must fail readiness");
    let json = parse_json(&readyz);
    let health = json.get("health").unwrap();
    assert_eq!(health.get("healthy").unwrap().as_bool(), Some(false));
    assert_eq!(health.get("latency_ok").unwrap().as_bool(), Some(false));
    let (status, _) = http_get(&url(&daemon, "/healthz")).unwrap();
    assert_eq!(status, 200, "liveness is not SLO-gated");
    daemon.shutdown();
}

#[test]
fn check_is_a_dry_run_that_records_nothing() {
    let daemon = daemon();
    let body = "zip,city,state\n36545,Jaxon,AL\n10001,New York,NY\n";
    let reply = http_post(&url(&daemon, "/check"), "text/csv", body.as_bytes()).unwrap();
    assert_eq!(reply.status, 200);
    let json = parse_json(&reply.body);
    assert_eq!(json.get("clean").unwrap().as_bool(), Some(false));
    assert_eq!(json.get("dirty_rows").unwrap().as_i64(), Some(1));
    assert_eq!(json.get("total_updates").unwrap().as_i64(), Some(1));
    let per_row = json.get("per_row").unwrap().as_arr().unwrap();
    assert_eq!(per_row[0].as_i64(), Some(1));
    assert_eq!(per_row[1].as_i64(), Some(0));
    // The same rows as a JSON body check the same way.
    let body = r#"[{"zip":"36545","city":"Jaxon","state":"AL"},
                   {"state":"NY","zip":"10001","city":"New York"}]"#;
    let reply = http_post(&url(&daemon, "/check"), "application/json", body.as_bytes()).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let json = parse_json(&reply.body);
    assert_eq!(json.get("dirty_rows").unwrap().as_i64(), Some(1));
    assert_eq!(json.get("total_updates").unwrap().as_i64(), Some(1));
    // Dry runs consume no global row ids, write no provenance and feed
    // no quality window.
    let (_, readyz) = http_get(&url(&daemon, "/readyz")).unwrap();
    let readyz = parse_json(&readyz);
    assert_eq!(readyz.get("rows_served").unwrap().as_i64(), Some(0));
    let reply = http_get(&url(&daemon, "/explain/0/city")).unwrap();
    assert_eq!(reply.0, 404, "check must not create provenance");
    let (status, quality) = http_get(&url(&daemon, "/quality")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        parse_json(&quality).get("clock").unwrap().as_i64(),
        Some(0),
        "check must not feed the quality monitor"
    );
    daemon.shutdown();
}

/// A batch repairs and is observed the same whether it arrives as CSV in
/// schema order, as CSV with its columns reordered, or as JSON. Values no
/// rule mentions enter the shared symbol table row by row in schema
/// order, whatever the body's column order; `/quality`'s sketches hash
/// their ids, so its body pins that order.
#[test]
fn every_intake_form_gives_the_same_repair_and_quality() {
    let rows = [
        ["36545", "Jaxon", "AK"],
        ["99999", "Springfield", "IL"],
        ["10001", "NYC", "NY"],
        ["55555", "Nowhere", "ZZ"],
        ["99999", "Springfield", "AK"],
        ["36545", "Jackson", "AL"],
    ];
    let mut in_order = String::from("zip,city,state\n");
    let mut reordered = String::from("state,city,zip\n");
    let mut objects = Vec::new();
    for [zip, city, state] in rows {
        in_order.push_str(&format!("{zip},{city},{state}\n"));
        reordered.push_str(&format!("{state},{city},{zip}\n"));
        objects.push(format!(
            r#"{{"state":"{state}","city":"{city}","zip":"{zip}"}}"#
        ));
    }
    let json = format!(r#"{{"rows":[{}]}}"#, objects.join(","));
    let run = |content_type: &str, body: &str| {
        let daemon = daemon();
        let reply = http_post(&url(&daemon, "/repair"), content_type, body.as_bytes()).unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        let repaired = parse_json(&reply.body);
        let (status, quality) = http_get(&url(&daemon, "/quality")).unwrap();
        assert_eq!(status, 200);
        // `/explain` names, for each repaired cell, the rule the
        // response's update log does.
        let updates = repaired.get("updates").unwrap().as_arr().unwrap();
        assert!(!updates.is_empty());
        for update in updates {
            let field = |k: &str| update.get(k).unwrap().clone();
            let (row, attr) = (field("row").as_i64().unwrap(), field("attr"));
            let attr = attr.as_str().unwrap();
            let (status, chain) =
                http_get(&url(&daemon, &format!("/explain/{row}/{attr}"))).unwrap();
            assert_eq!(status, 200, "{chain}");
            let own = chain
                .lines()
                .map(parse_json)
                .rfind(|record| record.get("attr").and_then(Json::as_str) == Some(attr))
                .unwrap();
            assert_eq!(own.get("rule"), update.get("rule"), "row {row} {attr}");
        }
        daemon.shutdown();
        (
            repaired.get("rows").unwrap().to_string(),
            repaired.get("updates").unwrap().to_string(),
            quality,
        )
    };
    let expected = run("text/csv", &in_order);
    assert!(expected.0.contains("Springfield") && expected.1.contains("Jackson"));
    // The monitor saw the incoming cities (Jaxon and NYC among them), not
    // the four distinct repaired ones.
    let quality = parse_json(&expected.2);
    let city = &quality
        .get("current")
        .unwrap()
        .get("attrs")
        .unwrap()
        .as_arr()
        .unwrap()[1];
    assert_eq!(city.get("distinct").unwrap().as_i64(), Some(5));
    assert_eq!(run("text/csv", &reordered), expected, "reordered CSV");
    assert_eq!(run("application/json", &json), expected, "JSON");
}

/// A body that is not UTF-8 is rejected with a 400, never rewritten into
/// U+FFFD cells that would then be "repaired" and echoed back.
#[test]
fn non_utf8_bodies_are_rejected() {
    let daemon = daemon();
    let body = b"zip,city,state\n36545,Ja\xffxon,AK\n";
    for path in ["/repair", "/check"] {
        let reply = http_post(&url(&daemon, path), "text/csv", body).unwrap();
        assert_eq!(reply.status, 400, "{path}: {}", reply.body);
        let error = parse_json(&reply.body);
        let message = error.get("error").unwrap().as_str().unwrap();
        assert!(message.contains("UTF-8"), "{path}: {message}");
    }
    let rules = b"IF zip = \"36545\" AND city IN {\"Ja\xffxon\"} THEN city := \"Jackson\"\n";
    let reply = http_post(&url(&daemon, "/rules"), "text/plain", rules).unwrap();
    assert_eq!(reply.status, 400, "/rules: {}", reply.body);
    let (_, readyz) = http_get(&url(&daemon, "/readyz")).unwrap();
    let readyz = parse_json(&readyz);
    assert_eq!(readyz.get("rows_served").unwrap().as_i64(), Some(0));
    assert_eq!(readyz.get("generation").unwrap().as_i64(), Some(0));
    daemon.shutdown();
}

/// `?format=` is one exact query parameter: a longer name or value that
/// merely contains `format=csv` is not it, and an unknown value is a 400.
#[test]
fn format_is_an_exact_query_parameter() {
    let daemon = daemon();
    let post = |path: &str| {
        let body = b"zip,city,state\n36545,Jaxon,AK\n";
        http_post(&url(&daemon, path), "text/csv", body).unwrap()
    };
    for path in ["/repair?format=csv", "/repair?trace=1&format=csv"] {
        let reply = post(path);
        assert_eq!(reply.status, 200, "{path}");
        assert_eq!(reply.body, "zip,city,state\n36545,Jackson,AL\n", "{path}");
    }
    let reply = post("/repair?xformat=csv");
    assert_eq!(reply.status, 200);
    let trace_id = parse_json(&reply.body)
        .get("trace_id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    for path in ["/repair?format=csvz", "/repair?format="] {
        let reply = post(path);
        assert_eq!(reply.status, 400, "{path}: {}", reply.body);
        assert!(parse_json(&reply.body).get("error").is_some(), "{path}");
    }
    let trace =
        |query: &str| http_get(&url(&daemon, &format!("/trace/{trace_id}{query}"))).unwrap();
    let (status, body) = trace("?xformat=chrome");
    assert_eq!(status, 200);
    assert!(
        obs::trace::parse_jsonl(&body).is_ok(),
        "JSONL, not chrome: {body}"
    );
    assert_eq!(trace("?format=chromez").0, 400);
    assert_eq!(trace("?format=chrome").0, 200);
    daemon.shutdown();
}

#[test]
fn explain_serves_the_provenance_chain_with_global_row_ids() {
    let daemon = daemon();
    // Two batches: row ids keep counting across requests.
    for _ in 0..2 {
        let body = "zip,city,state\n36545,Jaxon,AL\n";
        http_post(&url(&daemon, "/repair"), "text/csv", body.as_bytes()).unwrap();
    }
    for row in [0, 1] {
        let (status, body) = http_get(&url(&daemon, &format!("/explain/{row}/city"))).unwrap();
        assert_eq!(status, 200, "row {row} must have provenance");
        let record = parse_json(body.lines().next().unwrap());
        assert_eq!(record.get("row").unwrap().as_i64(), Some(row));
        assert_eq!(record.get("attr").unwrap().as_str(), Some("city"));
        assert_eq!(record.get("new").unwrap().as_str(), Some("Jackson"));
    }
    let (status, _) = http_get(&url(&daemon, "/explain/7/city")).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_get(&url(&daemon, "/explain/0/nope")).unwrap();
    assert_eq!(status, 404);
    daemon.shutdown();
}

#[test]
fn rejects_malformed_requests_with_structured_errors() {
    let daemon = daemon();
    let cases: Vec<(&str, &str, Vec<u8>, u16)> = vec![
        ("POST", "/repair", Vec::new(), 400), // empty body
        ("POST", "/repair", b"zip,city\n36545,Jaxon\n".to_vec(), 400), // missing column
        (
            "POST",
            "/repair",
            b"zip,city,state,extra\na,b,c,d\n".to_vec(),
            400,
        ), // unknown column
        ("POST", "/repair", b"[{\"zip\":\"1\"}]".to_vec(), 400), // missing attrs
        ("POST", "/repair", b"{\"rows\":[42]}".to_vec(), 400), // non-object row
        ("GET", "/nope", Vec::new(), 404),
        ("GET", "/repair", Vec::new(), 405),
        ("POST", "/healthz", Vec::new(), 405),
        ("GET", "/trace/t12345678", Vec::new(), 404),
    ];
    for (method, path, body, expected) in cases {
        let reply = http_request(method, &url(&daemon, path), "text/plain", &body).unwrap();
        assert_eq!(
            reply.status,
            expected,
            "{method} {path} with {} byte body",
            body.len()
        );
        if expected == 400 || expected == 404 || expected == 405 {
            assert!(
                parse_json(&reply.body).get("error").is_some(),
                "{method} {path}: error body must be structured JSON"
            );
        }
    }
    daemon.shutdown();
}

#[test]
fn csv_header_with_no_rows_repairs_nothing() {
    let daemon = daemon();
    let reply = http_post(&url(&daemon, "/repair"), "text/csv", b"zip,city,state\n").unwrap();
    assert_eq!(reply.status, 200);
    let json = parse_json(&reply.body);
    assert_eq!(
        json.get("rows").unwrap().as_arr().map(<[Json]>::len),
        Some(0)
    );
    daemon.shutdown();
}

/// `?format=csv` quotes cells exactly as `fixctl repair` writes its
/// output file: quoted commas, `""` escapes, an embedded newline and a
/// repaired value that itself needs quotes all survive the round trip.
#[test]
fn csv_responses_quote_cells_like_the_cli_output() {
    let example = |path: &str| format!("{}/../../examples/{path}", env!("CARGO_MANIFEST_DIR"));
    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Path(example("rulesets/quoting.frl")),
        schema: SchemaSource::Names(
            ["name", "city", "country", "note"]
                .map(String::from)
                .to_vec(),
        ),
        ..DaemonConfig::default()
    })
    .unwrap();
    let body = std::fs::read(example("data/quoting.csv")).unwrap();
    let reply = http_post(&url(&daemon, "/repair?format=csv"), "text/csv", &body).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let golden = std::fs::read_to_string(example("data/quoting_repaired.csv")).unwrap();
    assert_eq!(reply.body, golden);
    daemon.shutdown();
}

#[test]
fn shutdown_endpoint_drains_and_flushes_a_parseable_journal() {
    let dir = std::env::temp_dir().join("fixd-test-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&journal_path);
    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        journal_path: Some(journal_path.display().to_string()),
        ..DaemonConfig::default()
    })
    .unwrap();
    let base = daemon.addr();
    let body = "zip,city,state\n36545,Jaxon,AL\n";
    let reply = http_post(
        &format!("http://{base}/repair"),
        "text/csv",
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(reply.status, 200);
    let reply = http_post(&format!("http://{base}/shutdown"), "text/plain", b"").unwrap();
    assert_eq!(reply.status, 202);
    assert_eq!(reply.body, "draining\n");
    daemon.wait();
    // The flushed journal parses and holds the request's span scope.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let records = obs::trace::parse_jsonl(&text).unwrap();
    assert!(records.iter().any(|r| r.name == "request"));
    assert!(records.iter().any(|r| r.name == "row.repaired"));
    // The daemon socket is gone: a fresh request now fails to connect.
    assert!(http_get(&format!("http://{base}/healthz")).is_err());
}

#[test]
fn metrics_expose_per_endpoint_labeled_series() {
    let daemon = daemon();
    let body = "zip,city,state\n36545,Jaxon,AL\n";
    http_post(&url(&daemon, "/repair"), "text/csv", body.as_bytes()).unwrap();
    http_get(&url(&daemon, "/readyz")).unwrap();
    let (status, text) = http_get(&url(&daemon, "/metrics")).unwrap();
    assert_eq!(status, 200);
    let samples = obs::parse_prometheus(&text).unwrap();
    let series: Vec<String> = samples
        .iter()
        .map(|s| format!("{}{}", s.name, s.labels))
        .collect();
    assert!(
        series.iter().any(|s| s.starts_with("http_requests{")
            && s.contains("endpoint=\"repair\"")
            && s.contains("status=\"200\"")),
        "missing repair counter in {series:?}"
    );
    assert!(
        series.iter().any(|s| s.contains("endpoint=\"readyz\"")),
        "missing readyz counter"
    );
    assert!(
        text.contains("http_latency_ns"),
        "missing latency histograms"
    );
    // The JSON twin parses and carries the same counters section.
    let (status, json) = http_get(&url(&daemon, "/metrics.json")).unwrap();
    assert_eq!(status, 200);
    assert!(parse_json(&json).get("counters").is_some());
    daemon.shutdown();
}

#[test]
fn hot_swap_never_promotes_an_uncertified_rule_set() {
    let daemon = daemon();
    let batch = "zip,city,state\n36545,Jaxon,AL\n";
    let reply = http_post(&url(&daemon, "/repair"), "text/csv", batch.as_bytes()).unwrap();
    assert_eq!(reply.status, 200);
    let (status, _) = http_get(&url(&daemon, "/readyz")).unwrap();
    assert_eq!(status, 200, "daemon must be ready before the bad swap");

    // Unparseable candidate: rejected outright, nothing changes.
    let reply = http_post(&url(&daemon, "/rules"), "text/plain", b"this is not a rule").unwrap();
    assert_eq!(reply.status, 400);

    // A conflicting candidate lints dirty AND certifies red (FR009): the
    // gate must refuse it wholesale.
    let conflicting = "IF zip = \"1\" AND city IN {\"a\"} THEN city := \"b\"\n\
                       IF zip = \"1\" AND city IN {\"a\"} THEN city := \"c\"\n";
    let reply = http_post(
        &url(&daemon, "/rules"),
        "text/plain",
        conflicting.as_bytes(),
    )
    .unwrap();
    assert_eq!(reply.status, 422, "uncertified rules must not promote");
    let json = parse_json(&reply.body);
    assert_eq!(json.get("promoted").unwrap().as_bool(), Some(false));
    assert_eq!(json.get("certified").unwrap().as_bool(), Some(false));
    assert_eq!(json.get("generation").unwrap().as_i64(), Some(0));
    let findings = json.get("findings").unwrap().as_arr().unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.as_str().is_some_and(|s| s.contains("FR009"))),
        "rejection must carry the confluence finding, got {findings:?}"
    );

    // The old bundle keeps serving: readiness stays green on generation 0
    // and repairs still follow the boot rules.
    let (status, body) = http_get(&url(&daemon, "/readyz")).unwrap();
    assert_eq!(status, 200, "readyz must stay green after a rejected swap");
    let readyz = parse_json(&body);
    assert_eq!(readyz.get("generation").unwrap().as_i64(), Some(0));
    assert_eq!(readyz.get("certified").unwrap().as_bool(), Some(true));
    let reply = http_post(&url(&daemon, "/repair"), "text/csv", batch.as_bytes()).unwrap();
    let row = parse_json(&reply.body)
        .get("rows")
        .unwrap()
        .as_arr()
        .unwrap()[0]
        .as_arr()
        .unwrap()
        .to_vec();
    assert_eq!(row[1].as_str(), Some("Jackson"), "old rules still serve");
    daemon.shutdown();
}

#[test]
fn cert_counters_match_the_certificates_confluence_counts() {
    // One conflicting pair: the confluence pass checks it and chases one
    // witness tuple.
    let text = include_str!("../../../examples/lint/conflicting.frl");
    let schema = fixrules::io::infer_schema(text, "R").unwrap();
    let mut symbols = relation::SymbolTable::new();
    let parsed = fixrules::io::parse_rules_spanned(text, &schema, &mut symbols).unwrap();
    let cert = fixlint::certify(
        &parsed.rules,
        &parsed.spans,
        &symbols,
        &fixlint::CertOptions::default(),
    );
    let expected = (
        cert.confluence.pairs_checked as i64,
        cert.confluence.witness_runs as i64,
    );
    assert_eq!(expected, (1, 1));

    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(text.to_string()),
        ..DaemonConfig::default()
    })
    .unwrap();
    let cert_counters = || {
        let (status, body) = http_get(&url(&daemon, "/metrics.json")).unwrap();
        assert_eq!(status, 200);
        let snapshot = parse_json(&body);
        let counters = snapshot.get("counters").unwrap();
        let get = |name: &str| counters.get(name).and_then(Json::as_i64).unwrap_or(0);
        (get("cert.pairs_checked"), get("cert.witness_runs"))
    };
    assert_eq!(cert_counters(), expected, "boot certificate");

    // A swap certifies the candidate, so its counts add to the boot's.
    let reply = http_post(&url(&daemon, "/rules"), "text/plain", text.as_bytes()).unwrap();
    assert_eq!(
        reply.status, 422,
        "a conflicting candidate must not promote"
    );
    assert_eq!(
        cert_counters(),
        (2 * expected.0, 2 * expected.1),
        "boot and swap certificates"
    );
    daemon.shutdown();
}

#[test]
fn hot_swap_promotes_certified_rules_and_repairs_with_them_at_once() {
    let daemon = daemon();
    let batch = "zip,city,state\n36545,Jaxon,AL\n";
    let reply = http_post(&url(&daemon, "/repair"), "text/csv", batch.as_bytes()).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(daemon.rules_generation(), 0);

    // The replacement set repairs the SAME dirty signature differently:
    // any repair state left over from the old rules would keep producing
    // "Jackson".
    let swapped = "IF zip = \"36545\" AND city IN {\"Jaxon\", \"Jackson Heights\"} THEN city := \"Jacksonville\"\n\
                   IF zip = \"10001\" AND state IN {\"NJ\"} THEN state := \"NY\"\n";
    let reply = http_post(&url(&daemon, "/rules"), "text/plain", swapped.as_bytes()).unwrap();
    assert_eq!(
        reply.status, 200,
        "certified rules must promote: {}",
        reply.body
    );
    let json = parse_json(&reply.body);
    assert_eq!(json.get("promoted").unwrap().as_bool(), Some(true));
    assert_eq!(json.get("certified").unwrap().as_bool(), Some(true));
    assert_eq!(json.get("generation").unwrap().as_i64(), Some(1));
    assert!(json.get("diff").unwrap().get("entries").is_some());

    // Ledger equality with a fresh daemon booted directly on the new set:
    // the swapped daemon's updates must match field-for-field (modulo the
    // daemon-global row id), proving nothing of the old rules replayed.
    let fresh = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(swapped.to_string()),
        schema: SchemaSource::Names(vec![
            "zip".to_string(),
            "city".to_string(),
            "state".to_string(),
        ]),
        ..DaemonConfig::default()
    })
    .unwrap();
    let strip_row = |body: &str| -> Vec<String> {
        parse_json(body)
            .get("updates")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|u| {
                format!(
                    "{}:{}->{} rule={} round={}",
                    u.get("attr").unwrap().as_str().unwrap(),
                    u.get("old").unwrap().as_str().unwrap(),
                    u.get("new").unwrap().as_str().unwrap(),
                    u.get("rule").unwrap().as_i64().unwrap(),
                    u.get("round").unwrap().as_i64().unwrap(),
                )
            })
            .collect()
    };
    let after_swap = http_post(&url(&daemon, "/repair"), "text/csv", batch.as_bytes()).unwrap();
    let from_boot = http_post(&url(&fresh, "/repair"), "text/csv", batch.as_bytes()).unwrap();
    let swapped_updates = strip_row(&after_swap.body);
    assert_eq!(
        swapped_updates,
        strip_row(&from_boot.body),
        "post-swap ledger must equal a fresh boot of the new rules"
    );
    assert_eq!(swapped_updates, ["city:Jaxon->Jacksonville rule=0 round=1"]);
    // Provenance for the post-swap row attributes the NEW rule set.
    let (status, chain) = http_get(&url(&daemon, "/explain/1/city")).unwrap();
    assert_eq!(status, 200);
    assert!(chain.contains("Jacksonville"), "{chain}");

    // Readiness is green on generation 1.
    let (status, body) = http_get(&url(&daemon, "/readyz")).unwrap();
    assert_eq!(status, 200);
    let readyz = parse_json(&body);
    assert_eq!(readyz.get("generation").unwrap().as_i64(), Some(1));
    assert_eq!(readyz.get("rules").unwrap().as_i64(), Some(2));
    fresh.shutdown();
    daemon.shutdown();
}

#[test]
fn rejects_unparseable_and_lint_dirty_rule_sets_at_startup() {
    let err = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline("this is not a rule".to_string()),
        ..DaemonConfig::default()
    })
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Conflicting rules load (the daemon still serves liveness) but the
    // rule set is inconsistent, so readiness stays red forever.
    let conflicting = r#"
IF zip = "1" AND city IN {"a"} THEN city := "b"
IF zip = "1" AND city IN {"a"} THEN city := "c"
"#;
    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(conflicting.to_string()),
        ..DaemonConfig::default()
    })
    .unwrap();
    let (status, body) = http_get(&url(&daemon, "/readyz")).unwrap();
    assert_eq!(status, 503);
    let json = parse_json(&body);
    assert_eq!(json.get("consistent").unwrap().as_bool(), Some(false));
    daemon.shutdown();
}

#[test]
fn caller_supplied_trace_id_is_honored_and_resolvable() {
    let daemon = daemon();
    let body = "zip,city,state\n36545,Jaxon,AK\n";
    let reply = obs::http_request_with_headers(
        "POST",
        &url(&daemon, "/repair"),
        "text/csv",
        body.as_bytes(),
        &[("X-Trace-Id", "t00c0ffee")],
    )
    .unwrap();
    assert_eq!(reply.status, 200);
    let json = parse_json(&reply.body);
    assert_eq!(json.get("trace_id").unwrap().as_str(), Some("t00c0ffee"));
    assert_eq!(reply.header("x-trace-id"), Some("t00c0ffee"));
    // The caller's id resolves through the trace index like a generated
    // one: the subtree holds the request span and its row events.
    let (status, trace) = http_get(&url(&daemon, "/trace/t00c0ffee")).unwrap();
    assert_eq!(status, 200);
    let records = obs::trace::parse_jsonl(&trace).unwrap();
    assert!(records.iter().any(|r| r.name == "request"));
    assert!(records.iter().any(|r| r.name == "row.repaired"));

    // A header without the canonical t%08x shape is ignored: the daemon
    // falls back to a generated id rather than indexing hostile input.
    for bad in ["not-a-trace", "tZZZZZZZZ", "t123", "T00c0ffee"] {
        let reply = obs::http_request_with_headers(
            "POST",
            &url(&daemon, "/repair"),
            "text/csv",
            body.as_bytes(),
            &[("X-Trace-Id", bad)],
        )
        .unwrap();
        assert_eq!(reply.status, 200);
        let json = parse_json(&reply.body);
        let id = json.get("trace_id").unwrap().as_str().unwrap().to_string();
        assert_ne!(id, bad, "malformed id must not be honored");
        assert!(
            id.starts_with('t') && id.len() == 9,
            "generated shape: {id}"
        );
    }
    daemon.shutdown();
}

#[test]
fn trace_sample_zero_disables_row_events_and_is_recorded() {
    let dir = std::env::temp_dir().join("fixd-test-trace-sample");
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&journal_path);
    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        journal_path: Some(journal_path.display().to_string()),
        trace_sample: 0,
        ..DaemonConfig::default()
    })
    .unwrap();
    let body = "zip,city,state\n36545,Jaxon,AK\n10001,NYC,NJ\n";
    let reply = http_post(&url(&daemon, "/repair"), "text/csv", body.as_bytes()).unwrap();
    assert_eq!(reply.status, 200);
    let json = parse_json(&reply.body);
    assert_eq!(json.get("repaired_rows").unwrap().as_i64(), Some(2));
    let reply = http_post(&url(&daemon, "/shutdown"), "text/plain", b"").unwrap();
    assert_eq!(reply.status, 202);
    daemon.wait();
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let records = obs::trace::parse_jsonl(&text).unwrap();
    assert!(
        !records.iter().any(|r| r.name == "row.repaired"),
        "trace_sample 0 must suppress every row event"
    );
    let end = records
        .iter()
        .find(|r| r.name == "request.end")
        .expect("request.end event");
    assert_eq!(end.fields.get("rows_sampled").unwrap().as_i64(), Some(0));
    // The journal leads with the sampling regime so a reader knows the
    // absence of row events is policy, not a quiet batch.
    let meta = records
        .iter()
        .find(|r| r.name == "trace.meta")
        .expect("boot trace.meta event");
    assert_eq!(
        meta.fields.get("row_event_sample").unwrap().as_i64(),
        Some(0)
    );
    assert_eq!(meta.fields.get("source").unwrap().as_str(), Some("fixd"));
}

/// One dirty batch: every row matches a rule, so each sealed window's
/// per-attribute repair rate is 1000‰ — enough to trip a 50% alert.
const SKEWED_BATCH: &str = "zip,city,state\n\
    36545,Jaxon,AK\n36545,Jaxon,AK\n36545,Jaxon,AK\n36545,Jaxon,AK\n";

#[test]
fn quality_snapshot_tracks_windows_and_alerts() {
    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        quality_window: 2,
        quality_alerts: vec!["repair_rate>0.5".parse().unwrap()],
        ..DaemonConfig::default()
    })
    .unwrap();
    // Before any traffic the monitor is enabled but empty.
    let (status, body) = http_get(&url(&daemon, "/quality")).unwrap();
    assert_eq!(status, 200);
    let json = parse_json(&body);
    assert_eq!(json.get("enabled").unwrap().as_bool(), Some(true));
    assert_eq!(json.get("clock").unwrap().as_i64(), Some(0));

    let reply = http_post(
        &url(&daemon, "/repair"),
        "text/csv",
        SKEWED_BATCH.as_bytes(),
    )
    .unwrap();
    assert_eq!(reply.status, 200);
    let (status, body) = http_get(&url(&daemon, "/quality")).unwrap();
    assert_eq!(status, 200);
    let json = parse_json(&body);
    // 4 rows through a 2-row window: at least one sealed window, and the
    // all-repaired batch fired the repair-rate alert.
    assert!(json.get("clock").unwrap().as_i64().unwrap() >= 1);
    let alerts = json.get("alerts").unwrap().as_arr().unwrap();
    assert!(!alerts.is_empty(), "skewed batch must fire an alert");
    assert_eq!(
        alerts[0].get("signal").unwrap().as_str(),
        Some("repair_rate")
    );
    // Drift gauges for the sealed window are live on /metrics.
    let (_, text) = http_get(&url(&daemon, "/metrics")).unwrap();
    assert!(
        text.contains("quality_drift{"),
        "missing quality_drift gauge in exposition"
    );
    assert!(text.contains("quality_alert{"), "missing alert counter");
    daemon.shutdown();

    // With the monitor disabled the endpoint says so instead of 404ing.
    let off = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        quality_window: 0,
        ..DaemonConfig::default()
    })
    .unwrap();
    let (status, body) = http_get(&url(&off, "/quality")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        parse_json(&body).get("enabled").unwrap().as_bool(),
        Some(false)
    );
    off.shutdown();
}

#[test]
fn quality_gate_flips_readyz_only_when_opted_in() {
    let config = |gate: bool| DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        quality_window: 2,
        quality_alerts: vec!["repair_rate>0.5".parse().unwrap()],
        quality_gate: gate,
        ..DaemonConfig::default()
    };
    // Without the gate a firing alert is reported but never gates.
    let ungated = Daemon::start(config(false)).unwrap();
    http_post(
        &url(&ungated, "/repair"),
        "text/csv",
        SKEWED_BATCH.as_bytes(),
    )
    .unwrap();
    let (status, body) = http_get(&url(&ungated, "/readyz")).unwrap();
    assert_eq!(status, 200, "alerts must not gate without opt-in: {body}");
    let json = parse_json(&body);
    assert!(json.get("quality_alerts").unwrap().as_i64().unwrap() >= 1);
    assert_eq!(json.get("quality_ok").unwrap().as_bool(), Some(true));
    assert_eq!(json.get("quality_gate").unwrap().as_bool(), Some(false));
    ungated.shutdown();

    // With the gate the same traffic turns readiness red, and liveness
    // stays green — the daemon is degraded, not down.
    let gated = Daemon::start(config(true)).unwrap();
    http_post(&url(&gated, "/repair"), "text/csv", SKEWED_BATCH.as_bytes()).unwrap();
    let (status, body) = http_get(&url(&gated, "/readyz")).unwrap();
    assert_eq!(status, 503, "gated alert must flip readiness: {body}");
    let json = parse_json(&body);
    assert_eq!(json.get("quality_ok").unwrap().as_bool(), Some(false));
    assert_eq!(json.get("quality_gate").unwrap().as_bool(), Some(true));
    let (status, _) = http_get(&url(&gated, "/healthz")).unwrap();
    assert_eq!(status, 200);
    gated.shutdown();
}

/// 100 chained pairs of certified rules: certifying them takes a while
/// (about 2 s in a debug build), parsing them a few milliseconds.
fn slow_rules() -> String {
    (0..100)
        .map(|i| {
            format!(
                "IF zip = \"z{i}\" AND city IN {{\"c{i}\", \"Jaxon\"}} THEN city := \"d{i}\"\n\
                 IF city = \"d{i}\" AND state IN {{\"s{i}\", \"AK\"}} THEN state := \"t{i}\"\n"
            )
        })
        .collect()
}

/// Polls until the daemon has begun the request with `trace_id`.
fn wait_for_trace(daemon: &Daemon, trace_id: &str) {
    while http_get(&url(daemon, &format!("/trace/{trace_id}")))
        .unwrap()
        .0
        != 200
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn a_hot_swap_does_not_stall_repairs_of_known_values() {
    let daemon = daemon();
    let known = "zip,city,state\n36545,Jaxon,AK\n";
    // Values no request and no rule has carried before.
    let fresh = "zip,city,state\n36545,Nowhere-1,ZZ\n10001,NYC,Nowhere-2\n";
    let repair =
        |batch: &str| http_post(&url(&daemon, "/repair"), "text/csv", batch.as_bytes()).unwrap();
    // Trace t00000000: from here on the known batch's values were all seen.
    assert_eq!(repair(known).status, 200);
    let rules = slow_rules();
    std::thread::scope(|scope| {
        let swapper =
            scope.spawn(|| http_post(&url(&daemon, "/rules"), "text/plain", rules.as_bytes()));
        // Trace t00000001 is the swap: once it has begun, the parse (a few
        // ms) and then the certification (seconds) follow.
        wait_for_trace(&daemon, "t00000001");
        for batch in [known, fresh] {
            let reply = repair(batch);
            assert_eq!(reply.status, 200, "{}", reply.body);
            // The swap journals `rules.swap` when it is done; a repair
            // that waited for the swap would return only after that.
            let (_, swap_trace) = http_get(&url(&daemon, "/trace/t00000001")).unwrap();
            assert!(
                !swap_trace.contains("rules.swap"),
                "a /repair of {batch:?} waited for the hot swap"
            );
        }
        assert_eq!(swapper.join().unwrap().unwrap().status, 200);
    });
    daemon.shutdown();
}

/// The `fixd.symbols` gauge: the size of the serving constants table.
fn symbols_gauge(daemon: &Daemon) -> Option<i64> {
    daemon
        .registry()
        .snapshot()
        .get("gauges")
        .and_then(|g| g.get("fixd.symbols"))
        .and_then(Json::as_i64)
}

#[test]
fn never_seen_values_leave_the_constants_table_as_booted() {
    let daemon = daemon();
    // RULES holds 12 distinct constants.
    assert_eq!(symbols_gauge(&daemon), Some(12));
    for b in 0..60 {
        // Every cell but the repaired ones is a value no earlier request
        // sent; each comes back as it was sent.
        let mut csv = String::from("zip,city,state\n");
        let mut want = csv.clone();
        for r in 0..20 {
            csv += &format!("z{b}-{r},\"c {b},{r}\",s{b}-{r}\n");
            want += &format!("z{b}-{r},\"c {b},{r}\",s{b}-{r}\n");
        }
        csv += &format!("36545,Jaxon,fresh-{b}\n");
        want += &format!("36545,Jackson,fresh-{b}\n");
        let reply = http_post(
            &url(&daemon, "/repair?format=csv"),
            "text/csv",
            csv.as_bytes(),
        )
        .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.body, want);
        let json = format!("[{{\"zip\":\"j{b}\",\"city\":\"NYC\",\"state\":\"x{b}\"}}]");
        let reply = http_post(
            &url(&daemon, "/repair"),
            "application/json",
            json.as_bytes(),
        )
        .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(
            reply.body.contains(&format!("[\"j{b}\",\"NYC\",\"x{b}\"]")),
            "{}",
            reply.body
        );
        assert_eq!(
            symbols_gauge(&daemon),
            Some(12),
            "batch {b} grew the constants table"
        );
    }
    daemon.shutdown();
}

#[test]
fn explain_renders_rows_repaired_before_a_swap_with_their_own_values() {
    let daemon = daemon();
    let batch = "zip,city,state\n36545,Jaxon,AK\n";
    let reply = http_post(&url(&daemon, "/repair"), "text/csv", batch.as_bytes()).unwrap();
    assert_eq!(reply.status, 200);
    let explain = |attr: &str| http_get(&url(&daemon, &format!("/explain/0/{attr}"))).unwrap();
    let (city, state) = (explain("city"), explain("state"));
    assert_eq!((city.0, state.0), (200, 200));
    assert!(city.1.contains("\"old\":\"Jaxon\"") && city.1.contains("\"new\":\"Jackson\""));
    assert!(state.1.contains("\"old\":\"AK\"") && state.1.contains("\"new\":\"AL\""));
    // The new set leads with constants the daemon has never held, so a
    // table numbered afresh would give them the ids of the old ones.
    let swapped = "IF zip = \"99999\" AND city IN {\"Zed\"} THEN city := \"Zulu\"\n\
                   IF zip = \"36545\" AND city IN {\"Jaxon\"} THEN city := \"Jacksonville\"\n";
    let reply = http_post(&url(&daemon, "/rules"), "text/plain", swapped.as_bytes()).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(daemon.rules_generation(), 1);
    // Four new constants: 99999, Zed, Zulu, Jacksonville.
    assert_eq!(symbols_gauge(&daemon), Some(16));
    assert_eq!(explain("city"), city, "pre-swap row rendered differently");
    assert_eq!(explain("state"), state, "pre-swap row rendered differently");
    daemon.shutdown();
}

#[test]
fn concurrent_swaps_run_in_order_and_the_last_posted_serves() {
    let daemon = daemon();
    let slow = slow_rules();
    // Posted second and certified at once; "Jacksonville" is a constant
    // the daemon has not seen before.
    let fast = "IF zip = \"36545\" AND city IN {\"Jaxon\"} THEN city := \"Jacksonville\"\n";
    let post =
        |text: &str| http_post(&url(&daemon, "/rules"), "text/plain", text.as_bytes()).unwrap();
    let (first, second) = std::thread::scope(|scope| {
        let first = scope.spawn(|| post(&slow));
        // The slow swap has begun (trace t00000000) before the fast one is sent.
        wait_for_trace(&daemon, "t00000000");
        let second = post(fast);
        (first.join().unwrap(), second)
    });
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(second.status, 200, "{}", second.body);
    let generation = |body: &str| parse_json(body).get("generation").unwrap().as_i64();
    assert_eq!(generation(&first.body), Some(1));
    assert_eq!(generation(&second.body), Some(2));
    assert_eq!(daemon.rules_generation(), 2);
    let reply = http_post(
        &url(&daemon, "/repair"),
        "text/csv",
        b"zip,city,state\n36545,Jaxon,AK\n",
    )
    .unwrap();
    assert!(
        reply.body.contains("\"new\":\"Jacksonville\""),
        "the last swap posted must be the one serving: {}",
        reply.body
    );
    daemon.shutdown();
}

#[test]
fn a_client_dripping_its_request_does_not_hold_the_only_worker() {
    use std::io::Write;
    use std::time::{Duration, Instant};

    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        threads: 1,
        ..DaemonConfig::default()
    })
    .unwrap();
    // One byte of a never-finished head every 500 ms for 12 s, unless the
    // daemon hangs up first.
    let mut slow = std::net::TcpStream::connect(daemon.addr()).unwrap();
    slow.write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: ")
        .unwrap();
    let dripper = std::thread::spawn(move || {
        let until = Instant::now() + Duration::from_secs(12);
        while Instant::now() < until && slow.write_all(b"a").is_ok() {
            std::thread::sleep(Duration::from_millis(500));
        }
    });
    // Let the only worker pick up the dripping connection first.
    std::thread::sleep(Duration::from_millis(300));
    let asked = Instant::now();
    let (status, _) = http_get(&url(&daemon, "/healthz")).unwrap();
    let waited = asked.elapsed();
    assert_eq!(status, 200);
    assert!(
        waited < Duration::from_secs(8),
        "/healthz waited {waited:?} behind a dripping client"
    );
    dripper.join().unwrap();
    let (_, metrics) = http_get(&url(&daemon, "/metrics")).unwrap();
    assert!(
        metrics.contains("http_requests{endpoint=\"other\",status=\"408\"} 1"),
        "{metrics}"
    );
    daemon.shutdown();
}

#[test]
fn a_panicking_request_gets_500_and_the_only_worker_keeps_serving() {
    // The hook's path is no route, so no other test in this process
    // requests it.
    fixd::inject_panic_at("/panic-injected");
    let daemon = Daemon::start(DaemonConfig {
        rules: RulesSource::Inline(RULES.to_string()),
        threads: 1,
        ..DaemonConfig::default()
    })
    .unwrap();
    let (status, body) = http_get(&url(&daemon, "/panic-injected")).unwrap();
    assert_eq!(status, 500, "{body}");
    assert!(parse_json(&body).get("error").is_some(), "{body}");
    // The handler panicked holding the trace index's lock, which a repair
    // takes next, on the same and only worker.
    let csv = "zip,city,state\n36545,Jaxon,AK\n";
    let reply = http_post(&url(&daemon, "/repair"), "text/csv", csv.as_bytes()).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let trace_id = parse_json(&reply.body)
        .get("trace_id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let (status, _) = http_get(&url(&daemon, &format!("/trace/{trace_id}"))).unwrap();
    assert_eq!(status, 200);
    let (_, metrics) = http_get(&url(&daemon, "/metrics")).unwrap();
    assert!(metrics.contains("fixd_panics 1\n"), "{metrics}");
    daemon.shutdown();
}

/// The `fixctl` binary of this build, which a workspace `cargo test`
/// builds beside this test's own binary.
fn fixctl_binary() -> std::path::PathBuf {
    let exe = std::env::current_exe().unwrap();
    let dir = exe.parent().and_then(|deps| deps.parent()).unwrap();
    let fixctl = dir.join(format!("fixctl{}", std::env::consts::EXE_SUFFIX));
    assert!(
        fixctl.exists(),
        "{} is not built; run `cargo build -p fixctl` first",
        fixctl.display()
    );
    fixctl
}

/// Every `.frl` and every `.csv` under `examples/` (rule sets and lint
/// fixtures, data files and goldens alike), sorted.
fn example_files(extension: &str) -> Vec<std::path::PathBuf> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files = Vec::new();
    for dir in ["rulesets", "lint", "data"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) == Some(extension) {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// fixd repairs what `fixctl repair` does, with the same engine: on every
/// `examples/` rules × data pair that `fixctl repair` accepts (its header
/// names Σ's attributes and Σ is consistent), `POST /repair?format=csv`
/// answers `--out`'s bytes, the JSON `updates` are `--updates-log`'s
/// records, row, attribute, values and rule alike, and `/explain` for
/// every fixed cell answers the chain of the `repair.cell` records that
/// `--trace` journals, rows shifted by `row_base`: the two ledgers agree.
#[test]
fn the_daemon_repairs_every_example_pair_as_fixctl_repair_does() {
    let fixctl = fixctl_binary();
    let scratch = std::env::temp_dir().join(format!("fixd_parity_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let (out, log) = (scratch.join("out.csv"), scratch.join("updates.csv"));
    let trace = scratch.join("trace.jsonl");
    let (mut compared, mut explained) = (0, 0);
    for rules in example_files("frl") {
        for data in example_files("csv") {
            let ran = std::process::Command::new(&fixctl)
                .arg("repair")
                .args(["--rules".as_ref(), rules.as_os_str()])
                .args(["--data".as_ref(), data.as_os_str()])
                .args(["--out".as_ref(), out.as_os_str()])
                .args(["--updates-log".as_ref(), log.as_os_str()])
                .args(["--trace".as_ref(), trace.as_os_str()])
                .output()
                .unwrap();
            if !ran.status.success() {
                continue;
            }
            let pair = format!("{} × {}", rules.display(), data.display());
            let body = std::fs::read(&data).unwrap();
            let header = String::from_utf8_lossy(&body)
                .lines()
                .next()
                .unwrap()
                .to_string();
            let daemon = Daemon::start(DaemonConfig {
                rules: RulesSource::Path(rules.to_str().unwrap().to_string()),
                schema: SchemaSource::Names(header.split(',').map(String::from).collect()),
                threads: 1,
                ..DaemonConfig::default()
            })
            .unwrap_or_else(|e| panic!("{pair}: {e}"));
            let reply = http_post(&url(&daemon, "/repair?format=csv"), "text/csv", &body).unwrap();
            assert_eq!(reply.status, 200, "{pair}: {}", reply.body);
            assert_eq!(
                reply.body.as_bytes(),
                std::fs::read(&out).unwrap(),
                "{pair}: CSV"
            );
            let reply = http_post(&url(&daemon, "/repair"), "text/csv", &body).unwrap();
            assert_eq!(reply.status, 200, "{pair}: {}", reply.body);
            let json = parse_json(&reply.body);
            let row_base = json.get("row_base").unwrap().as_i64().unwrap();
            let mut updates = Vec::new();
            relation::csv_io::push_record(&mut updates, ["row", "attribute", "old", "new", "rule"]);
            for update in json.get("updates").unwrap().as_arr().unwrap() {
                let text = |k: &str| update.get(k).unwrap().as_str().unwrap();
                let number = |k: &str| update.get(k).unwrap().as_i64().unwrap();
                let row = (number("row") - row_base).to_string();
                let rule = number("rule").to_string();
                relation::csv_io::push_record(
                    &mut updates,
                    [&row, text("attr"), text("old"), text("new"), &rule],
                );
            }
            assert_eq!(
                String::from_utf8(updates).unwrap(),
                std::fs::read_to_string(&log).unwrap(),
                "{pair}: updates"
            );
            let schema = relation::Schema::new("R", header.split(',')).unwrap();
            let mut symbols = relation::SymbolTable::new();
            let mut record =
                |json: &Json| ProvenanceRecord::from_json(json, &schema, &mut symbols).unwrap();
            let journal = std::fs::read_to_string(&trace).unwrap();
            let cells: Vec<ProvenanceRecord> = obs::trace::parse_jsonl(&journal)
                .unwrap()
                .iter()
                .filter(|r| r.name == "repair.cell")
                .map(|r| record(&r.fields))
                .collect();
            for cell in &cells {
                let row = row_base as usize + cell.row;
                let row_cells: Vec<ProvenanceRecord> = cells
                    .iter()
                    .filter(|r| r.row == cell.row)
                    .cloned()
                    .collect();
                let want: Vec<ProvenanceRecord> = chain(&row_cells, cell.attr)
                    .into_iter()
                    .map(|i| ProvenanceRecord {
                        row,
                        ..row_cells[i].clone()
                    })
                    .collect();
                let attr = schema.attr_name(cell.attr);
                let (status, body) =
                    http_get(&url(&daemon, &format!("/explain/{row}/{attr}"))).unwrap();
                assert_eq!(status, 200, "{pair}: /explain/{row}/{attr}: {body}");
                let got: Vec<ProvenanceRecord> =
                    body.lines().map(|line| record(&parse_json(line))).collect();
                assert_eq!(got, want, "{pair}: /explain/{row}/{attr}");
                explained += 1;
            }
            daemon.shutdown();
            compared += 1;
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    // 13 pairs as the examples stand, 17 updates among them.
    assert!(compared >= 13, "only {compared} pairs compared");
    assert!(explained >= 17, "only {explained} cells explained");
}
