#!/usr/bin/env bash
# Offline-safe CI gate: formatting, lints, tests. Everything here runs
# without network access — all dependencies are workspace-local (see
# shims/ and DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== perfbench builds against the workspace crates =="
# perfbench is a package of its own (see perfbench/Cargo.toml), so the
# workspace commands above never compile it; an API change that breaks it
# must fail here, not when the benchmark runs.
cargo check --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test =="
cargo test --workspace -q

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== fixctl lint =="
cargo build -q -p fixctl
FIXCTL=target/debug/fixctl
for f in examples/rulesets/*.frl; do
    echo "-- lint $f (must be clean)"
    "$FIXCTL" lint "$f" --deny warnings
done
for f in examples/lint/*.frl; do
    echo "-- lint $f (must report findings)"
    if "$FIXCTL" lint "$f" --deny warnings >/dev/null; then
        echo "expected lint findings in $f, got none" >&2
        exit 1
    fi
done

TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT

echo "== fixctl certify =="
# Whole-set chase certification: every shipped ruleset must earn a green
# certificate (terminating + confluent), even under --deny warnings.
for f in examples/rulesets/*.frl; do
    echo "-- certify $f (must be green)"
    "$FIXCTL" certify "$f" --deny warnings >/dev/null
done
# The conflicting fixture must certify RED with a concrete synthesized
# witness tuple and both divergent end states (FR009).
if "$FIXCTL" certify examples/lint/conflicting.frl > "$TRACE_DIR/certify_conflicting.txt"; then
    echo "expected a red certificate for examples/lint/conflicting.frl" >&2
    exit 1
fi
grep -q 'error\[FR009\]' "$TRACE_DIR/certify_conflicting.txt" \
    || { echo "red certificate missing the FR009 confluence error" >&2; exit 1; }
grep -q 'witness tuple:' "$TRACE_DIR/certify_conflicting.txt" \
    || { echo "FR009 missing the synthesized witness tuple" >&2; exit 1; }
grep -q 'end state under order' "$TRACE_DIR/certify_conflicting.txt" \
    || { echo "FR009 missing the divergent end states" >&2; exit 1; }
echo "-- conflicting.frl rejected with witness tuple and end states"
# Per-rule hygiene problems are lint's business, not the certificate's:
# dead/redundant rules still certify green.
"$FIXCTL" certify examples/lint/dead_redundant.frl >/dev/null \
    || { echo "dead_redundant.frl must still certify green" >&2; exit 1; }
echo "-- dead_redundant.frl certifies green (lint-only findings)"

echo "== SARIF output smoke =="
# The SARIF serializer is deterministic: lint over the conflicting
# fixture must reproduce the golden file byte for byte (lint exits 1 on
# findings — that's the point of the fixture).
"$FIXCTL" lint examples/lint/conflicting.frl --format sarif \
    > "$TRACE_DIR/conflicting.sarif" || true
cmp "$TRACE_DIR/conflicting.sarif" examples/lint/conflicting.sarif \
    || { echo "SARIF output drifted from the golden file" >&2; exit 1; }
# Capture to a file rather than piping into grep -q: an early grep exit
# closes the pipe and turns the writer's println into an EPIPE panic.
"$FIXCTL" certify examples/rulesets/hosp_zip.frl --format sarif \
    > "$TRACE_DIR/certify_hosp.sarif"
grep -q '"version": "2.1.0"' "$TRACE_DIR/certify_hosp.sarif" \
    || { echo "certify --format sarif is not SARIF 2.1.0" >&2; exit 1; }
echo "-- SARIF matches the golden file; certify emits SARIF 2.1.0"

echo "== fixctl trace round trip =="
# repair --trace → explain → trace export, and the determinism gate: two
# identical runs under the default logical clock must produce
# byte-identical journals.
for run in 1 2; do
    "$FIXCTL" repair \
        --rules examples/rulesets/hosp_zip.frl \
        --data examples/data/hosp_dirty.csv \
        --out "$TRACE_DIR/repaired_$run.csv" \
        --trace "$TRACE_DIR/trace_$run.jsonl" >/dev/null
done
cmp "$TRACE_DIR/trace_1.jsonl" "$TRACE_DIR/trace_2.jsonl" \
    || { echo "trace journals differ between identical runs" >&2; exit 1; }
echo "-- journals byte-identical across two runs"
"$FIXCTL" explain "$TRACE_DIR/trace_1.jsonl" --row 0 --attr city \
    | grep -q 'fix\[row 0, city\]' \
    || { echo "explain did not render the rule chain" >&2; exit 1; }
echo "-- explain renders the rule chain"
"$FIXCTL" trace export "$TRACE_DIR/trace_1.jsonl" --chrome "$TRACE_DIR/chrome.json" >/dev/null
grep -q traceEvents "$TRACE_DIR/chrome.json" \
    || { echo "chrome export has no traceEvents" >&2; exit 1; }
echo "-- chrome export valid"

echo "== engine and worker-count equivalence smoke =="
# lRepair must not depend on the worker count (DESIGN.md §18), and the
# stream engine must reproduce it byte for byte: at 2 workers, at the
# default (every core) and streamed, each run matches 1 worker on the
# CSV, the provenance and every repair.* counter but the per-worker
# ones. Journal seq numbers are position-dependent, so they are stripped
# before comparing. The example rows are tiled so repeated rows occur.
{
    cat examples/data/hosp_dirty.csv
    tail -n +2 examples/data/hosp_dirty.csv
    tail -n +2 examples/data/hosp_dirty.csv
} > "$TRACE_DIR/hosp_dup.csv"
for run in lrepair:1 lrepair:2 lrepair:default stream:1; do
    engine="${run%:*}"
    threads="${run#*:}"
    tag="${engine}_$threads"
    threads_args=()
    [ "$threads" = default ] || threads_args=(--threads "$threads")
    "$FIXCTL" repair \
        --rules examples/rulesets/hosp_zip.frl \
        --data "$TRACE_DIR/hosp_dup.csv" \
        --engine "$engine" "${threads_args[@]}" \
        --out "$TRACE_DIR/eng_$tag.csv" \
        --metrics "$TRACE_DIR/eng_metrics_$tag.json" \
        --trace "$TRACE_DIR/eng_trace_$tag.jsonl" >/dev/null
    grep -oE '"repair\.[a-z_.]+": [0-9]+' "$TRACE_DIR/eng_metrics_$tag.json" \
        | grep -v '"repair\.worker\.' > "$TRACE_DIR/eng_all_counters_$tag.txt"
    grep '"repair\.cell"' "$TRACE_DIR/eng_trace_$tag.jsonl" \
        | sed -E 's/"seq": *[0-9]+, *//' > "$TRACE_DIR/eng_cells_$tag.txt"
done
[ "$(grep -cE '"repair\.(rules_applied|tuples|tuples_touched|updates)"' \
    "$TRACE_DIR/eng_all_counters_lrepair_1.txt")" -eq 4 ] \
    || { echo "lrepair run is missing repair counters" >&2; exit 1; }
grep -q '"repair\.index\.probes": [1-9]' "$TRACE_DIR/eng_all_counters_lrepair_1.txt" \
    || { echo "lrepair run recorded no index probes" >&2; exit 1; }
for tag in lrepair_2 lrepair_default stream_1; do
    cmp "$TRACE_DIR/eng_lrepair_1.csv" "$TRACE_DIR/eng_$tag.csv" \
        || { echo "$tag output differs from lrepair_1" >&2; exit 1; }
    diff "$TRACE_DIR/eng_all_counters_lrepair_1.txt" "$TRACE_DIR/eng_all_counters_$tag.txt" \
        || { echo "repair.* counters differ, lrepair_1 vs $tag" >&2; exit 1; }
    cmp "$TRACE_DIR/eng_cells_lrepair_1.txt" "$TRACE_DIR/eng_cells_$tag.txt" \
        || { echo "repair.cell provenance differs, lrepair_1 vs $tag" >&2; exit 1; }
done
echo "-- lrepair at 2 and at the default worker count, and stream, match lrepair at 1: CSV, repair.* counters, provenance"

echo "== CSV quoting round-trip smoke =="
# The fixture's cells hold quoted commas, "" escapes, an embedded newline,
# CRLF rows and non-ASCII text; both the table and the streaming drivers
# must reproduce the golden repair byte for byte, and lrepair's
# --updates-log must quote its cells the same way.
for engine in lrepair stream; do
    updates_args=()
    [ "$engine" = stream ] || updates_args=(--updates-log "$TRACE_DIR/quoting_updates.csv")
    "$FIXCTL" repair \
        --rules examples/rulesets/quoting.frl \
        --data examples/data/quoting.csv \
        --engine "$engine" "${updates_args[@]}" \
        --out "$TRACE_DIR/quoting_$engine.csv" >/dev/null
    cmp "$TRACE_DIR/quoting_$engine.csv" examples/data/quoting_repaired.csv \
        || { echo "--engine $engine drifted from quoting_repaired.csv" >&2; exit 1; }
done
cmp "$TRACE_DIR/quoting_updates.csv" examples/data/quoting_updates.csv \
    || { echo "--updates-log drifted from quoting_updates.csv" >&2; exit 1; }
echo "-- lrepair and stream outputs and the update log match the golden files"

echo "== attribution profile determinism smoke =="
# Two identical --profile-json runs must be byte-identical: the profile
# deliberately excludes measured nanoseconds (DESIGN.md §13).
for run in 1 2; do
    "$FIXCTL" repair \
        --rules examples/rulesets/hosp_zip.frl \
        --data "$TRACE_DIR/hosp_dup.csv" \
        --out "$TRACE_DIR/profiled_$run.csv" \
        --profile-json "$TRACE_DIR/profile_$run.json" >/dev/null
done
cmp "$TRACE_DIR/profile_1.json" "$TRACE_DIR/profile_2.json" \
    || { echo "attribution profiles differ between identical runs" >&2; exit 1; }
grep -q '"rule": "r0"' "$TRACE_DIR/profile_1.json" \
    || { echo "profile JSON has no per-rule rows" >&2; exit 1; }
echo "-- profile JSON byte-identical across two runs"

echo "== fixd end-to-end smoke =="
# Boot the repair daemon on an ephemeral port, drive every endpoint a
# client would touch, then drain it: check readiness, repair a batch,
# scrape a labeled per-endpoint series, fetch the request's trace, and
# assert the flushed journal is a parseable trace export.
"$FIXCTL" serve \
    --rules examples/rulesets/hosp_zip.frl \
    --journal "$TRACE_DIR/fixd_journal.jsonl" > "$TRACE_DIR/fixd.log" &
FIXD_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(grep -o 'http://[0-9.:]*' "$TRACE_DIR/fixd.log" || true)
    [ -n "$ADDR" ] && break
    sleep 0.05
done
[ -n "$ADDR" ] || { echo "fixctl serve never announced its address" >&2; exit 1; }
"$FIXCTL" client get /readyz --addr "$ADDR" | grep -q '"ready":true' \
    || { echo "fixd /readyz not green at boot, before any traffic" >&2; exit 1; }
"$FIXCTL" client repair examples/data/hosp_dirty.csv --addr "$ADDR" \
    > "$TRACE_DIR/fixd_repair.json" 2> "$TRACE_DIR/fixd_repair.err" \
    || { echo "fixd POST /repair failed" >&2; exit 1; }
grep -q '"repaired_rows":' "$TRACE_DIR/fixd_repair.json" \
    || { echo "repair response has no repaired_rows" >&2; exit 1; }
"$FIXCTL" scrape "$ADDR/metrics" \
    --require 'http_requests{endpoint="repair",status="200"}' \
    || { echo "live /metrics missing labeled repair series" >&2; exit 1; }
"$FIXCTL" scrape "$ADDR/metrics" --require repair_rules_applied \
    || { echo "live /metrics missing the repair counters" >&2; exit 1; }
TRACE_ID=$(grep -o 'trace id: t[0-9a-f]*' "$TRACE_DIR/fixd_repair.err" | cut -d' ' -f3)
[ -n "$TRACE_ID" ] || { echo "client repair reported no trace id" >&2; exit 1; }
"$FIXCTL" client get "/trace/$TRACE_ID" --addr "$ADDR" \
    | grep -q '"name": *"request"\|"name":"request"' \
    || { echo "GET /trace/$TRACE_ID returned no request span" >&2; exit 1; }

echo "== fixd certified hot-swap e2e =="
# A conflicting candidate must be rejected by the certification gate with
# the old program untouched: readiness stays green, repairs unchanged.
cat > "$TRACE_DIR/bad_rules.frl" <<'EOF'
IF zip = "36545" AND city IN {"Jaxon"} THEN city := "Jackson"
IF zip = "36545" AND city IN {"Jaxon"} THEN city := "Mobile"
EOF
if "$FIXCTL" client rules "$TRACE_DIR/bad_rules.frl" --addr "$ADDR" \
    > "$TRACE_DIR/swap_bad.json" 2>/dev/null; then
    echo "fixd promoted an uncertified rule set" >&2
    exit 1
fi
grep -q '"promoted":false' "$TRACE_DIR/swap_bad.json" \
    || { echo "bad swap response missing promoted:false" >&2; exit 1; }
grep -q 'FR009' "$TRACE_DIR/swap_bad.json" \
    || { echo "bad swap response missing the FR009 finding" >&2; exit 1; }
"$FIXCTL" client get /readyz --addr "$ADDR" > "$TRACE_DIR/readyz_after_bad.json" \
    || { echo "fixd /readyz went red after a rejected swap" >&2; exit 1; }
grep -q '"generation":0' "$TRACE_DIR/readyz_after_bad.json" \
    || { echo "rejected swap must not advance the generation" >&2; exit 1; }
echo "-- uncertified candidate rejected, old program still ready"
# A certified candidate promotes atomically: generation advances, the
# daemon is ready on the new rules at once, and repairs reflect them.
cat > "$TRACE_DIR/good_rules.frl" <<'EOF'
IF zip = "36545" AND city IN {"Jackson Heights", "Jaxon"} THEN city := "Jacksonville"
IF zip = "36545" AND state IN {"AK"} THEN state := "AL"
EOF
"$FIXCTL" client rules "$TRACE_DIR/good_rules.frl" --addr "$ADDR" \
    > "$TRACE_DIR/swap_good.json" 2>/dev/null \
    || { echo "fixd rejected a certified rule set" >&2; exit 1; }
grep -q '"promoted":true' "$TRACE_DIR/swap_good.json" \
    || { echo "good swap response missing promoted:true" >&2; exit 1; }
grep -q '"generation":1' "$TRACE_DIR/swap_good.json" \
    || { echo "good swap did not advance to generation 1" >&2; exit 1; }
# Ready right after the promotion, before any repair on the new rules.
"$FIXCTL" client get /readyz --addr "$ADDR" > "$TRACE_DIR/readyz_after_good.json" \
    || { echo "fixd /readyz not green right after the promotion" >&2; exit 1; }
grep -q '"generation":1' "$TRACE_DIR/readyz_after_good.json" \
    || { echo "fixd /readyz does not report the promoted generation" >&2; exit 1; }
grep -q '"ready":true' "$TRACE_DIR/readyz_after_good.json" \
    || { echo "fixd /readyz not ready on the promoted generation" >&2; exit 1; }
# The same signatures repaired before the swap must now be repaired under
# the new rules, not from anything the old rules left behind.
"$FIXCTL" client repair examples/data/hosp_dirty.csv --addr "$ADDR" \
    > "$TRACE_DIR/fixd_repair_swapped.json" 2>/dev/null \
    || { echo "fixd POST /repair failed after the swap" >&2; exit 1; }
grep -q '"new":"Jacksonville"' "$TRACE_DIR/fixd_repair_swapped.json" \
    || { echo "post-swap repair does not reflect the new rules" >&2; exit 1; }
if grep -q '"new":"Jackson"' "$TRACE_DIR/fixd_repair_swapped.json"; then
    echo "post-swap repair reproduced the old rules' fix" >&2
    exit 1
fi
echo "-- certified candidate promoted, ready at once, new rules serving"
"$FIXCTL" client shutdown --addr "$ADDR" | grep -q draining \
    || { echo "fixd /shutdown did not acknowledge the drain" >&2; exit 1; }
wait "$FIXD_PID" \
    || { echo "fixd exited nonzero after graceful shutdown" >&2; exit 1; }
"$FIXCTL" trace export "$TRACE_DIR/fixd_journal.jsonl" \
    --chrome "$TRACE_DIR/fixd_chrome.json" >/dev/null \
    || { echo "flushed fixd journal is not a parseable trace" >&2; exit 1; }
grep -q traceEvents "$TRACE_DIR/fixd_chrome.json" \
    || { echo "fixd journal chrome export has no traceEvents" >&2; exit 1; }
echo "-- daemon served repair/readyz/metrics/trace and drained cleanly"

echo "== fixd CSV response smoke =="
# POST /repair?format=csv must quote cells exactly as fixctl repair writes
# its output file: the quoting fixture's golden repair, byte for byte, also
# when the request carries the fixture's columns in another order.
"$FIXCTL" serve \
    --rules examples/rulesets/quoting.frl \
    --schema name,city,country,note > "$TRACE_DIR/fixd_csv.log" &
CSV_PID=$!
CSV_ADDR=""
for _ in $(seq 1 100); do
    CSV_ADDR=$(grep -o 'http://[0-9.:]*' "$TRACE_DIR/fixd_csv.log" || true)
    [ -n "$CSV_ADDR" ] && break
    sleep 0.05
done
[ -n "$CSV_ADDR" ] || { echo "CSV fixd never announced its address" >&2; exit 1; }
"$FIXCTL" client repair examples/data/quoting.csv --addr "$CSV_ADDR" --format csv \
    > "$TRACE_DIR/fixd_quoting.csv" 2>/dev/null \
    || { echo "fixd POST /repair?format=csv failed" >&2; exit 1; }
cmp "$TRACE_DIR/fixd_quoting.csv" examples/data/quoting_repaired.csv \
    || { echo "fixd CSV response drifted from quoting_repaired.csv" >&2; exit 1; }
"$FIXCTL" client repair examples/data/quoting_reordered.csv --addr "$CSV_ADDR" --format csv \
    > "$TRACE_DIR/fixd_quoting_reordered.csv" 2>/dev/null \
    || { echo "fixd POST /repair?format=csv of reordered columns failed" >&2; exit 1; }
cmp "$TRACE_DIR/fixd_quoting_reordered.csv" examples/data/quoting_repaired.csv \
    || { echo "fixd CSV response to reordered columns drifted from quoting_repaired.csv" >&2; exit 1; }
"$FIXCTL" client shutdown --addr "$CSV_ADDR" >/dev/null \
    || { echo "CSV fixd refused the drain" >&2; exit 1; }
wait "$CSV_PID" || { echo "CSV fixd exited nonzero" >&2; exit 1; }
echo "-- CSV responses to both column orders match the golden file"

echo "== repair-quality observatory smoke =="
# Windowed quality monitoring is deterministic under the logical clock:
# two identical stream-engine runs must render byte-identical window
# summaries and --quality-json snapshots (DESIGN.md §16).
for run in 1 2; do
    "$FIXCTL" repair \
        --rules examples/rulesets/hosp_zip.frl \
        --data examples/data/hosp_dirty.csv \
        --engine stream --quality-window 2 \
        --out "$TRACE_DIR/quality_$run.csv" \
        --quality-json "$TRACE_DIR/quality_$run.json" \
        | grep -v '^wrote ' > "$TRACE_DIR/quality_table_$run.txt"
done
cmp "$TRACE_DIR/quality_1.json" "$TRACE_DIR/quality_2.json" \
    || { echo "quality snapshots differ between identical runs" >&2; exit 1; }
cmp "$TRACE_DIR/quality_table_1.txt" "$TRACE_DIR/quality_table_2.txt" \
    || { echo "quality window summaries differ between identical runs" >&2; exit 1; }
"$FIXCTL" quality "$TRACE_DIR/quality_1.json" --require-green \
    | grep -q 'require-green: no active alerts' \
    || { echo "snapshot with no alert rules must be green" >&2; exit 1; }
echo "-- window summaries and snapshots byte-identical across two runs"
# A skewed batch (one dirty tuple repeated) must fire the repair-rate
# alert, and the alert flips /readyz only when the daemon opted into
# --quality-gate; without the gate it is reported but never gates. This
# loop boots the fixd binary (the smokes above boot fixctl serve), so
# both entry points run through the shared flag parser.
cargo build -q -p fixd
FIXD=target/debug/fixd
printf 'zip,city,state\n36545,Jaxon,AK\n36545,Jaxon,AK\n36545,Jaxon,AK\n36545,Jaxon,AK\n' \
    > "$TRACE_DIR/skewed.csv"
for gate in on off; do
    GATE_FLAG=""
    [ "$gate" = on ] && GATE_FLAG="--quality-gate"
    "$FIXD" \
        --rules examples/rulesets/hosp_zip.frl \
        --quality-window 2 --quality-alert 'repair_rate>0.5' $GATE_FLAG \
        > "$TRACE_DIR/fixd_quality_$gate.log" &
    QPID=$!
    QADDR=""
    for _ in $(seq 1 100); do
        QADDR=$(grep -o 'http://[0-9.:]*' "$TRACE_DIR/fixd_quality_$gate.log" || true)
        [ -n "$QADDR" ] && break
        sleep 0.05
    done
    [ -n "$QADDR" ] || { echo "quality fixd (gate $gate) never announced its address" >&2; exit 1; }
    "$FIXCTL" client repair "$TRACE_DIR/skewed.csv" --addr "$QADDR" >/dev/null 2>&1 \
        || { echo "skewed batch repair failed (gate $gate)" >&2; exit 1; }
    "$FIXCTL" scrape "$QADDR/metrics" --require quality_drift \
        || { echo "live /metrics missing the quality_drift gauge" >&2; exit 1; }
    if "$FIXCTL" quality "$QADDR" --require-green > "$TRACE_DIR/quality_live_$gate.txt"; then
        echo "fixctl quality --require-green ignored an active alert (gate $gate)" >&2
        exit 1
    fi
    grep -q 'require-green: [1-9]' "$TRACE_DIR/quality_live_$gate.txt" \
        || { echo "fixctl quality did not report the active alert count" >&2; exit 1; }
    if [ "$gate" = on ]; then
        if "$FIXCTL" client get /readyz --addr "$QADDR" > "$TRACE_DIR/readyz_gated.json"; then
            echo "gated daemon stayed ready despite a firing quality alert" >&2
            exit 1
        fi
        grep -q '"quality_ok":false' "$TRACE_DIR/readyz_gated.json" \
            || { echo "gated /readyz body missing quality_ok:false" >&2; exit 1; }
    else
        "$FIXCTL" client get /readyz --addr "$QADDR" | grep -q '"ready":true' \
            || { echo "ungated daemon went unready on a quality alert" >&2; exit 1; }
    fi
    "$FIXCTL" client shutdown --addr "$QADDR" >/dev/null \
        || { echo "quality fixd (gate $gate) refused the drain" >&2; exit 1; }
    wait "$QPID" \
        || { echo "quality fixd (gate $gate) exited nonzero" >&2; exit 1; }
done
echo "-- skewed batch fires the alert; /readyz flips only under --quality-gate"

echo "== coverage lint smoke =="
# Attribution joined against fixlint: rules that never fired on the data
# must surface as FR007 notes.
"$FIXCTL" coverage \
    --rules examples/lint/dead_redundant.frl \
    --data examples/lint/profile_dirty.csv --lint \
    > "$TRACE_DIR/coverage.txt"
grep -q 'note\[FR007\]' "$TRACE_DIR/coverage.txt" \
    || { echo "coverage --lint reported no FR007 unfired-rule note" >&2; exit 1; }
echo "-- coverage --lint reports never-fired rules"

echo "CI green."
