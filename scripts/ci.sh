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

echo "== perfbench traced run =="
# The only check that drives the grouped core's one caller end to end:
# the traced run compares the grouped update count with the reference,
# renders every replayed fixd batch against the expected bytes and looks
# up provenance chains. Its report's last line is one JSON object.
perf_last=$(bash perfbench/run.sh --workload cli-dup --seed 1 --seconds 1 --trace 1 | tail -n 1)
case "$perf_last" in
    *'"correct": true'*'"failed": 0,'* | *'"correct": true'*'"failed": 0}'*) ;;
    *)
        echo "perfbench traced run was not correct: ${perf_last:0:300}" >&2
        exit 1
        ;;
esac
echo "-- perfbench traced run: correct, 0 failed"

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
# A misspelt flag is an operational error (exit 2), never a lint run
# without its gate.
code=0
"$FIXCTL" lint examples/lint/dead_redundant.frl --dney warnings >/dev/null 2>&1 || code=$?
if [ "$code" -ne 2 ]; then
    echo "lint --dney warnings exited $code, expected 2 (unknown flag)" >&2
    exit 1
fi

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

echo "== consistency report golden =="
# The fixture holds every Fig 4 conflict case and pairs whose patterns
# clash under incompatible evidence. `check` must list the same conflicts
# in the same order and count every pair (`pairs_checked`), and `resolve`
# must drop and shrink the same rules, as the goldens recorded.
status=0
"$FIXCTL" check --rules examples/lint/many_conflicts.frl \
    --data examples/lint/many_conflicts.csv --log info \
    > "$TRACE_DIR/many_conflicts.check.out" 2> "$TRACE_DIR/many_conflicts.check.err" || status=$?
[ "$status" -eq 2 ] || { echo "check on many_conflicts.frl exited $status, not 2" >&2; exit 1; }
cmp "$TRACE_DIR/many_conflicts.check.out" examples/lint/many_conflicts.check.out \
    || { echo "check stdout drifted from many_conflicts.check.out" >&2; exit 1; }
cmp "$TRACE_DIR/many_conflicts.check.err" examples/lint/many_conflicts.check.err \
    || { echo "check stderr drifted from many_conflicts.check.err" >&2; exit 1; }
"$FIXCTL" resolve --rules examples/lint/many_conflicts.frl \
    --data examples/lint/many_conflicts.csv \
    --out "$TRACE_DIR/many_conflicts.resolved.frl" > "$TRACE_DIR/many_conflicts.resolve.log"
{
    grep -v '^wrote ' "$TRACE_DIR/many_conflicts.resolve.log"
    cat "$TRACE_DIR/many_conflicts.resolved.frl"
} > "$TRACE_DIR/many_conflicts.resolve.out"
cmp "$TRACE_DIR/many_conflicts.resolve.out" examples/lint/many_conflicts.resolve.out \
    || { echo "resolve drifted from many_conflicts.resolve.out" >&2; exit 1; }
echo "-- check and resolve on many_conflicts.frl match the goldens"

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

echo "== worker-count equivalence smoke =="
# lRepair must not depend on the worker count (DESIGN.md §18): at 2
# workers and at the default (every core), repair matches the run at 1
# worker on the CSV, the provenance, the rule texts the journal records,
# every repair.* counter but the per-worker ones, the count and sum of the
# per-tuple repair.tuple_rounds/repair.tuple_updates histograms, and the
# per-rule --profile-json. The reference that repairs every row afresh,
# with no plan memo, is cli.rs's
# repair_matches_read_lrepair_write_on_a_multi_chunk_input, on the same
# input. Journal seq numbers are position-dependent, so they are stripped
# before comparing. The example rows are tiled past 1 MiB, so most rows
# repeat a projection the plan memo has seen and a record the scan's row
# memo holds (pipeline.scan_replayed), and the pipeline cuts the file
# into several 256 KiB chunks at every worker count. Every 300 rows, and across each 256 KiB
# cut after the header, a dirty row's city is a quoted value holding 40
# line breaks; so every chunk after the first guesses its start inside
# quotes and is scanned again from its true start.
{
    head -n 1 examples/data/hosp_dirty.csv
    tail -n +2 examples/data/hosp_dirty.csv | awk -v cut=262144 '
        function emit(line) { print line; bytes += length(line) + 1 }
        { rows[NR] = $0 }
        END {
            quoted = "36545,\"Jackson"
            for (k = 0; k < 40; k++) quoted = quoted "\nHeights"
            quoted = quoted "\",AK"
            for (t = 1; t <= 20000; t++) {
                for (i = 1; i <= NR; i++) emit(rows[i])
                if (t % 75 == 0 || bytes % cut > cut - 200) emit(quoted)
            }
        }'
} > "$TRACE_DIR/hosp_dup.csv"
[ "$(wc -c < "$TRACE_DIR/hosp_dup.csv")" -gt 1048576 ] || { echo "hosp_dup.csv is too small" >&2; exit 1; }
for threads in 1 2 default; do
    tag="lrepair_$threads"
    threads_args=()
    [ "$threads" = default ] || threads_args=(--threads "$threads")
    "$FIXCTL" repair \
        --rules examples/rulesets/hosp_zip.frl \
        --data "$TRACE_DIR/hosp_dup.csv" \
        "${threads_args[@]}" \
        --out "$TRACE_DIR/eng_$tag.csv" \
        --metrics "$TRACE_DIR/eng_metrics_$tag.json" \
        --profile-json "$TRACE_DIR/eng_profile_$tag.json" \
        --trace "$TRACE_DIR/eng_trace_$tag.jsonl" >/dev/null
    grep -oE '"repair\.[a-z_.]+": [0-9]+' "$TRACE_DIR/eng_metrics_$tag.json" \
        | grep -v '"repair\.worker\.' > "$TRACE_DIR/eng_all_counters_$tag.txt"
    awk '/"repair\.tuple_(rounds|updates)": \{/ { name = $1 }
         name != "" && /"(count|sum)":/ { print name, $1, $2 }
         /\}/ { name = "" }' "$TRACE_DIR/eng_metrics_$tag.json" \
        > "$TRACE_DIR/eng_histograms_$tag.txt"
    grep '"repair\.cell"' "$TRACE_DIR/eng_trace_$tag.jsonl" \
        | sed -E 's/"seq": *[0-9]+, *//' > "$TRACE_DIR/eng_cells_$tag.txt"
    grep '"name": *"rule"' "$TRACE_DIR/eng_trace_$tag.jsonl" \
        | sed -E 's/"seq": *[0-9]+, *//' > "$TRACE_DIR/eng_rules_$tag.txt"
done
[ "$(wc -l < "$TRACE_DIR/eng_rules_lrepair_1.txt")" -eq 4 ] \
    || { echo "journal does not record the 4 rules" >&2; exit 1; }
[ "$(grep -cE '"repair\.(rules_applied|tuples|tuples_touched|updates)"' \
    "$TRACE_DIR/eng_all_counters_lrepair_1.txt")" -eq 4 ] \
    || { echo "run at 1 worker is missing repair counters" >&2; exit 1; }
grep -q '"repair\.index\.probes": [1-9]' "$TRACE_DIR/eng_all_counters_lrepair_1.txt" \
    || { echo "run at 1 worker recorded no index probes" >&2; exit 1; }
[ "$(wc -l < "$TRACE_DIR/eng_histograms_lrepair_1.txt")" -eq 4 ] \
    || { echo "run at 1 worker is missing the per-tuple histograms" >&2; exit 1; }
grep -qE '"repair\.worker\.0\.replayed": [1-9]' "$TRACE_DIR/eng_metrics_lrepair_1.json" \
    || { echo "lrepair at 1 worker replayed no memoized run" >&2; exit 1; }
grep -qE '"pipeline\.scan_replayed": [1-9]' "$TRACE_DIR/eng_metrics_lrepair_1.json" \
    || { echo "the scan at 1 worker took no row from its row memo" >&2; exit 1; }
for tag in lrepair_2 lrepair_default; do
    cmp "$TRACE_DIR/eng_lrepair_1.csv" "$TRACE_DIR/eng_$tag.csv" \
        || { echo "$tag output differs from lrepair_1" >&2; exit 1; }
    diff "$TRACE_DIR/eng_all_counters_lrepair_1.txt" "$TRACE_DIR/eng_all_counters_$tag.txt" \
        || { echo "repair.* counters differ, lrepair_1 vs $tag" >&2; exit 1; }
    diff "$TRACE_DIR/eng_histograms_lrepair_1.txt" "$TRACE_DIR/eng_histograms_$tag.txt" \
        || { echo "per-tuple histograms differ, lrepair_1 vs $tag" >&2; exit 1; }
    cmp "$TRACE_DIR/eng_profile_lrepair_1.json" "$TRACE_DIR/eng_profile_$tag.json" \
        || { echo "--profile-json differs, lrepair_1 vs $tag" >&2; exit 1; }
    cmp "$TRACE_DIR/eng_cells_lrepair_1.txt" "$TRACE_DIR/eng_cells_$tag.txt" \
        || { echo "repair.cell provenance differs, lrepair_1 vs $tag" >&2; exit 1; }
    cmp "$TRACE_DIR/eng_rules_lrepair_1.txt" "$TRACE_DIR/eng_rules_$tag.txt" \
        || { echo "journaled rule texts differ, lrepair_1 vs $tag" >&2; exit 1; }
done
echo "-- repair at 2 and the default worker count match 1 worker: CSV, repair.* counters, per-tuple histograms, --profile-json, provenance, rule texts"
# The other data commands stream the same file through the same pipeline:
# detect (repair's lRepair workers, rows discarded), stats and check print
# the same at every worker count, and coverage's profile is repair's.
# --profile only prints the table: with it, repair writes the same
# --profile-json at 1 and 2 workers.
for cmd in detect stats check; do
    for threads in 1 2 default; do
        threads_args=()
        [ "$threads" = default ] || threads_args=(--threads "$threads")
        "$FIXCTL" "$cmd" \
            --rules examples/rulesets/hosp_zip.frl \
            --data "$TRACE_DIR/hosp_dup.csv" \
            "${threads_args[@]}" > "$TRACE_DIR/${cmd}_$threads.out"
    done
    for threads in 2 default; do
        cmp "$TRACE_DIR/${cmd}_1.out" "$TRACE_DIR/${cmd}_$threads.out" \
            || { echo "$cmd at $threads workers differs from 1 worker" >&2; exit 1; }
    done
done
grep -q ' planned update(s) across ' "$TRACE_DIR/detect_1.out" \
    || { echo "detect printed no summary" >&2; exit 1; }
for threads in 1 2; do
    "$FIXCTL" repair \
        --rules examples/rulesets/hosp_zip.frl \
        --data "$TRACE_DIR/hosp_dup.csv" \
        --threads "$threads" \
        --out "$TRACE_DIR/eng_profiled.csv" \
        --profile --profile-json "$TRACE_DIR/eng_profile_table_$threads.json" >/dev/null
    cmp "$TRACE_DIR/eng_profile_lrepair_$threads.json" "$TRACE_DIR/eng_profile_table_$threads.json" \
        || { echo "--profile changed --profile-json at $threads workers" >&2; exit 1; }
done
"$FIXCTL" coverage \
    --rules examples/rulesets/hosp_zip.frl \
    --data "$TRACE_DIR/hosp_dup.csv" \
    --profile-json "$TRACE_DIR/coverage_profile.json" >/dev/null
cmp "$TRACE_DIR/eng_profile_lrepair_1.json" "$TRACE_DIR/coverage_profile.json" \
    || { echo "coverage --profile-json differs from repair --profile-json" >&2; exit 1; }
echo "-- detect, stats and check match at 1, 2 and the default worker count; --profile leaves --profile-json as it is; coverage's profile matches repair's"

echo "== rule printing does not depend on the data =="
# Σ's constants are numbered as the rule file lists them, so a rule prints
# the same whatever rows --data holds: the full file and a copy that keeps
# only its header convert to the same bytes.
head -n 1 examples/data/hosp_dirty.csv > "$TRACE_DIR/hosp_header.csv"
for data in examples/data/hosp_dirty.csv "$TRACE_DIR/hosp_header.csv"; do
    "$FIXCTL" convert --rules examples/rulesets/hosp_zip.frl --data "$data" \
        --out "$TRACE_DIR/convert_$(basename "$data" .csv).frl" >/dev/null
done
cmp "$TRACE_DIR/convert_hosp_dirty.frl" "$TRACE_DIR/convert_hosp_header.frl" \
    || { echo "convert output depends on the rows of --data" >&2; exit 1; }
echo "-- convert with the full file and with its header alone match"

echo "== CSV quoting round-trip smoke =="
# The fixture's cells hold quoted commas, "" escapes, an embedded newline,
# CRLF rows and non-ASCII text; the repair must reproduce the golden repair
# byte for byte, and its --updates-log must quote its cells the same way.
"$FIXCTL" repair \
    --rules examples/rulesets/quoting.frl \
    --data examples/data/quoting.csv \
    --updates-log "$TRACE_DIR/quoting_updates.csv" \
    --out "$TRACE_DIR/quoting_lrepair.csv" >/dev/null
cmp "$TRACE_DIR/quoting_lrepair.csv" examples/data/quoting_repaired.csv \
    || { echo "repair drifted from quoting_repaired.csv" >&2; exit 1; }
cmp "$TRACE_DIR/quoting_updates.csv" examples/data/quoting_updates.csv \
    || { echo "--updates-log drifted from quoting_updates.csv" >&2; exit 1; }
echo "-- repair output and the update log match the golden files"

echo "== constants-only load and verbatim write smoke =="
# fixctl loads each cell as a rule constant or as a value no rule mentions,
# and writes untouched rows back from the input's bytes. The edge fixture
# has redundantly quoted cells (one of them repaired), a value equal to a
# constant of another attribute, CRLF and lone-CR rows, and no final
# newline; its golden repair predates that loader.
for threads in 1 2; do
    "$FIXCTL" repair --rules examples/rulesets/quoting_edge.frl \
        --data examples/data/quoting_edge.csv --threads "$threads" \
        --out "$TRACE_DIR/quoting_edge_$threads.csv" >/dev/null
    cmp "$TRACE_DIR/quoting_edge_$threads.csv" examples/data/quoting_edge_repaired.csv \
        || { echo "--threads $threads drifted from quoting_edge_repaired.csv" >&2; exit 1; }
done
# A ragged row near the end of a file the loader splits (over 2 MiB) fails
# the run with the CSV reader's message, and no --out file is created:
# both a row unlike the one above and one that repeats its leading fields,
# which the loader takes from the row above without scanning them again.
for ragged in "short,row:2" "n110000,Lyon,FR:3"; do
    {
        echo "name,city,country,capital"
        seq 1 110000 | awk '{ print "n" $1 ",Lyon,FR,Lyon" }'
        echo "${ragged%:*}"
        echo "last,Nice,FR,Paris"
    } > "$TRACE_DIR/ragged.csv"
    [ "$(wc -c < "$TRACE_DIR/ragged.csv")" -gt 2097152 ] || { echo "ragged.csv is too small" >&2; exit 1; }
    for threads in 1 2; do
        status=0
        "$FIXCTL" repair --rules examples/rulesets/quoting_edge.frl \
            --data "$TRACE_DIR/ragged.csv" --threads "$threads" \
            --out "$TRACE_DIR/ragged_out.csv" >/dev/null 2>"$TRACE_DIR/ragged.err" || status=$?
        [ "$status" -eq 2 ] || { echo "ragged input exited $status, not 2" >&2; exit 1; }
        grep -qx "fixctl: reading $TRACE_DIR/ragged.csv: I/O error: CSV error: record has ${ragged#*:} fields, but the previous record has 4" \
            "$TRACE_DIR/ragged.err" || { echo "ragged input gave: $(cat "$TRACE_DIR/ragged.err")" >&2; exit 1; }
        [ ! -e "$TRACE_DIR/ragged_out.csv" ] || { echo "ragged input created --out" >&2; exit 1; }
    done
done
echo "-- edge fixture matches its golden repair at 1 and 2 workers; a late ragged row fails before --out exists"

echo "== row-order independence smoke =="
# The loader takes a row's leading fields from the row above when the two
# rows' bytes agree that far, so a file whose neighbours share leading
# fields and the same rows in a scrambled order must repair to the same
# rows. Both are over 2 MiB, so the loader splits them; the scramble is a
# fixed multiplicative hash of the line number, not a clock-seeded shuffle.
{
    echo "zip,city,state,visit"
    tail -n +2 examples/data/hosp_dirty.csv \
        | awk '{ for (i = 1; i <= 30000; i++) print $0 "," i }' | LC_ALL=C sort
} > "$TRACE_DIR/rows_sorted.csv"
{
    head -n 1 "$TRACE_DIR/rows_sorted.csv"
    tail -n +2 "$TRACE_DIR/rows_sorted.csv" \
        | awk '{ printf "%.0f\t%s\n", (NR * 2654435761) % 4294967296, $0 }' \
        | LC_ALL=C sort -n | cut -f 2-
} > "$TRACE_DIR/rows_scrambled.csv"
[ "$(wc -c < "$TRACE_DIR/rows_sorted.csv")" -gt 2097152 ] || { echo "rows_sorted.csv is too small" >&2; exit 1; }
cmp -s "$TRACE_DIR/rows_sorted.csv" "$TRACE_DIR/rows_scrambled.csv" \
    && { echo "the scrambled copy kept the sorted order" >&2; exit 1; }
for order in sorted scrambled; do
    for threads in 1 2; do
        "$FIXCTL" repair --rules examples/rulesets/hosp_zip.frl \
            --data "$TRACE_DIR/rows_$order.csv" --threads "$threads" \
            --out "$TRACE_DIR/rows_out.csv" >/dev/null
        tail -n +2 "$TRACE_DIR/rows_out.csv" | LC_ALL=C sort > "$TRACE_DIR/rows_${order}_$threads.txt"
    done
done
grep -q '^36545,Jackson,AL,' "$TRACE_DIR/rows_sorted_1.txt" \
    || { echo "the row-order smoke repaired nothing" >&2; exit 1; }
for tag in sorted_2 scrambled_1 scrambled_2; do
    cmp "$TRACE_DIR/rows_sorted_1.txt" "$TRACE_DIR/rows_$tag.txt" \
        || { echo "repaired rows differ, sorted_1 vs $tag" >&2; exit 1; }
done
echo "-- sorted and scrambled rows repair to the same rows at 1 and 2 workers"

echo "== attribution profile determinism smoke =="
# Two identical --profile-json runs must be byte-identical: the profile
# holds only counts (DESIGN.md §13).
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
# fixd and fixctl repair with the same lRepair worker: the daemon's CSV
# answer is fixctl repair's output, byte for byte.
"$FIXCTL" client repair examples/data/hosp_dirty.csv --addr "$ADDR" --format csv \
    > "$TRACE_DIR/fixd_hosp.csv" 2>/dev/null \
    || { echo "fixd POST /repair?format=csv of hosp_dirty.csv failed" >&2; exit 1; }
"$FIXCTL" repair --rules examples/rulesets/hosp_zip.frl --data examples/data/hosp_dirty.csv \
    --out "$TRACE_DIR/fixctl_hosp.csv" >/dev/null \
    || { echo "fixctl repair of hosp_dirty.csv failed" >&2; exit 1; }
cmp "$TRACE_DIR/fixd_hosp.csv" "$TRACE_DIR/fixctl_hosp.csv" \
    || { echo "fixd and fixctl repair hosp_dirty.csv differently" >&2; exit 1; }
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
# fixd holds Σ's constants alone: batches of values no request sent before
# must leave the fixd.symbols gauge where boot put it.
symbols_gauge() {
    "$FIXCTL" client get /metrics --addr "$ADDR" | sed -n 's/^fixd_symbols \([0-9]*\)$/\1/p'
}
BOOT_SYMBOLS=$(symbols_gauge)
[ -n "$BOOT_SYMBOLS" ] || { echo "fixd /metrics has no fixd_symbols gauge" >&2; exit 1; }
for b in $(seq 1 20); do
    {
        echo "zip,city,state"
        seq 1 50 | awk -v b="$b" '{ print "z" b "-" $1 ",c" b "-" $1 ",s" b "-" $1 }'
    } > "$TRACE_DIR/fresh.csv"
    "$FIXCTL" client repair "$TRACE_DIR/fresh.csv" --addr "$ADDR" >/dev/null 2>&1 \
        || { echo "fixd POST /repair of fresh values failed" >&2; exit 1; }
done
[ "$(symbols_gauge)" = "$BOOT_SYMBOLS" ] \
    || { echo "fresh values moved fixd_symbols from $BOOT_SYMBOLS to $(symbols_gauge)" >&2; exit 1; }
echo "-- 20 batches of fresh values left fixd_symbols at its boot value ($BOOT_SYMBOLS)"

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
# runs at 1 and 2 workers must render the golden window summaries and
# --quality-json snapshot byte for byte (DESIGN.md §16). The goldens were
# recorded by the one-record-at-a-time stream engine the pipeline
# replaced, so they pin the monitor's file-order feed.
for run in 1 2; do
    "$FIXCTL" repair \
        --rules examples/rulesets/hosp_zip.frl \
        --data examples/data/hosp_dirty.csv \
        --threads "$run" --quality-window 2 \
        --out "$TRACE_DIR/quality_$run.csv" \
        --quality-json "$TRACE_DIR/quality_$run.json" \
        | tail -n +2 | grep -v '^wrote ' > "$TRACE_DIR/quality_table_$run.txt"
    cmp "$TRACE_DIR/quality_$run.json" examples/data/hosp_quality.json \
        || { echo "quality snapshot drifted from hosp_quality.json ($run workers)" >&2; exit 1; }
    cmp "$TRACE_DIR/quality_table_$run.txt" examples/data/hosp_quality_table.txt \
        || { echo "quality window summaries drifted from hosp_quality_table.txt ($run workers)" >&2; exit 1; }
done
"$FIXCTL" quality "$TRACE_DIR/quality_1.json" --require-green \
    | grep -q 'require-green: no active alerts' \
    || { echo "snapshot with no alert rules must be green" >&2; exit 1; }
echo "-- window summaries and snapshots match the golden files at 1 and 2 workers"
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
