//! Cross-driver provenance integration: every repair driver feeds the
//! ledger through `cell_repaired`, and the resulting ledger (a) replays
//! the dirty table into the repaired table exactly, and (b) re-derives the
//! final value of every updated cell through its causal chain.

use fixrules::provenance::{ProvenanceLedger, ProvenanceObserver};
use fixrules::repair::{
    crepair_table, lrepair_table, par_lrepair_table, LRepairIndex, LRepairWorker,
};
use fixrules::RuleSet;
use obs::{MetricsObserver, MetricsRegistry, Tee};
use relation::{Schema, SymbolTable, Table};

fn schema() -> Schema {
    Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
}

/// The four rules of Fig 8 (φ1–φ4).
fn fig8_rules(sy: &mut SymbolTable) -> RuleSet {
    let mut rs = RuleSet::new(schema());
    rs.push_named(
        sy,
        &[("country", "China")],
        "capital",
        &["Shanghai", "Hongkong"],
        "Beijing",
    )
    .unwrap();
    rs.push_named(
        sy,
        &[("country", "Canada")],
        "capital",
        &["Toronto"],
        "Ottawa",
    )
    .unwrap();
    rs.push_named(
        sy,
        &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
        "country",
        &["China"],
        "Japan",
    )
    .unwrap();
    rs.push_named(
        sy,
        &[("capital", "Beijing"), ("conf", "ICDE")],
        "city",
        &["Hongkong"],
        "Shanghai",
    )
    .unwrap();
    rs
}

const FIG1_ROWS: [[&str; 5]; 4] = [
    ["George", "China", "Beijing", "Beijing", "SIGMOD"],
    ["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
    ["Peter", "China", "Tokyo", "Tokyo", "ICDE"],
    ["Mike", "Canada", "Toronto", "Toronto", "VLDB"],
];

fn fig1_table(sy: &mut SymbolTable, schema: &Schema) -> Table {
    let mut t = Table::new(schema.clone());
    for row in FIG1_ROWS {
        t.push_strs(sy, &row).unwrap();
    }
    t
}

fn fig1_csv() -> String {
    let mut text = String::from("name,country,capital,city,conf\n");
    for row in FIG1_ROWS {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    text
}

/// Replay the ledger over a fresh dirty copy and verify it lands exactly
/// on `repaired`; then verify each updated cell's chain ends in its final
/// value and is internally consistent (evidence attrs written earlier).
fn verify_ledger(dirty: &Table, repaired: &Table, ledger: &ProvenanceLedger, updates: usize) {
    assert_eq!(ledger.len(), updates, "one record per update");
    let mut replayed = dirty.clone();
    let applied = ledger.replay(&mut replayed).unwrap();
    assert_eq!(applied, updates);
    assert_eq!(
        replayed.diff_cells(repaired).unwrap(),
        0,
        "replay must re-derive the repaired table"
    );
    for rec in ledger.records() {
        let chain = ledger.chain_for(rec.row, rec.attr);
        assert!(!chain.is_empty(), "updated cell must have a chain");
        let last = chain.last().unwrap();
        assert_eq!(
            repaired.cell(rec.row, rec.attr),
            last.new,
            "chain must end in the cell's final value"
        );
        // Every chain link is justified: its evidence attributes were
        // either untouched originals or written by an earlier link.
        assert!(chain
            .windows(2)
            .all(|w| (w[0].row, w[0].ordinal) < (w[1].row, w[1].ordinal)));
    }
}

#[test]
fn crepair_ledger_replays_and_explains() {
    let mut sy = SymbolTable::new();
    let rules = fig8_rules(&mut sy);
    let dirty = fig1_table(&mut sy, &rules.schema().clone());
    let mut repaired = dirty.clone();
    let ledger = ProvenanceLedger::new();
    let observer = ProvenanceObserver::new(&rules, &ledger);
    let outcome = crepair_table(&rules, &mut repaired, &observer);
    assert_eq!(outcome.total_updates(), 4);
    verify_ledger(&dirty, &repaired, &ledger, 4);
}

#[test]
fn lrepair_ledger_replays_and_explains() {
    let mut sy = SymbolTable::new();
    let rules = fig8_rules(&mut sy);
    let index = LRepairIndex::build(&rules);
    let dirty = fig1_table(&mut sy, &rules.schema().clone());
    let mut repaired = dirty.clone();
    let ledger = ProvenanceLedger::new();
    let observer = ProvenanceObserver::new(&rules, &ledger);
    let outcome = lrepair_table(&rules, &index, &mut repaired, &observer);
    assert_eq!(outcome.total_updates(), 4);
    verify_ledger(&dirty, &repaired, &ledger, 4);
}

#[test]
fn parallel_ledger_matches_sequential_canonical_order() {
    let mut sy = SymbolTable::new();
    let rules = fig8_rules(&mut sy);
    let index = LRepairIndex::build(&rules);
    // A larger table so the rows actually shard across workers.
    let mut dirty = Table::new(rules.schema().clone());
    for i in 0..200 {
        let row = FIG1_ROWS[i % FIG1_ROWS.len()];
        dirty.push_strs(&mut sy, &row).unwrap();
    }
    let mut seq = dirty.clone();
    let seq_ledger = ProvenanceLedger::new();
    let seq_obs = ProvenanceObserver::new(&rules, &seq_ledger);
    let so = lrepair_table(&rules, &index, &mut seq, &seq_obs);

    let mut par = dirty.clone();
    let par_ledger = ProvenanceLedger::new();
    let par_obs = ProvenanceObserver::new(&rules, &par_ledger);
    let po = par_lrepair_table(&rules, &index, &mut par, 4, &par_obs);

    assert_eq!(so.total_updates(), po.total_updates());
    // Records arrive worker-interleaved but the canonical (row, ordinal)
    // view is identical to the sequential driver's.
    assert_eq!(seq_ledger.records(), par_ledger.records());
    verify_ledger(&dirty, &par, &par_ledger, po.total_updates());
    // Folding the returned updates, two fixes in every fourth row, gives
    // the ledger the hook builds.
    let folded = ProvenanceLedger::new();
    folded.record_updates(&rules, &po.updates);
    assert_eq!(folded.records(), seq_ledger.records());
}

/// A ledger recorded while the chunk pipeline streams a CSV through
/// lRepair replays against the table read back from its output.
#[test]
fn stream_ledger_replays_against_materialized_table() {
    let mut sy = SymbolTable::new();
    let rules = fig8_rules(&mut sy);
    let index = LRepairIndex::build(&rules);
    let dir = std::env::temp_dir().join(format!("fixrules_provenance_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig1.csv");
    std::fs::write(&path, fig1_csv()).unwrap();
    // The pipeline keeps Σ's constants alone; the dirty and repaired views
    // are materialized over a table that extends them, so ledger symbols
    // align.
    let constants = sy.clone();
    let dirty = fig1_table(&mut sy, &rules.schema().clone());
    let ledger = ProvenanceLedger::new();
    let observer = ProvenanceObserver::new(&rules, &ledger);
    let mut out = Vec::new();
    let run = relation::csv_io::par_repair_csv(
        &path,
        rules.schema(),
        &constants,
        2,
        |w| LRepairWorker::new(&rules, &index, &observer, w),
        |worker, mut chunk, _: &mut ()| {
            let mut updates = Vec::new();
            worker.repair_rows(chunk.first_row, chunk.cells, &mut updates);
            for u in &updates {
                chunk.touch(u.row - chunk.first_row);
            }
        },
        |bytes, _| {
            out.extend_from_slice(bytes);
            Ok(())
        },
    )
    .unwrap();
    run.workers.into_iter().for_each(LRepairWorker::finish);
    std::fs::remove_dir_all(&dir).ok();
    let mut repaired = Table::new(rules.schema().clone());
    let written = String::from_utf8(out).unwrap();
    for line in written.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        repaired.push_strs(&mut sy, &cells).unwrap();
    }
    verify_ledger(&dirty, &repaired, &ledger, 4);
}

#[test]
fn ledger_composes_with_metrics_via_tee() {
    let mut sy = SymbolTable::new();
    let rules = fig8_rules(&mut sy);
    let dirty = fig1_table(&mut sy, &rules.schema().clone());
    let mut repaired = dirty.clone();
    let registry = MetricsRegistry::new();
    let metrics = MetricsObserver::new(&registry);
    let ledger = ProvenanceLedger::new();
    let prov = ProvenanceObserver::new(&rules, &ledger);
    let outcome = crepair_table(&rules, &mut repaired, &Tee(&metrics, &prov));
    assert_eq!(outcome.total_updates(), 4);
    assert_eq!(ledger.len(), 4);
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot
            .get("counters")
            .unwrap()
            .get("repair.rules_applied")
            .unwrap()
            .as_i64(),
        Some(4),
    );
}
