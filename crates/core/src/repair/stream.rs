//! Streaming CSV repair.
//!
//! Fixing rules are strictly per-tuple — unlike FD repair, no cross-tuple
//! state exists — so a table of any size can be repaired in one pass with
//! O(rules + vocabulary) memory: read a record, run `lRepair` on it, write
//! it out. This is an engineering extension beyond the paper (its
//! experiments materialise tables), enabled by exactly the per-tuple
//! property the paper's complexity analysis relies on.
//!
//! Memory note: the [`SymbolTable`] interns every distinct cell value seen,
//! so memory is bounded by the input's *vocabulary*, not its row count.

use std::io::{Read, Write};

use obs::{NoopObserver, RepairObserver};
use relation::{RelationError, Symbol, SymbolTable};

use crate::repair::columnar::{repair_columns_grouped, BatchStats};
use crate::repair::compile::{
    repair_row_compiled, CompiledEngine, CompiledScratch, PlanCache, RuleProgram,
};
use crate::repair::linear::{lrepair_tuple_observed, LRepairIndex, LRepairScratch};
use crate::repair::RepairStats;
use crate::ruleset::RuleSet;

/// Statistics of one streaming run — the shared
/// [`RepairStats`] reporting type, so streaming
/// and table runs expose identical `rows`/`updates`/`rows_touched` fields
/// and `touched_ratio`/`rows_per_sec` accessors.
pub type StreamStats = RepairStats;

/// Repair CSV records from `reader` to `writer` in one pass.
///
/// The CSV header must match the rule set's schema attribute names (same
/// names, same order) — the rules' attribute ids index positionally into
/// each record.
pub fn stream_repair_csv<R: Read, W: Write>(
    rules: &RuleSet,
    index: &LRepairIndex,
    symbols: &mut SymbolTable,
    reader: R,
    writer: W,
) -> Result<StreamStats, RelationError> {
    stream_repair_csv_observed(rules, index, symbols, reader, writer, &NoopObserver)
}

/// [`stream_repair_csv`] with observer hooks: per-tuple hooks from
/// `lRepair`, one `cell_repaired` per applied update (`row` = 0-based
/// record index), plus one `stream_record(vocab)` per record carrying the
/// interner size (the memory-bounding quantity of this driver). When the
/// observer answers `wants_rows`, each record's *pre-repair* symbol ids
/// are also reported through `row_observed` (before any rule fires), so a
/// quality monitor sees the incoming distribution, not the repaired one.
pub fn stream_repair_csv_observed<R: Read, W: Write, O: RepairObserver>(
    rules: &RuleSet,
    index: &LRepairIndex,
    symbols: &mut SymbolTable,
    reader: R,
    writer: W,
    observer: &O,
) -> Result<StreamStats, RelationError> {
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .flexible(false)
        .from_reader(reader);
    let headers = rdr.headers()?.clone();
    let schema = rules.schema();
    if headers.len() != schema.arity()
        || !headers.iter().zip(schema.attr_names()).all(|(h, a)| h == a)
    {
        return Err(RelationError::UnknownAttribute(format!(
            "CSV header [{}] does not match rule schema {}",
            headers.iter().collect::<Vec<_>>().join(", "),
            schema
        )));
    }
    let mut wtr = csv::Writer::from_writer(writer);
    wtr.write_record(&headers)?;

    let mut scratch = LRepairScratch::new(rules.len());
    let mut row: Vec<Symbol> = Vec::with_capacity(schema.arity());
    let mut pre: Vec<u32> = Vec::with_capacity(schema.arity());
    let mut stats = StreamStats::default();
    let mut record = csv::StringRecord::new();
    while rdr.read_record(&mut record)? {
        row.clear();
        row.extend(record.iter().map(|cell| symbols.intern(cell)));
        if observer.wants_rows() {
            pre.clear();
            pre.extend(row.iter().map(|s| s.0));
            observer.row_observed(&pre);
        }
        let mut updates = lrepair_tuple_observed(rules, index, &mut scratch, &mut row, observer);
        if !updates.is_empty() {
            stats.rows_touched += 1;
            stats.updates += updates.len();
        }
        for (k, u) in updates.iter_mut().enumerate() {
            u.row = stats.rows;
            observer.cell_repaired(u.as_fix(k));
        }
        stats.rows += 1;
        observer.stream_record(symbols.len());
        wtr.write_record(row.iter().map(|&s| symbols.resolve(s)))?;
    }
    wtr.flush()?;
    Ok(stats)
}

/// Repair CSV records from `reader` to `writer` in one pass with the
/// compiled engine, memoizing repair plans in `cache`.
///
/// A stream has no end in sight, so the cache should be bounded — pass a
/// [`PlanCache::bounded_lru`] to cap memory at `capacity` plans with exact
/// least-recently-used eviction (an evicted signature that recurs simply
/// misses once and is re-planned). `cache = None` disables memoization;
/// output is byte-identical either way.
pub fn stream_repair_csv_compiled<R: Read, W: Write>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    cache: Option<&PlanCache>,
    symbols: &mut SymbolTable,
    reader: R,
    writer: W,
) -> Result<StreamStats, RelationError> {
    stream_repair_csv_compiled_observed(
        rules,
        program,
        engine,
        cache,
        symbols,
        reader,
        writer,
        &NoopObserver,
    )
}

/// [`stream_repair_csv_compiled`] with observer hooks; same hook contract
/// as [`stream_repair_csv_observed`] plus the plan-cache hooks.
#[allow(clippy::too_many_arguments)]
pub fn stream_repair_csv_compiled_observed<R: Read, W: Write, O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    cache: Option<&PlanCache>,
    symbols: &mut SymbolTable,
    reader: R,
    writer: W,
    observer: &O,
) -> Result<StreamStats, RelationError> {
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .flexible(false)
        .from_reader(reader);
    let headers = rdr.headers()?.clone();
    let schema = rules.schema();
    if headers.len() != schema.arity()
        || !headers.iter().zip(schema.attr_names()).all(|(h, a)| h == a)
    {
        return Err(RelationError::UnknownAttribute(format!(
            "CSV header [{}] does not match rule schema {}",
            headers.iter().collect::<Vec<_>>().join(", "),
            schema
        )));
    }
    let mut wtr = csv::Writer::from_writer(writer);
    wtr.write_record(&headers)?;

    let mut scratch = CompiledScratch::new(rules.len());
    let mut row: Vec<Symbol> = Vec::with_capacity(schema.arity());
    let mut pre: Vec<u32> = Vec::with_capacity(schema.arity());
    let mut stats = StreamStats::default();
    let mut record = csv::StringRecord::new();
    while rdr.read_record(&mut record)? {
        row.clear();
        row.extend(record.iter().map(|cell| symbols.intern(cell)));
        if observer.wants_rows() {
            pre.clear();
            pre.extend(row.iter().map(|s| s.0));
            observer.row_observed(&pre);
        }
        let mut updates = repair_row_compiled(
            rules,
            program,
            engine,
            cache,
            &mut scratch,
            &mut row,
            observer,
        );
        if !updates.is_empty() {
            stats.rows_touched += 1;
            stats.updates += updates.len();
        }
        for (k, u) in updates.iter_mut().enumerate() {
            u.row = stats.rows;
            observer.cell_repaired(u.as_fix(k));
        }
        stats.rows += 1;
        observer.stream_record(symbols.len());
        wtr.write_record(row.iter().map(|&s| symbols.resolve(s)))?;
    }
    wtr.flush()?;
    Ok(stats)
}

/// Repair CSV records from `reader` to `writer` in batches of up to
/// `batch_rows` records, using the columnar group-by-plan path: each
/// batch is read into per-attribute columns, grouped by tuple signature,
/// and each distinct signature runs the compiled engine (or probes
/// `cache`) exactly once. Memory is bounded by `batch_rows × arity`
/// cells plus the vocabulary; output CSV and fix stream are
/// byte-identical to [`stream_repair_csv_compiled`] with the same
/// engine.
#[allow(clippy::too_many_arguments)]
pub fn stream_repair_csv_columnar<R: Read, W: Write>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    cache: Option<&PlanCache>,
    symbols: &mut SymbolTable,
    reader: R,
    writer: W,
    batch_rows: usize,
) -> Result<(StreamStats, BatchStats), RelationError> {
    stream_repair_csv_columnar_observed(
        rules,
        program,
        engine,
        cache,
        symbols,
        reader,
        writer,
        batch_rows,
        &NoopObserver,
    )
}

/// [`stream_repair_csv_columnar`] with observer hooks; same hook
/// contract as [`stream_repair_csv_compiled_observed`] minus the
/// per-member cache probes, plus one `batch_grouped` per non-empty
/// batch. `row_observed` still fires per record at read time (before any
/// rule fires), so a quality monitor sees the incoming distribution.
#[allow(clippy::too_many_arguments)]
pub fn stream_repair_csv_columnar_observed<R: Read, W: Write, O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    cache: Option<&PlanCache>,
    symbols: &mut SymbolTable,
    reader: R,
    writer: W,
    batch_rows: usize,
    observer: &O,
) -> Result<(StreamStats, BatchStats), RelationError> {
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .flexible(false)
        .from_reader(reader);
    let headers = rdr.headers()?.clone();
    let schema = rules.schema();
    if headers.len() != schema.arity()
        || !headers.iter().zip(schema.attr_names()).all(|(h, a)| h == a)
    {
        return Err(RelationError::UnknownAttribute(format!(
            "CSV header [{}] does not match rule schema {}",
            headers.iter().collect::<Vec<_>>().join(", "),
            schema
        )));
    }
    let mut wtr = csv::Writer::from_writer(writer);
    wtr.write_record(&headers)?;

    let batch_rows = batch_rows.max(1);
    let arity = schema.arity();
    let mut scratch = CompiledScratch::new(rules.len());
    let mut cols: Vec<Vec<Symbol>> = vec![Vec::with_capacity(batch_rows); arity];
    let mut pre: Vec<u32> = Vec::with_capacity(arity);
    let mut stats = StreamStats::default();
    let mut batch_stats = BatchStats::default();
    let mut record = csv::StringRecord::new();
    loop {
        for col in &mut cols {
            col.clear();
        }
        let mut n = 0usize;
        while n < batch_rows {
            if !rdr.read_record(&mut record)? {
                break;
            }
            for (col, cell) in cols.iter_mut().zip(record.iter()) {
                col.push(symbols.intern(cell));
            }
            if observer.wants_rows() {
                pre.clear();
                pre.extend(cols.iter().map(|c| c[n].0));
                observer.row_observed(&pre);
            }
            n += 1;
        }
        if n == 0 {
            break;
        }
        let base = stats.rows;
        let mut col_slices: Vec<&mut [Symbol]> =
            cols.iter_mut().map(|c| c.as_mut_slice()).collect();
        let (updates, bstats) = repair_columns_grouped(
            rules,
            program,
            engine,
            cache,
            &mut scratch,
            &mut col_slices,
            base,
            observer,
        );
        batch_stats.merge(bstats);
        stats.updates += updates.len();
        let mut last = usize::MAX;
        for u in &updates {
            if u.row != last {
                stats.rows_touched += 1;
                last = u.row;
            }
        }
        for i in 0..n {
            stats.rows += 1;
            observer.stream_record(symbols.len());
            wtr.write_record(cols.iter().map(|c| symbols.resolve(c[i])))?;
        }
    }
    wtr.flush()?;
    Ok((stats, batch_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::linear::lrepair_tuple;
    use relation::Schema;

    fn setup() -> (RuleSet, SymbolTable) {
        let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rules = RuleSet::new(schema);
        rules
            .push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai", "Hongkong"],
                "Beijing",
            )
            .unwrap();
        rules
            .push_named(
                &mut sy,
                &[("country", "Canada")],
                "capital",
                &["Toronto"],
                "Ottawa",
            )
            .unwrap();
        (rules, sy)
    }

    const DIRTY: &str = "\
name,country,capital,city,conf
George,China,Beijing,Beijing,SIGMOD
Ian,China,Shanghai,Hongkong,ICDE
Mike,Canada,Toronto,Toronto,VLDB
";

    #[test]
    fn streams_and_repairs() {
        let (rules, mut sy) = setup();
        let index = LRepairIndex::build(&rules);
        let mut out = Vec::new();
        let stats = stream_repair_csv(&rules, &index, &mut sy, DIRTY.as_bytes(), &mut out).unwrap();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.rows_touched, 2);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Ian,China,Beijing,Hongkong,ICDE"), "{text}");
        assert!(text.contains("Mike,Canada,Ottawa,Toronto,VLDB"), "{text}");
        // Clean row untouched.
        assert!(text.contains("George,China,Beijing,Beijing,SIGMOD"));
    }

    #[test]
    fn streaming_matches_table_repair() {
        let (rules, mut sy) = setup();
        let index = LRepairIndex::build(&rules);
        // Table path.
        let mut table = relation::csv_io::read_csv(DIRTY.as_bytes(), "Travel", &mut sy).unwrap();
        // The loaded table has its own schema instance; re-align by
        // repairing the rows directly.
        let mut scratch = LRepairScratch::new(rules.len());
        for i in 0..table.len() {
            lrepair_tuple(&rules, &index, &mut scratch, table.row_mut(i));
        }
        // Stream path.
        let mut out = Vec::new();
        stream_repair_csv(&rules, &index, &mut sy, DIRTY.as_bytes(), &mut out).unwrap();
        let mut sy2 = SymbolTable::new();
        let streamed = relation::csv_io::read_csv(out.as_slice(), "Travel", &mut sy2).unwrap();
        for i in 0..table.len() {
            assert_eq!(table.row_strs(&sy, i), streamed.row_strs(&sy2, i));
        }
    }

    #[test]
    fn compiled_stream_matches_uncached_stream() {
        let (rules, mut sy) = setup();
        let index = LRepairIndex::build(&rules);
        let program = RuleProgram::compile(&rules);
        let mut plain = Vec::new();
        let plain_stats =
            stream_repair_csv(&rules, &index, &mut sy, DIRTY.as_bytes(), &mut plain).unwrap();
        for cache in [None, Some(PlanCache::bounded_lru(64))] {
            let mut out = Vec::new();
            let stats = stream_repair_csv_compiled(
                &rules,
                &program,
                CompiledEngine::Linear,
                cache.as_ref(),
                &mut sy,
                DIRTY.as_bytes(),
                &mut out,
            )
            .unwrap();
            assert_eq!(stats, plain_stats);
            assert_eq!(out, plain, "CSV output must be byte-identical");
        }
    }

    #[test]
    fn columnar_stream_matches_compiled_stream() {
        let (rules, mut sy) = setup();
        let program = RuleProgram::compile(&rules);
        // Duplicate the dirty body so batches cross group boundaries.
        let mut input = String::from("name,country,capital,city,conf\n");
        for _ in 0..4 {
            for line in DIRTY.lines().skip(1) {
                input.push_str(line);
                input.push('\n');
            }
        }
        let mut reference = Vec::new();
        let ref_stats = stream_repair_csv_compiled(
            &rules,
            &program,
            CompiledEngine::Chase,
            None,
            &mut sy,
            input.as_bytes(),
            &mut reference,
        )
        .unwrap();
        for batch_rows in [1, 2, 5, 64] {
            for cache in [None, Some(PlanCache::unbounded())] {
                let mut out = Vec::new();
                let (stats, batch) = stream_repair_csv_columnar(
                    &rules,
                    &program,
                    CompiledEngine::Chase,
                    cache.as_ref(),
                    &mut sy,
                    input.as_bytes(),
                    &mut out,
                    batch_rows,
                )
                .unwrap();
                assert_eq!(stats, ref_stats);
                assert_eq!(out, reference, "CSV output must be byte-identical");
                assert_eq!(batch.rows, 12);
                assert_eq!(batch.scattered, 12 - batch.groups);
                if let Some(cache) = &cache {
                    let cs = cache.stats();
                    assert_eq!(cs.hits + cs.misses, batch.groups as u64);
                }
            }
        }
    }

    #[test]
    fn lru_eviction_and_re_miss_yield_correct_plans() {
        let (rules, mut sy) = setup();
        let program = RuleProgram::compile(&rules);
        // Two dirty signatures alternating: a capacity-1 cache thrashes —
        // every lookup after the first evicts the other signature's plan —
        // yet each re-miss must re-plan correctly.
        let mut input = String::from("name,country,capital,city,conf\n");
        for i in 0..6 {
            if i % 2 == 0 {
                input.push_str("p,China,Shanghai,x,ICDE\n");
            } else {
                input.push_str("q,Canada,Toronto,y,VLDB\n");
            }
        }
        let cache = PlanCache::bounded_lru(1);
        let mut out = Vec::new();
        let stats = stream_repair_csv_compiled(
            &rules,
            &program,
            CompiledEngine::Linear,
            Some(&cache),
            &mut sy,
            input.as_bytes(),
            &mut out,
        )
        .unwrap();
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.updates, 6, "every row repaired despite thrashing");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("p,China,Beijing,x,ICDE").count(), 3);
        assert_eq!(text.matches("q,Canada,Ottawa,y,VLDB").count(), 3);
        let cs = cache.stats();
        assert_eq!(cs.hits, 0, "capacity 1 with alternating signatures");
        assert_eq!(cs.misses, 6);
        assert_eq!(cs.evictions, 5);
        assert_eq!(cs.entries, 1);
    }

    #[test]
    fn quality_monitor_watches_the_stream() {
        use obs::{QualityConfig, QualityMonitor};
        let (rules, mut sy) = setup();
        let index = LRepairIndex::build(&rules);
        let names: Vec<String> = rules.schema().attr_names().map(str::to_string).collect();
        let monitor = QualityMonitor::new(QualityConfig::with_window(2), names);
        let mut out = Vec::new();
        stream_repair_csv_observed(
            &rules,
            &index,
            &mut sy,
            DIRTY.as_bytes(),
            &mut out,
            &monitor,
        )
        .unwrap();
        monitor.flush();
        let windows = monitor.summaries();
        assert_eq!(windows.len(), 2, "3 records at window 2 → 2 windows");
        assert_eq!(windows[0].rows, 2);
        assert_eq!(windows[1].rows, 1);
        // `capital` is attribute 2; Ian's row repaired in window 0,
        // Mike's in window 1 — and the monitor saw the *pre-repair*
        // values (Shanghai, Toronto), not the fixed ones.
        assert_eq!(windows[0].attrs[2].attr, "capital");
        assert_eq!(windows[0].attrs[2].repaired, 1);
        assert_eq!(windows[1].attrs[2].repaired, 1);
        assert_eq!(windows[0].attrs[2].repair_rate_permille, 500);
        assert_eq!(windows[1].attrs[2].repair_rate_permille, 1000);
    }

    #[test]
    fn header_mismatch_rejected() {
        let (rules, mut sy) = setup();
        let index = LRepairIndex::build(&rules);
        let bad = "a,b,c\n1,2,3\n";
        let mut out = Vec::new();
        let err = stream_repair_csv(&rules, &index, &mut sy, bad.as_bytes(), &mut out).unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn header_order_matters() {
        let (rules, mut sy) = setup();
        let index = LRepairIndex::build(&rules);
        let reordered = "country,name,capital,city,conf\nChina,Ian,Shanghai,x,c\n";
        let mut out = Vec::new();
        assert!(
            stream_repair_csv(&rules, &index, &mut sy, reordered.as_bytes(), &mut out).is_err()
        );
    }

    #[test]
    fn empty_body_is_fine() {
        let (rules, mut sy) = setup();
        let index = LRepairIndex::build(&rules);
        let empty = "name,country,capital,city,conf\n";
        let mut out = Vec::new();
        let stats = stream_repair_csv(&rules, &index, &mut sy, empty.as_bytes(), &mut out).unwrap();
        assert_eq!(stats, StreamStats::default());
    }
}
