//! Streaming CSV repair.
//!
//! Fixing rules are strictly per-tuple — unlike FD repair, no cross-tuple
//! state exists — so a table of any size can be repaired in one pass: read
//! a record, run `lRepair` on it, write it out. This is an engineering
//! extension beyond the paper (its experiments materialise tables),
//! enabled by exactly the per-tuple property the paper's complexity
//! analysis relies on.
//!
//! Memory note: a tuple meets a rule only through equality with Σ's
//! constants, so each cell is looked up in the read-only [`SymbolTable`]
//! of those constants and every other value is ⊥ ([`Symbol::BOTTOM`]),
//! written back from the record itself. Memory is O(|Σ| + one record),
//! whatever the input's row count or vocabulary.

use std::io::{Read, Write};

use obs::quality::value_key;
use obs::RepairObserver;
use relation::{RelationError, Symbol, SymbolTable};

use crate::repair::linear::{lrepair_tuple_observed, LRepairIndex, LRepairScratch};
use crate::repair::RepairStats;
use crate::ruleset::RuleSet;

/// Statistics of one streaming run — the shared
/// [`RepairStats`] reporting type, so streaming
/// and table runs expose identical `rows`/`updates`/`rows_touched` fields
/// and `touched_ratio`/`rows_per_sec` accessors.
pub type StreamStats = RepairStats;

/// Repair CSV records from `reader` to `writer` in one pass with
/// `lRepair`. `symbols` is the table `rules` were parsed into; it is only
/// read: a cell that is none of its values is ⊥ for the repair and is
/// written out as the record holds it.
///
/// The CSV header must match the rule set's schema attribute names (same
/// names, same order) — the rules' attribute ids index positionally into
/// each record.
///
/// Observer hooks: the hooks of `lRepair`, whose tallies reach the
/// observer every 4,096 records and at the end, so live counters keep
/// moving during a long stream; one `cell_repaired` per applied update
/// (`row` = 0-based record index). When the observer answers
/// `wants_rows`, each record's *pre-repair* values are also reported
/// through `row_observed` as [`value_key`]s (before any rule fires), so a
/// quality monitor sees the incoming distribution, not the repaired one.
/// Pass [`obs::NoopObserver`] for no hooks.
pub fn stream_repair_csv<R: Read, W: Write, O: RepairObserver>(
    rules: &RuleSet,
    index: &LRepairIndex,
    symbols: &SymbolTable,
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
    let streamed = (|| -> Result<(), RelationError> {
        while rdr.read_record(&mut record)? {
            row.clear();
            row.extend(
                record
                    .iter()
                    .map(|cell| symbols.get(cell).unwrap_or(Symbol::BOTTOM)),
            );
            if observer.wants_rows() {
                pre.clear();
                pre.extend(record.iter().map(value_key));
                observer.row_observed(&pre);
            }
            let mut updates =
                lrepair_tuple_observed(rules, index, &mut scratch, &mut row, observer);
            if !updates.is_empty() {
                stats.rows_touched += 1;
                stats.updates += updates.len();
            }
            for (k, u) in updates.iter_mut().enumerate() {
                u.row = stats.rows;
                observer.cell_repaired(u.as_fix(k));
            }
            stats.rows += 1;
            wtr.write_record(row.iter().zip(&record).map(|(&s, cell)| {
                if s == Symbol::BOTTOM {
                    cell
                } else {
                    symbols.resolve(s)
                }
            }))?;
        }
        Ok(())
    })();
    // Records repaired before an error still reach the observer.
    scratch.flush_tallies(observer);
    streamed?;
    wtr.flush()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::linear::lrepair_tuple;
    use obs::NoopObserver;
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
        let (rules, sy) = setup();
        let index = LRepairIndex::build(&rules);
        let mut out = Vec::new();
        let stats = stream_repair_csv(
            &rules,
            &index,
            &sy,
            DIRTY.as_bytes(),
            &mut out,
            &NoopObserver,
        )
        .unwrap();
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
        let constants = sy.clone();
        let index = LRepairIndex::build(&rules);
        // Table path.
        let mut table = relation::csv_io::read_csv(DIRTY.as_bytes(), "Travel", &mut sy).unwrap();
        // The loaded table has its own schema instance; re-align by
        // repairing the rows directly.
        let mut scratch = LRepairScratch::new(rules.len());
        for i in 0..table.len() {
            lrepair_tuple(&rules, &index, &mut scratch, table.row_mut(i));
        }
        // Stream path, over Σ's constants alone.
        let mut out = Vec::new();
        stream_repair_csv(
            &rules,
            &index,
            &constants,
            DIRTY.as_bytes(),
            &mut out,
            &NoopObserver,
        )
        .unwrap();
        let mut sy2 = SymbolTable::new();
        let streamed = relation::csv_io::read_csv(out.as_slice(), "Travel", &mut sy2).unwrap();
        for i in 0..table.len() {
            assert_eq!(table.row_strs(&sy, i), streamed.row_strs(&sy2, i));
        }
    }

    #[test]
    fn quality_monitor_watches_the_stream() {
        use obs::{QualityConfig, QualityMonitor};
        let (rules, sy) = setup();
        let index = LRepairIndex::build(&rules);
        let names: Vec<String> = rules.schema().attr_names().map(str::to_string).collect();
        let monitor = QualityMonitor::new(QualityConfig::with_window(2), names);
        let mut out = Vec::new();
        stream_repair_csv(&rules, &index, &sy, DIRTY.as_bytes(), &mut out, &monitor).unwrap();
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
        let (rules, sy) = setup();
        let index = LRepairIndex::build(&rules);
        let bad = "a,b,c\n1,2,3\n";
        let mut out = Vec::new();
        let err = stream_repair_csv(&rules, &index, &sy, bad.as_bytes(), &mut out, &NoopObserver)
            .unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn header_order_matters() {
        let (rules, sy) = setup();
        let index = LRepairIndex::build(&rules);
        let reordered = "country,name,capital,city,conf\nChina,Ian,Shanghai,x,c\n";
        let mut out = Vec::new();
        assert!(stream_repair_csv(
            &rules,
            &index,
            &sy,
            reordered.as_bytes(),
            &mut out,
            &NoopObserver
        )
        .is_err());
    }

    #[test]
    fn empty_body_is_fine() {
        let (rules, sy) = setup();
        let index = LRepairIndex::build(&rules);
        let empty = "name,country,capital,city,conf\n";
        let mut out = Vec::new();
        let stats = stream_repair_csv(
            &rules,
            &index,
            &sy,
            empty.as_bytes(),
            &mut out,
            &NoopObserver,
        )
        .unwrap();
        assert_eq!(stats, StreamStats::default());
    }

    #[test]
    fn tallies_reach_the_observer_during_and_after_the_stream() {
        use crate::repair::linear::{lrepair_table, TALLY_FLUSH_TUPLES};
        use obs::{Event, MetricsObserver, MetricsRegistry, RepairObserver, Tee};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts tally hand-overs.
        struct Flushes(AtomicUsize);
        impl RepairObserver for Flushes {
            fn event(&self, e: Event) {
                if matches!(e, Event::LRepairProbes { .. }) {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let (rules, mut sy) = setup();
        let index = LRepairIndex::build(&rules);
        let rows = 2 * TALLY_FLUSH_TUPLES + 100;
        let mut text = String::from("name,country,capital,city,conf\n");
        for i in 0..rows {
            text += match i % 3 {
                0 => "Ian,China,Shanghai,Hongkong,ICDE\n",
                1 => "Mike,Canada,Toronto,Toronto,VLDB\n",
                _ => "George,China,Beijing,Beijing,SIGMOD\n",
            };
        }
        let streamed = MetricsRegistry::new();
        let flushes = Flushes(AtomicUsize::new(0));
        let observer = Tee(&MetricsObserver::new(&streamed), &flushes);
        let mut out = Vec::new();
        stream_repair_csv(&rules, &index, &sy, text.as_bytes(), &mut out, &observer).unwrap();
        // Two hand-overs mid-stream, one at the end.
        assert_eq!(flushes.0.load(Ordering::Relaxed), 3);

        // Every repair.* counter and histogram equals the table driver's
        // (on a table over the rules' own schema instance).
        let loaded = relation::csv_io::read_csv(text.as_bytes(), "Travel", &mut sy).unwrap();
        let mut table = relation::Table::new(rules.schema().clone());
        for row in loaded.rows() {
            table.push_row(row).unwrap();
        }
        let tabled = MetricsRegistry::new();
        lrepair_table(&rules, &index, &mut table, &MetricsObserver::new(&tabled));
        let repair_metrics = |reg: &MetricsRegistry| {
            let snap = reg.snapshot();
            let mut out = Vec::new();
            for section in ["counters", "histograms"] {
                for (name, value) in snap.get(section).unwrap().as_obj().unwrap() {
                    if name.starts_with("repair.") {
                        out.push(format!("{name}={value}"));
                    }
                }
            }
            out
        };
        let want = repair_metrics(&tabled);
        assert!(want.contains(&format!("repair.tuples={rows}")), "{want:?}");
        assert!(want.iter().any(|m| m.starts_with("repair.index.probes=")));
        assert_eq!(repair_metrics(&streamed), want);
    }
}
