//! Repairing data with a consistent set of fixing rules (§6).
//!
//! Two per-tuple algorithms, matching the paper — the reference
//! implementations behind the figures and the test oracles:
//!
//! * [`chase`] — `cRepair` (Fig 6): rescan the unused rules after every
//!   update; `O(size(Σ)·|R|)` per tuple.
//! * [`linear`] — `lRepair` (Fig 7): inverted lists from `(attribute,
//!   value)` keys to rules plus per-rule hash counters of matched evidence
//!   cells; `O(size(Σ))` per tuple.
//!
//! Each has a table driver ([`crepair_table`], [`lrepair_table`]);
//! [`parallel`] shards `lRepair` rows across threads — sound because
//! fixing rules are strictly per-tuple (unlike FD repair, which must
//! reason across tuples). Its [`LRepairWorker`] is also what `fixctl
//! repair` runs on each chunk of a CSV file that
//! `relation::csv_io::par_repair_csv` scans, so no table is ever built,
//! and what `fixd` runs on each request's batch. `fixcert` chases its
//! witness tuples with [`crepair_tuple`].
//!
//! The grouped core ([`repair_columns_grouped`]) compiles Σ once into a
//! [`RuleProgram`], groups the rows of a column batch by their projection
//! on the attributes Σ touches, and runs a compiled chase once per
//! distinct projection; it reproduces `cRepair`'s output — table, update
//! log and provenance ledger — byte for byte. No product path runs it; it
//! stays for perfbench's per-layer replica until ROADMAP item 4.
//!
//! Every table driver takes an `observer: &O`; pass [`NoopObserver`] when
//! no hooks are wanted.
//!
//! Both algorithms require a **consistent** rule set; by the Church–Rosser
//! property (§6.1) they then produce the same unique fix per tuple, which is
//! asserted by the cross-algorithm tests and property tests.

pub mod chase;
mod columnar;
mod compile;
pub mod detect;
pub mod linear;
pub mod parallel;

pub use chase::{crepair_table, crepair_tuple};
pub use columnar::{repair_columns_grouped, BatchStats};
pub use compile::{CompiledEngine, CompiledScratch, PlanCache, PlanCacheStats, RuleProgram};
pub use detect::explain;
pub use linear::{lrepair_table, lrepair_tuple, LRepairIndex, LRepairScratch};
pub use obs::NoopObserver;
pub use parallel::{par_lrepair_table, LRepairWorker};

use relation::{AttrId, Symbol};

use crate::ruleset::RuleId;

/// One cell update performed by a repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellUpdate {
    /// Row index in the table.
    pub row: usize,
    /// Updated attribute (`B` of the applied rule).
    pub attr: AttrId,
    /// Value before the update (a negative pattern of the rule).
    pub old: Symbol,
    /// Value after the update (the rule's fact).
    pub new: Symbol,
    /// The rule that fired.
    pub rule: RuleId,
    /// Chase round (`cRepair`) or candidate-queue pop index (`lRepair`)
    /// at which the rule fired, 1-based — the "when" of the provenance
    /// chain.
    pub round: u32,
}

impl CellUpdate {
    /// Translate into the plain-id [`obs::CellFix`] hook payload;
    /// `ordinal` is this update's application order within its row.
    /// Expects `row` to already be re-indexed by a table driver.
    pub fn as_fix(&self, ordinal: usize) -> obs::CellFix {
        obs::CellFix {
            row: self.row,
            ordinal,
            rule: self.rule.index(),
            attr: self.attr.index(),
            old: self.old.0,
            new: self.new.0,
            round: self.round,
        }
    }
}

/// Aggregate statistics of one repair run over a file, as `fixctl`'s
/// chunk pipeline reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Records processed.
    pub rows: usize,
    /// Cell updates applied.
    pub updates: usize,
    /// Records with at least one update.
    pub rows_touched: usize,
}

/// The full log of a table repair.
#[derive(Debug, Clone, Default)]
pub struct RepairOutcome {
    /// Every applied update, in application order per row.
    pub updates: Vec<CellUpdate>,
}

impl RepairOutcome {
    /// Total number of cell updates.
    pub fn total_updates(&self) -> usize {
        self.updates.len()
    }

    /// Number of distinct rows touched.
    pub fn rows_touched(&self) -> usize {
        let mut rows: Vec<usize> = self.updates.iter().map(|u| u.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_aggregations() {
        let outcome = RepairOutcome {
            updates: vec![
                CellUpdate {
                    row: 0,
                    attr: AttrId(2),
                    old: Symbol(1),
                    new: Symbol(2),
                    rule: RuleId(0),
                    round: 1,
                },
                CellUpdate {
                    row: 0,
                    attr: AttrId(3),
                    old: Symbol(3),
                    new: Symbol(4),
                    rule: RuleId(1),
                    round: 2,
                },
                CellUpdate {
                    row: 5,
                    attr: AttrId(2),
                    old: Symbol(1),
                    new: Symbol(2),
                    rule: RuleId(0),
                    round: 1,
                },
            ],
        };
        assert_eq!(outcome.total_updates(), 3);
        assert_eq!(outcome.rows_touched(), 2);
    }
}

/// Streaming repair: lRepair over the chunks that
/// `relation::csv_io::par_repair_csv` scans, as `fixctl repair` runs it,
/// with Σ parsed against the file's header into a table of its constants
/// alone, so that every other cell is ⊥ and is written as the file holds
/// it.
#[cfg(test)]
mod stream {
    use std::io::Write;
    use std::path::PathBuf;

    use obs::quality::value_key;
    use obs::{QualityMonitor, RepairObserver};
    use relation::csv_io::{par_repair_csv, read_csv_header};
    use relation::SymbolTable;

    use super::{CellUpdate, LRepairIndex, LRepairWorker, RepairStats};
    use crate::io::parse_rules;
    use crate::ruleset::RuleSet;

    /// `data` in a file of its own, removed when dropped.
    struct DataFile(PathBuf);

    impl DataFile {
        fn new(tag: &str, data: &str) -> DataFile {
            let name = format!("fixrules_stream_{}_{tag}.csv", std::process::id());
            let path = std::env::temp_dir().join(name);
            std::fs::write(&path, data).unwrap();
            DataFile(path)
        }
    }

    impl Drop for DataFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    /// Σ parsed from `rules` against `data`'s header.
    fn bind(rules: &str, data: &DataFile) -> Result<(RuleSet, SymbolTable), String> {
        let file = std::fs::File::open(&data.0).map_err(|e| e.to_string())?;
        let schema = read_csv_header(file, "Travel").map_err(|e| e.to_string())?;
        let mut symbols = SymbolTable::new();
        let rules = parse_rules(rules, &schema, &mut symbols).map_err(|e| e.to_string())?;
        Ok((rules, symbols))
    }

    /// Repair `data` on `threads` workers, feeding `quality` as `fixctl
    /// repair` does: each row's pre-repair values, then its fixes, in
    /// file order. The repaired CSV, its statistics, and every update in
    /// row order.
    fn stream_repair<O: RepairObserver>(
        rules: &RuleSet,
        symbols: &SymbolTable,
        data: &DataFile,
        threads: usize,
        observer: &O,
        quality: Option<&QualityMonitor>,
    ) -> Result<(String, RepairStats, Vec<CellUpdate>), String> {
        let index = LRepairIndex::build(rules);
        let arity = rules.schema().arity();
        let mut out = Vec::new();
        let mut row = 0;
        let run = par_repair_csv(
            &data.0,
            rules.schema(),
            symbols,
            threads,
            |w| (LRepairWorker::new(rules, &index, observer, w), Vec::new()),
            |(worker, log), mut chunk, seen: &mut (Vec<u32>, Vec<CellUpdate>)| {
                if quality.is_some() {
                    for i in 0..chunk.rows() {
                        seen.0.extend(chunk.fields(i).map(value_key));
                    }
                }
                let from = log.len();
                worker.repair_rows(chunk.first_row, chunk.cells, log);
                for u in &log[from..] {
                    chunk.touch(u.row - chunk.first_row);
                }
                seen.1.extend_from_slice(&log[from..]);
            },
            |bytes, (keys, fixes)| {
                out.write_all(bytes)?;
                if let Some(quality) = quality {
                    let mut fixes = fixes.iter().peekable();
                    for keys in keys.chunks_exact(arity) {
                        quality.row_observed(keys);
                        let row_fixes = std::iter::from_fn(|| fixes.next_if(|u| u.row == row));
                        for (ordinal, u) in row_fixes.enumerate() {
                            quality.cell_repaired(u.as_fix(ordinal));
                        }
                        row += 1;
                    }
                }
                Ok(())
            },
        )
        .map_err(|e| format!("{e:?}"))?;
        let mut updates = Vec::new();
        for (worker, log) in run.workers {
            worker.finish();
            updates.extend(log);
        }
        updates.sort_by_key(|u| u.row);
        let mut touched: Vec<usize> = updates.iter().map(|u| u.row).collect();
        touched.dedup();
        let stats = RepairStats {
            rows: run.rows,
            updates: updates.len(),
            rows_touched: touched.len(),
        };
        Ok((String::from_utf8(out).unwrap(), stats, updates))
    }

    mod tests {
        use super::*;
        use crate::repair::{lrepair_table, NoopObserver};

        const RULES: &str = r#"
IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
IF country = "Canada" AND capital IN {"Toronto"} THEN capital := "Ottawa"
"#;

        const DIRTY: &str = "\
name,country,capital,city,conf
George,China,Beijing,Beijing,SIGMOD
Ian,China,Shanghai,Hongkong,ICDE
Mike,Canada,Toronto,Toronto,VLDB
";

        fn repair(tag: &str, data: &str, threads: usize) -> (String, RepairStats) {
            let file = DataFile::new(tag, data);
            let (rules, symbols) = bind(RULES, &file).unwrap();
            let (out, stats, _) =
                stream_repair(&rules, &symbols, &file, threads, &NoopObserver, None).unwrap();
            (out, stats)
        }

        #[test]
        fn streams_and_repairs() {
            for threads in [1, 2] {
                let (text, stats) = repair("streams", DIRTY, threads);
                assert_eq!(stats.rows, 3);
                assert_eq!(stats.updates, 2);
                assert_eq!(stats.rows_touched, 2);
                assert!(text.contains("Ian,China,Beijing,Hongkong,ICDE"), "{text}");
                assert!(text.contains("Mike,Canada,Ottawa,Toronto,VLDB"), "{text}");
                // Clean row untouched.
                assert!(text.contains("George,China,Beijing,Beijing,SIGMOD"));
            }
        }

        #[test]
        fn streaming_matches_table_repair() {
            // Table path: every value interned, lRepair on each row.
            let mut sy = SymbolTable::new();
            let mut table =
                relation::csv_io::read_csv(DIRTY.as_bytes(), "Travel", &mut sy).unwrap();
            let rules = parse_rules(RULES, table.schema(), &mut sy).unwrap();
            let index = LRepairIndex::build(&rules);
            let outcome = lrepair_table(&rules, &index, &mut table, &NoopObserver);
            let mut want = Vec::new();
            relation::csv_io::write_csv(&mut want, &table, &sy).unwrap();
            // Stream path, over Σ's constants alone.
            let file = DataFile::new("matches", DIRTY);
            let (rules, constants) = bind(RULES, &file).unwrap();
            let (out, stats, updates) =
                stream_repair(&rules, &constants, &file, 2, &NoopObserver, None).unwrap();
            assert_eq!(out.as_bytes(), want.as_slice());
            assert_eq!(stats.updates, outcome.total_updates());
            let cells = |log: &[CellUpdate], sy: &SymbolTable| -> Vec<_> {
                log.iter()
                    .map(|u| (u.row, u.attr, sy.resolve(u.old).to_string(), u.rule))
                    .collect()
            };
            assert_eq!(cells(&updates, &constants), cells(&outcome.updates, &sy));
        }

        #[test]
        fn quality_monitor_watches_the_stream() {
            use obs::QualityConfig;
            let file = DataFile::new("quality", DIRTY);
            let (rules, symbols) = bind(RULES, &file).unwrap();
            let names: Vec<String> = rules.schema().attr_names().map(str::to_string).collect();
            let monitor = QualityMonitor::new(QualityConfig::with_window(2), names);
            stream_repair(&rules, &symbols, &file, 2, &NoopObserver, Some(&monitor)).unwrap();
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
            // Σ names attributes the file's header does not have.
            let file = DataFile::new("mismatch", "a,b,c\n1,2,3\n");
            let err = bind(RULES, &file).unwrap_err();
            assert!(err.contains("country"), "{err}");
        }

        #[test]
        fn header_order_matters() {
            // Σ binds to the header by name, so each fix lands in the
            // column the header names, whatever the order.
            let reordered = "country,name,capital,city,conf\nChina,Ian,Shanghai,x,c\n";
            let (text, stats) = repair("order", reordered, 1);
            assert_eq!(stats.updates, 1);
            assert_eq!(
                text,
                "country,name,capital,city,conf\nChina,Ian,Beijing,x,c\n"
            );
        }

        #[test]
        fn empty_body_is_fine() {
            let empty = "name,country,capital,city,conf\n";
            for threads in [1, 2] {
                let (text, stats) = repair("empty", empty, threads);
                assert_eq!(stats, RepairStats::default());
                assert_eq!(text, empty);
            }
        }

        #[test]
        fn tallies_reach_the_observer_during_and_after_the_stream() {
            use crate::repair::linear::TALLY_FLUSH_TUPLES;
            use obs::{Event, MetricsObserver, MetricsRegistry, Tee};
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

            let rows = 2 * TALLY_FLUSH_TUPLES + 100;
            let mut text = String::from("name,country,capital,city,conf\n");
            for i in 0..rows {
                text += match i % 3 {
                    0 => "Ian,China,Shanghai,Hongkong,ICDE\n",
                    1 => "Mike,Canada,Toronto,Toronto,VLDB\n",
                    _ => "George,China,Beijing,Beijing,SIGMOD\n",
                };
            }
            let file = DataFile::new("tallies", &text);
            let (rules, symbols) = bind(RULES, &file).unwrap();

            // Every repair.* counter but the per-worker ones, and every
            // repair.* histogram.
            let repair_metrics = |reg: &MetricsRegistry| {
                let snap = reg.snapshot();
                let mut out = Vec::new();
                for section in ["counters", "histograms"] {
                    for (name, value) in snap.get(section).unwrap().as_obj().unwrap() {
                        if name.starts_with("repair.") && !name.starts_with("repair.worker.") {
                            out.push(format!("{name}={value}"));
                        }
                    }
                }
                out
            };
            // The table driver's, on a table over the rules' own schema.
            let mut sy = symbols.clone();
            let loaded = relation::csv_io::read_csv(text.as_bytes(), "Travel", &mut sy).unwrap();
            let mut table = relation::Table::new(rules.schema().clone());
            for row in loaded.rows() {
                table.push_row(row).unwrap();
            }
            let index = LRepairIndex::build(&rules);
            let tabled = MetricsRegistry::new();
            lrepair_table(&rules, &index, &mut table, &MetricsObserver::new(&tabled));
            let want = repair_metrics(&tabled);
            assert!(want.contains(&format!("repair.tuples={rows}")), "{want:?}");
            assert!(want.iter().any(|m| m.starts_with("repair.index.probes=")));

            for threads in [1, 2] {
                let streamed = MetricsRegistry::new();
                let flushes = Flushes(AtomicUsize::new(0));
                let observer = Tee(&MetricsObserver::new(&streamed), &flushes);
                stream_repair(&rules, &symbols, &file, threads, &observer, None).unwrap();
                if threads == 1 {
                    // Two hand-overs mid-stream, one at the end.
                    assert_eq!(flushes.0.load(Ordering::Relaxed), 3);
                }
                assert_eq!(repair_metrics(&streamed), want, "{threads} workers");
            }
        }
    }
}
