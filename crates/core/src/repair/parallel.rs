//! Parallel table repair.
//!
//! Fixing rules read and write a single tuple at a time — unlike FD repair,
//! no cross-tuple state exists — so a table repair is embarrassingly
//! parallel: cut the rows into blocks, give each worker its own
//! [`LRepairWorker`], and share the immutable [`LRepairIndex`]. This is an
//! extension beyond the paper (its experiments are single-threaded); the
//! `repro` harness uses the sequential drivers so timings stay comparable.
//!
//! A tuple's `lRepair` run reads and writes only its cells on Σ's relevant
//! attributes, so tuples with equal relevant projections get equal runs.
//! Each worker therefore keeps a `PlanMemo`: a bounded memo from
//! projections to the runs it has recorded, which replays a recorded run
//! instead of probing and chasing again.

use std::time::{Duration, Instant};

use obs::{Event, RepairObserver};
use relation::{AttrId, Symbol, Table};

use crate::repair::linear::{
    lrepair_tuple_observed, lrepair_tuple_recorded, LRepairIndex, LRepairScratch, RunRecorder,
};
use crate::repair::{CellUpdate, RepairOutcome};
use crate::ruleset::{RuleId, RuleSet};

/// Blocks of rows per worker that [`par_lrepair_table`] cuts a table into.
/// Workers claim blocks one at a time, so when one worker's core is taken
/// away for a while, the others repair the blocks it would have.
const BLOCKS_PER_WORKER: usize = 8;

/// Repair a table with `lRepair` across `num_threads` workers.
///
/// Produces exactly the same table state and update log as the sequential
/// [`crate::repair::lrepair_table`]. The rows are cut into contiguous
/// blocks, which the workers claim one at a time, in row order, through
/// one [`LRepairWorker`] each. A worker's update log is therefore in row
/// order, and merging the workers' logs by row gives the sequential
/// driver's log, byte for byte. With one worker, the calling thread
/// repairs every block.
///
/// Observer hooks are [`LRepairWorker`]'s: the shared observer (which must
/// therefore be `Sync`) sees the per-update hooks in worker order —
/// provenance consumers sort by `(row, ordinal)` — the per-tuple tallies
/// in batches, and one [`Event::WorkerDone`] per worker; pass
/// [`obs::NoopObserver`] for none.
pub fn par_lrepair_table<O: RepairObserver>(
    rules: &RuleSet,
    index: &LRepairIndex,
    table: &mut Table,
    num_threads: usize,
    observer: &O,
) -> RepairOutcome {
    assert!(
        rules.schema().same_as(table.schema()),
        "rule set and table must share a schema"
    );
    let num_threads = num_threads.max(1);
    let rows = table.len();
    if rows == 0 {
        return RepairOutcome::default();
    }
    let block_rows = rows.div_ceil(num_threads * BLOCKS_PER_WORKER);
    let workers = num_threads.min(rows.div_ceil(block_rows));
    let blocks = std::sync::Mutex::new(table.rows_mut_chunks(block_rows).enumerate());
    let work = |worker: usize| {
        let mut repairer = LRepairWorker::new(rules, index, observer, worker);
        let mut updates = Vec::new();
        loop {
            // A statement of its own, so the lock is not held while the
            // block is repaired.
            let claimed = blocks.lock().expect("row blocks").next();
            let Some((b, block)) = claimed else { break };
            repairer.repair_rows(b * block_rows, block, &mut updates);
        }
        repairer.finish();
        updates
    };
    let mut updates: Vec<CellUpdate> = Vec::new();
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        updates = work(0);
        for h in handles {
            updates.extend(h.join().expect("repair worker panicked"));
        }
    });
    // Each worker's log is in row order and no two share a row, so a
    // stable sort by row merges them and keeps each row's own order.
    updates.sort_by_key(|u| u.row);
    RepairOutcome { updates }
}

/// One `lRepair` worker: its scratch, its `PlanMemo` and its tallies.
/// [`par_lrepair_table`] runs one per thread over claimed blocks of a
/// table; a caller that reads rows some other way (`fixctl`'s chunk
/// pipeline) runs one per thread over its own blocks. The memo lives as
/// long as the worker.
///
/// A replayed run makes the same writes, hooks and tallies as the run it
/// replays, so no observer can tell a hit from a miss. The per-tuple
/// tallies stay in the worker's [`LRepairScratch`] and go to the observer
/// every 4,096 tuples and at [`LRepairWorker::finish`], which also emits
/// the worker's one [`Event::WorkerDone`].
pub struct LRepairWorker<'a, O: RepairObserver> {
    rules: &'a RuleSet,
    index: &'a LRepairIndex,
    observer: &'a O,
    worker: usize,
    scratch: LRepairScratch,
    memo: PlanMemo<'a>,
    rows: usize,
    updates: usize,
    /// Time spent in [`LRepairWorker::repair_rows`].
    busy: Duration,
}

impl<'a, O: RepairObserver> LRepairWorker<'a, O> {
    /// Worker number `worker`, as [`Event::WorkerDone`] reports it.
    pub fn new(
        rules: &'a RuleSet,
        index: &'a LRepairIndex,
        observer: &'a O,
        worker: usize,
    ) -> Self {
        LRepairWorker {
            rules,
            index,
            observer,
            worker,
            scratch: LRepairScratch::new(rules.len()),
            memo: PlanMemo::new(rules, index, observer.wants_rule_timing()),
            rows: 0,
            updates: 0,
            busy: Duration::ZERO,
        }
    }

    /// Repair in place the rows of `cells`, which holds them one after
    /// another in the rule set's schema, the first being row `first_row`
    /// of the table. Their updates are appended to `updates` in row order,
    /// each row's in application order, with table row numbers, and each
    /// goes to the observer's `cell_repaired`.
    pub fn repair_rows(
        &mut self,
        first_row: usize,
        cells: &mut [Symbol],
        updates: &mut Vec<CellUpdate>,
    ) {
        let start = Instant::now();
        let before = updates.len();
        let arity = self.rules.schema().arity();
        for (r, row) in cells.chunks_exact_mut(arity).enumerate() {
            let mut ups = if self.memo.skips() {
                lrepair_tuple_observed(
                    self.rules,
                    self.index,
                    &mut self.scratch,
                    row,
                    self.observer,
                )
            } else {
                self.memo.repair(&mut self.scratch, row, self.observer)
            };
            for (k, u) in ups.iter_mut().enumerate() {
                u.row = first_row + r;
                self.observer.cell_repaired(u.as_fix(k));
            }
            updates.extend(ups);
            self.rows += 1;
        }
        self.updates += updates.len() - before;
        self.busy += start.elapsed();
    }

    /// Hand the remaining tallies to the observer, then report the worker's
    /// rows, updates, replays and busy time as one [`Event::WorkerDone`].
    pub fn finish(mut self) {
        self.scratch.flush_tallies(self.observer);
        self.observer.event(Event::WorkerDone {
            worker: self.worker,
            rows: self.rows,
            updates: self.updates,
            replayed: self.memo.replayed,
            busy_ns: u64::try_from(self.busy.as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

/// Most bytes one worker's [`PlanMemo`] holds: its table, keys, runs,
/// steps and the run being recorded together. With 16 relevant attributes
/// it holds [`MEMO_PLANS`] runs in 642 KiB, or 900 KiB when the observer
/// asks for rule timing.
const MEMO_BYTES: usize = 1 << 20;

/// Most runs one [`PlanMemo`] holds before it starts over.
const MEMO_PLANS: usize = 4096;

/// Queue pops per run that a [`PlanMemo`] budgets for, on average.
const MEMO_STEPS_PER_PLAN: usize = 8;

/// Most queue pops of a run that a [`PlanMemo`] records; a longer run is
/// not memoized.
const MEMO_RUN_STEPS: usize = 256;

/// Rows per [`PlanMemo`] window: the memo counts its hits window by window.
const MEMO_WINDOW: usize = 512;

/// Most rows a [`PlanMemo`] skips after a window with too few hits.
const MEMO_MAX_SKIP: usize = 32 * MEMO_WINDOW;

/// One queue pop of a recorded run.
#[derive(Debug, Clone, Copy)]
struct Step {
    rule: RuleId,
    applied: bool,
}

/// A recorded run: its steps' range in [`PlanMemo::steps`] and its tallies.
#[derive(Debug, Clone, Copy)]
struct Plan {
    start: u32,
    end: u32,
    probe_hits: u32,
    enqueued: u32,
}

/// A worker's memo from a tuple's relevant projection to the `lRepair` run
/// it gets, for the life of one [`LRepairWorker`]. It holds at most
/// [`MEMO_PLANS`] runs and [`MEMO_BYTES`] in all; when either would
/// overflow, it forgets every run and starts over.
///
/// Runs are appended in the order they are recorded: a projection's key
/// to `keys`, its pops to `steps`, the rest to `plans`. An open-addressed
/// table, at most half full, maps the projection's hash to its run; keys
/// are compared exactly.
///
/// A miss runs `lRepair` and records it. A hit replays the run: the same
/// cell writes and update records, the same `rule_applied`/
/// `rule_rejected` calls in the same order, the recorded `rule_latency`
/// nanoseconds when the observer asks for timing, and the same pops,
/// updates, probes, probe hits and enqueues into the scratch's tallies.
struct PlanMemo<'a> {
    rules: &'a RuleSet,
    index: &'a LRepairIndex,
    /// Σ's relevant attributes: the key's layout.
    relevant: &'a [AttrId],
    /// Runs this memo holds at most: a power of two.
    max_plans: usize,
    /// Steps past which the memo starts over; `steps` has room for one
    /// more run beyond them.
    max_steps: usize,
    /// `64 − log2(table.len())`: a hash's home slot is its top bits.
    shift: u32,
    /// Per slot, 0 when empty, else the hash's low 32 bits above the run's
    /// number plus one.
    table: Vec<u64>,
    /// Run `p`'s key at `p * relevant.len()`.
    keys: Vec<Symbol>,
    plans: Vec<Plan>,
    steps: Vec<Step>,
    /// Each step's evaluation nanoseconds, parallel to `steps`; empty when
    /// the observer does not ask for timing.
    latency: Vec<u64>,
    timing: bool,
    /// Rows looked up, and hits among them, in the current window.
    window_rows: usize,
    window_hits: usize,
    /// Rows still to repair without the memo, and how many the last skip
    /// was.
    skip: usize,
    backoff: usize,
    /// Rows repaired by replay.
    replayed: usize,
}

impl<'a> PlanMemo<'a> {
    fn new(rules: &'a RuleSet, index: &'a LRepairIndex, timing: bool) -> Self {
        let relevant = index.relevant_attrs();
        let step_bytes = std::mem::size_of::<Step>() + if timing { 8 } else { 0 };
        let key_bytes = relevant.len() * std::mem::size_of::<Symbol>();
        let plan_bytes = key_bytes
            + std::mem::size_of::<Plan>()
            + 2 * std::mem::size_of::<u64>()
            + MEMO_STEPS_PER_PLAN * step_bytes;
        // Room for one more key and run: a miss records its key and pops
        // before it is known whether the memo must start over.
        let free = MEMO_BYTES - key_bytes - MEMO_RUN_STEPS * step_bytes;
        let fit = (free / plan_bytes).min(MEMO_PLANS);
        let max_plans = 1usize << fit.max(1).ilog2();
        let slots = 2 * max_plans;
        let max_steps = MEMO_STEPS_PER_PLAN * max_plans;
        PlanMemo {
            rules,
            index,
            relevant,
            max_plans,
            max_steps,
            shift: 64 - slots.trailing_zeros(),
            table: vec![0; slots],
            keys: Vec::with_capacity((max_plans + 1) * relevant.len()),
            plans: Vec::with_capacity(max_plans),
            steps: Vec::with_capacity(max_steps + MEMO_RUN_STEPS),
            latency: Vec::with_capacity(if timing {
                max_steps + MEMO_RUN_STEPS
            } else {
                0
            }),
            timing,
            window_rows: 0,
            window_hits: 0,
            skip: 0,
            backoff: 0,
            replayed: 0,
        }
    }

    /// Repair `row` in place, by replay if its projection is memoized.
    /// Returns the applied updates, as `lrepair_tuple_observed` does.
    fn repair<O: RepairObserver>(
        &mut self,
        scratch: &mut LRepairScratch,
        row: &mut [Symbol],
        observer: &O,
    ) -> Vec<CellUpdate> {
        let hash = projection_hash(self.relevant, row);
        let (found, slot) = self.find(hash, row);
        self.window_rows += 1;
        let updates = match found {
            Some(p) => {
                self.window_hits += 1;
                self.replayed += 1;
                self.replay(p, scratch, row, observer)
            }
            None => self.record(hash, slot, scratch, row, observer),
        };
        if self.window_rows == MEMO_WINDOW {
            // Fewer than a quarter of hits: the memo costs more than it
            // saves, so skip it for twice as long as last time.
            if self.window_hits < MEMO_WINDOW / 4 {
                self.backoff = (2 * self.backoff).clamp(MEMO_WINDOW, MEMO_MAX_SKIP);
                self.skip = self.backoff;
            } else {
                self.backoff = 0;
            }
            self.window_rows = 0;
            self.window_hits = 0;
        }
        updates
    }

    /// Whether to repair the next row without the memo.
    #[inline]
    fn skips(&mut self) -> bool {
        if self.skip == 0 {
            return false;
        }
        self.skip -= 1;
        true
    }

    /// The run memoized for `row`'s projection, if any, and the table slot
    /// where probing for it stopped.
    #[inline]
    fn find(&self, hash: u64, row: &[Symbol]) -> (Option<usize>, usize) {
        let width = self.relevant.len();
        let tag = hash << 32;
        let mask = self.table.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        loop {
            let slot = self.table[i];
            if slot == 0 {
                return (None, i);
            }
            if slot & !0xffff_ffff == tag {
                let p = (slot as u32 - 1) as usize;
                if self.keys[p * width..(p + 1) * width]
                    .iter()
                    .zip(self.relevant)
                    .all(|(&k, a)| k == row[a.index()])
                {
                    return (Some(p), i);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Run `lRepair` on `row` and memoize the run at table slot `slot`,
    /// or at its home slot after starting over when the memo is full.
    fn record<O: RepairObserver>(
        &mut self,
        hash: u64,
        mut slot: usize,
        scratch: &mut LRepairScratch,
        row: &mut [Symbol],
        observer: &O,
    ) -> Vec<CellUpdate> {
        // The key goes in before the run overwrites the row, the pops as
        // they happen.
        let (key_at, step_at) = (self.keys.len(), self.steps.len());
        self.keys
            .extend(self.relevant.iter().map(|a| row[a.index()]));
        let mut recorder = Recording {
            steps: &mut self.steps,
            latency: &mut self.latency,
            start: step_at,
            timing: self.timing,
            complete: true,
            tallies: None,
        };
        let updates = lrepair_tuple_recorded(
            self.rules,
            self.index,
            scratch,
            row,
            observer,
            &mut recorder,
        );
        let Some((probe_hits, enqueued)) = recorder.tallies else {
            self.keys.truncate(key_at);
            self.steps.truncate(step_at);
            self.latency.truncate(step_at);
            return updates;
        };
        let mut start = step_at;
        if self.plans.len() == self.max_plans || self.steps.len() > self.max_steps {
            keep_from(&mut self.keys, key_at);
            keep_from(&mut self.steps, step_at);
            if self.timing {
                keep_from(&mut self.latency, step_at);
            }
            self.plans.clear();
            self.table.fill(0);
            start = 0;
            slot = (hash >> self.shift) as usize;
        }
        self.plans.push(Plan {
            start: start as u32,
            end: self.steps.len() as u32,
            probe_hits,
            enqueued,
        });
        self.table[slot] = (hash << 32) | self.plans.len() as u64;
        updates
    }

    fn replay<O: RepairObserver>(
        &self,
        p: usize,
        scratch: &mut LRepairScratch,
        row: &mut [Symbol],
        observer: &O,
    ) -> Vec<CellUpdate> {
        let plan = self.plans[p];
        let range = plan.start as usize..plan.end as usize;
        let mut updates = Vec::new();
        for (k, (at, step)) in range.clone().zip(&self.steps[range]).enumerate() {
            let rid = step.rule;
            if step.applied {
                let rule = self.rules.rule(rid);
                let b = rule.b();
                let old = row[b.index()];
                let new = rule.fact();
                row[b.index()] = new;
                observer.rule_applied(rid.index(), b.index());
                if self.timing {
                    observer.rule_latency(rid.index(), self.latency[at]);
                }
                updates.push(CellUpdate {
                    row: 0,
                    attr: b,
                    old,
                    new,
                    rule: rid,
                    round: k as u32 + 1,
                });
            } else {
                observer.rule_rejected(rid.index());
                if self.timing {
                    observer.rule_latency(rid.index(), self.latency[at]);
                }
            }
        }
        let probes = row.len() + 2 * updates.len();
        scratch.tuple_done(
            (plan.end - plan.start) as usize,
            updates.len(),
            probes,
            plan.probe_hits as usize,
            plan.enqueued as usize,
            observer,
        );
        updates
    }
}

/// Hash `row`'s cells at `relevant`: the fxhash step over pairs of cells,
/// in four independent lanes, so the multiplies overlap instead of
/// waiting on each other.
#[inline]
fn projection_hash(relevant: &[AttrId], row: &[Symbol]) -> u64 {
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let cell = |a: AttrId| u64::from(row[a.index()].0);
    let mut lanes = [0u64, 1, 2, 3];
    let mut octets = relevant.chunks_exact(8);
    for o in &mut octets {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, cell(o[2 * j]) | cell(o[2 * j + 1]) << 32);
        }
    }
    let hash = lanes.into_iter().fold(0xcbf2_9ce4_8422_2325, step);
    octets
        .remainder()
        .iter()
        .fold(hash, |h, &a| step(h, cell(a)))
}

/// Drop `v`'s items before `from`, keeping the rest at the front.
fn keep_from<T: Copy>(v: &mut Vec<T>, from: usize) {
    v.copy_within(from.., 0);
    v.truncate(v.len() - from);
}

/// Appends one miss's pops to a [`PlanMemo`]'s steps.
struct Recording<'m> {
    steps: &'m mut Vec<Step>,
    latency: &'m mut Vec<u64>,
    /// Where the run's steps begin.
    start: usize,
    timing: bool,
    /// Whether every pop so far fit in [`MEMO_RUN_STEPS`].
    complete: bool,
    /// The run's probe hits and enqueues, once it is over, if the memo can
    /// keep it.
    tallies: Option<(u32, u32)>,
}

impl RunRecorder for Recording<'_> {
    #[inline]
    fn pop(&mut self, rule: RuleId, applied: bool, ns: u64) {
        if self.steps.len() - self.start == MEMO_RUN_STEPS {
            self.complete = false;
            return;
        }
        self.steps.push(Step { rule, applied });
        if self.timing {
            self.latency.push(ns);
        }
    }

    #[inline]
    fn done(&mut self, probe_hits: usize, enqueued: usize) {
        self.tallies = u32::try_from(probe_hits)
            .ok()
            .zip(u32::try_from(enqueued).ok())
            .filter(|_| self.complete);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::lrepair_table;
    use obs::NoopObserver;
    use relation::{Schema, SymbolTable};

    fn setup(rows: usize) -> (RuleSet, Table, SymbolTable) {
        let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rules = RuleSet::new(schema.clone());
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
        let mut table = Table::with_capacity(schema, rows);
        for i in 0..rows {
            let dirty = i % 3 == 0;
            let row = if dirty {
                ["p", "China", "Shanghai", "x", "ICDE"]
            } else {
                ["p", "China", "Beijing", "x", "ICDE"]
            };
            let _ = i;
            table.push_strs(&mut sy, &row).unwrap();
        }
        (rules, table, sy)
    }

    #[test]
    fn matches_sequential_result() {
        let (rules, table, _sy) = setup(1000);
        let index = LRepairIndex::build(&rules);
        let mut seq = table.clone();
        let mut par = table.clone();
        let so = lrepair_table(&rules, &index, &mut seq, &NoopObserver);
        let po = par_lrepair_table(&rules, &index, &mut par, 4, &NoopObserver);
        assert_eq!(seq.diff_cells(&par).unwrap(), 0);
        assert_eq!(so.updates, po.updates, "full update logs must agree");
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let (rules, table, _sy) = setup(10);
        let index = LRepairIndex::build(&rules);
        let mut seq = table.clone();
        let mut par = table.clone();
        lrepair_table(&rules, &index, &mut seq, &NoopObserver);
        par_lrepair_table(&rules, &index, &mut par, 1, &NoopObserver);
        assert_eq!(seq.diff_cells(&par).unwrap(), 0);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let (rules, table, _sy) = setup(3);
        let index = LRepairIndex::build(&rules);
        let mut par = table.clone();
        let outcome = par_lrepair_table(&rules, &index, &mut par, 16, &NoopObserver);
        assert_eq!(outcome.total_updates(), 1);
    }

    #[test]
    fn empty_table_is_noop() {
        let (rules, mut table, _sy) = setup(0);
        let index = LRepairIndex::build(&rules);
        let outcome = par_lrepair_table(&rules, &index, &mut table, 4, &NoopObserver);
        assert_eq!(outcome.total_updates(), 0);
    }

    #[test]
    fn updates_row_indices_are_global() {
        let (rules, table, _sy) = setup(100);
        let index = LRepairIndex::build(&rules);
        let mut par = table.clone();
        let outcome = par_lrepair_table(&rules, &index, &mut par, 7, &NoopObserver);
        for u in &outcome.updates {
            assert_eq!(u.row % 3, 0, "only every third row is dirty");
        }
        assert_eq!(outcome.total_updates(), 34);
    }

    #[test]
    fn worker_tallies_add_up_to_the_sequential_counters() {
        use obs::{MetricsObserver, MetricsRegistry};
        let (rules, table, _sy) = setup(10_000);
        let index = LRepairIndex::build(&rules);
        let metrics = |threads: usize| {
            let reg = MetricsRegistry::new();
            let mut t = table.clone();
            if threads == 0 {
                lrepair_table(&rules, &index, &mut t, &MetricsObserver::new(&reg));
            } else {
                par_lrepair_table(&rules, &index, &mut t, threads, &MetricsObserver::new(&reg));
            }
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
        let sequential = metrics(0);
        assert!(sequential.contains(&"repair.tuples=10000".to_string()));
        for threads in [1, 2, 3, 7] {
            assert_eq!(metrics(threads), sequential, "threads={threads}");
        }
    }
}
