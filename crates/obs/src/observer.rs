//! Observer hooks for the repair pipeline.
//!
//! The repair drivers in `fixrules` are generic over a [`RepairObserver`];
//! every hook has an empty default body and the drivers' public entry
//! points pass [`NoopObserver`], so the instrumented code monomorphizes to
//! exactly the uninstrumented hot path when observability is off — zero
//! branches, zero atomics. [`MetricsObserver`] is the production
//! implementation, fanning each hook into [`MetricsRegistry`] counters and
//! histograms under the documented names.
//!
//! Hook arguments are plain `usize`/`u64` so this crate stays a leaf with
//! no knowledge of relational types; callers pass `RuleId::index()` etc.

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// Value-carrying description of one applied fix, passed to
/// [`RepairObserver::cell_repaired`] by the table and stream drivers.
///
/// Plain ids only (row/attr/rule ordinals, interned symbol ids) so this
/// crate stays a leaf; consumers that know the rule set — like the
/// provenance ledger in `fixrules` — expand them back to evidence bindings
/// and names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFix {
    /// Row index in the table (record index for the stream driver).
    pub row: usize,
    /// Application order within the row, from 0.
    pub ordinal: usize,
    /// `RuleId::index()` of the rule that fired.
    pub rule: usize,
    /// `AttrId::index()` of the updated attribute.
    pub attr: usize,
    /// Interned symbol id of the value before the update.
    pub old: u32,
    /// Interned symbol id of the value after the update.
    pub new: u32,
    /// Chase round (`cRepair`) or queue-pop index (`lRepair`), 1-based.
    pub round: u32,
}

/// Hooks called from the repair stack. All default to no-ops.
///
/// `Sync` is required because the parallel driver shares one observer
/// across workers.
pub trait RepairObserver: Sync {
    /// One outer scan round of `cRepair` over the rule set.
    #[inline]
    fn chase_round(&self) {}

    /// A rule fired and updated attribute `attr`.
    #[inline]
    fn rule_applied(&self, rule: usize, attr: usize) {
        let _ = (rule, attr);
    }

    /// A tuple finished repairing after `rounds` chase rounds / queue pops
    /// with `updates` cell updates.
    #[inline]
    fn tuple_done(&self, rounds: usize, updates: usize) {
        let _ = (rounds, updates);
    }

    /// `count` tuples finished with identical per-tuple stats — the
    /// columnar driver coalesces the members of one signature group into a
    /// single call so aggregating observers pay O(1) instead of O(members).
    /// The default replays [`RepairObserver::tuple_done`] `count` times, so
    /// per-tuple observers see the same call multiset (batched calls are
    /// flushed per batch, so ordering relative to other hooks may differ
    /// from the row-at-a-time drivers; final aggregates do not).
    #[inline]
    fn tuples_done(&self, rounds: usize, updates: usize, count: usize) {
        for _ in 0..count {
            self.tuple_done(rounds, updates);
        }
    }

    /// `lRepair` tallies of a run of tuples: `probes` inverted-list
    /// lookups found `hits` rules in all, and `enqueued` rules entered the
    /// candidate queue because their hash counter reached `|X|`. Drivers
    /// keep these in worker-local memory and report them every few
    /// thousand tuples and at the end, so no shared counter is touched per
    /// probe.
    #[inline]
    fn lrepair_probes(&self, probes: u64, hits: u64, enqueued: u64) {
        let _ = (probes, hits, enqueued);
    }

    /// A parallel worker finished its shard.
    #[inline]
    fn worker_done(&self, worker: usize, rows: usize, updates: usize, busy_ns: u64) {
        let _ = (worker, rows, updates, busy_ns);
    }

    /// The columnar driver grouped one batch by tuple signature: `rows`
    /// rows fell into `groups` distinct signatures, and `scattered` rows
    /// were repaired by scattering a group plan instead of an engine run
    /// or cache probe.
    #[inline]
    fn batch_grouped(&self, rows: usize, groups: usize, scattered: usize) {
        let _ = (rows, groups, scattered);
    }

    /// The streaming driver wrote one record; `vocab` is the interner size.
    #[inline]
    fn stream_record(&self, vocab: usize) {
        let _ = vocab;
    }

    /// A compiled driver probed one evidence-group dispatch table and found
    /// `rules_hit` matching rules.
    #[inline]
    fn plan_probe(&self, rules_hit: usize) {
        let _ = rules_hit;
    }

    /// A compiled driver looked a tuple signature up in the plan cache.
    #[inline]
    fn plan_cache_lookup(&self, hit: bool) {
        let _ = hit;
    }

    /// The plan cache evicted an entry to stay within its capacity.
    #[inline]
    fn plan_cache_evicted(&self) {}

    /// A consistency checker examined `pairs` rule pairs.
    #[inline]
    fn pairs_checked(&self, pairs: usize) {
        let _ = pairs;
    }

    /// A consistency checker found a conflicting pair; `case` is the
    /// Fig 4 characterization case name.
    #[inline]
    fn conflict_found(&self, case: &'static str) {
        let _ = case;
    }

    /// The static analyzer (`fixlint`) emitted one finding; `code` is the
    /// stable diagnostic code (`FR001`, ...) and `severity` its severity
    /// name (`error`/`warning`/`note`).
    #[inline]
    fn lint_finding(&self, code: &'static str, severity: &'static str) {
        let _ = (code, severity);
    }

    /// A table/stream driver applied one fix, with full values — the
    /// provenance hook. Called once per update after each tuple completes
    /// (the drivers know the row index there; per-tuple algorithms don't).
    #[inline]
    fn cell_repaired(&self, fix: CellFix) {
        let _ = fix;
    }

    /// A rule was evaluated against a tuple's evidence but did not fire —
    /// an evidence-pattern mismatch, an already-assured B cell, or a
    /// failed post-probe re-verification. The per-rule miss companion to
    /// [`RepairObserver::rule_applied`].
    #[inline]
    fn rule_rejected(&self, rule: usize) {
        let _ = rule;
    }

    /// Wall-clock nanoseconds one evaluation of `rule` took (whether it
    /// fired or not). Drivers only call this when
    /// [`RepairObserver::wants_rule_timing`] returns true, so the
    /// `Instant::now` pair is skipped entirely otherwise.
    #[inline]
    fn rule_latency(&self, rule: usize, ns: u64) {
        let _ = (rule, ns);
    }

    /// A plan-cache replay re-applied `rule` to attribute `attr`. Fires
    /// alongside [`RepairObserver::rule_applied`] during replays,
    /// attributing the application to a memoized plan rather than a live
    /// evaluation.
    #[inline]
    fn plan_replayed(&self, rule: usize, attr: usize) {
        let _ = (rule, attr);
    }

    /// A consistency checker materialized a witness tuple for a conflict.
    #[inline]
    fn witness_found(&self) {}

    /// The certifier (`fixcert`) examined `pairs` interaction-graph pairs
    /// for confluence.
    #[inline]
    fn cert_pair_checked(&self, pairs: usize) {
        let _ = pairs;
    }

    /// The certifier executed one synthesized witness tuple through the
    /// compiled chase engine (two rule orders count as one run).
    #[inline]
    fn cert_witness_run(&self) {}

    /// The certifier emitted one finding (`FR009`/`FR010`/`FR011`).
    #[inline]
    fn cert_finding(&self, code: &'static str, severity: &'static str) {
        let _ = (code, severity);
    }

    /// A certification pass finished; `certified` is the verdict.
    #[inline]
    fn cert_completed(&self, certified: bool) {
        let _ = certified;
    }

    /// Whether this observer consumes [`RepairObserver::rule_latency`].
    /// Defaults to false; under [`NoopObserver`] the drivers' timing
    /// branches monomorphize away, keeping the uninstrumented hot path.
    #[inline]
    fn wants_rule_timing(&self) -> bool {
        false
    }

    /// A driver is about to repair one row; `values` are the row's
    /// *pre-repair* interned symbol ids in attribute order. The quality
    /// monitor's window-feeding hook — pairs with
    /// [`RepairObserver::cell_repaired`], which reports what changed.
    /// Drivers only call this when [`RepairObserver::wants_rows`]
    /// returns true, so the pre-repair copy is skipped entirely
    /// otherwise.
    #[inline]
    fn row_observed(&self, values: &[u32]) {
        let _ = values;
    }

    /// Whether this observer consumes [`RepairObserver::row_observed`].
    /// Defaults to false; under [`NoopObserver`] the drivers' row-copy
    /// branches monomorphize away, keeping the uninstrumented hot path.
    #[inline]
    fn wants_rows(&self) -> bool {
        false
    }
}

/// Observers forward through references, so generic drivers can take a
/// `&dyn RepairObserver` (or a `&&impl RepairObserver`) without the caller
/// monomorphizing a new driver per observer stack.
impl<T: RepairObserver + ?Sized> RepairObserver for &T {
    #[inline]
    fn chase_round(&self) {
        (**self).chase_round();
    }

    #[inline]
    fn rule_applied(&self, rule: usize, attr: usize) {
        (**self).rule_applied(rule, attr);
    }

    #[inline]
    fn tuple_done(&self, rounds: usize, updates: usize) {
        (**self).tuple_done(rounds, updates);
    }

    #[inline]
    fn tuples_done(&self, rounds: usize, updates: usize, count: usize) {
        (**self).tuples_done(rounds, updates, count);
    }

    #[inline]
    fn lrepair_probes(&self, probes: u64, hits: u64, enqueued: u64) {
        (**self).lrepair_probes(probes, hits, enqueued);
    }

    #[inline]
    fn worker_done(&self, worker: usize, rows: usize, updates: usize, busy_ns: u64) {
        (**self).worker_done(worker, rows, updates, busy_ns);
    }

    #[inline]
    fn batch_grouped(&self, rows: usize, groups: usize, scattered: usize) {
        (**self).batch_grouped(rows, groups, scattered);
    }

    #[inline]
    fn stream_record(&self, vocab: usize) {
        (**self).stream_record(vocab);
    }

    #[inline]
    fn plan_probe(&self, rules_hit: usize) {
        (**self).plan_probe(rules_hit);
    }

    #[inline]
    fn plan_cache_lookup(&self, hit: bool) {
        (**self).plan_cache_lookup(hit);
    }

    #[inline]
    fn plan_cache_evicted(&self) {
        (**self).plan_cache_evicted();
    }

    #[inline]
    fn pairs_checked(&self, pairs: usize) {
        (**self).pairs_checked(pairs);
    }

    #[inline]
    fn conflict_found(&self, case: &'static str) {
        (**self).conflict_found(case);
    }

    #[inline]
    fn lint_finding(&self, code: &'static str, severity: &'static str) {
        (**self).lint_finding(code, severity);
    }

    #[inline]
    fn cell_repaired(&self, fix: CellFix) {
        (**self).cell_repaired(fix);
    }

    #[inline]
    fn rule_rejected(&self, rule: usize) {
        (**self).rule_rejected(rule);
    }

    #[inline]
    fn rule_latency(&self, rule: usize, ns: u64) {
        (**self).rule_latency(rule, ns);
    }

    #[inline]
    fn plan_replayed(&self, rule: usize, attr: usize) {
        (**self).plan_replayed(rule, attr);
    }

    #[inline]
    fn witness_found(&self) {
        (**self).witness_found();
    }

    #[inline]
    fn cert_pair_checked(&self, pairs: usize) {
        (**self).cert_pair_checked(pairs);
    }

    #[inline]
    fn cert_witness_run(&self) {
        (**self).cert_witness_run();
    }

    #[inline]
    fn cert_finding(&self, code: &'static str, severity: &'static str) {
        (**self).cert_finding(code, severity);
    }

    #[inline]
    fn cert_completed(&self, certified: bool) {
        (**self).cert_completed(certified);
    }

    #[inline]
    fn wants_rule_timing(&self) -> bool {
        (**self).wants_rule_timing()
    }

    #[inline]
    fn row_observed(&self, values: &[u32]) {
        (**self).row_observed(values);
    }

    #[inline]
    fn wants_rows(&self) -> bool {
        (**self).wants_rows()
    }
}

/// The do-nothing observer; the default for every repair entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl RepairObserver for NoopObserver {}

/// Fans every hook out to two observers, so e.g. a `MetricsObserver` and a
/// provenance ledger can watch the same repair run: `Tee(&metrics, &prov)`.
#[derive(Debug, Clone, Copy)]
pub struct Tee<'a, A: ?Sized, B: ?Sized>(pub &'a A, pub &'a B);

impl<A: RepairObserver + ?Sized, B: RepairObserver + ?Sized> RepairObserver for Tee<'_, A, B> {
    #[inline]
    fn chase_round(&self) {
        self.0.chase_round();
        self.1.chase_round();
    }

    #[inline]
    fn rule_applied(&self, rule: usize, attr: usize) {
        self.0.rule_applied(rule, attr);
        self.1.rule_applied(rule, attr);
    }

    #[inline]
    fn tuple_done(&self, rounds: usize, updates: usize) {
        self.0.tuple_done(rounds, updates);
        self.1.tuple_done(rounds, updates);
    }

    #[inline]
    fn tuples_done(&self, rounds: usize, updates: usize, count: usize) {
        self.0.tuples_done(rounds, updates, count);
        self.1.tuples_done(rounds, updates, count);
    }

    #[inline]
    fn lrepair_probes(&self, probes: u64, hits: u64, enqueued: u64) {
        self.0.lrepair_probes(probes, hits, enqueued);
        self.1.lrepair_probes(probes, hits, enqueued);
    }

    #[inline]
    fn worker_done(&self, worker: usize, rows: usize, updates: usize, busy_ns: u64) {
        self.0.worker_done(worker, rows, updates, busy_ns);
        self.1.worker_done(worker, rows, updates, busy_ns);
    }

    #[inline]
    fn batch_grouped(&self, rows: usize, groups: usize, scattered: usize) {
        self.0.batch_grouped(rows, groups, scattered);
        self.1.batch_grouped(rows, groups, scattered);
    }

    #[inline]
    fn stream_record(&self, vocab: usize) {
        self.0.stream_record(vocab);
        self.1.stream_record(vocab);
    }

    #[inline]
    fn plan_probe(&self, rules_hit: usize) {
        self.0.plan_probe(rules_hit);
        self.1.plan_probe(rules_hit);
    }

    #[inline]
    fn plan_cache_lookup(&self, hit: bool) {
        self.0.plan_cache_lookup(hit);
        self.1.plan_cache_lookup(hit);
    }

    #[inline]
    fn plan_cache_evicted(&self) {
        self.0.plan_cache_evicted();
        self.1.plan_cache_evicted();
    }

    #[inline]
    fn pairs_checked(&self, pairs: usize) {
        self.0.pairs_checked(pairs);
        self.1.pairs_checked(pairs);
    }

    #[inline]
    fn conflict_found(&self, case: &'static str) {
        self.0.conflict_found(case);
        self.1.conflict_found(case);
    }

    #[inline]
    fn lint_finding(&self, code: &'static str, severity: &'static str) {
        self.0.lint_finding(code, severity);
        self.1.lint_finding(code, severity);
    }

    #[inline]
    fn cell_repaired(&self, fix: CellFix) {
        self.0.cell_repaired(fix);
        self.1.cell_repaired(fix);
    }

    #[inline]
    fn rule_rejected(&self, rule: usize) {
        self.0.rule_rejected(rule);
        self.1.rule_rejected(rule);
    }

    #[inline]
    fn rule_latency(&self, rule: usize, ns: u64) {
        self.0.rule_latency(rule, ns);
        self.1.rule_latency(rule, ns);
    }

    #[inline]
    fn plan_replayed(&self, rule: usize, attr: usize) {
        self.0.plan_replayed(rule, attr);
        self.1.plan_replayed(rule, attr);
    }

    #[inline]
    fn witness_found(&self) {
        self.0.witness_found();
        self.1.witness_found();
    }

    #[inline]
    fn cert_pair_checked(&self, pairs: usize) {
        self.0.cert_pair_checked(pairs);
        self.1.cert_pair_checked(pairs);
    }

    #[inline]
    fn cert_witness_run(&self) {
        self.0.cert_witness_run();
        self.1.cert_witness_run();
    }

    #[inline]
    fn cert_finding(&self, code: &'static str, severity: &'static str) {
        self.0.cert_finding(code, severity);
        self.1.cert_finding(code, severity);
    }

    #[inline]
    fn cert_completed(&self, certified: bool) {
        self.0.cert_completed(certified);
        self.1.cert_completed(certified);
    }

    #[inline]
    fn wants_rule_timing(&self) -> bool {
        self.0.wants_rule_timing() || self.1.wants_rule_timing()
    }

    #[inline]
    fn row_observed(&self, values: &[u32]) {
        self.0.row_observed(values);
        self.1.row_observed(values);
    }

    #[inline]
    fn wants_rows(&self) -> bool {
        self.0.wants_rows() || self.1.wants_rows()
    }
}

/// Counter/histogram names written by [`MetricsObserver`], in snapshot
/// (sorted) order. Kept public so tests and docs stay in sync with the
/// implementation.
pub const METRIC_NAMES: &[&str] = &[
    "cert.findings",
    "cert.pairs_checked",
    "cert.passes",
    "cert.witness_runs",
    "consistency.conflicts",
    "consistency.pairs_checked",
    "consistency.witness_found",
    "lint.findings",
    "repair.batch.groups",
    "repair.batch.rows",
    "repair.batch.scattered",
    "repair.chase.rounds",
    "repair.index.probe_hits",
    "repair.index.probes",
    "repair.plan.probe_hits",
    "repair.plan.probes",
    "repair.plan_cache.evictions",
    "repair.plan_cache.hits",
    "repair.plan_cache.misses",
    "repair.queue.enqueued",
    "repair.rules_applied",
    "repair.tuples",
    "repair.tuples_touched",
    "repair.updates",
    "stream.records",
];

/// A [`RepairObserver`] that aggregates into a [`MetricsRegistry`].
///
/// Handles are resolved once at construction; each hook is one or two
/// relaxed atomic ops. Per-worker and per-conflict-case metrics use
/// dynamic names (`repair.worker.<i>.rows`, `consistency.conflicts.<case>`)
/// and take the registry lock, but only fire once per worker / conflict.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    batch_rows: Counter,
    batch_groups: Counter,
    batch_scattered: Counter,
    chase_rounds: Counter,
    rules_applied: Counter,
    tuples: Counter,
    tuples_touched: Counter,
    updates: Counter,
    tuple_rounds: Histogram,
    tuple_updates: Histogram,
    probes: Counter,
    probe_hits: Counter,
    plan_probes: Counter,
    plan_probe_hits: Counter,
    plan_hits: Counter,
    plan_misses: Counter,
    plan_evictions: Counter,
    enqueued: Counter,
    stream_records: Counter,
    stream_vocab: Gauge,
    pairs_checked: Counter,
    conflicts: Counter,
    witnesses: Counter,
    lint_findings: Counter,
    cert_pairs: Counter,
    cert_witness_runs: Counter,
    cert_findings: Counter,
    cert_passes: Counter,
}

impl MetricsObserver {
    pub fn new(registry: &MetricsRegistry) -> Self {
        MetricsObserver {
            batch_rows: registry.counter("repair.batch.rows"),
            batch_groups: registry.counter("repair.batch.groups"),
            batch_scattered: registry.counter("repair.batch.scattered"),
            chase_rounds: registry.counter("repair.chase.rounds"),
            rules_applied: registry.counter("repair.rules_applied"),
            tuples: registry.counter("repair.tuples"),
            tuples_touched: registry.counter("repair.tuples_touched"),
            updates: registry.counter("repair.updates"),
            tuple_rounds: registry.histogram("repair.tuple_rounds"),
            tuple_updates: registry.histogram("repair.tuple_updates"),
            probes: registry.counter("repair.index.probes"),
            probe_hits: registry.counter("repair.index.probe_hits"),
            plan_probes: registry.counter("repair.plan.probes"),
            plan_probe_hits: registry.counter("repair.plan.probe_hits"),
            plan_hits: registry.counter("repair.plan_cache.hits"),
            plan_misses: registry.counter("repair.plan_cache.misses"),
            plan_evictions: registry.counter("repair.plan_cache.evictions"),
            enqueued: registry.counter("repair.queue.enqueued"),
            stream_records: registry.counter("stream.records"),
            stream_vocab: registry.gauge("stream.vocab"),
            pairs_checked: registry.counter("consistency.pairs_checked"),
            conflicts: registry.counter("consistency.conflicts"),
            witnesses: registry.counter("consistency.witness_found"),
            lint_findings: registry.counter("lint.findings"),
            cert_pairs: registry.counter("cert.pairs_checked"),
            cert_witness_runs: registry.counter("cert.witness_runs"),
            cert_findings: registry.counter("cert.findings"),
            cert_passes: registry.counter("cert.passes"),
            registry: registry.clone(),
        }
    }

    /// The registry this observer writes to.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl RepairObserver for MetricsObserver {
    #[inline]
    fn chase_round(&self) {
        self.chase_rounds.inc();
    }

    #[inline]
    fn rule_applied(&self, _rule: usize, _attr: usize) {
        self.rules_applied.inc();
    }

    #[inline]
    fn tuple_done(&self, rounds: usize, updates: usize) {
        self.tuples.inc();
        if updates > 0 {
            self.tuples_touched.inc();
            self.updates.add(updates as u64);
        }
        self.tuple_rounds.record(rounds as u64);
        self.tuple_updates.record(updates as u64);
    }

    #[inline]
    fn tuples_done(&self, rounds: usize, updates: usize, count: usize) {
        if count == 0 {
            return;
        }
        let n = count as u64;
        self.tuples.add(n);
        if updates > 0 {
            self.tuples_touched.add(n);
            self.updates.add(updates as u64 * n);
        }
        self.tuple_rounds.record_n(rounds as u64, n);
        self.tuple_updates.record_n(updates as u64, n);
    }

    #[inline]
    fn lrepair_probes(&self, probes: u64, hits: u64, enqueued: u64) {
        self.probes.add(probes);
        self.probe_hits.add(hits);
        self.enqueued.add(enqueued);
    }

    #[inline]
    fn plan_probe(&self, rules_hit: usize) {
        self.plan_probes.inc();
        self.plan_probe_hits.add(rules_hit as u64);
    }

    #[inline]
    fn plan_cache_lookup(&self, hit: bool) {
        if hit {
            self.plan_hits.inc();
        } else {
            self.plan_misses.inc();
        }
    }

    #[inline]
    fn plan_cache_evicted(&self) {
        self.plan_evictions.inc();
    }

    #[inline]
    fn batch_grouped(&self, rows: usize, groups: usize, scattered: usize) {
        self.batch_rows.add(rows as u64);
        self.batch_groups.add(groups as u64);
        self.batch_scattered.add(scattered as u64);
    }

    fn worker_done(&self, worker: usize, rows: usize, updates: usize, busy_ns: u64) {
        self.registry
            .counter(&format!("repair.worker.{worker}.rows"))
            .add(rows as u64);
        self.registry
            .counter(&format!("repair.worker.{worker}.updates"))
            .add(updates as u64);
        self.registry
            .counter(&format!("repair.worker.{worker}.busy_ns"))
            .add(busy_ns);
        self.registry
            .histogram("repair.worker.busy_ns")
            .record(busy_ns);
    }

    #[inline]
    fn stream_record(&self, vocab: usize) {
        self.stream_records.inc();
        self.stream_vocab.max(vocab as i64);
    }

    #[inline]
    fn pairs_checked(&self, pairs: usize) {
        self.pairs_checked.add(pairs as u64);
    }

    fn conflict_found(&self, case: &'static str) {
        self.conflicts.inc();
        self.registry
            .counter(&format!("consistency.conflicts.{case}"))
            .inc();
    }

    #[inline]
    fn witness_found(&self) {
        self.witnesses.inc();
    }

    fn lint_finding(&self, code: &'static str, severity: &'static str) {
        self.lint_findings.inc();
        self.registry
            .counter(&format!("lint.findings.{code}"))
            .inc();
        self.registry
            .counter(&format!("lint.severity.{severity}"))
            .inc();
    }

    #[inline]
    fn cert_pair_checked(&self, pairs: usize) {
        self.cert_pairs.add(pairs as u64);
    }

    #[inline]
    fn cert_witness_run(&self) {
        self.cert_witness_runs.inc();
    }

    fn cert_finding(&self, code: &'static str, severity: &'static str) {
        self.cert_findings.inc();
        self.registry
            .counter(&format!("cert.findings.{code}"))
            .inc();
        self.registry
            .counter(&format!("cert.severity.{severity}"))
            .inc();
    }

    fn cert_completed(&self, certified: bool) {
        self.cert_passes.inc();
        self.registry
            .counter(if certified {
                "cert.certified"
            } else {
                "cert.rejected"
            })
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopObserver>(), 0);
    }

    #[test]
    fn batched_tuples_done_matches_repeated_tuple_done() {
        // The columnar driver's coalesced hook must leave every counter
        // and histogram exactly where `count` individual calls would.
        let reg_one = MetricsRegistry::new();
        let reg_n = MetricsRegistry::new();
        let one = MetricsObserver::new(&reg_one);
        let batched = MetricsObserver::new(&reg_n);
        for _ in 0..7 {
            one.tuple_done(2, 3);
        }
        for _ in 0..5 {
            one.tuple_done(1, 0);
        }
        batched.tuples_done(2, 3, 7);
        batched.tuples_done(1, 0, 5);
        batched.tuples_done(9, 9, 0); // no-op
        assert_eq!(reg_one.snapshot().to_string(), reg_n.snapshot().to_string());
    }

    #[test]
    fn metrics_observer_aggregates_hooks() {
        let reg = MetricsRegistry::new();
        let obs = MetricsObserver::new(&reg);
        obs.chase_round();
        obs.rule_applied(0, 2);
        obs.rule_applied(3, 1);
        obs.tuple_done(2, 2);
        obs.tuple_done(1, 0);
        obs.lrepair_probes(2, 3, 1);
        obs.plan_probe(2);
        obs.plan_probe(0);
        obs.plan_cache_lookup(true);
        obs.plan_cache_lookup(true);
        obs.plan_cache_lookup(false);
        obs.plan_cache_evicted();
        obs.batch_grouped(100, 7, 93);
        obs.worker_done(1, 500, 20, 1_000);
        obs.stream_record(128);
        obs.stream_record(256);
        obs.pairs_checked(6);
        obs.conflict_found("Mutual");
        obs.lint_finding("FR001", "error");
        obs.lint_finding("FR002", "warning");

        let snap = reg.snapshot();
        let counters = snap.get("counters").unwrap();
        let get = |name: &str| counters.get(name).and_then(|v| v.as_i64()).unwrap();
        assert_eq!(get("repair.chase.rounds"), 1);
        assert_eq!(get("repair.rules_applied"), 2);
        assert_eq!(get("repair.tuples"), 2);
        assert_eq!(get("repair.tuples_touched"), 1);
        assert_eq!(get("repair.updates"), 2);
        assert_eq!(get("repair.index.probes"), 2);
        assert_eq!(get("repair.index.probe_hits"), 3);
        assert_eq!(get("repair.queue.enqueued"), 1);
        assert_eq!(get("repair.plan.probes"), 2);
        assert_eq!(get("repair.plan.probe_hits"), 2);
        assert_eq!(get("repair.plan_cache.hits"), 2);
        assert_eq!(get("repair.plan_cache.misses"), 1);
        assert_eq!(get("repair.plan_cache.evictions"), 1);
        assert_eq!(get("repair.batch.rows"), 100);
        assert_eq!(get("repair.batch.groups"), 7);
        assert_eq!(get("repair.batch.scattered"), 93);
        assert_eq!(get("repair.worker.1.rows"), 500);
        assert_eq!(get("stream.records"), 2);
        assert_eq!(get("consistency.pairs_checked"), 6);
        assert_eq!(get("consistency.conflicts"), 1);
        assert_eq!(get("consistency.conflicts.Mutual"), 1);
        assert_eq!(get("lint.findings"), 2);
        assert_eq!(get("lint.findings.FR001"), 1);
        assert_eq!(get("lint.severity.warning"), 1);
        assert_eq!(
            snap.get("gauges")
                .unwrap()
                .get("stream.vocab")
                .unwrap()
                .as_i64(),
            Some(256)
        );
        assert_eq!(
            snap.get("histograms")
                .unwrap()
                .get("repair.tuple_updates")
                .unwrap()
                .get("count")
                .unwrap()
                .as_i64(),
            Some(2)
        );
    }

    #[test]
    fn documented_metric_names_all_appear() {
        let reg = MetricsRegistry::new();
        let obs = MetricsObserver::new(&reg);
        obs.chase_round();
        obs.rule_applied(0, 0);
        obs.tuple_done(1, 1);
        obs.lrepair_probes(1, 1, 1);
        obs.plan_probe(1);
        obs.plan_cache_lookup(true);
        obs.plan_cache_lookup(false);
        obs.plan_cache_evicted();
        obs.batch_grouped(2, 1, 1);
        obs.stream_record(1);
        obs.pairs_checked(1);
        obs.conflict_found("BiInXj");
        obs.witness_found();
        obs.lint_finding("FR001", "error");
        obs.cert_pair_checked(3);
        obs.cert_witness_run();
        obs.cert_finding("FR009", "error");
        obs.cert_completed(false);
        let snap = reg.snapshot();
        let counters = snap.get("counters").unwrap().as_obj().unwrap();
        for name in METRIC_NAMES {
            assert!(
                counters.contains_key(*name),
                "missing documented metric {name}"
            );
        }
    }
}
