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

use crate::metrics::{Counter, Histogram, MetricsRegistry};

/// Value-carrying description of one applied fix, passed to
/// [`RepairObserver::cell_repaired`] by the repair drivers.
///
/// Plain ids only (row/attr/rule ordinals, interned symbol ids) so this
/// crate stays a leaf; consumers that know the rule set — like the
/// provenance ledger in `fixrules` — expand them back to evidence bindings
/// and names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFix {
    /// Row index in the table (record index in a CSV file).
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

/// One cold observation: a hook that fires at most once per flush,
/// worker, check or finding, never per rule evaluation or per cell. Observers that care match the variants they need and ignore
/// the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `lRepair` tallies of a run of tuples: `probes` inverted-list
    /// lookups found `hits` rules in all, and `enqueued` rules entered the
    /// candidate queue because their hash counter reached `|X|`. Drivers
    /// keep these in worker-local memory and report them every few
    /// thousand tuples and at the end, so no shared counter is touched per
    /// probe.
    LRepairProbes {
        probes: u64,
        hits: u64,
        enqueued: u64,
    },
    /// A parallel worker finished its shard, of which it repaired
    /// `replayed` rows by replaying a memoized run.
    WorkerDone {
        worker: usize,
        rows: usize,
        updates: usize,
        replayed: usize,
        busy_ns: u64,
    },
    /// A consistency check examined `pairs` rule pairs.
    PairsChecked { pairs: usize },
    /// A consistency check found a conflicting pair; `case` is the Fig 4
    /// characterization case name.
    ConflictFound { case: &'static str },
    /// A witness tuple was materialized for a conflict.
    WitnessFound,
    /// The static analyzer (`fixlint`) reported one finding; `code` is the
    /// stable diagnostic code (`FR001`, ...) and `severity` its severity
    /// name (`error`/`warning`/`note`).
    LintFinding {
        code: &'static str,
        severity: &'static str,
    },
    /// The certifier (`fixcert`) examined `pairs` interaction-graph pairs
    /// for confluence and chased `witness_runs` synthesized witness tuples
    /// with `crepair_tuple` (two rule orders count as one run).
    CertChecked { pairs: usize, witness_runs: usize },
    /// The certifier reported one finding (`FR009`/`FR010`/`FR011`).
    CertFinding {
        code: &'static str,
        severity: &'static str,
    },
    /// A certification pass finished; `certified` is the verdict.
    CertCompleted { certified: bool },
}

/// Hooks called from the repair stack. All default to no-ops.
///
/// The per-rule, per-tuple and per-row hooks are methods of their own so
/// the drivers' hot loops call them directly; everything rarer arrives
/// through [`RepairObserver::event`].
///
/// `Sync` is required because the parallel driver shares one observer
/// across workers.
pub trait RepairObserver: Sync {
    /// A rule fired and updated attribute `attr`.
    #[inline]
    fn rule_applied(&self, rule: usize, attr: usize) {
        let _ = (rule, attr);
    }

    /// `count` tuples finished repairing, each after `rounds` chase rounds
    /// / queue pops with `updates` cell updates. Row-at-a-time drivers
    /// pass `count = 1`; the lRepair workers coalesce their worker-local
    /// tallies into one call per distinct `(rounds, updates)`, so
    /// aggregating observers pay O(1) instead of O(tuples). Batched calls
    /// are flushed every few thousand tuples, so their order relative to
    /// other hooks may differ from the row-at-a-time drivers; final
    /// aggregates do not.
    #[inline]
    fn tuples_done(&self, rounds: usize, updates: usize, count: usize) {
        let _ = (rounds, updates, count);
    }

    /// A repair driver applied one fix, with full values — the
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

    /// Whether this observer consumes [`RepairObserver::rule_latency`].
    /// Defaults to false; under [`NoopObserver`] the drivers' timing
    /// branches monomorphize away, keeping the uninstrumented hot path.
    #[inline]
    fn wants_rule_timing(&self) -> bool {
        false
    }

    /// One cold [`Event`] from a repair driver or an analysis report.
    #[inline]
    fn event(&self, e: Event) {
        let _ = e;
    }
}

/// Observers forward through references, so generic drivers can take a
/// `&dyn RepairObserver` (or a `&&impl RepairObserver`) without the caller
/// monomorphizing a new driver per observer stack.
impl<T: RepairObserver + ?Sized> RepairObserver for &T {
    #[inline]
    fn rule_applied(&self, rule: usize, attr: usize) {
        (**self).rule_applied(rule, attr);
    }

    #[inline]
    fn tuples_done(&self, rounds: usize, updates: usize, count: usize) {
        (**self).tuples_done(rounds, updates, count);
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
    fn wants_rule_timing(&self) -> bool {
        (**self).wants_rule_timing()
    }

    #[inline]
    fn event(&self, e: Event) {
        (**self).event(e);
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
    fn rule_applied(&self, rule: usize, attr: usize) {
        self.0.rule_applied(rule, attr);
        self.1.rule_applied(rule, attr);
    }

    #[inline]
    fn tuples_done(&self, rounds: usize, updates: usize, count: usize) {
        self.0.tuples_done(rounds, updates, count);
        self.1.tuples_done(rounds, updates, count);
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
    fn wants_rule_timing(&self) -> bool {
        self.0.wants_rule_timing() || self.1.wants_rule_timing()
    }

    #[inline]
    fn event(&self, e: Event) {
        self.0.event(e);
        self.1.event(e);
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
    "repair.index.probe_hits",
    "repair.index.probes",
    "repair.queue.enqueued",
    "repair.rules_applied",
    "repair.tuples",
    "repair.tuples_touched",
    "repair.updates",
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
    rules_applied: Counter,
    tuples: Counter,
    tuples_touched: Counter,
    updates: Counter,
    tuple_rounds: Histogram,
    tuple_updates: Histogram,
    probes: Counter,
    probe_hits: Counter,
    enqueued: Counter,
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
            rules_applied: registry.counter("repair.rules_applied"),
            tuples: registry.counter("repair.tuples"),
            tuples_touched: registry.counter("repair.tuples_touched"),
            updates: registry.counter("repair.updates"),
            tuple_rounds: registry.histogram("repair.tuple_rounds"),
            tuple_updates: registry.histogram("repair.tuple_updates"),
            probes: registry.counter("repair.index.probes"),
            probe_hits: registry.counter("repair.index.probe_hits"),
            enqueued: registry.counter("repair.queue.enqueued"),
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
    fn rule_applied(&self, _rule: usize, _attr: usize) {
        self.rules_applied.inc();
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

    fn event(&self, e: Event) {
        match e {
            Event::LRepairProbes {
                probes,
                hits,
                enqueued,
            } => {
                self.probes.add(probes);
                self.probe_hits.add(hits);
                self.enqueued.add(enqueued);
            }
            Event::WorkerDone {
                worker,
                rows,
                updates,
                replayed,
                busy_ns,
            } => {
                self.registry
                    .counter(&format!("repair.worker.{worker}.rows"))
                    .add(rows as u64);
                self.registry
                    .counter(&format!("repair.worker.{worker}.updates"))
                    .add(updates as u64);
                self.registry
                    .counter(&format!("repair.worker.{worker}.replayed"))
                    .add(replayed as u64);
                self.registry
                    .counter(&format!("repair.worker.{worker}.busy_ns"))
                    .add(busy_ns);
                self.registry
                    .histogram("repair.worker.busy_ns")
                    .record(busy_ns);
            }
            Event::PairsChecked { pairs } => self.pairs_checked.add(pairs as u64),
            Event::ConflictFound { case } => {
                self.conflicts.inc();
                self.registry
                    .counter(&format!("consistency.conflicts.{case}"))
                    .inc();
            }
            Event::WitnessFound => self.witnesses.inc(),
            Event::LintFinding { code, severity } => {
                self.lint_findings.inc();
                self.registry
                    .counter(&format!("lint.findings.{code}"))
                    .inc();
                self.registry
                    .counter(&format!("lint.severity.{severity}"))
                    .inc();
            }
            Event::CertChecked {
                pairs,
                witness_runs,
            } => {
                self.cert_pairs.add(pairs as u64);
                self.cert_witness_runs.add(witness_runs as u64);
            }
            Event::CertFinding { code, severity } => {
                self.cert_findings.inc();
                self.registry
                    .counter(&format!("cert.findings.{code}"))
                    .inc();
                self.registry
                    .counter(&format!("cert.severity.{severity}"))
                    .inc();
            }
            Event::CertCompleted { certified } => {
                self.cert_passes.inc();
                let verdict = if certified {
                    "cert.certified"
                } else {
                    "cert.rejected"
                };
                self.registry.counter(verdict).inc();
            }
        }
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
        // The lRepair workers' coalesced hook must leave every counter
        // and histogram exactly where `count` single-tuple calls would.
        let reg_one = MetricsRegistry::new();
        let reg_n = MetricsRegistry::new();
        let one = MetricsObserver::new(&reg_one);
        let batched = MetricsObserver::new(&reg_n);
        for _ in 0..7 {
            one.tuples_done(2, 3, 1);
        }
        for _ in 0..5 {
            one.tuples_done(1, 0, 1);
        }
        batched.tuples_done(2, 3, 7);
        batched.tuples_done(1, 0, 5);
        batched.tuples_done(9, 9, 0); // no-op
        assert_eq!(reg_one.snapshot().to_string(), reg_n.snapshot().to_string());
    }

    /// Every [`Event`] variant once.
    fn every_event() -> Vec<Event> {
        vec![
            Event::LRepairProbes {
                probes: 2,
                hits: 3,
                enqueued: 1,
            },
            Event::WorkerDone {
                worker: 1,
                rows: 500,
                updates: 20,
                replayed: 300,
                busy_ns: 1_000,
            },
            Event::PairsChecked { pairs: 6 },
            Event::ConflictFound { case: "mutual" },
            Event::WitnessFound,
            Event::LintFinding {
                code: "FR001",
                severity: "error",
            },
            Event::CertChecked {
                pairs: 3,
                witness_runs: 4,
            },
            Event::CertFinding {
                code: "FR009",
                severity: "error",
            },
            Event::CertCompleted { certified: false },
        ]
    }

    #[test]
    fn metrics_observer_aggregates_hooks() {
        let reg = MetricsRegistry::new();
        let obs = MetricsObserver::new(&reg);
        obs.rule_applied(0, 2);
        obs.rule_applied(3, 1);
        obs.tuples_done(2, 2, 1);
        obs.tuples_done(1, 0, 1);
        obs.event(Event::LRepairProbes {
            probes: 2,
            hits: 3,
            enqueued: 1,
        });
        obs.event(Event::WorkerDone {
            worker: 1,
            rows: 500,
            updates: 20,
            replayed: 300,
            busy_ns: 1_000,
        });
        obs.event(Event::PairsChecked { pairs: 6 });
        obs.event(Event::ConflictFound { case: "Mutual" });
        obs.event(Event::LintFinding {
            code: "FR001",
            severity: "error",
        });
        obs.event(Event::LintFinding {
            code: "FR002",
            severity: "warning",
        });

        let snap = reg.snapshot();
        let counters = snap.get("counters").unwrap();
        let get = |name: &str| counters.get(name).and_then(|v| v.as_i64()).unwrap();
        assert_eq!(get("repair.rules_applied"), 2);
        assert_eq!(get("repair.tuples"), 2);
        assert_eq!(get("repair.tuples_touched"), 1);
        assert_eq!(get("repair.updates"), 2);
        assert_eq!(get("repair.index.probes"), 2);
        assert_eq!(get("repair.index.probe_hits"), 3);
        assert_eq!(get("repair.queue.enqueued"), 1);
        assert_eq!(get("repair.worker.1.rows"), 500);
        assert_eq!(get("repair.worker.1.replayed"), 300);
        assert_eq!(get("consistency.pairs_checked"), 6);
        assert_eq!(get("consistency.conflicts"), 1);
        assert_eq!(get("consistency.conflicts.Mutual"), 1);
        assert_eq!(get("lint.findings"), 2);
        assert_eq!(get("lint.findings.FR001"), 1);
        assert_eq!(get("lint.severity.warning"), 1);
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
        obs.rule_applied(0, 0);
        obs.tuples_done(1, 1, 1);
        for e in every_event() {
            obs.event(e);
        }
        let snap = reg.snapshot();
        let counters = snap.get("counters").unwrap().as_obj().unwrap();
        for name in METRIC_NAMES {
            assert!(
                counters.contains_key(*name),
                "missing documented metric {name}"
            );
        }
    }

    /// Calls every hook of the trait once, and sends every [`Event`].
    fn drive<O: RepairObserver + ?Sized>(o: &O) {
        o.rule_applied(1, 2);
        o.tuples_done(2, 1, 3);
        o.cell_repaired(CellFix {
            row: 4,
            ordinal: 0,
            rule: 1,
            attr: 2,
            old: 10,
            new: 11,
            round: 1,
        });
        o.rule_rejected(0);
        o.rule_latency(1, 500);
        for e in every_event() {
            o.event(e);
        }
    }

    #[test]
    fn tee_and_dyn_forward_every_hook_and_event() {
        let direct_reg = MetricsRegistry::new();
        drive(&MetricsObserver::new(&direct_reg));
        let direct = direct_reg.snapshot().to_string();

        let (reg1, reg2) = (MetricsRegistry::new(), MetricsRegistry::new());
        let (m1, m2) = (MetricsObserver::new(&reg1), MetricsObserver::new(&reg2));
        drive(&Tee(&m1, &m2));
        assert_eq!(reg1.snapshot().to_string(), direct);
        assert_eq!(reg2.snapshot().to_string(), direct);

        // The same fan-out assembled from trait objects, as `fixctl repair`
        // builds it: `&dyn` through the `&T` forwarding impl into a Tee of
        // `&dyn`s.
        let (reg1, reg2) = (MetricsRegistry::new(), MetricsRegistry::new());
        let (m1, m2) = (MetricsObserver::new(&reg1), MetricsObserver::new(&reg2));
        let tee = Tee(&m1 as &dyn RepairObserver, &m2 as &dyn RepairObserver);
        let dynamic: &dyn RepairObserver = &tee;
        drive(&dynamic);
        assert!(!dynamic.wants_rule_timing());
        assert_eq!(reg1.snapshot().to_string(), direct);
        assert_eq!(reg2.snapshot().to_string(), direct);
    }
}
