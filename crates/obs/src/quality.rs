//! Windowed repair-quality monitoring: sketches, drift scores, alerts.
//!
//! [`QualityMonitor`] is a [`RepairObserver`] that watches the *data*
//! flowing through a repair driver, not the driver itself. Rows are
//! bucketed into tumbling windows of a fixed row count; each window keeps,
//! per attribute, a pre-repair [`CountMinSketch`], a [`DistinctCounter`],
//! a [`Reservoir`] sample and a repair count. Values arrive as
//! [`value_key`]s, a content hash of each cell's text, so a monitor's
//! state does not depend on how any caller numbers its values. Sealing a
//! window computes three signals per attribute:
//!
//! * **repair rate** — cells repaired / rows in the window;
//! * **new-value ratio** — fraction of rows whose pre-repair value was
//!   never seen in any *prior* window (count-min estimate of zero is an
//!   exact "never seen" proof; defined as 0 for the first window);
//! * **drift** — the normalized L1-style distance between this window's
//!   and the previous window's pre-repair frequency sketches, in
//!   `[0, 1]` (0 = identical distribution, 1 = disjoint).
//!
//! [`AlertRule`] thresholds are evaluated at seal time; a firing rule
//! becomes an [`AlertEvent`] on the window summary, a
//! `quality.alert{attr,signal}` labeled counter, and a `quality.alert`
//! log line. The latest sealed window's alerts stay *active* until the
//! next seal — `fixd --quality-gate` folds them into `GET /readyz`.
//!
//! Determinism: window indices are a logical clock (sealed-window count,
//! the same seq-only discipline as [`crate::trace::TraceClock::Logical`]),
//! every signal is serialized as integer counts and per-mille ratios, and
//! the sketches hash with fixed seeds — so two identical runs produce
//! byte-identical snapshots and summary tables.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::observer::{CellFix, RepairObserver};
use crate::sketch::{splitmix64, CountMinSketch, DistinctCounter, Reservoir, SlotBloom};

/// A per-window quality signal an [`AlertRule`] can threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Cells repaired / rows, per attribute.
    RepairRate,
    /// Rows whose value was never seen in prior windows / rows.
    NewValueRatio,
    /// Normalized L1 sketch distance to the previous window.
    Drift,
}

impl Signal {
    /// Stable name used in labels, flags, and snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            Signal::RepairRate => "repair_rate",
            Signal::NewValueRatio => "new_ratio",
            Signal::Drift => "drift",
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Signal {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "repair_rate" => Ok(Signal::RepairRate),
            "new_ratio" => Ok(Signal::NewValueRatio),
            "drift" => Ok(Signal::Drift),
            other => Err(format!(
                "unknown quality signal `{other}` (repair_rate|new_ratio|drift)"
            )),
        }
    }
}

/// A threshold over one [`Signal`], optionally scoped to one attribute.
///
/// Fires when the sealed window's signal value strictly exceeds
/// `threshold`. `attr: None` applies the rule to every attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Which signal to threshold.
    pub signal: Signal,
    /// Attribute name scope; `None` = any attribute.
    pub attr: Option<String>,
    /// Firing threshold (ratio in `[0, 1]`; strictly-greater comparison).
    pub threshold: f64,
}

impl AlertRule {
    /// Parse `signal>threshold` or `signal:attr>threshold`, e.g.
    /// `drift>0.5` or `repair_rate:city>0.25`.
    pub fn parse(spec: &str) -> Result<AlertRule, String> {
        let (lhs, rhs) = spec
            .split_once('>')
            .ok_or_else(|| format!("alert spec `{spec}` missing `>threshold`"))?;
        let threshold: f64 = rhs
            .trim()
            .parse()
            .map_err(|_| format!("alert spec `{spec}`: bad threshold `{rhs}`"))?;
        if !(0.0..=1.0).contains(&threshold) {
            return Err(format!("alert spec `{spec}`: threshold must be in [0, 1]"));
        }
        let lhs = lhs.trim();
        let (signal, attr) = match lhs.split_once(':') {
            Some((sig, attr)) => (sig, Some(attr.trim().to_string())),
            None => (lhs, None),
        };
        Ok(AlertRule {
            signal: signal.trim().parse()?,
            attr,
            threshold,
        })
    }

    /// Parse a comma-separated list of [`AlertRule::parse`] specs, e.g.
    /// `drift>0.5,repair_rate:city>0.25` (the `--quality-alert` flag).
    pub fn parse_list(specs: &str) -> Result<Vec<AlertRule>, String> {
        specs
            .split(',')
            .map(|spec| AlertRule::parse(spec.trim()))
            .collect()
    }
}

impl FromStr for AlertRule {
    type Err = String;

    fn from_str(spec: &str) -> Result<AlertRule, String> {
        AlertRule::parse(spec)
    }
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.attr {
            Some(attr) => write!(f, "{}:{}>{}", self.signal, attr, self.threshold),
            None => write!(f, "{}>{}", self.signal, self.threshold),
        }
    }
}

/// Sizing and alerting configuration for a [`QualityMonitor`].
#[derive(Debug, Clone)]
pub struct QualityConfig {
    /// Rows per tumbling window (must be nonzero).
    pub window_rows: usize,
    /// Sealed window summaries to retain.
    pub history: usize,
    /// Count–min sketch width (cells per hash row).
    pub sketch_width: usize,
    /// Count–min sketch depth (hash rows). The default is 2: per-window
    /// attribute streams are small relative to the width, so collision
    /// inflation is already rare, and depth is the multiplier on the
    /// per-(row, attribute) hot path (the `bench quality` overhead
    /// budget).
    pub sketch_depth: usize,
    /// Register bits for the distinct counter (`2^bits` registers).
    pub distinct_bits: u32,
    /// Reservoir sample capacity per attribute.
    pub reservoir: usize,
    /// Alert thresholds evaluated at every window seal.
    pub alerts: Vec<AlertRule>,
}

impl QualityConfig {
    /// Default sizing with `window_rows` rows per window.
    pub fn with_window(window_rows: usize) -> Self {
        QualityConfig {
            window_rows,
            ..QualityConfig::default()
        }
    }
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            window_rows: 256,
            history: 8,
            sketch_width: 256,
            sketch_depth: 2,
            distinct_bits: 6,
            reservoir: 8,
            alerts: Vec::new(),
        }
    }
}

/// One alert firing: which rule tripped on which attribute of which
/// window, with the observed value (ratios are reported in per-mille so
/// snapshots stay integer-only and byte-deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertEvent {
    /// Logical index of the sealed window that fired.
    pub window: u64,
    /// Attribute name.
    pub attr: String,
    /// Signal that tripped.
    pub signal: Signal,
    /// Observed value, in per-mille (437 = 0.437).
    pub value_permille: i64,
    /// Rule threshold, in per-mille.
    pub threshold_permille: i64,
}

impl AlertEvent {
    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attr", Json::from(self.attr.as_str())),
            ("signal", Json::from(self.signal.as_str())),
            ("threshold_permille", Json::Int(self.threshold_permille)),
            ("value_permille", Json::Int(self.value_permille)),
            ("window", Json::Int(self.window as i64)),
        ])
    }

    /// Inverse of [`AlertEvent::to_json`] — how `fixctl quality` reads a
    /// fetched snapshot back.
    pub fn from_json(json: &Json) -> Result<AlertEvent, String> {
        Ok(AlertEvent {
            window: get_u64(json, "window")?,
            attr: get_str(json, "attr")?.to_string(),
            signal: get_str(json, "signal")?.parse()?,
            value_permille: get_i64(json, "value_permille")?,
            threshold_permille: get_i64(json, "threshold_permille")?,
        })
    }
}

fn get_i64(json: &Json, key: &str) -> Result<i64, String> {
    json.get(key)
        .and_then(|j| j.as_i64())
        .ok_or_else(|| format!("snapshot object missing integer `{key}`"))
}

fn get_u64(json: &Json, key: &str) -> Result<u64, String> {
    Ok(get_i64(json, key)?.max(0) as u64)
}

fn get_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    json.get(key)
        .and_then(|j| j.as_str())
        .ok_or_else(|| format!("snapshot object missing string `{key}`"))
}

/// Per-attribute signals of one (sealed or in-progress) window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrSummary {
    /// Attribute name.
    pub attr: String,
    /// Cells repaired on this attribute.
    pub repaired: u64,
    /// Repair rate in per-mille of rows.
    pub repair_rate_permille: i64,
    /// Rows whose value was unseen in all prior windows.
    pub new_values: u64,
    /// New-value ratio in per-mille of rows (0 for the first window).
    pub new_ratio_permille: i64,
    /// Drift vs the previous window, in per-mille (0 for the first).
    pub drift_permille: i64,
    /// Approximate distinct pre-repair values in the window.
    pub distinct: u64,
    /// Sorted reservoir sample of pre-repair [`value_key`]s.
    pub sample: Vec<u32>,
}

impl AttrSummary {
    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attr", Json::from(self.attr.as_str())),
            ("distinct", Json::Int(self.distinct as i64)),
            ("drift_permille", Json::Int(self.drift_permille)),
            ("new_ratio_permille", Json::Int(self.new_ratio_permille)),
            ("new_values", Json::Int(self.new_values as i64)),
            ("repair_rate_permille", Json::Int(self.repair_rate_permille)),
            ("repaired", Json::Int(self.repaired as i64)),
            (
                "sample",
                Json::Arr(
                    self.sample
                        .iter()
                        .map(|&v| Json::Int(i64::from(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`AttrSummary::to_json`].
    pub fn from_json(json: &Json) -> Result<AttrSummary, String> {
        let sample = match json.get("sample").and_then(|j| j.as_arr()) {
            Some(arr) => arr
                .iter()
                .map(|v| {
                    v.as_i64()
                        .map(|v| v.clamp(0, i64::from(u32::MAX)) as u32)
                        .ok_or_else(|| "snapshot sample must be integers".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()?,
            None => Vec::new(),
        };
        Ok(AttrSummary {
            attr: get_str(json, "attr")?.to_string(),
            repaired: get_u64(json, "repaired")?,
            repair_rate_permille: get_i64(json, "repair_rate_permille")?,
            new_values: get_u64(json, "new_values")?,
            new_ratio_permille: get_i64(json, "new_ratio_permille")?,
            drift_permille: get_i64(json, "drift_permille")?,
            distinct: get_u64(json, "distinct")?,
            sample,
        })
    }
}

/// Signals and alerts of one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Logical window index (0-based seal order — the monitor's clock).
    pub index: u64,
    /// Rows bucketed into the window.
    pub rows: u64,
    /// Per-attribute signals, in schema order.
    pub attrs: Vec<AttrSummary>,
    /// Alerts that fired when the window sealed.
    pub alerts: Vec<AlertEvent>,
}

impl WindowSummary {
    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "alerts",
                Json::Arr(self.alerts.iter().map(AlertEvent::to_json).collect()),
            ),
            (
                "attrs",
                Json::Arr(self.attrs.iter().map(AttrSummary::to_json).collect()),
            ),
            ("index", Json::Int(self.index as i64)),
            ("rows", Json::Int(self.rows as i64)),
        ])
    }

    /// Inverse of [`WindowSummary::to_json`].
    pub fn from_json(json: &Json) -> Result<WindowSummary, String> {
        let attrs = match json.get("attrs").and_then(|j| j.as_arr()) {
            Some(arr) => arr
                .iter()
                .map(AttrSummary::from_json)
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        let alerts = match json.get("alerts").and_then(|j| j.as_arr()) {
            Some(arr) => arr
                .iter()
                .map(AlertEvent::from_json)
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        Ok(WindowSummary {
            index: get_u64(json, "index")?,
            rows: get_u64(json, "rows")?,
            attrs,
            alerts,
        })
    }
}

/// Per-attribute sketch state of the in-progress window.
#[derive(Debug, Clone)]
struct AttrWindow {
    pre: CountMinSketch,
    distinct: DistinctCounter,
    /// Reservoir-sampled values. The selection decisions live in the
    /// shared [`Inner::sampler`] (every attribute sees exactly one value
    /// per row, so one decision stream serves all attributes); this is
    /// just the storage the shared slot writes into.
    sample: Vec<u32>,
    repaired: u64,
    new_values: u64,
}

impl AttrWindow {
    fn new(cfg: &QualityConfig) -> Self {
        AttrWindow {
            pre: CountMinSketch::new(cfg.sketch_width, cfg.sketch_depth),
            distinct: DistinctCounter::new(cfg.distinct_bits),
            sample: Vec::with_capacity(cfg.reservoir),
            repaired: 0,
            new_values: 0,
        }
    }
}

/// The key a [`QualityMonitor`] knows a cell's value by: FNV-1a over its
/// bytes, finished with [`splitmix64`]. It depends on the text alone, so
/// every caller feeds one value the same key whatever symbol table it
/// holds; a collision only merges two values in the sketches.
pub fn value_key(value: impl AsRef<[u8]>) -> u32 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &b in value.as_ref() {
        acc = (acc ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    splitmix64(acc) as u32
}

/// Deterministic 64-bit hash of a whole row of value keys (FNV-1a
/// over the words, finished with [`splitmix64`]): one multiply per
/// attribute, an order of magnitude cheaper than per-attribute sketch
/// updates. Collisions only cost a full-row comparison, never
/// correctness.
fn row_hash(values: &[u32]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &v in values {
        acc = (acc ^ u64::from(v)).wrapping_mul(0x100_0000_01b3);
    }
    splitmix64(acc)
}

/// Bounded map from distinct row patterns to occurrence counts.
///
/// Within one window every quality signal is either *linear* in
/// occurrence counts (the count–min updates), *idempotent* (distinct
/// registers, and the new-value probe against the `seen` oracle, which
/// is frozen until seal), or *value-independent* (the shared reservoir
/// decision stream) — so identical rows can be tallied here and applied
/// to the sketches once, with their multiplicity, producing
/// byte-identical state to row-at-a-time application. Streams repeat
/// rows constantly; this turns the per-row hot path into one cheap hash
/// and table probe.
#[derive(Debug)]
struct RowBatch {
    /// Open-addressed slot table: 1-based entry index, 0 = empty.
    /// Power-of-two size ≥ 2 × capacity, so probes stay short.
    index: Vec<u32>,
    /// Distinct rows in first-seen order: `(row_hash, count)`.
    entries: Vec<(u64, u32)>,
    /// Flat arena of entry values, `attrs` per entry.
    arena: Vec<u32>,
    attrs: usize,
    cap: usize,
}

impl RowBatch {
    /// Cap on distinct rows buffered before a mid-window application:
    /// bounds both memory and the latency spike of draining the batch.
    const MAX_DISTINCT: usize = 4096;

    fn new(attrs: usize, window_rows: usize) -> Self {
        let cap = window_rows.clamp(1, Self::MAX_DISTINCT);
        RowBatch {
            index: vec![0; (cap * 2).next_power_of_two()],
            entries: Vec::with_capacity(cap),
            arena: Vec::with_capacity(cap * attrs),
            attrs,
            cap,
        }
    }

    fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    fn clear(&mut self) {
        self.index.fill(0);
        self.entries.clear();
        self.arena.clear();
    }

    /// Tally one occurrence of `values`. Returns `false` when the row
    /// cannot be batched (arity mismatch with the schema) and must be
    /// applied directly. The caller drains the batch before this can be
    /// called full.
    #[inline]
    fn add(&mut self, values: &[u32]) -> bool {
        if values.len() != self.attrs {
            return false;
        }
        let h = row_hash(values);
        let mask = self.index.len() - 1;
        let mut slot = (h as usize) & mask;
        loop {
            match self.index[slot] {
                0 => {
                    self.index[slot] = self.entries.len() as u32 + 1;
                    self.entries.push((h, 1));
                    self.arena.extend_from_slice(values);
                    return true;
                }
                id => {
                    let i = (id - 1) as usize;
                    if self.entries[i].0 == h
                        && self.arena[i * self.attrs..(i + 1) * self.attrs] == *values
                    {
                        self.entries[i].1 += 1;
                        return true;
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }
}

/// Apply `count` occurrences of one row's pre-repair values to the
/// per-attribute window sketches.
fn apply_row(
    attrs: &mut [AttrWindow],
    seen: &[SlotBloom],
    values: &[u32],
    count: u32,
    sealed_any: bool,
) {
    for ((&v, aw), seen) in values.iter().zip(attrs.iter_mut()).zip(seen.iter()) {
        // One mix per (attribute, value), shared by the count-min
        // update, the bloom membership probe, and the distinct
        // counter. The bloom oracle is a bit per count-min slot, so
        // the whole "seen before" working set stays cache-resident.
        let h = CountMinSketch::hash_key(v);
        if aw.pre.add_hashed_with_probe(seen, h, i64::from(count)) && sealed_any {
            aw.new_values += u64::from(count);
        }
        aw.distinct.insert_hashed(h);
    }
}

/// Drain the row batch into the sketches and reset it.
fn apply_batch(
    batch: &mut RowBatch,
    attrs: &mut [AttrWindow],
    seen: &[SlotBloom],
    sealed_any: bool,
) {
    for (i, &(_, count)) in batch.entries.iter().enumerate() {
        let row = &batch.arena[i * batch.attrs..(i + 1) * batch.attrs];
        apply_row(attrs, seen, row, count, sealed_any);
    }
    batch.clear();
}

#[derive(Debug)]
struct Inner {
    /// Logical clock: number of windows sealed so far; also the index the
    /// in-progress window will get.
    clock: u64,
    rows: u64,
    attrs: Vec<AttrWindow>,
    /// Pre-repair sketches of the previous sealed window (drift baseline).
    prev_pre: Option<Vec<CountMinSketch>>,
    prev_rows: u64,
    /// Cumulative membership filters over all *sealed* windows (the
    /// "seen before" oracle for the new-value signal). A bloom bit per
    /// count-min slot answers the only question the hot path asks —
    /// "definitely never seen?" — while staying cache-resident.
    seen: Vec<SlotBloom>,
    /// Shared reservoir decision stream: one [`Reservoir::step`] per row
    /// drives every attribute's sample slot (byte-identical to per-attr
    /// reservoirs, 17× cheaper on a 17-attribute schema).
    sampler: Reservoir,
    /// Distinct-row tally for the in-progress window; drained into the
    /// sketches when full, at seal, and before any live summary.
    batch: RowBatch,
    history: VecDeque<WindowSummary>,
    active: Vec<AlertEvent>,
}

/// The windowed repair-quality monitor. See the module docs for the
/// signal definitions and determinism contract.
///
/// Feed it rows in order: [`QualityMonitor::row_observed`] with a row's
/// pre-repair values, then [`RepairObserver::cell_repaired`] with each of
/// that row's fixes, as `fixctl repair` does on its writing thread and
/// `fixd` does per request.
#[derive(Debug)]
pub struct QualityMonitor {
    cfg: QualityConfig,
    attr_names: Vec<String>,
    registry: Option<RegistryHandles>,
    inner: Mutex<Inner>,
}

/// Pre-resolved metric handles, looked up once in
/// [`QualityMonitor::with_registry`] so sealing a window never pays for
/// label formatting or registry lookups (small windows seal often).
#[derive(Debug)]
struct RegistryHandles {
    registry: MetricsRegistry,
    windows: crate::metrics::Counter,
    drift: Vec<crate::metrics::Gauge>,
}

impl QualityMonitor {
    /// Create a monitor for a schema with the given attribute names.
    pub fn new(cfg: QualityConfig, attr_names: Vec<String>) -> Self {
        assert!(cfg.window_rows > 0, "quality window must be nonzero");
        let attrs = attr_names.iter().map(|_| AttrWindow::new(&cfg)).collect();
        let seen = attr_names
            .iter()
            .map(|_| SlotBloom::new(cfg.sketch_width, cfg.sketch_depth))
            .collect();
        QualityMonitor {
            inner: Mutex::new(Inner {
                clock: 0,
                rows: 0,
                attrs,
                prev_pre: None,
                prev_rows: 0,
                seen,
                sampler: Reservoir::new(cfg.reservoir),
                batch: RowBatch::new(attr_names.len(), cfg.window_rows),
                history: VecDeque::new(),
                active: Vec::new(),
            }),
            cfg,
            attr_names,
            registry: None,
        }
    }

    /// Also write `quality.*` counters and gauges into `registry` (alert
    /// counters, per-attribute drift gauges, sealed-window count).
    pub fn with_registry(mut self, registry: &MetricsRegistry) -> Self {
        self.registry = Some(RegistryHandles {
            registry: registry.clone(),
            windows: registry.counter("quality.windows"),
            drift: self
                .attr_names
                .iter()
                .map(|attr| registry.gauge_with("quality.drift", &[("attr", attr)]))
                .collect(),
        });
        self
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &QualityConfig {
        &self.cfg
    }

    /// Number of windows sealed so far (the logical clock).
    pub fn windows_sealed(&self) -> u64 {
        self.inner.lock().unwrap().clock
    }

    /// Alerts of the most recently sealed window — the "active" set that
    /// `--quality-gate` folds into readiness.
    pub fn active_alerts(&self) -> Vec<AlertEvent> {
        self.inner.lock().unwrap().active.clone()
    }

    /// Sealed window summaries, oldest first (bounded by
    /// [`QualityConfig::history`]).
    pub fn summaries(&self) -> Vec<WindowSummary> {
        self.inner.lock().unwrap().history.iter().cloned().collect()
    }

    /// Seal the in-progress window even if it is short. A no-op when the
    /// window is empty, so idle flushes never manufacture windows.
    pub fn flush(&self) {
        let mut inner = self.inner.lock().unwrap();
        if inner.rows > 0 {
            self.seal(&mut inner);
        }
    }

    /// Full monitor state as deterministic JSON: configuration, logical
    /// clock, the in-progress window, sealed history, and active alerts.
    pub fn snapshot(&self) -> Json {
        let mut inner = self.inner.lock().unwrap();
        {
            let Inner {
                clock,
                attrs,
                seen,
                batch,
                ..
            } = &mut *inner;
            apply_batch(batch, attrs, seen, *clock > 0);
        }
        let current = self.summarize(&inner);
        Json::obj([
            (
                "alerts",
                Json::Arr(inner.active.iter().map(AlertEvent::to_json).collect()),
            ),
            ("clock", Json::Int(inner.clock as i64)),
            ("current", current.to_json()),
            ("history_cap", Json::Int(self.cfg.history as i64)),
            ("window_rows", Json::Int(self.cfg.window_rows as i64)),
            (
                "windows",
                Json::Arr(inner.history.iter().map(WindowSummary::to_json).collect()),
            ),
        ])
    }

    /// Fixed-width table of the sealed windows, one line per
    /// (window, attribute), plus a trailing alert line per firing —
    /// deterministic, for CI `cmp` gates and terminal eyes.
    pub fn render_table(&self) -> String {
        let inner = self.inner.lock().unwrap();
        render_windows(inner.history.iter())
    }

    /// Summarize the in-progress window without sealing it (drift is
    /// computed live against the previous window's sketches).
    fn summarize(&self, inner: &Inner) -> WindowSummary {
        let rows = inner.rows;
        let attrs = self
            .attr_names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let aw = &inner.attrs[i];
                let drift = match &inner.prev_pre {
                    Some(prev) if rows + inner.prev_rows > 0 => {
                        aw.pre.l1_distance(&prev[i]) as f64 / (rows + inner.prev_rows) as f64
                    }
                    _ => 0.0,
                };
                let new_ratio = if inner.clock == 0 || rows == 0 {
                    0.0
                } else {
                    aw.new_values as f64 / rows as f64
                };
                let repair_rate = if rows == 0 {
                    0.0
                } else {
                    aw.repaired as f64 / rows as f64
                };
                AttrSummary {
                    attr: name.clone(),
                    repaired: aw.repaired,
                    repair_rate_permille: permille(repair_rate),
                    new_values: aw.new_values,
                    new_ratio_permille: permille(new_ratio),
                    drift_permille: permille(drift),
                    distinct: if rows == 0 {
                        0
                    } else {
                        aw.distinct.estimate_u64()
                    },
                    sample: {
                        let mut sample = aw.sample.clone();
                        sample.sort_unstable();
                        sample
                    },
                }
            })
            .collect();
        WindowSummary {
            index: inner.clock,
            rows,
            attrs,
            alerts: Vec::new(),
        }
    }

    /// Seal the in-progress window: compute signals, evaluate alerts,
    /// emit metrics and log lines, rotate sketch state.
    fn seal(&self, inner: &mut Inner) {
        {
            let Inner {
                clock,
                attrs,
                seen,
                batch,
                ..
            } = &mut *inner;
            apply_batch(batch, attrs, seen, *clock > 0);
        }
        let mut summary = self.summarize(inner);
        for rule in &self.cfg.alerts {
            for attr in &summary.attrs {
                if rule.attr.as_deref().is_some_and(|a| a != attr.attr) {
                    continue;
                }
                let value_permille = match rule.signal {
                    Signal::RepairRate => attr.repair_rate_permille,
                    Signal::NewValueRatio => attr.new_ratio_permille,
                    Signal::Drift => attr.drift_permille,
                };
                let threshold_permille = permille(rule.threshold);
                if value_permille > threshold_permille {
                    summary.alerts.push(AlertEvent {
                        window: summary.index,
                        attr: attr.attr.clone(),
                        signal: rule.signal,
                        value_permille,
                        threshold_permille,
                    });
                }
            }
        }

        if let Some(handles) = &self.registry {
            handles.windows.inc();
            for (attr, gauge) in summary.attrs.iter().zip(&handles.drift) {
                gauge.set(attr.drift_permille);
            }
            for alert in &summary.alerts {
                handles
                    .registry
                    .counter_with(
                        "quality.alert",
                        &[("attr", &alert.attr), ("signal", alert.signal.as_str())],
                    )
                    .inc();
            }
        }
        for alert in &summary.alerts {
            crate::info!(
                "quality.alert",
                window = alert.window,
                attr = alert.attr,
                signal = alert.signal,
                value_permille = alert.value_permille,
                threshold_permille = alert.threshold_permille
            );
        }

        inner.active = summary.alerts.clone();
        inner.history.push_back(summary);
        while inner.history.len() > self.cfg.history {
            inner.history.pop_front();
        }

        // Rotate window buffers in place: the old drift baseline becomes
        // the (cleared) next current window and the just-sealed pre
        // sketch becomes the new baseline. No allocation per seal, which
        // matters at small windows (a 20k-row stream with 256-row
        // windows seals 78 times).
        let Inner {
            attrs,
            seen,
            prev_pre,
            sampler,
            ..
        } = &mut *inner;
        sampler.clear();
        let prev = prev_pre.get_or_insert_with(|| {
            attrs
                .iter()
                .map(|_| CountMinSketch::new(self.cfg.sketch_width, self.cfg.sketch_depth))
                .collect()
        });
        for ((aw, seen), prev) in attrs.iter_mut().zip(seen.iter_mut()).zip(prev.iter_mut()) {
            seen.absorb(&aw.pre);
            std::mem::swap(&mut aw.pre, prev);
            aw.pre.clear();
            aw.distinct.clear();
            aw.sample.clear();
            aw.repaired = 0;
            aw.new_values = 0;
        }
        inner.prev_rows = inner.rows;
        inner.rows = 0;
        inner.clock += 1;
    }

    /// Observe one row before its repair: `values` are the
    /// [`value_key`]s of its values in attribute order. The row's fixes
    /// follow through [`RepairObserver::cell_repaired`] before the next
    /// row is observed.
    pub fn row_observed(&self, values: &[u32]) {
        let mut inner = self.inner.lock().unwrap();
        // Seal lazily on the *next* row, so the last row's
        // `cell_repaired` events land in the window that observed it.
        if inner.rows >= self.cfg.window_rows as u64 {
            self.seal(&mut inner);
        }
        let Inner {
            clock,
            rows,
            attrs,
            seen,
            sampler,
            batch,
            ..
        } = &mut *inner;
        // Reservoir decisions depend on the row position, so sampling
        // happens now; the sketch updates are linear/idempotent, so they
        // go through the distinct-row batch and are applied with
        // multiplicities later.
        if let Some(slot) = sampler.step() {
            for (&v, aw) in values.iter().zip(attrs.iter_mut()) {
                if slot < aw.sample.len() {
                    aw.sample[slot] = v;
                } else {
                    aw.sample.push(v);
                }
            }
        }
        *rows += 1;
        if batch.is_full() {
            apply_batch(batch, attrs, seen, *clock > 0);
        }
        if !batch.add(values) {
            apply_row(attrs, seen, values, 1, *clock > 0);
        }
    }
}

impl RepairObserver for QualityMonitor {
    fn cell_repaired(&self, fix: CellFix) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(aw) = inner.attrs.get_mut(fix.attr) {
            aw.repaired += 1;
        }
    }
}

/// Scale a ratio to integer per-mille (the only form ratios take in JSON
/// and tables, keeping all output float-free and byte-deterministic).
fn permille(ratio: f64) -> i64 {
    (ratio * 1000.0).round() as i64
}

/// Render a per-mille value as `0.437` (three fixed decimals).
fn fmt_permille(p: i64) -> String {
    format!("{}.{:03}", p / 1000, p % 1000)
}

/// The shared window table: one line per (window, attribute) plus one
/// `alert:` line per firing. Used by [`QualityMonitor::render_table`]
/// on live state and [`render_snapshot`] on fetched JSON, so both render
/// byte-identically.
fn render_windows<'a>(windows: impl Iterator<Item = &'a WindowSummary>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>6}  {:>6}  {:<12}  {:>8}  {:>6}  {:>6}  {:>6}  {:>8}\n",
        "window", "rows", "attr", "repaired", "rate", "new", "drift", "distinct"
    ));
    for w in windows {
        for a in &w.attrs {
            out.push_str(&format!(
                "{:>6}  {:>6}  {:<12}  {:>8}  {:>6}  {:>6}  {:>6}  {:>8}\n",
                w.index,
                w.rows,
                a.attr,
                a.repaired,
                fmt_permille(a.repair_rate_permille),
                fmt_permille(a.new_ratio_permille),
                fmt_permille(a.drift_permille),
                a.distinct,
            ));
        }
        for alert in &w.alerts {
            out.push_str(&format!(
                "alert: window {} attr {} signal {} value {} > threshold {}\n",
                alert.window,
                alert.attr,
                alert.signal,
                fmt_permille(alert.value_permille),
                fmt_permille(alert.threshold_permille),
            ));
        }
    }
    out
}

/// Render a fetched [`QualityMonitor::snapshot`] (or `fixd`'s
/// `GET /quality` body) as the standard window table, preceded by a
/// one-line header and followed by the active alert set. `last` limits
/// the table to the newest `N` sealed windows.
pub fn render_snapshot(snapshot: &Json, last: Option<usize>) -> Result<String, String> {
    if snapshot.get("enabled").and_then(|j| j.as_bool()) == Some(false) {
        return Ok("quality: monitoring disabled\n".to_string());
    }
    let mut windows = match snapshot.get("windows").and_then(|j| j.as_arr()) {
        Some(arr) => arr
            .iter()
            .map(WindowSummary::from_json)
            .collect::<Result<Vec<_>, String>>()?,
        None => return Err("snapshot missing `windows` array".to_string()),
    };
    if let Some(last) = last {
        if windows.len() > last {
            windows.drain(..windows.len() - last);
        }
    }
    let active = match snapshot.get("alerts").and_then(|j| j.as_arr()) {
        Some(arr) => arr
            .iter()
            .map(AlertEvent::from_json)
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    let mut out = format!(
        "quality: clock {} window_rows {} active_alerts {}\n",
        snapshot.get("clock").and_then(|j| j.as_i64()).unwrap_or(0),
        snapshot
            .get("window_rows")
            .and_then(|j| j.as_i64())
            .unwrap_or(0),
        active.len(),
    );
    out.push_str(&render_windows(windows.iter()));
    for alert in &active {
        out.push_str(&format!(
            "active alert: attr {} signal {} value {} > threshold {}\n",
            alert.attr,
            alert.signal,
            fmt_permille(alert.value_permille),
            fmt_permille(alert.threshold_permille),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(monitor: &QualityMonitor, rows: &[&[u32]]) {
        for row in rows {
            monitor.row_observed(row);
        }
    }

    fn fix(attr: usize, old: u32, new: u32) -> CellFix {
        CellFix {
            row: 0,
            ordinal: 0,
            rule: 0,
            attr,
            old,
            new,
            round: 1,
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("a{i}")).collect()
    }

    #[test]
    fn alert_rule_parsing() {
        let r = AlertRule::parse("drift>0.5").unwrap();
        assert_eq!(r.signal, Signal::Drift);
        assert_eq!(r.attr, None);
        assert_eq!(r.threshold, 0.5);
        let r = AlertRule::parse("repair_rate:city>0.25").unwrap();
        assert_eq!(r.signal, Signal::RepairRate);
        assert_eq!(r.attr.as_deref(), Some("city"));
        assert!(AlertRule::parse("bogus>0.5").is_err());
        assert!(AlertRule::parse("drift=0.5").is_err());
        assert!(AlertRule::parse("drift>1.5").is_err());
        assert_eq!(r.to_string(), "repair_rate:city>0.25");
        let list = AlertRule::parse_list("drift>0.5, repair_rate:city>0.25").unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[1], r);
        assert!(AlertRule::parse_list("drift>0.5,bogus>0.5").is_err());
    }

    #[test]
    fn windows_seal_on_row_count_with_logical_clock() {
        let m = QualityMonitor::new(QualityConfig::with_window(2), names(1));
        feed(&m, &[&[1], &[1], &[1], &[1], &[1]]);
        // Lazy sealing: rows 0-1 sealed when row 2 arrived, rows 2-3 when
        // row 4 arrived; row 4 still in progress.
        assert_eq!(m.windows_sealed(), 2);
        let windows = m.summaries();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].index, 0);
        assert_eq!(windows[1].index, 1);
        assert_eq!(windows[0].rows, 2);
        m.flush();
        assert_eq!(m.windows_sealed(), 3);
        assert_eq!(m.summaries()[2].rows, 1);
        // Flushing an empty window is a no-op.
        m.flush();
        assert_eq!(m.windows_sealed(), 3);
    }

    #[test]
    fn repair_rate_counts_cells_per_attribute() {
        let m = QualityMonitor::new(QualityConfig::with_window(4), names(2));
        for _ in 0..4 {
            m.row_observed(&[1, 2]);
        }
        m.cell_repaired(fix(1, 2, 9));
        m.cell_repaired(fix(1, 2, 9));
        m.flush();
        let w = &m.summaries()[0];
        assert_eq!(w.attrs[0].repaired, 0);
        assert_eq!(w.attrs[1].repaired, 2);
        assert_eq!(w.attrs[1].repair_rate_permille, 500);
    }

    #[test]
    fn drift_zero_on_identical_windows_and_high_on_disjoint() {
        let m = QualityMonitor::new(QualityConfig::with_window(4), names(1));
        for _ in 0..2 {
            feed(&m, &[&[1], &[2], &[3], &[4]]);
        }
        // Third window: disjoint values.
        feed(&m, &[&[101], &[102], &[103], &[104]]);
        m.flush();
        let w = m.summaries();
        assert_eq!(
            w[0].attrs[0].drift_permille, 0,
            "first window has no baseline"
        );
        assert_eq!(w[1].attrs[0].drift_permille, 0, "identical windows");
        assert!(
            w[2].attrs[0].drift_permille > 800,
            "disjoint windows drift ~1.0, got {}",
            w[2].attrs[0].drift_permille
        );
    }

    #[test]
    fn new_value_ratio_is_zero_for_first_window_then_tracks_novelty() {
        let m = QualityMonitor::new(QualityConfig::with_window(2), names(1));
        feed(&m, &[&[1], &[2]]); // window 0: everything novel, reported 0
        feed(&m, &[&[1], &[7]]); // window 1: one seen, one new
        m.flush();
        let w = m.summaries();
        assert_eq!(w[0].attrs[0].new_ratio_permille, 0);
        assert_eq!(w[0].attrs[0].new_values, 0);
        assert_eq!(w[1].attrs[0].new_values, 1);
        assert_eq!(w[1].attrs[0].new_ratio_permille, 500);
    }

    #[test]
    fn alerts_fire_emit_metrics_and_stay_active_until_next_seal() {
        let registry = MetricsRegistry::new();
        let cfg = QualityConfig {
            window_rows: 2,
            alerts: vec![AlertRule::parse("drift>0.5").unwrap()],
            ..QualityConfig::default()
        };
        let m = QualityMonitor::new(cfg, names(1)).with_registry(&registry);
        feed(&m, &[&[1], &[1]]);
        feed(&m, &[&[9], &[9]]); // disjoint → drift 1.0 at seal
        m.flush();
        let active = m.active_alerts();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].signal, Signal::Drift);
        assert_eq!(active[0].attr, "a0");
        assert_eq!(active[0].window, 1);
        let snap = registry.snapshot();
        let counters = snap.get("counters").unwrap();
        assert_eq!(
            counters
                .get("quality.alert{attr=\"a0\",signal=\"drift\"}")
                .unwrap()
                .as_i64(),
            Some(1)
        );
        assert_eq!(counters.get("quality.windows").unwrap().as_i64(), Some(2));
        let drift = snap
            .get("gauges")
            .unwrap()
            .get("quality.drift{attr=\"a0\"}")
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(drift, 1000);
        // A calm window clears the active set.
        feed(&m, &[&[9], &[9]]);
        m.flush();
        assert!(m.active_alerts().is_empty());
    }

    #[test]
    fn attr_scoped_alert_only_fires_on_that_attribute() {
        let cfg = QualityConfig {
            window_rows: 2,
            alerts: vec![AlertRule::parse("repair_rate:a1>0.4").unwrap()],
            ..QualityConfig::default()
        };
        let m = QualityMonitor::new(cfg, names(2));
        feed(&m, &[&[1, 1], &[1, 1]]);
        m.cell_repaired(fix(0, 1, 2)); // attr a0 repaired heavily
        m.cell_repaired(fix(0, 1, 2));
        m.flush();
        assert!(m.active_alerts().is_empty(), "rule scoped to a1");
        feed(&m, &[&[1, 1], &[1, 1]]);
        m.cell_repaired(fix(1, 1, 2));
        m.cell_repaired(fix(1, 1, 2));
        m.flush();
        let active = m.active_alerts();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].attr, "a1");
    }

    #[test]
    fn snapshot_and_table_are_byte_deterministic() {
        let run = || {
            let cfg = QualityConfig {
                window_rows: 3,
                alerts: vec![AlertRule::parse("new_ratio>0.3").unwrap()],
                ..QualityConfig::default()
            };
            let m = QualityMonitor::new(cfg, vec!["zip".into(), "city".into()]);
            for i in 0..10u32 {
                m.row_observed(&[i % 4, i % 3]);
                if i % 5 == 0 {
                    m.cell_repaired(fix(1, i % 3, 99));
                }
            }
            m.flush();
            (m.snapshot().to_string_pretty(), m.render_table())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn render_snapshot_round_trips_the_window_table() {
        let cfg = QualityConfig {
            window_rows: 2,
            alerts: vec![AlertRule::parse("repair_rate>0.4").unwrap()],
            ..QualityConfig::default()
        };
        let m = QualityMonitor::new(cfg, names(2));
        for i in 0..6u32 {
            m.row_observed(&[i % 2, i]);
            m.cell_repaired(fix(0, i % 2, 77));
        }
        m.flush();
        let snapshot = m.snapshot();
        // A fetched snapshot renders the same table the live monitor
        // prints, prefixed by the one-line header and active alerts.
        let rendered = render_snapshot(&snapshot, None).unwrap();
        assert!(rendered.starts_with("quality: clock 3 window_rows 2"));
        assert!(rendered.contains(&m.render_table()));
        assert!(rendered.contains("active alert: attr a0 signal repair_rate"));
        // `last` keeps only the newest windows.
        let tail = render_snapshot(&snapshot, Some(1)).unwrap();
        assert!(!tail.contains("\n     0  "), "window 0 must be dropped");
        assert!(tail.contains("\n     2  "), "newest window kept: {tail}");
        // The disabled marker from fixd renders as a plain notice.
        let off = Json::obj([("enabled", Json::from(false))]);
        assert_eq!(
            render_snapshot(&off, None).unwrap(),
            "quality: monitoring disabled\n"
        );
    }

    #[test]
    fn history_is_bounded() {
        let cfg = QualityConfig {
            window_rows: 1,
            history: 3,
            ..QualityConfig::default()
        };
        let m = QualityMonitor::new(cfg, names(1));
        for i in 0..10u32 {
            m.row_observed(&[i]);
        }
        m.flush();
        let w = m.summaries();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].index, 7, "oldest retained window");
        assert_eq!(w[2].index, 9);
    }

    #[test]
    fn value_keys_depend_on_the_text_alone() {
        let owned = String::from("Beijing");
        assert_eq!(value_key("Beijing"), value_key(&owned));
        assert_ne!(value_key("Beijing"), value_key("Shanghai"));
        assert_ne!(value_key(""), value_key(" "));
    }
}
