//! Streaming sketches: fixed-memory summaries of value streams.
//!
//! Three std-only, deterministic, mergeable summaries back the repair
//! quality monitor in [`crate::quality`]:
//!
//! * [`CountMinSketch`] — per-value frequency estimates with one-sided
//!   error (never underestimates; an estimate of zero means the value was
//!   definitely never seen). Cells are signed so a caller can *subtract*
//!   (the sketch is linear), which is how post-repair distributions are
//!   derived from pre-repair ones plus cell deltas.
//! * [`DistinctCounter`] — register-based approximate distinct count
//!   (HyperLogLog-style: each key updates the max trailing-zero rank of
//!   one of `m` registers, so insertion order never matters).
//! * [`Reservoir`] — a bounded uniform sample driven by a seeded
//!   [`splitmix64`] generator, so two identical streams sample
//!   identically.
//!
//! All three serialize through [`crate::json`] with sorted keys, making
//! snapshots byte-deterministic. Hashing is [`splitmix64`] with
//! compile-time seeds — no `RandomState`, no process entropy.

use crate::json::Json;

/// The 64-bit finalizer from the splitmix64 generator: a fast, high
/// quality, *fixed* mixer (no per-process seeding, unlike std's
/// `RandomState`), which is what keeps every sketch deterministic.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The flat cell index for hash row `row` of a pre-mixed key hash:
/// double hashing (`h1 + row·h2`, `h2` forced odd) derives every row
/// from one mix, and multiply-shift maps it onto `width` without a
/// division. Shared by [`CountMinSketch`] and [`SlotBloom`] so the two
/// address identical coordinates for the same key.
#[inline]
fn slot_of(width: usize, h: u64, row: usize) -> usize {
    let h1 = h as u32;
    let h2 = ((h >> 32) as u32) | 1;
    let idx = h1.wrapping_add((row as u32).wrapping_mul(h2));
    row * width + ((u64::from(idx) * width as u64) >> 32) as usize
}

/// Count–min sketch over `u32` keys (interned symbol ids) with signed
/// cells.
///
/// `depth` independent hash rows of `width` cells each; an update adds the
/// delta to one cell per row, a point query takes the minimum over rows.
/// With non-negative updates the estimate never underestimates the true
/// count, and `estimate == 0` proves the key was never added — the
/// property [`crate::quality`] uses for its new-value signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    /// 32-bit cells: counts here are window- and stream-scale (per-key
    /// saturation at `i32::MAX` is out of scope for repair telemetry),
    /// and halving the cell size halves the cache traffic of both the
    /// per-row probe path and the per-seal merge/drift/clear passes.
    cells: Vec<i32>,
}

impl CountMinSketch {
    /// Create a sketch with `depth` hash rows of `width` cells.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0, "sketch dimensions must be nonzero");
        CountMinSketch {
            width,
            depth,
            cells: vec![0; width * depth],
        }
    }

    /// Cells per hash row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of hash rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The per-key hash all rows derive from. Exposed so a hot loop
    /// touching several same-shaped sketches with one key (the quality
    /// monitor's per-row path) can mix once and reuse the result via the
    /// `*_hashed` methods.
    #[inline]
    pub fn hash_key(key: u32) -> u64 {
        splitmix64(u64::from(key))
    }

    /// Row `row`'s cell index for a pre-mixed key hash.
    #[inline]
    fn row_slot(&self, h: u64, row: usize) -> usize {
        slot_of(self.width, h, row)
    }

    /// Add `delta` to `key`'s count (negative deltas allowed — the sketch
    /// is a linear transform of the frequency vector).
    #[inline]
    pub fn add(&mut self, key: u32, delta: i64) {
        self.add_hashed(Self::hash_key(key), delta);
    }

    /// Reset every cell to zero, keeping the allocation. Window sealing
    /// rotates sketch buffers in place instead of reallocating them.
    pub fn clear(&mut self) {
        self.cells.fill(0);
    }

    /// [`CountMinSketch::add`] with the key hash precomputed by
    /// [`CountMinSketch::hash_key`].
    #[inline]
    pub fn add_hashed(&mut self, h: u64, delta: i64) {
        for row in 0..self.depth {
            let slot = self.row_slot(h, row);
            self.cells[slot] = self.cells[slot].saturating_add(delta as i32);
        }
    }

    /// Point estimate for `key`: minimum over rows. With non-negative
    /// updates this never underestimates, and zero means "never seen".
    #[inline]
    pub fn estimate(&self, key: u32) -> i64 {
        self.estimate_hashed(Self::hash_key(key))
    }

    /// [`CountMinSketch::estimate`] with the key hash precomputed by
    /// [`CountMinSketch::hash_key`].
    #[inline]
    pub fn estimate_hashed(&self, h: u64) -> i64 {
        (0..self.depth)
            .map(|row| i64::from(self.cells[self.row_slot(h, row)]))
            .min()
            .unwrap_or(0)
    }

    /// Fused hot-path update: add `delta` for a pre-hashed key while
    /// testing the same key's membership in `seen` (same dimensions
    /// required). Slots are computed once and shared — this is the
    /// quality monitor's per-(row, attribute) fast path, where the
    /// new-value probe against the cumulative bloom oracle and the
    /// pre-window count update always target identical coordinates.
    /// Returns `true` when the key is definitely absent from `seen`.
    #[inline]
    pub fn add_hashed_with_probe(&mut self, seen: &SlotBloom, h: u64, delta: i64) -> bool {
        debug_assert_eq!(
            (self.width, self.depth),
            (seen.width, seen.depth),
            "cannot combine a count-min sketch and filter of different dimensions"
        );
        // `depth` is almost always the default 2; an explicit two-slot
        // body lets the compiler schedule both independent cell updates
        // together instead of keeping a loop with a runtime trip count.
        if self.depth == 2 {
            let (s0, s1) = (self.row_slot(h, 0), self.row_slot(h, 1));
            self.cells[s0] = self.cells[s0].saturating_add(delta as i32);
            self.cells[s1] = self.cells[s1].saturating_add(delta as i32);
            (seen.words[s0 >> 6] & (1 << (s0 & 63)) == 0)
                | (seen.words[s1 >> 6] & (1 << (s1 & 63)) == 0)
        } else {
            let mut missing = false;
            for row in 0..self.depth {
                let slot = self.row_slot(h, row);
                self.cells[slot] = self.cells[slot].saturating_add(delta as i32);
                missing |= seen.words[slot >> 6] & (1 << (slot & 63)) == 0;
            }
            missing
        }
    }

    /// Total weight added (sum of one hash row; every row sums to the
    /// same total).
    pub fn total(&self) -> i64 {
        self.cells[..self.width].iter().map(|&v| i64::from(v)).sum()
    }

    /// Merge `other` into `self` cell-wise. Both sketches must have the
    /// same dimensions (they hash identically, so merged estimates equal
    /// estimates over the concatenated streams).
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert_eq!(
            (self.width, self.depth),
            (other.width, other.depth),
            "cannot merge count-min sketches of different dimensions"
        );
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a = a.saturating_add(*b);
        }
    }

    /// L1-style distance between two same-shaped sketches: for each hash
    /// row, sum the absolute cell differences; return the maximum over
    /// rows. Collisions only ever *cancel* differences, so every row is a
    /// lower bound on the true L1 distance between the underlying
    /// frequency vectors and the max is the tightest of them. The result
    /// is bounded by `self.total() + other.total()` for non-negative
    /// sketches, which is how [`crate::quality`] normalizes drift to
    /// `[0, 1]`.
    pub fn l1_distance(&self, other: &CountMinSketch) -> u64 {
        assert_eq!(
            (self.width, self.depth),
            (other.width, other.depth),
            "cannot compare count-min sketches of different dimensions"
        );
        self.cells
            .chunks_exact(self.width)
            .zip(other.cells.chunks_exact(self.width))
            .map(|(a, b)| {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| u64::from(x.abs_diff(*y)))
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Sparse JSON encoding: dimensions plus `[flat_index, value]` pairs
    /// for nonzero cells, in index order (byte-deterministic).
    pub fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0)
            .map(|(i, v)| Json::Arr(vec![Json::Int(i as i64), Json::Int(i64::from(*v))]))
            .collect();
        Json::obj([
            ("cells", Json::Arr(cells)),
            ("depth", Json::Int(self.depth as i64)),
            ("width", Json::Int(self.width as i64)),
        ])
    }

    /// Inverse of [`CountMinSketch::to_json`].
    pub fn from_json(json: &Json) -> Option<Self> {
        let width = json.get("width")?.as_i64()? as usize;
        let depth = json.get("depth")?.as_i64()? as usize;
        if width == 0 || depth == 0 {
            return None;
        }
        let mut sketch = CountMinSketch::new(width, depth);
        for pair in json.get("cells")?.as_arr()? {
            let pair = pair.as_arr()?;
            let idx = pair.first()?.as_i64()? as usize;
            if idx >= sketch.cells.len() {
                return None;
            }
            let value = pair.get(1)?.as_i64()?;
            sketch.cells[idx] = i32::try_from(value).ok()?;
        }
        Some(sketch)
    }
}

/// Membership companion to [`CountMinSketch`]: one bit per cell, over
/// the *same* double-hashed slot discipline.
///
/// A key "is contained" when every one of its `depth` slot bits is set —
/// exactly when a count–min sketch holding the same insertions would
/// give a nonzero estimate (same slots, zero vs nonzero per cell), so a
/// bloom probe answers "was this key ever added?" with identical
/// false-positive behavior at 1/32 the memory of 32-bit cells. The
/// quality monitor's cumulative "seen before" oracle only ever asks that
/// zero-vs-nonzero question, which keeps the whole oracle cache-resident
/// on the per-row hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotBloom {
    width: usize,
    depth: usize,
    words: Vec<u64>,
}

impl SlotBloom {
    /// Create a filter with `depth` hash rows of `width` bits each.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0, "filter dimensions must be nonzero");
        SlotBloom {
            width,
            depth,
            words: vec![0; (width * depth).div_ceil(64)],
        }
    }

    /// Bits per hash row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of hash rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Reset every bit, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Insert a key by pre-mixed hash (see [`CountMinSketch::hash_key`]).
    #[inline]
    pub fn insert_hashed(&mut self, h: u64) {
        for row in 0..self.depth {
            let slot = slot_of(self.width, h, row);
            self.words[slot >> 6] |= 1 << (slot & 63);
        }
    }

    /// Whether every slot bit for the pre-mixed hash is set. `false`
    /// proves the key was never inserted; `true` can be a collision with
    /// the same probability that the matching count–min estimate would
    /// be spuriously nonzero.
    #[inline]
    pub fn contains_hashed(&self, h: u64) -> bool {
        (0..self.depth).all(|row| {
            let slot = slot_of(self.width, h, row);
            self.words[slot >> 6] & (1 << (slot & 63)) != 0
        })
    }

    /// Set the slot bit for every nonzero cell of `counts` (same
    /// dimensions required): the seal-time "merge" that folds a window's
    /// count sketch into the cumulative membership oracle.
    pub fn absorb(&mut self, counts: &CountMinSketch) {
        assert_eq!(
            (self.width, self.depth),
            (counts.width, counts.depth),
            "cannot absorb a count-min sketch of different dimensions"
        );
        // Branchless, one output word per 64 cells: nonzero-ness has no
        // useful branch pattern mid-window, so a compare-and-pack beats
        // a predicated store.
        for (word, chunk) in self.words.iter_mut().zip(counts.cells.chunks(64)) {
            let mut bits = 0u64;
            for (i, cell) in chunk.iter().enumerate() {
                bits |= u64::from(*cell != 0) << i;
            }
            *word |= bits;
        }
    }
}

/// Register-based approximate distinct counter (HyperLogLog-style).
///
/// Each key hashes to one of `m` registers and a trailing-zero rank; the
/// register keeps the max rank seen. Registers depend only on the *set*
/// of inserted keys, so insertion order is irrelevant and merging is
/// register-wise max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctCounter {
    /// log2 of the register count.
    bits: u32,
    regs: Vec<u8>,
}

impl DistinctCounter {
    /// Create a counter with `2^bits` registers (`bits` in `4..=16`;
    /// 6 bits = 64 registers ≈ 13% standard error, plenty for
    /// per-window attribute cardinalities).
    pub fn new(bits: u32) -> Self {
        assert!((4..=16).contains(&bits), "register bits must be in 4..=16");
        DistinctCounter {
            bits,
            regs: vec![0; 1 << bits],
        }
    }

    /// Register count.
    pub fn registers(&self) -> usize {
        self.regs.len()
    }

    /// Reset every register, keeping the allocation.
    pub fn clear(&mut self) {
        self.regs.fill(0);
    }

    /// Observe `key`. Idempotent: re-inserting never changes the state.
    #[inline]
    pub fn insert(&mut self, key: u32) {
        self.insert_hashed(splitmix64(u64::from(key) ^ DISTINCT_SEED));
    }

    /// [`DistinctCounter::insert`] with a pre-mixed key hash. The caller
    /// owns the hashing discipline: the same key must always arrive as
    /// the same hash (idempotence), and hashes must be well-mixed. The
    /// quality monitor reuses [`CountMinSketch::hash_key`] here so each
    /// (row, attribute) pays for one mix, not two.
    #[inline]
    pub fn insert_hashed(&mut self, h: u64) {
        let idx = (h & ((1u64 << self.bits) - 1)) as usize;
        let rest = h >> self.bits;
        let rank = (rest.trailing_zeros() + 1).min(64 - self.bits) as u8;
        if rank > self.regs[idx] {
            self.regs[idx] = rank;
        }
    }

    /// Approximate number of distinct keys inserted, with the standard
    /// linear-counting correction for the small range.
    pub fn estimate(&self) -> f64 {
        let m = self.regs.len() as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        // 2^-r assembled directly from the exponent bits (bit-exact with
        // `2f64.powi(-r)`, without its multiply loop); ranks are capped at
        // `64 - bits` ≤ 60, so the exponent never leaves normal range.
        let sum: f64 = self
            .regs
            .iter()
            .map(|&r| f64::from_bits((1023 - u64::from(r)) << 52))
            .sum();
        let raw = alpha * m * m / sum;
        let zeros = self.regs.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// [`DistinctCounter::estimate`] rounded to an integer (the form
    /// reported in window summaries).
    pub fn estimate_u64(&self) -> u64 {
        self.estimate().round() as u64
    }

    /// Merge `other` into `self` (register-wise max); the result equals a
    /// counter fed the union of both key sets.
    pub fn merge(&mut self, other: &DistinctCounter) {
        assert_eq!(
            self.bits, other.bits,
            "cannot merge distinct counters of different register counts"
        );
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            *a = (*a).max(*b);
        }
    }

    /// Dense JSON encoding (registers are one byte each and the counter
    /// is small by construction).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bits", Json::Int(i64::from(self.bits))),
            (
                "regs",
                Json::Arr(self.regs.iter().map(|&r| Json::Int(i64::from(r))).collect()),
            ),
        ])
    }

    /// Inverse of [`DistinctCounter::to_json`].
    pub fn from_json(json: &Json) -> Option<Self> {
        let bits = json.get("bits")?.as_i64()? as u32;
        if !(4..=16).contains(&bits) {
            return None;
        }
        let regs = json.get("regs")?.as_arr()?;
        if regs.len() != 1 << bits {
            return None;
        }
        let mut counter = DistinctCounter::new(bits);
        for (slot, r) in counter.regs.iter_mut().zip(regs) {
            *slot = r.as_i64()? as u8;
        }
        Some(counter)
    }
}

// Domain-separation seeds: the distinct counter and the reservoir must
// not hash in the same stream as the count-min rows.
const DISTINCT_SEED: u64 = 0xd15c_0437_5eed_0001;
const RESERVOIR_SEED: u64 = 0x0bad_cafe_dead_beef;

/// Deterministic reservoir sample of `u32` keys (algorithm R with a
/// seeded [`splitmix64`] stream): every element of the stream ends up in
/// the sample with probability `cap / seen`, and two identical streams
/// produce identical samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    state: u64,
    items: Vec<u32>,
}

impl Reservoir {
    /// Create a reservoir holding at most `cap` items.
    pub fn new(cap: usize) -> Self {
        Reservoir {
            cap,
            seen: 0,
            state: RESERVOIR_SEED,
            items: Vec::with_capacity(cap),
        }
    }

    /// Reset to the empty, freshly-seeded state, keeping the
    /// allocation. A cleared reservoir samples exactly like a new one.
    pub fn clear(&mut self) {
        self.seen = 0;
        self.state = RESERVOIR_SEED;
        self.items.clear();
    }

    /// Stream length observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Current sample, in replacement order (not sorted).
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Current sample sorted ascending — the deterministic rendering used
    /// in snapshots.
    pub fn sorted_items(&self) -> Vec<u32> {
        let mut v = self.items.clone();
        v.sort_unstable();
        v
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Advance the sampling stream by one element and return the slot
    /// the element lands in (`None`: not sampled). The decision depends
    /// only on `(cap, seed, seen)` — never on the values — so parallel
    /// reservoirs that observe exactly one element per tick (e.g. one
    /// per attribute per row) can share a single decision stream and pay
    /// for one random draw per tick instead of one per reservoir, with
    /// byte-identical samples.
    #[inline]
    pub fn step(&mut self) -> Option<usize> {
        self.seen += 1;
        if self.cap == 0 {
            None
        } else if self.seen <= self.cap as u64 {
            Some((self.seen - 1) as usize)
        } else {
            // Multiply-shift range reduction (Lemire): a uniform draw
            // from `0..seen` without the hardware division `% seen`
            // costs on the per-row hot path.
            let j = ((u128::from(self.next_rand()) * u128::from(self.seen)) >> 64) as usize;
            (j < self.cap).then_some(j)
        }
    }

    /// Observe one stream element.
    #[inline]
    pub fn push(&mut self, value: u32) {
        if let Some(slot) = self.step() {
            if slot < self.items.len() {
                self.items[slot] = value;
            } else {
                self.items.push(value);
            }
        }
    }

    /// Fold `other`'s sample into `self` by replaying its sampled items
    /// (an order-dependent approximation of sampling the concatenated
    /// stream; exact whenever `other` is below capacity).
    pub fn merge(&mut self, other: &Reservoir) {
        let skipped = other.seen - other.items.len() as u64;
        for &v in &other.items {
            self.push(v);
        }
        self.seen += skipped;
    }

    /// JSON encoding: capacity, stream length, and the sorted sample.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cap", Json::Int(self.cap as i64)),
            (
                "items",
                Json::Arr(
                    self.sorted_items()
                        .into_iter()
                        .map(|v| Json::Int(i64::from(v)))
                        .collect(),
                ),
            ),
            ("seen", Json::Int(self.seen as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_min_exact_on_small_streams() {
        let mut cm = CountMinSketch::new(128, 4);
        for key in 0..10u32 {
            for _ in 0..=key {
                cm.add(key, 1);
            }
        }
        for key in 0..10u32 {
            assert_eq!(cm.estimate(key), i64::from(key) + 1);
        }
        assert_eq!(cm.estimate(999), 0, "unseen key must estimate zero");
        assert_eq!(cm.total(), 55);
    }

    #[test]
    fn count_min_never_underestimates() {
        let mut cm = CountMinSketch::new(16, 3);
        let mut truth = std::collections::HashMap::new();
        for i in 0..500u32 {
            let key = splitmix64(u64::from(i)) as u32 % 64;
            cm.add(key, 1);
            *truth.entry(key).or_insert(0i64) += 1;
        }
        for (key, count) in truth {
            assert!(cm.estimate(key) >= count);
        }
    }

    #[test]
    fn count_min_is_linear_under_subtraction() {
        let mut cm = CountMinSketch::new(64, 4);
        cm.add(7, 5);
        cm.add(7, -2);
        assert_eq!(cm.estimate(7), 3);
    }

    #[test]
    fn count_min_merge_equals_concatenated_stream() {
        let mut a = CountMinSketch::new(64, 4);
        let mut b = CountMinSketch::new(64, 4);
        let mut both = CountMinSketch::new(64, 4);
        for i in 0..100u32 {
            let (sketch, key) = if i % 2 == 0 {
                (&mut a, i)
            } else {
                (&mut b, i / 3)
            };
            sketch.add(key, 1);
            both.add(key, 1);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn slot_bloom_matches_count_min_zero_vs_nonzero() {
        // The bloom answers exactly the question "would a count-min
        // estimate over the same slots be nonzero?" — for every key,
        // inserted or not.
        let mut cm = CountMinSketch::new(64, 2);
        let mut bloom = SlotBloom::new(64, 2);
        for i in 0..40u32 {
            let key = i * 13;
            cm.add(key, 1);
            bloom.insert_hashed(CountMinSketch::hash_key(key));
        }
        for key in 0..600u32 {
            let h = CountMinSketch::hash_key(key);
            assert_eq!(
                bloom.contains_hashed(h),
                cm.estimate_hashed(h) != 0,
                "bloom and count-min disagree on key {key}"
            );
        }
    }

    #[test]
    fn slot_bloom_absorb_equals_inserting_the_sketch_keys() {
        let mut cm = CountMinSketch::new(64, 2);
        let mut direct = SlotBloom::new(64, 2);
        for key in [3u32, 99, 250, 251, 1000] {
            cm.add(key, 2);
            direct.insert_hashed(CountMinSketch::hash_key(key));
        }
        let mut absorbed = SlotBloom::new(64, 2);
        absorbed.absorb(&cm);
        assert_eq!(absorbed, direct);
        absorbed.clear();
        assert_eq!(absorbed, SlotBloom::new(64, 2));
    }

    #[test]
    fn l1_distance_zero_on_identical_and_maximal_on_disjoint() {
        let mut a = CountMinSketch::new(256, 4);
        let mut b = CountMinSketch::new(256, 4);
        for i in 0..50u32 {
            a.add(i, 1);
            b.add(i, 1);
        }
        assert_eq!(a.l1_distance(&b), 0);
        let mut c = CountMinSketch::new(256, 4);
        for i in 1000..1050u32 {
            c.add(i, 1);
        }
        let d = a.l1_distance(&c);
        assert!(d > 0 && d <= 100, "disjoint distance {d} bounded by totals");
    }

    #[test]
    fn count_min_json_round_trip() {
        let mut cm = CountMinSketch::new(32, 2);
        cm.add(3, 4);
        cm.add(17, 1);
        let json = cm.to_json();
        let back = CountMinSketch::from_json(&json).unwrap();
        assert_eq!(back, cm);
        // Serialization itself is byte-deterministic.
        assert_eq!(json.to_string(), cm.to_json().to_string());
    }

    #[test]
    fn distinct_counter_tracks_cardinality() {
        let mut dc = DistinctCounter::new(6);
        for i in 0..1000u32 {
            dc.insert(i);
        }
        let est = dc.estimate();
        assert!(
            (700.0..=1300.0).contains(&est),
            "estimate {est} too far from 1000"
        );
        // Idempotent: re-inserting the same keys changes nothing.
        let before = dc.clone();
        for i in 0..1000u32 {
            dc.insert(i);
        }
        assert_eq!(dc, before);
    }

    #[test]
    fn distinct_counter_small_range_is_tight() {
        let mut dc = DistinctCounter::new(6);
        for i in 0..8u32 {
            dc.insert(i);
        }
        let est = dc.estimate_u64();
        assert!((6..=10).contains(&est), "small-range estimate {est}");
    }

    #[test]
    fn distinct_counter_merge_is_union() {
        let mut a = DistinctCounter::new(6);
        let mut b = DistinctCounter::new(6);
        let mut union = DistinctCounter::new(6);
        for i in 0..300u32 {
            a.insert(i);
            union.insert(i);
        }
        for i in 200..500u32 {
            b.insert(i);
            union.insert(i);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn distinct_counter_json_round_trip() {
        let mut dc = DistinctCounter::new(4);
        for i in 0..20u32 {
            dc.insert(i * 7);
        }
        let back = DistinctCounter::from_json(&dc.to_json()).unwrap();
        assert_eq!(back, dc);
    }

    #[test]
    fn reservoir_exact_below_capacity_and_bounded_above() {
        let mut r = Reservoir::new(4);
        for v in [9u32, 7, 8] {
            r.push(v);
        }
        assert_eq!(r.sorted_items(), vec![7, 8, 9]);
        for v in 0..100u32 {
            r.push(v);
        }
        assert_eq!(r.items().len(), 4);
        assert_eq!(r.seen(), 103);
    }

    #[test]
    fn reservoir_is_deterministic() {
        let run = || {
            let mut r = Reservoir::new(8);
            for v in 0..1000u32 {
                r.push(v.wrapping_mul(2654435761) % 512);
            }
            r.sorted_items()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reservoir_merge_preserves_stream_length() {
        let mut a = Reservoir::new(4);
        let mut b = Reservoir::new(4);
        for v in 0..10u32 {
            a.push(v);
        }
        for v in 10..30u32 {
            b.push(v);
        }
        a.merge(&b);
        assert_eq!(a.seen(), 30);
        assert_eq!(a.items().len(), 4);
    }
}
