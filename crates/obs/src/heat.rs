//! Structural heat attribution: a lock-free, fixed-capacity top-K
//! frequency sketch ([`HeatSketch`]) keyed by an opaque structure id
//! (leaf offset, cache set — whatever the feeding
//! layer uses to name the contended thing).
//!
//! The design is a striped space-saving/Misra-Gries hybrid: each of
//! [`HEAT_STRIPES`] stripes is a small open-addressed table of
//! `(key, count)` atomics. Recording probes a bounded window; a hit is
//! one relaxed `fetch_add`, an empty slot is claimed with one CAS, and a
//! full window *decays* the smallest resident counter (Misra-Gries
//! decrement) until a slot frees up for the new key. Evicted weight is
//! tracked per stripe, so every reported count carries an explicit
//! error bound: `count` may over-report a key by at most `err` (the
//! decayed weight that was credited to the slot's previous tenants).
//!
//! Guarantees, matching the classic space-saving analysis per stripe:
//! any key whose true weight exceeds the stripe's decayed weight is
//! resident, and reported counts are within `err` of truth. Heavy
//! hitters — the only thing a heatmap is for — therefore surface with
//! tight bounds while the long uniform tail churns through the decay
//! path.
//!
//! Cost model: disabled builds (`--no-default-features`) compile
//! [`HeatSketch::record`] to nothing. Enabled, the common case (key
//! already resident) is one hash, a ≤`PROBE_WINDOW`-slot scan of one
//! cache-padded stripe, and one relaxed `fetch_add` — no allocation, no
//! locks, safe from HTM fallback paths. Concurrent decay/claim races can
//! at worst misattribute a bounded amount of weight, which the per-slot
//! `err` word accounts for; they can never corrupt the table.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use crate::json::{Json, ToJson};

/// Stripes per sketch. Eight matches the histogram/event striping: one
/// stripe per recording thread in the common case, so the fast path
/// never false-shares.
pub const HEAT_STRIPES: usize = 8;

/// Slots probed per record before the decay path engages. Bounds the
/// hot-path scan; 8 slots is one cache line of keys.
const PROBE_WINDOW: usize = 8;

/// Default per-stripe slot count ([`HeatSketch::new`] with capacity 32
/// per stripe = 256 tracked keys total before decay starts).
const DEFAULT_STRIPE_SLOTS: usize = 32;

/// One `(key, count, err)` pair. `key` stores the user key + 1 so that
/// 0 can mean "empty" (keys of `u64::MAX` are rejected at record time).
struct HeatSlot {
    key: AtomicU64,
    count: AtomicU64,
    err: AtomicU64,
}

impl HeatSlot {
    fn empty() -> HeatSlot {
        HeatSlot { key: AtomicU64::new(0), count: AtomicU64::new(0), err: AtomicU64::new(0) }
    }
}

/// One stripe: a fixed open-addressed table plus the decayed-weight
/// tally that bounds its reporting error.
#[repr(align(64))]
struct HeatStripe {
    slots: Box<[HeatSlot]>,
    /// Total weight removed by Misra-Gries decay on this stripe: the
    /// upper bound on how much any one resident count over-reports.
    decayed: AtomicU64,
}

/// One reported entry of a heat table, sorted hottest-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeatEntry {
    /// The structure id (leaf offset, stripe index, cache set, …).
    pub key: u64,
    /// Estimated weight recorded against `key` (may over-report by at
    /// most `err`).
    pub count: u64,
    /// Error bound on `count` inherited from decayed prior tenants of
    /// the slot.
    pub err: u64,
}

impl ToJson for HeatEntry {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("key", Json::U64(self.key));
        o.set("count", Json::U64(self.count));
        o.set("err", Json::U64(self.err));
        o
    }
}

/// The lock-free striped top-K sketch. See the module docs for the
/// algorithm and cost model.
pub struct HeatSketch {
    stripes: Box<[HeatStripe]>,
    stripe_slots: usize,
}

impl Default for HeatSketch {
    fn default() -> Self {
        HeatSketch::new(DEFAULT_STRIPE_SLOTS * HEAT_STRIPES)
    }
}

impl std::fmt::Debug for HeatSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeatSketch")
            .field("capacity", &(self.stripe_slots * HEAT_STRIPES))
            .field("tracked", &self.snapshot().len())
            .finish()
    }
}

/// The calling thread's stripe (round-robin assignment, independent of
/// the histogram/event stripes).
#[cfg_attr(not(feature = "record"), allow(dead_code))]
#[inline]
fn my_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Relaxed) % HEAT_STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// Fibonacci hash, full-width mix (same multiplier as the fallback
/// stripe hash, used here only to spread slot indices).
#[cfg_attr(not(feature = "record"), allow(dead_code))]
#[inline]
fn mix(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl HeatSketch {
    /// A sketch tracking roughly `capacity` keys (rounded up to a
    /// multiple of [`HEAT_STRIPES`], minimum one probe window per
    /// stripe). All slots are allocated up front; the record path never
    /// allocates.
    pub fn new(capacity: usize) -> HeatSketch {
        let per_stripe = capacity.div_ceil(HEAT_STRIPES).max(PROBE_WINDOW);
        HeatSketch {
            stripes: (0..HEAT_STRIPES)
                .map(|_| HeatStripe {
                    slots: (0..per_stripe).map(|_| HeatSlot::empty()).collect(),
                    decayed: AtomicU64::new(0),
                })
                .collect(),
            stripe_slots: per_stripe,
        }
    }

    /// Total slot capacity across stripes.
    pub fn capacity(&self) -> usize {
        self.stripe_slots * HEAT_STRIPES
    }

    /// Records `weight` against `key` on the calling thread's stripe.
    /// Lock-free and allocation-free; compiled to nothing without the
    /// `record` feature. Keys of `u64::MAX` are ignored (the empty-slot
    /// sentinel encoding stores `key + 1`).
    #[inline]
    pub fn record(&self, key: u64, weight: u64) {
        #[cfg(feature = "record")]
        {
            if key == u64::MAX || weight == 0 {
                return;
            }
            self.record_on(&self.stripes[my_stripe()], key, weight);
        }
        #[cfg(not(feature = "record"))]
        let _ = (key, weight);
    }

    #[cfg(feature = "record")]
    fn record_on(&self, stripe: &HeatStripe, key: u64, weight: u64) {
        let enc = key + 1;
        let n = self.stripe_slots;
        let start = (mix(key) >> 32) as usize % n;
        // Pass 1: find the key, or claim the first empty slot seen.
        let window = PROBE_WINDOW.min(n);
        for i in 0..window {
            let slot = &stripe.slots[(start + i) % n];
            let cur = slot.key.load(Relaxed);
            if cur == enc {
                slot.count.fetch_add(weight, Relaxed);
                return;
            }
            if cur == 0 && slot.key.compare_exchange(0, enc, Relaxed, Relaxed).is_ok() {
                slot.count.fetch_add(weight, Relaxed);
                return;
            }
            // CAS lost: re-check whether the winner installed our key.
            if cur == 0 && slot.key.load(Relaxed) == enc {
                slot.count.fetch_add(weight, Relaxed);
                return;
            }
        }
        // Pass 2 (decay): the window is full of other keys. Decrement the
        // smallest resident counter by `weight` (Misra-Gries); if it hits
        // zero, take over the slot, inheriting its residue as our error
        // bound. A concurrent racer may decay the same slot — the weight
        // still lands in `decayed`, so the error accounting stays sound.
        let mut min_i = start % n;
        let mut min_c = u64::MAX;
        for i in 0..window {
            let idx = (start + i) % n;
            let c = stripe.slots[idx].count.load(Relaxed);
            if c < min_c {
                min_c = c;
                min_i = idx;
            }
        }
        let slot = &stripe.slots[min_i];
        let taken = weight.min(min_c);
        let left = slot
            .count
            .fetch_update(Relaxed, Relaxed, |c| Some(c.saturating_sub(weight)))
            .map(|prev| prev.saturating_sub(weight))
            .unwrap_or(0);
        stripe.decayed.fetch_add(taken, Relaxed);
        if left == 0 {
            // Evict: install our key with the *undecayed* remainder of our
            // weight; the old tenant's residue becomes the error bound.
            let residue = taken;
            slot.err.store(residue, Relaxed);
            slot.key.store(enc, Relaxed);
            slot.count.store(weight.saturating_sub(taken).max(1), Relaxed);
        }
    }

    /// Total weight removed by decay across stripes: the global error
    /// budget (any absent key's true weight is at most this).
    pub fn decayed(&self) -> u64 {
        self.stripes.iter().map(|s| s.decayed.load(Relaxed)).sum()
    }

    /// All resident entries merged across stripes (same key on two
    /// stripes sums counts and errors), unsorted. Quiescent-path read;
    /// concurrent records may be partially visible.
    pub fn snapshot(&self) -> Vec<HeatEntry> {
        let mut out: Vec<HeatEntry> = Vec::new();
        for stripe in self.stripes.iter() {
            for slot in stripe.slots.iter() {
                let enc = slot.key.load(Relaxed);
                if enc == 0 {
                    continue;
                }
                let e = HeatEntry {
                    key: enc - 1,
                    count: slot.count.load(Relaxed),
                    err: slot.err.load(Relaxed),
                };
                if e.count == 0 {
                    continue;
                }
                match out.iter_mut().find(|x| x.key == e.key) {
                    Some(x) => {
                        x.count += e.count;
                        x.err += e.err;
                    }
                    None => out.push(e),
                }
            }
        }
        out
    }

    /// The `k` hottest entries, sorted by descending count (ties broken
    /// by ascending key for deterministic output).
    pub fn top_k(&self, k: usize) -> Vec<HeatEntry> {
        let mut all = self.snapshot();
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        all.truncate(k);
        all
    }

    /// Folds `other`'s resident entries into `self` (summing counts for
    /// shared keys via the normal record path, which preserves the decay
    /// accounting). `map` rewrites each key before merging — shard
    /// composition tags keys with the shard index so per-shard structure
    /// ids stay distinguishable after the merge. Quiescent-path use.
    pub fn merge_from(&self, other: &HeatSketch, map: impl Fn(u64) -> u64) {
        #[cfg(feature = "record")]
        {
            for e in other.snapshot() {
                let key = map(e.key);
                // Deterministic stripe for merged keys (not the calling
                // thread's): merge order must not change which stripe a
                // key lands on, or associativity would be by accident.
                let stripe = &self.stripes[(mix(key) % HEAT_STRIPES as u64) as usize];
                self.record_on(stripe, key, e.count);
            }
        }
        #[cfg(not(feature = "record"))]
        let _ = (other, map);
    }

    /// Clears every stripe (quiescent use).
    pub fn reset(&self) {
        for stripe in self.stripes.iter() {
            for slot in stripe.slots.iter() {
                slot.key.store(0, Relaxed);
                slot.count.store(0, Relaxed);
                slot.err.store(0, Relaxed);
            }
            stripe.decayed.store(0, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn counts_and_ranks_exactly_below_capacity() {
        let h = HeatSketch::new(64);
        for (key, n) in [(7u64, 50u64), (9, 30), (11, 10)] {
            for _ in 0..n {
                h.record(key, 1);
            }
        }
        let top = h.top_k(3);
        assert_eq!(top.len(), 3);
        assert_eq!((top[0].key, top[0].count, top[0].err), (7, 50, 0));
        assert_eq!((top[1].key, top[1].count), (9, 30));
        assert_eq!((top[2].key, top[2].count), (11, 10));
        assert_eq!(h.decayed(), 0, "below capacity nothing decays");
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn heavy_hitter_survives_a_long_tail() {
        let h = HeatSketch::new(32);
        // One heavy key interleaved with a wide one-shot tail that
        // overflows every probe window many times over.
        for i in 0..4000u64 {
            h.record(1_000_000, 2);
            h.record(i * 64 + 5, 1);
        }
        let top = h.top_k(1);
        assert_eq!(top[0].key, 1_000_000, "heavy hitter must be rank 1");
        assert!(top[0].count > 4000, "heavy count must dominate: {top:?}");
        assert!(h.decayed() > 0, "the tail must have decayed");
    }

    #[test]
    fn disabled_or_sentinel_records_nothing_bad() {
        let h = HeatSketch::new(16);
        h.record(u64::MAX, 1); // sentinel key is ignored
        h.record(3, 0); // zero weight is ignored
        #[cfg(feature = "record")]
        assert!(h.snapshot().is_empty());
        #[cfg(not(feature = "record"))]
        {
            h.record(3, 5);
            assert!(h.snapshot().is_empty(), "compiled-out record must be a no-op");
        }
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn key_zero_is_representable() {
        let h = HeatSketch::new(16);
        h.record(0, 3);
        let top = h.top_k(1);
        assert_eq!((top[0].key, top[0].count), (0, 3));
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn concurrent_records_never_lose_the_hot_key() {
        let h = Arc::new(HeatSketch::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(42, 1); // shared hot key
                        h.record(1000 + t * 100 + (i % 8), 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let top = h.top_k(1);
        assert_eq!(top[0].key, 42);
        // Concurrency may misattribute bounded weight but the hot key's
        // count must stay within err of the true 20 000.
        assert!(top[0].count + top[0].err + h.decayed() >= 20_000);
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn reset_empties_the_table() {
        let h = HeatSketch::new(16);
        h.record(5, 5);
        h.reset();
        assert!(h.snapshot().is_empty());
        assert_eq!(h.decayed(), 0);
    }
}
