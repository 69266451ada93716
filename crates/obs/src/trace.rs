//! Sampled per-operation trace spans.
//!
//! A traced operation carries one [`OpSpan`]: descent depth and cache
//! hits, the HTM attempt count with the abort cause of each early
//! attempt, whether the fallback lock was taken, the persist count, and total plus per-phase nanoseconds. Spans are
//! sampled 1-in-2^k per thread (default [`DEFAULT_TRACE_SHIFT`]) and
//! pushed into a fixed-capacity striped [`TraceRing`] (newest wins),
//! which `repro trace-report` renders into a critical-path breakdown.
//!
//! ## How the layers feed a span without plumbing
//!
//! The active span lives in a thread-local; the instrumented index
//! wrapper opens it ([`span_begin`]) and closes it ([`span_finish`]).
//! In between, the htm / nvm / rntree layers call free `note_*`
//! functions at the events they own. Each note is a thread-local flag
//! check plus a branch when no span is active — and compiles to nothing
//! entirely without the `record` feature, like every other obs path.
//!
//! ## Always-on section marks
//!
//! Heat attribution needs *every* op's HTM abort/fallback outcome, not
//! just the sampled ones. [`section_mark`]/[`SectionMark::since`] expose
//! monotonic per-thread counters that the htm domain bumps on its
//! (rare) abort and fallback paths; the tree layer reads the delta
//! around its critical section and attributes it to the leaf it holds.
//! Cost on the common no-abort path: zero — the counters are only
//! written when an abort actually happens.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use crate::json::{Json, ToJson};
use crate::ops::OpType;

/// Default trace sampling shift: 1 op in 2^6 = 64. Coarser than latency
/// sampling (1-in-8) because a span write is ~10× a histogram bump.
pub const DEFAULT_TRACE_SHIFT: u32 = 6;

/// Abort causes recorded per early HTM attempt (codes match the
/// variants of the htm crate's taxonomy).
pub const TRACE_ABORT_CAUSES: usize = 4;

/// How many leading HTM attempts keep their individual abort cause
/// (later aborts still count in the per-cause totals).
pub const TRACE_ATTEMPT_LOG: usize = 8;

/// One sampled operation's trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// The operation type (index into `OpType::ALL`).
    pub op: OpType,
    /// Wall-clock nanoseconds of the whole operation.
    pub total_ns: u64,
    /// Per-phase nanoseconds (indexed by `Phase as usize`); zero for
    /// phases the op never entered or that phase sampling skipped.
    pub phase_ns: [u64; crate::ops::N_PHASES],
    /// Inner-index levels walked on the descent.
    pub descent_depth: u32,
    /// DRAM page-cache hits during the descent.
    pub cache_hits: u32,
    /// DRAM page-cache misses during the descent.
    pub cache_misses: u32,
    /// Optimistic HTM attempts started.
    pub htm_attempts: u32,
    /// Aborts by cause (conflict, capacity, explicit, flush).
    pub aborts_by_cause: [u32; TRACE_ABORT_CAUSES],
    /// Abort cause code + 1 of each of the first
    /// [`TRACE_ATTEMPT_LOG`] aborted attempts (0 = no abort recorded).
    pub abort_log: [u8; TRACE_ATTEMPT_LOG],
    /// Fallback taken: 0 = none, 2 = the domain's fallback lock. (1 was a
    /// striped fallback tier that no longer exists; the numbering is kept
    /// so span dumps stay comparable with earlier ones.)
    pub fallback_tier: u8,
    /// Persist (line flush + fence) instructions issued.
    pub persists: u32,
    /// Leaf offset the op landed on (0 when never noted).
    pub leaf: u64,
}

impl Default for OpSpan {
    /// A zeroed span (a `Search` that recorded nothing) — aggregation
    /// seed and test scaffold.
    fn default() -> OpSpan {
        OpSpan::new(OpType::Search)
    }
}

impl OpSpan {
    #[cfg_attr(not(feature = "record"), allow(dead_code))]
    fn new(op: OpType) -> OpSpan {
        OpSpan {
            op,
            total_ns: 0,
            phase_ns: [0; crate::ops::N_PHASES],
            descent_depth: 0,
            cache_hits: 0,
            cache_misses: 0,
            htm_attempts: 0,
            aborts_by_cause: [0; TRACE_ABORT_CAUSES],
            abort_log: [0; TRACE_ATTEMPT_LOG],
            fallback_tier: 0,
            persists: 0,
            leaf: 0,
        }
    }

    /// Total aborts across causes.
    pub fn total_aborts(&self) -> u32 {
        self.aborts_by_cause.iter().sum()
    }
}

impl ToJson for OpSpan {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("op", Json::Str(self.op.name().to_string()));
        o.set("total_ns", Json::U64(self.total_ns));
        let mut phases = Json::obj();
        for p in crate::ops::Phase::ALL {
            phases.set(p.name(), Json::U64(self.phase_ns[p as usize]));
        }
        o.set("phases_ns", phases);
        o.set("descent_depth", Json::U64(self.descent_depth as u64));
        o.set("cache_hits", Json::U64(self.cache_hits as u64));
        o.set("cache_misses", Json::U64(self.cache_misses as u64));
        o.set("htm_attempts", Json::U64(self.htm_attempts as u64));
        let mut aborts = Json::obj();
        for (i, name) in ["conflict", "capacity", "explicit", "flush"].iter().enumerate() {
            aborts.set(name, Json::U64(self.aborts_by_cause[i] as u64));
        }
        o.set("aborts", aborts);
        o.set(
            "abort_log",
            Json::Arr(
                self.abort_log
                    .iter()
                    .take_while(|&&c| c != 0)
                    .map(|&c| Json::U64((c - 1) as u64))
                    .collect(),
            ),
        );
        o.set("fallback_tier", Json::U64(self.fallback_tier as u64));
        o.set("persists", Json::U64(self.persists as u64));
        o.set("leaf", Json::U64(self.leaf));
        o
    }
}

// ------------------------------------------------------------- thread state

#[cfg_attr(not(feature = "record"), allow(dead_code))]
struct ActiveSpan {
    span: OpSpan,
    t0: Instant,
}

thread_local! {
    /// Fast "is anything traced" flag; checked first by every note hook.
    static TRACING: Cell<bool> = const { Cell::new(false) };
    static ACTIVE: Cell<Option<ActiveSpan>> = const { Cell::new(None) };
    /// Monotonic per-thread abort/fallback counters for section marks.
    static SECTION_ABORTS: Cell<u64> = const { Cell::new(0) };
    static SECTION_FALLBACK_SEQ: Cell<u64> = const { Cell::new(0) };
    /// Per-thread trace sampling counter.
    static TRACE_CTR: Cell<u64> = const { Cell::new(0) };
}

#[cfg_attr(not(feature = "record"), allow(dead_code))]
#[inline]
fn with_span(f: impl FnOnce(&mut OpSpan)) {
    ACTIVE.with(|a| {
        if let Some(mut act) = a.take() {
            f(&mut act.span);
            a.set(Some(act));
        }
    });
}

/// Opens a span for `op` if this op wins the 1-in-2^`shift` roll.
/// Returns whether a span was opened; callers pass that token to
/// [`span_finish`]. Nested begins are ignored (the outer span wins).
#[inline]
pub fn span_begin(op: OpType, shift: u32) -> bool {
    #[cfg(feature = "record")]
    {
        let roll = if shift == 0 {
            true
        } else {
            TRACE_CTR.with(|c| {
                let v = c.get().wrapping_add(1);
                c.set(v);
                v & ((1u64 << shift.min(63)) - 1) == 0
            })
        };
        if !roll || TRACING.with(|t| t.get()) {
            return false;
        }
        TRACING.with(|t| t.set(true));
        ACTIVE.with(|a| a.set(Some(ActiveSpan { span: OpSpan::new(op), t0: Instant::now() })));
        true
    }
    #[cfg(not(feature = "record"))]
    {
        let _ = (op, shift);
        false
    }
}

/// Closes the span opened by a [`span_begin`] that returned `true` and
/// pushes it into `ring`.
#[inline]
pub fn span_finish(ring: &TraceRing, began: bool) {
    #[cfg(feature = "record")]
    {
        if !began {
            return;
        }
        TRACING.with(|t| t.set(false));
        if let Some(mut act) = ACTIVE.with(|a| a.take()) {
            act.span.total_ns =
                u64::try_from(act.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ring.push(act.span);
        }
    }
    #[cfg(not(feature = "record"))]
    let _ = (ring, began);
}

/// True while the calling thread has an open span (note hooks fire).
#[inline]
pub fn span_active() -> bool {
    #[cfg(feature = "record")]
    {
        TRACING.with(|t| t.get())
    }
    #[cfg(not(feature = "record"))]
    false
}

// --------------------------------------------------------------- note hooks

/// Notes the inner-index descent: levels walked plus page-cache
/// hits/misses observed during it.
#[inline]
pub fn note_descent(depth: u32, cache_hits: u32, cache_misses: u32) {
    #[cfg(feature = "record")]
    {
        if !span_active() {
            return;
        }
        with_span(|s| {
            s.descent_depth = s.descent_depth.max(depth);
            s.cache_hits += cache_hits;
            s.cache_misses += cache_misses;
        });
    }
    #[cfg(not(feature = "record"))]
    let _ = (depth, cache_hits, cache_misses);
}

/// Notes one optimistic HTM attempt starting.
#[inline]
pub fn note_htm_attempt() {
    #[cfg(feature = "record")]
    {
        if !span_active() {
            return;
        }
        with_span(|s| s.htm_attempts = s.htm_attempts.saturating_add(1));
    }
}

/// Notes one HTM abort. `cause` is the taxonomy code (0 = conflict,
/// 1 = capacity, 2 = explicit, 3 = flush). Also bumps the always-on
/// section counters that heat attribution reads via [`section_mark`].
#[inline]
pub fn note_htm_abort(cause: u8) {
    #[cfg(feature = "record")]
    {
        SECTION_ABORTS.with(|c| c.set(c.get() + 1));
        if !span_active() {
            return;
        }
        with_span(|s| {
            let c = (cause as usize).min(TRACE_ABORT_CAUSES - 1);
            s.aborts_by_cause[c] = s.aborts_by_cause[c].saturating_add(1);
            if let Some(slot) = s.abort_log.iter_mut().find(|b| **b == 0) {
                *slot = cause + 1;
            }
        });
    }
    #[cfg(not(feature = "record"))]
    let _ = cause;
}

/// Notes a fallback-lock acquisition. Feeds both the active span and the
/// always-on section counters.
#[inline]
pub fn note_fallback() {
    #[cfg(feature = "record")]
    {
        SECTION_FALLBACK_SEQ.with(|c| c.set(c.get() + 1));
        if !span_active() {
            return;
        }
        with_span(|s| s.fallback_tier = 2);
    }
}

/// Notes `n` persist instructions issued.
#[inline]
pub fn note_persist(n: u32) {
    #[cfg(feature = "record")]
    {
        if !span_active() {
            return;
        }
        with_span(|s| s.persists = s.persists.saturating_add(n));
    }
    #[cfg(not(feature = "record"))]
    let _ = n;
}

/// Notes the leaf offset the op landed on.
#[inline]
pub fn note_leaf(off: u64) {
    #[cfg(feature = "record")]
    {
        if !span_active() {
            return;
        }
        with_span(|s| s.leaf = off);
    }
    #[cfg(not(feature = "record"))]
    let _ = off;
}

/// Notes a measured phase span (called by the phase timers, so traced
/// ops get a per-phase breakdown whenever phase sampling fires too).
#[inline]
pub fn note_phase(phase: crate::ops::Phase, ns: u64) {
    #[cfg(feature = "record")]
    {
        if !span_active() {
            return;
        }
        with_span(|s| s.phase_ns[phase as usize] = s.phase_ns[phase as usize].saturating_add(ns));
    }
    #[cfg(not(feature = "record"))]
    let _ = (phase, ns);
}

// ------------------------------------------------------------ section marks

/// A snapshot of the calling thread's monotonic abort/fallback
/// counters; see [`section_mark`].
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(not(feature = "record"), allow(dead_code))]
pub struct SectionMark {
    aborts: u64,
    fallbacks: u64,
}

/// The delta observed across a section by [`SectionMark::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionDelta {
    /// HTM aborts (any cause) suffered inside the section.
    pub aborts: u64,
    /// Fallback acquisitions inside the section.
    pub fallbacks: u64,
}

/// Marks the calling thread's section counters before an HTM section;
/// always available (zeros when compiled out) and free of atomics.
#[inline]
pub fn section_mark() -> SectionMark {
    #[cfg(feature = "record")]
    {
        SectionMark {
            aborts: SECTION_ABORTS.with(|c| c.get()),
            fallbacks: SECTION_FALLBACK_SEQ.with(|c| c.get()),
        }
    }
    #[cfg(not(feature = "record"))]
    SectionMark::default()
}

impl SectionMark {
    /// The aborts/fallbacks this thread suffered since the mark.
    #[inline]
    pub fn since(&self) -> SectionDelta {
        #[cfg(feature = "record")]
        {
            let aborts = SECTION_ABORTS.with(|c| c.get()) - self.aborts;
            let fallbacks = SECTION_FALLBACK_SEQ.with(|c| c.get()) - self.fallbacks;
            SectionDelta { aborts, fallbacks }
        }
        #[cfg(not(feature = "record"))]
        SectionDelta::default()
    }
}

// -------------------------------------------------------------- trace ring

/// Slots per trace stripe; 8 stripes × 256 spans keep the newest ≈2k
/// sampled ops.
const TRACE_SLOTS_PER_STRIPE: usize = 256;
const TRACE_STRIPES: usize = 8;

struct TraceStripe {
    slots: Box<[std::sync::Mutex<Option<OpSpan>>]>,
    head: AtomicUsize,
}

/// Fixed-capacity striped ring of sampled [`OpSpan`]s, newest-wins.
/// Pushes claim a slot with one `fetch_add` and take an uncontended
/// per-slot mutex (spans are 100+ bytes — too wide for atomics; the
/// mutex is private to one slot, held for a copy, and sampled pushes
/// are rare, so the hot path never blocks on it in practice).
pub struct TraceRing {
    stripes: Box<[TraceStripe]>,
    recorded: AtomicU64,
    shift: AtomicU32,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRing {
    /// An empty ring with the default sampling shift.
    pub fn new() -> TraceRing {
        TraceRing {
            stripes: (0..TRACE_STRIPES)
                .map(|_| TraceStripe {
                    slots: (0..TRACE_SLOTS_PER_STRIPE)
                        .map(|_| std::sync::Mutex::new(None))
                        .collect(),
                    head: AtomicUsize::new(0),
                })
                .collect(),
            recorded: AtomicU64::new(0),
            shift: AtomicU32::new(DEFAULT_TRACE_SHIFT),
        }
    }

    /// Shared handle with the default shift.
    pub fn shared() -> Arc<TraceRing> {
        Arc::new(TraceRing::new())
    }

    /// Sets the sampling rate to 1 op in 2^shift (0 = every op).
    pub fn set_sample_shift(&self, shift: u32) {
        self.shift.store(shift.min(32), Relaxed);
    }

    /// Current sampling shift.
    pub fn sample_shift(&self) -> u32 {
        self.shift.load(Relaxed)
    }

    /// Pushes a finished span (called by [`span_finish`]).
    #[cfg_attr(not(feature = "record"), allow(dead_code))]
    fn push(&self, span: OpSpan) {
        self.recorded.fetch_add(1, Relaxed);
        let stripe = &self.stripes[my_trace_stripe()];
        let idx = stripe.head.fetch_add(1, Relaxed) % TRACE_SLOTS_PER_STRIPE;
        if let Ok(mut slot) = stripe.slots[idx].lock() {
            *slot = Some(span);
        }
    }

    /// Spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Relaxed)
    }

    /// Spans overwritten by ring wrap (dropped from [`TraceRing::dump`]).
    pub fn dropped(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| {
                let head = s.head.load(Relaxed) as u64;
                head.saturating_sub(TRACE_SLOTS_PER_STRIPE as u64)
            })
            .sum()
    }

    /// All surviving spans (quiescent-path read, unordered).
    pub fn dump(&self) -> Vec<OpSpan> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            for slot in stripe.slots.iter() {
                if let Ok(s) = slot.lock() {
                    if let Some(span) = *s {
                        out.push(span);
                    }
                }
            }
        }
        out
    }

    /// Clears every slot (quiescent use).
    pub fn clear(&self) {
        for stripe in self.stripes.iter() {
            for slot in stripe.slots.iter() {
                if let Ok(mut s) = slot.lock() {
                    *s = None;
                }
            }
            stripe.head.store(0, Relaxed);
        }
        self.recorded.store(0, Relaxed);
    }
}

#[cfg_attr(not(feature = "record"), allow(dead_code))]
#[inline]
fn my_trace_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Relaxed) % TRACE_STRIPES;
    }
    STRIPE.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn span_collects_notes_and_lands_in_the_ring() {
        let ring = TraceRing::new();
        let began = span_begin(OpType::Insert, 0);
        assert!(began && span_active());
        note_descent(3, 2, 1);
        note_htm_attempt();
        note_htm_abort(0);
        note_htm_attempt();
        note_fallback();
        note_persist(2);
        note_leaf(4096);
        note_phase(crate::ops::Phase::Descent, 111);
        span_finish(&ring, began);
        assert!(!span_active());
        let spans = ring.dump();
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!(s.op, OpType::Insert);
        assert_eq!(s.descent_depth, 3);
        assert_eq!((s.cache_hits, s.cache_misses), (2, 1));
        assert_eq!(s.htm_attempts, 2);
        assert_eq!(s.aborts_by_cause[0], 1);
        assert_eq!(s.abort_log[0], 1);
        assert_eq!(s.fallback_tier, 2);
        assert_eq!(s.persists, 2);
        assert_eq!(s.leaf, 4096);
        assert_eq!(s.phase_ns[0], 111);
        assert!(s.total_ns > 0);
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn notes_outside_a_span_are_ignored() {
        note_descent(9, 9, 9);
        note_persist(9);
        let ring = TraceRing::new();
        let began = span_begin(OpType::Search, 0);
        span_finish(&ring, began);
        let s = ring.dump()[0];
        assert_eq!(s.descent_depth, 0);
        assert_eq!(s.persists, 0);
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn sampling_thins_spans() {
        let ring = TraceRing::new();
        let mut opened = 0;
        for _ in 0..256 {
            let b = span_begin(OpType::Search, 4); // 1 in 16
            if b {
                opened += 1;
            }
            span_finish(&ring, b);
        }
        assert_eq!(opened, 16);
        assert_eq!(ring.recorded(), 16);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn ring_overflow_counts_drops() {
        let ring = TraceRing::new();
        for _ in 0..(TRACE_SLOTS_PER_STRIPE + 40) {
            let b = span_begin(OpType::Search, 0);
            span_finish(&ring, b);
        }
        assert_eq!(ring.dump().len(), TRACE_SLOTS_PER_STRIPE);
        assert_eq!(ring.dropped(), 40);
        ring.clear();
        assert!(ring.dump().is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn section_marks_are_zero_without_aborts() {
        let m = section_mark();
        assert_eq!(m.since(), SectionDelta::default());
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn section_marks_count_aborts_and_fallbacks() {
        let m = section_mark();
        note_htm_abort(0);
        note_htm_abort(1);
        note_fallback();
        let d = m.since();
        assert_eq!(d.aborts, 2);
        assert_eq!(d.fallbacks, 1);
        // A later mark sees only what follows it.
        let m2 = section_mark();
        assert_eq!(m2.since(), SectionDelta::default());
    }

    #[test]
    #[cfg(not(feature = "record"))] // the compiled-out contract
    fn compiled_out_tracing_is_inert() {
        let ring = TraceRing::new();
        let b = span_begin(OpType::Insert, 0);
        assert!(!b);
        note_htm_abort(0);
        span_finish(&ring, b);
        assert!(ring.dump().is_empty());
        assert_eq!(section_mark().since(), SectionDelta::default());
    }
}
