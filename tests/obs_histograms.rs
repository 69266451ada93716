//! Correctness of the `obs` histogram layer from the outside: bucket
//! boundary precision, merge associativity/commutativity, quantile
//! monotonicity, and a multi-thread concurrent record/snapshot stress on
//! the striped [`obs::AtomicHistogram`].
//!
//! The unit tests inside `obs` pin the bucket math; these integration
//! tests pin the *contracts* downstream consumers rely on — the bench
//! harness merges per-thread histograms in arbitrary order and reads
//! quantiles off live trees while workers are still recording.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use obs::{AtomicHistogram, Histogram};

/// Deterministic xorshift so every run sees the same distribution.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[test]
fn bucket_floors_stay_within_advertised_precision() {
    // 64 majors × 16 minors: within a major bucket [2^m, 2^{m+1}) the
    // minor width is 2^{m-4}, i.e. at most 1/16 of the bucket floor —
    // every value lands at most floor/8 above its floor (6.25% of v for
    // v ≥ 32, where the minor subdivision is fully in effect).
    let mut probes: Vec<u64> = vec![32, 33, 47, 48, 63, 64, 65, 100, 1_000, 4_095, 4_096, 4_097];
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..2_000 {
        probes.push(32 + xorshift(&mut s) % 100_000_000);
    }
    for &v in &probes {
        let mut h = Histogram::new();
        h.record(v);
        let floor = h.quantile(1.0);
        assert!(floor <= v, "floor {floor} above sample {v}");
        assert!(
            v - floor <= v / 8,
            "sample {v} more than 12.5% above bucket floor {floor}"
        );
    }
    // Tiny values (< 16) are represented exactly.
    for v in 0..16u64 {
        let mut h = Histogram::new();
        h.record(v);
        assert_eq!(h.quantile(1.0), v, "tiny value {v} must be exact");
    }
}

/// Two histograms are indistinguishable to every consumer in the repo.
fn assert_same_distribution(a: &Histogram, b: &Histogram) {
    assert_eq!(a.count(), b.count());
    assert_eq!(a.sum(), b.sum());
    assert_eq!(a.min(), b.min());
    assert_eq!(a.max(), b.max());
    assert_eq!(a.quantiles(), b.quantiles());
    for i in 0..=1000 {
        let q = i as f64 / 1000.0;
        assert_eq!(a.quantile(q), b.quantile(q), "diverged at q={q}");
    }
}

#[test]
fn merge_is_associative_and_commutative() {
    // Three deliberately different shapes: uniform, heavy-tailed, point.
    let mut s = 42u64;
    let mut a = Histogram::new();
    for _ in 0..5_000 {
        a.record(xorshift(&mut s) % 10_000);
    }
    let mut b = Histogram::new();
    for _ in 0..3_000 {
        let r = xorshift(&mut s);
        b.record((r % 100) * (r % 100) * (r % 100));
    }
    let mut c = Histogram::new();
    for _ in 0..777 {
        c.record(123_456);
    }

    // (a ⊕ b) ⊕ c  ==  a ⊕ (b ⊕ c)
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_same_distribution(&left, &right);

    // c ⊕ b ⊕ a  ==  a ⊕ b ⊕ c
    let mut rev = c.clone();
    rev.merge(&b);
    rev.merge(&a);
    assert_same_distribution(&left, &rev);

    // Identity: merging an empty histogram changes nothing.
    let mut with_empty = left.clone();
    with_empty.merge(&Histogram::new());
    assert_same_distribution(&left, &with_empty);
}

#[test]
fn quantiles_are_monotone_in_q() {
    let mut h = Histogram::new();
    let mut s = 7u64;
    for _ in 0..20_000 {
        // Mixture: mostly small, occasional large outliers, like a real
        // latency profile with persist stalls.
        let r = xorshift(&mut s);
        let v = if r % 100 < 97 { 100 + r % 2_000 } else { 1_000_000 + r % 9_000_000 };
        h.record(v);
    }
    let mut last = 0;
    for i in 0..=1000 {
        let q = i as f64 / 1000.0;
        let v = h.quantile(q);
        assert!(v >= last, "quantile regressed at q={q}: {v} < {last}");
        last = v;
    }
    assert!(h.min() <= h.quantile(0.0));
    assert!(h.quantile(1.0) <= h.max());
    let qs = h.quantiles();
    assert!(qs.p50 <= qs.p90 && qs.p90 <= qs.p99 && qs.p99 <= qs.p999);
    assert!(qs.p999 <= qs.max);
}

#[test]
fn concurrent_recording_loses_nothing_and_snapshots_stay_sane() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 50_000;

    let hist = Arc::new(AtomicHistogram::new());
    let done = Arc::new(AtomicBool::new(false));
    // Set by the reader after its first snapshot. The recorders start only
    // then, so they cannot all finish before the reader has run.
    let reader_started = Arc::new(AtomicBool::new(false));

    // Reader thread: snapshots taken mid-flight must always be
    // internally consistent even though recorders are running.
    let reader = {
        let hist = Arc::clone(&hist);
        let done = Arc::clone(&done);
        let reader_started = Arc::clone(&reader_started);
        std::thread::spawn(move || {
            let mut last_count = 0;
            let mut iters = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = hist.snapshot();
                let n = snap.count();
                assert!(n >= last_count, "snapshot count went backwards");
                assert!(n <= THREADS * PER_THREAD, "snapshot overcounted: {n}");
                assert!(snap.quantile(0.5) <= snap.quantile(0.999));
                last_count = n;
                iters += 1;
                reader_started.store(true, Ordering::Release);
            }
            iters
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            let reader_started = Arc::clone(&reader_started);
            std::thread::spawn(move || {
                while !reader_started.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // Thread t records values in [t·10^6 + 32, t·10^6 + 32 + i):
                // disjoint ranges so the merged min/max are predictable.
                for i in 0..PER_THREAD {
                    hist.record(t * 1_000_000 + 32 + (i % 1_000));
                }
            })
        })
        .collect();

    for w in workers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let reader_iters = reader.join().unwrap();
    assert!(reader_iters > 0);

    // Quiescent snapshot: exact count, min/max at bucket precision.
    let snap = hist.snapshot();
    assert_eq!(snap.count(), THREADS * PER_THREAD, "samples were lost");
    assert!(snap.min() <= 32, "min {} above smallest sample", snap.min());
    let top = (THREADS - 1) * 1_000_000 + 32 + 999;
    assert!(snap.max() <= top, "max {} above largest sample {top}", snap.max());
    assert!(snap.max() >= top - top / 8, "max {} below largest sample's bucket", snap.max());
    // The mean is exact (sums are kept, not bucketised).
    let expected_sum: u128 = (0..THREADS)
        .map(|t| {
            (0..PER_THREAD).map(|i| (t * 1_000_000 + 32 + (i % 1_000)) as u128).sum::<u128>()
        })
        .sum();
    let expected_mean = expected_sum as f64 / (THREADS * PER_THREAD) as f64;
    let err = (snap.mean() - expected_mean).abs() / expected_mean;
    assert!(err < 1e-9, "mean drifted: {} vs {expected_mean}", snap.mean());
}

#[test]
fn atomic_reset_zeroes_everything() {
    let hist = AtomicHistogram::new();
    for v in 0..1_000u64 {
        hist.record(v);
    }
    assert_eq!(hist.snapshot().count(), 1_000);
    hist.reset();
    let snap = hist.snapshot();
    assert_eq!(snap.count(), 0);
    assert_eq!(snap.quantile(0.99), 0);
}
