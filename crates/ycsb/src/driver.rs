//! Closed-loop and open-loop benchmark drivers.
//!
//! * **Closed loop** ([`run_closed_loop`]): each worker issues the next
//!   request as soon as the previous one completes — the throughput
//!   methodology of Figures 8 and 10.
//! * **Open loop** ([`run_open_loop`]): each worker issues requests on a
//!   fixed schedule (a target request frequency); latency is measured
//!   from the *scheduled* arrival time, so queueing delay is included.
//!   This is Figure 9's methodology ("we limit the frequency of each
//!   worker submitting their requests and analyze the latency").
//!
//! Both drivers run against any [`PersistentIndex`], use a deterministic
//! per-thread RNG seed, and report per-operation-class latency
//! [`Histogram`]s plus aggregate throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use index_common::{OpError, PersistentIndex};
use nvm::SplitMix64;

use crate::hist::Histogram;
use crate::keygen::KeyShape;
use crate::workload::{OpKind, WorkloadSpec};

/// Result of a driver run.
#[derive(Debug)]
pub struct LoopResult {
    /// Operations completed (all classes).
    pub ops: u64,
    /// Wall-clock time of the measurement.
    pub elapsed: Duration,
    /// Read (find) latencies, nanoseconds.
    pub read_lat: Histogram,
    /// Update latencies, nanoseconds.
    pub update_lat: Histogram,
    /// Latencies of all other operation classes.
    pub other_lat: Histogram,
    /// Operations that hit [`OpError::PoolExhausted`]. These *are* counted
    /// in `ops` — the worker records the failure and continues with the
    /// next sampled operation, so an exhausted shard degrades throughput
    /// honestly instead of skewing the operation mix (the alternative —
    /// resampling until a non-failing op comes up — would silently turn an
    /// insert-heavy workload read-heavy as the pool fills).
    pub pool_exhausted: u64,
}

impl LoopResult {
    /// Aggregate throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }
}

#[derive(Default)]
struct WorkerOut {
    ops: u64,
    pool_exhausted: u64,
    read: Histogram,
    update: Histogram,
    other: Histogram,
}

/// Issues one operation. Conditional-write failures (`AlreadyExists`,
/// `NotFound`) are expected workload noise and swallowed; resource
/// exhaustion is reported so the worker can record it (see
/// [`LoopResult::pool_exhausted`]).
fn execute(
    tree: &dyn PersistentIndex,
    kind: OpKind,
    key: u64,
    scan_len: usize,
    scan_buf: &mut Vec<(u64, u64)>,
    fresh: &AtomicU64,
) -> Result<(), OpError> {
    let r = match kind {
        OpKind::Read => {
            std::hint::black_box(tree.find(key));
            Ok(())
        }
        OpKind::Update => tree.upsert(key, key ^ 0x5555),
        OpKind::Insert => {
            let k = fresh.fetch_add(1, Ordering::Relaxed);
            tree.upsert(k, k)
        }
        OpKind::Remove => tree.remove(key),
        OpKind::Scan => {
            std::hint::black_box(tree.scan_n(key, scan_len.max(1), scan_buf));
            Ok(())
        }
    };
    match r {
        Err(OpError::PoolExhausted) => Err(OpError::PoolExhausted),
        _ => Ok(()),
    }
}

/// Byte-key twin of [`execute`]: renders the sampled id through `shape`
/// and drives the `*_k` operations. `UnsupportedKey` is impossible here
/// (every [`KeyShape`] renders ≤ 64 bytes), so the error contract matches
/// [`execute`] exactly.
fn execute_k(
    tree: &dyn PersistentIndex,
    kind: OpKind,
    shape: KeyShape,
    id: u64,
    scan_len: usize,
    scan_buf: &mut Vec<(index_common::KeyBuf, u64)>,
    fresh: &AtomicU64,
) -> Result<(), OpError> {
    let key = shape.render(id);
    let r = match kind {
        OpKind::Read => {
            std::hint::black_box(tree.find_k(key.as_slice()));
            Ok(())
        }
        OpKind::Update => tree.upsert_k(key.as_slice(), id ^ 0x5555),
        OpKind::Insert => {
            let k = shape.render(fresh.fetch_add(1, Ordering::Relaxed));
            tree.upsert_k(k.as_slice(), id)
        }
        OpKind::Remove => tree.remove_k(key.as_slice()),
        OpKind::Scan => {
            std::hint::black_box(tree.scan_k(key.as_slice(), scan_len.max(1), scan_buf));
            Ok(())
        }
    };
    match r {
        Err(OpError::PoolExhausted) => Err(OpError::PoolExhausted),
        _ => Ok(()),
    }
}

/// Closed-loop driver over **byte-string keys**: samples ids from the
/// spec's distribution exactly like [`run_closed_loop`], but renders each
/// through `shape` and issues the `*_k` operations. Same methodology,
/// same determinism contract, directly comparable throughput numbers.
pub fn run_closed_loop_k(
    tree: &Arc<dyn PersistentIndex>,
    spec: &WorkloadSpec,
    shape: KeyShape,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> LoopResult {
    assert!(threads > 0);
    let keygen = spec.build_keygen();
    let fresh = AtomicU64::new(spec.dist.n() + 1);
    let start = Instant::now();
    let deadline = start + duration;

    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let keygen = keygen.clone();
                let fresh = &fresh;
                let tree = Arc::clone(tree);
                scope.spawn(move || {
                    let tree = &*tree;
                    let mut rng = SplitMix64::new(seed ^ (tid as u64 + 1).wrapping_mul(0x9E3779B9));
                    let mut out = WorkerOut::default();
                    let mut scan_buf = Vec::new();
                    loop {
                        let t0 = Instant::now();
                        if t0 >= deadline {
                            break;
                        }
                        let kind = spec.mix.sample(&mut rng);
                        let id = keygen.next_key(&mut rng);
                        if execute_k(tree, kind, shape, id, spec.scan_len, &mut scan_buf, fresh)
                            .is_err()
                        {
                            out.pool_exhausted += 1;
                        }
                        let lat = t0.elapsed().as_nanos() as u64;
                        out.ops += 1;
                        match kind {
                            OpKind::Read => out.read.record(lat),
                            OpKind::Update => out.update.record(lat),
                            _ => out.other.record(lat),
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    merge(outs, start.elapsed())
}

/// Runs `threads` closed-loop workers for `duration`. Deterministic up to
/// thread scheduling for a given `seed`.
pub fn run_closed_loop(
    tree: &Arc<dyn PersistentIndex>,
    spec: &WorkloadSpec,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> LoopResult {
    assert!(threads > 0);
    let keygen = spec.build_keygen();
    let fresh = AtomicU64::new(spec.dist.n() + 1);
    let start = Instant::now();
    let deadline = start + duration;

    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let keygen = keygen.clone();
                let fresh = &fresh;
                let tree = Arc::clone(tree);
                scope.spawn(move || {
                    let tree = &*tree;
                    let mut rng = SplitMix64::new(seed ^ (tid as u64 + 1).wrapping_mul(0x9E3779B9));
                    let mut out = WorkerOut::default();
                    let mut scan_buf = Vec::new();
                    loop {
                        let t0 = Instant::now();
                        if t0 >= deadline {
                            break;
                        }
                        let kind = spec.mix.sample(&mut rng);
                        let key = keygen.next_key(&mut rng);
                        if execute(tree, kind, key, spec.scan_len, &mut scan_buf, fresh).is_err() {
                            out.pool_exhausted += 1;
                        }
                        let lat = t0.elapsed().as_nanos() as u64;
                        out.ops += 1;
                        match kind {
                            OpKind::Read => out.read.record(lat),
                            OpKind::Update => out.update.record(lat),
                            _ => out.other.record(lat),
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    merge(outs, start.elapsed())
}

/// Runs `threads` open-loop workers for `duration`, each issuing
/// `rate_per_worker` requests per second on a fixed schedule. Latency is
/// measured from the scheduled arrival, so it includes queueing delay
/// when the system cannot keep up.
pub fn run_open_loop(
    tree: &Arc<dyn PersistentIndex>,
    spec: &WorkloadSpec,
    threads: usize,
    rate_per_worker: f64,
    duration: Duration,
    seed: u64,
) -> LoopResult {
    assert!(threads > 0 && rate_per_worker > 0.0);
    let keygen = spec.build_keygen();
    let fresh = AtomicU64::new(spec.dist.n() + 1);
    let interval = Duration::from_secs_f64(1.0 / rate_per_worker);
    let start = Instant::now();
    let deadline = start + duration;

    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let keygen = keygen.clone();
                let fresh = &fresh;
                let tree = Arc::clone(tree);
                scope.spawn(move || {
                    let tree = &*tree;
                    let mut rng = SplitMix64::new(seed ^ (tid as u64 + 1).wrapping_mul(0x517C_C1B7));
                    let mut out = WorkerOut::default();
                    let mut scan_buf = Vec::new();
                    // Desynchronise workers' schedules.
                    let mut scheduled = start + interval.mul_f64(tid as f64 / threads as f64);
                    loop {
                        if scheduled >= deadline {
                            break;
                        }
                        // Wait for the scheduled arrival (sleep coarsely,
                        // then spin the last stretch).
                        loop {
                            let now = Instant::now();
                            if now >= scheduled {
                                break;
                            }
                            let left = scheduled - now;
                            if left > Duration::from_micros(200) {
                                std::thread::sleep(left - Duration::from_micros(100));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let kind = spec.mix.sample(&mut rng);
                        let key = keygen.next_key(&mut rng);
                        if execute(tree, kind, key, spec.scan_len, &mut scan_buf, fresh).is_err() {
                            out.pool_exhausted += 1;
                        }
                        let lat = (Instant::now() - scheduled).as_nanos() as u64;
                        out.ops += 1;
                        match kind {
                            OpKind::Read => out.read.record(lat),
                            OpKind::Update => out.update.record(lat),
                            _ => out.other.record(lat),
                        }
                        scheduled += interval;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    merge(outs, start.elapsed())
}

fn merge(outs: Vec<WorkerOut>, elapsed: Duration) -> LoopResult {
    let mut res = LoopResult {
        ops: 0,
        elapsed,
        read_lat: Histogram::new(),
        update_lat: Histogram::new(),
        other_lat: Histogram::new(),
        pool_exhausted: 0,
    };
    for o in outs {
        res.ops += o.ops;
        res.pool_exhausted += o.pool_exhausted;
        res.read_lat.merge(&o.read);
        res.update_lat.merge(&o.update);
        res.other_lat.merge(&o.other);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen::KeyDist;
    use index_common::{Key, OpError, TreeStats, Value};
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Minimal in-memory reference index for driver tests.
    struct MapIndex(Mutex<BTreeMap<Key, Value>>);

    impl MapIndex {
        fn new(n: u64) -> Self {
            MapIndex(Mutex::new((1..=n).map(|k| (k, k)).collect()))
        }
    }

    impl index_common::PersistentIndex for MapIndex {
        fn insert(&self, k: Key, v: Value) -> Result<(), OpError> {
            match self.0.lock().unwrap().entry(k) {
                std::collections::btree_map::Entry::Occupied(_) => Err(OpError::AlreadyExists),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v);
                    Ok(())
                }
            }
        }
        fn update(&self, k: Key, v: Value) -> Result<(), OpError> {
            self.0
                .lock()
                .unwrap()
                .get_mut(&k)
                .map(|x| *x = v)
                .ok_or(OpError::NotFound)
        }
        fn upsert(&self, k: Key, v: Value) -> Result<(), OpError> {
            self.0.lock().unwrap().insert(k, v);
            Ok(())
        }
        fn remove(&self, k: Key) -> Result<(), OpError> {
            self.0.lock().unwrap().remove(&k).map(|_| ()).ok_or(OpError::NotFound)
        }
        fn find(&self, k: Key) -> Option<Value> {
            self.0.lock().unwrap().get(&k).copied()
        }
        fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
            out.clear();
            out.extend(self.0.lock().unwrap().range(start..).take(n).map(|(k, v)| (*k, *v)));
            out.len()
        }
        fn name(&self) -> &'static str {
            "MapIndex"
        }
        fn supports_concurrency(&self) -> bool {
            true
        }
        fn stats(&self) -> TreeStats {
            TreeStats::default()
        }
    }

    fn arc(idx: MapIndex) -> Arc<dyn index_common::PersistentIndex> {
        Arc::new(idx)
    }

    #[test]
    fn closed_loop_reports_work() {
        let idx = arc(MapIndex::new(1_000));
        let spec = WorkloadSpec::ycsb_a(KeyDist::Uniform { n: 1_000 });
        let r = run_closed_loop(&idx, &spec, 2, Duration::from_millis(100), 42);
        assert!(r.ops > 100, "ops={}", r.ops);
        assert!(r.throughput() > 1_000.0);
        assert!(r.read_lat.count() > 0);
        assert!(r.update_lat.count() > 0);
        assert_eq!(r.other_lat.count(), 0, "YCSB-A has only reads/updates");
        assert_eq!(r.ops, r.read_lat.count() + r.update_lat.count());
        assert_eq!(r.pool_exhausted, 0);
    }

    #[test]
    fn open_loop_respects_schedule_roughly() {
        let idx = arc(MapIndex::new(100));
        let spec = WorkloadSpec::ycsb_c(KeyDist::Uniform { n: 100 });
        // 2 workers × 500 req/s × 0.3 s ≈ 300 ops.
        let r = run_open_loop(&idx, &spec, 2, 500.0, Duration::from_millis(300), 7);
        assert!(
            (200..=400).contains(&(r.ops as i64)),
            "open loop issued {} ops",
            r.ops
        );
        // An unloaded in-memory map must answer far faster than the
        // inter-arrival time.
        assert!(r.read_lat.quantile(0.5) < 1_000_000, "{:?}", r.read_lat);
    }

    #[test]
    fn scan_mix_exercises_scan_path() {
        let idx = arc(MapIndex::new(1_000));
        let spec = WorkloadSpec {
            mix: crate::Mix {
                read: 0,
                update: 0,
                insert: 0,
                remove: 0,
                scan: 1,
            },
            dist: KeyDist::Uniform { n: 1_000 },
            scan_len: 10,
        };
        let r = run_closed_loop(&idx, &spec, 1, Duration::from_millis(50), 1);
        assert!(r.other_lat.count() > 0);
    }

    #[test]
    fn deterministic_op_counts_are_stable_under_same_seed() {
        // Not a strict determinism test (time-based), but the same seed
        // must at least produce the same *kinds* of activity.
        let idx = arc(MapIndex::new(100));
        let spec = WorkloadSpec::read_intensive(KeyDist::Zipfian { n: 100, theta: 0.8 });
        let r = run_closed_loop(&idx, &spec, 1, Duration::from_millis(50), 3);
        let reads = r.read_lat.count() as f64;
        let updates = r.update_lat.count() as f64;
        assert!(reads > updates * 4.0, "90/10 mix skew lost: {reads}/{updates}");
    }
}
