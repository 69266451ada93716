//! One benchmark run: set-up, preconditioning, the fixed-work measured
//! phase, verification and recovery, and the metrics they give.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use index_common::{Key, OpError, PersistentIndex, Value};
use nvm::{PmemConfig, PmemPool};
use obs::Json;
use rntree::{RnConfig, RnTree, MAX_LIVE};

use crate::host::{self, CpuTicks, RefKernel};
use crate::model::Model;
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::{self, Class, OpSpan, PhaseSpan, Probe, ProbeSpan, ThreadTrace};
use crate::workload::{Op, OpStream, Workload, THREADS};

/// A probe (descent, find and scan of sampled keys) precedes every
/// `PROBE_EVERY`-th traced op.
const PROBE_EVERY: usize = 16;
/// Length of a probe scan.
const PROBE_SCAN_LEN: usize = 50;
/// Every `TRACE_SAMPLE`-th traced op has its spans written out.
const TRACE_SAMPLE: usize = 256;

/// Run options (the command line).
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured work in seconds' worth of the workload's nominal op count.
    pub seconds: u64,
    /// Traced run: report the per-layer ledger instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Multiplier on key and op counts (1.0 is the benchmark).
    pub scale: f64,
    /// Where a traced run writes its spans (`None`: not written).
    pub trace_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: u64,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output matched the model.
    pub correct: bool,
    /// Measured ops attempted.
    pub attempted: u64,
    /// Measured ops that failed (including `PoolExhausted`).
    pub failed: u64,
    /// The first verification failures.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or the per-layer ledger (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable context: host stamp, steady-state halves.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut o = Json::obj();
            o.set("value", Json::F64(m.value));
            o.set("unit", Json::Str(m.unit.into()));
            metrics.set(m.name, o);
        }
        let mut o = Json::obj();
        o.set("correct", Json::Bool(self.correct));
        o.set("attempted", Json::U64(self.attempted));
        o.set("failed", Json::U64(self.failed));
        o.set("metrics", metrics);
        o
    }
}

/// Counters read from the program's own stats at a boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Counters([u64; C_NAMES.len()]);

const C_NAMES: [&str; 15] = [
    "persists",
    "lines_flushed",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_read_restarts",
    "htm_attempts",
    "htm_commits",
    "htm_conflict_aborts",
    "htm_fallbacks",
    "descent_restarts",
    "descent_tm_fallbacks",
    "splits",
    "compactions",
    "retries",
];

#[derive(Clone, Copy)]
enum C {
    Persists,
    Lines,
    CacheHits,
    CacheMisses,
    CacheEvictions,
    CacheReadRestarts,
    HtmAttempts,
    HtmCommits,
    HtmConflictAborts,
    HtmFallbacks,
    DescentRestarts,
    DescentTmFallbacks,
    Splits,
    Compactions,
    Retries,
}

impl Counters {
    fn take(tree: &RnTree) -> Counters {
        let p = tree.pool().stats().snapshot();
        let c = tree.cache_stats().unwrap_or_default();
        let h = tree.htm_stats();
        let d = tree.descent_stats();
        let r = tree.rn_stats();
        Counters([
            p.persists,
            p.lines_flushed,
            c.hits,
            c.misses,
            c.evictions,
            c.read_restarts,
            h.attempts,
            h.commits,
            h.aborts_conflict,
            h.fallbacks,
            d.restarts,
            d.tm_fallbacks,
            r.splits,
            r.compactions,
            r.retries,
        ])
    }

    fn get(&self, c: C) -> f64 {
        self.0[c as usize] as f64
    }

    fn since(&self, earlier: &Counters) -> Counters {
        let mut d = *self;
        for (v, e) in d.0.iter_mut().zip(earlier.0) {
            *v = v.saturating_sub(e);
        }
        d
    }

    fn plus(&self, other: &Counters) -> Counters {
        let mut s = *self;
        for (v, o) in s.0.iter_mut().zip(other.0) {
            *v += o;
        }
        s
    }

    fn to_json(self) -> Json {
        let mut o = Json::obj();
        for (name, v) in C_NAMES.iter().zip(self.0) {
            o.set(name, Json::U64(v));
        }
        o
    }
}

/// Segments of the run, each a fixed op count per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    /// Untimed preconditioning with its own seed.
    Pre,
    /// Measured, untraced: per-op call latency only.
    Plain,
    /// Measured, traced: op spans and probes.
    Traced,
}

/// Measured segments per run. A recovery from the pool the segment left
/// follows each, so the recovery samples spread over the whole run rather
/// than one moment of it, and each is cold: it follows a workload segment,
/// not another recovery.
const MEASURED_SEGMENTS: usize = 12;

/// Tallies of one segment.
#[derive(Debug, Clone, Copy, Default)]
struct SegTally {
    ops: u64,
    writes: u64,
    failed: u64,
    probe_ns: u64,
}

impl SegTally {
    fn plus(self, o: SegTally) -> SegTally {
        SegTally {
            ops: self.ops + o.ops,
            writes: self.writes + o.writes,
            failed: self.failed + o.failed,
            probe_ns: self.probe_ns + o.probe_ns,
        }
    }
}

/// One finished segment.
struct SegRecord {
    seg: Seg,
    wall_s: f64,
    counters: Counters,
    tally: SegTally,
}

/// What the clients call during one segment.
struct Target<'a, I> {
    index: &'a I,
    tree: &'a RnTree,
    model: &'a Model,
    epoch: Instant,
}

impl<I> Target<'_, I> {
    fn since(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }
}

/// One client thread's state, kept across segments.
struct Client {
    scan_len: usize,
    pre: OpStream,
    measure: OpStream,
    probe: OpStream,
    buf: Vec<(Key, Value)>,
    lower: Vec<Value>,
    /// Call latencies of each untraced measured segment: reads, writes.
    latencies: Vec<[Vec<u32>; 2]>,
    trace: ThreadTrace,
    mismatches: u64,
    errors: Vec<String>,
}

fn ns32(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

impl Client {
    fn new(wl: &Workload, seed: u64, tid: usize, measured_ops: usize, traced: bool) -> Client {
        let len = PROBE_SCAN_LEN.max(wl.scan_len);
        let mut trace = ThreadTrace::default();
        if traced {
            trace.ops.reserve(measured_ops / 2);
            trace
                .probes
                .reserve(3 * (measured_ops / 2 / PROBE_EVERY + 1));
        }
        Client {
            scan_len: wl.scan_len,
            pre: OpStream::new(wl, seed, 1, tid),
            measure: OpStream::new(wl, seed, 2, tid),
            probe: OpStream::new(wl, seed, 3, tid),
            buf: Vec::with_capacity(len),
            lower: Vec::with_capacity(len),
            latencies: Vec::new(),
            trace,
            mismatches: 0,
            errors: Vec::new(),
        }
    }

    fn mismatch(&mut self, e: String) {
        self.mismatches += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// Issues `op` with its model bookkeeping and checks the result.
    /// Returns when the call started and how long it took.
    #[inline]
    fn exec<I: PersistentIndex>(
        &mut self,
        t: &Target<'_, I>,
        op: Op,
        tally: &mut SegTally,
        measured: bool,
    ) -> (Instant, u32) {
        let lower = match op {
            Op::Find(k) => t.model.lower(k),
            Op::Scan(k) => {
                t.model.scan_lower(k, self.scan_len, &mut self.lower);
                0
            }
            Op::Upsert(k, v) => {
                t.model.submit(k, v);
                0
            }
            Op::Insert(..) => 0,
        };
        let start = Instant::now();
        let (found, wrote) = match op {
            Op::Find(k) => (t.index.find(k), Ok(())),
            Op::Scan(k) => {
                t.index.scan_n(k, self.scan_len, &mut self.buf);
                (None, Ok(()))
            }
            Op::Upsert(k, v) => (None, t.index.upsert(k, v)),
            Op::Insert(k, v) => (None, t.index.insert(k, v)),
        };
        let ns = ns32(start.elapsed());
        tally.ops += 1;
        let check = match op {
            Op::Find(k) => t.model.check_find(k, lower, found),
            Op::Scan(k) => t.model.check_scan(k, self.scan_len, &self.lower, &self.buf),
            Op::Upsert(k, v) | Op::Insert(k, v) => {
                tally.writes += 1;
                match wrote {
                    Ok(()) if matches!(op, Op::Upsert(..)) => {
                        t.model.ack(k, v);
                        Ok(())
                    }
                    Ok(()) => Ok(()),
                    Err(e) => {
                        tally.failed += 1;
                        if matches!(op, Op::Insert(..)) {
                            t.model.insert_failed(k);
                        }
                        if e == OpError::PoolExhausted && measured {
                            Ok(())
                        } else {
                            Err(format!("{op:?} failed: {e}"))
                        }
                    }
                }
            }
        };
        if let Err(e) = check {
            self.mismatch(e);
        }
        (start, ns)
    }

    /// Times one probe of each kind on sampled keys: the descent alone
    /// (`leaf_of`), a `find` and a `scan_n`. Returns the probe's total time.
    fn probe<I: PersistentIndex>(&mut self, t: &Target<'_, I>) -> u64 {
        let op = self.trace.ops.len() as u32;
        let all = Instant::now();
        let k = self.probe.key();
        let start = Instant::now();
        std::hint::black_box(t.tree.leaf_of(k));
        let dur_ns = ns32(start.elapsed());
        self.trace.probes.push(ProbeSpan {
            op,
            probe: Probe::Descent,
            keys: 0,
            start_ns: t.since(start),
            dur_ns,
        });

        let k = self.probe.key();
        let lower = t.model.lower(k);
        let start = Instant::now();
        let got = t.index.find(k);
        let dur_ns = ns32(start.elapsed());
        self.trace.probes.push(ProbeSpan {
            op,
            probe: Probe::Find,
            keys: 1,
            start_ns: t.since(start),
            dur_ns,
        });
        if let Err(e) = t.model.check_find(k, lower, got) {
            self.mismatch(e);
        }

        let k = self.probe.key();
        t.model.scan_lower(k, PROBE_SCAN_LEN, &mut self.lower);
        let start = Instant::now();
        let keys = t.index.scan_n(k, PROBE_SCAN_LEN, &mut self.buf) as u32;
        let dur_ns = ns32(start.elapsed());
        self.trace.probes.push(ProbeSpan {
            op,
            probe: Probe::Scan,
            keys,
            start_ns: t.since(start),
            dur_ns,
        });
        if let Err(e) = t
            .model
            .check_scan(k, PROBE_SCAN_LEN, &self.lower, &self.buf)
        {
            self.mismatch(e);
        }
        all.elapsed().as_nanos() as u64
    }

    /// Allocates the segment's latency buffers before its clock starts.
    fn prepare(&mut self, seg: Seg, ops: u64, read_pct: u64) {
        if seg == Seg::Plain {
            let ops = ops as usize;
            self.latencies.push([
                Vec::with_capacity(ops),
                Vec::with_capacity(ops * (102 - read_pct as usize) / 100),
            ]);
        }
    }

    fn run<I: PersistentIndex>(&mut self, t: &Target<'_, I>, seg: Seg, ops: u64) -> SegTally {
        let mut tally = SegTally::default();
        for _ in 0..ops {
            match seg {
                Seg::Pre => {
                    let op = self.pre.next_op(t.model);
                    self.exec(t, op, &mut tally, false);
                }
                Seg::Plain => {
                    let op = self.measure.next_op(t.model);
                    let (_, ns) = self.exec(t, op, &mut tally, true);
                    let lat = self.latencies.last_mut().expect("latency buffers prepared");
                    lat[usize::from(op.is_write())].push(ns);
                }
                Seg::Traced => {
                    if self.trace.ops.len().is_multiple_of(PROBE_EVERY) {
                        tally.probe_ns += self.probe(t);
                    }
                    let gen = Instant::now();
                    let op = self.measure.next_op(t.model);
                    let (start, call_ns) = self.exec(t, op, &mut tally, true);
                    let class = match op {
                        Op::Find(_) => Class::Find,
                        Op::Scan(_) => Class::Scan,
                        Op::Upsert(..) => Class::Upsert,
                        Op::Insert(..) => Class::Insert,
                    };
                    let gen_ns = ns32(start.duration_since(gen));
                    self.trace.ops.push(OpSpan {
                        start_ns: t.since(gen),
                        gen_ns,
                        call_ns,
                        class,
                    });
                }
            }
        }
        tally
    }
}

/// Runs one segment on every client thread at once; returns when its clock
/// started and stopped, and the threads' summed tallies.
fn run_segment<I: PersistentIndex>(
    t: &Target<'_, I>,
    clients: &mut [Client],
    seg: Seg,
    ops: u64,
    read_pct: u64,
) -> (Instant, Instant, SegTally) {
    let barrier = Barrier::new(clients.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    c.prepare(seg, ops, read_pct);
                    barrier.wait();
                    c.run(t, seg, ops)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let tally = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .fold(SegTally::default(), SegTally::plus);
        (t0, Instant::now(), tally)
    })
}

/// Runs one workload through the index `wrap` builds around the tree (the
/// tree itself in the benchmark; a fault-planting wrapper in tests).
pub fn run<I, W>(opts: &Opts, wrap: W) -> Result<Report, String>
where
    I: PersistentIndex,
    W: Fn(Arc<RnTree>) -> I,
{
    let wl = Workload::by_name(&opts.workload, opts.scale)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let measured_ops = wl.ops_per_second * opts.seconds;
    let seg_ops = measured_ops / (MEASURED_SEGMENTS * THREADS) as u64;
    let epoch = Instant::now();
    let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let ticks0 = CpuTicks::now();
    let mut kernel = RefKernel::new();
    kernel.sample(3);

    // Set-up, timed `setups` times; the last tree is the one measured.
    let model = Model::new(wl.keys);
    let pairs = model.load_pairs();
    let cfg = RnConfig::default();
    let mut phases = Vec::new();
    let (mut setup_s, mut load_ns) = (Vec::new(), Vec::new());
    let mut tree = None;
    for _ in 0..wl.setups {
        drop(tree.take());
        let t0 = Instant::now();
        let pool = Arc::new(PmemPool::new(PmemConfig::for_benchmarks(
            wl.pool_bytes(measured_ops),
        )));
        let t = RnTree::create(pool, cfg);
        let tl = Instant::now();
        t.load_sorted(&pairs)
            .map_err(|e| format!("load_sorted: {e}"))?;
        let t1 = Instant::now();
        setup_s.push(secs(t1 - t0));
        load_ns.push((t1 - tl).as_nanos() as f64);
        phases.push(PhaseSpan {
            name: "load_sorted".into(),
            start_ns: at(tl),
            end_ns: at(t1),
            counters: Counters::take(&t).to_json(),
        });
        tree = Some(Arc::new(t));
    }
    drop(pairs);
    let mut tree = tree.expect("at least one set-up");

    // Preconditioning, then the measured segments, each followed by a
    // recovery from the pool it left and a full check of the result.
    let mut plan = vec![Seg::Pre];
    for i in 0..MEASURED_SEGMENTS {
        plan.push(if opts.trace && i % 2 == 1 {
            Seg::Traced
        } else {
            Seg::Plain
        });
    }
    let mut clients: Vec<Client> = (0..THREADS)
        .map(|tid| {
            Client::new(
                &wl,
                opts.seed,
                tid,
                (seg_ops * MEASURED_SEGMENTS as u64) as usize,
                opts.trace,
            )
        })
        .collect();
    let mut records = Vec::new();
    let (mut recover_ns, mut recover_ns_per_leaf) = (Vec::new(), Vec::new());
    let mut errors = Vec::new();
    for (i, &seg) in plan.iter().enumerate() {
        let index = wrap(Arc::clone(&tree));
        let before = Counters::take(&tree);
        let target = Target {
            index: &index,
            tree: &tree,
            model: &model,
            epoch,
        };
        let ops = if seg == Seg::Pre {
            wl.precondition_ops / THREADS as u64
        } else {
            seg_ops
        };
        let (t0, t1, tally) = run_segment(&target, &mut clients, seg, ops, wl.read_pct);
        let counters = Counters::take(&tree).since(&before);
        drop(index);
        let name = match seg {
            Seg::Pre => "precondition".to_string(),
            Seg::Plain => format!("measured.{i}.untraced"),
            Seg::Traced => format!("measured.{i}.traced"),
        };
        phases.push(PhaseSpan {
            name,
            start_ns: at(t0),
            end_ns: at(t1),
            counters: counters.to_json(),
        });
        records.push(SegRecord {
            seg,
            wall_s: secs(t1 - t0),
            counters,
            tally,
        });
        if seg == Seg::Pre {
            continue;
        }
        let pool = Arc::clone(tree.pool());
        drop(tree);
        let t0 = Instant::now();
        let recovered = RnTree::recover(pool, cfg);
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as f64;
        recover_ns.push(ns);
        recover_ns_per_leaf.push(ns / recovered.stats().leaves as f64);
        phases.push(PhaseSpan {
            name: "recover".into(),
            start_ns: at(t0),
            end_ns: at(t1),
            counters: Counters::take(&recovered).to_json(),
        });
        tree = Arc::new(recovered);
        let checked = wrap(Arc::clone(&tree));
        match model.check_full(&checked) {
            Ok(count) if checked.stats().entries != count => errors.push(format!(
                "after recovery: stats().entries {} but the model holds {count}",
                checked.stats().entries
            )),
            Ok(_) => {}
            Err(e) => errors.push(e),
        }
    }
    let space = tree.space_report();
    drop(tree);
    kernel.sample(3);
    let ticks1 = CpuTicks::now();

    let mismatches = errors.len() as u64 + clients.iter().map(|c| c.mismatches).sum::<u64>();
    errors.extend(clients.iter().flat_map(|c| c.errors.iter().cloned()));
    let measured = &records[1..];
    let attempted: u64 = measured.iter().map(|r| r.tally.ops).sum();
    let failed: u64 = measured.iter().map(|r| r.tally.failed).sum();
    let halves = [
        &measured[..MEASURED_SEGMENTS / 2],
        &measured[MEASURED_SEGMENTS / 2..],
    ]
    .map(|h| {
        let c = h
            .iter()
            .fold(Counters::default(), |a, r| a.plus(&r.counters));
        let ops: u64 = h.iter().map(|r| r.tally.ops).sum();
        (
            (c.get(C::Splits) + c.get(C::Compactions)) * 1e3 / ops as f64,
            c.get(C::Persists) / ops as f64,
        )
    });

    let mut notes = vec![
        format!(
            "workload {} seed {} trace {} keys {} precondition_ops {} measured_ops {} threads {}",
            wl.name, opts.seed, opts.trace as u8, wl.keys, wl.precondition_ops, attempted, THREADS
        ),
        format!(
            "host available_parallelism {} clocksource {} steal_pct {:.3} ref_kernel_ns {:.0}",
            host::available_parallelism(),
            host::clocksource(),
            ticks1.steal_pct_since(&ticks0),
            kernel.median_ns()
        ),
        format!(
            "steady-state check: smo_per_kop first half {:.3} second half {:.3}; persists_per_op first half {:.4} second half {:.4}",
            halves[0].0, halves[1].0, halves[0].1, halves[1].1
        ),
        format!(
            "segment throughput kops/s: {}",
            records.iter().map(|r| format!("{:?} {:.1}", r.seg, r.tally.ops as f64 / r.wall_s / 1e3)).collect::<Vec<_>>().join(", ")
        ),
    ];
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let metrics;
    if !opts.trace {
        // Timings are medians over the measured segments, each segment's
        // percentile exact over its raw samples.
        let class = |s: usize, c: usize| -> Vec<u32> {
            clients
                .iter()
                .flat_map(|cl| cl.latencies[s][c].iter().copied())
                .collect()
        };
        let per_segment = |c: usize, q: f64| -> f64 {
            median(
                &(0..measured.len())
                    .map(|s| quantile(&mut class(s, c), q) / 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        let count = |c: usize| -> u64 {
            clients
                .iter()
                .flat_map(|cl| cl.latencies.iter())
                .map(|l| l[c].len() as u64)
                .sum()
        };
        let (nr, nw) = (count(0), count(1));
        let throughput: Vec<f64> = measured
            .iter()
            .map(|r| r.tally.ops as f64 / r.wall_s / 1e3)
            .collect();
        let persists: f64 = measured.iter().map(|r| r.counters.get(C::Persists)).sum();
        metrics = vec![
            metric("throughput_kops", median(&throughput), "kops/s", attempted),
            metric("read_p50_us", per_segment(0, 0.50), "us", nr),
            metric("read_p99_us", per_segment(0, 0.99), "us", nr),
            metric("write_p50_us", per_segment(1, 0.50), "us", nw),
            metric("write_p99_us", per_segment(1, 0.99), "us", nw),
            metric(
                "persists_per_op",
                persists / attempted as f64,
                "persists/op",
                attempted,
            ),
            metric(
                "space_bytes_per_key",
                ratio(space.leaf_bytes as f64, space.live_entries as f64),
                "B/key",
                space.live_entries,
            ),
            metric(
                "recover_ms",
                median(&recover_ns) / 1e6,
                "ms",
                recover_ns.len() as u64,
            ),
            metric("setup_s", median(&setup_s), "s", setup_s.len() as u64),
            metric("peak_rss_mb", host::peak_rss_mb(), "MiB", 1),
            metric(
                "ops_ok_ratio",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
                attempted,
            ),
        ];
    } else {
        // Counters from the untraced segments, which carry no probes;
        // timings from the traced ones.
        let (plain, traced): (Vec<&SegRecord>, Vec<&SegRecord>) =
            measured.iter().partition(|r| r.seg == Seg::Plain);
        let c = plain
            .iter()
            .fold(Counters::default(), |a, r| a.plus(&r.counters));
        let plain_ops: f64 = plain.iter().map(|r| r.tally.ops as f64).sum();
        let plain_writes: f64 = plain.iter().map(|r| r.tally.writes as f64).sum();
        let latency = PmemConfig::for_benchmarks(0).write_latency_ns as f64;
        let probes = |p: Probe| -> Vec<&ProbeSpan> {
            clients
                .iter()
                .flat_map(|c| c.trace.probes.iter())
                .filter(|s| s.probe == p)
                .collect()
        };
        let mut descent: Vec<u32> = probes(Probe::Descent).iter().map(|p| p.dur_ns).collect();
        let mut finds: Vec<u32> = probes(Probe::Find).iter().map(|p| p.dur_ns).collect();
        let scans = probes(Probe::Scan);
        let scan_ns: f64 = scans.iter().map(|p| f64::from(p.dur_ns)).sum();
        let scan_keys: f64 = scans.iter().map(|p| f64::from(p.keys)).sum();
        let ops: Vec<&OpSpan> = clients.iter().flat_map(|c| c.trace.ops.iter()).collect();
        let write_calls: Vec<u32> = ops
            .iter()
            .filter(|o| matches!(o.class, Class::Upsert | Class::Insert))
            .map(|o| o.call_ns)
            .collect();
        let gen: Vec<u32> = ops.iter().map(|o| o.gen_ns).collect();
        let leaf_self =
            mean(&write_calls) - mean(&descent) - ratio(c.get(C::Lines), plain_writes) * latency;
        let wall = |set: &[&SegRecord]| set.iter().map(|r| r.wall_s).sum::<f64>();
        let probe_s =
            traced.iter().map(|r| r.tally.probe_ns as f64).sum::<f64>() / THREADS as f64 / 1e9;
        let overhead = ((wall(&traced) - probe_s) / wall(&plain) - 1.0) * 100.0;
        let per_kop = |x: f64| x * 1e3 / plain_ops;
        let cache_lookups = c.get(C::CacheHits) + c.get(C::CacheMisses);
        let (np, nd, nf, nt) = (
            plain_ops as u64,
            descent.len() as u64,
            finds.len() as u64,
            ops.len() as u64,
        );
        metrics = vec![
            metric(
                "nvm.lines_per_op",
                c.get(C::Lines) / plain_ops,
                "lines/op",
                np,
            ),
            metric(
                "nvm.media_ns_per_op",
                c.get(C::Lines) * latency / plain_ops,
                "ns/op",
                np,
            ),
            metric(
                "nvm.cache_hit_ratio",
                ratio(c.get(C::CacheHits), cache_lookups),
                "ratio",
                cache_lookups as u64,
            ),
            metric(
                "nvm.cache_misses_per_op",
                c.get(C::CacheMisses) / plain_ops,
                "1/op",
                np,
            ),
            metric(
                "nvm.cache_evictions_per_op",
                c.get(C::CacheEvictions) / plain_ops,
                "1/op",
                np,
            ),
            metric(
                "nvm.cache_read_restarts_per_kop",
                per_kop(c.get(C::CacheReadRestarts)),
                "1/kop",
                np,
            ),
            metric(
                "htm.attempts_per_op",
                c.get(C::HtmAttempts) / plain_ops,
                "1/op",
                np,
            ),
            metric(
                "htm.commit_ratio",
                ratio(c.get(C::HtmCommits), c.get(C::HtmAttempts)),
                "ratio",
                c.get(C::HtmAttempts) as u64,
            ),
            metric(
                "htm.conflict_aborts_per_kop",
                per_kop(c.get(C::HtmConflictAborts)),
                "1/kop",
                np,
            ),
            metric(
                "htm.fallbacks_per_mop",
                per_kop(c.get(C::HtmFallbacks)) * 1e3,
                "1/Mop",
                np,
            ),
            metric(
                "inner.descent_ns_p50",
                quantile(&mut descent, 0.50),
                "ns",
                nd,
            ),
            metric(
                "inner.descent_ns_p99",
                quantile(&mut descent, 0.99),
                "ns",
                nd,
            ),
            metric(
                "inner.descent_restarts_per_kop",
                per_kop(c.get(C::DescentRestarts)),
                "1/kop",
                np,
            ),
            metric(
                "inner.tm_fallbacks_per_kop",
                per_kop(c.get(C::DescentTmFallbacks)),
                "1/kop",
                np,
            ),
            metric("rntree.find_ns_p50", quantile(&mut finds, 0.50), "ns", nf),
            metric(
                "rntree.scan_ns_per_key",
                ratio(scan_ns, scan_keys),
                "ns/key",
                scans.len() as u64,
            ),
            metric(
                "rntree.leaf_self_ns",
                leaf_self,
                "ns",
                write_calls.len() as u64,
            ),
            metric(
                "rntree.smo_per_kop",
                per_kop(c.get(C::Splits) + c.get(C::Compactions)),
                "1/kop",
                np,
            ),
            metric(
                "rntree.retries_per_kop",
                per_kop(c.get(C::Retries)),
                "1/kop",
                np,
            ),
            metric(
                "rntree.leaf_fill",
                space.mean_live_fill / MAX_LIVE as f64,
                "ratio",
                space.leaves,
            ),
            metric(
                "rntree.recover_ns_per_leaf",
                median(&recover_ns_per_leaf),
                "ns/leaf",
                recover_ns.len() as u64,
            ),
            metric(
                "rntree.load_ns_per_key",
                median(&load_ns) / wl.keys as f64,
                "ns/key",
                load_ns.len() as u64,
            ),
            metric("ycsb.gen_ns_per_op", mean(&gen), "ns/op", nt),
            metric(
                "steady.smo_per_kop_first_half",
                halves[0].0,
                "1/kop",
                attempted / 2,
            ),
            metric(
                "steady.smo_per_kop_second_half",
                halves[1].0,
                "1/kop",
                attempted / 2,
            ),
            metric(
                "steady.persists_per_op_first_half",
                halves[0].1,
                "persists/op",
                attempted / 2,
            ),
            metric(
                "steady.persists_per_op_second_half",
                halves[1].1,
                "persists/op",
                attempted / 2,
            ),
            metric(
                "host.available_parallelism",
                host::available_parallelism() as f64,
                "cores",
                1,
            ),
            metric("host.steal_pct", ticks1.steal_pct_since(&ticks0), "%", 1),
            metric("host.ref_kernel_ns", kernel.median_ns(), "ns", 6),
            metric("trace.overhead_pct", overhead, "%", nt),
        ];
        notes.push("rntree.leaf_self_ns is an estimate: mean write call - mean descent probe - media time per write".into());
        if let Some(dir) = &opts.trace_dir {
            let traces: Vec<ThreadTrace> = clients.into_iter().map(|c| c.trace).collect();
            let path = dir.join(format!("trace-{}.jsonl", wl.name));
            trace::write(&path, &phases, &traces, TRACE_SAMPLE)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            notes.push(format!("spans written to {}", path.display()));
        }
    }
    Ok(Report {
        correct: mismatches == 0,
        attempted,
        failed,
        errors,
        metrics,
        notes,
    })
}

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}
