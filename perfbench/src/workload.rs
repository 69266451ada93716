//! The three named workloads and their per-thread operation streams.

use index_common::{Key, Value};
use nvm::SplitMix64;
use ycsb::{KeyDist, KeyGen};

use crate::model::{value_of, Model};

/// Client threads per workload: a closed loop of 2 application threads,
/// each blocking on its own index call.
pub const THREADS: usize = 2;

/// How the write class of a workload writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// `upsert` of a loaded key, drawn from the workload's key dist.
    Upsert,
    /// Conditional `insert` of a fresh key above every key handed out so
    /// far (right-edge appends).
    Insert,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name the benchmark is run by.
    pub name: &'static str,
    /// Keys bulk-loaded at set-up (`1..=keys`).
    pub keys: u64,
    /// Percentage of read-class ops (`find`, or `scan_n` when
    /// `scan_len > 0`); the rest are writes.
    pub read_pct: u64,
    /// Length of every `scan_n`; 0 makes reads point `find`s.
    pub scan_len: usize,
    /// The write class.
    pub write: WriteKind,
    /// Key distribution of reads, scan starts and upserts.
    pub dist: KeyDist,
    /// Measured ops per second of `--seconds` (fixed work, not a rate).
    pub ops_per_second: u64,
    /// Untimed preconditioning ops run before the measured phase.
    pub precondition_ops: u64,
    /// Set-ups timed per run (`setup_s` is their median).
    pub setups: usize,
}

/// The names of every workload, in the order of `BENCHMARK.json`.
pub const NAMES: [&str; 3] = [
    "ycsb_a_zipf_hot",
    "ycsb_b_uniform_big",
    "ycsb_e_scan_append",
];

impl Workload {
    /// The workload called `name`, with key counts and op counts
    /// multiplied by `scale` (1.0 is the benchmark; tests shrink it).
    pub fn by_name(name: &str, scale: f64) -> Option<Workload> {
        let sized = |n: u64| ((n as f64 * scale) as u64).max(1_000);
        let w = match name {
            "ycsb_a_zipf_hot" => {
                let keys = sized(200_000);
                Workload {
                    name: "ycsb_a_zipf_hot",
                    keys,
                    read_pct: 50,
                    scan_len: 0,
                    write: WriteKind::Upsert,
                    dist: KeyDist::ScrambledZipfian {
                        n: keys,
                        theta: 0.99,
                    },
                    ops_per_second: sized(700_000),
                    precondition_ops: sized(2_000_000),
                    setups: 5,
                }
            }
            "ycsb_b_uniform_big" => {
                let keys = sized(4_000_000);
                Workload {
                    name: "ycsb_b_uniform_big",
                    keys,
                    read_pct: 95,
                    scan_len: 0,
                    write: WriteKind::Upsert,
                    dist: KeyDist::Uniform { n: keys },
                    ops_per_second: sized(750_000),
                    precondition_ops: sized(8_000_000),
                    setups: 3,
                }
            }
            "ycsb_e_scan_append" => {
                let keys = sized(1_000_000);
                Workload {
                    name: "ycsb_e_scan_append",
                    keys,
                    read_pct: 95,
                    scan_len: 50,
                    write: WriteKind::Insert,
                    dist: KeyDist::ScrambledZipfian {
                        n: keys,
                        theta: 0.99,
                    },
                    ops_per_second: sized(550_000),
                    precondition_ops: sized(1_000_000),
                    setups: 5,
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// Pool bytes: room for every leaf split once, the preconditioning
    /// and measured inserts, and slack for the allocator.
    pub fn pool_bytes(&self, measured_ops: u64) -> usize {
        let inserts = match self.write {
            WriteKind::Insert => {
                (self.precondition_ops + measured_ops) * (100 - self.read_pct) / 100
            }
            WriteKind::Upsert => 0,
        };
        ((self.keys + inserts) * 64 + (64 << 20)) as usize
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Find(Key),
    /// `scan_n` of the workload's length from a start key.
    Scan(Key),
    /// Upsert of an owned key with a fresh value.
    Upsert(Key, Value),
    /// Conditional insert of a fresh key.
    Insert(Key, Value),
}

impl Op {
    /// Whether the op is in the write class.
    pub fn is_write(self) -> bool {
        matches!(self, Op::Upsert(..) | Op::Insert(..))
    }
}

/// One thread's operation stream for one phase of the run.
///
/// Thread `t` upserts only keys with `key % THREADS == t`, so each key has
/// one writer whose values rise, and a reader can bound what a lookup may
/// return (see [`Model`]). Reads draw from the whole key space. A later
/// phase's values stay above an earlier one's: the phase number sits
/// above the write count in the sequence.
pub struct OpStream {
    wl: Workload,
    keygen: KeyGen,
    rng: SplitMix64,
    tid: usize,
    seq: u64,
}

impl OpStream {
    /// The stream of thread `tid` in phase `phase` (1, 2, …) of the run
    /// seeded by `seed`; each (seed, phase, thread) draws independently.
    pub fn new(wl: &Workload, seed: u64, phase: u64, tid: usize) -> OpStream {
        let mut mix = SplitMix64::new(seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let stream = mix.next_u64() ^ (tid as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        OpStream {
            wl: wl.clone(),
            keygen: wl.dist.build(),
            rng: SplitMix64::new(stream),
            tid,
            seq: phase << 32,
        }
    }

    /// A key from the workload's distribution.
    #[inline]
    pub fn key(&mut self) -> Key {
        self.keygen.next_key(&mut self.rng)
    }

    /// The next operation.
    #[inline]
    pub fn next_op(&mut self, model: &Model) -> Op {
        if self.rng.next_below(100) < self.wl.read_pct {
            let k = self.key();
            return if self.wl.scan_len > 0 {
                Op::Scan(k)
            } else {
                Op::Find(k)
            };
        }
        match self.wl.write {
            WriteKind::Insert => {
                let k = model.next_insert_key();
                Op::Insert(k, value_of(k, 0))
            }
            WriteKind::Upsert => {
                let k = loop {
                    let k = self.key();
                    if k as usize % THREADS == self.tid {
                        break k;
                    }
                };
                self.seq += 1;
                Op::Upsert(k, value_of(k, self.seq))
            }
        }
    }
}
