//! Benchmark behind Figures 8/10: a short concurrent YCSB-A burst on the
//! concurrent trees (FPTree vs RNTree±DS) under uniform and skewed keys.
//! The `repro fig8`/`fig10` binaries produce the full sweeps.

use std::sync::Arc;

use bench::microbench::{bench, group};
use bench::{build_tree, pool_for, warm, TreeKind};
use nvm::{PmemConfig, SplitMix64};

const WARM: u64 = 20_000;
const BATCH: u64 = 2_000;
const THREADS: usize = 4;

fn run_batch(tree: &dyn index_common::PersistentIndex, zipf: bool, seed: u64) {
    let gen = if zipf {
        ycsb::KeyDist::ScrambledZipfian { n: WARM, theta: 0.8 }
    } else {
        ycsb::KeyDist::Uniform { n: WARM }
    }
    .build();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let gen = gen.clone();
            scope.spawn(move || {
                let mut rng = SplitMix64::new(seed + t as u64);
                for _ in 0..BATCH / THREADS as u64 {
                    let k = gen.next_key(&mut rng);
                    if rng.next_f64() < 0.5 {
                        std::hint::black_box(tree.find(k));
                    } else {
                        let _ = tree.upsert(k, k);
                    }
                }
            });
        }
    });
}

fn main() {
    for (label, zipf) in [("uniform", false), ("zipf08", true)] {
        group(&format!("ycsb_a_{label}_{THREADS}thr"));
        for kind in TreeKind::CONCURRENT {
            let pool = pool_for(kind, WARM, 0, PmemConfig::for_benchmarks(0));
            let tree: Arc<dyn index_common::PersistentIndex> = build_tree(kind, pool, false);
            warm(&*tree, WARM);
            let mut seed = 0u64;
            bench(&format!("ycsb_a_{label}_{THREADS}thr/{kind:?}"), || {
                seed += 1;
                run_batch(&*tree, zipf, seed);
            });
        }
    }
}
