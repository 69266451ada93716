//! Micro-benchmark behind Figure 6: range scans on sorted (RNTree,
//! wB+Tree) vs unsorted (NVTree, FPTree) leaves.

use bench::microbench::{bench, group};
use bench::{build_tree, pool_for, warm, TreeKind};
use nvm::PmemConfig;

const WARM: u64 = 20_000;

fn main() {
    let kinds = [TreeKind::NvTree, TreeKind::WbTree, TreeKind::FpTree, TreeKind::RnTreeDs];
    for len in [10usize, 100, 1000] {
        group(&format!("scan_{len}"));
        for kind in kinds {
            let pool = pool_for(kind, WARM, 0, PmemConfig::for_benchmarks(0));
            let tree = build_tree(kind, pool, true);
            warm(&*tree, WARM);
            let mut buf = Vec::with_capacity(len);
            let mut k = 1u64;
            bench(&format!("scan_{len}/{kind:?}"), || {
                k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
                std::hint::black_box(tree.scan_n(k % WARM + 1, len, &mut buf));
            });
        }
    }
}
