//! Micro-benchmarks behind Figure 4: single-thread find / insert / update
//! latency per tree, at a small fixed scale.

use bench::microbench::{bench, group};
use bench::{build_tree, pool_for, warm, TreeKind};
use nvm::PmemConfig;

const WARM: u64 = 20_000;

const KINDS: [TreeKind; 6] = [
    TreeKind::NvTree,
    TreeKind::WbTree,
    TreeKind::WbTreeSo,
    TreeKind::FpTree,
    TreeKind::RnTree,
    TreeKind::RnTreeDs,
];

fn main() {
    group("find");
    for kind in KINDS {
        let pool = pool_for(kind, WARM, 0, PmemConfig::for_benchmarks(0));
        let tree = build_tree(kind, pool, true);
        warm(&*tree, WARM);
        let mut k = 1u64;
        bench(&format!("find/{kind:?}"), || {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(tree.find(k % WARM + 1));
        });
    }

    group("insert");
    for kind in KINDS {
        let pool = pool_for(kind, WARM, 4_000_000, PmemConfig::for_benchmarks(0));
        let tree = build_tree(kind, pool, true);
        warm(&*tree, WARM);
        let mut next = WARM + 1;
        bench(&format!("insert/{kind:?}"), || {
            let _ = tree.insert(next, 1);
            next += 1;
        });
    }

    group("update");
    for kind in KINDS {
        let pool = pool_for(kind, WARM, 0, PmemConfig::for_benchmarks(0));
        let tree = build_tree(kind, pool, true);
        warm(&*tree, WARM);
        let mut k = 1u64;
        bench(&format!("update/{kind:?}"), || {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            let _ = tree.upsert(k % WARM + 1, 2);
        });
    }
}
