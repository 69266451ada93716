//! Durable-linearizability property tests (paper §3.5): after a crash at
//! *any* point — with adversarial cache evictions — every acknowledged
//! operation must be visible after recovery and the structure must be
//! fully intact.
//!
//! Methodology: drive a random op sequence against an RNTree on a shadow
//! pool, maintaining the model of *acknowledged* state; at a random point
//! stop, snapshot (crash), recover, and compare. Because the harness
//! cannot crash *inside* an operation from safe code, intra-operation
//! crash points are exercised by (a) eviction injection, which persists
//! arbitrary dirty lines at arbitrary moments, making any wrong write
//! ordering visible as corruption, and (b) the journal tests in
//! `recovery.rs`, which snapshot mid-split images directly.

use std::collections::BTreeMap;
use std::sync::Arc;

use index_common::PersistentIndex;
use nvm::{PmemConfig, PmemPool, SplitMix64};
use rntree::{RnConfig, RnTree};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Upsert(u64, u64),
    Remove(u64),
    Evict(u8),
}

/// Deterministic randomized op sequence with the same 4:4:2:1 weighting the
/// original proptest strategy used.
fn gen_ops(rng: &mut SplitMix64, key_max: u64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let k = rng.next_key(key_max);
            match rng.next_below(11) {
                0..=3 => Op::Insert(k, rng.next_u64()),
                4..=7 => Op::Upsert(k, rng.next_u64()),
                8..=9 => Op::Remove(k),
                _ => Op::Evict(rng.next_u64() as u8),
            }
        })
        .collect()
}

fn run_crash_round(ops: &[Op], dual: bool, crash_at: usize) {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
    let cfg = RnConfig {
        dual_slot: dual,
        journal_slots: 4,
        ..RnConfig::default()
    };
    let tree = RnTree::create(Arc::clone(&pool), cfg);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();

    for op in ops.iter().take(crash_at) {
        match *op {
            Op::Insert(k, v) => {
                if tree.insert(k, v).is_ok() {
                    model.insert(k, v);
                }
            }
            Op::Upsert(k, v) => {
                tree.upsert(k, v).unwrap();
                model.insert(k, v);
            }
            Op::Remove(k) => {
                if tree.remove(k).is_ok() {
                    model.remove(&k);
                }
            }
            Op::Evict(n) => {
                pool.evict_random_lines(n as usize % 16);
            }
        }
    }

    drop(tree);
    pool.simulate_crash();
    let tree = RnTree::recover(Arc::clone(&pool), cfg);
    tree.verify_invariants().expect("invariants after crash");

    // Durable linearizability: every acknowledged op is visible.
    for (k, v) in &model {
        assert_eq!(tree.find(*k), Some(*v), "acked key {k} wrong after crash");
    }
    // And nothing phantom: full scan matches the model exactly (all ops
    // were acknowledged before the crash — quiescent crash point).
    let mut out = Vec::new();
    tree.scan_n(0, usize::MAX >> 1, &mut out);
    let expect: Vec<(u64, u64)> = model.iter().map(|(a, b)| (*a, *b)).collect();
    assert_eq!(out, expect, "phantom or lost entries after crash");

    // The recovered tree must keep working and keep its guarantees.
    tree.insert(u64::MAX - 1, 42).unwrap();
    assert_eq!(tree.find(u64::MAX - 1), Some(42));
    tree.verify_invariants().unwrap();
}

fn run_crash_cases(seed: u64, dual: bool) {
    for case in 0..20u64 {
        let mut rng = SplitMix64::new(seed ^ case.wrapping_mul(0x517C_C1B7));
        let len = 1 + rng.next_below(499) as usize;
        let ops = gen_ops(&mut rng, 150, len);
        let crash_at = ((ops.len() as f64) * rng.next_f64()) as usize;
        run_crash_round(&ops, dual, crash_at);
    }
}

#[test]
fn acked_ops_survive_crash_ds() {
    run_crash_cases(0xCA5D, true);
}

#[test]
fn acked_ops_survive_crash_single_slot() {
    run_crash_cases(0xCA51, false);
}

/// The classic wB+Tree-motivating scenario: an in-flight (never
/// acknowledged) modify must be invisible after a crash — the KV entry may
/// be durable, but the slot array (the source of truth) is not.
#[test]
fn unacknowledged_entry_is_invisible() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
    let cfg = RnConfig::default();
    let tree = RnTree::create(Arc::clone(&pool), cfg);
    for k in 1..=100u64 {
        tree.insert(k, k).unwrap();
    }
    // Forge a half-finished insert: KV entry written and persisted (steps
    // 1–3 of §4.2) but the slot array never updated — exactly the state a
    // crash between the KV flush and the slot flush leaves behind.
    let leftmost = tree.leftmost();
    let kv_area = leftmost + 192;
    // Entry index 63 is unallocated in a 100-key tree's leftmost leaf.
    pool.store_u64(kv_area + 63 * 16, 55_555);
    pool.store_u64(kv_area + 63 * 16 + 8, 1);
    pool.persist(kv_area + 63 * 16, 16);
    drop(tree);
    pool.simulate_crash();
    let tree = RnTree::recover(pool, cfg);
    assert_eq!(tree.find(55_555), None, "unacked insert became visible");
    tree.verify_invariants().unwrap();
}

/// Repeated crash → recover → work → crash cycles must not decay.
#[test]
fn crash_recover_cycles() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
    let cfg = RnConfig {
        journal_slots: 4,
        ..RnConfig::default()
    };
    let tree = RnTree::create(Arc::clone(&pool), cfg);
    let mut high = 0u64;
    drop(tree);
    for round in 0..6u64 {
        pool.simulate_crash();
        let tree = RnTree::recover(Arc::clone(&pool), cfg);
        tree.verify_invariants().unwrap();
        for k in 1..=high {
            assert_eq!(tree.find(k), Some(k ^ 7), "round {round} key {k}");
        }
        for k in high + 1..=high + 500 {
            tree.insert(k, k ^ 7).unwrap();
        }
        high += 500;
        pool.evict_random_lines(32);
        drop(tree);
    }
}

/// Crash immediately after creation: an empty tree must recover.
#[test]
fn crash_on_empty_tree() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
    let cfg = RnConfig::default();
    let tree = RnTree::create(Arc::clone(&pool), cfg);
    drop(tree);
    pool.simulate_crash();
    let tree = RnTree::recover(pool, cfg);
    assert_eq!(tree.find(1), None);
    tree.insert(1, 1).unwrap();
    assert_eq!(tree.find(1), Some(1));
    tree.verify_invariants().unwrap();
}
