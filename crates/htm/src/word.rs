//! [`TmWord`]: a 64-bit word that transactions can read and write.
//!
//! A `TmWord` is a `repr(transparent)` wrapper around `AtomicU64`, so it can
//! be overlaid on any properly aligned 8-byte location — in particular on
//! words inside the `nvm` arena, which is how RNTree's *persistent* slot
//! array is also *transactional*.
//!
//! Besides transactional access (through [`crate::Txn`]), a word supports
//! disciplined non-transactional access:
//!
//! * [`TmWord::load_direct`] — a plain atomic load, for code that validates
//!   consistency by other means (version numbers, as the paper's readers do).
//! * [`TmWord::store_nontx`] / [`TmWord::cas_nontx`] — *conflict-visible*
//!   stores: they bump the word's version lock so concurrent transactions
//!   that read the word abort, exactly as a plain store on another core
//!   aborts a hardware transaction that has the line in its read set.
//!   They wait while a fallback section holds the word's entry, so they
//!   must not be called from inside an atomic section.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::global;

/// A transactionally-shared 64-bit word. See the module docs.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct TmWord(pub(crate) AtomicU64);

impl TmWord {
    /// Creates a word with an initial value.
    pub const fn new(v: u64) -> Self {
        TmWord(AtomicU64::new(v))
    }

    /// Reinterprets an `AtomicU64` reference as a `TmWord` reference.
    ///
    /// This is how words living inside the `nvm` arena become
    /// transactional: `TmWord::from_atomic(pool.atomic_u64(off))`.
    #[inline]
    pub fn from_atomic(a: &AtomicU64) -> &TmWord {
        // SAFETY: TmWord is repr(transparent) over AtomicU64.
        unsafe { &*(a as *const AtomicU64 as *const TmWord) }
    }

    /// The word's address, used to locate its version lock.
    #[inline]
    pub(crate) fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Index of this word's version-lock entry.
    #[inline]
    pub(crate) fn lock_idx(&self) -> usize {
        global::lock_index(self.addr())
    }

    /// Plain atomic load, outside any transaction.
    ///
    /// The caller takes responsibility for consistency across multiple
    /// loads (the trees use leaf version numbers for this, per the paper).
    #[inline]
    pub fn load_direct(&self) -> u64 {
        // Ordering: Acquire. Pairs with the Release value stores in commit
        // phase 3 / `store_nontx`: observing a value implies observing
        // everything its writer published before it. Callers that need a
        // consistent multi-word snapshot still must validate by other means
        // (version sandwich or lock wait) — Acquire only gives per-word
        // publication, which is exactly what those protocols assume.
        self.0.load(Ordering::Acquire)
    }

    /// Non-transactional store that is *visible as a conflict* to
    /// concurrent transactions reading this word.
    ///
    /// Spins while a committing transaction holds the word's version lock.
    pub fn store_nontx(&self, val: u64) {
        let idx = self.lock_idx();
        let owner = global::next_ticket();
        loop {
            let cur = global::lock_load(idx);
            if global::is_locked(cur) {
                std::hint::spin_loop();
                continue;
            }
            if global::lock_try_acquire(idx, cur, owner) {
                // Ordering: Release — pairs with Acquire in `load_direct`;
                // the following `lock_release` (also Release) republishes
                // the store to version-validating readers.
                self.0.store(val, Ordering::Release);
                global::lock_release(idx, global::clock_bump());
                return;
            }
        }
    }

    /// Non-transactional compare-and-swap with conflict visibility.
    ///
    /// Returns `Ok(current)` on success or `Err(current)` when the current
    /// value differs from `expect`. The version lock is bumped only when
    /// the store happens.
    pub fn cas_nontx(&self, expect: u64, new: u64) -> Result<u64, u64> {
        let idx = self.lock_idx();
        let owner = global::next_ticket();
        loop {
            let cur_lock = global::lock_load(idx);
            if global::is_locked(cur_lock) {
                std::hint::spin_loop();
                continue;
            }
            if !global::lock_try_acquire(idx, cur_lock, owner) {
                continue;
            }
            // Ordering: Relaxed suffices for the inspection load — the
            // Acquire CAS in `lock_try_acquire` above already synchronized
            // with the previous owner's Release, so the latest committed
            // value is visible; no later writer can intervene while we hold
            // the entry.
            let cur = self.0.load(Ordering::Relaxed);
            if cur == expect {
                // Ordering: Release — same argument as `store_nontx`.
                self.0.store(new, Ordering::Release);
                global::lock_release(idx, global::clock_bump());
                return Ok(cur);
            }
            // Value mismatch: restore the entry untouched.
            global::lock_release(idx, cur_lock);
            return Err(cur);
        }
    }

    /// Relaxed load for **quiescent phases only** (initialisation, recovery,
    /// single-threaded benchmarking): no version validation is performed, so
    /// concurrent transactional writers would be invisible to the caller.
    #[inline]
    pub fn load_seq(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Relaxed store for **quiescent phases only**: does not bump the version
    /// lock, so concurrent transactions would not observe a conflict. Only
    /// legal while no transaction can access this word (e.g. rebuilding
    /// internal nodes during recovery before workers start).
    #[inline]
    pub fn store_seq(&self, val: u64) {
        self.0.store(val, Ordering::Relaxed);
    }

    /// Non-transactional fetch-add with conflict visibility.
    pub fn fetch_add_nontx(&self, delta: u64) -> u64 {
        loop {
            let cur = self.load_direct();
            if self.cas_nontx(cur, cur.wrapping_add(delta)).is_ok() {
                return cur;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_atomic_aliases_storage() {
        let a = AtomicU64::new(5);
        let w = TmWord::from_atomic(&a);
        assert_eq!(w.load_direct(), 5);
        w.store_nontx(9);
        assert_eq!(a.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn cas_nontx_success_and_failure() {
        let w = TmWord::new(10);
        assert_eq!(w.cas_nontx(10, 11), Ok(10));
        assert_eq!(w.load_direct(), 11);
        assert_eq!(w.cas_nontx(10, 12), Err(11));
        assert_eq!(w.load_direct(), 11);
    }

    #[test]
    fn fetch_add_counts_exactly_under_contention() {
        use std::sync::Arc;
        let w = Arc::new(TmWord::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_500 {
                    w.fetch_add_nontx(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.load_direct(), 10_000);
    }

    #[test]
    fn store_nontx_bumps_global_clock() {
        let w = TmWord::new(0);
        let before = crate::global::clock_read();
        w.store_nontx(1);
        assert!(crate::global::clock_read() > before);
    }
}
