//! The fallback lock of the lock-elision pattern: one per domain.
//!
//! Real RTM code cannot retry forever: after a few aborts it acquires a
//! fallback mutex and runs the critical section non-transactionally. For
//! that to be safe, every hardware transaction *subscribes* to the mutex —
//! reads its state inside the transaction — so acquiring it aborts them.
//! [`FallbackLock`] is that mutex; a body run under it is *irrevocable*.
//!
//! # Subscription safety argument
//!
//! Let *O* be an optimistic transaction and *G* a fallback run under the
//! lock.
//!
//! **Subscription is two-point.** At *begin*, *O* samples `rv` and then
//! loads the lock word, re-sampling until it is observed free: *G*
//! publishes in place, word by word, with no single commit version, so
//! this is what guarantees `rv` never falls *inside* *G*'s write window
//! (a publish at version v ≤ rv happened before the clock reached `rv`;
//! clock bumps form a release sequence, so reading `rv ≥ v`
//! synchronizes-with that publisher's bump, whose word acquisition
//! precedes it — the post-`rv` word load must still see it odd). If *O*
//! commits writes, it checks once more, *after its write locks are held*,
//! that the word is free. Lazy subscription is a known soundness trap on
//! real RTM: a hardware transaction can act on a torn read long before
//! reaching `XEND`. This STM cannot produce that zombie:
//!
//! **Lemma (opacity).** Every optimistic read is sandwich-validated
//! against the start snapshot `rv`, and the begin-time subscription pins
//! `rv` outside every *G* window. So an in-flight *O* either reads pre-*G*
//! values, reads all of *G*'s writes, or aborts at the offending read — it
//! can never *observe* *G*'s writes torn, not even across the multiple
//! words of one fallback's write set.
//!
//! The one hazard left is the reverse direction: *G*'s reads are not
//! validated as they happen, so an *O* that commits writes **into *G*'s
//! window** would hand *G* a stale snapshot. Case split on *G*'s window vs
//! *O*'s commit, using two facts: *O* holds its write-set lock entries
//! from phase 1 through apply, and *G* takes the lock entry of every word
//! before its first access to it (waiting out a held entry):
//!
//! * *G* in flight at *O*'s commit check → the lock word is odd → *O*
//!   aborts. This case is a store-buffering shape (*O* stores lock entries
//!   then loads the lock word; *G* CASes the lock word then loads lock
//!   entries before its first data access), so both sides carry a
//!   **`SeqCst` fence** — *O* between phase-1 acquisition and the check,
//!   *G* in [`acquire_word`] between acquisition and the body —
//!   guaranteeing at least one side observes the other's store on non-TSO
//!   hardware too.
//! * *G* ended before *O*'s read validation → *G*'s publishes bumped
//!   versions, so any read overlap aborts *O*; pure write-into-*G*-reads
//!   overlap serialises *G* before *O*.
//! * *G*'s window falls between *O*'s validation and its check → *G*
//!   cannot have read any *O*-written word (those lock entries were
//!   already held; *G* would still be waiting), so *O* → *G* is a
//!   consistent order: *G* read only words *O* left untouched.
//! * *G* began after *O*'s check → *G*'s accesses of *O*-written words
//!   wait until *O*'s release and see the fully applied state: *O* → *G*.
//!
//! A read-only *O* commits nothing and perturbs no window, so the only
//! obligation is its own snapshot, which the opacity lemma covers. It
//! therefore skips the commit-time check entirely; with `rv` sampled
//! mid-window it could commit a torn slice of an atomic fallback section.
//!
//! **G vs `*_nontx` writers.** [`TmWord::store_nontx`],
//! [`TmWord::cas_nontx`] and [`TmWord::fetch_add_nontx`] take only the
//! word's version-lock entry, never the fallback word, so holding the lock
//! does not exclude them. Without more, such a write could land between
//! *G*'s read of a word and its write of it, and be lost. So *G* holds the
//! entry of every word it reads or writes until its body ends (the
//! `*_nontx` writer waits). Holding entries through a body is a
//! hold-and-wait; it cannot form a cycle because irrevocable bodies run
//! one at a time process-wide, and every other entry holder gives its
//! entries back within a bounded wait.
//!
//! State encoding: even = free, odd = held; the value increases on every
//! transition, so it doubles as an acquisition counter.

use crate::word::TmWord;

/// Bounded spin iterations before yielding to the OS while waiting on a
/// fallback word. Oversubscribed thread counts (threads > cores, the
/// common CI case) would otherwise livelock-degrade on pure `spin_loop`.
const SPIN_LIMIT: u32 = 64;

/// Acquires an even/odd fallback word with bounded spin, yielding to the
/// OS past [`SPIN_LIMIT`].
#[inline]
fn acquire_word(word: &TmWord) {
    let mut spins = 0u32;
    loop {
        let cur = word.load_direct();
        if cur.is_multiple_of(2) && word.cas_nontx(cur, cur + 1).is_ok() {
            // Ordering: SeqCst fence between acquiring the fallback word
            // and the fallback's first data access. Pairs with the fence
            // in optimistic commit (between its phase-1 lock stores and
            // its fallback-word load): the two sides form a
            // store-buffering pattern, and without a total order both
            // could read stale — the committer seeing this word free
            // while this fallback sees the commit's word locks free and
            // reads pre-commit data. x86's locked RMWs mask this; on
            // weaker architectures the fence is required. See the proof
            // in the module docs.
            std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
            return;
        }
        spins += 1;
        if spins >= SPIN_LIMIT {
            spins = 0;
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Releases an even/odd fallback word.
#[inline]
fn release_word(word: &TmWord) {
    let cur = word.load_direct();
    debug_assert_eq!(cur % 2, 1, "releasing a free fallback word");
    word.store_nontx(cur + 1);
}

/// The per-domain fallback mutex with transaction subscription.
///
/// Padded to its own cache line: every optimistic begin reads the word,
/// so it must not share a line with counters that every section writes
/// (the domain's `HtmStats`).
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct FallbackLock {
    pub(crate) word: TmWord,
}

impl FallbackLock {
    /// Creates a free lock.
    pub const fn new() -> Self {
        FallbackLock {
            word: TmWord::new(0),
        }
    }

    /// True while some thread holds the fallback lock.
    #[inline]
    pub fn is_held(&self) -> bool {
        self.word.load_direct() % 2 == 1
    }

    /// Acquires the lock (bounded spin, then `yield_now`). Returns a guard
    /// that releases on drop (panic-safe: a poisoned fallback would
    /// otherwise wedge every transaction in the domain forever).
    pub fn acquire(&self) -> FallbackGuard<'_> {
        acquire_word(&self.word);
        FallbackGuard { lock: self }
    }

    /// Waits until the lock is observed free, like the
    /// `while (lock_is_held) pause;` loop in real elision code. Bounded
    /// spin, then `yield_now`. This is a plain pre-start wait, **not** a
    /// subscription — the software TM's begin-time subscription (which
    /// must re-sample `rv` after each observation of this word) lives in
    /// `Txn::optimistic`; only the native-RTM elision path, where the
    /// in-transaction `is_held` read is the real subscription, uses this.
    #[inline]
    pub fn wait_until_free(&self) {
        let mut spins = 0u32;
        while self.is_held() {
            spins += 1;
            if spins >= SPIN_LIMIT {
                spins = 0;
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// RAII guard for [`FallbackLock`].
pub struct FallbackGuard<'l> {
    lock: &'l FallbackLock,
}

impl Drop for FallbackGuard<'_> {
    fn drop(&mut self) {
        release_word(&self.lock.word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn acquire_release_counts_transitions() {
        let l = FallbackLock::new();
        assert!(!l.is_held());
        {
            let _g = l.acquire();
            assert!(l.is_held());
        }
        assert!(!l.is_held());
        assert_eq!(l.word.load_direct(), 2);
    }

    #[test]
    fn guard_releases_on_panic() {
        let l = Arc::new(FallbackLock::new());
        let l2 = Arc::clone(&l);
        let res = std::thread::spawn(move || {
            let _g = l2.acquire();
            panic!("boom");
        })
        .join();
        assert!(res.is_err());
        assert!(!l.is_held(), "lock must be released by unwinding");
    }

    #[test]
    fn mutual_exclusion() {
        let l = Arc::new(FallbackLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&l);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let _g = l.acquire();
                    // Non-atomic-looking RMW under the lock.
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
    }
}
