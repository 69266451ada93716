//! The verification model: what every lookup, scan and recovery must
//! return, given the writes the workload has issued and acknowledged.
//!
//! Loaded keys are `1..=keys`; each has one writer thread (see
//! [`crate::workload::OpStream`]) whose values carry a rising sequence
//! number, so a value read concurrently with writes is correct exactly
//! when it lies between the last value acknowledged before the read was
//! issued and the last value submitted before the read returned.
//! Inserted keys are `keys+1..` handed out by one counter, each with the
//! fixed value [`value_of`]`(k, 0)`.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;

use index_common::{Key, PersistentIndex, Value};

/// Low bits of every value: a tag derived from the key, so a value that
/// belongs to another key never passes.
const TAG_BITS: u32 = 24;

fn tag(k: Key) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TAG_BITS)
}

/// The value written for key `k` by the writer's `seq`-th write (0 for the
/// loaded and inserted values).
pub fn value_of(k: Key, seq: u64) -> Value {
    (seq << TAG_BITS) | tag(k)
}

/// Per loaded key: the last acknowledged value and the last submitted one.
#[repr(align(16))]
struct Slot {
    acked: AtomicU64,
    pending: AtomicU64,
}

/// The model of one run.
pub struct Model {
    keys: u64,
    slots: Vec<Slot>,
    next_insert: AtomicU64,
    failed_inserts: Mutex<Vec<Key>>,
}

impl Model {
    /// The model right after loading `1..=keys` with `value_of(k, 0)`.
    pub fn new(keys: u64) -> Model {
        let slots = (1..=keys)
            .map(|k| Slot {
                acked: AtomicU64::new(value_of(k, 0)),
                pending: AtomicU64::new(value_of(k, 0)),
            })
            .collect();
        Model {
            keys,
            slots,
            next_insert: AtomicU64::new(keys + 1),
            failed_inserts: Mutex::new(Vec::new()),
        }
    }

    /// The bulk-load input.
    pub fn load_pairs(&self) -> Vec<(Key, Value)> {
        (1..=self.keys).map(|k| (k, value_of(k, 0))).collect()
    }

    /// Hands out the next fresh insert key.
    pub fn next_insert_key(&self) -> Key {
        self.next_insert.fetch_add(1, SeqCst)
    }

    fn slot(&self, k: Key) -> &Slot {
        &self.slots[(k - 1) as usize]
    }

    /// Lower bound for a read of loaded key `k` issued now.
    #[inline]
    pub fn lower(&self, k: Key) -> Value {
        self.slot(k).acked.load(SeqCst)
    }

    /// Records that a write of `v` to loaded key `k` is about to be issued.
    #[inline]
    pub fn submit(&self, k: Key, v: Value) {
        self.slot(k).pending.store(v, SeqCst);
    }

    /// Records that the write of `v` to loaded key `k` was acknowledged.
    #[inline]
    pub fn ack(&self, k: Key, v: Value) {
        self.slot(k).acked.store(v, SeqCst);
    }

    /// Records an insert that failed, so the key must stay absent.
    pub fn insert_failed(&self, k: Key) {
        self.failed_inserts
            .lock()
            .expect("model lock poisoned by a panicking worker")
            .push(k);
    }

    /// Checks one returned pair; `lower` is the bound read before the call
    /// (ignored for inserted keys, whose value never changes).
    pub fn check_value(&self, k: Key, lower: Value, v: Value) -> Result<(), String> {
        if k == 0 {
            return Err("key 0 was never loaded or inserted".into());
        }
        if k > self.keys {
            return if k >= self.next_insert.load(SeqCst) {
                Err(format!("key {k} was never loaded or inserted"))
            } else if v != value_of(k, 0) {
                Err(format!(
                    "inserted key {k}: value {v:#x}, expected {:#x}",
                    value_of(k, 0)
                ))
            } else {
                Ok(())
            };
        }
        let upper = self.slot(k).pending.load(SeqCst);
        if v & ((1 << TAG_BITS) - 1) != tag(k) || v < lower || v > upper {
            return Err(format!(
                "key {k}: value {v:#x} outside acknowledged [{lower:#x}, {upper:#x}]"
            ));
        }
        Ok(())
    }

    /// Checks a `find` result.
    pub fn check_find(&self, k: Key, lower: Value, got: Option<Value>) -> Result<(), String> {
        match got {
            Some(v) => self.check_value(k, lower, v),
            None => Err(format!("find({k}) missed a loaded key")),
        }
    }

    /// Fills `lower` with the bounds of the loaded keys a `scan_n(start,
    /// len)` must return first.
    pub fn scan_lower(&self, start: Key, len: usize, lower: &mut Vec<Value>) {
        lower.clear();
        let mut k = start.max(1);
        while lower.len() < len && k <= self.keys {
            lower.push(self.lower(k));
            k += 1;
        }
    }

    /// Checks a `scan_n(start, len)` result: strictly ascending, the loaded
    /// keys from `start` without a gap, then only inserted keys, each with
    /// a correct value.
    pub fn check_scan(
        &self,
        start: Key,
        len: usize,
        lower: &[Value],
        out: &[(Key, Value)],
    ) -> Result<(), String> {
        if out.len() > len || out.len() < lower.len() {
            return Err(format!(
                "scan_n({start}, {len}) returned {} pairs, expected at least {}",
                out.len(),
                lower.len()
            ));
        }
        let first = start.max(1);
        for (i, &(k, v)) in out.iter().enumerate() {
            if i > 0 && k <= out[i - 1].0 {
                return Err(format!("scan_n({start}) not strictly ascending at {k}"));
            }
            if i < lower.len() {
                if k != first + i as u64 {
                    return Err(format!(
                        "scan_n({start}) returned {k} where {} was due",
                        first + i as u64
                    ));
                }
                self.check_value(k, lower[i], v)?;
            } else if k <= self.keys {
                return Err(format!(
                    "scan_n({start}) returned loaded key {k} out of order"
                ));
            } else {
                self.check_value(k, 0, v)?;
            }
        }
        Ok(())
    }

    /// Scans the whole (quiescent) index and checks it holds exactly the
    /// model: every loaded key with its last acknowledged value (or the
    /// value of a write that failed after submission), every acknowledged
    /// insert and nothing else. Returns the number of pairs.
    pub fn check_full<I: PersistentIndex + ?Sized>(&self, index: &I) -> Result<u64, String> {
        let mut failed = self
            .failed_inserts
            .lock()
            .expect("model lock poisoned")
            .clone();
        failed.sort_unstable();
        let end = self.next_insert.load(SeqCst);
        let mut want_inserted = (self.keys + 1..end).filter(|k| failed.binary_search(k).is_err());
        let (mut next_loaded, mut count, mut from) = (1u64, 0u64, 0u64);
        let mut out = Vec::with_capacity(4096);
        loop {
            index.scan_n(from, 4096, &mut out);
            for &(k, v) in &out {
                if k <= self.keys {
                    if k != next_loaded {
                        return Err(format!(
                            "after recovery: loaded key {next_loaded} missing (found {k})"
                        ));
                    }
                    let s = self.slot(k);
                    let (acked, pending) = (s.acked.load(SeqCst), s.pending.load(SeqCst));
                    if v != acked && v != pending {
                        return Err(format!(
                            "after recovery: key {k} holds {v:#x}, acknowledged {acked:#x}"
                        ));
                    }
                    next_loaded += 1;
                } else if Some(k) != want_inserted.next() {
                    return Err(format!(
                        "after recovery: inserted key {k} unexpected or out of order"
                    ));
                } else if v != value_of(k, 0) {
                    return Err(format!("after recovery: inserted key {k} holds {v:#x}"));
                }
                count += 1;
            }
            match out.last() {
                Some(&(k, _)) if out.len() == 4096 => from = k + 1,
                _ => break,
            }
        }
        if next_loaded != self.keys + 1 {
            return Err(format!("after recovery: loaded key {next_loaded} missing"));
        }
        if let Some(k) = want_inserted.next() {
            return Err(format!("after recovery: acknowledged insert {k} missing"));
        }
        Ok(count)
    }
}
