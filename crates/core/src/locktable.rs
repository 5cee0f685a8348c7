//! The lock table: per-key FIFO queues driving deterministic scheduling.
//!
//! The paper's `lock table` (§III-C, Fig. 2) is a set of queues, one per
//! key. The single queuer thread enqueues every update transaction into the
//! queues of all keys in its key-set, in the agreed order; a transaction at
//! the head of *all* its queues conflicts with no running transaction and
//! is safe to execute. Workers pop such transactions from a `ready queue`,
//! execute them, and on completion advance the queues — decrementing the
//! successor's `total locks` counter and publishing newly-ready
//! transactions — using only atomics (there is no logical contention
//! between workers and the queuer: the queues are frozen once the batch is
//! built).
//!
//! # Linked queues
//!
//! Every per-key queue is a linked list threaded through one arena of
//! `(tx, key)` entries. Each enqueued transaction owns a contiguous span
//! of entries, one per distinct key of its key-set, and an entry holds the
//! transaction queued *next* on that key, if any. The builder keeps only
//! `key → entry of its last locker`: enqueueing a key that already has a
//! locker writes the new transaction into that locker's entry and counts
//! one more predecessor for the new transaction. A transaction with no
//! predecessor heads all its queues and is ready at freeze; releasing a
//! transaction walks its own span and decrements each successor's count.
//! The frozen table is never keyed by `Key` — `release` is pure array
//! indexing — and its links are the predicted conflict graph's edges.

use crossbeam::queue::SegQueue;
use prognosticator_txir::Key;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Index of a transaction within the current scheduling round.
pub type TxIdx = u32;

/// Pluggable selection among currently-ready transactions — the schedule-
/// exploration seam used by the testkit's fuzzer.
///
/// All transactions in the ready queue are mutually non-conflicting, so
/// *any* pick order is a legal schedule: the engine's determinism claim is
/// precisely that every pick order yields the same outcome vector and
/// store state. A policy only reorders consumption; it never invents or
/// drops transactions. The production default is [`FifoPolicy`].
pub trait ReadyPolicy: Send + Sync + std::fmt::Debug {
    /// How many ready candidates to consider per pick. `1` degenerates to
    /// plain FIFO with no extra queue traffic.
    fn window(&self) -> usize {
        1
    }

    /// Chooses one of `candidates` (guaranteed non-empty, at most
    /// [`ReadyPolicy::window`] long), returning its index into the slice.
    fn choose(&self, candidates: &[TxIdx]) -> usize;
}

/// Production policy: strict FIFO consumption of the ready queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoPolicy;

impl ReadyPolicy for FifoPolicy {
    fn choose(&self, _candidates: &[TxIdx]) -> usize {
        0
    }
}

/// Fuzzing policy: picks pseudo-randomly within a window of ready
/// transactions, driven by a seed and a per-pick counter (SplitMix64).
///
/// Different seeds explore different legal schedules; the same seed does
/// *not* replay the same global schedule (the window contents depend on
/// worker timing) — the point is adversarial perturbation, with the
/// determinism oracle asserting the outcome is schedule-independent.
#[derive(Debug)]
pub struct SeededShufflePolicy {
    seed: u64,
    counter: AtomicU64,
    window: usize,
}

impl SeededShufflePolicy {
    /// A shuffling policy drawing from windows of up to `window` ready
    /// transactions.
    pub fn new(seed: u64, window: usize) -> Self {
        SeededShufflePolicy { seed, counter: AtomicU64::new(0), window: window.max(1) }
    }

    /// The policy's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl ReadyPolicy for SeededShufflePolicy {
    fn window(&self) -> usize {
        self.window
    }

    fn choose(&self, candidates: &[TxIdx]) -> usize {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let mut z = self.seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % candidates.len() as u64) as usize
    }
}

/// The successor of an entry that is the tail of its key's queue.
const NO_TX: TxIdx = TxIdx::MAX;

/// One transaction's locks: its span of the entry arena, its predecessor
/// count and its release flag.
#[derive(Debug, Default)]
struct TxLocks {
    start: u32,
    len: u32,
    /// Whether the transaction surfaces on the foreign-ready queue (a
    /// cross-shard participant) instead of the workers' ready queue.
    foreign: bool,
    /// Predecessors not yet released: the number of queues the
    /// transaction does not head yet (the paper's `total locks`).
    remaining: AtomicU32,
    /// Guards against double release, which would decrement successors'
    /// counts twice and grant them while a predecessor still runs.
    released: AtomicBool,
}

/// Build-phase lock table: single-threaded and mutable.
///
/// `enqueue` + [`freeze`](LockTableBuilder::freeze) produce one table and
/// leave the builder empty for the next build; a long-lived builder keeps
/// the capacity of its key map.
#[derive(Debug, Default)]
pub struct LockTableBuilder {
    /// Key → (entry of its last locker, whether its queue holds more than
    /// one transaction). Cleared at every freeze.
    last: HashMap<Key, (u32, bool)>,
    /// The entry arena: per `(tx, key)` entry, the transaction queued next
    /// on that key.
    next: Vec<TxIdx>,
    /// Enqueued transactions, in enqueue order.
    txs: Vec<(TxIdx, TxLocks)>,
    /// Keys whose queue holds more than one transaction.
    contended: u64,
}

impl LockTableBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `tx` into the queue of every key in `keys`, in the agreed
    /// order. Duplicate keys within one transaction's key-set are dropped
    /// (first occurrence wins): a duplicate would queue the transaction
    /// behind itself, so it would never become ready and the batch would
    /// hang.
    pub fn enqueue(&mut self, tx: TxIdx, keys: Vec<Key>) {
        self.enqueue_inner(tx, keys, false);
    }

    /// Enqueues a **cross-shard** transaction's local key subset. The
    /// frozen table will surface its readiness on the foreign-ready
    /// queue ([`LockTable::pop_foreign_ready`]) instead of the worker
    /// ready queue: cross-shard transactions execute only via the
    /// queuer's exchange, once *every* owner shard has signalled.
    pub fn enqueue_foreign(&mut self, tx: TxIdx, keys: Vec<Key>) {
        self.enqueue_inner(tx, keys, true);
    }

    fn enqueue_inner(&mut self, tx: TxIdx, keys: Vec<Key>, foreign: bool) {
        let start = self.next.len() as u32;
        let mut preds = 0;
        for key in keys {
            let entry = self.next.len() as u32;
            match self.last.entry(key) {
                Entry::Vacant(v) => {
                    v.insert((entry, false));
                }
                // The last locker's entry lies in this transaction's own
                // span: a duplicate key.
                Entry::Occupied(o) if o.get().0 >= start => continue,
                Entry::Occupied(mut o) => {
                    let (last, contended) = o.get_mut();
                    self.next[*last as usize] = tx;
                    *last = entry;
                    if !*contended {
                        *contended = true;
                        self.contended += 1;
                    }
                    preds += 1;
                }
            }
            self.next.push(NO_TX);
        }
        let len = self.next.len() as u32 - start;
        let remaining = AtomicU32::new(preds);
        self.txs.push((tx, TxLocks { start, len, foreign, remaining, ..TxLocks::default() }));
    }

    /// Freezes the table for concurrent execution and publishes, in
    /// enqueue order, every transaction with no predecessor. The builder
    /// is left empty.
    pub fn freeze(&mut self, max_tx: usize) -> LockTable {
        let mut txs: Vec<TxLocks> = (0..max_tx).map(|_| TxLocks::default()).collect();
        let (ready, foreign_ready) = (SegQueue::new(), SegQueue::new());
        for (tx, mut locks) in self.txs.drain(..) {
            if *locks.remaining.get_mut() == 0 {
                let queue = if locks.foreign { &foreign_ready } else { &ready };
                queue.push(tx);
            }
            txs[tx as usize] = locks;
        }
        self.last.clear();
        let capacity = self.next.len();
        let next = std::mem::replace(&mut self.next, Vec::with_capacity(capacity));
        let contended = std::mem::take(&mut self.contended);
        LockTable { next, txs, ready, foreign_ready, contended }
    }
}

/// Frozen lock table: the entry arena plus per-transaction atomic counters,
/// all indexed by entry or transaction index.
#[derive(Debug)]
pub struct LockTable {
    /// The entry arena: per `(tx, key)` entry, the transaction queued next
    /// on that key.
    next: Vec<TxIdx>,
    /// Per-transaction locks, indexed by transaction.
    txs: Vec<TxLocks>,
    ready: SegQueue<TxIdx>,
    /// Ready cross-shard transactions, for the queuer's barrier exchange.
    foreign_ready: SegQueue<TxIdx>,
    /// Keys whose queue holds more than one transaction.
    contended: u64,
}

impl LockTable {
    /// Pops a ready transaction, if any. Ready transactions are mutually
    /// non-conflicting and safe to execute concurrently.
    pub fn pop_ready(&self) -> Option<TxIdx> {
        self.ready.pop()
    }

    /// Pops a ready **cross-shard** transaction. Only the queuer's
    /// deterministic barrier exchange consumes this queue: a cross-shard
    /// transaction is executable once it has surfaced on the foreign-ready
    /// queue of *every* owner shard.
    pub fn pop_foreign_ready(&self) -> Option<TxIdx> {
        self.foreign_ready.pop()
    }

    /// Pops a ready transaction chosen by `policy` — the schedule-
    /// exploration seam. Up to `policy.window()` ready transactions are
    /// drained, one is chosen, and the rest are re-queued; this is safe
    /// because every ready transaction is non-conflicting with every
    /// other, so consumption order is unconstrained.
    pub fn pop_ready_with(&self, policy: &dyn ReadyPolicy) -> Option<TxIdx> {
        let window = policy.window().max(1);
        if window == 1 {
            return self.ready.pop();
        }
        let mut candidates = Vec::with_capacity(window);
        while candidates.len() < window {
            match self.ready.pop() {
                Some(tx) => candidates.push(tx),
                None => break,
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let pick = policy.choose(&candidates).min(candidates.len() - 1);
        let chosen = candidates.swap_remove(pick);
        for tx in candidates {
            self.ready.push(tx);
        }
        Some(chosen)
    }

    /// Releases `tx`'s locks after it committed **or aborted**: decrements
    /// the count of its successor on each of its keys and publishes any
    /// successor that became ready.
    ///
    /// The successors are visited in the transaction's key-set order — a
    /// fixed, replica-independent order — so an aborting transaction
    /// (workload bug or injected worker panic) unblocks its successors
    /// exactly as a committing one would, on every replica.
    ///
    /// # Panics
    /// Panics (debug) if `tx` was already released — a double release
    /// would silently corrupt successors' lock counts — or if `tx` does
    /// not yet head all its queues. In release builds a double release is
    /// ignored instead of corrupting the schedule.
    pub fn release(&self, tx: TxIdx) {
        let locks = &self.txs[tx as usize];
        let was_released = locks.released.swap(true, Ordering::AcqRel);
        debug_assert!(!was_released, "double release of tx {tx}");
        if was_released {
            return;
        }
        debug_assert_eq!(locks.remaining.load(Ordering::Acquire), 0, "release out of order: {tx}");
        let (start, len) = (locks.start as usize, locks.len as usize);
        for &succ in &self.next[start..start + len] {
            if succ == NO_TX {
                continue;
            }
            let succ_locks = &self.txs[succ as usize];
            if succ_locks.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let queue = if succ_locks.foreign { &self.foreign_ready } else { &self.ready };
                queue.push(succ);
            }
        }
    }

    /// Number of contended keys this round: queues holding more than one
    /// transaction. A pure function of the frozen build (batch contents
    /// and enqueue order), never of worker timing — safe to export as a
    /// deterministic metric.
    pub fn contended_keys(&self) -> u64 {
        self.contended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosticator_txir::TableId;

    fn k(i: i64) -> Key {
        Key::of_ints(TableId(0), &[i])
    }

    fn drain_ready(t: &LockTable) -> Vec<TxIdx> {
        let mut out = Vec::new();
        while let Some(x) = t.pop_ready() {
            out.push(x);
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn disjoint_txs_all_ready() {
        let mut b = LockTableBuilder::new();
        b.enqueue(0, vec![k(1), k(2)]);
        b.enqueue(1, vec![k(3)]);
        b.enqueue(2, vec![k(4), k(5)]);
        let t = b.freeze(3);
        assert_eq!(drain_ready(&t), vec![0, 1, 2]);
        assert_eq!(t.contended_keys(), 0);
    }

    #[test]
    fn conflicting_txs_serialize_in_order() {
        // The paper's Fig. 2 shape: tx0 and tx1 disjoint, tx2 behind both.
        let mut b = LockTableBuilder::new();
        b.enqueue(0, vec![k(1), k(2)]);
        b.enqueue(1, vec![k(3)]);
        b.enqueue(2, vec![k(2), k(3)]);
        let t = b.freeze(3);
        assert_eq!(drain_ready(&t), vec![0, 1]);
        t.release(0);
        assert_eq!(drain_ready(&t), vec![], "tx2 still waits on k3");
        t.release(1);
        assert_eq!(drain_ready(&t), vec![2]);
        t.release(2);
        assert_eq!(drain_ready(&t), vec![]);
    }

    #[test]
    fn chain_of_conflicts_preserves_order() {
        let mut b = LockTableBuilder::new();
        for i in 0..5 {
            b.enqueue(i, vec![k(9)]);
        }
        let t = b.freeze(5);
        for expect in 0..5 {
            let ready = drain_ready(&t);
            assert_eq!(ready, vec![expect]);
            t.release(expect);
        }
    }

    #[test]
    fn empty_keyset_is_trivially_ready() {
        let mut b = LockTableBuilder::new();
        b.enqueue(0, vec![]);
        b.enqueue(1, vec![k(1)]);
        let t = b.freeze(2);
        assert_eq!(drain_ready(&t), vec![0, 1]);
    }

    #[test]
    fn release_after_abort_unblocks_successors() {
        let mut b = LockTableBuilder::new();
        b.enqueue(0, vec![k(1)]);
        b.enqueue(1, vec![k(1)]);
        let t = b.freeze(2);
        assert_eq!(drain_ready(&t), vec![0]);
        // tx0 aborts — release still advances the queue.
        t.release(0);
        assert_eq!(drain_ready(&t), vec![1]);
    }

    #[test]
    fn duplicate_keys_in_one_keyset_do_not_double_enqueue() {
        // Regression: a duplicate key used to enqueue the transaction
        // twice on one queue; its lock count could then never reach zero
        // (it waited behind itself) and the batch hung.
        let mut b = LockTableBuilder::new();
        b.enqueue(0, vec![k(1), k(1), k(2)]);
        b.enqueue(1, vec![k(1)]);
        let t = b.freeze(2);
        assert_eq!(t.contended_keys(), 1, "k(1) queues tx0 once, then tx1");
        assert_eq!(drain_ready(&t), vec![0], "tx0 is ready despite the dup");
        t.release(0);
        assert_eq!(drain_ready(&t), vec![1], "tx1 unblocks after one release");
        t.release(1);
    }

    #[test]
    fn foreign_txs_surface_on_foreign_ready_only() {
        let mut b = LockTableBuilder::new();
        // tx0: local head of k(1); tx1: cross-shard participant behind it;
        // tx2: cross-shard participant at the head of k(2).
        b.enqueue(0, vec![k(1)]);
        b.enqueue_foreign(1, vec![k(1)]);
        b.enqueue_foreign(2, vec![k(2)]);
        let t = b.freeze(3);
        assert_eq!(drain_ready(&t), vec![0], "workers only see local txs");
        assert_eq!(t.pop_foreign_ready(), Some(2), "foreign head signals the queuer");
        assert_eq!(t.pop_foreign_ready(), None);
        // Releasing the local predecessor surfaces the foreign successor
        // on the foreign-ready queue, never on the worker queue.
        t.release(0);
        assert_eq!(drain_ready(&t), vec![]);
        assert_eq!(t.pop_foreign_ready(), Some(1));
        t.release(1);
        t.release(2);
    }

    #[test]
    fn foreign_empty_keyset_is_trivially_foreign_ready() {
        let mut b = LockTableBuilder::new();
        b.enqueue_foreign(0, vec![]);
        let t = b.freeze(1);
        assert_eq!(drain_ready(&t), vec![]);
        assert_eq!(t.pop_foreign_ready(), Some(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double release")]
    fn double_release_panics_in_debug() {
        let mut b = LockTableBuilder::new();
        b.enqueue(0, vec![k(1)]);
        b.enqueue(1, vec![k(1)]);
        let t = b.freeze(2);
        t.release(0);
        t.release(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "release out of order")]
    fn releasing_a_blocked_tx_panics_in_debug() {
        // tx1 waits behind tx0 on k(1); releasing it first would hand k(2)
        // on to tx2 while tx1 never held k(1).
        let mut b = LockTableBuilder::new();
        b.enqueue(0, vec![k(1)]);
        b.enqueue(1, vec![k(1), k(2)]);
        b.enqueue(2, vec![k(2)]);
        let t = b.freeze(3);
        assert_eq!(drain_ready(&t), vec![0]);
        t.release(1);
    }

    #[test]
    fn double_release_does_not_corrupt_counts() {
        // Regression: a second release of tx0 used to advance k(1)'s
        // queue again, decrementing tx2's count while tx1 still held the
        // key — tx1 and tx2 would then run concurrently on one key.
        let mut b = LockTableBuilder::new();
        b.enqueue(0, vec![k(1)]);
        b.enqueue(1, vec![k(1)]);
        b.enqueue(2, vec![k(1)]);
        let t = b.freeze(3);
        assert_eq!(drain_ready(&t), vec![0]);
        t.release(0);
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.release(0)));
        if cfg!(debug_assertions) {
            second.expect_err("double release asserts in debug builds");
        } else {
            second.expect("double release is ignored in release builds");
        }
        // Only tx1 may be ready; tx2 still waits behind it.
        assert_eq!(drain_ready(&t), vec![1]);
        t.release(1);
        assert_eq!(drain_ready(&t), vec![2]);
    }

    #[test]
    fn fifo_policy_matches_pop_ready() {
        let mut b = LockTableBuilder::new();
        for i in 0..4 {
            b.enqueue(i, vec![k(i64::from(i))]);
        }
        let t = b.freeze(4);
        let mut seen = Vec::new();
        while let Some(x) = t.pop_ready_with(&FifoPolicy) {
            seen.push(x);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shuffle_policy_loses_no_transactions() {
        let policy = SeededShufflePolicy::new(42, 3);
        let mut b = LockTableBuilder::new();
        for i in 0..16 {
            b.enqueue(i, vec![k(i64::from(i))]);
        }
        let t = b.freeze(16);
        let mut seen = Vec::new();
        while let Some(x) = t.pop_ready_with(&policy) {
            seen.push(x);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_policy_respects_conflicts() {
        // A chain on one key stays serialized no matter the policy: the
        // ready queue never holds two conflicting transactions at once.
        let policy = SeededShufflePolicy::new(7, 4);
        let mut b = LockTableBuilder::new();
        for i in 0..5 {
            b.enqueue(i, vec![k(9)]);
        }
        let t = b.freeze(5);
        for expect in 0..5 {
            let got = t.pop_ready_with(&policy).expect("head is ready");
            assert_eq!(got, expect);
            assert_eq!(t.pop_ready_with(&policy), None);
            t.release(expect);
        }
    }

    #[test]
    fn seeds_produce_distinct_choices() {
        let a = SeededShufflePolicy::new(1, 8);
        let b = SeededShufflePolicy::new(2, 8);
        let candidates: Vec<TxIdx> = (0..8).collect();
        let picks = |p: &SeededShufflePolicy| -> Vec<usize> {
            (0..64).map(|_| p.choose(&candidates)).collect()
        };
        assert_ne!(picks(&a), picks(&b));
    }

    #[test]
    fn concurrent_release_is_safe() {
        use std::sync::Arc;
        // 64 disjoint chains of 2; release the heads from 8 threads.
        let mut b = LockTableBuilder::new();
        for i in 0..64u32 {
            b.enqueue(i, vec![k(i64::from(i))]);
            b.enqueue(64 + i, vec![k(i64::from(i))]);
        }
        let t = Arc::new(b.freeze(128));
        let heads: Vec<TxIdx> = (0..64).collect();
        let mut handles = Vec::new();
        for chunk in heads.chunks(8) {
            let t = Arc::clone(&t);
            let chunk = chunk.to_vec();
            handles.push(std::thread::spawn(move || {
                for tx in chunk {
                    t.release(tx);
                }
            }));
        }
        for h in handles {
            h.join().expect("release thread");
        }
        let mut ready = Vec::new();
        while let Some(x) = t.pop_ready() {
            ready.push(x);
        }
        // First 64 were ready at freeze; after releases the other 64 are.
        assert_eq!(ready.len(), 128);
    }
}
