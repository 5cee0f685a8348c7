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
//! between workers and the queuer: the queue vectors are frozen once the
//! batch is built).
//!
//! # Arena layout and buffer recycling
//!
//! Keys are *interned* at enqueue time: the builder maps each distinct key
//! to a dense `u32` id, and every downstream structure is a flat vector
//! indexed by that id (queues) or by transaction index (spans into one
//! shared key-id arena). Nothing in the frozen table is keyed by `Key`
//! hashing on the hot path — `release` walks `keyset_ids[span]` and
//! advances `queues[id]` with pure array indexing.
//!
//! Because batches arrive forever, the allocations behind a frozen table
//! are worth keeping: [`LockTableBuilder::recycle`] takes a spent
//! [`LockTable`] apart and reclaims every vector (per-key queues, the
//! key-id arena, the per-transaction counters) for the next build.
//! [`LockTableBuilder::stats`] counts fresh allocations so tests can
//! assert the steady state allocates nothing new.

use crossbeam::queue::SegQueue;
use prognosticator_txir::Key;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

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

/// The builder's allocation-reuse ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuilderStats {
    /// Per-key queue vectors created fresh (not taken from the recycled
    /// pool) over the builder's lifetime. A recycling steady state stops
    /// growing this.
    pub fresh_queues: u64,
    /// Spent tables whose buffers were reclaimed via
    /// [`LockTableBuilder::recycle`].
    pub recycles: u64,
    /// Duplicate keys dropped by per-transaction dedup in
    /// [`LockTableBuilder::enqueue`].
    pub duplicates_dropped: u64,
}

/// Build-phase lock table: single-threaded, mutable, reusable.
///
/// One builder is intended to live as long as its engine: `enqueue` +
/// [`freeze`](LockTableBuilder::freeze) produce a table per scheduling
/// round, and [`recycle`](LockTableBuilder::recycle) reclaims the table's
/// buffers once the round retires, so the steady state builds lock tables
/// without allocating.
#[derive(Debug, Default)]
pub struct LockTableBuilder {
    /// Which key-space shard this builder (and every table it freezes)
    /// belongs to. Buffer pools are strictly per-shard: recycling a table
    /// across shards would alias stale interned keyset ids between
    /// unrelated key spaces and silently corrupt queues.
    shard: u32,
    /// Key → dense id for the build in progress. Cleared (capacity kept)
    /// at every freeze.
    intern: HashMap<Key, u32>,
    /// id → key for the build in progress.
    keys: Vec<Key>,
    /// Per-key-id queues, parallel to `keys`. Cursors are all zero until
    /// freeze hands the queues to workers.
    queues: Vec<FrozenQueue>,
    /// Reclaimed queue vectors awaiting reuse.
    spare_queues: Vec<FrozenQueue>,
    /// Flat arena of interned key ids; each transaction's key-set is a
    /// `(start, len)` span into it.
    keyset_ids: Vec<u32>,
    /// `(tx, start, len)` per enqueued transaction.
    spans: Vec<(TxIdx, u32, u32)>,
    /// Parallel to `spans`: whether the transaction was enqueued as a
    /// cross-shard (foreign) participant.
    span_foreign: Vec<bool>,
    /// Reclaimed per-transaction buffers.
    spare_tx_spans: Vec<(u32, u32)>,
    spare_remaining: Vec<AtomicU32>,
    spare_released: Vec<AtomicBool>,
    spare_foreign: Vec<bool>,
    stats: BuilderStats,
}

impl LockTableBuilder {
    /// An empty builder for shard 0 (the unsharded configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder pinned to one key-space shard. Tables frozen from
    /// it carry the shard tag and can only be recycled back into a
    /// builder of the same shard.
    pub fn with_shard(shard: u32) -> Self {
        LockTableBuilder { shard, ..Self::default() }
    }

    /// The builder's shard tag.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Enqueues `tx` into the queue of every key in `keys`, in the agreed
    /// order. Duplicate keys within one transaction's key-set are dropped
    /// (first occurrence wins): a duplicate would enqueue the transaction
    /// twice on one key, leaving its lock count permanently above zero —
    /// it would never become ready and the batch would hang.
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
        let start = self.keyset_ids.len() as u32;
        for key in keys {
            let id = match self.intern.get(&key) {
                Some(&id) => id,
                None => {
                    let id = self.keys.len() as u32;
                    let queue = self.spare_queues.pop().unwrap_or_else(|| {
                        self.stats.fresh_queues += 1;
                        FrozenQueue { txs: Vec::new(), cursor: AtomicUsize::new(0) }
                    });
                    self.queues.push(queue);
                    self.intern.insert(key.clone(), id);
                    self.keys.push(key);
                    id
                }
            };
            // Per-tx dedup: spans are short (a transaction's key-set), so a
            // linear scan of the span built so far beats a side table.
            if self.keyset_ids[start as usize..].contains(&id) {
                self.stats.duplicates_dropped += 1;
                continue;
            }
            self.keyset_ids.push(id);
            self.queues[id as usize].txs.push(tx);
        }
        self.spans.push((tx, start, self.keyset_ids.len() as u32 - start));
        self.span_foreign.push(foreign);
    }

    /// Freezes the table for concurrent execution and computes the
    /// initially-ready transactions. The builder is left empty (buffers
    /// retained) and can immediately start the next build.
    pub fn freeze(&mut self, max_tx: usize) -> LockTable {
        let mut tx_spans = std::mem::take(&mut self.spare_tx_spans);
        tx_spans.clear();
        tx_spans.resize(max_tx, (0, 0));
        let mut remaining = std::mem::take(&mut self.spare_remaining);
        remaining.truncate(max_tx);
        for r in &remaining {
            r.store(0, Ordering::Relaxed);
        }
        while remaining.len() < max_tx {
            remaining.push(AtomicU32::new(0));
        }
        let mut released = std::mem::take(&mut self.spare_released);
        released.truncate(max_tx);
        for r in &released {
            r.store(false, Ordering::Relaxed);
        }
        while released.len() < max_tx {
            released.push(AtomicBool::new(false));
        }
        let mut foreign = std::mem::take(&mut self.spare_foreign);
        foreign.clear();
        foreign.resize(max_tx, false);

        for (n, &(tx, start, len)) in self.spans.iter().enumerate() {
            remaining[tx as usize].store(len, Ordering::Relaxed);
            tx_spans[tx as usize] = (start, len);
            foreign[tx as usize] = self.span_foreign[n];
        }
        let ready = SegQueue::new();
        let foreign_ready = SegQueue::new();
        let publish = |tx: TxIdx| {
            if foreign[tx as usize] {
                foreign_ready.push(tx);
            } else {
                ready.push(tx);
            }
        };
        for &(tx, _, len) in &self.spans {
            // A transaction with an empty key-set is trivially ready.
            if len == 0 {
                publish(tx);
            }
        }
        self.spans.clear();
        self.span_foreign.clear();
        self.intern.clear();
        let keys = std::mem::take(&mut self.keys);
        let queues = std::mem::take(&mut self.queues);
        let keyset_ids = std::mem::take(&mut self.keyset_ids);
        // Transactions at the head of all their queues are ready.
        for q in &queues {
            if let Some(&head) = q.txs.first() {
                if remaining[head as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    publish(head);
                }
            }
        }
        LockTable {
            shard: self.shard,
            keys,
            queues,
            keyset_ids,
            tx_spans,
            remaining,
            released,
            foreign,
            ready,
            foreign_ready,
        }
    }

    /// Reclaims a spent table's buffers for the next build. Call once the
    /// round is fully retired (every enqueued transaction released); the
    /// table's queues, key-id arena and per-transaction counters all go
    /// back into the builder's pools.
    ///
    /// # Panics
    /// Panics if the table was frozen by a builder of a *different*
    /// shard: buffer pools are strictly per-shard, because a migrated
    /// buffer's stale interned keyset ids would alias keys of an
    /// unrelated key space and silently corrupt the next build's queues.
    pub fn recycle(&mut self, table: LockTable) {
        assert_eq!(
            table.shard, self.shard,
            "lock-table buffers must not migrate across shards (table shard {} vs builder shard {})",
            table.shard, self.shard,
        );
        let LockTable {
            shard: _,
            mut keys,
            mut queues,
            mut keyset_ids,
            mut tx_spans,
            remaining,
            released,
            mut foreign,
            ready: _,
            foreign_ready: _,
        } = table;
        for q in queues.drain(..) {
            let mut q = q;
            q.txs.clear();
            q.cursor.store(0, Ordering::Relaxed);
            self.spare_queues.push(q);
        }
        keys.clear();
        keyset_ids.clear();
        tx_spans.clear();
        foreign.clear();
        // Only adopt buffers when the builder's own are fresh takes — a
        // recycle right after `new()` must not leak previously adopted
        // capacity.
        self.keys = keys;
        self.keyset_ids = keyset_ids;
        self.spare_tx_spans = tx_spans;
        self.spare_remaining = remaining;
        self.spare_released = released;
        self.spare_foreign = foreign;
        if self.queues.is_empty() {
            // Keep the outer vector's capacity for the next build.
            self.queues = queues;
        }
        self.stats.recycles += 1;
    }

    /// The allocation-reuse ledger.
    pub fn stats(&self) -> BuilderStats {
        self.stats
    }
}

#[derive(Debug)]
struct FrozenQueue {
    txs: Vec<TxIdx>,
    /// Index of the current head within `txs`.
    cursor: AtomicUsize,
}

/// Frozen lock table: shared read-only structure plus atomic cursors.
///
/// All hot-path state is indexed by dense ids — `queues` by interned key
/// id, counters by transaction index — so `release` touches no hash table.
#[derive(Debug)]
pub struct LockTable {
    /// Shard whose builder froze this table; `recycle` refuses buffers
    /// from any other shard.
    shard: u32,
    /// Interned id → key (diagnostics; the hot path never consults it).
    keys: Vec<Key>,
    /// Per-key-id FIFO queues.
    queues: Vec<FrozenQueue>,
    /// Flat arena of key ids; per-transaction spans index into it.
    keyset_ids: Vec<u32>,
    /// Per-transaction `(start, len)` span into `keyset_ids`.
    tx_spans: Vec<(u32, u32)>,
    /// Per-transaction count of queues it is not yet at the head of (the
    /// paper's `total locks`).
    remaining: Vec<AtomicU32>,
    ready: SegQueue<TxIdx>,
    /// Per-transaction release flag guarding against double release (a
    /// double release would advance queue cursors past unfinished
    /// successors and corrupt their `remaining` counts).
    released: Vec<AtomicBool>,
    /// Per-transaction cross-shard flag: a foreign (cross-shard)
    /// transaction that becomes ready surfaces on `foreign_ready` for the
    /// queuer's barrier exchange instead of the workers' `ready` queue.
    foreign: Vec<bool>,
    foreign_ready: SegQueue<TxIdx>,
}

impl LockTable {
    fn span(&self, tx: TxIdx) -> &[u32] {
        let (start, len) = self.tx_spans[tx as usize];
        &self.keyset_ids[start as usize..(start + len) as usize]
    }

    /// Shard whose builder froze this table.
    pub fn shard(&self) -> u32 {
        self.shard
    }

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

    /// Releases `tx`'s locks after it committed **or aborted**: advances
    /// each of its queues and publishes any successor that became ready.
    ///
    /// The queues are advanced in the transaction's key-set order — a
    /// fixed, replica-independent order — so an aborting transaction
    /// (workload bug or injected worker panic) unblocks its successors
    /// exactly as a committing one would, on every replica.
    ///
    /// # Panics
    /// Panics (debug) if `tx` was already released — a double release
    /// would silently corrupt successors' lock counts — or if `tx` is not
    /// at the head of one of its queues. In release builds a double
    /// release is ignored instead of corrupting the schedule.
    pub fn release(&self, tx: TxIdx) {
        let was_released = self.released[tx as usize].swap(true, Ordering::AcqRel);
        debug_assert!(!was_released, "double release of tx {tx}");
        if was_released {
            return;
        }
        for &key_id in self.span(tx) {
            let q = &self.queues[key_id as usize];
            let cur = q.cursor.load(Ordering::Acquire);
            debug_assert_eq!(q.txs.get(cur), Some(&tx), "release out of order");
            let next = cur + 1;
            q.cursor.store(next, Ordering::Release);
            if let Some(&succ) = q.txs.get(next) {
                if self.remaining[succ as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    if self.foreign[succ as usize] {
                        self.foreign_ready.push(succ);
                    } else {
                        self.ready.push(succ);
                    }
                }
            }
        }
    }

    /// The key-set `tx` was enqueued with (first-occurrence order, after
    /// per-transaction dedup).
    pub fn key_set(&self, tx: TxIdx) -> impl Iterator<Item = &Key> + '_ {
        self.span(tx).iter().map(move |&id| &self.keys[id as usize])
    }

    /// Number of distinct keys with queues.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of contended keys this round: queues holding more than one
    /// transaction. A pure function of the frozen build (batch contents
    /// and enqueue order), never of worker timing — safe to export as a
    /// deterministic metric.
    pub fn contended_keys(&self) -> u64 {
        self.queues.iter().filter(|q| q.txs.len() > 1).count() as u64
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
        assert_eq!(t.key_count(), 5);
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
        // (only one queue head covers both entries) and the batch hung.
        let mut b = LockTableBuilder::new();
        b.enqueue(0, vec![k(1), k(1), k(2)]);
        b.enqueue(1, vec![k(1)]);
        let t = b.freeze(2);
        assert_eq!(b.stats().duplicates_dropped, 1);
        let keys0: Vec<Key> = t.key_set(0).cloned().collect();
        assert_eq!(keys0, vec![k(1), k(2)], "first occurrence wins");
        assert_eq!(drain_ready(&t), vec![0], "tx0 is ready despite the dup");
        t.release(0);
        assert_eq!(drain_ready(&t), vec![1], "tx1 unblocks after one release");
        t.release(1);
    }

    #[test]
    fn recycle_reuses_buffers_without_fresh_allocations() {
        let mut b = LockTableBuilder::new();
        let build = |b: &mut LockTableBuilder| {
            for i in 0..8 {
                b.enqueue(i, vec![k(i64::from(i)), k(i64::from((i + 1) % 8))]);
            }
            b.freeze(8)
        };
        let t = build(&mut b);
        let fresh_after_first = b.stats().fresh_queues;
        assert_eq!(fresh_after_first, 8, "first build allocates its queues");
        // Drain + release so the table is fully retired, then recycle.
        let mut order = drain_ready(&t);
        while let Some(tx) = order.pop() {
            t.release(tx);
            order = drain_ready(&t);
        }
        b.recycle(t);
        assert_eq!(b.stats().recycles, 1);

        // Steady state: an identically-shaped build allocates no new queue.
        let t2 = build(&mut b);
        assert_eq!(b.stats().fresh_queues, fresh_after_first, "no fresh queues after recycle");
        assert_eq!(t2.key_count(), 8);
        assert!(!drain_ready(&t2).is_empty());
    }

    #[test]
    fn recycled_table_schedules_identically() {
        // The recycled build must behave exactly like a fresh one.
        let shape = |b: &mut LockTableBuilder| {
            b.enqueue(0, vec![k(1), k(2)]);
            b.enqueue(1, vec![k(3)]);
            b.enqueue(2, vec![k(2), k(3)]);
            b.freeze(3)
        };
        let mut fresh = LockTableBuilder::new();
        let mut recycled = LockTableBuilder::new();
        let warm = shape(&mut recycled);
        drain_ready(&warm);
        warm.release(0);
        warm.release(1);
        drain_ready(&warm);
        warm.release(2);
        recycled.recycle(warm);

        let a = shape(&mut fresh);
        let b2 = shape(&mut recycled);
        for t in [&a, &b2] {
            assert_eq!(drain_ready(t), vec![0, 1]);
            t.release(0);
            assert_eq!(drain_ready(t), vec![]);
            t.release(1);
            assert_eq!(drain_ready(t), vec![2]);
            t.release(2);
        }
    }

    #[test]
    #[should_panic(expected = "must not migrate across shards")]
    fn recycle_rejects_buffers_from_another_shard() {
        // Regression guard for the per-shard buffer pools: a table frozen
        // by shard 0's builder recycled into shard 1's builder would carry
        // stale interned keyset ids into an unrelated key space and
        // silently corrupt that shard's next queues.
        let mut b0 = LockTableBuilder::with_shard(0);
        b0.enqueue(0, vec![k(1)]);
        let t = b0.freeze(1);
        assert_eq!(t.shard(), 0);
        drain_ready(&t);
        t.release(0);
        let mut b1 = LockTableBuilder::with_shard(1);
        b1.recycle(t);
    }

    #[test]
    fn recycle_within_shard_keeps_pools_local() {
        let mut b = LockTableBuilder::with_shard(3);
        b.enqueue(0, vec![k(1)]);
        let t = b.freeze(1);
        assert_eq!(t.shard(), 3, "frozen table carries its builder's shard");
        drain_ready(&t);
        t.release(0);
        b.recycle(t);
        assert_eq!(b.stats().recycles, 1);
        // The recycled pool stays with the shard: the next build reuses
        // the queue instead of allocating a fresh one.
        b.enqueue(0, vec![k(2)]);
        let t2 = b.freeze(1);
        assert_eq!(b.stats().fresh_queues, 1, "steady state after recycle");
        assert_eq!(t2.shard(), 3);
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
    fn double_release_does_not_corrupt_counts() {
        // Regression: a second release of tx0 used to advance k(1)'s
        // cursor again, decrementing tx2's count while tx1 still held the
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
