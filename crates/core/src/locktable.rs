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
//! The queues themselves are a [`Plan`] from [`crate::sched::plan`]: each
//! member's span of `(member, key)` entries links to the member queued
//! next on that key, so the plan's links are the predicted conflict
//! graph's edges. A [`LockTable`] is that plan plus, per member, an atomic
//! count of the predecessors it still waits for and a release flag, and
//! one ready queue per shard, each member surfacing on the one its route
//! names. A member's one count covers every key it locks, whichever shards
//! own them, so it is safe to run the moment it surfaces. The table is
//! never keyed by `Key` — `release` is pure array indexing — and it names
//! members by their position in the plan.

use crate::sched::{Plan, NO_NEXT};
use crossbeam::queue::SegQueue;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Index of a transaction: its batch position, or, in a [`LockTable`], its
/// member position.
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

/// One member's atomics.
#[derive(Debug, Default)]
struct MemberLocks {
    /// Predecessors not yet released: the number of queues the member
    /// does not head yet (the paper's `total locks`).
    remaining: AtomicU32,
    /// Guards against double release, which would decrement successors'
    /// counts twice and grant them while a predecessor still runs.
    released: AtomicBool,
}

/// A frozen plan plus per-member atomic counters and the ready queues.
#[derive(Debug)]
pub struct LockTable {
    plan: Plan,
    members: Vec<MemberLocks>,
    /// Per member, the shard whose ready queue it surfaces on; empty when
    /// every member surfaces on ready queue 0.
    route: Vec<u32>,
    /// One ready queue per shard.
    queues: Vec<SegQueue<TxIdx>>,
}

impl LockTable {
    /// Freezes `plan` over `shards` ready queues and publishes, in member
    /// order, every member with no predecessor. `route` holds, per member,
    /// the shard whose ready queue it surfaces on; an empty `route` puts
    /// every member on ready queue 0.
    pub fn new(plan: Plan, shards: usize, route: Vec<u32>) -> LockTable {
        debug_assert!(route.is_empty() || route.len() == plan.len(), "one route per member");
        let members = (0..plan.len())
            .map(|m| MemberLocks { remaining: AtomicU32::new(plan.preds(m)), ..Default::default() })
            .collect();
        let queues = (0..shards.max(1)).map(|_| SegQueue::new()).collect();
        let table = LockTable { plan, members, route, queues };
        for (m, locks) in table.members.iter().enumerate() {
            if locks.remaining.load(Ordering::Relaxed) == 0 {
                table.surface(m as TxIdx);
            }
        }
        table
    }

    /// Number of shard ready queues.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Pushes ready member `m` onto the queue its route names.
    fn surface(&self, m: TxIdx) {
        let shard = self.route.get(m as usize).map_or(0, |&s| s as usize);
        self.queues[shard].push(m);
    }

    /// Pops a ready member of `shard`, if any. Ready members are mutually
    /// non-conflicting and safe to execute concurrently.
    pub fn pop_ready(&self, shard: usize) -> Option<TxIdx> {
        self.queues[shard].pop()
    }

    /// Pops a ready member of `shard` chosen by `policy` — the schedule-
    /// exploration seam. Up to `policy.window()` ready members are
    /// drained, one is chosen, and the rest are re-queued; this is safe
    /// because every ready member is non-conflicting with every other, so
    /// consumption order is unconstrained.
    pub fn pop_ready_with(&self, shard: usize, policy: &dyn ReadyPolicy) -> Option<TxIdx> {
        let ready = &self.queues[shard];
        let window = policy.window().max(1);
        if window == 1 {
            return ready.pop();
        }
        let mut candidates = Vec::with_capacity(window);
        while candidates.len() < window {
            match ready.pop() {
                Some(m) => candidates.push(m),
                None => break,
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let pick = policy.choose(&candidates).min(candidates.len() - 1);
        let chosen = candidates.swap_remove(pick);
        for m in candidates {
            ready.push(m);
        }
        Some(chosen)
    }

    /// Releases member `m`'s locks after it committed **or aborted**:
    /// decrements the count of its successor on each of its keys and
    /// publishes any successor that became ready.
    ///
    /// The successors are visited in the member's key-set order — a
    /// fixed, replica-independent order — so an aborting transaction
    /// (workload bug or injected worker panic) unblocks its successors
    /// exactly as a committing one would, on every replica.
    ///
    /// # Panics
    /// Panics (debug) if `m` was already released — a double release
    /// would silently corrupt successors' lock counts — or if `m` does
    /// not yet head all its queues. In release builds a double release is
    /// ignored instead of corrupting the schedule.
    pub fn release(&self, m: TxIdx) {
        let locks = &self.members[m as usize];
        let was_released = locks.released.swap(true, Ordering::AcqRel);
        debug_assert!(!was_released, "double release of member {m}");
        if was_released {
            return;
        }
        debug_assert_eq!(locks.remaining.load(Ordering::Acquire), 0, "release out of order: {m}");
        for entry in self.plan.entries(m as usize) {
            if entry.next == NO_NEXT {
                continue;
            }
            if self.members[entry.next as usize].remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.surface(entry.next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched;
    use prognosticator_txir::{Key, TableId};

    fn k(i: i64) -> Key {
        Key::of_ints(TableId(0), &[i])
    }

    /// A one-shard table over `keysets`, one per member in member order.
    fn table(keysets: Vec<Vec<Key>>) -> LockTable {
        frozen(sched::plan(keysets))
    }

    fn frozen(plan: Plan) -> LockTable {
        LockTable::new(plan, 1, Vec::new())
    }

    fn drain_ready(t: &LockTable) -> Vec<TxIdx> {
        let mut out = Vec::new();
        while let Some(x) = t.pop_ready(0) {
            out.push(x);
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn disjoint_txs_all_ready() {
        let plan = sched::plan(vec![vec![k(1), k(2)], vec![k(3)], vec![k(4), k(5)]]);
        assert_eq!(plan.contended_keys(), 0);
        assert_eq!(drain_ready(&frozen(plan)), vec![0, 1, 2]);
    }

    #[test]
    fn conflicting_txs_serialize_in_order() {
        // The paper's Fig. 2 shape: tx0 and tx1 disjoint, tx2 behind both.
        let plan = sched::plan(vec![vec![k(1), k(2)], vec![k(3)], vec![k(2), k(3)]]);
        assert_eq!(plan.preds(2), 2);
        let t = frozen(plan);
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
        let plan = sched::plan(vec![vec![k(9)]; 5]);
        let depths: Vec<u32> = (0..5).map(|m| plan.entries(m)[0].depth).collect();
        assert_eq!(depths, vec![0, 1, 2, 3, 4]);
        let t = frozen(plan);
        for expect in 0..5 {
            let ready = drain_ready(&t);
            assert_eq!(ready, vec![expect]);
            t.release(expect);
        }
    }

    #[test]
    fn empty_keyset_is_trivially_ready() {
        let t = table(vec![vec![], vec![k(1)]]);
        assert_eq!(drain_ready(&t), vec![0, 1]);
    }

    #[test]
    fn release_after_abort_unblocks_successors() {
        let t = table(vec![vec![k(1)], vec![k(1)]]);
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
        let plan = sched::plan(vec![vec![k(1), k(1), k(2)], vec![k(1)]]);
        assert_eq!(plan.entries(0).len(), 2, "one entry per distinct key");
        assert_eq!(plan.contended_keys(), 1, "k(1) queues tx0 once, then tx1");
        let t = frozen(plan);
        assert_eq!(drain_ready(&t), vec![0], "tx0 is ready despite the dup");
        t.release(0);
        assert_eq!(drain_ready(&t), vec![1], "tx1 unblocks after one release");
        t.release(1);
    }

    #[test]
    fn multi_owner_members_surface_on_their_route_only_when_granted() {
        // tx0 on shard 1 heads k(1); tx1, owned by shards 0 and 1 and
        // routed to 0, waits behind it on k(1) and heads k(2); tx2, on
        // shard 1, waits behind tx1 on k(2); tx3, routed to 0, has no
        // predecessor.
        let keysets = vec![vec![k(1)], vec![k(1), k(2)], vec![k(2)], vec![k(3)]];
        let t = LockTable::new(sched::plan(keysets), 2, vec![1, 0, 1, 0]);
        assert_eq!(t.pop_ready(1), Some(0));
        assert_eq!(t.pop_ready(0), Some(3));
        assert_eq!(t.pop_ready(0), None, "tx1 heads k(2) but still waits on k(1)");
        t.release(0);
        assert_eq!(t.pop_ready(0), Some(1), "one global count reached 0");
        assert_eq!(t.pop_ready(1), None, "tx2 waits behind tx1 across shards");
        t.release(1);
        assert_eq!((t.pop_ready(0), t.pop_ready(1)), (None, Some(2)));
        t.release(2);
        t.release(3);
    }

    #[test]
    fn empty_keyset_surfaces_at_once_on_its_route_only() {
        let t = LockTable::new(sched::plan(vec![vec![]]), 2, vec![1]);
        assert_eq!(t.pop_ready(0), None);
        assert_eq!(t.pop_ready(1), Some(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double release")]
    fn double_release_panics_in_debug() {
        let t = table(vec![vec![k(1)], vec![k(1)]]);
        t.release(0);
        t.release(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "release out of order")]
    fn releasing_a_blocked_tx_panics_in_debug() {
        // tx1 waits behind tx0 on k(1); releasing it first would hand k(2)
        // on to tx2 while tx1 never held k(1).
        let t = table(vec![vec![k(1)], vec![k(1), k(2)], vec![k(2)]]);
        assert_eq!(drain_ready(&t), vec![0]);
        t.release(1);
    }

    #[test]
    fn double_release_does_not_corrupt_counts() {
        // Regression: a second release of tx0 used to advance k(1)'s
        // queue again, decrementing tx2's count while tx1 still held the
        // key — tx1 and tx2 would then run concurrently on one key.
        let t = table(vec![vec![k(1)]; 3]);
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
        let t = table((0..4).map(|i| vec![k(i)]).collect());
        let mut seen = Vec::new();
        while let Some(x) = t.pop_ready_with(0, &FifoPolicy) {
            seen.push(x);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shuffle_policy_loses_no_transactions() {
        let policy = SeededShufflePolicy::new(42, 3);
        let t = table((0..16).map(|i| vec![k(i)]).collect());
        let mut seen = Vec::new();
        while let Some(x) = t.pop_ready_with(0, &policy) {
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
        let t = table(vec![vec![k(9)]; 5]);
        for expect in 0..5 {
            let got = t.pop_ready_with(0, &policy).expect("head is ready");
            assert_eq!(got, expect);
            assert_eq!(t.pop_ready_with(0, &policy), None);
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
        let keysets = (0..128).map(|i| vec![k(i % 64)]).collect();
        let t = Arc::new(table(keysets));
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
        while let Some(x) = t.pop_ready(0) {
            ready.push(x);
        }
        // First 64 were ready at freeze; after releases the other 64 are.
        assert_eq!(ready.len(), 128);
    }
}
