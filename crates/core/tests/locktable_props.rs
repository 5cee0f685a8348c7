//! Property tests of the conflict plan and the lock table frozen from it:
//! liveness (every enqueued transaction eventually becomes ready) and
//! per-key order preservation — the two invariants deterministic
//! scheduling rests on — plus a reference model the plan and the table
//! must agree with after every single release.

use prognosticator_core::sched::{self, NO_NEXT};
use prognosticator_core::{LockTable, TxIdx};
use prognosticator_txir::{Key, TableId};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, VecDeque};

fn keysets_strategy() -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(
        prop::collection::btree_set(0..12i64, 0..5).prop_map(|s| s.into_iter().collect()),
        1..40,
    )
}

fn keys(ks: &[i64]) -> Vec<Key> {
    ks.iter().map(|&k| Key::of_ints(TableId(0), &[k])).collect()
}

fn build(keysets: &[Vec<i64>]) -> LockTable {
    LockTable::new(sched::plan(keysets.iter().map(|ks| keys(ks))), 1, Vec::new())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Draining the table (pop → release, repeatedly) completes every
    /// transaction exactly once, and conflicting transactions commit in
    /// enqueue order.
    #[test]
    fn drains_completely_in_per_key_order(keysets in keysets_strategy()) {
        let table = build(&keysets);
        let mut commit_order = Vec::new();
        while let Some(tx) = table.pop_ready(0) {
            commit_order.push(tx);
            table.release(tx);
        }
        // Everyone committed exactly once.
        let mut seen = commit_order.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), keysets.len(), "lost or duplicated transactions");

        // Per-key order preservation: for any two txs sharing a key, the
        // earlier-enqueued one commits first.
        let position: HashMap<TxIdx, usize> =
            commit_order.iter().enumerate().map(|(p, &t)| (t, p)).collect();
        for i in 0..keysets.len() {
            for j in (i + 1)..keysets.len() {
                if keysets[i].iter().any(|k| keysets[j].contains(k)) {
                    prop_assert!(
                        position[&(i as TxIdx)] < position[&(j as TxIdx)],
                        "tx{j} overtook conflicting tx{i}"
                    );
                }
            }
        }
    }

    /// The set of concurrently-ready transactions is always mutually
    /// non-conflicting (safety of the ready queue).
    #[test]
    fn ready_sets_are_conflict_free(keysets in keysets_strategy()) {
        let table = build(&keysets);
        loop {
            // Drain the entire current ready set before releasing any of
            // it — these would run concurrently in the engine.
            let mut wave = Vec::new();
            while let Some(tx) = table.pop_ready(0) {
                wave.push(tx);
            }
            if wave.is_empty() {
                break;
            }
            for a in 0..wave.len() {
                for b in (a + 1)..wave.len() {
                    let (i, j) = (wave[a] as usize, wave[b] as usize);
                    prop_assert!(
                        !keysets[i].iter().any(|k| keysets[j].contains(k)),
                        "ready set contains conflicting tx{i} and tx{j}"
                    );
                }
            }
            for tx in wave {
                table.release(tx);
            }
        }
    }
}

/// Key-sets that may repeat a key, each flagged local or foreign (routed
/// to another shard's ready queue, as a member whose home is another shard
/// is).
fn mixed_batch_strategy() -> impl Strategy<Value = Vec<(Vec<i64>, bool)>> {
    prop::collection::vec((prop::collection::vec(0..12i64, 0..6), any::<bool>()), 1..40)
}

/// The naive lock table: one `VecDeque` FIFO per key, filled in member
/// order with each transaction's key-set deduplicated.
struct Model {
    queues: HashMap<i64, VecDeque<TxIdx>>,
    keysets: Vec<Vec<i64>>,
    foreign: Vec<bool>,
    released: Vec<bool>,
}

impl Model {
    fn new(batch: &[(Vec<i64>, bool)]) -> Self {
        let mut queues: HashMap<i64, VecDeque<TxIdx>> = HashMap::new();
        let mut keysets = Vec::new();
        for (tx, (keys, _)) in batch.iter().enumerate() {
            let mut distinct = Vec::new();
            for &k in keys {
                if !distinct.contains(&k) {
                    distinct.push(k);
                    queues.entry(k).or_default().push_back(tx as TxIdx);
                }
            }
            keysets.push(distinct);
        }
        let foreign = batch.iter().map(|(_, f)| *f).collect();
        Model { queues, keysets, foreign, released: vec![false; batch.len()] }
    }

    /// Unreleased transactions at the head of every one of their queues,
    /// split into (local, foreign).
    fn granted(&self) -> (BTreeSet<TxIdx>, BTreeSet<TxIdx>) {
        let (mut local, mut foreign) = (BTreeSet::new(), BTreeSet::new());
        for (tx, keys) in self.keysets.iter().enumerate() {
            let heads_all = keys.iter().all(|k| self.queues[k].front() == Some(&(tx as TxIdx)));
            if !self.released[tx] && heads_all {
                let set = if self.foreign[tx] { &mut foreign } else { &mut local };
                set.insert(tx as TxIdx);
            }
        }
        (local, foreign)
    }

    fn release(&mut self, tx: TxIdx) {
        for k in &self.keysets[tx as usize] {
            assert_eq!(self.queues.get_mut(k).unwrap().pop_front(), Some(tx));
        }
        self.released[tx as usize] = true;
    }

    fn contended_keys(&self) -> u64 {
        self.queues.values().filter(|q| q.len() > 1).count() as u64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The plan and the table agree with the per-key FIFO model. Each
    /// plan entry holds the member's place in its key's queue and the
    /// member queued next; each member's predecessor count is the number
    /// of queues it does not head. Then after every single release, one
    /// randomly chosen ready transaction at a time, what `pop_ready` has
    /// surfaced on shards 0 and 1 (and is not yet released) is exactly the
    /// model's local and foreign transactions that head all their queues,
    /// and every transaction is released. `picks` chooses which
    /// ready transaction to release next.
    #[test]
    fn matches_per_key_fifo_model(
        batch in mixed_batch_strategy(),
        picks in prop::collection::vec(any::<u32>(), 40),
    ) {
        let plan = sched::plan(batch.iter().map(|(ks, _)| keys(ks)));
        let mut model = Model::new(&batch);
        prop_assert_eq!(plan.len(), batch.len());
        for (tx, distinct) in model.keysets.iter().enumerate() {
            let entries = plan.entries(tx);
            prop_assert_eq!(entries.len(), distinct.len(), "tx{} entries", tx);
            for (k, entry) in distinct.iter().zip(entries) {
                let queue = &model.queues[k];
                let depth = queue.iter().position(|&t| t == tx as TxIdx).unwrap();
                let next = queue.get(depth + 1).copied().unwrap_or(NO_NEXT);
                prop_assert_eq!(entry.depth as usize, depth, "tx{} depth on key {}", tx, k);
                prop_assert_eq!(entry.next, next, "tx{} successor on key {}", tx, k);
            }
            let preds = distinct.iter().filter(|k| model.queues[*k][0] != tx as TxIdx).count();
            prop_assert_eq!(plan.preds(tx) as usize, preds, "tx{} predecessors", tx);
        }
        prop_assert_eq!(plan.contended_keys(), model.contended_keys());
        let route = batch.iter().map(|&(_, foreign)| u32::from(foreign)).collect();
        let table = LockTable::new(plan, 2, route);

        let (mut local, mut foreign) = (BTreeSet::new(), BTreeSet::new());
        for step in 0..=batch.len() {
            while let Some(tx) = table.pop_ready(0) {
                prop_assert!(local.insert(tx), "tx{} surfaced twice", tx);
            }
            while let Some(tx) = table.pop_ready(1) {
                prop_assert!(foreign.insert(tx), "tx{} surfaced twice", tx);
            }
            let (model_local, model_foreign) = model.granted();
            prop_assert_eq!(&local, &model_local, "local ready set after {} releases", step);
            prop_assert_eq!(&foreign, &model_foreign, "foreign ready set after {} releases", step);
            let ready: Vec<TxIdx> = local.iter().chain(&foreign).copied().collect();
            if ready.is_empty() {
                prop_assert_eq!(step, batch.len(), "the table stalled with transactions left");
                break;
            }
            let tx = ready[picks[step] as usize % ready.len()];
            table.release(tx);
            model.release(tx);
            local.remove(&tx);
            foreign.remove(&tx);
        }
    }
}
