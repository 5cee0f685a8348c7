//! Property tests of the lock table: liveness (every enqueued transaction
//! eventually becomes ready) and per-key order preservation — the two
//! invariants deterministic scheduling rests on — plus a reference model
//! the table must agree with after every single release.

use prognosticator_core::{LockTableBuilder, TxIdx};
use prognosticator_txir::{Key, TableId};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, VecDeque};

fn keysets_strategy() -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(
        prop::collection::btree_set(0..12i64, 0..5).prop_map(|s| s.into_iter().collect()),
        1..40,
    )
}

fn build(keysets: &[Vec<i64>]) -> prognosticator_core::LockTable {
    let mut b = LockTableBuilder::new();
    for (i, ks) in keysets.iter().enumerate() {
        b.enqueue(
            i as TxIdx,
            ks.iter().map(|&k| Key::of_ints(TableId(0), &[k])).collect(),
        );
    }
    b.freeze(keysets.len())
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
        while let Some(tx) = table.pop_ready() {
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
            while let Some(tx) = table.pop_ready() {
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

/// Key-sets that may repeat a key, each flagged local or foreign
/// (`enqueue_foreign`).
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

    /// The table agrees with the per-key FIFO model after every single
    /// release, one randomly chosen ready transaction at a time: what
    /// `pop_ready` and `pop_foreign_ready` have surfaced (and is not yet
    /// released) is exactly the model's local and foreign transactions
    /// that head all their queues, and every transaction is released.
    /// `picks` chooses which ready transaction to release next.
    #[test]
    fn matches_per_key_fifo_model(
        batch in mixed_batch_strategy(),
        picks in prop::collection::vec(any::<u32>(), 40),
    ) {
        let mut b = LockTableBuilder::new();
        for (i, (keys, foreign)) in batch.iter().enumerate() {
            let keys = keys.iter().map(|&k| Key::of_ints(TableId(0), &[k])).collect();
            if *foreign {
                b.enqueue_foreign(i as TxIdx, keys);
            } else {
                b.enqueue(i as TxIdx, keys);
            }
        }
        let table = b.freeze(batch.len());
        let mut model = Model::new(&batch);
        prop_assert_eq!(table.contended_keys(), model.contended_keys());

        let (mut local, mut foreign) = (BTreeSet::new(), BTreeSet::new());
        for step in 0..=batch.len() {
            while let Some(tx) = table.pop_ready() {
                prop_assert!(local.insert(tx), "tx{} surfaced twice", tx);
            }
            while let Some(tx) = table.pop_foreign_ready() {
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
