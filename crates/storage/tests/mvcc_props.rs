//! Property tests of the epoch-MVCC store against a reference model: a
//! `BTreeMap<(key, epoch), value>` of retained versions replays the same
//! history — writes, re-population, epoch advances and garbage collection
//! — and must agree with every read at every epoch, with the state digest,
//! with the version count and with every GC's reclaimed count.

use prognosticator_storage::{EpochStore, StableHasher};
use prognosticator_txir::{Key, TableId, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put {
        key: i64,
        value: i64,
    },
    /// `insert_initial`: population over a key that may already have history.
    Init {
        key: i64,
        value: i64,
    },
    Advance,
    /// `gc_before(current_epoch − lag)`.
    Gc {
        lag: u64,
    },
}

const KEYS: i64 = 6;

/// Writes and epoch advances only.
fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..KEYS, 0..100i64).prop_map(|(key, value)| Op::Put { key, value }),
            1 => Just(Op::Advance),
        ],
        1..60,
    )
}

/// Every store mutation, garbage collection included. Two puts per
/// advance make same-epoch overwrites common.
fn all_ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0..KEYS, 0..100i64).prop_map(|(key, value)| Op::Put { key, value }),
            1 => (0..KEYS, 0..100i64).prop_map(|(key, value)| Op::Init { key, value }),
            3 => Just(Op::Advance),
            2 => (0..4u64).prop_map(|lag| Op::Gc { lag }),
        ],
        1..80,
    )
}

fn k(i: i64) -> Key {
    Key::of_ints(TableId(0), &[i])
}

/// Reference: the versions a store must retain, keyed by (key, epoch).
#[derive(Debug, Default)]
struct Model {
    versions: BTreeMap<(i64, u64), i64>,
}

impl Model {
    /// The newest retained value of `key` with epoch ≤ `epoch`.
    fn get_at(&self, key: i64, epoch: u64) -> Option<i64> {
        self.versions.range((key, 0)..=(key, epoch)).next_back().map(|(_, v)| *v)
    }

    /// Applies `op` to `store` and to the model. For a GC, returns the
    /// store's and the model's reclaimed counts.
    fn apply(&mut self, store: &EpochStore, op: &Op) -> Option<(usize, usize)> {
        match *op {
            Op::Put { key, value } => {
                store.put(&k(key), Value::Int(value));
                self.versions.insert((key, store.current_epoch()), value);
            }
            Op::Init { key, value } => {
                store.insert_initial(k(key), Value::Int(value));
                self.versions.retain(|(key2, _), _| *key2 != key);
                self.versions.insert((key, 0), value);
            }
            Op::Advance => {
                store.advance_epoch();
            }
            Op::Gc { lag } => {
                let epoch = store.current_epoch().saturating_sub(lag);
                return Some((store.gc_before(epoch), self.gc_before(epoch)));
            }
        }
        None
    }

    /// Drops, per key, every version older than its newest one ≤ `epoch`.
    fn gc_before(&mut self, epoch: u64) -> usize {
        let before = self.versions.len();
        let keep: BTreeMap<i64, u64> =
            self.versions.keys().filter(|(_, e)| *e <= epoch).map(|&(key, e)| (key, e)).collect();
        self.versions.retain(|(key, e), _| keep.get(key).is_none_or(|kept| e >= kept));
        before - self.versions.len()
    }

    /// The digest fold over each key's latest value.
    fn digest(&self) -> u64 {
        let (mut acc, mut entries) = (0u64, 0u64);
        for key in 0..KEYS {
            if let Some(value) = self.get_at(key, u64::MAX) {
                let mut h = StableHasher::new();
                h.write_key(&k(key));
                h.write_value(&Value::Int(value));
                acc = acc.wrapping_add(h.finish_u64());
                entries += 1;
            }
        }
        let mut h = StableHasher::new();
        h.write_u64(acc);
        h.write_u64(entries);
        h.finish_u64()
    }
}

/// Replays `ops` against a store and the model, checking after every op
/// every read at every epoch, the digest, the version count and each
/// GC's reclaimed count.
fn check_history(ops: &[Op]) -> Result<(), TestCaseError> {
    let store = EpochStore::with_shards(4);
    let mut model = Model::default();

    for (step, op) in ops.iter().enumerate() {
        if let Some((removed, expected)) = model.apply(&store, op) {
            prop_assert_eq!(removed, expected, "step {}: {:?} reclaimed count", step, op);
        }
        prop_assert_eq!(store.version_count(), model.versions.len(), "step {}: {:?}", step, op);
        prop_assert_eq!(store.state_digest(), model.digest(), "step {}: {:?}", step, op);
        for key in 0..KEYS {
            for epoch in 0..=store.current_epoch() {
                prop_assert_eq!(
                    store.get_at(&k(key), epoch),
                    model.get_at(key, epoch).map(Value::Int),
                    "step {}: key {} at epoch {}",
                    step,
                    key,
                    epoch
                );
            }
            prop_assert_eq!(store.get_latest(&k(key)), model.get_at(key, u64::MAX).map(Value::Int));
        }
    }

    // The digest is insensitive to sharding and to when digests are taken.
    let replay = EpochStore::with_shards(16);
    for op in ops {
        Model::default().apply(&replay, op);
    }
    prop_assert_eq!(store.state_digest(), replay.state_digest());
    Ok(())
}

/// One fixed history through every bookkeeping path: a same-epoch
/// overwrite, `insert_initial` over a key with several versions, GC of a
/// re-populated key, GC with nothing due, and GC at an epoch below one
/// already collected.
#[test]
fn scripted_history_agrees_with_reference_model() {
    use Op::{Advance, Gc, Init, Put};
    let ops = [
        Init { key: 0, value: 1 },
        Init { key: 1, value: 2 },
        Put { key: 0, value: 10 },
        Put { key: 0, value: 11 },
        Advance,
        Put { key: 0, value: 20 },
        Put { key: 1, value: 21 },
        Advance,
        Put { key: 0, value: 30 },
        Init { key: 0, value: 5 },
        Put { key: 2, value: 31 },
        Advance,
        Put { key: 0, value: 40 },
        Put { key: 2, value: 41 },
        Advance,
        Gc { lag: 0 },
        Gc { lag: 0 },
        Put { key: 1, value: 50 },
        Advance,
        Gc { lag: 3 },
        Put { key: 1, value: 60 },
        Put { key: 1, value: 61 },
        Gc { lag: 0 },
    ];
    check_history(&ops).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn store_agrees_with_reference_model(ops in all_ops_strategy()) {
        check_history(&ops)?;
    }

    /// GC below an epoch preserves every read at or after that epoch.
    #[test]
    fn gc_preserves_recent_snapshots(ops in ops_strategy(), gc_at in 0..6u64) {
        let store = EpochStore::with_shards(4);
        let mut model = Model::default();
        for op in &ops {
            model.apply(&store, op);
        }
        let max_epoch = store.current_epoch();
        let gc_at = gc_at.min(max_epoch);
        store.gc_before(gc_at);
        for key in 0..KEYS {
            for epoch in gc_at..=max_epoch {
                prop_assert_eq!(
                    store.get_at(&k(key), epoch),
                    model.get_at(key, epoch).map(Value::Int),
                    "post-GC read: key {} at epoch {} (gc_at {})", key, epoch, gc_at
                );
            }
        }
    }

    /// A historical scan pinned at epoch `E` never observes the effect
    /// of a GC at or below its pin: the full key scan through
    /// `EpochStore::snapshot(E)` is byte-identical before and after
    /// `gc_before(E')` for any `E' ≤ E`, even while writes and epoch
    /// advances keep landing after the pin — the long-read-only-scan /
    /// concurrent-GC interleaving of the adversarial scan-storm
    /// scenario, reduced to its storage-level contract.
    #[test]
    fn pinned_scans_are_stable_under_gc(
        before in ops_strategy(),
        after in ops_strategy(),
        gc_lag in 0..4u64,
    ) {
        let store = EpochStore::with_shards(4);
        let mut model = Model::default();
        for op in &before {
            model.apply(&store, op);
        }

        // Pin the scan and take its pre-GC reading of every key.
        let pin = store.current_epoch();
        let snapshot = store.snapshot(pin);
        let scan_before: Vec<Option<Value>> = (0..KEYS).map(|key| snapshot.get(&k(key))).collect();
        for (key, observed) in scan_before.iter().enumerate() {
            prop_assert_eq!(
                observed.clone(),
                model.get_at(key as i64, pin).map(Value::Int),
                "pinned scan of key {} disagrees with the model", key
            );
        }

        // While the scan is "live": GC at or below the pin, plus an
        // arbitrary write-storm tail in later epochs.
        store.gc_before(pin.saturating_sub(gc_lag));
        store.advance_epoch();
        for op in &after {
            model.apply(&store, op);
        }

        // The pinned scan must re-read exactly what it saw before.
        let scan_after: Vec<Option<Value>> = (0..KEYS).map(|key| snapshot.get(&k(key))).collect();
        prop_assert_eq!(
            scan_before,
            scan_after,
            "a scan pinned at epoch {} observed a GC or later writes", pin
        );
    }
}
