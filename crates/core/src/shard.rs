//! Key-space sharding: the routing oracle for partitioned scale-out.
//!
//! The paper's premise — symbolic profiles yield key-level predicted
//! read/write sets *before* execution — is exactly what a partitioned
//! deterministic database needs to route transactions without a
//! reconnaissance phase. A [`ShardRouter`] maps every key to one of `N`
//! key-space shards via a **count-independent** stable fingerprint:
//! the fingerprint of a key never depends on the shard count, only the
//! final `fingerprint % N` projection does. Flight-recorder events carry
//! the fingerprint (not the physical index), which is how dumps stay
//! byte-identical across shard counts while still sorting by shard.
//!
//! Routing is a pure function of the predicted key-set, and it only picks
//! the queue a ready transaction surfaces on; it never splits the lock
//! queues, which [`crate::sched::plan`] builds once for the whole round:
//!
//! * every key of the set lands on `fingerprint(key) % N`;
//! * a transaction whose keys all land on one shard is **single-shard**
//!   and surfaces on that shard's ready queue of round 1's lock table;
//! * a transaction spanning several shards is **cross-shard** and
//!   surfaces on its home (lowest-owner) shard's ready queue. Its one
//!   predecessor count covers every key it locks, on every owner, so it
//!   is safe to run the moment it surfaces, whichever thread pops it.
//!
//! The lock queues, and so the grant order, are the same for every shard
//! count — the heart of the digest-equivalence argument (DESIGN.md §3.5).

use prognosticator_storage::StableHasher;
use prognosticator_txir::Key;

/// Salt folded into every routing fingerprint so shard placement is not
/// correlated with any other key hash in the system (e.g. the store's
/// internal hash shards).
const ROUTE_SALT: u64 = 0x51AD_0C0D_E5A1_7ED5;

/// Where a transaction's predicted key-set routed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardRoute {
    /// Every key (or an empty key-set) landed on one shard.
    Single(usize),
    /// Keys span several shards; owners are listed in ascending order.
    Cross(Vec<usize>),
}

impl ShardRoute {
    /// The shard the transaction's execution time is charged to: its only
    /// shard, or the lowest owner for a cross-shard transaction.
    pub fn home(&self) -> usize {
        match self {
            ShardRoute::Single(s) => *s,
            ShardRoute::Cross(owners) => owners.first().copied().unwrap_or(0),
        }
    }

    /// All owner shards, ascending.
    pub fn owners(&self) -> Vec<usize> {
        match self {
            ShardRoute::Single(s) => vec![*s],
            ShardRoute::Cross(owners) => owners.clone(),
        }
    }

    /// Whether the route spans more than one shard.
    pub fn is_cross(&self) -> bool {
        matches!(self, ShardRoute::Cross(_))
    }
}

/// Deterministic key → shard router over `N` key-space shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` key-space shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        ShardRouter { shards: shards.max(1) }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The count-independent routing fingerprint of a key: a salted
    /// stable hash, identical on every replica and for every shard
    /// count. Every flight event names its key by this fingerprint.
    pub fn fingerprint(key: &Key) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(ROUTE_SALT);
        h.write_key(key);
        h.finish_u64()
    }

    /// The physical shard owning `key` under this router's count.
    pub fn shard_of(&self, key: &Key) -> usize {
        (Self::fingerprint(key) % self.shards as u64) as usize
    }

    /// Routes a predicted key-set. An empty set routes to shard 0.
    pub fn route(&self, keys: &[Key]) -> ShardRoute {
        let mut owners: Vec<usize> = Vec::new();
        for key in keys {
            let s = self.shard_of(key);
            if let Err(at) = owners.binary_search(&s) {
                owners.insert(at, s);
            }
        }
        match owners.len() {
            0 => ShardRoute::Single(0),
            1 => ShardRoute::Single(owners[0]),
            _ => ShardRoute::Cross(owners),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosticator_txir::TableId;

    fn k(t: u16, i: i64) -> Key {
        Key::of_ints(TableId(t), &[i])
    }

    #[test]
    fn fingerprint_is_count_independent_and_stable() {
        let key = k(1, 42);
        let fp = ShardRouter::fingerprint(&key);
        assert_eq!(fp, ShardRouter::fingerprint(&key), "stable");
        for n in [1usize, 2, 4, 8] {
            let r = ShardRouter::new(n);
            assert_eq!(r.shard_of(&key), (fp % n as u64) as usize);
        }
    }

    #[test]
    fn single_shard_collapses_everything() {
        let r = ShardRouter::new(1);
        let keys: Vec<Key> = (0..32).map(|i| k(i % 3, i as i64)).collect();
        assert_eq!(r.route(&keys), ShardRoute::Single(0));
    }

    #[test]
    fn routes_classify_single_vs_cross() {
        let r = ShardRouter::new(8);
        // A batch of distinct keys spreads over several shards.
        let keys: Vec<Key> = (0..64).map(|i| k(0, i)).collect();
        match r.route(&keys) {
            ShardRoute::Cross(owners) => {
                assert!(owners.len() > 1);
                assert!(owners.windows(2).all(|w| w[0] < w[1]), "owners ascending");
                assert_eq!(r.route(&keys).home(), owners[0]);
            }
            ShardRoute::Single(_) => panic!("64 spread keys should cross shards"),
        }
        // One key is trivially single-shard; empty key-sets go to shard 0.
        assert!(!r.route(&keys[..1]).is_cross());
        assert_eq!(r.route(&[]), ShardRoute::Single(0));
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let r = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4096 {
            counts[r.shard_of(&k(0, i))] += 1;
        }
        for &c in &counts {
            assert!(c > 4096 / 8, "shard badly underloaded: {counts:?}");
        }
    }
}
