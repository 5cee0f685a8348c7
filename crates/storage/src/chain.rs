//! Per-key version chains.

use prognosticator_txir::Value;

/// The versions of one key, ordered by epoch (strictly increasing).
///
/// Epochs correspond to transaction batches: all writes of batch *e* are
/// tagged with epoch *e*, so "the state after batch *e*" is recovered by
/// [`VersionChain::get_at`]. This is what gives read-only transactions and
/// the *prepare indirect keys* phase a stable snapshot (paper §III-C), and
/// what lets the Calvin baseline read deliberately stale state.
///
/// Each installed write additionally carries a per-key **version number**
/// (`ver`, monotone from 1): the provenance coordinate the isolation
/// checker uses to reconstruct WR/WW/RW dependencies from flight-recorder
/// traces. Version numbers are replay-stable — within a batch the same-key
/// write order is the lock-queue order, which is deterministic regardless
/// of worker count or ready policy — and survive GC (the counter never
/// resets). `ver == 0` is reserved for "the initial/absent version"
/// observed by reads that found no value.
///
/// The latest version also records whether the store's state digest has
/// folded it in yet (`is_dirty`, crate-internal); every write starts
/// unfolded. The flag costs no space: it is the top bit of that version's
/// stored `ver`, which reads mask off.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionChain {
    /// `(epoch, ver, value)` triples, ascending by epoch (and by ver). The
    /// newest `ver` is the last number assigned: GC always keeps it, so
    /// the counter survives GC.
    versions: Vec<(u64, u64, Value)>,
}

/// Set on the latest version's stored `ver` once the digest folded it in.
const FOLDED: u64 = 1 << 63;

impl VersionChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a chain with a single initial version (ver 1).
    pub fn with_initial(epoch: u64, value: Value) -> Self {
        VersionChain { versions: vec![(epoch, 1, value)] }
    }

    /// The latest value, if any.
    pub fn latest(&self) -> Option<&Value> {
        self.versions.last().map(|(_, _, v)| v)
    }

    /// The latest value with its version number, if any.
    pub fn latest_versioned(&self) -> Option<(u64, &Value)> {
        self.versions.last().map(|(_, ver, v)| (ver & !FOLDED, v))
    }

    /// Whether the latest version was written after the digest last folded
    /// this chain in (false for an empty chain).
    pub(crate) fn is_dirty(&self) -> bool {
        self.versions.last().is_some_and(|(_, ver, _)| ver & FOLDED == 0)
    }

    /// Records that the digest has folded the latest version in.
    pub(crate) fn mark_folded(&mut self) {
        if let Some((_, ver, _)) = self.versions.last_mut() {
            *ver |= FOLDED;
        }
    }

    /// The epoch of the latest version, if any.
    pub fn latest_epoch(&self) -> Option<u64> {
        self.versions.last().map(|(e, _, _)| *e)
    }

    /// The newest value with version epoch ≤ `epoch`.
    pub fn get_at(&self, epoch: u64) -> Option<&Value> {
        self.get_at_versioned(epoch).map(|(_, v)| v)
    }

    /// The newest value with version epoch ≤ `epoch`, plus its version
    /// number.
    pub fn get_at_versioned(&self, epoch: u64) -> Option<(u64, &Value)> {
        let i = match self.versions.binary_search_by_key(&epoch, |(e, _, _)| *e) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (_, ver, value) = &self.versions[i];
        Some((ver & !FOLDED, value))
    }

    /// Writes `value` at `epoch`, returning the installed version number.
    ///
    /// Writing at the latest epoch replaces that version (last write in a
    /// batch wins) but still consumes a fresh version number — the
    /// intra-batch intermediate is a distinct write for dependency
    /// tracking even though only the final value survives the epoch.
    /// Writing at a newer epoch appends.
    ///
    /// # Panics
    /// Panics if `epoch` is older than the latest version — batches only
    /// move forward.
    pub fn put(&mut self, epoch: u64, value: Value) -> u64 {
        let ver = self.latest_versioned().map_or(1, |(ver, _)| ver + 1);
        match self.versions.last_mut() {
            Some((e, last_ver, v)) if *e == epoch => {
                *last_ver = ver;
                *v = value;
            }
            Some((e, _, _)) => {
                assert!(*e < epoch, "write at epoch {epoch} older than latest {e}");
                self.versions.push((epoch, ver, value));
            }
            None => self.versions.push((epoch, ver, value)),
        }
        ver
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the chain has no versions.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// How many versions [`VersionChain::gc_before`] would drop at
    /// `epoch`: those older than the newest version ≤ `epoch`. Non-zero
    /// only when at least two versions have epoch ≤ `epoch`.
    pub(crate) fn collectable(&self, epoch: u64) -> usize {
        self.versions.iter().rposition(|(e, _, _)| *e <= epoch).unwrap_or(0)
    }

    /// Drops all versions that are superseded at or before `epoch`,
    /// keeping the newest version ≤ `epoch` (still needed for snapshot
    /// reads at `epoch`) and everything newer. Returns the number of
    /// versions dropped (GC accounting). Version numbers of surviving
    /// entries — and so the next number assigned — are unchanged.
    pub fn gc_before(&mut self, epoch: u64) -> usize {
        let keep_from = self.collectable(epoch);
        self.versions.drain(..keep_from);
        keep_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_see_epoch_boundaries() {
        let mut c = VersionChain::with_initial(0, Value::Int(10));
        c.put(2, Value::Int(20));
        c.put(5, Value::Int(50));
        assert_eq!(c.get_at(0), Some(&Value::Int(10)));
        assert_eq!(c.get_at(1), Some(&Value::Int(10)));
        assert_eq!(c.get_at(2), Some(&Value::Int(20)));
        assert_eq!(c.get_at(4), Some(&Value::Int(20)));
        assert_eq!(c.get_at(5), Some(&Value::Int(50)));
        assert_eq!(c.get_at(99), Some(&Value::Int(50)));
        assert_eq!(c.latest(), Some(&Value::Int(50)));
        assert_eq!(c.latest_epoch(), Some(5));
    }

    #[test]
    fn empty_chain_reads_none() {
        let c = VersionChain::new();
        assert_eq!(c.get_at(0), None);
        assert_eq!(c.latest(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn missing_before_first_version() {
        let c = VersionChain::with_initial(3, Value::Int(1));
        assert_eq!(c.get_at(2), None);
        assert_eq!(c.get_at(3), Some(&Value::Int(1)));
    }

    #[test]
    fn same_epoch_overwrites() {
        let mut c = VersionChain::new();
        c.put(1, Value::Int(1));
        c.put(1, Value::Int(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.latest(), Some(&Value::Int(2)));
    }

    #[test]
    #[should_panic(expected = "older than latest")]
    fn backwards_write_panics() {
        let mut c = VersionChain::new();
        c.put(5, Value::Int(1));
        c.put(3, Value::Int(2));
    }

    #[test]
    fn gc_keeps_snapshot_visible_version() {
        let mut c = VersionChain::new();
        c.put(0, Value::Int(0));
        c.put(1, Value::Int(1));
        c.put(2, Value::Int(2));
        c.put(5, Value::Int(5));
        c.gc_before(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get_at(2), Some(&Value::Int(2)));
        assert_eq!(c.get_at(3), Some(&Value::Int(2)));
        assert_eq!(c.get_at(5), Some(&Value::Int(5)));
        // Versions strictly before the kept one are gone: reads at older
        // epochs now miss (GC callers must not need those snapshots).
        assert_eq!(c.get_at(1), None);
    }

    #[test]
    fn version_numbers_are_monotone_and_returned() {
        let mut c = VersionChain::with_initial(0, Value::Int(0));
        assert_eq!(c.latest_versioned(), Some((1, &Value::Int(0))));
        assert_eq!(c.put(1, Value::Int(10)), 2);
        assert_eq!(c.put(2, Value::Int(20)), 3);
        assert_eq!(c.get_at_versioned(0), Some((1, &Value::Int(0))));
        assert_eq!(c.get_at_versioned(1), Some((2, &Value::Int(10))));
        assert_eq!(c.get_at_versioned(5), Some((3, &Value::Int(20))));
    }

    #[test]
    fn same_epoch_overwrite_consumes_a_version() {
        let mut c = VersionChain::new();
        assert_eq!(c.put(1, Value::Int(1)), 1);
        assert_eq!(c.put(1, Value::Int(2)), 2);
        // Only the final intra-epoch value survives, carrying the newest
        // version number.
        assert_eq!(c.latest_versioned(), Some((2, &Value::Int(2))));
        assert_eq!(c.put(2, Value::Int(3)), 3);
    }

    #[test]
    fn gc_preserves_version_numbers() {
        let mut c = VersionChain::new();
        for e in 0..6 {
            c.put(e, Value::Int(e as i64));
        }
        c.gc_before(3);
        // Surviving entries keep their pre-GC version numbers and the
        // counter keeps climbing.
        assert_eq!(c.get_at_versioned(3), Some((4, &Value::Int(3))));
        assert_eq!(c.put(9, Value::Int(9)), 7);
    }

    #[test]
    fn every_write_dirties_and_folding_hides_no_version_number() {
        let mut c = VersionChain::new();
        assert!(!c.is_dirty());
        c.put(1, Value::Int(1));
        assert!(c.is_dirty());
        c.mark_folded();
        assert!(!c.is_dirty());
        assert_eq!(c.latest_versioned(), Some((1, &Value::Int(1))));
        assert_eq!(c.get_at_versioned(1), Some((1, &Value::Int(1))));
        // A same-epoch overwrite and an append both dirty the chain again
        // and keep counting from the folded version's number.
        assert_eq!(c.put(1, Value::Int(2)), 2);
        assert!(c.is_dirty());
        c.mark_folded();
        assert_eq!(c.put(2, Value::Int(3)), 3);
        assert!(c.is_dirty());
        c.mark_folded();
        assert_eq!(c.gc_before(2), 1);
        assert!(!c.is_dirty(), "GC keeps the folded latest version");
        assert_eq!(c.put(3, Value::Int(4)), 4);
    }
}
