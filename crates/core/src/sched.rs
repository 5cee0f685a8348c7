//! The scheduling core: what one transaction *means*, decided once.
//!
//! Everything here is deterministic, thread-free and clock-free: a pure
//! function of the agreed batch, the catalog, the seeded fault plan and
//! the store state the caller presents. Two drivers walk a batch through
//! these functions — the threaded [`crate::Engine`] (real workers, wall
//! clock, one lock table per round) and the bench simulator (virtual
//! clock) — and differ only in *when* each call happens, never in what it
//! decides:
//!
//! * [`classify`] — request → class, direct prediction, table scope;
//! * [`prepare`] — dependent-transaction key-set from the profile's
//!   pivots or from reconnaissance;
//! * [`lock_keys`] — the keys a prepared transaction enqueues on;
//! * [`plan`] — who waits for whom: a round's per-key FIFO queues as
//!   successor links with depths, which the engine's lock table, the
//!   simulator and the recorder's `LockWait` events all read;
//! * [`doomed`] — the pivot, if any, at which a retry-round member's last
//!   pivot reads doom it before it is walked;
//! * [`run_tx`] — run one transaction: fault replay/injection, panic
//!   containment, and the commit / deterministic-abort / retry verdict;
//! * [`after_round`] — the failed-transaction policy (`SF`/`MF`/Calvin);
//! * [`fold_tx`] — per-transaction state → [`BatchOutcome`] entries.
//!
//! The execution functions return plain [`OpCounts`] beside their
//! result; the engine drops them, the simulator prices them.

use crate::catalog::{Catalog, TxRequest};
use crate::engine::{BatchOutcome, FailedPolicy, Granularity, PrepareMode, TxOutcome};
use crate::exec::{self, AccessLog, AccessScope, ExecView, Executed, OpCounts, TxFailure};
use crate::faults::{AbortReason, FaultPlan};
use crate::locktable::TxIdx;
use prognosticator_storage::EpochStore;
use prognosticator_symexec::{PredictError, Prediction, Profile, TxClass};
use prognosticator_txir::{Key, Program, Value};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

pub use crate::exec::Snapshot;

/// A classified transaction: everything [`classify`] derives from the
/// request and the catalog alone. Immutable for the rest of the batch.
pub struct Tx {
    /// The client's request.
    pub req: TxRequest,
    /// Instance-level class (a DT program whose chosen path needs no
    /// pivots is an IT instance).
    pub class: TxClass,
    /// The program to run.
    pub program: Arc<Program>,
    /// Its symbolic-execution profile (`None` when SE was capped).
    pub profile: Option<Arc<Profile>>,
    /// Table-granularity scope (NODO).
    pub table_scope: Option<AccessScope>,
}

/// A transaction's mutable state over the batch's rounds. Times are in
/// the driver's clock (wall or virtual nanoseconds since batch start).
#[derive(Default)]
pub struct TxState {
    /// The key-set prediction it locks under (`None` until prepared, and
    /// for table-scoped transactions).
    pub prediction: Option<Prediction>,
    /// Values a read-only transaction emitted.
    pub output: Option<Vec<Value>>,
    /// Set (once) when the transaction is deterministically aborted; it
    /// then takes no further part in the batch.
    pub aborted: Option<AbortReason>,
    /// Commit time; `0` until committed.
    pub finished_ns: u64,
    /// Time of the first validation failure; `0` if it never failed.
    pub first_fail_ns: u64,
    /// Keys the committing prediction locked (summed into
    /// [`BatchOutcome::predicted_keys`]).
    pub predicted_keys: u64,
    /// Distinct keys the committed execution touched.
    pub observed_keys: u64,
}

impl TxState {
    /// Records a deterministic abort (first reason wins).
    pub fn abort(&mut self, reason: AbortReason) {
        self.aborted.get_or_insert(reason);
    }
}

/// Best-effort extraction of a panic payload's message: `panic!("{}", x)`
/// carries a `String`, `panic!("literal")` a `&'static str`.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "worker panicked".to_string())
}

/// Classifies one request — the store-independent half of a
/// transaction's lifecycle.
///
/// # Panics
/// Panics on a profile/input mismatch (a catalog bug, batch-fatal).
pub fn classify(
    granularity: Granularity,
    prepare: PrepareMode,
    catalog: &Catalog,
    req: TxRequest,
) -> (Tx, TxState) {
    let entry = catalog.entry(req.program);
    let program = Arc::clone(entry.program());
    let profile = entry.profile().cloned();
    let mut state = TxState::default();
    let mut table_scope = None;
    let by_effect = if entry.writes() { TxClass::Dependent } else { TxClass::ReadOnly };

    let class = match (granularity, prepare, &profile) {
        // NODO: everything is an independent transaction over
        // table-granularity conflict classes.
        (Granularity::Table, _, _) => {
            let tables = entry.read_tables().iter().chain(entry.write_tables()).copied();
            table_scope = Some(AccessScope::Tables(tables.collect()));
            TxClass::Independent
        }
        (_, PrepareMode::Profile, Some(p)) if p.class() == TxClass::ReadOnly => TxClass::ReadOnly,
        (_, PrepareMode::Profile, Some(p)) => match p.predict_direct(&req.inputs) {
            Ok(pred) => {
                state.prediction = Some(pred);
                TxClass::Independent
            }
            Err(PredictError::NeedsStore) => TxClass::Dependent,
            Err(PredictError::Eval(e)) => {
                panic!("profile/input mismatch for {}: {e}", program.name())
            }
        },
        // SE was capped (reconnaissance fallback), or `-R` mode.
        (_, PrepareMode::Profile, None) | (_, PrepareMode::Reconnaissance, _) => by_effect,
    };
    (Tx { req, class, program, profile, table_scope }, state)
}

/// Prepares an update transaction: fills `state.prediction` from the
/// profile (reading only pivots, through `snapshot`) or, in `-R` mode
/// and for SE-capped programs, by full reconnaissance. A workload bug
/// met during reconnaissance is the transaction's own deterministic
/// failure: it is aborted and the batch stays healthy.
///
/// # Panics
/// Panics when the profile cannot predict even with a resolver — a
/// catalog/profile mismatch, fatal rather than a per-transaction abort.
pub fn prepare(
    store: &EpochStore,
    tx: &Tx,
    state: &mut TxState,
    mode: PrepareMode,
    snapshot: Snapshot,
) -> OpCounts {
    let Some(profile) = walked_profile(tx, mode) else {
        let (result, ops) = exec::reconnoiter(store, &tx.program, &tx.req.inputs, snapshot);
        match result {
            Ok(prediction) => state.prediction = Some(prediction),
            Err(TxFailure::Eval(e)) => state.abort(AbortReason::workload(tx.program.name(), e)),
            Err(other) => unreachable!("reconnaissance only fails with Eval: {other:?}"),
        }
        return ops;
    };
    let mut ops = OpCounts::default();
    let prediction = walk(profile, tx, |k| {
        ops.pivot_reads += 1;
        let v = match snapshot {
            Snapshot::Epoch(e) => store.get_at(k, e),
            Snapshot::Live => store.get_latest(k),
        };
        v.unwrap_or(Value::Unit)
    });
    state.prediction = Some(prediction);
    ops
}

/// The profile [`prepare`] walks for `tx` in `mode`; `None` when it
/// reconnoiters instead.
pub fn walked_profile(tx: &Tx, mode: PrepareMode) -> Option<&Profile> {
    match mode {
        PrepareMode::Profile => tx.profile.as_deref().filter(|p| p.class() != TxClass::ReadOnly),
        PrepareMode::Reconnaissance => None,
    }
}

/// Walks `profile` for `tx`'s inputs, reading each pivot through `read`.
///
/// # Panics
/// See [`prepare`].
pub fn walk(profile: &Profile, tx: &Tx, mut read: impl FnMut(&Key) -> Value) -> Prediction {
    profile
        .predict(&tx.req.inputs, Some(&mut read))
        .expect("profile prediction with resolver cannot need more")
}

/// The value `key` held when the current retry round began: its entry in
/// `start`, which holds every key a member of the round has locked so far,
/// or else its current value, since writes stay inside the writer's
/// key-set.
pub fn round_start_value(start: &HashMap<Key, Value>, store: &EpochStore, key: &Key) -> Value {
    match start.get(key) {
        Some(v) => v.clone(),
        None => store.get_latest(key).unwrap_or(Value::Unit),
    }
}

/// The pivot at which preparing a retry-round member at round start would
/// doom it, decided without walking; `None` when it would not. `last` is
/// the member's last profile walk and `start` as in [`round_start_value`].
///
/// A walk reads pivots in order, each pivot's key a function of the inputs
/// and the values read before it, and `last.pivot_observations` lists its
/// reads in that order. So while the round-start values equal `last`'s
/// observations, the round-start walk reads the same keys. At the first
/// observed key whose round-start value differs from its current value,
/// that walk has recorded the round-start value, and validation now fails:
/// doomed at that key. At the first whose round-start value differs from
/// the observed one, the walks part and nothing further is known: not
/// doomed, and the member is walked.
pub fn doomed<'a>(
    last: &'a Prediction,
    start: &HashMap<Key, Value>,
    store: &EpochStore,
) -> Option<&'a Key> {
    for (key, observed) in &last.pivot_observations {
        let current = store.get_latest(key).unwrap_or(Value::Unit);
        let at_start = start.get(key).unwrap_or(&current);
        if *at_start != current {
            return Some(key);
        }
        if at_start != observed {
            return None;
        }
    }
    None
}

/// The keys a prepared transaction enqueues on in the lock table.
///
/// # Panics
/// Panics if a key-granularity transaction was not prepared.
pub fn lock_keys(tx: &Tx, state: &TxState) -> Vec<Key> {
    match &tx.table_scope {
        Some(AccessScope::Tables(tables)) => {
            let mut keys: Vec<Key> = tables.iter().map(|t| Key::new(*t, Vec::new())).collect();
            keys.sort();
            keys
        }
        _ => state
            .prediction
            .as_ref()
            .expect("update transaction prepared before enqueue")
            .key_set(),
    }
}

/// The successor of a [`PlanEntry`] whose key has no later locker.
pub const NO_NEXT: u32 = u32::MAX;

/// One member's lock on one distinct key of its key-set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEntry {
    /// Position of the member queued next on this key, or [`NO_NEXT`].
    pub next: u32,
    /// Earlier members locking this key: the member's place in the key's
    /// queue, `0` at its head.
    pub depth: u32,
}

/// A round's predicted conflict graph: per-key FIFO queues filled in
/// member order, stored as successor links. Members are named by their
/// position in the order they were pushed.
#[derive(Debug, Default)]
pub struct Plan {
    /// Every member's entries, member after member.
    entries: Vec<PlanEntry>,
    /// Per member, the end of its span of `entries`; the span starts where
    /// the previous member's ends.
    ends: Vec<u32>,
}

impl Plan {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the plan has no member.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Member `m`'s entries, one per distinct key in key-set order.
    pub fn entries(&self, m: usize) -> &[PlanEntry] {
        let start = if m == 0 { 0 } else { self.ends[m - 1] as usize };
        &self.entries[start..self.ends[m] as usize]
    }

    /// Member `m`'s predecessor count: the queues it does not head (the
    /// paper's `total locks`).
    pub fn preds(&self, m: usize) -> u32 {
        self.entries(m).iter().filter(|e| e.depth > 0).count() as u32
    }

    /// Keys whose queue holds more than one member.
    pub fn contended_keys(&self) -> u64 {
        self.entries.iter().filter(|e| e.depth == 1).count() as u64
    }

    /// Checks that releasing members as they become ready releases them
    /// all: every successor link points to a later member, and every
    /// member's predecessor count equals the number of links naming it.
    /// A slip in the plan then fails here instead of stalling a drain.
    ///
    /// # Panics
    /// Panics naming the first member that breaks either rule.
    fn check_drains(&self) {
        let mut links = vec![0u32; self.len()];
        for m in 0..self.len() {
            for e in self.entries(m).iter().filter(|e| e.next != NO_NEXT) {
                let next = e.next as usize;
                assert!(m < next && next < self.len(), "member {m} links to member {next}");
                links[next] += 1;
            }
        }
        for (m, &links) in links.iter().enumerate() {
            let preds = self.preds(m);
            assert_eq!(preds, links, "member {m} waits on {preds} queues but {links} link to it");
        }
    }
}

/// Builds [`Plan`]s: [`push`](PlanBuilder::push) the members in member
/// order, then [`finish`](PlanBuilder::finish). A long-lived builder keeps
/// the capacity of its key map.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    /// Key → entry of its last locker so far.
    last: HashMap<Key, u32>,
    plan: Plan,
}

impl PlanBuilder {
    /// Queues the next member on every key of `keys`, calling `each` with
    /// every distinct key and its depth in key-set order. A key repeated
    /// within `keys` is queued once (first occurrence wins): queued twice,
    /// the member would wait behind itself.
    pub fn push(&mut self, keys: Vec<Key>, mut each: impl FnMut(&Key, u32)) {
        let member = self.plan.ends.len() as u32;
        let entries = &mut self.plan.entries;
        let start = entries.len() as u32;
        for key in keys {
            let entry = entries.len() as u32;
            let depth = match self.last.entry(key) {
                Entry::Vacant(v) => {
                    each(v.key(), 0);
                    v.insert(entry);
                    0
                }
                // The last locker's entry lies in this member's own span.
                Entry::Occupied(o) if *o.get() >= start => continue,
                Entry::Occupied(mut o) => {
                    let last = &mut entries[*o.get() as usize];
                    last.next = member;
                    *o.get_mut() = entry;
                    let depth = last.depth + 1;
                    each(o.key(), depth);
                    depth
                }
            };
            entries.push(PlanEntry { next: NO_NEXT, depth });
        }
        self.plan.ends.push(entries.len() as u32);
    }

    /// Returns the plan pushed so far and leaves the builder empty.
    ///
    /// # Panics
    /// In debug builds, panics if releasing members as they become ready
    /// would not release them all.
    pub fn finish(&mut self) -> Plan {
        self.last.clear();
        let (entries, members) = (self.plan.entries.len(), self.plan.ends.len());
        let fresh =
            Plan { entries: Vec::with_capacity(entries), ends: Vec::with_capacity(members) };
        let plan = std::mem::replace(&mut self.plan, fresh);
        if cfg!(debug_assertions) {
            plan.check_drains();
        }
        plan
    }
}

/// Builds the plan of `keys`, one key-set per member in member order.
pub fn plan(keys: impl IntoIterator<Item = Vec<Key>>) -> Plan {
    let mut builder = PlanBuilder::default();
    for member in keys {
        builder.push(member, |_, _| {});
    }
    builder.finish()
}

/// How [`run_tx`] reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Read-only transaction against the batch snapshot, lock-less.
    Snapshot(u64),
    /// Update transaction holding its locks: pivots validated, accesses
    /// confined to the predicted key-set (or the table scope).
    Locked,
    /// Serial re-execution against the live state (`SF`, the `MF`
    /// termination fallback): nothing else runs, so no locks,
    /// preparation or validation — it cannot fail again (paper §III-C).
    Serial,
}

/// The verdict of one [`run_tx`] call.
#[derive(Debug)]
pub enum TxStatus {
    /// Committed: writes are in the store; the driver stamps
    /// `finished_ns`.
    Committed(AccessLog),
    /// Validation failed without side effects (a stale pivot or an
    /// access outside the predicted key-set); retry per the policy.
    Retry,
    /// Deterministically aborted (reason recorded in the state): final.
    Aborted,
}

/// The fault plan and `(batch, tx)` coordinates [`run_tx`] consults.
pub type TxFaults<'a> = Option<(&'a FaultPlan, u64, TxIdx)>;

/// Runs one transaction to a verdict.
///
/// Workload bugs and worker panics (injected or genuine) are contained
/// here, per transaction: execution is write-buffered, so an unwind
/// discards all of the transaction's writes (no torn state) and the
/// caller releases its lock slots exactly as on commit — successors
/// unblock identically on every replica. Under a replay-mode plan the
/// original run's injected abort is reproduced without unwinding. Serial
/// re-execution consults no plan: a fault fires at the locked attempt.
pub fn run_tx(
    store: &EpochStore,
    tx: &Tx,
    state: &mut TxState,
    mode: RunMode,
    faults: TxFaults<'_>,
) -> (TxStatus, OpCounts) {
    let faults = faults.filter(|_| mode != RunMode::Serial);
    if let Some(reason) = faults.and_then(|(plan, batch, i)| plan.replay_abort(batch, i)) {
        state.abort(reason);
        return (TxStatus::Aborted, OpCounts::default());
    }
    let inputs = &tx.req.inputs;
    let run = || -> (Result<Executed, TxFailure>, OpCounts) {
        if let Some((plan, batch, i)) = faults {
            plan.maybe_inject_worker_panic(batch, i);
        }
        match (mode, &tx.table_scope) {
            (RunMode::Snapshot(epoch), _) => {
                exec::execute(ExecView::read_only(store, epoch), &tx.program, inputs)
            }
            (RunMode::Serial, _) => exec::execute(ExecView::live(store), &tx.program, inputs),
            (RunMode::Locked, Some(scope)) => {
                exec::execute(ExecView::new(store, scope), &tx.program, inputs)
            }
            (RunMode::Locked, None) => {
                let prediction = state.prediction.as_ref().expect("prepared before execution");
                exec::execute_update(store, &tx.program, inputs, prediction)
            }
        }
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok((Ok((emitted, log)), ops)) => {
            if let RunMode::Snapshot(_) = mode {
                state.output = Some(emitted);
            } else {
                note_key_counts(tx, state, &log);
            }
            (TxStatus::Committed(log), ops)
        }
        Ok((Err(TxFailure::Eval(e)), ops)) => {
            state.abort(AbortReason::workload(tx.program.name(), e));
            (TxStatus::Aborted, ops)
        }
        Ok((Err(TxFailure::PivotChanged { .. } | TxFailure::KeySetViolation), ops)) => {
            (TxStatus::Retry, ops)
        }
        // The unwind happened at execution entry (injection) or lost its
        // counts with the stack; either way nothing is charged.
        Err(payload) => {
            state.abort(AbortReason::from_panic_message(panic_message(payload.as_ref())));
            (TxStatus::Aborted, OpCounts::default())
        }
    }
}

/// Records a committed update transaction's predicted/observed key
/// counts (table-granularity transactions predict no keys).
fn note_key_counts(tx: &Tx, state: &mut TxState, log: &AccessLog) {
    let mut touched: Vec<&Key> = log.reads.iter().chain(&log.writes).map(|(k, _)| k).collect();
    touched.sort();
    touched.dedup();
    state.observed_keys = touched.len() as u64;
    state.predicted_keys = match (&tx.table_scope, &state.prediction) {
        (None, Some(p)) => {
            (p.reads.len() + p.writes.iter().filter(|k| !p.reads.contains(k)).count()) as u64
        }
        _ => 0,
    };
}

/// What a driver does after a round's update phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundAction {
    /// Nothing failed: the batch is done.
    Done,
    /// Re-execute the failed transactions serially, in client order,
    /// then finish.
    Serial,
    /// Re-prepare the failed transactions against the live state and run
    /// them as the next round's members.
    Reenqueue,
    /// Hand the failed transactions back to the client, then finish.
    CarryOver,
}

/// The failed-transaction policy. `rounds` counts the round just
/// finished; `MF` falls back to serial re-execution at `max_rounds`,
/// which guarantees termination.
pub fn after_round(
    policy: FailedPolicy,
    rounds: u32,
    max_rounds: u32,
    any_failed: bool,
) -> RoundAction {
    if !any_failed {
        return RoundAction::Done;
    }
    match policy {
        FailedPolicy::SingleThread => RoundAction::Serial,
        FailedPolicy::Reenqueue if rounds < max_rounds => RoundAction::Reenqueue,
        FailedPolicy::Reenqueue => RoundAction::Serial,
        FailedPolicy::NextBatch => RoundAction::CarryOver,
    }
}

/// Folds one transaction's final state into the batch outcome. Call once
/// per transaction, in batch order. The three terminal states are
/// disjoint: aborted slots never finish, and a slot that neither
/// finished nor aborted was carried over.
pub fn fold_tx(outcome: &mut BatchOutcome, state: &mut TxState) {
    outcome.predicted_keys += state.predicted_keys;
    outcome.observed_keys += state.observed_keys;
    outcome.outputs.push(state.output.take());
    let verdict = if let Some(reason) = state.aborted.take() {
        debug_assert_eq!(state.finished_ns, 0, "aborted slots never finish");
        outcome.aborted += 1;
        TxOutcome::Aborted { reason }
    } else if state.finished_ns > 0 {
        outcome.committed += 1;
        outcome.latencies_ns.push(state.finished_ns);
        if state.first_fail_ns > 0 {
            outcome.reexec_ns_total += state.finished_ns.saturating_sub(state.first_fail_ns);
            outcome.reexec_count += 1;
        }
        TxOutcome::Committed
    } else {
        TxOutcome::CarriedOver
    };
    outcome.outcomes.push(verdict);
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosticator_txir::TableId;

    fn k(i: i64) -> Key {
        Key::of_ints(TableId(0), &[i])
    }

    fn int_pairs(pairs: &[(i64, i64)]) -> Vec<(Key, Value)> {
        pairs.iter().map(|&(key, v)| (k(key), Value::Int(v))).collect()
    }

    /// A last prediction that observed `pairs`, in that order.
    fn observed(pairs: &[(i64, i64)]) -> Prediction {
        Prediction { pivot_observations: int_pairs(pairs), ..Prediction::default() }
    }

    /// A store holding `current`, and the round-start values of the keys
    /// locked so far in the round.
    fn round(current: &[(i64, i64)], start: &[(i64, i64)]) -> (EpochStore, HashMap<Key, Value>) {
        let store = EpochStore::new();
        store.populate(int_pairs(current));
        (store, int_pairs(start).into_iter().collect())
    }

    #[test]
    fn doomed_at_the_first_pivot_changed_this_round() {
        // Key 1 went 5 → 6 this round, and every walk reads it first.
        let (store, start) = round(&[(1, 6), (2, 0)], &[(1, 5)]);
        assert_eq!(round_start_value(&start, &store, &k(1)), Value::Int(5));
        assert_eq!(round_start_value(&start, &store, &k(2)), Value::Int(0));
        assert_eq!(doomed(&observed(&[(1, 5), (2, 0)]), &start, &store), Some(&k(1)));
        assert_eq!(doomed(&observed(&[(1, 4)]), &start, &store), Some(&k(1)));
        // Only the second pivot changed this round.
        let (store, start) = round(&[(1, 5), (2, 7)], &[(1, 5), (2, 3)]);
        assert_eq!(doomed(&observed(&[(1, 5), (2, 3)]), &start, &store), Some(&k(2)));
    }

    #[test]
    fn not_doomed_where_the_round_start_walk_parts_or_nothing_changed() {
        // Key 1 changed before the round began and not since.
        let (store, start) = round(&[(1, 6), (2, 9)], &[]);
        assert_eq!(doomed(&observed(&[(1, 5), (2, 9)]), &start, &store), None);
        // Past that point the round-start walk may read other keys, so a
        // later pivot changed this round decides nothing.
        let (store, start) = round(&[(1, 6), (2, 9)], &[(2, 8)]);
        assert_eq!(doomed(&observed(&[(1, 5), (2, 8)]), &start, &store), None);
        // Key 1 was written this round and written back (ABA); key 2 was
        // overwritten with the value it held.
        let (store, start) = round(&[(1, 5), (2, 9)], &[(1, 5), (2, 9)]);
        assert_eq!(doomed(&observed(&[(1, 5), (2, 9)]), &start, &store), None);
        let (store, start) = round(&[(1, 5)], &[]);
        assert_eq!(doomed(&observed(&[(1, 5)]), &start, &store), None);
        assert_eq!(doomed(&Prediction::default(), &start, &store), None);
    }

    #[test]
    fn after_round_enacts_each_policy() {
        use FailedPolicy::{NextBatch, Reenqueue, SingleThread};
        for policy in [SingleThread, Reenqueue, NextBatch] {
            assert_eq!(after_round(policy, 1, 64, false), RoundAction::Done);
        }
        assert_eq!(after_round(SingleThread, 1, 64, true), RoundAction::Serial);
        assert_eq!(after_round(Reenqueue, 63, 64, true), RoundAction::Reenqueue);
        // The safety valve: round `max_rounds` terminates serially.
        assert_eq!(after_round(Reenqueue, 64, 64, true), RoundAction::Serial);
        assert_eq!(after_round(NextBatch, 1, 64, true), RoundAction::CarryOver);
    }

    #[test]
    fn fold_tx_keeps_the_three_terminal_states_disjoint() {
        let mut outcome = BatchOutcome::default();
        let mut committed = TxState { finished_ns: 9, first_fail_ns: 4, ..TxState::default() };
        let mut aborted = TxState::default();
        aborted.abort(AbortReason::WorkloadBug("first".into()));
        aborted.abort(AbortReason::WorkloadBug("second".into()));
        for state in [&mut committed, &mut aborted, &mut TxState::default()] {
            fold_tx(&mut outcome, state);
        }
        assert_eq!((outcome.committed, outcome.aborted), (1, 1));
        assert_eq!((outcome.reexec_count, outcome.reexec_ns_total), (1, 5));
        let first = AbortReason::WorkloadBug("first".into());
        assert_eq!(
            outcome.outcomes,
            vec![TxOutcome::Committed, TxOutcome::Aborted { reason: first }, TxOutcome::CarriedOver]
        );
    }
}
