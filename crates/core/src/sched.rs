//! The scheduling core: what one transaction *means*, decided once.
//!
//! Everything here is deterministic, thread-free and clock-free: a pure
//! function of the agreed batch, the catalog, the seeded fault plan and
//! the store state the caller presents. Two drivers walk a batch through
//! these functions — the threaded [`crate::Engine`] (real workers, wall
//! clock, linked lock tables) and the bench simulator (virtual clock, its
//! own per-key queues) — and differ only in *when* each call happens,
//! never in what it decides:
//!
//! * [`classify`] — request → class, direct prediction, table scope;
//! * [`prepare`] — dependent-transaction key-set from the profile's
//!   pivots or from reconnaissance;
//! * [`lock_keys`] — the keys a prepared transaction enqueues on;
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
    let profile = match mode {
        PrepareMode::Profile => tx.profile.as_ref().filter(|p| p.class() != TxClass::ReadOnly),
        PrepareMode::Reconnaissance => None,
    };
    let Some(profile) = profile else {
        let (result, ops) = exec::reconnoiter(store, &tx.program, &tx.req.inputs, snapshot);
        match result {
            Ok(prediction) => state.prediction = Some(prediction),
            Err(TxFailure::Eval(e)) => state.abort(AbortReason::workload(tx.program.name(), e)),
            Err(other) => unreachable!("reconnaissance only fails with Eval: {other:?}"),
        }
        return ops;
    };
    let mut ops = OpCounts::default();
    let mut resolver = |k: &Key| -> Value {
        ops.pivot_reads += 1;
        let v = match snapshot {
            Snapshot::Epoch(e) => store.get_at(k, e),
            Snapshot::Live => store.get_latest(k),
        };
        v.unwrap_or(Value::Unit)
    };
    let prediction = profile
        .predict(&tx.req.inputs, Some(&mut resolver))
        .expect("profile prediction with resolver cannot need more");
    state.prediction = Some(prediction);
    ops
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
