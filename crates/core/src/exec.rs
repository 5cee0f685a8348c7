//! Transaction execution against the store: buffered views, pivot
//! validation, and deterministic violation detection.

use prognosticator_storage::EpochStore;
use prognosticator_symexec::Prediction;
use prognosticator_txir::{EvalError, Interpreter, Key, Program, TableId, TxStore, Value};
use std::collections::{HashMap, HashSet};

/// The set of data a transaction is allowed to touch while holding its
/// locks: key-granularity for Prognosticator/Calvin, table-granularity for
/// the NODO baseline (paper §IV-B).
#[derive(Debug, Clone)]
pub enum AccessScope {
    /// Exact keys (Prognosticator's key-level conflict detection).
    Keys(HashSet<Key>),
    /// Whole tables (NODO's table-level conflict classes).
    Tables(HashSet<TableId>),
}

impl AccessScope {
    /// Scope covering a prediction's key-set.
    pub fn keys_of(prediction: &Prediction) -> Self {
        AccessScope::Keys(prediction.key_set().into_iter().collect())
    }

    /// Whether `key` is inside the scope.
    pub fn allows(&self, key: &Key) -> bool {
        match self {
            AccessScope::Keys(ks) => ks.contains(key),
            AccessScope::Tables(ts) => ts.contains(&key.table),
        }
    }
}

/// The observed access provenance of one committed execution: which
/// per-key version each store read saw, and which version each committed
/// write installed.
///
/// This is the raw material of the isolation checker
/// (`testkit::isolation`): WR/WW/RW dependency edges are reconstructed
/// entirely from these logical coordinates, so they must be replay-stable.
/// Reads record the *first* store read per key (later reads re-observe the
/// same locked version, and read-your-writes hits are not store reads);
/// version `0` means the key had no visible version (the virtual initial
/// version). Writes are recorded in key order — the commit flush is sorted
/// so the log (and the flight-recorder events derived from it) is
/// byte-identical across runs regardless of `HashMap` iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessLog {
    /// `(key, observed version)` per first store read, in program order.
    pub reads: Vec<(Key, u64)>,
    /// `(key, installed version)` per committed write, in key order.
    pub writes: Vec<(Key, u64)>,
}

/// Why a transaction execution failed and must be retried.
#[derive(Debug, Clone, PartialEq)]
pub enum TxFailure {
    /// A pivot's current value differs from the value observed during the
    /// *prepare indirect keys* phase (the paper's DT validation).
    PivotChanged {
        /// The pivot key whose value changed.
        key: Key,
    },
    /// Execution touched a key outside the predicted (locked) key-set —
    /// the reconnaissance/OLLP mismatch case.
    KeySetViolation,
    /// The program itself failed to evaluate (a workload bug).
    Eval(EvalError),
}

/// Plain operation counts of one execution or preparation. The engine
/// ignores them; the bench simulator charges virtual time from them, so
/// every path counts the same way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `GET`s the program issued (buffer hits and out-of-scope reads
    /// included).
    pub gets: u64,
    /// `GET`s answered from the transaction's own write buffer.
    pub buffer_hits: u64,
    /// `PUT`s the program issued.
    pub puts: u64,
    /// Store reads made to resolve or validate pivots.
    pub pivot_reads: u64,
}

/// Which store state a view (or a preparation) reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Snapshot {
    /// The state as of a committed epoch.
    Epoch(u64),
    /// The latest state, including the current batch's commits.
    Live,
}

/// What a successful execution produced: the emitted values and the
/// observed access provenance.
pub type Executed = (Vec<Value>, AccessLog);

/// The one write-buffered execution view, in four configurations:
/// scoped to a locked key-set ([`ExecView::new`]), unscoped over the live
/// state ([`ExecView::live`], serial re-execution), a read-only epoch
/// snapshot ([`ExecView::read_only`], ROTs) and a discard-writes snapshot
/// ([`ExecView::recon`], reconnaissance).
///
/// Reads of keys inside the allowed (locked) set go to the store; reads
/// outside it **deterministically** return [`Value::Unit`] and flag a
/// violation — never a racy value, so the abort decision is
/// replica-deterministic. Writes are buffered and flushed only on commit.
#[derive(Debug)]
pub struct ExecView<'a> {
    store: &'a EpochStore,
    from: Snapshot,
    allowed: Option<&'a AccessScope>,
    writable: bool,
    buffer: HashMap<Key, Value>,
    reads: Vec<(Key, u64)>,
    violated: bool,
    ops: OpCounts,
}

impl<'a> ExecView<'a> {
    fn over(store: &'a EpochStore, from: Snapshot, allowed: Option<&'a AccessScope>) -> Self {
        ExecView {
            store,
            from,
            allowed,
            writable: true,
            buffer: HashMap::new(),
            reads: Vec::new(),
            violated: false,
            ops: OpCounts::default(),
        }
    }

    /// A live view allowing access to `allowed` (the locked scope) only.
    pub fn new(store: &'a EpochStore, allowed: &'a AccessScope) -> Self {
        Self::over(store, Snapshot::Live, Some(allowed))
    }

    /// An unscoped live view: reads see the latest store contents
    /// (including the current batch's commits). The single-threaded
    /// re-execution path (`SF`, the `MF` termination fallback, `SEQ`)
    /// holds no locks and has no scope.
    pub fn live(store: &'a EpochStore) -> Self {
        Self::over(store, Snapshot::Live, None)
    }

    /// A lock-less view of the batch snapshot for read-only transactions
    /// (paper §III-C); a write through it panics.
    pub fn read_only(store: &'a EpochStore, snapshot_epoch: u64) -> Self {
        ExecView { writable: false, ..Self::over(store, Snapshot::Epoch(snapshot_epoch), None) }
    }

    /// A reconnaissance view: reads come from `snapshot`, writes are
    /// buffered (with read-your-writes) and never committed.
    pub fn recon(store: &'a EpochStore, snapshot: Snapshot) -> Self {
        Self::over(store, snapshot, None)
    }

    /// Whether any out-of-set access happened.
    pub fn violated(&self) -> bool {
        self.violated
    }

    fn allows(&self, key: &Key) -> bool {
        self.allowed.is_none_or(|scope| scope.allows(key))
    }

    /// Flushes buffered writes to the store (call only on commit) and
    /// returns the access log. The flush is sorted by key so the install
    /// order — and the version numbers other transactions observe — never
    /// depends on `HashMap` iteration order.
    pub fn commit(self) -> AccessLog {
        debug_assert!(!self.violated, "committing a violated execution");
        let mut buffered: Vec<(Key, Value)> = self.buffer.into_iter().collect();
        buffered.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut writes = Vec::with_capacity(buffered.len());
        for (k, v) in buffered {
            let ver = self.store.put_versioned(&k, v);
            writes.push((k, ver));
        }
        AccessLog { reads: self.reads, writes }
    }
}

impl TxStore for ExecView<'_> {
    fn get(&mut self, key: &Key) -> Option<Value> {
        self.ops.gets += 1;
        if let Some(v) = self.buffer.get(key) {
            self.ops.buffer_hits += 1;
            return Some(v.clone());
        }
        if !self.allows(key) {
            self.violated = true;
            return None;
        }
        let (ver, value) = match self.from {
            Snapshot::Epoch(epoch) => self.store.get_at_versioned(key, epoch),
            Snapshot::Live => self.store.get_latest_versioned(key),
        };
        if !self.reads.iter().any(|(k, _)| k == key) {
            self.reads.push((key.clone(), ver));
        }
        value
    }

    fn put(&mut self, key: &Key, value: Value) {
        assert!(self.writable, "read-only transaction attempted a write");
        self.ops.puts += 1;
        if !self.allows(key) {
            self.violated = true;
        }
        self.buffer.insert(key.clone(), value);
    }
}

/// Validates a dependent transaction's pivots: every observed pivot value
/// must still equal the current value (paper §III-C). Each comparison is
/// one store read, counted into `ops.pivot_reads`.
///
/// # Errors
/// Returns [`TxFailure::PivotChanged`] naming the first stale pivot.
pub fn validate_pivots(
    store: &EpochStore,
    prediction: &Prediction,
    ops: &mut OpCounts,
) -> Result<(), TxFailure> {
    for (key, observed) in &prediction.pivot_observations {
        ops.pivot_reads += 1;
        let current = store.get_latest(key).unwrap_or(Value::Unit);
        if &current != observed {
            return Err(TxFailure::PivotChanged { key: key.clone() });
        }
    }
    Ok(())
}

/// Runs `program` in `view` and commits on success (or aborts without
/// side effects), returning the emitted values and observed [`AccessLog`]
/// beside the view's operation counts.
///
/// # Errors
/// [`TxFailure::KeySetViolation`] on out-of-scope access,
/// [`TxFailure::Eval`] on workload bugs.
pub fn execute(
    mut view: ExecView<'_>,
    program: &Program,
    inputs: &[Value],
) -> (Result<Executed, TxFailure>, OpCounts) {
    let run = Interpreter::new().without_input_validation().run(program, inputs, &mut view);
    let ops = view.ops;
    let result = match run {
        // An evaluation error after an out-of-scope access is the
        // violation itself: the view deterministically injected `Unit`
        // for the foreign read, and the program choked on it. Only a
        // clean-scope evaluation error is a genuine workload bug.
        _ if view.violated => Err(TxFailure::KeySetViolation),
        Ok(out) => Ok((out.emitted, view.commit())),
        Err(e) => Err(TxFailure::Eval(e)),
    };
    (result, ops)
}

/// Executes an update transaction under its predicted key-set:
/// validate pivots → run buffered → commit (or abort without side
/// effects). A reconnaissance prediction carries no pivot observations,
/// so for it this is exactly the OLLP re-check (key-set containment).
///
/// # Errors
/// [`TxFailure`] on stale pivots, key-set violations, or workload bugs.
pub fn execute_update(
    store: &EpochStore,
    program: &Program,
    inputs: &[Value],
    prediction: &Prediction,
) -> (Result<Executed, TxFailure>, OpCounts) {
    let mut ops = OpCounts::default();
    if let Err(stale) = validate_pivots(store, prediction, &mut ops) {
        return (Err(stale), ops);
    }
    let allowed = AccessScope::keys_of(prediction);
    let (result, run_ops) = execute(ExecView::new(store, &allowed), program, inputs);
    (result, OpCounts { pivot_reads: ops.pivot_reads, ..run_ops })
}

/// Reconnaissance: pre-executes the transaction logic against a snapshot
/// to discover its key-set (Calvin's OLLP and the `*-R` ablation variants,
/// §IV-C). Returns a [`Prediction`] without pivot observations: without
/// symbolic execution there is no way to know which reads pivot the
/// key-set, so the commit check is key-set containment instead.
///
/// # Errors
/// [`TxFailure::Eval`] on workload bugs.
pub fn reconnoiter(
    store: &EpochStore,
    program: &Program,
    inputs: &[Value],
    snapshot: Snapshot,
) -> (Result<Prediction, TxFailure>, OpCounts) {
    let mut view = ExecView::recon(store, snapshot);
    let run = Interpreter::new().without_input_validation().run(program, inputs, &mut view);
    let result = run.map_err(TxFailure::Eval).map(|outcome| {
        let mut prediction = Prediction::default();
        for k in &outcome.trace.reads {
            if !prediction.reads.contains(k) {
                prediction.reads.push(k.clone());
            }
        }
        for k in &outcome.trace.writes {
            if !prediction.writes.contains(k) {
                prediction.writes.push(k.clone());
            }
        }
        prediction
    });
    (result, view.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosticator_txir::{Expr, InputBound, ProgramBuilder, TableId};

    fn k(i: i64) -> Key {
        Key::of_ints(TableId(0), &[i])
    }

    fn k1(i: i64) -> Key {
        Key::of_ints(TableId(1), &[i])
    }

    /// v = GET(t0(id)); PUT(t1(v), 1)  — dependent transaction.
    fn dep_program() -> prognosticator_txir::Program {
        let mut b = ProgramBuilder::new("dep");
        let t = b.table("t0");
        let u = b.table("t1");
        let id = b.input("id", InputBound::int(0, 99));
        let v = b.var("v");
        b.get(v, Expr::key(t, vec![Expr::input(id)]));
        b.put(Expr::key(u, vec![Expr::var(v)]), Expr::lit(1));
        b.build()
    }

    #[test]
    fn exec_view_buffers_and_commits() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(10))]);
        let allowed = AccessScope::Keys([k(1)].into_iter().collect());
        let mut view = ExecView::new(&store, &allowed);
        assert_eq!(view.get(&k(1)), Some(Value::Int(10)));
        view.put(&k(1), Value::Int(11));
        // Not visible in the store until commit.
        assert_eq!(store.get_latest(&k(1)), Some(Value::Int(10)));
        // Read-your-writes inside the view.
        assert_eq!(view.get(&k(1)), Some(Value::Int(11)));
        assert!(!view.violated());
        let log = view.commit();
        assert_eq!(store.get_latest(&k(1)), Some(Value::Int(11)));
        // Provenance: read saw ver 1 (populate), write installed ver 2;
        // the second get was a read-your-writes buffer hit, not logged.
        assert_eq!(log.reads, vec![(k(1), 1)]);
        assert_eq!(log.writes, vec![(k(1), 2)]);
    }

    #[test]
    fn op_counts_cover_every_get_put_and_buffer_hit() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(10))]);
        let allowed = AccessScope::Keys([k(1)].into_iter().collect());
        let mut view = ExecView::new(&store, &allowed);
        view.get(&k(1)); // store read
        view.put(&k(1), Value::Int(11));
        view.get(&k(1)); // buffer hit
        view.get(&k(2)); // out of scope: still a GET the program issued
        assert_eq!(view.ops, OpCounts { gets: 3, buffer_hits: 1, puts: 1, pivot_reads: 0 });
    }

    #[test]
    fn access_log_reads_absent_keys_as_version_zero() {
        let store = EpochStore::new();
        let allowed = AccessScope::Keys([k(5)].into_iter().collect());
        let mut view = ExecView::new(&store, &allowed);
        assert_eq!(view.get(&k(5)), None);
        let log = view.commit();
        assert_eq!(log.reads, vec![(k(5), 0)]);
    }

    #[test]
    fn commit_flush_is_sorted_by_key() {
        let store = EpochStore::new();
        let keys: Vec<Key> = (0..16).map(k).collect();
        let allowed = AccessScope::Keys(keys.iter().cloned().collect());
        let mut view = ExecView::new(&store, &allowed);
        // Insert in reverse so HashMap order can't accidentally be sorted.
        for (i, key) in keys.iter().enumerate().rev() {
            view.put(key, Value::Int(i as i64));
        }
        let log = view.commit();
        let logged: Vec<&Key> = log.writes.iter().map(|(key, _)| key).collect();
        let mut sorted = logged.clone();
        sorted.sort();
        assert_eq!(logged, sorted, "write log must be in key order");
    }

    #[test]
    fn out_of_set_read_is_deterministic_unit() {
        let store = EpochStore::new();
        store.populate(vec![(k(2), Value::Int(7))]);
        let allowed = AccessScope::Keys([k(1)].into_iter().collect());
        let mut view = ExecView::new(&store, &allowed);
        // k(2) exists but is outside the allowed set: Unit, flagged.
        assert_eq!(view.get(&k(2)), None);
        assert!(view.violated());
    }

    #[test]
    fn out_of_set_write_flags_violation() {
        let store = EpochStore::new();
        let allowed = AccessScope::Keys(HashSet::new());
        let mut view = ExecView::new(&store, &allowed);
        view.put(&k(3), Value::Int(1));
        assert!(view.violated());
        // Abort path: dropping the view writes nothing.
        drop(view);
        assert_eq!(store.get_latest(&k(3)), None);
    }

    #[test]
    fn pivot_validation_detects_change() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(5))]);
        let pred = Prediction {
            reads: vec![k(1)],
            writes: vec![],
            pivot_observations: vec![(k(1), Value::Int(5))],
        };
        let mut ops = OpCounts::default();
        assert!(validate_pivots(&store, &pred, &mut ops).is_ok());
        store.put(&k(1), Value::Int(6));
        assert_eq!(
            validate_pivots(&store, &pred, &mut ops),
            Err(TxFailure::PivotChanged { key: k(1) })
        );
        assert_eq!(ops.pivot_reads, 2, "one store read per comparison");
    }

    #[test]
    fn execute_update_aborts_cleanly_on_stale_pivot() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(5))]);
        let program = dep_program();
        // Prediction made when pivot was 5 → writes t1(5).
        let pred = Prediction {
            reads: vec![k(1)],
            writes: vec![k1(5)],
            pivot_observations: vec![(k(1), Value::Int(5))],
        };
        // Pivot changes before execution.
        store.put(&k(1), Value::Int(9));
        let err = execute_update(&store, &program, &[Value::Int(1)], &pred).0.unwrap_err();
        assert!(matches!(err, TxFailure::PivotChanged { .. }));
        // Nothing was written.
        assert_eq!(store.get_latest(&k1(5)), None);
        assert_eq!(store.get_latest(&k1(9)), None);
    }

    #[test]
    fn execute_update_commits_on_valid_pivot() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(5))]);
        let program = dep_program();
        let pred = Prediction {
            reads: vec![k(1)],
            writes: vec![k1(5)],
            pivot_observations: vec![(k(1), Value::Int(5))],
        };
        execute_update(&store, &program, &[Value::Int(1)], &pred).0.unwrap();
        assert_eq!(store.get_latest(&k1(5)), Some(Value::Int(1)));
    }

    #[test]
    fn read_only_reads_snapshot() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(5))]);
        let mut b = ProgramBuilder::new("rot");
        let t = b.table("t0");
        let v = b.var("v");
        b.get(v, Expr::key(t, vec![Expr::lit(1)]));
        b.emit(Expr::var(v));
        let program = b.build();
        // Uncommitted write in the current batch is invisible to the ROT.
        store.put(&k(1), Value::Int(99));
        let view = ExecView::read_only(&store, store.snapshot_epoch());
        let (out, log) = execute(view, &program, &[]).0.unwrap();
        assert_eq!(out, vec![Value::Int(5)]);
        // The ROT observed the populated version (ver 1), not the
        // current-batch write, and ROTs never log writes.
        assert_eq!(log.reads, vec![(k(1), 1)]);
        assert!(log.writes.is_empty());
    }

    #[test]
    fn reconnaissance_roundtrip() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(5))]);
        let program = dep_program();
        let snapshot = Snapshot::Epoch(store.snapshot_epoch());
        let pred = reconnoiter(&store, &program, &[Value::Int(1)], snapshot).0.unwrap();
        assert_eq!(pred.reads, vec![k(1)]);
        assert_eq!(pred.writes, vec![k1(5)]);
        // Execution with a matching state commits.
        execute_update(&store, &program, &[Value::Int(1)], &pred).0.unwrap();
        assert_eq!(store.get_latest(&k1(5)), Some(Value::Int(1)));
    }

    #[test]
    fn live_buffered_commits_on_success() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(5))]);
        let program = dep_program();
        execute(ExecView::live(&store), &program, &[Value::Int(1)]).0.unwrap();
        assert_eq!(store.get_latest(&k1(5)), Some(Value::Int(1)));
    }

    #[test]
    fn live_buffered_abort_leaves_no_torn_writes() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(0))]);
        // Writes t1(7) first, then divides by the (zero) value of t0(1):
        // the early write must not survive the abort.
        let mut b = ProgramBuilder::new("buggy");
        let t = b.table("t0");
        let u = b.table("t1");
        let v = b.var("v");
        b.put(Expr::key(u, vec![Expr::lit(7)]), Expr::lit(1));
        b.get(v, Expr::key(t, vec![Expr::lit(1)]));
        b.put(Expr::key(u, vec![Expr::lit(8)]), Expr::lit(100).div(Expr::var(v)));
        let program = b.build();
        let err = execute(ExecView::live(&store), &program, &[]).0.unwrap_err();
        assert!(matches!(err, TxFailure::Eval(_)));
        assert_eq!(store.get_latest(&k1(7)), None, "no torn write");
        assert_eq!(store.get_latest(&k1(8)), None);
    }

    #[test]
    fn reconnaissance_detects_divergence() {
        let store = EpochStore::new();
        store.populate(vec![(k(1), Value::Int(5))]);
        let program = dep_program();
        let snapshot = Snapshot::Epoch(store.snapshot_epoch());
        let pred = reconnoiter(&store, &program, &[Value::Int(1)], snapshot).0.unwrap();
        // State changes: the transaction now needs t1(9), not locked.
        store.put(&k(1), Value::Int(9));
        let err = execute_update(&store, &program, &[Value::Int(1)], &pred).0.unwrap_err();
        assert_eq!(err, TxFailure::KeySetViolation);
        assert_eq!(store.get_latest(&k1(9)), None, "abort left no writes");
    }
}
