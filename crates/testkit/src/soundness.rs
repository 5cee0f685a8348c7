//! RWS-soundness oracle.
//!
//! The scheduler's correctness rests on one invariant: the key-level
//! read/write-set predicted from a program's symbolic-execution profile is
//! a **superset** of the keys the transaction concretely touches (paper
//! §III-B — over-approximation is a performance cost, under-approximation
//! is a correctness bug: an unlocked access races). The oracle replays a
//! workload stream transaction by transaction:
//!
//! 1. predict the RWS with [`Profile::predict`], resolving pivots against
//!    the live store exactly like the engine's *prepare* phase;
//! 2. execute the transaction through a tracing [`TxStore`] shim that
//!    records every concrete key the interpreter touches while buffering
//!    writes;
//! 3. assert recorded ⊆ predicted, then flush the buffered writes so the
//!    stream replays against evolving state.
//!
//! Programs whose analysis was capped (no profile — the reconnaissance
//! fallback) are executed but counted separately: reconnaissance derives
//! the RWS from a trial run, so it is exact by construction.

use crate::workload::{TestWorkload, WorkloadKind};
use prognosticator_core::ShardRouter;
use prognosticator_storage::EpochStore;
use prognosticator_symexec::{PivotResolver, TxClass};
use prognosticator_txir::{Interpreter, Key, TxStore, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

/// An RWS-soundness violation: the profile under-approximated.
#[derive(Debug)]
pub struct SoundnessError {
    /// Program whose prediction missed a key.
    pub program: String,
    /// Position of the transaction in the replayed stream.
    pub tx_index: usize,
    /// Concretely touched keys absent from the prediction.
    pub missing: Vec<Key>,
}

impl std::fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsound RWS for program `{}` (tx #{}): {} concretely-touched key(s) \
             missing from the prediction: {:?}",
            self.program,
            self.tx_index,
            self.missing.len(),
            self.missing
        )
    }
}

impl std::error::Error for SoundnessError {}

/// Per-template (per-program) soundness statistics: the oracle's view of
/// how tight one program's profile is on the replayed stream, and how
/// often its resolved pivots were still valid after execution.
#[derive(Debug, Clone, Default)]
pub struct TemplateSoundness {
    /// Program name.
    pub program: String,
    /// Checked transactions of this template.
    pub checked: usize,
    /// Total predicted keys.
    pub predicted_keys: u64,
    /// Total concretely touched keys.
    pub touched_keys: u64,
    /// Checked transactions whose prediction consulted ≥ 1 pivot.
    pub pivot_predictions: usize,
    /// Of those, predictions whose every pivot observation still matched
    /// a post-execution re-read (the engine's validation would pass; a
    /// template that overwrites its own pivot scores misses here).
    pub pivot_hits: usize,
}

impl TemplateSoundness {
    /// Per-template over-approximation ratio (predicted / touched; `1.0`
    /// when the template touched nothing).
    pub fn ratio(&self) -> f64 {
        if self.touched_keys == 0 {
            1.0
        } else {
            self.predicted_keys as f64 / self.touched_keys as f64
        }
    }

    /// Pivot hit rate (`1.0` for templates that never consult pivots).
    pub fn pivot_hit_rate(&self) -> f64 {
        if self.pivot_predictions == 0 {
            1.0
        } else {
            self.pivot_hits as f64 / self.pivot_predictions as f64
        }
    }
}

/// Per-workload soundness statistics.
#[derive(Debug)]
pub struct SoundnessReport {
    /// Workload name.
    pub workload: &'static str,
    /// Update transactions checked against their profile's prediction.
    pub checked: usize,
    /// Transactions executed via the reconnaissance fallback (no profile;
    /// exact by construction, not counted in the ratio).
    pub recon: usize,
    /// Read-only transactions (predictions checked like updates).
    pub read_only: usize,
    /// Total predicted keys over all checked transactions.
    pub predicted_keys: u64,
    /// Total concretely touched keys over all checked transactions.
    pub touched_keys: u64,
    /// Shard count the predictions were routed over (DESIGN.md §3.5).
    pub shards: usize,
    /// Checked transactions whose predicted RWS routed to one shard.
    pub single_shard: usize,
    /// Checked transactions whose predicted RWS spanned shards.
    pub cross_shard: usize,
    /// Per-template statistics, ordered by program name.
    pub templates: Vec<TemplateSoundness>,
}

impl SoundnessReport {
    /// Over-approximation ratio: predicted / touched (≥ 1.0 when sound;
    /// exactly 1.0 means the profiles are key-precise on this stream).
    pub fn ratio(&self) -> f64 {
        self.predicted_keys as f64 / self.touched_keys as f64
    }

    /// Fraction of checked transactions whose predicted RWS spanned more
    /// than one shard at this report's shard count (0.0 when routed over
    /// a single shard).
    pub fn cross_shard_ratio(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.cross_shard as f64 / self.checked as f64
        }
    }

    /// The `n` loosest templates, worst first (ties broken by name so the
    /// output is stable across runs).
    pub fn worst_templates(&self, n: usize) -> Vec<&TemplateSoundness> {
        let mut sorted: Vec<&TemplateSoundness> = self.templates.iter().collect();
        sorted.sort_by(|a, b| {
            b.ratio()
                .partial_cmp(&a.ratio())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.program.cmp(&b.program))
        });
        sorted.truncate(n);
        sorted
    }

    /// Multi-line human summary: the workload totals plus the top-3
    /// loosest templates with their over-approximation ratios and pivot
    /// hit rates. This is what failure messages and the suite's summary
    /// output print.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "[rws-soundness] {}: checked={} recon={} read_only={} predicted={} touched={} \
             ratio={:.3}",
            self.workload,
            self.checked,
            self.recon,
            self.read_only,
            self.predicted_keys,
            self.touched_keys,
            self.ratio()
        );
        for t in self.worst_templates(3) {
            let _ = write!(
                out,
                "\n  worst `{}`: ratio={:.3} pivot_hit_rate={:.3} \
                 (checked={} predicted={} touched={})",
                t.program,
                t.ratio(),
                t.pivot_hit_rate(),
                t.checked,
                t.predicted_keys,
                t.touched_keys
            );
        }
        out
    }
}

/// Tracing [`TxStore`] shim: reads hit the write buffer first, then the
/// live store; writes are buffered. Every accessed key is recorded.
struct TracingStore<'a> {
    store: &'a EpochStore,
    buffer: HashMap<Key, Value>,
    touched: HashSet<Key>,
}

impl<'a> TracingStore<'a> {
    fn new(store: &'a EpochStore) -> Self {
        TracingStore { store, buffer: HashMap::new(), touched: HashSet::new() }
    }

    fn commit(self) {
        for (k, v) in self.buffer {
            self.store.put(&k, v);
        }
    }
}

impl TxStore for TracingStore<'_> {
    fn get(&mut self, key: &Key) -> Option<Value> {
        self.touched.insert(key.clone());
        if let Some(v) = self.buffer.get(key) {
            return Some(v.clone());
        }
        self.store.get_latest(key)
    }

    fn put(&mut self, key: &Key, value: Value) {
        self.touched.insert(key.clone());
        self.buffer.insert(key.clone(), value);
    }
}

struct StoreResolver<'a> {
    store: &'a EpochStore,
}

impl PivotResolver for StoreResolver<'_> {
    fn read(&mut self, key: &Key) -> Value {
        self.store.get_latest(key).unwrap_or(Value::Unit)
    }
}

/// Executes `program` against `store` through the tracing shim, returning
/// the set of concretely touched keys and whether execution succeeded.
/// On success the buffered writes are flushed to the store (the
/// transaction "commits"); on failure the store is untouched.
pub fn traced_execute(
    interp: &Interpreter,
    program: &prognosticator_txir::Program,
    inputs: &[Value],
    store: &EpochStore,
) -> (HashSet<Key>, bool) {
    let mut view = TracingStore::new(store);
    let ran = interp.run(program, inputs, &mut view).is_ok();
    let touched = std::mem::take(&mut view.touched);
    if ran {
        view.commit();
    }
    (touched, ran)
}

/// Replays `batches`×`batch_size` transactions of `kind` (stream seed
/// `seed`), checking every profiled transaction's predicted RWS against
/// the keys it concretely touches.
///
/// # Errors
/// Returns the first [`SoundnessError`] — a prediction that missed a
/// concretely-touched key. Any error here is a profiler correctness bug.
///
/// # Panics
/// Panics if prediction itself fails (`PredictError`) or the stream
/// contains no profiled transactions — both mean the test setup is wrong,
/// not that the profiler is unsound.
pub fn check_soundness(
    kind: WorkloadKind,
    seed: u64,
    batches: usize,
    batch_size: usize,
) -> Result<SoundnessReport, SoundnessError> {
    check_soundness_sharded(kind, seed, batches, batch_size, 1)
}

/// [`check_soundness`] with the prediction additionally routed over
/// `shards` key-space shards, the way the engine's prepare phase does
/// (DESIGN.md §3.5). Beyond the superset check, every concretely touched
/// key must land on a shard the predicted RWS was routed to — an access
/// outside the routed owner set would execute without that shard's locks.
/// The report carries the single/cross split so workloads' cross-shard
/// ratios are observable per shard count.
///
/// # Errors
/// Returns the first [`SoundnessError`] — a prediction that missed a
/// concretely-touched key. Any error here is a profiler correctness bug.
///
/// # Panics
/// Panics if prediction fails, the stream has no profiled transactions,
/// or a touched key lies outside the routed owner shards.
pub fn check_soundness_sharded(
    kind: WorkloadKind,
    seed: u64,
    batches: usize,
    batch_size: usize,
    shards: usize,
) -> Result<SoundnessReport, SoundnessError> {
    let router = ShardRouter::new(shards);
    let workload = TestWorkload::new(kind);
    let store = workload.fresh_store();
    let stream = workload.gen_stream(seed, batches, batch_size);
    let interp = Interpreter::new().without_input_validation();

    let mut report = SoundnessReport {
        workload: kind.name(),
        checked: 0,
        recon: 0,
        read_only: 0,
        predicted_keys: 0,
        touched_keys: 0,
        shards: router.shards(),
        single_shard: 0,
        cross_shard: 0,
        templates: Vec::new(),
    };
    let mut per_template: BTreeMap<String, TemplateSoundness> = BTreeMap::new();

    let mut tx_index = 0usize;
    for batch in stream {
        for tx in batch {
            let entry = workload.catalog().entry(tx.program);
            let program = entry.program().clone();
            let predicted_full = match entry.profile() {
                Some(profile) => {
                    let mut resolver = StoreResolver { store: &store };
                    let prediction = profile
                        .predict(&tx.inputs, Some(&mut resolver))
                        .unwrap_or_else(|e| {
                            panic!("predict failed for `{}`: {e:?}", program.name())
                        });
                    Some(prediction)
                }
                None => None,
            };

            let (touched, _ran) = traced_execute(&interp, &program, &tx.inputs, &store);

            match predicted_full {
                Some(prediction) => {
                    let predicted: HashSet<Key> = prediction.key_set().into_iter().collect();
                    let missing: Vec<Key> =
                        touched.iter().filter(|k| !predicted.contains(*k)).cloned().collect();
                    if !missing.is_empty() {
                        return Err(SoundnessError {
                            program: program.name().to_string(),
                            tx_index,
                            missing,
                        });
                    }
                    report.checked += 1;
                    if entry.class() == TxClass::ReadOnly {
                        report.read_only += 1;
                    }
                    report.predicted_keys += predicted.len() as u64;
                    report.touched_keys += touched.len() as u64;

                    let t = per_template
                        .entry(program.name().to_string())
                        .or_insert_with(|| TemplateSoundness {
                            program: program.name().to_string(),
                            ..TemplateSoundness::default()
                        });
                    t.checked += 1;
                    t.predicted_keys += predicted.len() as u64;
                    t.touched_keys += touched.len() as u64;
                    if !prediction.pivot_observations.is_empty() {
                        t.pivot_predictions += 1;
                        let valid = prediction
                            .pivot_observations
                            .iter()
                            .all(|(k, v)| &store.get_latest(k).unwrap_or(Value::Unit) == v);
                        if valid {
                            t.pivot_hits += 1;
                        }
                    }

                    // Routing soundness: the engine routes this tx at
                    // prepare time from exactly this prediction, so every
                    // concretely touched key must fall on a routed owner
                    // shard.
                    let predicted_keys: Vec<Key> = predicted.iter().cloned().collect();
                    let route = router.route(&predicted_keys);
                    let owners = route.owners();
                    for key in &touched {
                        let s = router.shard_of(key);
                        assert!(
                            owners.contains(&s),
                            "tx #{tx_index} (`{}`) touched {key:?} on shard {s}, outside \
                             its routed owner set {owners:?} ({} shards)",
                            program.name(),
                            router.shards()
                        );
                    }
                    if route.is_cross() {
                        report.cross_shard += 1;
                    } else {
                        report.single_shard += 1;
                    }
                }
                None => report.recon += 1,
            }
            tx_index += 1;
        }
        store.advance_epoch();
    }

    assert!(report.checked > 0, "stream for {} contained no profiled transactions", kind.name());
    assert!(report.touched_keys > 0, "profiled transactions touched no keys");
    report.templates = per_template.into_values().collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosticator_core::Catalog;
    use prognosticator_txir::{Expr, InputBound, ProgramBuilder, TableId};
    use std::collections::HashSet;

    /// v = GET(t0(id)); PUT(t1(v), 1) — a dependent transaction whose
    /// write key is only known after reading the pivot.
    fn dep_catalog() -> Catalog {
        let mut b = ProgramBuilder::new("dep");
        let t = b.table("t0");
        let u = b.table("t1");
        let id = b.input("id", InputBound::int(0, 9));
        let v = b.var("v");
        b.get(v, Expr::key(t, vec![Expr::input(id)]));
        b.put(Expr::key(u, vec![Expr::var(v)]), Expr::lit(1));
        let mut catalog = Catalog::new();
        catalog.register(b.build()).expect("registers");
        catalog
    }

    #[test]
    fn fresh_prediction_is_a_superset() {
        let catalog = dep_catalog();
        let entry = catalog.entry(prognosticator_core::ProgId(0));
        let store = EpochStore::new();
        store.insert_initial(Key::of_ints(TableId(0), &[3]), Value::Int(7));

        let mut resolver = StoreResolver { store: &store };
        let predicted: HashSet<Key> = entry
            .profile()
            .expect("dep has a profile")
            .predict(&[Value::Int(3)], Some(&mut resolver))
            .expect("predicts")
            .key_set()
            .into_iter()
            .collect();
        let interp = Interpreter::new().without_input_validation();
        let (touched, ran) =
            traced_execute(&interp, entry.program(), &[Value::Int(3)], &store);
        assert!(ran);
        assert!(touched.is_subset(&predicted), "missing: {:?}", &touched - &predicted);
        // The committed write landed under the pivot-directed key.
        assert_eq!(store.get_latest(&Key::of_ints(TableId(1), &[7])), Some(Value::Int(1)));
    }

    #[test]
    fn stale_prediction_is_caught_as_unsound() {
        // Predict while the pivot reads 7, then move the pivot before
        // executing: the concrete write goes to t1(8), which the stale
        // prediction does not cover. The oracle's superset check must
        // flag exactly that key.
        let catalog = dep_catalog();
        let entry = catalog.entry(prognosticator_core::ProgId(0));
        let store = EpochStore::new();
        store.insert_initial(Key::of_ints(TableId(0), &[3]), Value::Int(7));

        let mut resolver = StoreResolver { store: &store };
        let predicted: HashSet<Key> = entry
            .profile()
            .expect("dep has a profile")
            .predict(&[Value::Int(3)], Some(&mut resolver))
            .expect("predicts")
            .key_set()
            .into_iter()
            .collect();

        store.put(&Key::of_ints(TableId(0), &[3]), Value::Int(8));
        let interp = Interpreter::new().without_input_validation();
        let (touched, ran) =
            traced_execute(&interp, entry.program(), &[Value::Int(3)], &store);
        assert!(ran);
        let missing: Vec<Key> =
            touched.iter().filter(|k| !predicted.contains(*k)).cloned().collect();
        assert_eq!(missing, vec![Key::of_ints(TableId(1), &[8])]);
        let err = SoundnessError { program: "dep".into(), tx_index: 0, missing };
        assert!(err.to_string().contains("unsound RWS"));
    }

    #[test]
    fn failed_executions_do_not_commit() {
        let catalog = dep_catalog();
        let entry = catalog.entry(prognosticator_core::ProgId(0));
        let store = EpochStore::new();
        // Pivot holds Unit (missing) — key instantiation from Unit still
        // runs; what matters here is that the tracing shim records reads
        // of absent keys too.
        let interp = Interpreter::new().without_input_validation();
        let (touched, _ran) =
            traced_execute(&interp, entry.program(), &[Value::Int(5)], &store);
        assert!(touched.contains(&Key::of_ints(TableId(0), &[5])));
    }
}
