//! Cross-system differential harness.
//!
//! One generated batch stream is replayed through every execution system
//! in the workspace and the results are diffed pairwise, asserting only
//! the equivalences the engine actually guarantees:
//!
//! * the threaded [`Engine`](prognosticator_core::Engine) at every swept
//!   worker count, and the discrete-event simulator, must agree on the
//!   per-transaction outcome vector of every batch *and* the final store
//!   digest — with or without an injected [`FaultPlan`];
//! * under a quiet plan, the `NODO` engine configuration (which preserves
//!   client order) must reproduce the `SEQ` baseline's outcomes and
//!   digest;
//! * under a quiet plan, the parallel variants must commit exactly the
//!   transactions `SEQ` commits (counts; their digests may differ because
//!   MF/SF replay failed transactions in a different serial order).
//!
//! On a mismatch the harness delta-debugs the batch stream down to a
//! minimal failing reproducer and writes it as JSON next to the test
//! binary (or wherever [`DifferentialConfig::artifact_dir`] points), so a
//! CI failure ships a ready-to-replay counterexample.

use crate::workload::{TestWorkload, WorkloadKind};
use prognosticator_bench::json::Json;
use prognosticator_bench::sim::{CostModel, SimReplica};
use prognosticator_core::baselines::{self, SeqEngine};
use prognosticator_core::{Catalog, FaultPlan, Replica, TxOutcome, TxRequest};
use prognosticator_txir::Value;
use std::path::PathBuf;
use std::sync::Arc;

/// What to run and compare.
#[derive(Debug, Clone)]
pub struct DifferentialConfig {
    /// Workload generating the batch stream.
    pub workload: WorkloadKind,
    /// Seed of the request stream.
    pub stream_seed: u64,
    /// Batches per run.
    pub batches: usize,
    /// Requests per batch.
    pub batch_size: usize,
    /// Worker counts for the threaded-engine legs.
    pub worker_counts: Vec<usize>,
    /// Shard counts for the threaded-engine legs: each worker count is
    /// run at each shard count and every leg must agree byte-for-byte
    /// (DESIGN.md §3.5 — sharding must not be observable in outcomes).
    pub shard_counts: Vec<usize>,
    /// Optional fault plan. When set, the `SEQ` legs are skipped (the
    /// serial baseline does not consult fault plans) and only the
    /// engine/simulator legs are diffed.
    pub fault_plan: Option<FaultPlan>,
    /// Where `.reproducer.json` files are written on mismatch.
    pub artifact_dir: PathBuf,
}

impl DifferentialConfig {
    /// The acceptance-bar configuration: {1, 2, 4} workers, quiet plan,
    /// artifacts under `target/testkit`.
    pub fn standard(workload: WorkloadKind, stream_seed: u64) -> Self {
        DifferentialConfig {
            workload,
            stream_seed,
            batches: 3,
            batch_size: 20,
            worker_counts: vec![1, 2, 4],
            shard_counts: vec![1],
            fault_plan: None,
            artifact_dir: PathBuf::from("target/testkit"),
        }
    }
}

/// A confirmed cross-system divergence, with its shrunk reproducer.
#[derive(Debug)]
pub struct Mismatch {
    /// Human-readable diff of the first divergence found.
    pub description: String,
    /// Where the reproducer JSON was written (empty if writing failed).
    pub reproducer: PathBuf,
    /// Transactions remaining after delta-debugging.
    pub shrunk_transactions: usize,
}

/// What a clean differential run established.
#[derive(Debug)]
pub struct DifferentialReport {
    /// Execution legs compared (engines + simulator + serial baseline).
    pub systems: usize,
    /// Transactions replayed per leg.
    pub transactions: usize,
    /// Transactions committed (per the engine reference leg).
    pub committed: usize,
    /// Transactions deterministically aborted (engine reference leg).
    pub aborted: usize,
}

struct Leg {
    name: String,
    outcomes: Vec<Vec<TxOutcome>>,
    digest: u64,
    committed: usize,
}

fn engine_leg(
    name: String,
    config: prognosticator_core::SchedulerConfig,
    workload: &TestWorkload,
    stream: &[Vec<TxRequest>],
    plan: Option<FaultPlan>,
) -> Leg {
    let mut replica =
        Replica::with_store(config, Arc::clone(workload.catalog()), workload.fresh_store());
    replica.set_fault_plan(plan);
    let mut outcomes = Vec::new();
    let mut committed = 0;
    for batch in stream {
        let out = replica.execute_batch(batch.clone());
        committed += out.committed;
        outcomes.push(out.outcomes);
    }
    let digest = replica.state_digest();
    // Engine legs double as isolation checks whenever recording is on.
    crate::isolation::assert_replica_serializable(&replica, &name);
    replica.shutdown();
    Leg { name, outcomes, digest, committed }
}

fn sim_leg(
    name: String,
    config: prognosticator_core::SchedulerConfig,
    workload: &TestWorkload,
    stream: &[Vec<TxRequest>],
    plan: Option<FaultPlan>,
) -> Leg {
    let mut sim = SimReplica::new(
        config,
        CostModel::default(),
        Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    sim.set_fault_plan(plan);
    let mut outcomes = Vec::new();
    let mut committed = 0;
    for batch in stream {
        let out = sim.execute_batch(batch.clone());
        committed += out.committed;
        outcomes.push(out.outcomes);
    }
    Leg { name, digest: sim.state_digest(), outcomes, committed }
}

fn seq_leg(workload: &TestWorkload, stream: &[Vec<TxRequest>]) -> Leg {
    let mut seq = SeqEngine::new(Arc::clone(workload.catalog()), workload.fresh_store());
    let mut outcomes = Vec::new();
    let mut committed = 0;
    for batch in stream {
        let out = seq.execute_batch(batch.clone());
        committed += out.committed;
        outcomes.push(out.outcomes);
    }
    let digest = seq.store().state_digest();
    Leg { name: "seq".into(), outcomes, digest, committed }
}

fn diff_legs(a: &Leg, b: &Leg, digests: bool) -> Option<String> {
    for (i, (la, lb)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        if la != lb {
            return Some(format!(
                "outcome vectors diverge in batch {i}: {} says {la:?}, {} says {lb:?}",
                a.name, b.name
            ));
        }
    }
    if digests && a.digest != b.digest {
        return Some(format!(
            "store digests diverge: {} = {:#018x}, {} = {:#018x}",
            a.name, a.digest, b.name, b.digest
        ));
    }
    None
}

/// Runs every system over `stream` and returns the first divergence, or
/// the reference leg's stats if all agree.
fn check_stream(
    config: &DifferentialConfig,
    workload: &TestWorkload,
    stream: &[Vec<TxRequest>],
) -> Result<(usize, Leg), String> {
    let plan = &config.fault_plan;
    let mut systems = 0;

    // Engine legs across (worker × shard) counts, plus the simulator:
    // outcome vectors and digests must be byte-identical (schedule
    // independence; shard independence per DESIGN.md §3.5).
    let mut parallel_legs = Vec::new();
    for &workers in &config.worker_counts {
        for &shards in &config.shard_counts {
            parallel_legs.push(engine_leg(
                format!("engine[mq-mf,w={workers},s={shards}]"),
                prognosticator_core::SchedulerConfig { shards, ..baselines::mq_mf(workers) },
                workload,
                stream,
                plan.clone(),
            ));
            systems += 1;
        }
    }
    parallel_legs.push(sim_leg(
        format!("sim[mq-mf,w={}]", config.worker_counts[0]),
        baselines::mq_mf(config.worker_counts[0]),
        workload,
        stream,
        plan.clone(),
    ));
    systems += 1;
    let (reference, rest) = parallel_legs.split_first().expect("at least one leg");
    for leg in rest {
        if let Some(diff) = diff_legs(reference, leg, true) {
            return Err(diff);
        }
    }

    // SEQ legs: only meaningful under a quiet plan (the serial baseline
    // does not consult fault plans). NODO preserves client order, so it
    // must reproduce SEQ exactly; the parallel variants may serialize
    // retried transactions differently, so only commit counts compare.
    if plan.is_none() {
        let seq = seq_leg(workload, stream);
        let nodo = engine_leg(
            format!("engine[nodo,w={}]", config.worker_counts[0]),
            baselines::nodo(config.worker_counts[0]),
            workload,
            stream,
            None,
        );
        systems += 2;
        if let Some(diff) = diff_legs(&seq, &nodo, true) {
            return Err(diff);
        }
        if reference.committed != seq.committed {
            return Err(format!(
                "commit counts diverge: {} committed {}, seq committed {}",
                reference.name, reference.committed, seq.committed
            ));
        }
    }

    let reference = parallel_legs.into_iter().next().expect("reference leg");
    Ok((systems, reference))
}

/// Greedy delta-debugging over a batch stream: repeatedly drop whole
/// batches, then chunks of transactions (halving chunk sizes down to 1),
/// keeping any removal under which `fails` still reports a failure.
///
/// `fails` must be deterministic; the returned stream is 1-minimal at the
/// transaction level (removing any single remaining transaction makes the
/// failure disappear).
pub fn shrink_stream(
    mut stream: Vec<Vec<TxRequest>>,
    fails: &mut dyn FnMut(&[Vec<TxRequest>]) -> bool,
) -> Vec<Vec<TxRequest>> {
    debug_assert!(fails(&stream), "shrink_stream called on a passing stream");
    // Pass 1: drop whole batches.
    let mut i = 0;
    while i < stream.len() && stream.len() > 1 {
        let removed = stream.remove(i);
        if fails(&stream) {
            continue; // still failing without batch i; keep it removed
        }
        stream.insert(i, removed);
        i += 1;
    }
    // Pass 2: drop transaction chunks within each batch, halving sizes.
    loop {
        let mut changed = false;
        for b in 0..stream.len() {
            let mut chunk = stream[b].len().max(1).div_ceil(2);
            loop {
                let mut t = 0;
                while t < stream[b].len() && total_txs(&stream) > 1 {
                    let end = (t + chunk).min(stream[b].len());
                    let removed: Vec<TxRequest> = stream[b].drain(t..end).collect();
                    if fails(&stream) {
                        changed = true;
                        continue; // keep the chunk removed, retry at same t
                    }
                    for (off, tx) in removed.into_iter().enumerate() {
                        stream[b].insert(t + off, tx);
                    }
                    t += chunk;
                }
                if chunk == 1 {
                    break;
                }
                chunk = chunk.div_ceil(2);
            }
        }
        stream.retain(|b| !b.is_empty());
        if !changed {
            break;
        }
    }
    stream
}

fn total_txs(stream: &[Vec<TxRequest>]) -> usize {
    stream.iter().map(Vec::len).sum()
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Unit => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Record(fields) => Json::Arr(fields.iter().map(value_json).collect()),
        Value::List(items) => Json::Arr(items.iter().map(value_json).collect()),
    }
}

/// Renders a shrunk stream (plus run context) as the reproducer document.
pub fn reproducer_json(
    config: &DifferentialConfig,
    catalog: &Catalog,
    description: &str,
    stream: &[Vec<TxRequest>],
) -> Json {
    let batches = stream
        .iter()
        .map(|batch| {
            Json::Arr(
                batch
                    .iter()
                    .map(|tx| {
                        Json::obj(vec![
                            ("program", Json::Str(
                                catalog.entry(tx.program).program().name().to_string(),
                            )),
                            ("prog_id", Json::Int(tx.program.0 as i64)),
                            ("inputs", Json::Arr(tx.inputs.iter().map(value_json).collect())),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(config.workload.name().to_string())),
        ("stream_seed", Json::Int(config.stream_seed as i64)),
        (
            "worker_counts",
            Json::Arr(config.worker_counts.iter().map(|&w| Json::Int(w as i64)).collect()),
        ),
        (
            "shard_counts",
            Json::Arr(config.shard_counts.iter().map(|&s| Json::Int(s as i64)).collect()),
        ),
        (
            "fault_seed",
            match &config.fault_plan {
                Some(p) => Json::Int(p.seed() as i64),
                None => Json::Null,
            },
        ),
        ("mismatch", Json::Str(description.to_string())),
        ("batches", Json::Arr(batches)),
    ])
}

/// Runs the full differential: every system over the generated stream.
///
/// On success returns the run's stats; on divergence shrinks the stream to
/// a minimal failing reproducer, writes it to
/// `<artifact_dir>/<workload>-<seed>.reproducer.json`, and returns the
/// [`Mismatch`].
///
/// # Errors
/// Returns [`Mismatch`] when any two systems disagree.
pub fn run_differential(config: &DifferentialConfig) -> Result<DifferentialReport, Box<Mismatch>> {
    let workload = TestWorkload::new(config.workload);
    let stream = workload.gen_stream(config.stream_seed, config.batches, config.batch_size);
    let transactions = total_txs(&stream);

    match check_stream(config, &workload, &stream) {
        Ok((systems, reference)) => {
            let aborted = reference
                .outcomes
                .iter()
                .flatten()
                .filter(|o| matches!(o, TxOutcome::Aborted { .. }))
                .count();
            Ok(DifferentialReport {
                systems,
                transactions,
                committed: reference.committed,
                aborted,
            })
        }
        Err(description) => {
            let shrunk = shrink_stream(stream, &mut |candidate| {
                check_stream(config, &workload, candidate).is_err()
            });
            // Re-derive the (possibly different) minimal mismatch message.
            let final_desc = check_stream(config, &workload, &shrunk)
                .err()
                .unwrap_or(description);
            crate::report_oracle_failure(
                "differential",
                &final_desc,
                "differential-oracle-failure",
            );
            let json = reproducer_json(config, workload.catalog(), &final_desc, &shrunk);
            let path = config
                .artifact_dir
                .join(format!("{}-{}.reproducer.json", config.workload.name(), config.stream_seed));
            let written = std::fs::create_dir_all(&config.artifact_dir)
                .and_then(|()| std::fs::write(&path, json.render()))
                .is_ok();
            Err(Box::new(Mismatch {
                description: final_desc,
                reproducer: if written { path } else { PathBuf::new() },
                shrunk_transactions: total_txs(&shrunk),
            }))
        }
    }
}
