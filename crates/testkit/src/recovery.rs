//! Crash-recovery fuzzer.
//!
//! For each seeded crash point the harness runs the same workload twice:
//!
//! 1. a **reference** run that never crashes, recording the full
//!    per-transaction outcome trace and final store digest;
//! 2. a **crashed** run that appends every committed batch to a real
//!    on-disk WAL ([`WalStore`]) before executing it, kills the replica
//!    at the scheduled crash batch — optionally with a seeded disk fault
//!    armed (torn final frame, failed fsync, partial snapshot) — then
//!    restarts it: the durable prefix is decoded back out of the WAL,
//!    replayed faults-quiet through [`Replica::recover`], and the batches
//!    lost to the crash (or to the torn tail) are re-executed live.
//!
//! The crashed run must end with the byte-identical outcome trace and
//! store digest as the reference — across worker counts, workloads, and
//! disk-fault modes. On a mismatch the harness writes a
//! `.reproducer.json` artifact capturing the exact coordinates.

use crate::workload::{TestWorkload, WorkloadKind};
use prognosticator::TxBatchCodec;
use prognosticator_bench::json::Json;
use prognosticator_consensus::raft::Record;
use prognosticator_consensus::{DiskFault, DurabilityStats, LogStore, WalStore};
use prognosticator_core::faults::{mix, splitmix64};
use prognosticator_core::{baselines, FaultPlan, Replica, TxOutcome, TxRequest};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of one crash-recovery check.
#[derive(Debug, Clone)]
pub struct RecoveryFuzzConfig {
    /// Workload generating the batch stream.
    pub workload: WorkloadKind,
    /// Seed of both the request stream and the crash point.
    pub seed: u64,
    /// Batches in the run.
    pub batches: usize,
    /// Requests per batch.
    pub batch_size: usize,
    /// Worker counts to sweep; each must recover identically.
    pub worker_counts: Vec<usize>,
    /// Shard counts to sweep; each (worker × shard) leg must recover
    /// identically (DESIGN.md §3.5).
    pub shard_counts: Vec<usize>,
    /// Per-mille rate of injected worker panics in the live run (replay
    /// must reproduce their aborts without re-injecting them).
    pub worker_panic_per_mille: u16,
    /// Arm a seeded disk fault at the crash point.
    pub disk_faults: bool,
    /// Where `.reproducer.json` artifacts are written on failure.
    pub artifact_dir: PathBuf,
    /// Scratch directory for the on-disk WAL files.
    pub wal_dir: PathBuf,
}

impl RecoveryFuzzConfig {
    /// The acceptance-bar configuration: {1, 2, 4} workers, worker panics
    /// active, disk faults armed, artifacts under `target/testkit`.
    pub fn standard(workload: WorkloadKind, seed: u64) -> Self {
        let target = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target");
        RecoveryFuzzConfig {
            workload,
            seed,
            batches: 6,
            batch_size: 16,
            worker_counts: vec![1, 2, 4],
            shard_counts: vec![1],
            worker_panic_per_mille: 120,
            disk_faults: true,
            artifact_dir: target.join("testkit"),
            wal_dir: target.join("tmp/recovery"),
        }
    }
}

/// What one clean crash-recovery check established.
#[derive(Debug, Clone)]
pub struct CrashRecoveryReport {
    /// The batch after whose WAL append the replica was killed.
    pub crash_batch: u64,
    /// The disk fault armed at the crash, if any.
    pub disk_fault: Option<DiskFault>,
    /// Batches that survived in the WAL (per worker count they are
    /// identical, so this is from the last leg).
    pub durable_batches: usize,
    /// Batches re-executed live after replay (lost to the crash).
    pub caught_up_batches: usize,
    /// Durability counters from the crashed leg's WAL.
    pub stats: DurabilityStats,
    /// Microseconds spent in recovery replay (summed over worker legs).
    pub replay_us: u64,
}

/// A recovery-soundness violation, with its artifact.
#[derive(Debug)]
pub struct RecoveryMismatch {
    /// Human-readable description of the first divergence.
    pub description: String,
    /// Where the reproducer JSON was written (empty if writing failed).
    pub reproducer: PathBuf,
}

/// One batch's observable result, projected for comparison.
type BatchTrace = (Vec<TxOutcome>, usize, usize);

/// The crash batch for `seed`: deterministic, spread over the run.
pub fn crash_batch_for(seed: u64, batches: usize) -> u64 {
    splitmix64(seed) % batches as u64
}

/// The disk fault armed at `crash_batch` for `seed`. The draw is the one
/// `FaultPlan` used to make (its mix of the seed with domain 6 and the
/// batch), so every recorded crash-recovery seed still arms the same
/// fault.
fn disk_fault_for(seed: u64, crash_batch: u64) -> DiskFault {
    match mix(seed, 6, crash_batch, 0) % 3 {
        0 => DiskFault::TornFinalFrame,
        1 => DiskFault::FailedFsync,
        _ => DiskFault::PartialSnapshot,
    }
}

fn run_reference(
    workload: &TestWorkload,
    stream: &[Vec<TxRequest>],
    plan: &FaultPlan,
    workers: usize,
    shards: usize,
) -> (Vec<BatchTrace>, u64) {
    let mut replica = Replica::with_store(
        prognosticator_core::SchedulerConfig { shards, ..baselines::mq_mf(workers) },
        std::sync::Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    replica.set_fault_plan(Some(plan.clone()));
    let mut trace = Vec::new();
    for batch in stream {
        let o = replica.execute_batch(batch.clone());
        trace.push((o.outcomes, o.aborted, o.carried_over.len()));
    }
    let digest = replica.state_digest();
    // Reference legs double as isolation checks when recording is on.
    crate::isolation::assert_replica_serializable(&replica, "recovery reference");
    replica.shutdown();
    (trace, digest)
}

/// Runs the crashed leg for one worker count. Returns the recovered
/// trace/digest plus durable/caught-up batch counts, WAL stats, and
/// replay time.
#[allow(clippy::type_complexity)]
fn run_crashed(
    config: &RecoveryFuzzConfig,
    workload: &TestWorkload,
    stream: &[Vec<TxRequest>],
    plan: &FaultPlan,
    workers: usize,
    shards: usize,
    (crash, disk_fault): (u64, Option<DiskFault>),
) -> Result<(Vec<BatchTrace>, u64, usize, usize, DurabilityStats, u64), String> {
    // Several tests in one binary may sweep the same seeds concurrently;
    // the per-call sequence number keeps their WAL directories apart.
    static CALL: AtomicU64 = AtomicU64::new(0);
    let dir = config.wal_dir.join(format!(
        "{}-s{}-w{}-p{}-{}-{}",
        config.workload.name(),
        config.seed,
        workers,
        shards,
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Live phase: append-then-execute until the crash point. ----
    let mut wal: WalStore<Vec<TxRequest>, TxBatchCodec> =
        WalStore::open(&dir, TxBatchCodec).map_err(|e| format!("wal open: {e}"))?;
    let mut replica = Replica::with_store(
        prognosticator_core::SchedulerConfig { shards, ..baselines::mq_mf(workers) },
        std::sync::Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    replica.set_fault_plan(Some(plan.clone()));
    let mut pre_crash: Vec<BatchTrace> = Vec::new();
    for (i, batch) in stream.iter().enumerate() {
        let at_crash = i as u64 == crash;
        if at_crash {
            if let Some(fault) = disk_fault {
                wal.arm_fault(fault);
            }
        }
        // Durability before visibility: the batch is in the WAL before
        // any replica executes it (it is "committed" by consensus here).
        let record =
            Record { term: 1, id: i as u64 + 1, payload: Some(batch.clone()) };
        wal.append(&record);
        if at_crash {
            // Kill the node mid-batch: the append may be torn/unsynced,
            // the execution never happens, all volatile state dies.
            break;
        }
        let o = replica.execute_batch(batch.clone());
        pre_crash.push((o.outcomes, o.aborted, o.carried_over.len()));
    }
    replica.shutdown();
    drop(replica);
    let live_stats = wal.stats();
    let _ = wal.simulate_crash().map_err(|e| format!("simulate_crash: {e}"))?;

    // ---- Recovery: reopen the WAL, decode the durable prefix. ----
    let wal: WalStore<Vec<TxRequest>, TxBatchCodec> =
        WalStore::open(&dir, TxBatchCodec).map_err(|e| format!("wal reopen: {e}"))?;
    // Live-phase fsync/append counters + recovery-phase torn-tail drops.
    let stats = live_stats.merge(&wal.stats());
    let durable: Vec<Vec<TxRequest>> = wal
        .records()
        .into_iter()
        .filter_map(|r| r.payload)
        .collect();
    let durable_batches = durable.len();
    if durable_batches < pre_crash.len() {
        // A torn/unsynced append can only ever lose the *final* frame —
        // everything executed before the crash batch must have survived.
        return Err(format!(
            "WAL lost executed batches: {} durable < {} executed",
            durable_batches,
            pre_crash.len()
        ));
    }
    let (mut recovered, report) = Replica::recover(
        prognosticator_core::SchedulerConfig { shards, ..baselines::mq_mf(workers) },
        std::sync::Arc::clone(workload.catalog()),
        workload.fresh_store(),
        durable,
        Some(plan),
        None,
    );
    let mut trace: Vec<BatchTrace> = report
        .outcomes
        .iter()
        .map(|o| (o.outcomes.clone(), o.aborted, o.carried_over.len()))
        .collect();

    // The replayed prefix of the trace must equal what the pre-crash
    // incarnation observed (recovery soundness at the outcome level).
    if trace[..pre_crash.len()] != pre_crash[..] {
        recovered.shutdown();
        return Err("replayed outcomes diverged from pre-crash outcomes".into());
    }

    // ---- Heal: re-execute everything the crash lost, live. ----
    let caught_up = stream.len() - durable_batches;
    for batch in &stream[durable_batches..] {
        let o = recovered.execute_batch(batch.clone());
        trace.push((o.outcomes, o.aborted, o.carried_over.len()));
    }
    let digest = recovered.state_digest();
    // The recovered replica replayed plus re-executed everything on a
    // fresh store, so its trace is a complete history: check it too.
    if let Some(msg) = crate::isolation::check_replica_trace(&recovered, "recovered replica") {
        recovered.shutdown();
        return Err(msg);
    }
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((trace, digest, durable_batches, caught_up, stats, report.replay_us))
}

fn reproducer_json(config: &RecoveryFuzzConfig, crash: u64, description: &str) -> Json {
    Json::obj(vec![
        ("check", Json::Str("crash-recovery".into())),
        ("workload", Json::Str(config.workload.name().into())),
        ("seed", Json::Int(config.seed as i64)),
        ("batches", Json::Int(config.batches as i64)),
        ("batch_size", Json::Int(config.batch_size as i64)),
        ("crash_batch", Json::Int(crash as i64)),
        ("disk_faults", Json::Bool(config.disk_faults)),
        (
            "worker_counts",
            Json::Arr(config.worker_counts.iter().map(|&w| Json::Int(w as i64)).collect()),
        ),
        (
            "shard_counts",
            Json::Arr(config.shard_counts.iter().map(|&s| Json::Int(s as i64)).collect()),
        ),
        ("worker_panic_per_mille", Json::Int(i64::from(config.worker_panic_per_mille))),
        ("mismatch", Json::Str(description.into())),
    ])
}

/// Runs one full crash-recovery check: reference vs crashed-and-recovered
/// runs for every configured worker count, requiring byte-identical
/// outcome traces and digests.
///
/// # Errors
/// Returns [`RecoveryMismatch`] (with a written reproducer artifact) when
/// any leg diverges from its reference.
pub fn run_crash_recovery(
    config: &RecoveryFuzzConfig,
) -> Result<CrashRecoveryReport, Box<RecoveryMismatch>> {
    let workload = TestWorkload::new(config.workload);
    let stream = workload.gen_stream(config.seed, config.batches, config.batch_size);
    let crash = crash_batch_for(config.seed, config.batches);
    let plan = FaultPlan::quiet(config.seed).with_worker_panics(config.worker_panic_per_mille);
    let disk_fault = config.disk_faults.then(|| disk_fault_for(config.seed, crash));

    let fail = |description: String| -> Box<RecoveryMismatch> {
        crate::report_oracle_failure("crash-recovery", &description, "recovery-oracle-failure");
        let json = reproducer_json(config, crash, &description);
        let path = config.artifact_dir.join(format!(
            "{}-crash{}.reproducer.json",
            config.workload.name(),
            config.seed
        ));
        let written = std::fs::create_dir_all(&config.artifact_dir)
            .and_then(|()| std::fs::write(&path, json.render()))
            .is_ok();
        Box::new(RecoveryMismatch {
            description,
            reproducer: if written { path } else { PathBuf::new() },
        })
    };

    let mut durable_batches = 0;
    let mut caught_up_batches = 0;
    let mut stats = DurabilityStats::default();
    let mut replay_us = 0;
    let mut reference: Option<(Vec<BatchTrace>, u64)> = None;
    for &workers in &config.worker_counts {
        for &shards in &config.shard_counts {
            let (ref_trace, ref_digest) =
                run_reference(&workload, &stream, &plan, workers, shards);
            // Worker and shard counts must also agree with each other (the
            // existing determinism properties), which makes any recovery
            // divergence attributable to the crash path rather than
            // scheduling or partitioning.
            if let Some((first_trace, first_digest)) = &reference {
                if *first_trace != ref_trace || *first_digest != ref_digest {
                    return Err(fail(format!(
                        "reference runs diverged across legs (workers={workers}, \
                         shards={shards})"
                    )));
                }
            } else {
                reference = Some((ref_trace.clone(), ref_digest));
            }
            match run_crashed(config, &workload, &stream, &plan, workers, shards, (crash, disk_fault)) {
                Ok((trace, digest, durable, caught_up, leg_stats, leg_replay_us)) => {
                    if trace != ref_trace {
                        return Err(fail(format!(
                            "recovered outcome trace diverged from never-crashed reference \
                             (workers={workers}, shards={shards}, crash_batch={crash}, \
                             disk_fault={disk_fault:?})"
                        )));
                    }
                    if digest != ref_digest {
                        return Err(fail(format!(
                            "recovered digest {digest:#x} != reference {ref_digest:#x} \
                             (workers={workers}, shards={shards}, crash_batch={crash}, \
                             disk_fault={disk_fault:?})"
                        )));
                    }
                    durable_batches = durable;
                    caught_up_batches = caught_up;
                    stats = leg_stats;
                    replay_us += leg_replay_us;
                }
                Err(description) => {
                    return Err(fail(format!(
                        "{description} (workers={workers}, shards={shards}, \
                         crash_batch={crash}, disk_fault={disk_fault:?})"
                    )))
                }
            }
        }
    }
    Ok(CrashRecoveryReport {
        crash_batch: crash,
        disk_fault,
        durable_batches,
        caught_up_batches,
        stats,
        replay_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Crash point and disk fault are what `core::FaultPlan` drew for
    /// these seeds before the decision moved here: a recorded reproducer
    /// must keep naming the same crash.
    #[test]
    fn recorded_seeds_arm_the_same_crash_and_fault() {
        use DiskFault::{FailedFsync, PartialSnapshot, TornFinalFrame};
        for (seed, crash, fault) in [
            (0x5B_000, 0, TornFinalFrame),
            (0x5B_001, 2, FailedFsync),
            (0x5B_002, 1, TornFinalFrame),
            (0x5B_003, 5, PartialSnapshot),
            (7, 3, FailedFsync),
            (33, 0, PartialSnapshot),
        ] {
            assert_eq!(crash_batch_for(seed, 6), crash, "seed {seed:#x}");
            assert_eq!(disk_fault_for(seed, crash), fault, "seed {seed:#x}");
        }
    }
}
