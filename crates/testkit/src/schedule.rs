//! Schedule-exploration fuzzer.
//!
//! The determinism claim under test: every transaction popped from the
//! lock table's ready queue is mutually non-conflicting with the others,
//! so *any* pick order is a legal schedule and all of them must produce
//! the same per-transaction outcome vector and the same final store
//! digest. The fuzzer drives the engine's
//! [`ReadyPolicy`](prognosticator_core::ReadyPolicy) seam with seeded
//! shuffle policies and sweeps the worker count *and* the prepare-ahead
//! depth (the queuer classifies batch `N+1` inside batch `N`'s update
//! phases), comparing every explored schedule against a FIFO reference
//! run.
//!
//! A policy chooses only where lock tables are drained: round 1 of an
//! engine with a worker pool. A round with one drainer — every `MF` retry
//! round, and round 1 at one worker — runs its members in member order
//! with no table, so it has no pick to perturb. That loses no coverage:
//! the lone drainer's order is fixed rather than schedule-dependent, and
//! `tests/retry_rounds.rs` pins it (a tagged pivot chain whose digest
//! records which copy each retry round commits first).

use crate::workload::{TestWorkload, WorkloadKind};
use prognosticator_core::{
    baselines, FaultPlan, Replica, SchedulerConfig, SeededShufflePolicy, TxOutcome,
};
use std::sync::Arc;

/// One fuzzing sweep: a seeded request stream replayed under every
/// `(policy seed × worker count)` combination.
#[derive(Debug, Clone)]
pub struct ScheduleSweep {
    /// Workload generating the request stream.
    pub workload: WorkloadKind,
    /// Seed of the request stream (same stream for every schedule).
    pub stream_seed: u64,
    /// Batches per run.
    pub batches: usize,
    /// Requests per batch.
    pub batch_size: usize,
    /// Seeds for [`SeededShufflePolicy`]; each yields a distinct
    /// ready-queue permutation.
    pub policy_seeds: Vec<u64>,
    /// Worker counts to sweep.
    pub worker_counts: Vec<usize>,
    /// Shard counts to sweep: every explored schedule runs at each count
    /// and must still reproduce the reference outcomes and digest
    /// (DESIGN.md §3.5 — shuffled pop order composes with sharding).
    pub shard_counts: Vec<usize>,
    /// Candidate window handed to the shuffle policy (how far from FIFO a
    /// schedule may stray).
    pub window: usize,
    /// Prepare-ahead depths to sweep (0 = sequential prepare→execute,
    /// 1 = classification pipelined one batch ahead). Every depth must
    /// reproduce the reference outcomes and digest.
    pub depths: Vec<usize>,
    /// Optional fault plan applied identically to every run.
    pub fault_plan: Option<FaultPlan>,
}

impl ScheduleSweep {
    /// The acceptance-bar sweep: 3 policy seeds × {1, 2, 4} workers.
    pub fn standard(workload: WorkloadKind, stream_seed: u64) -> Self {
        ScheduleSweep {
            workload,
            stream_seed,
            batches: 3,
            batch_size: 24,
            policy_seeds: vec![11, 42, 1973],
            worker_counts: vec![1, 2, 4],
            shard_counts: vec![1],
            window: 3,
            depths: vec![0, 1],
            fault_plan: None,
        }
    }

    /// Same sweep with a seeded fault plan injected into every run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// What a sweep established.
#[derive(Debug)]
pub struct ScheduleReport {
    /// Schedules explored (reference run included).
    pub explored: usize,
    /// Reference per-batch outcome vectors every schedule reproduced.
    pub outcomes: Vec<Vec<TxOutcome>>,
    /// Final store digest every schedule reproduced.
    pub digest: u64,
    /// Committed transactions in the reference run.
    pub committed: usize,
    /// Deterministically aborted transactions in the reference run.
    pub aborted: usize,
}

struct RunResult {
    outcomes: Vec<Vec<TxOutcome>>,
    digest: u64,
    committed: usize,
    aborted: usize,
}

fn run_schedule(
    workload: &TestWorkload,
    stream: &[Vec<prognosticator_core::TxRequest>],
    config: SchedulerConfig,
    fault_plan: Option<FaultPlan>,
    depth: usize,
) -> RunResult {
    let mut replica =
        Replica::with_store(config, Arc::clone(workload.catalog()), workload.fresh_store());
    replica.set_fault_plan(fault_plan);
    let stream_outcomes = replica.execute_stream(stream.to_vec(), depth);
    let mut outcomes = Vec::with_capacity(stream.len());
    let (mut committed, mut aborted) = (0, 0);
    for out in stream_outcomes {
        committed += out.committed;
        aborted += out.aborted;
        outcomes.push(out.outcomes);
    }
    let digest = replica.state_digest();
    // When recording is on, every explored schedule's trace also runs
    // through the independent serializability checker.
    crate::isolation::assert_replica_serializable(&replica, "schedule run");
    replica.shutdown();
    RunResult { outcomes, digest, committed, aborted }
}

/// Runs the sweep, panicking with full context on the first schedule whose
/// outcome vector or digest diverges from the FIFO reference.
///
/// # Panics
/// Panics on any divergence — that is the point: a panic here means a
/// schedule-dependent execution, i.e. a determinism bug.
pub fn explore_schedules(sweep: &ScheduleSweep) -> ScheduleReport {
    assert!(!sweep.policy_seeds.is_empty(), "need at least one policy seed");
    assert!(!sweep.worker_counts.is_empty(), "need at least one worker count");
    assert!(!sweep.depths.is_empty(), "need at least one prepare-ahead depth");
    assert!(!sweep.shard_counts.is_empty(), "need at least one shard count");
    let workload = TestWorkload::new(sweep.workload);
    let stream = workload.gen_stream(sweep.stream_seed, sweep.batches, sweep.batch_size);

    // FIFO, unpipelined, at the first worker count is the reference
    // schedule.
    let reference = run_schedule(
        &workload,
        &stream,
        baselines::mq_mf(sweep.worker_counts[0]),
        sweep.fault_plan.clone(),
        0,
    );

    let mut explored = 1;
    for &depth in &sweep.depths {
        for &workers in &sweep.worker_counts {
            for &shards in &sweep.shard_counts {
                for &seed in &sweep.policy_seeds {
                    let config = SchedulerConfig {
                        ready_policy: Arc::new(SeededShufflePolicy::new(seed, sweep.window)),
                        shards,
                        ..baselines::mq_mf(workers)
                    };
                    let run =
                        run_schedule(&workload, &stream, config, sweep.fault_plan.clone(), depth);
                    explored += 1;
                    for (i, (got, want)) in
                        run.outcomes.iter().zip(&reference.outcomes).enumerate()
                    {
                        if got != want {
                            let msg = format!(
                                "outcome vector diverged: workload={} batch={} policy_seed={} \
                                 workers={} shards={} depth={}",
                                sweep.workload.name(),
                                i,
                                seed,
                                workers,
                                shards,
                                depth
                            );
                            crate::report_oracle_failure(
                                "schedule",
                                &msg,
                                "schedule-oracle-failure",
                            );
                            panic!(
                                "assertion `left == right` failed: {msg}\n  left: {got:?}\n right: {want:?}"
                            );
                        }
                    }
                    if run.digest != reference.digest {
                        let msg = format!(
                            "store digest diverged: workload={} policy_seed={} workers={} \
                             shards={} depth={}",
                            sweep.workload.name(),
                            seed,
                            workers,
                            shards,
                            depth
                        );
                        crate::report_oracle_failure("schedule", &msg, "schedule-oracle-failure");
                        panic!(
                            "assertion `left == right` failed: {msg}\n  left: {:?}\n right: {:?}",
                            run.digest, reference.digest
                        );
                    }
                }
            }
        }
    }

    ScheduleReport {
        explored,
        outcomes: reference.outcomes,
        digest: reference.digest,
        committed: reference.committed,
        aborted: reference.aborted,
    }
}
