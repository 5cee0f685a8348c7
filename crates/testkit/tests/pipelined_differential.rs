//! Pipelined-vs-sequential differential oracle (the prepare-ahead seam).
//!
//! Claim under test: running a stream of batches with prepare-ahead
//! pipelining (the queuer classifies batch `N+1` inside batch `N`'s
//! update phases) produces byte-identical per-
//! transaction outcome vectors and store digests to the plain sequential
//! `prepare → execute` loop — across worker counts, stream seeds, and
//! under an active fault plan.

use prognosticator_core::{baselines, FaultPlan, Replica, TxOutcome};
use std::sync::Arc;
use testkit::{TestWorkload, WorkloadKind};

struct StreamResult {
    outcomes: Vec<Vec<TxOutcome>>,
    digest: u64,
    committed: usize,
    overlap_ns: u64,
}

fn run_stream(
    workload: &TestWorkload,
    stream: &[Vec<prognosticator_core::TxRequest>],
    workers: usize,
    depth: usize,
    fault_plan: Option<FaultPlan>,
) -> StreamResult {
    let mut replica = Replica::with_store(
        baselines::mq_mf(workers),
        Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    replica.set_fault_plan(fault_plan);
    let outs = replica.execute_stream(stream.to_vec(), depth);
    let committed = outs.iter().map(|o| o.committed).sum();
    let overlap_ns = outs.iter().map(|o| o.stage.overlap_ns).sum();
    let outcomes = outs.into_iter().map(|o| o.outcomes).collect();
    let digest = replica.state_digest();
    replica.shutdown();
    StreamResult { outcomes, digest, committed, overlap_ns }
}

fn assert_depths_agree(workload: WorkloadKind, stream_seed: u64, fault_plan: Option<FaultPlan>) {
    let wl = TestWorkload::new(workload);
    let stream = wl.gen_stream(stream_seed, 4, 24);
    for workers in [1usize, 2, 4] {
        let sequential = run_stream(&wl, &stream, workers, 0, fault_plan.clone());
        assert_eq!(
            sequential.overlap_ns, 0,
            "sequential path must report zero prepare-ahead overlap"
        );
        let pipelined = run_stream(&wl, &stream, workers, 1, fault_plan.clone());
        for (i, (seq, pipe)) in
            sequential.outcomes.iter().zip(&pipelined.outcomes).enumerate()
        {
            assert_eq!(
                seq, pipe,
                "outcome vector diverged: workload={} seed={stream_seed:#x} \
                 workers={workers} batch={i}",
                workload.name()
            );
        }
        assert_eq!(
            sequential.digest,
            pipelined.digest,
            "store digest diverged: workload={} seed={stream_seed:#x} workers={workers}",
            workload.name()
        );
        assert_eq!(sequential.committed, pipelined.committed);
        assert!(sequential.committed > 0, "degenerate stream: nothing committed");
    }
}

#[test]
fn pipelined_matches_sequential_smallbank() {
    for seed in [0x5EED1u64, 0x5EED2, 0x5EED3] {
        assert_depths_agree(WorkloadKind::SmallBank, seed, None);
    }
}

#[test]
fn pipelined_matches_sequential_tpcc() {
    for seed in [0x7C91u64, 0x7C92, 0x7C93] {
        assert_depths_agree(WorkloadKind::Tpcc, seed, None);
    }
}

#[test]
fn pipelined_matches_sequential_rubis() {
    for seed in [0x12B1u64, 0x12B2, 0x12B3] {
        assert_depths_agree(WorkloadKind::Rubis, seed, None);
    }
}

#[test]
fn pipelined_matches_sequential_under_faults() {
    // Dense injected worker panics: deterministic per-tx aborts must be
    // identical across the prepare-ahead seam too.
    for seed in [21u64, 22, 23] {
        let plan = FaultPlan::quiet(seed).with_worker_panics(120);
        assert_depths_agree(WorkloadKind::SmallBank, 0xFA0 + seed, Some(plan));
    }
}
