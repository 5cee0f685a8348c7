//! `proptest` strategies over the workspace's domain types.
//!
//! Generation goes through the workloads' own deterministic generators:
//! a strategy samples a `u64` stream seed and materializes requests from
//! it, so every sampled batch is well-formed (registered programs,
//! in-bounds inputs) and replayable from the case's recorded RNG state.
//!
//! The three workload fixtures (catalog + generator) are built once per
//! process and shared — catalogs are immutable after registration, so
//! sharing is safe and keeps property tests fast.

use crate::workload::{TestWorkload, WorkloadKind};
use proptest::prelude::*;
use prognosticator_core::{FaultPlan, TxRequest};
use prognosticator_workloads::DeterministicRng;
use std::sync::{Arc, OnceLock};

/// The shared fixture for `kind`, built on first use.
pub fn fixture(kind: WorkloadKind) -> Arc<TestWorkload> {
    static SMALLBANK: OnceLock<Arc<TestWorkload>> = OnceLock::new();
    static TPCC: OnceLock<Arc<TestWorkload>> = OnceLock::new();
    static RUBIS: OnceLock<Arc<TestWorkload>> = OnceLock::new();
    static HOT_SKEW: OnceLock<Arc<TestWorkload>> = OnceLock::new();
    static SCAN_STORM: OnceLock<Arc<TestWorkload>> = OnceLock::new();
    static YCSB_MIX: OnceLock<Arc<TestWorkload>> = OnceLock::new();
    static CHAIN_PIVOT: OnceLock<Arc<TestWorkload>> = OnceLock::new();
    static WIDENED: OnceLock<Arc<TestWorkload>> = OnceLock::new();
    let cell = match kind {
        WorkloadKind::SmallBank => &SMALLBANK,
        WorkloadKind::Tpcc => &TPCC,
        WorkloadKind::Rubis => &RUBIS,
        WorkloadKind::HotSkew => &HOT_SKEW,
        WorkloadKind::ScanStorm => &SCAN_STORM,
        WorkloadKind::YcsbMix => &YCSB_MIX,
        WorkloadKind::ChainPivot => &CHAIN_PIVOT,
        WorkloadKind::Widened => &WIDENED,
    };
    Arc::clone(cell.get_or_init(|| Arc::new(TestWorkload::new(kind))))
}

/// Strategy choosing one of the three workloads.
pub fn workload_strategy() -> BoxedStrategy<WorkloadKind> {
    prop_oneof![
        Just(WorkloadKind::SmallBank),
        Just(WorkloadKind::Tpcc),
        Just(WorkloadKind::Rubis),
    ]
    .boxed()
}

/// Strategy yielding one well-formed request from `kind`.
pub fn tx_request_strategy(kind: WorkloadKind) -> BoxedStrategy<TxRequest> {
    let workload = fixture(kind);
    (0u64..u64::MAX)
        .prop_map(move |seed| {
            let mut rng = DeterministicRng::new(seed);
            workload
                .gen_batch(&mut rng, 1)
                .pop()
                .expect("gen_batch(1) yields a request")
        })
        .boxed()
}

/// Strategy yielding a batch of `min..=max` well-formed requests from
/// `kind`, with the generating seed attached for replay messages.
pub fn batch_strategy(kind: WorkloadKind, min: usize, max: usize) -> BoxedStrategy<(u64, Vec<TxRequest>)> {
    assert!(min >= 1 && max >= min, "need 1 <= min <= max");
    let workload = fixture(kind);
    let span = (max - min + 1) as u64;
    (0u64..u64::MAX)
        .prop_map(move |seed| {
            let mut rng = DeterministicRng::new(seed);
            let size = min + (rng.range(0, span as i64 - 1) as usize);
            (seed, workload.gen_batch(&mut rng, size))
        })
        .boxed()
}

/// Strategy yielding a seeded [`FaultPlan`]: sometimes quiet, sometimes
/// injecting worker panics at a low per-mille rate.
pub fn fault_plan_strategy() -> BoxedStrategy<FaultPlan> {
    (0u64..u64::MAX, 0u16..4)
        .prop_map(|(seed, severity)| {
            let plan = FaultPlan::quiet(seed);
            match severity {
                0 => plan,
                s => plan.with_worker_panics(50 * s),
            }
        })
        .boxed()
}
