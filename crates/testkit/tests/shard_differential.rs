//! Shard-differential: the acceptance gate for sharded execution
//! (DESIGN.md §3.5). One generated batch stream is replayed through the
//! threaded engine at every shard count in `SHARD_COUNTS` (default
//! `1,2,4,8`), and every leg — plus the simulator and, under a quiet
//! plan, the serial baselines — must agree byte-for-byte on the
//! per-transaction outcome vector of every batch and the final store
//! digest. Sharding is a physical layout choice; it must never be
//! observable in results, with or without an injected [`FaultPlan`].
//!
//! The CI `shard-differential` job runs this suite with `SHARD_COUNTS`
//! pinned to `1,2,4,8` and uploads any `.reproducer.json` the harness
//! writes on a divergence.

use prognosticator_core::FaultPlan;
use testkit::{run_differential, DifferentialConfig, WorkloadKind};

fn artifact_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("shard-differential")
}

/// Shard counts under test, from the `SHARD_COUNTS` env knob (see the
/// README's test matrix). Defaults to the acceptance sweep {1, 2, 4, 8}.
fn shard_counts() -> Vec<usize> {
    let raw = std::env::var("SHARD_COUNTS").unwrap_or_else(|_| "1,2,4,8".into());
    let counts: Vec<usize> = raw
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad SHARD_COUNTS entry `{s}` in `{raw}`"))
        })
        .collect();
    assert!(!counts.is_empty(), "SHARD_COUNTS must name at least one shard count");
    counts
}

/// Runs the differential with the shard sweep as the varying dimension.
/// Worker counts stay fixed at 2 — the worker sweep is `differential.rs`'s
/// job; here every extra leg is a shard count.
fn sweep(workload: WorkloadKind, seed: u64, plan: Option<FaultPlan>) {
    let mut config = DifferentialConfig::standard(workload, seed);
    config.artifact_dir = artifact_dir();
    config.worker_counts = vec![2];
    config.shard_counts = shard_counts();
    config.fault_plan = plan;
    let report = run_differential(&config).unwrap_or_else(|m| {
        panic!(
            "{} seed {seed:#x}: {} (reproducer: {})",
            workload.name(),
            m.description,
            m.reproducer.display()
        )
    });
    assert!(report.committed > 0, "{} seed {seed:#x} committed nothing", workload.name());
}

#[test]
fn smallbank_agrees_across_shard_counts() {
    for seed in [0x5B_01, 0x5B_02, 0x5B_03] {
        sweep(WorkloadKind::SmallBank, seed, None);
    }
}

#[test]
fn tpcc_agrees_across_shard_counts() {
    for seed in [0x7C_01, 0x7C_02, 0x7C_03] {
        sweep(WorkloadKind::Tpcc, seed, None);
    }
}

#[test]
fn rubis_agrees_across_shard_counts() {
    for seed in [0x2B_01, 0x2B_02, 0x2B_03] {
        sweep(WorkloadKind::Rubis, seed, None);
    }
}

#[test]
fn faulted_runs_agree_across_shard_counts() {
    // Routing members to their shards' ready queues must absorb injected
    // worker panics identically at every shard count.
    for (workload, seed) in [
        (WorkloadKind::SmallBank, 0xFA_01u64),
        (WorkloadKind::Tpcc, 0xFA_02),
        (WorkloadKind::Rubis, 0xFA_03),
    ] {
        sweep(workload, seed, Some(FaultPlan::quiet(seed).with_worker_panics(120)));
    }
}

#[test]
fn adversarial_pack_agrees_across_shard_counts() {
    // Hot-key storms and chain pivots maximize cross-shard traffic and
    // per-key queue depth — the worst case for cross-shard routing.
    for (i, workload) in WorkloadKind::ADVERSARIAL.into_iter().enumerate() {
        sweep(workload, 0xAD_10 + i as u64, None);
    }
}

#[test]
fn worker_and_shard_sweeps_compose() {
    // Orthogonality: every (worker × shard) combination is one leg and
    // all of them must agree with each other and the simulator.
    let mut config = DifferentialConfig::standard(WorkloadKind::SmallBank, 0xC0_55);
    config.artifact_dir = artifact_dir();
    config.worker_counts = vec![1, 4];
    config.shard_counts = shard_counts();
    let report = run_differential(&config).unwrap_or_else(|m| panic!("{}", m.description));
    let legs = 2 * shard_counts().len();
    assert!(report.systems > legs, "compared {} systems", report.systems);
}
