//! Chaos-campaign soak: the full pipeline plus retrying client under
//! seeded, eventually-healing fault schedules.
//!
//! Every cell is a (plan, seed) pair; each runs the chaos oracle
//! (`testkit::run_chaos`), which asserts terminal outcomes for every
//! request, post-heal liveness, byte-identical determinism across
//! {1, 2, 4}-worker replays of the committed stream, and log-level
//! exactly-once. On a violation it panics with the path of the
//! delta-debugged `chaos-*.reproducer.json` artifact.
//!
//! The sweep is tunable for CI soaks:
//! `CHAOS_SEEDS=5` widens to 5 seeds per plan (default 3);
//! `CHAOS_PLANS=leader_churn,split_and_storm` restricts the plan set
//! (default: all of `testkit::PLAN_NAMES`).

use std::path::PathBuf;
use testkit::{run_chaos, ChaosOracleConfig, ChaosReport};

fn seeds() -> u64 {
    std::env::var("CHAOS_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
}

fn plans() -> Vec<String> {
    match std::env::var("CHAOS_PLANS") {
        Ok(csv) if !csv.trim().is_empty() => {
            csv.split(',').map(|p| p.trim().to_string()).collect()
        }
        _ => testkit::PLAN_NAMES.iter().map(|p| p.to_string()).collect(),
    }
}

fn run_cell(plan: &str, seed: u64) -> ChaosReport {
    let mut config = ChaosOracleConfig::standard(plan, seed);
    config.artifact_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-artifacts");
    run_chaos(&config).unwrap_or_else(|v| panic!("{v}"))
}

fn soak(plan: &str, seed_base: u64) -> Vec<ChaosReport> {
    (0..seeds()).map(|i| run_cell(plan, seed_base + i)).collect()
}

#[test]
fn leader_churn_campaigns_keep_every_guarantee() {
    if !plans().iter().any(|p| p == "leader_churn") {
        eprintln!("skipped by CHAOS_PLANS");
        return;
    }
    for report in soak("leader_churn", 0xC0_01) {
        assert!(report.events_injected > 0, "plan must actually fire: {report:?}");
        assert!(report.committed > 0, "some traffic must commit: {report:?}");
        eprintln!(
            "leader_churn seed {}: {} submitted, {} committed, {} retries, {} shed",
            report.seed, report.submitted, report.committed, report.client_retries,
            report.shed_requests
        );
    }
}

#[test]
fn split_and_storm_campaigns_keep_every_guarantee() {
    if !plans().iter().any(|p| p == "split_and_storm") {
        eprintln!("skipped by CHAOS_PLANS");
        return;
    }
    for report in soak("split_and_storm", 0x5A_02) {
        assert!(report.events_injected > 0, "plan must actually fire: {report:?}");
        assert!(report.committed > 0, "some traffic must commit: {report:?}");
        eprintln!(
            "split_and_storm seed {}: {} submitted, {} committed, {} quarantined batches",
            report.seed, report.submitted, report.committed, report.quarantined_batches
        );
    }
}

#[test]
fn crash_and_overload_campaigns_keep_every_guarantee() {
    if !plans().iter().any(|p| p == "crash_and_overload") {
        eprintln!("skipped by CHAOS_PLANS");
        return;
    }
    for report in soak("crash_and_overload", 0xCA_03) {
        assert!(report.events_injected > 0, "plan must actually fire: {report:?}");
        assert!(report.committed > 0, "some traffic must commit: {report:?}");
        eprintln!(
            "crash_and_overload seed {}: {} submitted, {} committed, {} degraded batches",
            report.seed, report.submitted, report.committed, report.degraded_batches
        );
    }
}

#[test]
fn every_request_is_terminal_across_the_default_sweep() {
    // The headline exactly-once claim, asserted across the whole default
    // matrix: submitted == committed + aborted + rejected for every cell
    // (run_chaos already fails on unresolved requests; this closes the
    // accounting from the other side).
    for plan in plans() {
        let report = run_cell(&plan, 0xE0_0E);
        assert_eq!(
            report.submitted,
            report.committed + report.aborted + report.rejected,
            "outcome accounting must close: {report:?}"
        );
    }
}

#[test]
fn chaos_replays_agree_across_shard_counts() {
    // The tentpole acceptance bar (DESIGN.md §3.5): under an active fault
    // campaign, replaying the committed stream at shard counts {1, 2, 4, 8}
    // must still reproduce the live digest byte-for-byte. Workers are held
    // at 2 so the sweep isolates the sharding dimension.
    let mut config = ChaosOracleConfig::standard("leader_churn", 0x5A_C4);
    config.worker_counts = vec![2];
    config.shard_counts = vec![1, 2, 4, 8];
    config.artifact_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-artifacts");
    let report = run_chaos(&config).unwrap_or_else(|v| panic!("{v}"));
    assert!(report.events_injected > 0, "plan must actually fire: {report:?}");
    assert!(report.committed > 0, "some traffic must commit: {report:?}");
    eprintln!(
        "shard-sweep chaos seed {}: {} submitted, {} committed under shards {{1,2,4,8}}",
        report.seed, report.submitted, report.committed
    );
}
