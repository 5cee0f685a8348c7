//! The determinism checker: the same seeded batch sequence plus the same
//! deterministic fault plan, run on replicas with *different worker
//! counts*, must produce byte-identical per-transaction outcome vectors,
//! abort counts, carry-over, and final store state. This is the central
//! invariant of the abort protocol — fault verdicts are part of the
//! replicated state machine, never a function of thread timing.

use prognosticator_core::{
    baselines, Catalog, FaultPlan, ProgId, Replica, SchedulerConfig, TxRequest,
};
use prognosticator_storage::EpochStore;
use prognosticator_txir::{Expr, InputBound, Key, ProgramBuilder, TableId, Value};
use std::sync::Arc;
use std::time::Duration;

/// Tables: 0 = counters, 1 = directory, 2 = data.
struct Fixture {
    catalog: Arc<Catalog>,
    bump: ProgId,
    redirect: ProgId,
    follow: ProgId,
    read_counter: ProgId,
    /// data[id] = 100 / counters[id] — a workload bug whenever the
    /// counter is zero, i.e. deterministically state-dependent.
    ratio: ProgId,
}

const COUNTERS: TableId = TableId(0);
const DIRECTORY: TableId = TableId(1);
const DATA: TableId = TableId(2);

fn fixture() -> Fixture {
    let mut catalog = Catalog::new();

    let mut b = ProgramBuilder::new("bump");
    let t = b.table("counters");
    b.table("directory");
    b.table("data");
    let id = b.input("id", InputBound::int(0, 31));
    let v = b.var("v");
    b.get(v, Expr::key(t, vec![Expr::input(id)]));
    b.put(Expr::key(t, vec![Expr::input(id)]), Expr::var(v).add(Expr::lit(1)));
    let bump = catalog.register(b.build()).unwrap();

    let mut b = ProgramBuilder::new("redirect");
    b.table("counters");
    let dir = b.table("directory");
    b.table("data");
    let id = b.input("id", InputBound::int(0, 31));
    let target = b.input("target", InputBound::int(0, 31));
    b.put(Expr::key(dir, vec![Expr::input(id)]), Expr::input(target));
    let redirect = catalog.register(b.build()).unwrap();

    let mut b = ProgramBuilder::new("follow");
    b.table("counters");
    let dir = b.table("directory");
    let data = b.table("data");
    let id = b.input("id", InputBound::int(0, 31));
    let ptr = b.var("ptr");
    let cur = b.var("cur");
    b.get(ptr, Expr::key(dir, vec![Expr::input(id)]));
    b.get(cur, Expr::key(data, vec![Expr::var(ptr)]));
    b.put(Expr::key(data, vec![Expr::var(ptr)]), Expr::var(cur).add(Expr::lit(10)));
    let follow = catalog.register(b.build()).unwrap();

    let mut b = ProgramBuilder::new("read_counter");
    let t = b.table("counters");
    b.table("directory");
    b.table("data");
    let id = b.input("id", InputBound::int(0, 31));
    let v = b.var("v");
    b.get(v, Expr::key(t, vec![Expr::input(id)]));
    b.emit(Expr::var(v));
    let read_counter = catalog.register(b.build()).unwrap();

    let mut b = ProgramBuilder::new("ratio");
    let t = b.table("counters");
    b.table("directory");
    let data = b.table("data");
    let id = b.input("id", InputBound::int(0, 31));
    let v = b.var("v");
    b.get(v, Expr::key(t, vec![Expr::input(id)]));
    b.put(Expr::key(data, vec![Expr::input(id)]), Expr::lit(100).div(Expr::var(v)));
    let ratio = catalog.register(b.build()).unwrap();

    Fixture { catalog: Arc::new(catalog), bump, redirect, follow, read_counter, ratio }
}

fn replica(config: SchedulerConfig, fx: &Fixture) -> Replica {
    let store = Arc::new(EpochStore::new());
    for i in 0..32i64 {
        store.insert_initial(Key::of_ints(COUNTERS, &[i]), Value::Int(0));
        store.insert_initial(Key::of_ints(DIRECTORY, &[i]), Value::Int(i));
        store.insert_initial(Key::of_ints(DATA, &[i]), Value::Int(1));
    }
    Replica::with_store(config, Arc::clone(&fx.catalog), store)
}

/// Seeded batch mix including `ratio`, whose success depends on live
/// counter state — so workload-bug aborts interleave with healthy commits.
fn mixed_batch(fx: &Fixture, seed: i64, size: usize) -> Vec<TxRequest> {
    let mut state = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33).abs()
    };
    (0..size)
        .map(|_| {
            let id = next() % 32;
            match next() % 5 {
                0 => TxRequest::new(fx.bump, vec![Value::Int(id)]),
                1 => TxRequest::new(fx.redirect, vec![Value::Int(id), Value::Int(next() % 32)]),
                2 => TxRequest::new(fx.follow, vec![Value::Int(id)]),
                3 => TxRequest::new(fx.ratio, vec![Value::Int(id)]),
                _ => TxRequest::new(fx.read_counter, vec![Value::Int(id)]),
            }
        })
        .collect()
}

/// Runs `batches` seeded batches under `plan` on a replica with the given
/// config, returning per-batch (outcomes, aborted, carried-over sizes) and
/// the final digest.
fn run_trace(
    fx: &Fixture,
    config: SchedulerConfig,
    plan: &FaultPlan,
    batches: usize,
) -> (Vec<(Vec<prognosticator_core::TxOutcome>, usize, usize)>, u64) {
    let mut r = replica(config, fx);
    r.set_fault_plan(Some(plan.clone()));
    let mut trace = Vec::new();
    for b in 0..batches {
        let outcome = r.execute_batch(mixed_batch(fx, b as i64, 32));
        trace.push((outcome.outcomes, outcome.aborted, outcome.carried_over.len()));
    }
    let digest = r.state_digest();
    r.shutdown();
    (trace, digest)
}

#[test]
fn outcome_vectors_identical_across_worker_counts() {
    let fx = fixture();
    // Worker panics and storage latency spikes, both active.
    let plan = FaultPlan::quiet(99)
        .with_worker_panics(120)
        .with_storage_spikes(250, Duration::from_micros(50));

    for make in [baselines::mq_mf as fn(usize) -> SchedulerConfig, baselines::mq_sf] {
        let runs: Vec<_> =
            [2usize, 3, 5].iter().map(|&w| run_trace(&fx, make(w), &plan, 6)).collect();
        let label = format!("{:?}", make(2));

        let (reference_trace, reference_digest) = &runs[0];
        let total_aborted: usize = reference_trace.iter().map(|(_, a, _)| a).sum();
        assert!(total_aborted > 0, "fault plan must actually fire: {label}");

        for (trace, digest) in &runs[1..] {
            assert_eq!(trace, reference_trace, "outcome trace diverged: {label}");
            assert_eq!(digest, reference_digest, "state digest diverged: {label}");
        }
    }
}

#[test]
fn fault_free_plan_changes_nothing() {
    // A quiet plan (seeded but zero rates) must be observationally
    // identical to running with no plan installed at all.
    let fx = fixture();
    let quiet = FaultPlan::quiet(7);
    let (with_plan, digest_a) = run_trace(&fx, baselines::mq_mf(3), &quiet, 4);

    let mut bare = replica(baselines::mq_mf(3), &fx);
    let mut bare_trace = Vec::new();
    for b in 0..4 {
        let o = bare.execute_batch(mixed_batch(&fx, b as i64, 32));
        bare_trace.push((o.outcomes, o.aborted, o.carried_over.len()));
    }
    assert_eq!(with_plan, bare_trace);
    assert_eq!(digest_a, bare.state_digest());
    bare.shutdown();
}

/// The bootstrap store every replica (including a recovering one) starts
/// from.
fn bootstrap_store() -> Arc<EpochStore> {
    let store = Arc::new(EpochStore::new());
    for i in 0..32i64 {
        store.insert_initial(Key::of_ints(COUNTERS, &[i]), Value::Int(0));
        store.insert_initial(Key::of_ints(DIRECTORY, &[i]), Value::Int(i));
        store.insert_initial(Key::of_ints(DATA, &[i]), Value::Int(1));
    }
    store
}

#[test]
fn recovery_replay_reproduces_live_run() {
    // Crash-free statement of recovery soundness: replaying the committed
    // batch log through Replica::recover, under the replay variant of the
    // live fault plan, reaches the same digest and the byte-identical
    // outcome trace — including every injected abort — without unwinding
    // a single worker.
    let fx = fixture();
    let plan = FaultPlan::quiet(17).with_worker_panics(150);
    let batches: Vec<Vec<TxRequest>> = (0..6).map(|b| mixed_batch(&fx, b, 32)).collect();

    let mut live = Replica::with_store(baselines::mq_mf(3), Arc::clone(&fx.catalog), bootstrap_store());
    live.set_fault_plan(Some(plan.clone()));
    let mut live_trace = Vec::new();
    for batch in batches.clone() {
        let o = live.execute_batch(batch);
        live_trace.push((o.outcomes, o.aborted, o.carried_over.len()));
    }
    let live_digest = live.state_digest();
    live.shutdown();
    let injected: usize = live_trace
        .iter()
        .flat_map(|(outcomes, _, _)| outcomes.iter())
        .filter(|o| {
            matches!(o, prognosticator_core::TxOutcome::Aborted { reason }
                if matches!(reason, prognosticator_core::AbortReason::InjectedFault(_)))
        })
        .count();
    assert!(injected > 0, "plan must have injected aborts to reproduce");

    // Recover with a different worker count to also cover schedule
    // independence of the replay path.
    let (mut recovered, report) = Replica::recover(
        baselines::mq_mf(2),
        Arc::clone(&fx.catalog),
        bootstrap_store(),
        batches,
        Some(&plan),
        Some(live_digest),
    );
    assert_eq!(report.batches_replayed, 6);
    assert_eq!(report.digest, live_digest);
    let replay_trace: Vec<_> = report
        .outcomes
        .iter()
        .map(|o| (o.outcomes.clone(), o.aborted, o.carried_over.len()))
        .collect();
    assert_eq!(replay_trace, live_trace, "replayed outcome trace diverged");
    recovered.shutdown();
}

#[test]
fn calvin_carry_over_stays_deterministic_under_faults() {
    // NextBatch policy: carried-over transactions re-enter later batches;
    // injection is keyed by (batch, slot), so the re-entry path must stay
    // identical across worker counts too.
    let fx = fixture();
    let plan = FaultPlan::quiet(3).with_worker_panics(100);
    let runs: Vec<_> = [2usize, 4, 6]
        .iter()
        .map(|&w| run_trace(&fx, baselines::calvin(w, 0), &plan, 6))
        .collect();
    for run in &runs[1..] {
        assert_eq!(run, &runs[0], "Calvin trace diverged across worker counts");
    }
}
