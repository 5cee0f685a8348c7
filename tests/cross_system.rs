//! Cross-system equivalence: the threaded engine, the discrete-event
//! simulator, and the baselines must agree on final states whenever their
//! scheduling policies are order-equivalent.

use prognosticator::core::baselines::{self, SeqEngine};
use prognosticator::core::{Catalog, FaultPlan, Replica, SchedulerConfig};
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{
    DeterministicRng, RubisConfig, RubisWorkload, TpccConfig, TpccWorkload,
};
use prognosticator_bench::sim::{CostModel, SimReplica};
use std::sync::Arc;

fn tpcc() -> (Arc<Catalog>, Arc<TpccWorkload>) {
    let mut catalog = Catalog::new();
    let config =
        TpccConfig { warehouses: 2, districts: 4, items: 40, customers: 8, nurand: true };
    let workload = TpccWorkload::register(&mut catalog, config).expect("registers");
    (Arc::new(catalog), Arc::new(workload))
}

fn rubis() -> (Arc<Catalog>, Arc<RubisWorkload>) {
    let mut catalog = Catalog::new();
    let workload =
        RubisWorkload::register(&mut catalog, RubisConfig { users: 40, items: 40 })
            .expect("registers");
    (Arc::new(catalog), Arc::new(workload))
}

fn fresh_store(populate: impl Fn(&EpochStore)) -> Arc<EpochStore> {
    let store = Arc::new(EpochStore::new());
    populate(&store);
    store
}

/// The threaded engine and the simulator implement the same deterministic
/// scheduling semantics, so feeding both the same batches must produce
/// identical state digests — this is the strongest validation that the
/// figure-generating simulator is faithful.
#[test]
fn simulator_matches_threaded_engine_on_tpcc() {
    let (catalog, workload) = tpcc();
    for config in [baselines::mq_mf(3), baselines::mq_sf(2), baselines::nodo(3)] {
        let label = format!("{config:?}");
        let engine_store = fresh_store(|s| workload.populate(s));
        let sim_store = fresh_store(|s| workload.populate(s));
        let mut engine =
            Replica::with_store(config.clone(), Arc::clone(&catalog), engine_store);
        let mut sim = SimReplica::new(
            config,
            CostModel::default(),
            Arc::clone(&catalog),
            sim_store,
        );
        let mut rng = DeterministicRng::new(5);
        for batch_no in 0..8 {
            let batch = workload.gen_batch(&mut rng, 24);
            let eo = engine.execute_batch(batch.clone());
            let so = sim.execute_batch(batch);
            assert_eq!(eo.committed, so.committed, "commits, batch {batch_no}: {label}");
            assert_eq!(eo.outcomes, so.outcomes, "outcomes, batch {batch_no}: {label}");
            assert_eq!(
                engine.state_digest(),
                sim.state_digest(),
                "digest divergence at batch {batch_no}: {label}"
            );
        }
        engine.shutdown();
    }
}

#[test]
fn simulator_matches_threaded_engine_on_rubis() {
    let (catalog, workload) = rubis();
    for config in [baselines::mq_sf(3), baselines::calvin(2, 1)] {
        let label = format!("{config:?}");
        let engine_store = fresh_store(|s| workload.populate(s));
        let sim_store = fresh_store(|s| workload.populate(s));
        let mut engine =
            Replica::with_store(config.clone(), Arc::clone(&catalog), engine_store);
        let mut sim = SimReplica::new(
            config,
            CostModel::default(),
            Arc::clone(&catalog),
            sim_store,
        );
        let mut rng = DeterministicRng::new(6);
        for batch_no in 0..6 {
            let batch = workload.gen_batch(&mut rng, 16);
            let eo = engine.execute_batch(batch.clone());
            let so = sim.execute_batch(batch);
            assert_eq!(eo.committed, so.committed, "commits, batch {batch_no}: {label}");
            assert_eq!(
                eo.carried_over.len(),
                so.carried_over.len(),
                "carry-over, batch {batch_no}: {label}"
            );
            assert_eq!(eo.outcomes, so.outcomes, "outcomes, batch {batch_no}: {label}");
            assert_eq!(
                engine.state_digest(),
                sim.state_digest(),
                "digest divergence at batch {batch_no}: {label}"
            );
        }
        engine.shutdown();
    }
}

/// Under an active fault plan the simulator must still mirror the threaded
/// engine transaction-for-transaction: identical per-transaction verdicts
/// (including injected-fault aborts), abort counts, and state digests.
#[test]
fn simulator_matches_threaded_engine_under_faults() {
    let (catalog, workload) = tpcc();
    for config in [baselines::mq_mf(3), baselines::mq_sf(2)] {
        let label = format!("{config:?}");
        let engine_store = fresh_store(|s| workload.populate(s));
        let sim_store = fresh_store(|s| workload.populate(s));
        let mut engine =
            Replica::with_store(config.clone(), Arc::clone(&catalog), engine_store);
        let mut sim = SimReplica::new(
            config,
            CostModel::default(),
            Arc::clone(&catalog),
            sim_store,
        );
        // ~15% of transactions hit an injected worker panic.
        let plan = FaultPlan::quiet(17).with_worker_panics(150);
        engine.set_fault_plan(Some(plan.clone()));
        sim.set_fault_plan(Some(plan));
        let mut rng = DeterministicRng::new(9);
        let mut total_aborted = 0usize;
        for batch_no in 0..6 {
            let batch = workload.gen_batch(&mut rng, 24);
            let eo = engine.execute_batch(batch.clone());
            let so = sim.execute_batch(batch);
            assert_eq!(eo.committed, so.committed, "commits, batch {batch_no}: {label}");
            assert_eq!(eo.aborted, so.aborted, "aborts, batch {batch_no}: {label}");
            assert_eq!(eo.outcomes, so.outcomes, "outcomes, batch {batch_no}: {label}");
            assert_eq!(
                engine.state_digest(),
                sim.state_digest(),
                "digest divergence at batch {batch_no}: {label}"
            );
            total_aborted += eo.aborted;
        }
        assert!(total_aborted > 0, "the fault plan fired at least once: {label}");
        engine.shutdown();
    }
}

/// The schedule itself under tier-1: at {1, 4} shards, with and without
/// an active fault plan, the engine must agree batch-for-batch with the
/// simulator — whose per-key queues and ready-heap share no code with the
/// engine's linked lock tables or its cross-shard exchange.
#[test]
fn simulator_matches_sharded_engine_with_and_without_faults() {
    let (catalog, workload) = tpcc();
    for plan in [None, Some(FaultPlan::quiet(23).with_worker_panics(120))] {
        for shards in [1, 4] {
            let label = format!("shards={shards}, faults={}", plan.is_some());
            let config = SchedulerConfig { shards, ..baselines::mq_mf(2) };
            let mut engine = Replica::with_store(
                config.clone(),
                Arc::clone(&catalog),
                fresh_store(|s| workload.populate(s)),
            );
            let mut sim = SimReplica::new(
                config,
                CostModel::default(),
                Arc::clone(&catalog),
                fresh_store(|s| workload.populate(s)),
            );
            engine.set_fault_plan(plan.clone());
            sim.set_fault_plan(plan.clone());
            let mut rng = DeterministicRng::new(31);
            for batch_no in 0..5 {
                let batch = workload.gen_batch(&mut rng, 24);
                let eo = engine.execute_batch(batch.clone());
                let so = sim.execute_batch(batch);
                assert_eq!(eo.outcomes, so.outcomes, "outcomes, batch {batch_no}: {label}");
                assert_eq!(eo.rounds, so.rounds, "rounds, batch {batch_no}: {label}");
                assert_eq!(eo.aborts, so.aborts, "retry events, batch {batch_no}: {label}");
                assert_eq!(
                    engine.state_digest(),
                    sim.state_digest(),
                    "digest divergence at batch {batch_no}: {label}"
                );
            }
            engine.shutdown();
        }
    }
}

/// NODO preserves client order for every transaction, so it is
/// SEQ-equivalent on both benchmarks — and the Prognosticator variants
/// must agree with each other (same DT-ahead-of-IT order policy).
#[test]
fn order_equivalences_hold_on_rubis() {
    let (catalog, workload) = rubis();

    let run = |config: Option<SchedulerConfig>| -> u64 {
        let store = fresh_store(|s| workload.populate(s));
        let mut rng = DeterministicRng::new(13);
        match config {
            Some(c) => {
                let mut r = Replica::with_store(c, Arc::clone(&catalog), store);
                for _ in 0..5 {
                    r.execute_batch(workload.gen_batch(&mut rng, 20));
                }
                let d = r.state_digest();
                r.shutdown();
                d
            }
            None => {
                let mut seq = SeqEngine::new(Arc::clone(&catalog), Arc::clone(&store));
                for _ in 0..5 {
                    seq.execute_batch(workload.gen_batch(&mut rng, 20));
                }
                store.state_digest()
            }
        }
    };

    let seq = run(None);
    let nodo = run(Some(baselines::nodo(3)));
    assert_eq!(nodo, seq, "NODO is SEQ-equivalent");

    let mq_sf = run(Some(baselines::mq_sf(3)));
    let q1_sf = run(Some(baselines::q1_sf(2)));
    assert_eq!(mq_sf, q1_sf, "queuer parallelism must not affect state");

    let mq_mf = run(Some(baselines::mq_mf(3)));
    let q1_mf = run(Some(baselines::q1_mf(2)));
    assert_eq!(mq_mf, q1_mf, "queuer parallelism must not affect state");
}

/// The reconnaissance (`*-R`) variants schedule from traces instead of
/// profiles but must still be deterministic and mutually consistent.
#[test]
fn reconnaissance_variants_agree_with_each_other() {
    let (catalog, workload) = tpcc();
    let mut digests = Vec::new();
    for config in [baselines::mq_sf_r(3), baselines::q1_sf_r(2)] {
        let store = fresh_store(|s| workload.populate(s));
        let mut r = Replica::with_store(config, Arc::clone(&catalog), store);
        let mut rng = DeterministicRng::new(21);
        for _ in 0..5 {
            let o = r.execute_batch(workload.gen_batch(&mut rng, 24));
            assert_eq!(o.committed, 24);
        }
        digests.push(r.state_digest());
        r.shutdown();
    }
    assert_eq!(digests[0], digests[1]);
}
