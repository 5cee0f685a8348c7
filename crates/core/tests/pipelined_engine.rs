//! Engine-level tests for the prepare-ahead lifecycle: the split
//! `prepare`/`execute` stages, the overlap the stream driver records,
//! shutdown idempotence, and lock-table buffer reuse across batches.

use prognosticator_core::{
    baselines, Catalog, Engine, ProgId, Replica, SchedulerConfig, TxOutcome, TxRequest,
};
use prognosticator_storage::EpochStore;
use prognosticator_txir::{Expr, InputBound, Key, ProgramBuilder, Value};
use prognosticator_workloads::{DeterministicRng, TpccConfig, TpccWorkload};
use std::sync::Arc;

fn bump_catalog() -> (Arc<Catalog>, prognosticator_txir::TableId, ProgId) {
    let mut b = ProgramBuilder::new("bump");
    let t = b.table("counters");
    let id = b.input("id", InputBound::int(0, 15));
    let v = b.var("v");
    b.get(v, Expr::key(t, vec![Expr::input(id)]));
    b.put(Expr::key(t, vec![Expr::input(id)]), Expr::var(v).add(Expr::lit(1)));
    let mut catalog = Catalog::new();
    let bump = catalog.register(b.build()).unwrap();
    (Arc::new(catalog), t, bump)
}

fn engine_with_counters(workers: usize) -> (Arc<Engine>, ProgId) {
    let (catalog, t, bump) = bump_catalog();
    let engine = Engine::new(baselines::mq_mf(workers), catalog, Arc::new(EpochStore::new()));
    engine
        .store()
        .populate((0..16).map(|i| (Key::of_ints(t, &[i]), Value::Int(0))));
    (Arc::new(engine), bump)
}

fn batch(bump: ProgId, n: i64) -> Vec<TxRequest> {
    (0..n).map(|i| TxRequest::new(bump, vec![Value::Int(i % 16)])).collect()
}

#[test]
fn shutdown_is_idempotent_without_any_prepare() {
    // Shutdown before any batch must not hang, and a second call is a
    // no-op.
    let (engine, _bump) = engine_with_counters(2);
    engine.shutdown();
    engine.shutdown();
}

#[test]
fn split_prepare_execute_matches_execute_batch() {
    let (engine_a, bump) = engine_with_counters(2);
    let (engine_b, _) = engine_with_counters(2);

    let out_a = engine_a.execute_batch(batch(bump, 12));
    let prepared = engine_b.prepare(batch(bump, 12));
    assert_eq!(prepared.batch_size(), 12);
    let out_b = engine_b.execute(prepared);

    assert_eq!(out_a.outcomes, out_b.outcomes);
    assert_eq!(out_a.committed, 12);
    assert_eq!(engine_a.store().state_digest(), engine_b.store().state_digest());
    engine_a.shutdown();
    engine_b.shutdown();
}

#[test]
fn prepare_ahead_overlap_is_recorded() {
    // With depth 1, the queuer classifies batch N+1 inside batch N's
    // update phases and books that time as overlap. The value is
    // wall-clock dependent, so only its invariants are asserted: bounded
    // by predict_ns, and zero on the first batch (nothing ran before it).
    let (catalog, t, bump) = bump_catalog();
    let mut replica = Replica::new(baselines::mq_mf(2), catalog);
    replica.store().populate((0..16).map(|i| (Key::of_ints(t, &[i]), Value::Int(0))));
    let stream: Vec<_> = (0..6).map(|_| batch(bump, 16)).collect();
    let outs = replica.execute_stream(stream, 1);
    assert_eq!(replica.pending_carry_over(), 0);
    assert_eq!(outs.len(), 6);
    assert_eq!(outs[0].stage.overlap_ns, 0, "the first batch is classified up front");
    for out in &outs {
        assert_eq!(out.committed, 16);
        assert!(
            out.stage.overlap_ns <= out.stage.predict_ns,
            "overlap can never exceed time spent predicting"
        );
    }
    replica.shutdown();
}

/// Outcome vectors, per-batch overlap and predict time, and the final
/// digest of a TPC-C stream at `depth`.
fn tpcc_stream(
    config: SchedulerConfig,
    depth: usize,
) -> (Vec<Vec<TxOutcome>>, Vec<(u64, u64)>, u64) {
    let wh2 = TpccConfig { warehouses: 2, districts: 4, items: 40, customers: 8, nurand: true };
    let mut catalog = Catalog::new();
    let tpcc = TpccWorkload::register(&mut catalog, wh2).expect("registers");
    let mut replica = Replica::new(config, Arc::new(catalog));
    tpcc.populate(replica.store());
    let mut rng = DeterministicRng::new(0x7C94);
    let stream: Vec<_> = (0..5).map(|_| tpcc.gen_batch(&mut rng, 32)).collect();
    let outs = replica.execute_stream(stream, depth);
    let digest = replica.state_digest();
    replica.shutdown();
    let timings = outs.iter().map(|o| (o.stage.overlap_ns, o.stage.predict_ns)).collect();
    (outs.into_iter().map(|o| o.outcomes).collect(), timings, digest)
}

#[test]
fn prepare_ahead_at_four_shards_matches_sequential() {
    // At four shards nearly every TPC-C transaction is cross-shard, so
    // the queuer classifies the next batch between exchange steps rather
    // than while idle at the update barrier.
    let config = SchedulerConfig { shards: 4, ..baselines::mq_mf(2) };
    let (seq_outcomes, seq_timings, seq_digest) = tpcc_stream(config.clone(), 0);
    let (outcomes, timings, digest) = tpcc_stream(config, 1);
    assert_eq!(outcomes, seq_outcomes, "prepare-ahead changed an outcome");
    assert_eq!(digest, seq_digest, "prepare-ahead changed the state");
    assert!(seq_timings.iter().all(|&(overlap, _)| overlap == 0));
    for (i, (overlap, predict)) in timings.into_iter().enumerate() {
        assert!(overlap <= predict, "batch {i}: overlap {overlap} > predict {predict}");
    }
}

#[test]
fn replica_stream_depths_agree_on_counters() {
    let (catalog, t, bump) = bump_catalog();
    let mut digests = Vec::new();
    for depth in [0usize, 1, 2] {
        let mut replica = Replica::new(baselines::mq_mf(2), Arc::clone(&catalog));
        replica
            .store()
            .populate((0..16).map(|i| (Key::of_ints(t, &[i]), Value::Int(0))));
        let stream: Vec<_> = (0..5).map(|_| batch(bump, 16)).collect();
        let outs = replica.execute_stream(stream, depth);
        assert_eq!(outs.iter().map(|o| o.committed).sum::<usize>(), 80);
        digests.push(replica.state_digest());
        replica.shutdown();
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "digests diverged across depths");
}
