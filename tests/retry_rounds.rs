//! MF retry rounds are schedule- and topology-independent, tier-1 slice.
//!
//! After round 1 the workers leave the batch and every re-enqueue round
//! runs on the queuer alone. Those rounds still build one lock table per
//! shard and drain it through the configured `ReadyPolicy`, resolving
//! cross-shard members by the exchange rule, so every combination of
//! workers {1, 2, 4} × shards {1, 4} × {FIFO, seeded shuffle} must produce
//! the same outcome vectors, store digest and canonical flight dump. Two
//! streams: a one-counter pivot chain, where each round commits one
//! transaction, and RUBiS.

use prognosticator::core::{
    baselines, Catalog, FifoPolicy, ReadyPolicy, Replica, SchedulerConfig, SeededShufflePolicy,
    ShardRouter, TxOutcome, TxRequest,
};
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{DeterministicRng, RubisConfig, RubisWorkload};
use prognosticator_obs::FlightRecorder;
use prognosticator_txir::{Expr, Key, ProgramBuilder, TableId, Value};
use std::sync::Arc;

const CHAIN: usize = 14;

struct Workload {
    name: &'static str,
    catalog: Arc<Catalog>,
    populate: Box<dyn Fn(&EpochStore)>,
    stream: Vec<Vec<TxRequest>>,
}

/// `v = get(ctr[0]); put(item[v], 1); put(ctr[0], v + 1)`, `CHAIN`
/// copies per batch: round `k` commits the copy that reads `v = k - 1`
/// and fails the rest.
fn chain() -> (Workload, TableId, TableId) {
    let mut b = ProgramBuilder::new("chain");
    let ctr = b.table("ctr");
    let item = b.table("item");
    let v = b.var("v");
    b.get(v, Expr::key(ctr, vec![Expr::lit(0)]));
    b.put(Expr::key(item, vec![Expr::var(v)]), Expr::lit(1));
    b.put(Expr::key(ctr, vec![Expr::lit(0)]), Expr::var(v).add(Expr::lit(1)));
    let mut catalog = Catalog::new();
    let id = catalog.register(b.build()).expect("registers");
    let stream = (0..2).map(|_| (0..CHAIN).map(|_| TxRequest::new(id, vec![])).collect()).collect();
    let workload = Workload {
        name: "chain",
        catalog: Arc::new(catalog),
        populate: Box::new(move |s| s.populate([(Key::of_ints(ctr, &[0]), Value::Int(0))])),
        stream,
    };
    (workload, ctr, item)
}

fn rubis() -> Workload {
    let mut catalog = Catalog::new();
    let config = RubisConfig { users: 40, items: 40 };
    let w = Arc::new(RubisWorkload::register(&mut catalog, config).expect("registers"));
    let mut rng = DeterministicRng::new(0xE7);
    let stream = (0..3).map(|_| w.gen_batch(&mut rng, 24)).collect();
    Workload {
        name: "rubis",
        catalog: Arc::new(catalog),
        populate: Box::new(move |s| w.populate(s)),
        stream,
    }
}

struct Run {
    outcomes: Vec<Vec<TxOutcome>>,
    rounds: Vec<u32>,
    digest: u64,
    dump: String,
}

fn run(w: &Workload, workers: usize, shards: usize, policy: Arc<dyn ReadyPolicy>) -> Run {
    let store = Arc::new(EpochStore::new());
    (w.populate)(&store);
    let config = SchedulerConfig { shards, ready_policy: policy, ..baselines::mq_mf(workers) };
    let mut replica = Replica::with_store(config, Arc::clone(&w.catalog), store);
    let recorder = FlightRecorder::new(7);
    recorder.set_enabled(true);
    replica.attach_recorder(Arc::clone(&recorder));
    let outcomes = replica.execute_stream(w.stream.clone(), 0);
    let digest = replica.state_digest();
    replica.shutdown();
    assert_eq!(recorder.dropped(), 0, "{}: ring must hold the whole run", w.name);
    Run {
        rounds: outcomes.iter().map(|o| o.rounds).collect(),
        outcomes: outcomes.into_iter().map(|o| o.outcomes).collect(),
        digest,
        dump: recorder.render_jsonl(),
    }
}

fn assert_topology_independent(w: &Workload) -> Run {
    let reference = run(w, 1, 1, Arc::new(FifoPolicy));
    for workers in [1, 2, 4] {
        for shards in [1, 4] {
            let shuffle = SeededShufflePolicy::new(0x5EED ^ workers as u64, 4);
            let policies: [Arc<dyn ReadyPolicy>; 2] = [Arc::new(FifoPolicy), Arc::new(shuffle)];
            for policy in policies {
                let leg = format!("{}: {workers} workers, {shards} shards, {policy:?}", w.name);
                let got = run(w, workers, shards, policy);
                assert_eq!(got.outcomes, reference.outcomes, "{leg}: outcome vectors diverged");
                assert_eq!(got.rounds, reference.rounds, "{leg}: round counts diverged");
                assert_eq!(got.digest, reference.digest, "{leg}: digests diverged");
                assert!(got.dump == reference.dump, "{leg}: canonical dumps diverged");
            }
        }
    }
    reference
}

#[test]
fn retry_rounds_match_across_workers_shards_and_ready_policies() {
    let (chain, ctr, item) = chain();
    let reference = assert_topology_independent(&chain);
    assert!(reference.outcomes.iter().flatten().all(|o| *o == TxOutcome::Committed));
    assert!(reference.rounds.iter().all(|&r| r >= 10), "chain rounds: {:?}", reference.rounds);
    // At 4 shards some retry round's members span two shards, so the
    // solo drain's cross-shard exchange runs too.
    let router = ShardRouter::new(4);
    let ctr_shard = router.shard_of(&Key::of_ints(ctr, &[0]));
    let cross_rounds = (1..CHAIN as i64)
        .filter(|&v| router.shard_of(&Key::of_ints(item, &[v])) != ctr_shard)
        .count();
    assert!(cross_rounds > 0, "no retry round of the chain spans shards");

    let reference = assert_topology_independent(&rubis());
    assert!(reference.rounds.iter().any(|&r| r >= 2), "rubis rounds: {:?}", reference.rounds);
}
