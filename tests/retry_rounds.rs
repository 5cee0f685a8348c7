//! MF retry rounds are schedule- and topology-independent, tier-1 slice.
//!
//! After round 1 the workers leave the batch and every re-enqueue round
//! runs on the queuer alone. Those rounds still build one lock table per
//! shard and drain it through the configured `ReadyPolicy`, resolving
//! cross-shard members by the exchange rule, so every combination of
//! workers {1, 2, 4} × shards {1, 4} × {FIFO, seeded shuffle} must produce
//! the same outcome vectors, store digest and canonical flight dump. Three
//! streams: a one-counter pivot chain, where each round commits one
//! transaction, the same chain with copies that write their own input, and
//! RUBiS. Two constants pin what the topology legs cannot tell apart: the
//! chain's canonical dump, retry rounds' `lock_wait` events included, and
//! the tagged chain's digest, which records the copy each round commits
//! first.

use prognosticator::core::{
    baselines, Catalog, FifoPolicy, ReadyPolicy, Replica, SchedulerConfig, SeededShufflePolicy,
    ShardRouter, TxOutcome, TxRequest,
};
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{DeterministicRng, RubisConfig, RubisWorkload};
use prognosticator_obs::FlightRecorder;
use prognosticator_txir::{Expr, InputBound, Key, ProgramBuilder, TableId, Value};
use std::sync::Arc;

const CHAIN: usize = 14;

struct Workload {
    name: &'static str,
    catalog: Arc<Catalog>,
    populate: Box<dyn Fn(&EpochStore)>,
    stream: Vec<Vec<TxRequest>>,
}

/// Canonical dump of the one-counter chain stream (FNV-1a of the JSONL).
const CHAIN_DUMP_HASH: u64 = 0xdea5ff69543613e5;
/// Final store digest of the tagged chain stream.
const TAGGED_CHAIN_DIGEST: u64 = 0x958fc849c782628c;

/// `v = get(ctr[0]); put(item[v], x); put(ctr[0], v + 1)`, `CHAIN`
/// copies per batch: round `k` commits the copy that reads `v = k - 1`
/// and fails the rest. Untagged copies write `x = 1`; tagged copy `p`
/// writes its own input `x = p`, so the final digest records which copy
/// each round committed.
fn chain(tagged: bool) -> (Workload, TableId, TableId) {
    let mut b = ProgramBuilder::new("chain");
    let ctr = b.table("ctr");
    let item = b.table("item");
    let x = if tagged {
        Expr::input(b.input("p", InputBound::int(0, CHAIN as i64 - 1)))
    } else {
        Expr::lit(1)
    };
    let v = b.var("v");
    b.get(v, Expr::key(ctr, vec![Expr::lit(0)]));
    b.put(Expr::key(item, vec![Expr::var(v)]), x);
    b.put(Expr::key(ctr, vec![Expr::lit(0)]), Expr::var(v).add(Expr::lit(1)));
    let mut catalog = Catalog::new();
    let id = catalog.register(b.build()).expect("registers");
    let input = |p| if tagged { vec![Value::Int(p)] } else { vec![] };
    let copies = || (0..CHAIN as i64).map(|p| TxRequest::new(id, input(p))).collect();
    let stream = (0..2).map(|_| copies()).collect();
    let workload = Workload {
        name: if tagged { "tagged chain" } else { "chain" },
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

#[test]
fn retry_rounds_match_across_workers_shards_and_ready_policies() {
    let (chain, ctr, item) = chain(false);
    let reference = assert_topology_independent(&chain);
    assert!(reference.outcomes.iter().flatten().all(|o| *o == TxOutcome::Committed));
    assert!(reference.rounds.iter().all(|&r| r >= 10), "chain rounds: {:?}", reference.rounds);
    // Round `k` queues its `CHAIN - k + 1` members on two keys, so a batch
    // records `2 (CHAIN - 1)` waits in round 1 and `CHAIN (CHAIN - 1)` over
    // all its rounds: the retry rounds' waits are in the dump.
    let is_wait = |line: &&str| line.contains("\"type\":\"lock_wait\"");
    let waits = reference.dump.lines().filter(is_wait).count();
    let batches = reference.rounds.len();
    assert!(reference.rounds.iter().all(|&r| r as usize == CHAIN), "{:?}", reference.rounds);
    assert_eq!(waits, batches * CHAIN * (CHAIN - 1), "lock_wait events over every round");
    let dump_hash = fnv1a(reference.dump.as_bytes());
    assert_eq!(dump_hash, CHAIN_DUMP_HASH, "chain dump hash {dump_hash:#018x}");
    // At 4 shards some retry round's members span two shards. A lone
    // drainer neither routes nor runs the exchange, so these legs check
    // that such a member needs neither.
    let router = ShardRouter::new(4);
    let ctr_shard = router.shard_of(&Key::of_ints(ctr, &[0]));
    let cross_rounds = (1..CHAIN as i64)
        .filter(|&v| router.shard_of(&Key::of_ints(item, &[v])) != ctr_shard)
        .count();
    assert!(cross_rounds > 0, "no retry round of the chain spans shards");

    let reference = assert_topology_independent(&rubis());
    assert!(reference.rounds.iter().any(|&r| r >= 2), "rubis rounds: {:?}", reference.rounds);
}

/// Every copy of a chain round locks the same two keys, so each round's
/// members form one FIFO queue and the copy that commits is the first one
/// run. A retry round that ran its members out of member order would
/// commit another copy and write another tag.
#[test]
fn tagged_chain_digest_pins_the_copy_each_round_commits() {
    let (tagged, _, _) = chain(true);
    let reference = assert_topology_independent(&tagged);
    assert!(reference.outcomes.iter().flatten().all(|o| *o == TxOutcome::Committed));
    let digest = reference.digest;
    assert_eq!(digest, TAGGED_CHAIN_DIGEST, "tagged chain digest {digest:#018x}");
}
