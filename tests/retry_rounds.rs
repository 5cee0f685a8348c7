//! MF retry rounds are schedule- and topology-independent, tier-1 slice.
//!
//! After round 1 the workers leave the batch and every re-enqueue round
//! runs on the queuer alone, its members in member order with no lock
//! table, so every combination of workers {1, 2, 4} × shards {1, 4} ×
//! {FIFO, seeded shuffle} must produce the same outcome vectors, store
//! digest and canonical flight dump. Three streams: a one-counter pivot
//! chain, where each round commits one transaction, the same chain with
//! copies that write their own input, and RUBiS. Two constants pin what
//! the topology legs cannot tell apart: the chain's canonical dump, with
//! round 1's `lock_wait` events and the retry rounds' `doomed` events, and
//! the tagged chain's digest, which records the copy each round commits
//! first.
//!
//! A fourth stream checks a retry round's replay of each member's last
//! pivot reads against the round's starting values, which dooms a member
//! without walking it: its retry rounds doom members and re-walk others,
//! and must agree with the simulator, which re-prepares every member at
//! round start. A doomed member is never walked, recorder or not, so runs
//! with the recorder on and off count the same pinned number of walks.

use prognosticator::core::{
    baselines, Catalog, FifoPolicy, ReadyPolicy, Replica, SchedulerConfig, SeededShufflePolicy,
    ShardRouter, TxOutcome, TxRequest,
};
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{DeterministicRng, RubisConfig, RubisWorkload};
use prognosticator_bench::sim::{CostModel, SimReplica};
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
const CHAIN_DUMP_HASH: u64 = 0xc5a56b9c1b09e5f6;
/// Final store digest of the tagged chain stream.
const TAGGED_CHAIN_DIGEST: u64 = 0x958fc849c782628c;
/// Final store digest of the pivot-replay stream.
const REPLAY_DIGEST: u64 = 0xe81388239cdb409e;
/// Walks (`prepare_count`) over the pivot-replay stream.
const REPLAY_WALKS: u64 = 47;

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

/// `p = get(ptr[a])`, then by `op`: `1` sets `ctr[p] = x` without
/// reading it; otherwise `q = get(ctr[p]); put(item[p, q], x)` and `0`
/// also advances `ctr[p]` to `q + 1`, `2` re-points `ptr[a] = x`, `3`
/// does nothing more. `ptr` is a pivot of every request and `ctr[p]` a
/// second pivot, keyed by the first one's value, of every `op ≠ 1`.
///
/// The first batch's round 1 commits the five gates, which advance
/// `ctr[0]` and `ctr[1]`, re-point `ptr[2]` and `ptr[5]` to counter 0 and
/// `ptr[4]` to counter 2, and fails everyone else. Round 2 (starting at
/// `ctr[0] = ctr[1] = 1`):
/// - X advances `ctr[0]` to 2: its second pivot differs from its last
///   read but not from the round's start, so it is not doomed;
/// - M's first pivot was re-pointed, so it is not doomed, then fails on
///   `ctr[0]`;
/// - D is doomed on its second pivot alone;
/// - Y sets `ctr[0]` back to 1, so R, which reads it next, is not doomed
///   (ABA);
/// - W rewrites `ptr[3]` with the value it holds, so R2, which pivots on
///   it next, is not doomed either (a same-value overwrite);
/// - Z advances `ctr[1]`, N's last second pivot, but N's first pivot was
///   re-pointed to counter 2, so the walks part before `ctr[1]`: N is not
///   doomed, and commits.
///
/// Round 3 starts where M's last walk read, so M is not doomed either;
/// then D commits. The second batch replays the same requests from the
/// state the first left.
fn replay() -> Workload {
    let mut b = ProgramBuilder::new("replay");
    let ptr = b.table("ptr");
    let ctr = b.table("ctr");
    let item = b.table("item");
    let a = Expr::input(b.input("a", InputBound::int(0, 5)));
    let op = Expr::input(b.input("op", InputBound::int(0, 3)));
    let x = Expr::input(b.input("x", InputBound::int(0, 63)));
    let (p, q) = (b.var("p"), b.var("q"));
    b.get(p, Expr::key(ptr, vec![a.clone()]));
    let counter = Expr::key(ctr, vec![Expr::var(p)]);
    b.if_(
        op.clone().eq(Expr::lit(1)),
        |b| b.put(counter.clone(), x.clone()),
        |b| {
            b.get(q, counter.clone());
            b.put(Expr::key(item, vec![Expr::var(p), Expr::var(q)]), x.clone());
            b.if_then(op.clone().eq(Expr::lit(0)), |b| {
                b.put(counter.clone(), Expr::var(q).add(Expr::lit(1)))
            });
            b.if_then(op.eq(Expr::lit(2)), |b| b.put(Expr::key(ptr, vec![a.clone()]), x.clone()));
        },
    );
    let mut catalog = Catalog::new();
    let id = catalog.register(b.build()).expect("registers");
    let req = |a: i64, op: i64, x: i64| {
        TxRequest::new(id, vec![Value::Int(a), Value::Int(op), Value::Int(x)])
    };
    let batch = vec![
        req(0, 0, 10), // gate: ctr[0] 0 → 1
        req(2, 2, 0),  // gate: ptr[2] 1 → 0
        req(5, 2, 0),  // gate: ptr[5] 1 → 0
        req(4, 2, 2),  // gate: ptr[4] 1 → 2
        req(1, 0, 20), // gate: ctr[1] 0 → 1
        req(0, 0, 11), // X
        req(5, 3, 13), // M
        req(0, 0, 12), // D
        req(2, 1, 1),  // Y: ctr[0] = 1
        req(0, 3, 14), // R
        req(3, 2, 1),  // W: ptr[3] = 1, unchanged
        req(3, 3, 15), // R2
        req(1, 0, 21), // Z: ctr[1] 1 → 2
        req(4, 3, 16), // N
    ];
    let initial: Vec<(Key, Value)> = [(0, 0), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]
        .into_iter()
        .map(|(a, p)| (Key::of_ints(ptr, &[a]), Value::Int(p)))
        .chain((0..3).map(|p| (Key::of_ints(ctr, &[p]), Value::Int(0))))
        .collect();
    Workload {
        name: "replay",
        catalog: Arc::new(catalog),
        populate: Box::new(move |s| s.populate(initial.clone())),
        stream: vec![batch.clone(), batch],
    }
}

struct Run {
    outcomes: Vec<Vec<TxOutcome>>,
    rounds: Vec<u32>,
    digest: u64,
    dump: String,
    /// Abort-and-retry events per batch.
    aborts: Vec<usize>,
    /// Preparations run, summed over the stream (`prepare_count`).
    walks: u64,
}

fn run(w: &Workload, workers: usize, shards: usize, policy: Arc<dyn ReadyPolicy>) -> Run {
    run_recording(w, workers, shards, policy, true)
}

fn run_recording(
    w: &Workload,
    workers: usize,
    shards: usize,
    policy: Arc<dyn ReadyPolicy>,
    recording: bool,
) -> Run {
    let store = Arc::new(EpochStore::new());
    (w.populate)(&store);
    let config = SchedulerConfig { shards, ready_policy: policy, ..baselines::mq_mf(workers) };
    let mut replica = Replica::with_store(config, Arc::clone(&w.catalog), store);
    let recorder = FlightRecorder::new(7);
    recorder.set_enabled(recording);
    replica.attach_recorder(Arc::clone(&recorder));
    let outcomes = replica.execute_stream(w.stream.clone(), 0);
    let digest = replica.state_digest();
    replica.shutdown();
    assert_eq!(recorder.dropped(), 0, "{}: ring must hold the whole run", w.name);
    Run {
        rounds: outcomes.iter().map(|o| o.rounds).collect(),
        aborts: outcomes.iter().map(|o| o.aborts).collect(),
        walks: outcomes.iter().map(|o| o.prepare_count).sum(),
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
    // Round 1 queues its `CHAIN` members on two keys, so a batch records
    // `2 (CHAIN - 1)` waits; a retry round waits on nothing and records
    // none. Retry round `k` commits its first member and dooms the other
    // `CHAIN - k`, which read the counter the first one advanced, so a
    // batch records `(CHAIN - 1) (CHAIN - 2) / 2` `doomed` events: every
    // retry-round failure.
    let count = |kind: &str| {
        let kind = format!("\"type\":\"{kind}\"");
        reference.dump.lines().filter(|line| line.contains(&kind)).count()
    };
    let batches = reference.rounds.len();
    assert!(reference.rounds.iter().all(|&r| r as usize == CHAIN), "{:?}", reference.rounds);
    assert_eq!(count("lock_wait"), batches * 2 * (CHAIN - 1), "lock_wait events: round 1's");
    let retry_failures: usize = reference.aborts.iter().map(|&a| a - (CHAIN - 1)).sum();
    assert_eq!(retry_failures, batches * (CHAIN - 1) * (CHAIN - 2) / 2, "retry-round failures");
    assert_eq!(count("doomed"), retry_failures, "doomed events: every retry-round failure");
    let dump_hash = fnv1a(reference.dump.as_bytes());
    assert_eq!(dump_hash, CHAIN_DUMP_HASH, "chain dump hash {dump_hash:#018x}");
    // At 4 shards some retry round's members span two shards. A lone
    // drainer neither routes nor builds a table, so these legs check that
    // such a member needs neither.
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

/// Every retry round of the replay stream ends as the simulator's does,
/// which re-prepares every member against the round's starting state. The
/// legs run with the recorder on and off: a doomed member is walked in
/// neither, so both count the same pinned number of walks.
#[test]
fn retry_round_replays_agree_with_round_start_preparation() {
    let w = replay();
    let store = Arc::new(EpochStore::new());
    (w.populate)(&store);
    let mut sim =
        SimReplica::new(baselines::mq_mf(2), CostModel::default(), Arc::clone(&w.catalog), store);
    let sim_outcomes: Vec<_> = w.stream.iter().map(|b| sim.execute_batch(b.clone())).collect();
    let sim_rounds: Vec<u32> = sim_outcomes.iter().map(|o| o.rounds).collect();
    let sim_aborts: Vec<usize> = sim_outcomes.iter().map(|o| o.aborts).collect();
    assert_eq!(sim_rounds[0], 3, "the first batch's rounds as designed");
    let reference = run(&w, 1, 1, Arc::new(FifoPolicy));
    for workers in [1, 2, 4] {
        for recording in [true, false] {
            let leg = format!("replay: {workers} workers, recording {recording}");
            let got = run_recording(&w, workers, 1, Arc::new(FifoPolicy), recording);
            for (n, (got, sim)) in got.outcomes.iter().zip(&sim_outcomes).enumerate() {
                assert_eq!(got, &sim.outcomes, "{leg}: batch {n} outcomes differ from the sim");
            }
            assert_eq!(got.rounds, sim_rounds, "{leg}: rounds differ from the simulator");
            assert_eq!(got.aborts, sim_aborts, "{leg}: retries differ from the simulator");
            assert_eq!(got.digest, sim.state_digest(), "{leg}: digest differs from the simulator");
            if recording {
                assert!(got.dump == reference.dump, "{leg}: canonical dumps diverged");
            }
            assert_eq!(got.walks, REPLAY_WALKS, "{leg}: walks");
        }
    }
    assert!(reference.outcomes.iter().flatten().all(|o| *o == TxOutcome::Committed));
    let digest = reference.digest;
    assert_eq!(digest, REPLAY_DIGEST, "replay digest {digest:#018x}");
}
