//! Prepare-ahead depth oracle, tier-1 slice.
//!
//! At depth 1 the queuer classifies batch `N+1` inside batch `N`'s update
//! phases (one step per pass of its drain loop). Because
//! classification reads no store state, depth 1 must reproduce depth 0
//! exactly: the same outcome vectors, the same store digest, and the same
//! canonical flight-recorder dump once the depth-1-only `queuer_handoff`
//! events are dropped. Runs TPC-C (2 warehouses) and RUBiS at shards
//! {1, 4} with 2 workers.

use prognosticator::core::{baselines, Catalog, Replica, SchedulerConfig, TxOutcome, TxRequest};
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{
    DeterministicRng, RubisConfig, RubisWorkload, TpccConfig, TpccWorkload,
};
use prognosticator_obs::FlightRecorder;
use std::sync::Arc;

struct Workload {
    name: &'static str,
    catalog: Arc<Catalog>,
    populate: Box<dyn Fn(&EpochStore)>,
    stream: Vec<Vec<TxRequest>>,
}

macro_rules! workload {
    ($name:expr, $ty:ident, $config:expr, $seed:expr) => {{
        let mut catalog = Catalog::new();
        let w = Arc::new($ty::register(&mut catalog, $config).expect("registers"));
        let mut rng = DeterministicRng::new($seed);
        let stream = (0..4).map(|_| w.gen_batch(&mut rng, 24)).collect();
        Workload {
            name: $name,
            catalog: Arc::new(catalog),
            populate: Box::new(move |s| w.populate(s)),
            stream,
        }
    }};
}

/// Outcome vectors, final digest and canonical dump (without
/// `queuer_handoff` lines) of one stream.
fn run(w: &Workload, shards: usize, depth: usize) -> (Vec<Vec<TxOutcome>>, u64, String) {
    let store = Arc::new(EpochStore::new());
    (w.populate)(&store);
    let config = SchedulerConfig { shards, ..baselines::mq_mf(2) };
    let mut replica = Replica::with_store(config, Arc::clone(&w.catalog), store);
    let recorder = FlightRecorder::new(3);
    recorder.set_enabled(true);
    replica.attach_recorder(Arc::clone(&recorder));
    let outcomes = replica.execute_stream(w.stream.clone(), depth);
    let digest = replica.state_digest();
    replica.shutdown();
    assert_eq!(recorder.dropped(), 0, "{}: ring must hold the whole run", w.name);
    let handoffs = |line: &&str| line.contains("\"type\":\"queuer_handoff\"");
    let dump = recorder.render_jsonl();
    let handed_off = dump.lines().filter(handoffs).count();
    assert_eq!(handed_off, if depth == 0 { 0 } else { w.stream.len() }, "{}", w.name);
    let dump = dump.lines().filter(|line| !handoffs(line)).collect::<Vec<_>>().join("\n");
    (outcomes.into_iter().map(|o| o.outcomes).collect(), digest, dump)
}

#[test]
fn depth_one_matches_depth_zero_on_outcomes_digests_and_dumps() {
    let workloads = [
        workload!(
            "tpcc",
            TpccWorkload,
            TpccConfig { warehouses: 2, districts: 4, items: 40, customers: 8, nurand: true },
            0xDE71
        ),
        workload!("rubis", RubisWorkload, RubisConfig { users: 40, items: 40 }, 0xDE72),
    ];
    for w in &workloads {
        for shards in [1, 4] {
            let (outcomes, digest, dump) = run(w, shards, 0);
            assert!(outcomes.iter().flatten().any(|o| *o == TxOutcome::Committed));
            let (outcomes_1, digest_1, dump_1) = run(w, shards, 1);
            let leg = format!("{} at {shards} shards", w.name);
            assert_eq!(outcomes, outcomes_1, "{leg}: outcome vectors diverged");
            assert_eq!(digest, digest_1, "{leg}: digests diverged");
            assert!(dump == dump_1, "{leg}: canonical dumps diverged");
        }
    }
}
