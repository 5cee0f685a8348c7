//! Golden digests: the one oracle that pins *values*.
//!
//! Every differential suite compares legs of the same build, so a slip in
//! code the legs share (classification, preparation, the run-one-
//! transaction result match, the outcome fold) passes all of them. This
//! test folds outcome vectors, read-only outputs, store digests, the
//! simulator's virtual-time figures and a canonical flight-recorder dump
//! into constants recorded at commit 23619ed (PR 11, before the
//! engine/simulator merge) with
//! `cargo test --test golden -- --nocapture`; a mismatch prints the full
//! table of actual values.

use prognosticator::core::baselines::{self, SeqEngine};
use prognosticator::core::{BatchOutcome, Catalog, FaultPlan, Replica, SchedulerConfig, TxRequest};
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{
    AdversarialConfig, AdversarialMix, AdversarialWorkload, DeterministicRng, RubisConfig,
    RubisWorkload, SmallBankConfig, SmallBankWorkload, TpccConfig, TpccWorkload,
};
use prognosticator_bench::sim::{CostModel, SimReplica};
use prognosticator_obs::FlightRecorder;
use std::sync::Arc;

const BATCHES: usize = 4;
const BATCH_SIZE: usize = 24;

/// FNV-1a, fed with `Debug` renderings (stable: no maps, no addresses).
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?};").as_bytes());
    }
    /// Everything about a batch that must be replica-identical.
    fn outcome(&mut self, o: &BatchOutcome) {
        self.debug(&(o.batch_size, o.committed, o.aborted, o.aborts, o.rounds));
        self.debug(&o.carried_over);
        self.debug(&o.outcomes);
    }
}

struct Workload {
    name: &'static str,
    catalog: Arc<Catalog>,
    populate: Box<dyn Fn(&EpochStore)>,
    stream: Vec<Vec<TxRequest>>,
}

impl Workload {
    fn fresh_store(&self) -> Arc<EpochStore> {
        let store = Arc::new(EpochStore::new());
        (self.populate)(&store);
        store
    }
}

/// Registers a workload and draws its fixed request stream.
macro_rules! workload {
    ($name:expr, $ty:ident, $config:expr, $seed:expr) => {{
        let mut catalog = Catalog::new();
        let w = Arc::new($ty::register(&mut catalog, $config).expect("registers"));
        let mut rng = DeterministicRng::new($seed);
        let stream = (0..BATCHES).map(|_| w.gen_batch(&mut rng, BATCH_SIZE)).collect();
        Workload {
            name: $name,
            catalog: Arc::new(catalog),
            populate: Box::new(move |s| w.populate(s)),
            stream,
        }
    }};
}

fn workloads() -> Vec<Workload> {
    vec![
        workload!(
            "tpcc",
            TpccWorkload,
            TpccConfig { warehouses: 2, districts: 4, items: 40, customers: 8, nurand: true },
            0x601D
        ),
        workload!("rubis", RubisWorkload, RubisConfig { users: 40, items: 40 }, 0x601E),
        workload!(
            "smallbank",
            SmallBankWorkload,
            SmallBankConfig { customers: 32, hotspot_pct: 25, hotspot_size: 4 },
            0x601F
        ),
        workload!(
            "chain_pivot",
            AdversarialWorkload,
            AdversarialConfig { keys: 48, zipf_s_hundredths: 130, mix: AdversarialMix::ChainPivot },
            0x6020
        ),
    ]
}

fn configs() -> Vec<SchedulerConfig> {
    vec![
        baselines::mq_mf(2),
        baselines::mq_sf(2),
        baselines::q1_mf_r(2),
        baselines::calvin(2, 1),
        baselines::nodo(2),
        // The MF termination fallback: serial re-execution after round 2.
        SchedulerConfig { max_rounds: 2, ..baselines::mq_mf(2) },
    ]
}

fn plans() -> [Option<FaultPlan>; 2] {
    [None, Some(FaultPlan::quiet(17).with_worker_panics(150))]
}

/// Threaded engine: configs × plans × shards, outcome vectors + ROT
/// outputs per batch and the final store digest.
fn engine_fold(w: &Workload) -> u64 {
    let mut fold = Fold::new();
    for config in configs() {
        for plan in plans() {
            for shards in [1, 4] {
                let config = SchedulerConfig { shards, ..config.clone() };
                let mut replica =
                    Replica::with_store(config, Arc::clone(&w.catalog), w.fresh_store());
                replica.set_fault_plan(plan.clone());
                for batch in &w.stream {
                    let o = replica.execute_batch(batch.clone());
                    fold.outcome(&o);
                    fold.debug(&o.outputs);
                }
                fold.debug(&replica.state_digest());
                replica.shutdown();
            }
        }
    }
    fold.0
}

/// Simulator: the same configs × plans plus SEQ; returns the summed
/// virtual makespan and a fold over every virtual-time figure a batch
/// reports (what EXPERIMENTS.md's tables are computed from).
fn sim_fold(w: &Workload) -> (u64, u64) {
    let mut fold = Fold::new();
    let mut makespan = 0u64;
    let mut figures = |fold: &mut Fold, o: &BatchOutcome| {
        makespan += o.duration.as_nanos() as u64;
        fold.outcome(o);
        fold.debug(&(o.duration.as_nanos() as u64, &o.latencies_ns, o.stage));
        fold.debug(&(o.prepare_ns_total, o.prepare_count, o.reexec_ns_total, o.reexec_count));
    };
    for config in configs() {
        for plan in plans() {
            let mut sim = SimReplica::new(
                config.clone(),
                CostModel::default(),
                Arc::clone(&w.catalog),
                w.fresh_store(),
            );
            sim.set_fault_plan(plan);
            for batch in &w.stream {
                figures(&mut fold, &sim.execute_batch(batch.clone()));
            }
            fold.debug(&sim.state_digest());
        }
    }
    let mut seq = SeqEngine::new(Arc::clone(&w.catalog), w.fresh_store());
    for batch in &w.stream {
        figures(&mut fold, &CostModel::default().run_seq(&mut seq, batch.clone()));
    }
    fold.debug(&seq.store().state_digest());
    (makespan, fold.0)
}

/// Canonical flight-recorder dumps: a quiet pipelined SmallBank run and a
/// faulted, retry-heavy pivot-chain run.
fn flightrec_fold(all: &[Workload]) -> u64 {
    let mut fold = Fold::new();
    for (name, plan, depth) in [("smallbank", None, 1), ("chain_pivot", plans()[1].clone(), 0)] {
        let w = all.iter().find(|w| w.name == name).expect("workload");
        let recorder = FlightRecorder::new(7);
        recorder.set_enabled(true);
        let mut replica =
            Replica::with_store(baselines::mq_mf(2), Arc::clone(&w.catalog), w.fresh_store());
        replica.attach_recorder(Arc::clone(&recorder));
        replica.set_fault_plan(plan);
        replica.execute_stream(w.stream.clone(), depth);
        replica.shutdown();
        assert_eq!(recorder.dropped(), 0, "{name}: ring must hold the whole run");
        fold.bytes(recorder.render_jsonl().as_bytes());
    }
    fold.0
}

/// `(workload, engine fold, summed virtual makespan ns, simulator fold)`.
const GOLDEN: [(&str, u64, u64, u64); 4] = [
    ("tpcc", 0xc00ec6c0dd5021f7, 176441600, 0xa5d381a1f49f4cb7),
    ("rubis", 0x124a3784494f532b, 78677500, 0x42cfb59aeb48f9d6),
    ("smallbank", 0xa2e4a6395c2e12e3, 17778400, 0x60593a9a001fcd15),
    ("chain_pivot", 0xa2ee15b661800a25, 19246800, 0xded848bd6ae632a6),
];
const GOLDEN_FLIGHTREC: u64 = 0xe7a228de41427f07;

#[test]
fn outcomes_digests_virtual_time_and_dumps_match_the_recorded_constants() {
    let all = workloads();
    let actual: Vec<(&str, u64, u64, u64)> = all
        .iter()
        .map(|w| {
            let (makespan, sim) = sim_fold(w);
            (w.name, engine_fold(w), makespan, sim)
        })
        .collect();
    let flightrec = flightrec_fold(&all);
    let render = |rows: &[(&str, u64, u64, u64)], fr: u64| {
        let mut s = String::new();
        for (name, engine, makespan, sim) in rows {
            s.push_str(&format!("    (\"{name}\", {engine:#018x}, {makespan}, {sim:#018x}),\n"));
        }
        s.push_str(&format!("GOLDEN_FLIGHTREC = {fr:#018x}\n"));
        s
    };
    assert!(
        actual == GOLDEN && flightrec == GOLDEN_FLIGHTREC,
        "golden mismatch\nactual:\n{}recorded:\n{}",
        render(&actual, flightrec),
        render(&GOLDEN, GOLDEN_FLIGHTREC)
    );
}
