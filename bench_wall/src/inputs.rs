//! The four workloads' inputs. The seed generates the request stream; the
//! measured program only ever sees the generated `TxRequest`s.

use prognosticator::core::{Catalog, TxRequest};
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{
    DeterministicRng, RubisConfig, RubisWorkload, SmallBankConfig, SmallBankWorkload, TpccConfig,
    TpccWorkload,
};
use std::sync::Arc;
use std::time::Instant;

/// Which path of the system a workload's untraced run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Exec,
    Replicated,
    Served,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tpcc,
    Rubis,
    SmallBank,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload was chosen, in one line (BENCHMARK.json's `why`).
    pub why: &'static str,
    pub kind: Kind,
    pub family: Family,
    /// Transactions per batch: the engine batch on the exec workloads,
    /// the pipeline's `batch_cap` on the SmallBank ones.
    pub batch: usize,
    /// Batches in the fixed log the exec workloads replay.
    pub log_batches: usize,
    /// Leg A + leg B replay pairs an exec run makes per second of
    /// `--seconds`: about what this host did at the seed commit.
    pub pairs_per_second: f64,
    /// Open-loop rate of the traced run's server pass: well inside what
    /// one replica behind the front-end sustains for these transactions.
    pub probe_rps: u64,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "tpcc_exec",
        why: "TPC-C 100 warehouses replayed through the engine: symexec prediction, txir interpretation and storage commit/GC do the work; leg B is 4 shards on the same log",
        kind: Kind::Tpcc,
        family: Family::Exec,
        batch: 128,
        log_batches: 96,
        pairs_per_second: 0.2,
        probe_rps: 400,
    },
    Spec {
        name: "rubis_exec",
        why: "RUBiS-C on about 2k keys through the same engine path: hot counter rows, long lock queues and re-enqueue rounds; predict and GC are negligible here",
        kind: Kind::Rubis,
        family: Family::Exec,
        batch: 128,
        log_batches: 160,
        pairs_per_second: 0.25,
        probe_rps: 1600,
    },
    Spec {
        name: "smallbank_replicated",
        why: "SmallBank closed loop through 3 Raft nodes, WAL fsync and 3 replicas: the engine is nearly idle, consensus round trips and poll quanta do the work; leg B is one node",
        kind: Kind::SmallBank,
        family: Family::Replicated,
        batch: 64,
        log_batches: 64,
        pairs_per_second: 0.0,
        probe_rps: 1600,
    },
    Spec {
        name: "smallbank_served",
        why: "SmallBank open loop over loopback TCP at 1600 and 2400 rps: the only workload with server, wire, client session and the timer-cut batcher on the path",
        kind: Kind::SmallBank,
        family: Family::Served,
        batch: 64,
        log_batches: 64,
        pairs_per_second: 0.0,
        probe_rps: 1600,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

pub type Populate = Arc<dyn Fn(&EpochStore) + Send + Sync>;

/// A registered workload: profiled catalog, epoch-0 population and the
/// seeded request generator.
pub struct Inputs {
    pub spec: &'static Spec,
    pub catalog: Arc<Catalog>,
    pub populate: Populate,
    gen: Gen,
    /// Wall time of registration, which is the symbolic-execution
    /// profiling of every program.
    pub explore_s: f64,
}

type Gen = Box<dyn FnMut(usize) -> Vec<TxRequest> + Send>;

/// Turns a registered workload into its population closure and its
/// seeded generator (the three workload types share no trait).
fn closures<W: Send + Sync + 'static>(
    workload: W,
    populate: fn(&W, &EpochStore),
    gen_batch: fn(&W, &mut DeterministicRng, usize) -> Vec<TxRequest>,
    mut rng: DeterministicRng,
) -> (Populate, Gen) {
    let workload = Arc::new(workload);
    let for_populate = Arc::clone(&workload);
    (
        Arc::new(move |store: &EpochStore| populate(&for_populate, store)),
        Box::new(move |size| gen_batch(&workload, &mut rng, size)),
    )
}

impl Inputs {
    /// The paper's low-contention TPC-C point, RUBiS-C at its default
    /// scale, and SmallBank with a quarter of the traffic on 100 of
    /// 10 000 customers.
    pub fn build(spec: &'static Spec, seed: u64) -> Inputs {
        let mut catalog = Catalog::new();
        let rng = DeterministicRng::new(seed);
        let started = Instant::now();
        let (populate, gen) = match spec.kind {
            Kind::Tpcc => {
                let config = TpccConfig {
                    warehouses: 100,
                    ..TpccConfig::default()
                };
                let wl = TpccWorkload::register(&mut catalog, config).expect("TPC-C registers");
                closures(wl, TpccWorkload::populate, TpccWorkload::gen_batch, rng)
            }
            Kind::Rubis => {
                let wl = RubisWorkload::register(&mut catalog, RubisConfig::default())
                    .expect("RUBiS registers");
                closures(wl, RubisWorkload::populate, RubisWorkload::gen_batch, rng)
            }
            Kind::SmallBank => {
                let config = SmallBankConfig {
                    customers: 10_000,
                    hotspot_pct: 25,
                    hotspot_size: 100,
                };
                let wl =
                    SmallBankWorkload::register(&mut catalog, config).expect("SmallBank registers");
                closures(
                    wl,
                    SmallBankWorkload::populate,
                    SmallBankWorkload::gen_batch,
                    rng,
                )
            }
        };
        let explore_s = started.elapsed().as_secs_f64();
        Inputs {
            spec,
            catalog: Arc::new(catalog),
            populate,
            gen,
            explore_s,
        }
    }

    pub fn gen_batch(&mut self, size: usize) -> Vec<TxRequest> {
        (self.gen)(size)
    }

    pub fn gen_log(&mut self, batches: usize) -> Vec<Vec<TxRequest>> {
        let size = self.spec.batch;
        (0..batches).map(|_| self.gen_batch(size)).collect()
    }

    pub fn fresh_store(&self) -> Arc<EpochStore> {
        let store = Arc::new(EpochStore::new());
        (self.populate)(&store);
        store
    }
}
