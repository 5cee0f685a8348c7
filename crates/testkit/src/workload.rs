//! One enum over the bundled workloads — the three standard benchmarks
//! plus the adversarial scenario pack — so oracles and strategies can be
//! workload-parametric without generics.

use prognosticator_core::{Catalog, TxRequest};
use prognosticator_storage::EpochStore;
use prognosticator_workloads::{
    AdversarialConfig, AdversarialMix, AdversarialWorkload, DeterministicRng, RubisConfig,
    RubisWorkload, SmallBankConfig, SmallBankWorkload, TpccConfig, TpccWorkload, WidenedConfig,
    WidenedWorkload,
};
use std::sync::Arc;

/// Which workload a test exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// SmallBank: 6 short banking transactions over 3 tables.
    SmallBank,
    /// TPC-C (the paper's subset): NewOrder/Payment/OrderStatus.
    Tpcc,
    /// RUBiS: auction-site mix.
    Rubis,
    /// Adversarial: Zipfian (s = 1.3) hot-key RMW storm.
    HotSkew,
    /// Adversarial: long snapshot scans under a concurrent write storm.
    ScanStorm,
    /// Adversarial: YCSB-style CRUD mix over a skewed key space.
    YcsbMix,
    /// Adversarial: indirect-key chains racing link rewrites (DT pivots).
    ChainPivot,
    /// Widened wide-range scans (static over-approximation through the
    /// explorer's loop-hull widening) plus a pivot-overwriting watermark
    /// bump — the oracle's loose workload.
    Widened,
}

impl WorkloadKind {
    /// The three standard workloads, for "run everything" loops. The
    /// adversarial pack is separate ([`WorkloadKind::ADVERSARIAL`]) so
    /// existing suites keep their cell counts.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::SmallBank, WorkloadKind::Tpcc, WorkloadKind::Rubis];

    /// The four adversarial scenarios (ISSUE 7's scenario pack).
    pub const ADVERSARIAL: [WorkloadKind; 4] = [
        WorkloadKind::HotSkew,
        WorkloadKind::ScanStorm,
        WorkloadKind::YcsbMix,
        WorkloadKind::ChainPivot,
    ];

    /// Stable lowercase name (used in reports and reproducer file names).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SmallBank => "smallbank",
            WorkloadKind::Tpcc => "tpcc",
            WorkloadKind::Rubis => "rubis",
            WorkloadKind::HotSkew => "hot_skew",
            WorkloadKind::ScanStorm => "scan_storm",
            WorkloadKind::YcsbMix => "ycsb_mix",
            WorkloadKind::ChainPivot => "chain_pivot",
            WorkloadKind::Widened => "widened",
        }
    }

    fn adversarial_mix(self) -> Option<AdversarialMix> {
        match self {
            WorkloadKind::HotSkew => Some(AdversarialMix::HotSkew),
            WorkloadKind::ScanStorm => Some(AdversarialMix::ScanStorm),
            WorkloadKind::YcsbMix => Some(AdversarialMix::YcsbMix),
            WorkloadKind::ChainPivot => Some(AdversarialMix::ChainPivot),
            _ => None,
        }
    }
}

enum Generator {
    SmallBank(SmallBankWorkload),
    Tpcc(TpccWorkload),
    Rubis(RubisWorkload),
    Adversarial(AdversarialWorkload),
    Widened(WidenedWorkload),
}

/// A registered workload at test scale: its catalog plus a batch
/// generator and initial-state populator.
///
/// The configurations are deliberately small (tens of rows, a couple of
/// warehouses) so contention is high and schedule bugs surface quickly.
pub struct TestWorkload {
    kind: WorkloadKind,
    catalog: Arc<Catalog>,
    generator: Generator,
}

impl std::fmt::Debug for TestWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestWorkload").field("kind", &self.kind).finish()
    }
}

impl TestWorkload {
    /// Registers `kind` at test scale into a fresh catalog.
    ///
    /// # Panics
    /// Panics if workload registration fails — the bundled programs are
    /// known-good, so a failure here is a bug in the analyzer.
    pub fn new(kind: WorkloadKind) -> Self {
        let mut catalog = Catalog::new();
        let generator = match kind {
            WorkloadKind::SmallBank => Generator::SmallBank(
                SmallBankWorkload::register(
                    &mut catalog,
                    SmallBankConfig { customers: 32, hotspot_pct: 25, hotspot_size: 4 },
                )
                .expect("smallbank registers"),
            ),
            WorkloadKind::Tpcc => Generator::Tpcc(
                TpccWorkload::register(
                    &mut catalog,
                    TpccConfig {
                        warehouses: 2,
                        districts: 4,
                        items: 40,
                        customers: 8,
                        nurand: true,
                    },
                )
                .expect("tpcc registers"),
            ),
            WorkloadKind::Rubis => Generator::Rubis(
                RubisWorkload::register(&mut catalog, RubisConfig { users: 40, items: 40 })
                    .expect("rubis registers"),
            ),
            WorkloadKind::Widened => Generator::Widened(
                WidenedWorkload::register(&mut catalog, WidenedConfig::default())
                    .expect("widened registers"),
            ),
            adversarial => Generator::Adversarial(
                AdversarialWorkload::register(
                    &mut catalog,
                    AdversarialConfig {
                        keys: 48,
                        zipf_s_hundredths: 130,
                        mix: adversarial.adversarial_mix().expect("adversarial kind"),
                    },
                )
                .expect("adversarial registers"),
            ),
        };
        TestWorkload { kind, catalog: Arc::new(catalog), generator }
    }

    /// Which workload this is.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The catalog holding this workload's registered programs.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// A fresh store holding the workload's initial state.
    pub fn fresh_store(&self) -> Arc<EpochStore> {
        let store = Arc::new(EpochStore::new());
        self.populate_store(&store);
        store
    }

    /// Populates an existing `store` with the workload's initial state
    /// (for harnesses — like the pipeline — that create stores
    /// themselves).
    pub fn populate_store(&self, store: &EpochStore) {
        match &self.generator {
            Generator::SmallBank(w) => w.populate(store),
            Generator::Tpcc(w) => w.populate(store),
            Generator::Rubis(w) => w.populate(store),
            Generator::Adversarial(w) => w.populate(store),
            Generator::Widened(w) => w.populate(store),
        }
    }

    /// Generates a batch of `size` requests from `rng`.
    pub fn gen_batch(&self, rng: &mut DeterministicRng, size: usize) -> Vec<TxRequest> {
        match &self.generator {
            Generator::SmallBank(w) => w.gen_batch(rng, size),
            Generator::Tpcc(w) => w.gen_batch(rng, size),
            Generator::Rubis(w) => w.gen_batch(rng, size),
            Generator::Adversarial(w) => w.gen_batch(rng, size),
            Generator::Widened(w) => w.gen_batch(rng, size),
        }
    }

    /// Generates `batches` batches of `batch_size` requests from one
    /// seeded stream — the canonical input shape for the oracles.
    pub fn gen_stream(&self, seed: u64, batches: usize, batch_size: usize) -> Vec<Vec<TxRequest>> {
        let mut rng = DeterministicRng::new(seed);
        (0..batches).map(|_| self.gen_batch(&mut rng, batch_size)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_register_and_generate() {
        for kind in WorkloadKind::ALL
            .into_iter()
            .chain(WorkloadKind::ADVERSARIAL)
            .chain([WorkloadKind::Widened])
        {
            let w = TestWorkload::new(kind);
            let stream = w.gen_stream(7, 2, 5);
            assert_eq!(stream.len(), 2);
            assert!(stream.iter().all(|b| b.len() == 5), "{kind:?}");
            let store = w.fresh_store();
            assert!(store.key_count() > 0, "{kind:?} populates");
        }
    }

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let w = TestWorkload::new(WorkloadKind::SmallBank);
        assert_eq!(w.gen_stream(3, 2, 8), w.gen_stream(3, 2, 8));
        assert_ne!(w.gen_stream(3, 2, 8), w.gen_stream(4, 2, 8));
    }
}
