#![warn(missing_docs)]
//! The paper's evaluation workloads — TPC-C and RUBiS — expressed as
//! transaction-IR stored procedures, with deterministic input generators
//! and initial population (paper §IV).
//!
//! * [`tpcc`]: newOrder (DT), payment (IT), delivery (DT), orderStatus
//!   (ROT) and stockLevel (ROT, whose analysis deliberately explodes and
//!   exercises the SE cap), standard 44/43/4/4/4 mix, warehouse count as
//!   the contention knob.
//! * [`rubis`]: the five update transactions (all DT through a counter
//!   pivot) plus browse ROTs; the RUBiS-C mix (50% storeBid).
//!
//! A third workload, [`smallbank`], is not part of the paper's evaluation
//! but is a standard deterministic-database micro-benchmark used here by
//! examples and tests.
//!
//! All workloads guarantee deterministic request streams from a seed via
//! [`DeterministicRng`], so replicas and baselines can be fed identical
//! batches.

pub mod adversarial;
pub mod gen;
pub mod rubis;
pub mod smallbank;
pub mod tpcc;
pub mod widened;

pub use adversarial::{
    AdversarialConfig, AdversarialMix, AdversarialPrograms, AdversarialWorkload,
};
pub use gen::{nurand, DeterministicRng, Zipfian};
pub use rubis::{RubisConfig, RubisPrograms, RubisWorkload};
pub use smallbank::{SmallBankConfig, SmallBankPrograms, SmallBankWorkload};
pub use tpcc::{TpccConfig, TpccPrograms, TpccWorkload};
pub use widened::{WidenedConfig, WidenedPrograms, WidenedWorkload};
