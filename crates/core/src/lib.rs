#![warn(missing_docs)]
//! Prognosticator's deterministic concurrency-control runtime — the
//! paper's primary contribution (§III-C).
//!
//! Given batches of transactions in an agreed order, the [`Engine`]
//! executes them concurrently on a pool of worker threads while
//! guaranteeing that every replica fed the same batches reaches the same
//! state. Scheduling is driven by the key-level read/write-sets predicted
//! from offline symbolic-execution profiles (`prognosticator-symexec`),
//! through a per-key FIFO [`locktable::LockTable`].
//!
//! The [`baselines`] module configures the same engine as each system in
//! the paper's evaluation: the Prognosticator variants (MQ/1Q × SF/MF ×
//! SE/-R), Calvin-N, NODO, and the single-threaded `SEQ`.
//!
//! ```
//! use prognosticator_core::{baselines, Catalog, Replica, TxRequest};
//! use prognosticator_txir::{Expr, InputBound, ProgramBuilder, Value};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new("bump");
//! let t = b.table("counters");
//! let id = b.input("id", InputBound::int(0, 9));
//! let v = b.var("v");
//! b.get(v, Expr::key(t, vec![Expr::input(id)]));
//! b.put(Expr::key(t, vec![Expr::input(id)]), Expr::var(v).add(Expr::lit(1)));
//!
//! let mut catalog = Catalog::new();
//! let bump = catalog.register(b.build())?;
//!
//! let mut replica = Replica::new(baselines::mq_mf(2), Arc::new(catalog));
//! replica.store().populate((0..10).map(|i| {
//!     (prognosticator_txir::Key::of_ints(t, &[i]), Value::Int(0))
//! }));
//! let batch = (0..10).map(|i| TxRequest::new(bump, vec![Value::Int(i % 4)])).collect();
//! let outcome = replica.execute_batch(batch);
//! assert_eq!(outcome.committed, 10);
//! # replica.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod catalog;
pub mod engine;
pub mod exec;
pub mod faults;
pub mod locktable;
pub mod replica;
pub mod sched;
pub mod shard;

pub use catalog::{Catalog, CatalogEntry, ProgId, TxRequest};
pub use engine::{
    BatchOutcome, Engine, FailedPolicy, Granularity, PreparedBatch, PrepareMode, SchedulerConfig,
    ShardStageTimings, StageTimings, TxOutcome,
};
pub use exec::{AccessScope, OpCounts, TxFailure};
pub use faults::{AbortReason, ConsensusFault, FaultPlan};
pub use locktable::{
    FifoPolicy, LockTable, LockTableBuilder, ReadyPolicy, SeededShufflePolicy, TxIdx,
};
pub use replica::{LogRecord, RecoveryReport, Replica};
pub use shard::{ShardRoute, ShardRouter};
pub use prognosticator_symexec::TxClass;
