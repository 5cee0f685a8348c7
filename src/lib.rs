#![warn(missing_docs)]
//! Prognosticator: a deterministic database accelerated by symbolic
//! execution — a reproduction of Issa et al., *"Exploiting Symbolic
//! Execution to Accelerate Deterministic Databases"*, ICDCS 2020.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`txir`] — the transaction IR (stored-procedure DSL).
//! * [`symexec`] — the offline symbolic-execution profiler.
//! * [`storage`] — the epoch-MVCC key-value store.
//! * [`consensus`] — the Raft-lite sequencing layer.
//! * [`core`] — the deterministic concurrency-control runtime and baselines.
//! * [`workloads`] — TPC-C and RUBiS expressed in the IR.
//!
//! The [`pipeline`] module assembles the full deterministic database —
//! client batching, consensus ordering and a replica fleet — behind one
//! [`Pipeline`] handle, including recovery of late-joining replicas by
//! committed-log replay. The [`wal_codec`] module supplies the binary
//! batch codec that lets the consensus WAL persist `Vec<TxRequest>`
//! payloads durably. The [`client`] module layers per-request deadlines,
//! deterministic retry/backoff and exactly-once outcome resolution on
//! top, and [`health`] tracks per-replica degradation driving the
//! pipeline's graceful load shedding.
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory; runnable examples live under `examples/`.

pub mod client;
pub mod health;
pub mod pipeline;
pub mod server;
pub mod wal_codec;

pub use client::{ClientConfig, ClientOutcome, ClientReport, ClientSession};
pub use health::{HealthMonitor, HealthState};
pub use pipeline::{BatchEvent, Pipeline, PipelineConfig, PipelineError};
pub use server::wire::{WireClient, WireOutcome, WireResponse};
pub use server::{Server, ServerConfig, ServerReport, ServerStats};
pub use wal_codec::TxBatchCodec;

pub use prognosticator_consensus as consensus;
pub use prognosticator_core as core;
pub use prognosticator_storage as storage;
pub use prognosticator_symexec as symexec;
pub use prognosticator_txir as txir;
pub use prognosticator_workloads as workloads;
