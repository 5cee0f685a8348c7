//! Preset configurations for every system in the paper's evaluation, plus
//! the single-threaded `SEQ` baseline.
//!
//! | Preset | Paper name | Prepare | Queuers | Failed txs |
//! |---|---|---|---|---|
//! | [`mq_mf`] | Prognosticator MQ-MF | SE profile | multi | re-enqueue |
//! | [`mq_sf`] | Prognosticator MQ-SF | SE profile | multi | single-thread |
//! | [`q1_mf`] | Prognosticator 1Q-MF | SE profile | single | re-enqueue |
//! | [`q1_sf`] | Prognosticator 1Q-SF | SE profile | single | single-thread |
//! | [`mq_mf_r`] … [`q1_sf_r`] | `*-R` ablations | reconnaissance | — | — |
//! | [`calvin`] | Calvin-N | SE profile, N ms stale | single | next batch |
//! | [`nodo`] | NODO | table-granularity | single | (never fails) |
//! | [`SeqEngine`] | SEQ | — | — | — |

use crate::catalog::{Catalog, TxRequest};
use crate::engine::{BatchOutcome, FailedPolicy, Granularity, PrepareMode, SchedulerConfig};
use crate::exec::OpCounts;
use crate::sched::{self, RunMode, TxStatus};
use prognosticator_storage::EpochStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn base(workers: usize) -> SchedulerConfig {
    SchedulerConfig { workers, ..SchedulerConfig::default() }
}

/// Prognosticator MQ-MF: parallel prepare, failed transactions re-enqueued.
pub fn mq_mf(workers: usize) -> SchedulerConfig {
    SchedulerConfig {
        prepare: PrepareMode::Profile,
        parallel_prepare: true,
        failed: FailedPolicy::Reenqueue,
        ..base(workers)
    }
}

/// Prognosticator MQ-SF: parallel prepare, failed transactions re-executed
/// sequentially.
pub fn mq_sf(workers: usize) -> SchedulerConfig {
    SchedulerConfig { failed: FailedPolicy::SingleThread, ..mq_mf(workers) }
}

/// Prognosticator 1Q-MF: only the queuer prepares.
pub fn q1_mf(workers: usize) -> SchedulerConfig {
    SchedulerConfig { parallel_prepare: false, ..mq_mf(workers) }
}

/// Prognosticator 1Q-SF.
pub fn q1_sf(workers: usize) -> SchedulerConfig {
    SchedulerConfig { parallel_prepare: false, ..mq_sf(workers) }
}

/// MQ-MF-R: reconnaissance instead of symbolic execution (§IV-C ablation).
pub fn mq_mf_r(workers: usize) -> SchedulerConfig {
    SchedulerConfig { prepare: PrepareMode::Reconnaissance, ..mq_mf(workers) }
}

/// MQ-SF-R.
pub fn mq_sf_r(workers: usize) -> SchedulerConfig {
    SchedulerConfig { prepare: PrepareMode::Reconnaissance, ..mq_sf(workers) }
}

/// 1Q-MF-R.
pub fn q1_mf_r(workers: usize) -> SchedulerConfig {
    SchedulerConfig { prepare: PrepareMode::Reconnaissance, ..q1_mf(workers) }
}

/// 1Q-SF-R.
pub fn q1_sf_r(workers: usize) -> SchedulerConfig {
    SchedulerConfig { prepare: PrepareMode::Reconnaissance, ..q1_sf(workers) }
}

/// Calvin-N: dependent transactions are prepared by the client
/// `staleness_batches` batches before execution (the paper's N ms at a
/// 10 ms batch interval ⇒ N/10 batches) and failed ones go back to the
/// client for a future batch.
pub fn calvin(workers: usize, staleness_batches: u64) -> SchedulerConfig {
    SchedulerConfig {
        prepare: PrepareMode::Profile,
        parallel_prepare: false,
        failed: FailedPolicy::NextBatch,
        prepare_staleness: staleness_batches,
        ..base(workers)
    }
}

/// NODO: table-granularity conflict classes; every transaction is
/// independent and never aborts.
pub fn nodo(workers: usize) -> SchedulerConfig {
    SchedulerConfig {
        granularity: Granularity::Table,
        parallel_prepare: false,
        ..base(workers)
    }
}

/// The `SEQ` baseline: executes every transaction of a batch sequentially
/// on the calling thread — trivially deterministic, no parallelism.
#[derive(Debug)]
pub struct SeqEngine {
    catalog: Arc<Catalog>,
    store: Arc<EpochStore>,
}

impl SeqEngine {
    /// Creates the sequential engine.
    pub fn new(catalog: Arc<Catalog>, store: Arc<EpochStore>) -> Self {
        SeqEngine { catalog, store }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<EpochStore> {
        &self.store
    }

    /// Executes a batch in order on the current thread and commits its
    /// epoch, on the wall clock. Writes are buffered per transaction so a
    /// workload bug becomes a deterministic [`crate::TxOutcome::Aborted`]
    /// with no torn writes, exactly like the parallel engine.
    pub fn execute_batch(&mut self, batch: Vec<TxRequest>) -> BatchOutcome {
        let start = Instant::now();
        self.execute_batch_on(batch, |_| start.elapsed().as_nanos() as u64)
    }

    /// [`SeqEngine::execute_batch`] on the caller's clock: `clock` is told
    /// each transaction's operation counts and returns the nanoseconds
    /// since batch start (the bench simulator prices the counts instead
    /// of reading a timer).
    pub fn execute_batch_on(
        &mut self,
        batch: Vec<TxRequest>,
        mut clock: impl FnMut(OpCounts) -> u64,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome { batch_size: batch.len(), rounds: 1, ..Default::default() };
        for req in batch {
            // SEQ is the serial re-execution path applied to every
            // transaction; reconnaissance-mode classification predicts
            // nothing, which is all it needs.
            let (tx, mut state) =
                sched::classify(Granularity::Key, PrepareMode::Reconnaissance, &self.catalog, req);
            let (status, ops) = sched::run_tx(&self.store, &tx, &mut state, RunMode::Serial, None);
            let now = clock(ops);
            if let TxStatus::Committed(_) = status {
                state.finished_ns = now.max(1);
            }
            sched::fold_tx(&mut outcome, &mut state);
        }
        self.store.advance_epoch();
        outcome.duration = Duration::from_nanos(clock(OpCounts::default()));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shapes() {
        assert_eq!(mq_mf(8).failed, FailedPolicy::Reenqueue);
        assert!(mq_mf(8).parallel_prepare);
        assert_eq!(mq_sf(8).failed, FailedPolicy::SingleThread);
        assert!(!q1_mf(8).parallel_prepare);
        assert_eq!(q1_sf(8).failed, FailedPolicy::SingleThread);
        assert!(!q1_sf(8).parallel_prepare);
        for cfg in [mq_mf_r(8), mq_sf_r(8), q1_mf_r(8), q1_sf_r(8)] {
            assert_eq!(cfg.prepare, PrepareMode::Reconnaissance);
        }
        let c = calvin(8, 10);
        assert_eq!(c.prepare_staleness, 10);
        assert_eq!(c.failed, FailedPolicy::NextBatch);
        assert_eq!(nodo(8).granularity, Granularity::Table);
        assert_eq!(mq_mf(8).granularity, Granularity::Key);
    }
}
