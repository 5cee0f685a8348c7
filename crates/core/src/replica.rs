//! A replica: store + engine + carried-over transaction handling.

use crate::catalog::{Catalog, TxRequest};
use crate::engine::{BatchOutcome, Engine, FailedPolicy, SchedulerConfig};
use crate::faults::FaultPlan;
use prognosticator_obs::{Event, FlightRecorder};
use prognosticator_storage::EpochStore;
use std::sync::Arc;

/// One entry of the replicated log: an ordered transaction batch. It
/// stays an enum, not a bare `Vec<TxRequest>`, because it is the log's
/// named payload type — the consensus cluster, the WAL codec and its
/// one-byte record tag are all keyed by it.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// An ordered transaction batch.
    Batch(Vec<TxRequest>),
}

/// A full replica of the deterministic database: its own store and engine.
///
/// Feeding the same sequence of batches to any number of replicas must
/// leave them with identical [`Replica::state_digest`]s — the correctness
/// property of deterministic databases, exercised heavily by the
/// integration tests.
#[derive(Debug)]
pub struct Replica {
    store: Arc<EpochStore>,
    engine: Arc<Engine>,
    /// Transactions handed back by the engine (Calvin's failed DTs),
    /// queued for the next batch.
    carry_over: Vec<TxRequest>,
}

/// What [`Replica::recover`] did: how much of the durable batch log it
/// replayed and what state it reached.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Number of committed batches replayed from the durable log.
    pub batches_replayed: usize,
    /// Total transactions across the replayed batches.
    pub transactions: usize,
    /// Per-batch outcomes of the replay — byte-identical to the outcomes
    /// the pre-crash run recorded for the same prefix (including aborts
    /// reproduced from the fault plan's replay path).
    pub outcomes: Vec<crate::engine::BatchOutcome>,
    /// Wall-clock microseconds spent replaying.
    pub replay_us: u64,
    /// State digest after replay.
    pub digest: u64,
}

impl Replica {
    /// Creates a replica with a fresh store.
    pub fn new(config: SchedulerConfig, catalog: Arc<Catalog>) -> Self {
        Self::with_store(config, catalog, Arc::new(EpochStore::new()))
    }

    /// Rebuilds a replica from the durable committed batch log.
    ///
    /// In a deterministic database the ordered log *is* the state:
    /// recovery is nothing but replaying the committed prefix against a
    /// fresh store. `plan` is the fault plan the pre-crash run executed
    /// under, if any — replay runs its [`FaultPlan::replay`] variant, so
    /// no faults are re-injected (no worker unwinds, spikes, or network
    /// disruptions) yet every originally injected abort is reproduced
    /// with the byte-identical reason, keeping the replayed outcome
    /// vector equal to the pre-crash one.
    ///
    /// Panics if `expected_digest` is provided and the recovered digest
    /// differs — a recovery-soundness violation, never a transient error.
    /// `store` is the replica's *bootstrap* state — the same initial rows
    /// every replica starts from (recovery replays the log on top of it,
    /// not on an empty store).
    pub fn recover(
        config: SchedulerConfig,
        catalog: Arc<Catalog>,
        store: Arc<EpochStore>,
        committed: Vec<Vec<TxRequest>>,
        plan: Option<&FaultPlan>,
        expected_digest: Option<u64>,
    ) -> (Self, RecoveryReport) {
        let started = std::time::Instant::now();
        let mut replica = Self::with_store(config, catalog, store);
        replica.set_fault_plan(plan.map(|p| p.clone().replay()));
        let batches_replayed = committed.len();
        let transactions = committed.iter().map(Vec::len).sum();
        let mut outcomes = Vec::with_capacity(batches_replayed);
        for batch in committed {
            let txs = batch.len() as u64;
            let index = replica.engine.batches_executed();
            if let Some(rec) = replica.engine.recorder() {
                rec.record(|| Event::RecoveryReplay { batch: index, txs });
            }
            outcomes.push(replica.execute_batch(batch));
        }
        // Recovery ends where the crash happened; new live batches run
        // under the original plan again, which the caller reinstalls.
        replica.set_fault_plan(plan.cloned());
        let digest = replica.state_digest();
        if let Some(expected) = expected_digest {
            if digest != expected {
                // Recovery-soundness violation: capture everything the
                // flight recorders saw before aborting the process' test.
                if let Some(rec) = replica.engine.recorder() {
                    let batch = replica.engine.batches_executed();
                    rec.record(|| Event::DigestMismatch {
                        batch,
                        expected,
                        actual: digest,
                    });
                }
                prognosticator_obs::dump_all("recovery-digest-mismatch");
                panic!(
                    "recovered digest diverged from pre-crash digest: \
                     {digest:#x} != {expected:#x}"
                );
            }
        }
        let report = RecoveryReport {
            batches_replayed,
            transactions,
            outcomes,
            replay_us: started.elapsed().as_micros() as u64,
            digest,
        };
        (replica, report)
    }

    /// Creates a replica over an existing (pre-populated) store.
    pub fn with_store(
        config: SchedulerConfig,
        catalog: Arc<Catalog>,
        store: Arc<EpochStore>,
    ) -> Self {
        let engine = Arc::new(Engine::new(config, catalog, Arc::clone(&store)));
        // When flight recording is on process-wide, every replica gets its
        // own ring; a disabled process never allocates one.
        if prognosticator_obs::default_enabled() {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT_REPLICA: AtomicU64 = AtomicU64::new(0);
            engine.set_recorder(Some(FlightRecorder::new(
                NEXT_REPLICA.fetch_add(1, Ordering::Relaxed),
            )));
        }
        Replica { store, engine, carry_over: Vec::new() }
    }

    /// Attaches a flight recorder to the replica's engine (normally done
    /// automatically when recording is enabled process-wide).
    pub fn attach_recorder(&self, recorder: Arc<FlightRecorder>) {
        self.engine.set_recorder(Some(recorder));
    }

    /// The replica's flight recorder, if one is attached.
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.engine.recorder()
    }

    /// The replica's store.
    pub fn store(&self) -> &Arc<EpochStore> {
        &self.store
    }

    /// The replica's engine (shareable: execution takes `&self`).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Executes the next ordered batch. Carried-over transactions from the
    /// previous batch are prepended (they arrived first), exactly like a
    /// Calvin client re-submitting failed transactions.
    pub fn execute_batch(&mut self, batch: Vec<TxRequest>) -> BatchOutcome {
        let mut full = std::mem::take(&mut self.carry_over);
        full.extend(batch);
        let outcome = self.engine.execute_batch(full);
        self.carry_over = outcome.carried_over.clone();
        outcome
    }

    /// Executes a run of ordered batches. Depth 0 is the plain sequential
    /// `prepare → execute` loop. Any depth ≥ 1 prepares one batch ahead:
    /// the queuer classifies batch `N+1` while batch `N`'s workers run its
    /// update phases, and records a `QueuerHandoff` flight event before
    /// each batch executes. Outcomes and state are byte-identical at every
    /// depth; only [`crate::StageTimings::overlap_ns`] differs.
    ///
    /// [`FailedPolicy::NextBatch`] forces depth 0: its carried-over
    /// transactions must be prepended to the next batch *before* that
    /// batch is classified.
    pub fn execute_stream(
        &mut self,
        batches: Vec<Vec<TxRequest>>,
        depth: usize,
    ) -> Vec<BatchOutcome> {
        if depth == 0 || self.engine.config().failed == FailedPolicy::NextBatch {
            return batches.into_iter().map(|batch| self.execute_batch(batch)).collect();
        }
        // No other policy carries transactions over, so only a carry-over
        // left from before this call goes in front of the first batch.
        let mut outcomes = Vec::with_capacity(batches.len());
        let mut batches = batches.into_iter();
        let Some(first) = batches.next() else { return outcomes };
        let mut full = std::mem::take(&mut self.carry_over);
        full.extend(first);
        let mut prepared = self.engine.prepare(full);
        loop {
            if let Some(rec) = self.engine.recorder() {
                let (batch, txs) = (self.engine.batches_executed(), prepared.batch_size() as u64);
                rec.record(|| Event::QueuerHandoff { batch, txs });
            }
            let Some(next) = batches.next() else {
                outcomes.push(self.engine.execute(prepared));
                return outcomes;
            };
            let (outcome, next) = self.engine.execute_and_prepare(prepared, next);
            outcomes.push(outcome);
            prepared = next;
        }
    }

    /// Transactions still waiting to be retried.
    pub fn pending_carry_over(&self) -> usize {
        self.carry_over.len()
    }

    /// Deterministic digest of the replica state.
    pub fn state_digest(&self) -> u64 {
        self.store.state_digest()
    }

    /// Installs (or clears) a deterministic fault-injection plan on the
    /// engine. Replicas fed the same batches under the same plan still
    /// reach identical outcomes and digests.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.engine.set_fault_plan(plan);
    }

    /// Stops the engine's worker pool. Idempotent:
    /// repeated calls (and the implicit call from `Drop`) are no-ops once
    /// the pool is joined.
    pub fn shutdown(&mut self) {
        self.engine.shutdown();
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shutdown();
    }
}
