//! The assembled deterministic database (paper Fig. 1): client-side
//! batching, Raft-lite ordering, and a fleet of deterministic replicas.
//!
//! [`Pipeline`] wires the workspace crates together behind one handle:
//! transactions submitted through [`Pipeline::submit`] are batched, agreed
//! upon by the consensus cluster, and executed by every replica in the
//! same order — so [`Pipeline::digests`] always agree. New replicas can
//! join at any time ([`Pipeline::add_replica`]) and recover by replaying
//! the committed log from the initial population, the standard
//! deterministic-database recovery story.

use crate::health::{HealthMonitor, HealthState};
use crate::wal_codec::LogRecordCodec;
use prognosticator_consensus::{
    Admission, Batcher, DurabilityReport, LogEntry, LogStore, NetConfig, Quarantine, Quarantined,
    RaftCluster, RaftTiming, RetryPolicy, WalStore,
};
use prognosticator_core::{
    Catalog, ConsensusFault, FaultPlan, LogRecord, RecoveryReport, Replica, SchedulerConfig,
    StageTimings, TxOutcome, TxRequest,
};
use prognosticator_storage::EpochStore;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Epochs of store history a replica retains after commit when the
/// scheduler config sets no window; older versions are garbage-collected
/// (each key keeps its latest version, so digests never change).
const DEFAULT_GC_KEEP_EPOCHS: u64 = 8;

/// Configuration of the assembled pipeline.
#[derive(Clone)]
pub struct PipelineConfig {
    /// Raft cluster size.
    pub consensus_nodes: usize,
    /// Simulated-network fault model.
    pub net: NetConfig,
    /// Raft timing knobs.
    pub timing: RaftTiming,
    /// Client batch window.
    pub batch_window: Duration,
    /// Client batch size cap.
    pub batch_cap: usize,
    /// Scheduler configuration for every replica. This carries the
    /// key-space shard count (`SchedulerConfig::shards`) through to every
    /// replica's engine; sharding is a throughput knob only and never
    /// changes outcomes or digests (DESIGN.md §3.5), so fleets mixing
    /// shard counts still converge. When it sets no GC window
    /// (`SchedulerConfig::gc_keep_epochs`), each replica keeps 8 epochs of
    /// store history, more if `prepare_staleness` needs them.
    pub scheduler: SchedulerConfig,
    /// Seed for the simulated network.
    pub seed: u64,
    /// How long to wait for consensus operations before giving up.
    pub consensus_timeout: Duration,
    /// Bounded retry-with-backoff applied when a proposal times out.
    pub retry: RetryPolicy,
    /// Admission bound: maximum transactions queued client-side (buffered
    /// plus cut-but-unproposed). Submissions beyond it get a
    /// deterministic [`PipelineError::Rejected`]. `None` leaves admission
    /// unbounded.
    pub max_pending: Option<usize>,
    /// Compact the consensus log into a snapshot every this many
    /// committed batches (wired to the cluster's commit watermark via
    /// `compact_before`). Followers that fall behind the horizon catch up
    /// by snapshot install. `None` never compacts.
    pub snapshot_interval: Option<u64>,
    /// Directory for per-node durable WALs (`node0/`, `node1/`, …). When
    /// set, every consensus node persists its hard state, log, and
    /// snapshots there and recovers from it on reboot; `None` keeps the
    /// log in memory (hermetic tests).
    pub wal_dir: Option<PathBuf>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            consensus_nodes: 3,
            net: NetConfig::default(),
            timing: RaftTiming::default(),
            batch_window: Duration::from_millis(10),
            batch_cap: 128,
            scheduler: prognosticator_core::baselines::mq_mf(4),
            seed: 0x5EED,
            consensus_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            max_pending: None,
            snapshot_interval: None,
            wal_dir: None,
        }
    }
}

/// Errors surfaced by the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Consensus did not elect a leader in time.
    NoLeader,
    /// A batch failed to commit within the timeout.
    BatchTimedOut,
    /// A batch exhausted its retry budget and was moved to the poison
    /// quarantine; the pipeline itself remains usable.
    BatchQuarantined {
        /// How many proposal attempts were made before giving up.
        attempts: usize,
    },
    /// A replica fell behind and did not catch up within the timeout.
    ReplicaLagged {
        /// Which replica.
        replica: usize,
    },
    /// The submission was refused by bounded admission
    /// ([`PipelineConfig::max_pending`]); the client may retry once the
    /// queue drains. Deterministic: the same queue state yields the same
    /// rejection.
    Rejected {
        /// Why admission refused the transaction.
        reason: String,
        /// Queue depth observed at rejection time (transactions pending).
        depth: usize,
        /// Effective admission cap in force — shrunk below
        /// [`PipelineConfig::max_pending`] while the fleet is degraded —
        /// so clients can back off proportionally to `depth`/`cap`.
        cap: usize,
    },
    /// The durable WAL could not be opened or recovered.
    WalFailed {
        /// The underlying storage error.
        detail: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NoLeader => write!(f, "consensus did not elect a leader in time"),
            PipelineError::BatchTimedOut => write!(f, "batch did not commit within the timeout"),
            PipelineError::BatchQuarantined { attempts } => {
                write!(f, "batch quarantined after {attempts} failed proposal attempts")
            }
            PipelineError::ReplicaLagged { replica } => {
                write!(f, "replica {replica} did not catch up in time")
            }
            PipelineError::Rejected { reason, .. } => {
                write!(f, "submission rejected: {reason}")
            }
            PipelineError::WalFailed { detail } => {
                write!(f, "durable WAL failed: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

struct ReplicaSlot {
    replica: Replica,
    /// Committed-log entries already applied.
    consumed: usize,
    /// Of those, entries that were *live* (proposal id not voided) — the
    /// replica's position in the filtered stream the outcome journal is
    /// indexed by.
    live_consumed: usize,
    /// Consensus node whose log this replica follows.
    node: usize,
}

/// One entry per batch the pipeline finished deciding, in decision order:
/// the positional journal the client session layer
/// ([`crate::client::ClientSession`]) walks to map accepted transactions
/// to terminal outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchEvent {
    /// The batch committed through consensus. Its per-transaction outcome
    /// vector lands at the matching index of
    /// [`Pipeline::outcome_journal`] on the next sync.
    Committed {
        /// Transactions in the batch.
        len: usize,
    },
    /// The batch exhausted its retry budget and went to quarantine; its
    /// proposal id was voided, so it can never execute — even if a
    /// deposed leader's log later commits the entry.
    Quarantined {
        /// Transactions in the batch.
        len: usize,
    },
}

/// The assembled deterministic database.
pub struct Pipeline {
    catalog: Arc<Catalog>,
    config: PipelineConfig,
    populate: Arc<dyn Fn(&EpochStore) + Send + Sync>,
    /// Every node's log, WAL store and committed view share one
    /// allocation per batch.
    cluster: RaftCluster<Arc<LogRecord>>,
    replicas: Vec<ReplicaSlot>,
    batcher: Batcher<TxRequest>,
    /// Batches committed through consensus — the sync target.
    proposed_batches: usize,
    /// Poison batches that exhausted their retry budget.
    quarantine: Quarantine<Vec<TxRequest>>,
    /// Proposal ids voided at quarantine time. A quarantined entry may
    /// still sit in a deposed leader's log and legitimately commit after
    /// the partition heals (Raft never un-appends); replicas must skip it
    /// regardless, so every committed-log consumer filters these ids.
    voided_ids: HashSet<u64>,
    /// Total proposal retries (attempts beyond the first) so far.
    consensus_retries: usize,
    /// Deterministic fault plan: installed on every replica, and consulted
    /// for consensus-level disruptions before each proposal.
    fault_plan: Option<FaultPlan>,
    /// Per-stage timers accumulated across every batch applied by every
    /// replica during [`Pipeline::sync`].
    stage_totals: StageTimings,
    /// Cumulative microseconds spent replaying committed batches in
    /// [`Pipeline::restart_replica`] recoveries.
    recovery_replay_us: u64,
    /// Number of replica recoveries performed.
    recoveries: usize,
    /// One event per decided batch, in decision order (see [`BatchEvent`]).
    batch_events: Vec<BatchEvent>,
    /// Per-transaction outcome vectors, indexed by *live committed batch*
    /// (the voided-id-filtered stream). Filled by the first replica to
    /// apply each batch during [`Pipeline::sync`]; determinism makes
    /// every other replica's vector byte-identical (asserted).
    outcome_journal: Vec<Vec<TxOutcome>>,
    /// Per-replica health driving graceful degradation.
    health: HealthMonitor,
    /// Requests refused to protect the system: bounded-admission
    /// rejections plus health-based load shedding.
    shed_requests: u64,
    /// Batches proposed while the fleet aggregate was not `Healthy`.
    degraded_batches: u64,
}

/// A consensus disruption currently applied to the simulated network.
enum ActiveDisruption {
    Isolated(usize),
    Partitioned(usize, usize),
}

impl Pipeline {
    /// Boots consensus and `replica_count` replicas, each populated by
    /// `populate` (the epoch-0 state all replicas must share).
    ///
    /// # Errors
    /// [`PipelineError::NoLeader`] if the cluster cannot elect in time.
    pub fn new(
        catalog: Arc<Catalog>,
        config: PipelineConfig,
        replica_count: usize,
        populate: Arc<dyn Fn(&EpochStore) + Send + Sync>,
    ) -> Result<Self, PipelineError> {
        let cluster = match &config.wal_dir {
            None => RaftCluster::new(
                config.consensus_nodes,
                config.net.clone(),
                config.timing.clone(),
                config.seed,
            ),
            Some(dir) => {
                // One durable WAL per consensus node; reopening the same
                // directory recovers hard state, log, and snapshot.
                let mut stores: Vec<Box<dyn LogStore<Arc<LogRecord>>>> = Vec::new();
                for node in 0..config.consensus_nodes {
                    let store = WalStore::open(dir.join(format!("node{node}")), LogRecordCodec)
                        .map_err(|e| PipelineError::WalFailed { detail: e.to_string() })?;
                    stores.push(Box::new(store));
                }
                RaftCluster::with_log_stores(
                    config.consensus_nodes,
                    config.net.clone(),
                    config.timing.clone(),
                    config.seed,
                    Vec::new(),
                    stores,
                )
            }
        };
        cluster
            .wait_for_leader(config.consensus_timeout)
            .ok_or(PipelineError::NoLeader)?;
        let batcher = match config.max_pending {
            Some(cap) => Batcher::with_queue_cap(config.batch_window, config.batch_cap, cap),
            None => Batcher::new(config.batch_window, config.batch_cap),
        };
        let mut pipeline = Pipeline {
            catalog,
            config,
            populate,
            cluster,
            replicas: Vec::new(),
            batcher,
            proposed_batches: 0,
            quarantine: Quarantine::new(),
            voided_ids: HashSet::new(),
            consensus_retries: 0,
            fault_plan: None,
            stage_totals: StageTimings::default(),
            recovery_replay_us: 0,
            recoveries: 0,
            batch_events: Vec::new(),
            outcome_journal: Vec::new(),
            health: HealthMonitor::new(0),
            shed_requests: 0,
            degraded_batches: 0,
        };
        for _ in 0..replica_count {
            pipeline.add_replica();
        }
        Ok(pipeline)
    }

    fn scheduler_config(&self) -> SchedulerConfig {
        let mut scheduler = self.config.scheduler.clone();
        if scheduler.gc_keep_epochs.is_none() {
            // The GC window must retain the preparation snapshots.
            let keep = DEFAULT_GC_KEEP_EPOCHS.max(scheduler.prepare_staleness + 1);
            scheduler.gc_keep_epochs = Some(keep);
        }
        scheduler
    }

    fn fresh_replica(&self) -> Replica {
        let store = Arc::new(EpochStore::new());
        (self.populate)(&store);
        Replica::with_store(self.scheduler_config(), Arc::clone(&self.catalog), store)
    }

    /// Adds (and returns the index of) a new replica, which recovers by
    /// replaying the whole committed log on the next [`Pipeline::sync`].
    pub fn add_replica(&mut self) -> usize {
        let node = self.replicas.len() % self.cluster.len();
        let mut replica = self.fresh_replica();
        replica.set_fault_plan(self.fault_plan.clone());
        self.replicas.push(ReplicaSlot { replica, consumed: 0, live_consumed: 0, node });
        self.health.add_replica();
        self.publish_health_gauges();
        self.replicas.len() - 1
    }

    /// Exports every replica's health state as an obs gauge
    /// (`pipeline.replica<i>.health`; 0 = healthy, 1 = recovering,
    /// 2 = degraded).
    fn publish_health_gauges(&self) {
        let reg = prognosticator_obs::Registry::global();
        for (i, state) in self.health.states().iter().enumerate() {
            reg.gauge(&format!("pipeline.replica{i}.health")).set(state.as_gauge());
        }
    }

    /// Installs (or clears) a deterministic fault plan across the whole
    /// pipeline: every replica's engine (worker panics, storage spikes)
    /// and the proposal path (consensus-level disruptions). Replicas keep
    /// agreeing on digests because fault verdicts are deterministic.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        for slot in &mut self.replicas {
            slot.replica.set_fault_plan(plan.clone());
        }
        self.fault_plan = plan;
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Batches committed through consensus so far.
    pub fn committed_batches(&self) -> usize {
        self.proposed_batches
    }

    /// Submits one transaction; when the batch window/cap cuts a batch, it
    /// is proposed to consensus (blocking until committed).
    ///
    /// # Errors
    /// * [`PipelineError::Rejected`] when bounded admission
    ///   ([`PipelineConfig::max_pending`]) refuses the transaction — the
    ///   request is handed back untouched and may be retried after the
    ///   queue drains.
    /// * [`PipelineError::BatchTimedOut`] if consensus cannot commit.
    pub fn submit(&mut self, req: TxRequest) -> Result<(), PipelineError> {
        // Graceful degradation: while any replica is degraded or on
        // recovery probation, shrink the effective admission capacity so
        // the backlog cannot outgrow a weakened fleet. Deterministic: the
        // same queue depth and health state always shed identically.
        if let Some(cap) = self.config.max_pending {
            let state = self.health.aggregate();
            let effective = match state {
                HealthState::Healthy => cap,
                HealthState::Recovering => (cap * 3 / 4).max(1),
                HealthState::Degraded => (cap / 2).max(1),
            };
            if effective < cap && self.batcher.queued() >= effective {
                self.shed_requests += 1;
                prognosticator_obs::Registry::global().counter("pipeline.shed_requests").inc();
                return Err(PipelineError::Rejected {
                    reason: format!(
                        "load shed ({}): {} of {effective} reduced admission slots pending (cap {cap})",
                        state.name(),
                        self.batcher.queued()
                    ),
                    depth: self.batcher.queued(),
                    cap: effective,
                });
            }
        }
        match self.batcher.try_push(req) {
            Admission::Rejected { reason, depth, cap, .. } => {
                self.shed_requests += 1;
                prognosticator_obs::Registry::global().counter("pipeline.shed_requests").inc();
                return Err(PipelineError::Rejected { reason, depth, cap });
            }
            Admission::Accepted => {}
        }
        while let Some(batch) = self.batcher.take_ready() {
            self.propose(batch)?;
        }
        if let Some(batch) = self.batcher.poll() {
            self.propose(batch)?;
        }
        Ok(())
    }

    /// Transactions currently queued client-side (buffered plus cut but
    /// not yet proposed).
    pub fn pending(&self) -> usize {
        self.batcher.queued()
    }

    /// Flushes any buffered transactions as a final batch.
    ///
    /// # Errors
    /// [`PipelineError::BatchTimedOut`] if consensus cannot commit.
    pub fn flush(&mut self) -> Result<(), PipelineError> {
        if let Some(batch) = self.batcher.flush() {
            self.propose(batch)?;
        }
        Ok(())
    }

    /// Applies this batch's consensus disruption (if the fault plan calls
    /// for one) to the simulated network, returning a handle to heal it.
    fn apply_consensus_fault(&self) -> Option<ActiveDisruption> {
        let fault = self
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.consensus_fault(self.proposed_batches as u64))?;
        let n = self.cluster.len();
        match fault {
            ConsensusFault::IsolateLeader { heal_ms: _ } => {
                let leader = self.cluster.leader()?;
                self.cluster.net().isolate(leader);
                Some(ActiveDisruption::Isolated(leader))
            }
            ConsensusFault::PartitionLink { a, b } => {
                let (a, b) = (a % n, b % n);
                if a == b {
                    return None;
                }
                self.cluster.net().partition(a, b);
                Some(ActiveDisruption::Partitioned(a, b))
            }
        }
    }

    fn heal(&self, disruption: &mut Option<ActiveDisruption>) {
        match disruption.take() {
            Some(ActiveDisruption::Isolated(node)) => self.cluster.net().reconnect(node),
            Some(ActiveDisruption::Partitioned(a, b)) => self.cluster.net().heal(a, b),
            None => {}
        }
    }

    fn propose(&mut self, batch: Vec<TxRequest>) -> Result<(), PipelineError> {
        let len = batch.len();
        if self.health.aggregate() != HealthState::Healthy {
            self.degraded_batches += 1;
            prognosticator_obs::Registry::global().counter("pipeline.degraded_batches").inc();
        }
        let record = Arc::new(LogRecord::Batch(batch));
        // Inject this batch's consensus disruption, if any. A majority is
        // always left intact, so the cluster can still make progress; the
        // disruption is healed before the first retry (transient fault).
        let mut disruption = self.apply_consensus_fault();
        // One id for every attempt: leader-side dedup makes the retries
        // idempotent, so an impatient client can never double-commit.
        let id = self.cluster.begin_proposal();
        let mut attempts = 0;
        let committed = loop {
            attempts += 1;
            if self.cluster.propose_id_until_committed(
                id,
                &record,
                self.config.consensus_timeout,
            ) {
                break true;
            }
            if attempts >= self.config.retry.max_attempts {
                break false;
            }
            self.consensus_retries += 1;
            self.heal(&mut disruption);
            std::thread::sleep(self.config.retry.backoff(attempts));
        };
        self.heal(&mut disruption);
        if !committed {
            // Even a "poison" batch may have been committed by a slow
            // quorum after the last timeout — check once more before
            // declaring it lost, since a quarantined-but-committed batch
            // would desynchronize `proposed_batches` from the log.
            if self.cluster.proposal_committed(id) {
                self.proposed_batches += 1;
                self.batch_events.push(BatchEvent::Committed { len });
                self.maybe_compact();
                return Ok(());
            }
            // Void the id first: if a slow quorum commits this entry
            // after the heal, every consumer skips it, so quarantine +
            // resubmission stays exactly-once.
            self.voided_ids.insert(id);
            let LogRecord::Batch(batch) = Arc::unwrap_or_clone(record);
            self.quarantine.admit(
                batch,
                attempts,
                format!("proposal did not commit after {attempts} attempts"),
            );
            self.batch_events.push(BatchEvent::Quarantined { len });
            return Err(PipelineError::BatchQuarantined { attempts });
        }
        self.proposed_batches += 1;
        self.batch_events.push(BatchEvent::Committed { len });
        self.maybe_compact();
        Ok(())
    }

    /// Every [`PipelineConfig::snapshot_interval`] committed batches,
    /// snapshots the cluster's committed prefix and compacts the durable
    /// log behind the commit watermark (each node clamps the request to
    /// its own commit index, so nothing uncommitted is ever dropped).
    fn maybe_compact(&self) {
        if let Some(interval) = self.config.snapshot_interval {
            if interval > 0 && (self.proposed_batches as u64).is_multiple_of(interval) {
                self.cluster.compact_before(self.cluster.max_commit_index());
            }
        }
    }

    /// Durability counters aggregated across the consensus cluster's log
    /// stores (fsyncs, appends, snapshot writes/installs, torn bytes
    /// dropped at recovery).
    pub fn durability(&self) -> DurabilityReport {
        self.cluster.durability_stats()
    }

    /// Cumulative microseconds [`Pipeline::restart_replica`] recoveries
    /// spent replaying committed batches.
    pub fn recovery_replay_us(&self) -> u64 {
        self.recovery_replay_us
    }

    /// Number of replica recoveries performed so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// Crash-restarts replica `idx`: tears down its engine, then rebuilds
    /// it deterministically by replaying the committed batches it had
    /// applied, asserting the recovered digest equals the pre-crash
    /// digest (recovery soundness). Runs under the replay variant of the
    /// installed fault plan, so no faults are re-injected but every
    /// originally injected abort is reproduced.
    ///
    /// # Panics
    /// Panics if `idx` is out of range, or if the recovered digest
    /// diverges from the pre-crash digest — a recovery-soundness bug.
    pub fn restart_replica(&mut self, idx: usize) -> RecoveryReport {
        let (node, consumed) = (self.replicas[idx].node, self.replicas[idx].consumed);
        let expected = self.replicas[idx].replica.state_digest();
        self.replicas[idx].replica.shutdown();
        let committed = self.live_batches(self.cluster.committed(node).iter().take(consumed));
        let store = Arc::new(EpochStore::new());
        (self.populate)(&store);
        let (replica, report) = Replica::recover(
            self.scheduler_config(),
            Arc::clone(&self.catalog),
            store,
            committed,
            self.fault_plan.as_ref(),
            Some(expected),
        );
        self.recovery_replay_us += report.replay_us;
        self.recoveries += 1;
        self.replicas[idx].replica = replica;
        self.health.on_restart(idx);
        self.publish_health_gauges();
        report
    }

    /// Waits until `node` has committed at least `count` live entries —
    /// entries whose proposal id was not voided at quarantine time. When
    /// nothing has ever been voided this is the cluster's cheap length
    /// check; otherwise live entries are counted from a cursor, because a
    /// voided entry resurfacing from a deposed leader's log must not
    /// satisfy the wait in place of a real batch.
    fn wait_for_live_committed(&self, node: usize, count: usize, timeout: Duration) -> bool {
        if self.voided_ids.is_empty() {
            return self.cluster.wait_for_committed(node, count, timeout);
        }
        let (mut cursor, mut live) = (0, 0);
        self.cluster.wait_until(timeout, || {
            let suffix = self.cluster.committed_from(node, cursor);
            cursor += suffix.len();
            live += suffix.iter().filter(|entry| !self.voided_ids.contains(&entry.id)).count();
            live >= count
        })
    }

    /// Poison batches that exhausted their retries, oldest first.
    pub fn quarantined(&self) -> &[Quarantined<Vec<TxRequest>>] {
        self.quarantine.entries()
    }

    /// Removes and returns every quarantined batch (e.g. to resubmit its
    /// transactions once the fault is fixed).
    pub fn drain_quarantine(&mut self) -> Vec<Quarantined<Vec<TxRequest>>> {
        self.quarantine.drain()
    }

    /// Total proposal retries (attempts beyond each proposal's first).
    pub fn consensus_retries(&self) -> usize {
        self.consensus_retries
    }

    /// The batch decision journal, in decision order — one event per
    /// batch that was either committed or quarantined.
    pub fn batch_events(&self) -> &[BatchEvent] {
        &self.batch_events
    }

    /// Per-transaction outcome vectors of every live committed batch
    /// applied so far (indexed like the `Committed` entries of
    /// [`Pipeline::batch_events`]). Populated during [`Pipeline::sync`].
    pub fn outcome_journal(&self) -> &[Vec<TxOutcome>] {
        &self.outcome_journal
    }

    /// The per-replica health monitor.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Requests refused to protect the system so far — bounded-admission
    /// rejections plus health-based load shedding.
    pub fn shed_requests(&self) -> u64 {
        self.shed_requests
    }

    /// Batches proposed while the fleet aggregate was not `Healthy`.
    pub fn degraded_batches(&self) -> u64 {
        self.degraded_batches
    }

    /// Per-stage timers summed across every batch applied by every
    /// replica so far (predict/queue/execute/commit/apply, prepare-ahead
    /// overlap, and fresh lock-queue allocations).
    pub fn stage_totals(&self) -> &StageTimings {
        &self.stage_totals
    }

    /// Applies every newly committed batch to every replica (waiting for
    /// each replica's consensus node to have caught up), and verifies the
    /// replicas agree.
    ///
    /// # Errors
    /// [`PipelineError::ReplicaLagged`] when a node does not deliver in
    /// time.
    ///
    /// # Panics
    /// Panics if replicas diverge — that would be a determinism bug, which
    /// must never be silently ignored.
    pub fn sync(&mut self) -> Result<(), PipelineError> {
        let target = self.proposed_batches;
        for idx in 0..self.replicas.len() {
            let (node, consumed) = (self.replicas[idx].node, self.replicas[idx].consumed);
            if !self.wait_for_live_committed(node, target, self.config.consensus_timeout) {
                self.health.on_lag(idx);
                self.publish_health_gauges();
                return Err(PipelineError::ReplicaLagged { replica: idx });
            }
            let suffix = self.cluster.committed_from(node, consumed);
            let new_batches = self.live_batches(suffix.iter());
            self.replicas[idx].consumed += suffix.len();
            if new_batches.is_empty() {
                continue;
            }
            // Apply the run with prepare-ahead: the queuer classifies
            // batch N+1 while batch N's workers run.
            let outcomes = self.replicas[idx].replica.execute_stream(new_batches, 1);
            let first_live = self.replicas[idx].live_consumed;
            for (k, outcome) in outcomes.iter().enumerate() {
                // First replica to apply a live batch records its outcome
                // vector; every later replica must reproduce it exactly
                // (per-transaction determinism, stronger than the digest
                // check below).
                if first_live + k == self.outcome_journal.len() {
                    self.outcome_journal.push(outcome.outcomes.clone());
                } else {
                    assert_eq!(
                        self.outcome_journal[first_live + k],
                        outcome.outcomes,
                        "replica {idx} diverged on batch {} outcomes",
                        first_live + k
                    );
                }
                self.stage_totals.accumulate(&outcome.stage);
            }
            self.replicas[idx].live_consumed += outcomes.len();
        }
        let digests = self.digests();
        if !digests.windows(2).all(|w| w[0] == w[1]) {
            // Determinism bug: record the divergence on every replica's
            // flight recorder and dump all rings before aborting.
            let batch = self.proposed_batches as u64;
            for (idx, slot) in self.replicas.iter().enumerate() {
                if let Some(rec) = slot.replica.recorder() {
                    let (expected, actual) = (digests[0], digests[idx]);
                    rec.record(|| prognosticator_obs::Event::DigestMismatch {
                        batch,
                        expected,
                        actual,
                    });
                }
            }
            prognosticator_obs::dump_all("replica-divergence");
            panic!("replica divergence detected: {digests:?}");
        }
        for idx in 0..self.replicas.len() {
            self.health.on_clean_sync(idx);
        }
        self.publish_health_gauges();
        Ok(())
    }

    /// Per-replica state digests (identical after a successful
    /// [`Pipeline::sync`]).
    pub fn digests(&self) -> Vec<u64> {
        self.replicas.iter().map(|s| s.replica.state_digest()).collect()
    }

    /// Access to a replica's store (e.g. for queries in examples/tests).
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn store(&self, idx: usize) -> &Arc<EpochStore> {
        self.replicas[idx].replica.store()
    }

    /// The consensus cluster (fault injection in tests).
    pub fn cluster(&self) -> &RaftCluster<Arc<LogRecord>> {
        &self.cluster
    }

    /// The live committed batch stream as observed by `node`: committed
    /// batch payloads with quarantine-voided proposal ids filtered out.
    /// This is exactly what replicas execute, so replaying it through a
    /// fresh replica at any worker count reproduces the fleet's digests
    /// byte-identically.
    pub fn live_committed(&self, node: usize) -> Vec<Vec<TxRequest>> {
        self.live_batches(self.cluster.committed(node).iter())
    }

    /// The batches of `entries` whose proposal id was not voided.
    fn live_batches<'a>(
        &self,
        entries: impl Iterator<Item = &'a LogEntry<Arc<LogRecord>>>,
    ) -> Vec<Vec<TxRequest>> {
        entries
            .filter(|entry| !self.voided_ids.contains(&entry.id))
            .map(|entry| {
                let LogRecord::Batch(batch) = &*entry.payload;
                batch.clone()
            })
            .collect()
    }

    /// Proposal ids voided at quarantine time (skipped by every
    /// committed-log consumer).
    pub fn voided_ids(&self) -> &HashSet<u64> {
        &self.voided_ids
    }

    /// Stops every replica's worker pool.
    pub fn shutdown(&mut self) {
        for slot in &mut self.replicas {
            slot.replica.shutdown();
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosticator_txir::{Expr, InputBound, Key, ProgramBuilder, TableId, Value};

    fn counter_catalog() -> (Arc<Catalog>, prognosticator_core::ProgId) {
        let mut b = ProgramBuilder::new("bump");
        let t = b.table("counters");
        let id = b.input("id", InputBound::int(0, 15));
        let v = b.var("v");
        b.get(v, Expr::key(t, vec![Expr::input(id)]));
        b.put(Expr::key(t, vec![Expr::input(id)]), Expr::var(v).add(Expr::lit(1)));
        let mut catalog = Catalog::new();
        let bump = catalog.register(b.build()).expect("registers");
        (Arc::new(catalog), bump)
    }

    fn populate() -> Arc<dyn Fn(&EpochStore) + Send + Sync> {
        Arc::new(|store: &EpochStore| {
            store.populate((0..16).map(|i| (Key::of_ints(TableId(0), &[i]), Value::Int(0))));
        })
    }

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            batch_cap: 8,
            scheduler: prognosticator_core::baselines::mq_mf(2),
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn submits_flow_to_all_replicas() {
        let (catalog, bump) = counter_catalog();
        let mut p =
            Pipeline::new(catalog, small_config(), 2, populate()).expect("boots");
        for i in 0..24 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i % 16)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        assert_eq!(p.committed_batches(), 3);
        let d = p.digests();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], d[1]);
        // Counter 0 was bumped twice (i = 0 and 16).
        assert_eq!(
            p.store(0).get_latest(&Key::of_ints(TableId(0), &[0])),
            Some(Value::Int(2))
        );
        p.shutdown();
    }

    #[test]
    fn late_replica_recovers_by_replay() {
        let (catalog, bump) = counter_catalog();
        let mut p =
            Pipeline::new(catalog, small_config(), 1, populate()).expect("boots");
        for i in 0..16 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        let before = p.digests()[0];

        // A brand-new replica joins and replays the committed history.
        let idx = p.add_replica();
        assert_eq!(idx, 1);
        p.sync().expect("recovery sync");
        let d = p.digests();
        assert_eq!(d[0], before, "existing replica unchanged");
        assert_eq!(d[0], d[1], "recovered replica converges");
        p.shutdown();
    }

    #[test]
    fn consensus_fault_plan_retries_and_stays_consistent() {
        let (catalog, bump) = counter_catalog();
        let mut p =
            Pipeline::new(catalog, small_config(), 2, populate()).expect("boots");
        // Every batch takes a consensus-level disruption (leader isolated
        // or a link cut); bounded retry must ride through all of them.
        p.set_fault_plan(Some(FaultPlan::quiet(5).with_consensus_faults(1000)));
        for i in 0..24 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i % 16)]))
                .expect("submits despite disruptions");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        assert_eq!(p.committed_batches(), 3);
        assert!(p.quarantined().is_empty(), "no batch was lost");
        let d = p.digests();
        assert_eq!(d[0], d[1], "replicas agree under consensus faults");
        p.shutdown();
    }

    #[test]
    fn unreachable_quorum_quarantines_poison_batch() {
        let (catalog, bump) = counter_catalog();
        let config = PipelineConfig {
            consensus_timeout: Duration::from_millis(150),
            retry: RetryPolicy {
                max_attempts: 2,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
            },
            ..small_config()
        };
        let mut p = Pipeline::new(catalog, config, 1, populate()).expect("boots");
        // Cut every link: no quorum can form, so nothing can commit.
        let n = p.cluster().len();
        for a in 0..n {
            for b in (a + 1)..n {
                p.cluster().net().partition(a, b);
            }
        }
        let err = (0..8)
            .map(|i| p.submit(TxRequest::new(bump, vec![Value::Int(i)])))
            .find_map(Result::err);
        assert_eq!(err, Some(PipelineError::BatchQuarantined { attempts: 2 }));
        assert_eq!(p.consensus_retries(), 1, "one retry before quarantining");
        assert_eq!(p.committed_batches(), 0);
        assert_eq!(p.quarantined().len(), 1);
        assert_eq!(p.quarantined()[0].payload.len(), 8, "poison batch preserved");
        // Draining hands the poison batch back for later resubmission.
        let drained = p.drain_quarantine();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].attempts, 2);
        assert!(p.quarantined().is_empty());
        p.shutdown();
    }

    #[test]
    fn drain_quarantine_is_idempotent_and_poison_never_reaches_replicas() {
        let (catalog, bump) = counter_catalog();
        let config = PipelineConfig {
            consensus_timeout: Duration::from_millis(600),
            // Only the size cap cuts batches: retries make wall-clock time
            // pass, and a window-based cut would split phase 2's batch.
            batch_window: Duration::from_secs(60),
            retry: RetryPolicy {
                max_attempts: 2,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
            },
            ..small_config()
        };
        let mut p = Pipeline::new(catalog, config, 2, populate()).expect("boots");

        // Phase 1: no quorum — the first full batch (counters 0..8) must
        // exhaust its retries and land in quarantine.
        let n = p.cluster().len();
        for a in 0..n {
            for b in (a + 1)..n {
                p.cluster().net().partition(a, b);
            }
        }
        let err = (0..8)
            .map(|i| p.submit(TxRequest::new(bump, vec![Value::Int(i)])))
            .find_map(Result::err);
        assert_eq!(err, Some(PipelineError::BatchQuarantined { attempts: 2 }));

        // Draining is idempotent: the poison batch comes out exactly once,
        // and every further drain is empty and side-effect free.
        let drained = p.drain_quarantine();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].payload.len(), 8);
        assert!(p.drain_quarantine().is_empty(), "second drain must be empty");
        assert!(p.drain_quarantine().is_empty(), "drain stays empty");
        assert!(p.quarantined().is_empty());

        // Phase 2: heal the network and commit a fresh batch (counters
        // 8..16). The quarantined batch must not ride along.
        for a in 0..n {
            for b in (a + 1)..n {
                p.cluster().net().heal(a, b);
            }
        }
        p.cluster()
            .wait_for_leader(Duration::from_secs(10))
            .expect("re-elects after heal");
        for i in 8..16 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i)]))
                .expect("submits after heal");
        }
        p.sync().expect("syncs");
        assert_eq!(p.committed_batches(), 1, "only the fresh batch committed");

        // The poison batch's effects are absent from every replica: its
        // counters are untouched while the fresh batch's were bumped.
        for replica in 0..p.replica_count() {
            for i in 0..8 {
                assert_eq!(
                    p.store(replica).get_latest(&Key::of_ints(TableId(0), &[i])),
                    Some(Value::Int(0)),
                    "replica {replica}: quarantined tx {i} must never execute"
                );
            }
            for i in 8..16 {
                assert_eq!(
                    p.store(replica).get_latest(&Key::of_ints(TableId(0), &[i])),
                    Some(Value::Int(1)),
                    "replica {replica}: committed tx {i} executes once"
                );
            }
        }
        let d = p.digests();
        assert_eq!(d[0], d[1], "replicas agree after the poison batch is dropped");
        p.shutdown();
    }

    #[test]
    fn gc_keeps_version_count_bounded_over_many_batches() {
        let (catalog, bump) = counter_catalog();
        let mut config = small_config();
        config.scheduler.gc_keep_epochs = Some(4);
        let mut p = Pipeline::new(catalog, config, 1, populate()).expect("boots");
        let mut peak = 0usize;
        // 40 batches of 8 bumps over 16 keys: without GC each batch adds
        // new versions forever (~16 + 8·batches). With a 4-epoch window
        // the chain length per key is bounded by the window.
        for round in 0..40 {
            for i in 0..8 {
                p.submit(TxRequest::new(bump, vec![Value::Int((round * 8 + i) % 16)]))
                    .expect("submits");
            }
            p.flush().expect("flushes");
            p.sync().expect("syncs");
            peak = peak.max(p.store(0).version_count());
        }
        // The 10ms batch window may cut extra partial batches between
        // rounds; only a lower bound is deterministic.
        assert!(p.committed_batches() >= 40);
        // 16 keys × (1 latest + ≤4 kept epochs of history) is a generous
        // bound; the unbounded path would exceed 300 versions by round 40.
        assert!(peak <= 16 * 5, "version count unbounded: peak {peak}");
        // The latest state is intact: every counter was bumped 20 times.
        for i in 0..16 {
            assert_eq!(
                p.store(0).get_latest(&Key::of_ints(TableId(0), &[i])),
                Some(Value::Int(20))
            );
        }
        p.shutdown();
    }

    #[test]
    fn bounded_admission_rejects_deterministically_and_recovers() {
        let (catalog, bump) = counter_catalog();
        let config = PipelineConfig {
            // Only flush cuts batches: the window never elapses and the
            // size cap is above the admission cap.
            batch_window: Duration::from_secs(60),
            batch_cap: 64,
            max_pending: Some(8),
            ..small_config()
        };
        let mut p = Pipeline::new(catalog, config, 1, populate()).expect("boots");
        for i in 0..8 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i % 16)])).expect("fits under cap");
        }
        assert_eq!(p.pending(), 8);
        // The 9th submission is refused, with a stable client-visible
        // reason, and handed back without side effects.
        let err = p.submit(TxRequest::new(bump, vec![Value::Int(0)])).unwrap_err();
        assert_eq!(
            err,
            PipelineError::Rejected {
                reason: "admission queue full: 8 of 8 transactions pending".into(),
                depth: 8,
                cap: 8,
            }
        );
        // Deterministic: the same queue state rejects identically.
        let again = p.submit(TxRequest::new(bump, vec![Value::Int(0)])).unwrap_err();
        assert_eq!(err, again);
        // Draining the queue (flush + commit) restores admission.
        p.flush().expect("flushes");
        assert_eq!(p.pending(), 0);
        p.submit(TxRequest::new(bump, vec![Value::Int(0)])).expect("re-admits after drain");
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        assert_eq!(p.committed_batches(), 2);
        p.shutdown();
    }

    #[test]
    fn snapshot_interval_compacts_consensus_log() {
        let (catalog, bump) = counter_catalog();
        let config = PipelineConfig { snapshot_interval: Some(2), ..small_config() };
        let mut p = Pipeline::new(catalog, config, 1, populate()).expect("boots");
        for i in 0..48 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i % 16)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        assert!(p.committed_batches() >= 6);
        // Compaction is asynchronous (the node thread performs it); wait
        // for the watermark to take effect.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while p.durability().store.snapshots_written == 0 {
            assert!(std::time::Instant::now() < deadline, "log never compacted");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The committed view (what replicas replay) is still complete.
        assert_eq!(p.cluster().committed(0).len(), p.committed_batches());
        p.shutdown();
    }

    #[test]
    fn restart_replica_recovers_to_identical_digest() {
        let (catalog, bump) = counter_catalog();
        let mut p = Pipeline::new(catalog, small_config(), 2, populate()).expect("boots");
        // A fault plan with worker panics: recovery replay must reproduce
        // the aborts without re-injecting the panics.
        p.set_fault_plan(Some(FaultPlan::quiet(41).with_worker_panics(120)));
        for i in 0..48 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i % 16)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        let before = p.digests();
        assert_eq!(before[0], before[1]);

        // Crash-restart replica 0: rebuilt purely from the committed log.
        let report = p.restart_replica(0);
        assert!(report.batches_replayed >= 6);
        assert_eq!(report.digest, before[0], "recovered digest matches pre-crash");
        assert_eq!(p.recoveries(), 1);
        assert!(p.recovery_replay_us() > 0);

        // The recovered replica keeps pace with new traffic.
        for i in 0..16 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs after recovery");
        let after = p.digests();
        assert_eq!(after[0], after[1], "recovered replica stays convergent");
        assert_ne!(after[0], before[0], "new traffic actually landed");
        p.shutdown();
    }

    #[test]
    fn wal_backed_pipeline_persists_and_counts_fsyncs() {
        let (catalog, bump) = counter_catalog();
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/tmp/pipeline-wal")
            .join(format!("fsync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PipelineConfig { wal_dir: Some(dir.clone()), ..small_config() };
        let mut p = Pipeline::new(catalog, config, 1, populate()).expect("boots");
        for i in 0..16 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        let d = p.durability();
        assert!(d.store.wal_fsyncs > 0, "durable pipeline must fsync");
        assert!(d.store.wal_appends > 0);
        assert!(dir.join("node0").join("wal.log").exists(), "WAL file on disk");
        p.shutdown();
    }

    #[test]
    fn every_node_shares_one_payload_allocation_per_batch() {
        let (catalog, bump) = counter_catalog();
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/tmp/pipeline-wal")
            .join(format!("shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PipelineConfig { wal_dir: Some(dir), ..small_config() };
        // Three replicas: one reads from each consensus node.
        let mut p = Pipeline::new(catalog, config, 3, populate()).expect("boots");
        for i in 0..32 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i % 16)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        let logs: Vec<_> = (0..3).map(|node| p.cluster().committed(node)).collect();
        assert_eq!(logs[0].len(), p.committed_batches());
        for log in &logs[1..] {
            assert_eq!(log.len(), logs[0].len());
            for (a, b) in logs[0].iter().zip(log) {
                assert!(Arc::ptr_eq(&a.payload, &b.payload), "entry {} copied", a.id);
            }
        }
        // `sync` asserted the replicas' outcome journals agree.
        assert_eq!(p.outcome_journal().len(), p.committed_batches());
        let d = p.digests();
        assert!(d.windows(2).all(|w| w[0] == w[1]), "replica digests {d:?}");
        p.shutdown();
    }

    #[test]
    fn survives_message_loss() {
        let (catalog, bump) = counter_catalog();
        let config = PipelineConfig {
            net: NetConfig { drop_prob: 0.1, ..NetConfig::default() },
            ..small_config()
        };
        let mut p = Pipeline::new(catalog, config, 2, populate()).expect("boots");
        for i in 0..16 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs despite loss");
        let d = p.digests();
        assert_eq!(d[0], d[1]);
        p.shutdown();
    }

    #[test]
    fn batch_events_and_outcome_journal_align_with_committed_batches() {
        let (catalog, bump) = counter_catalog();
        let mut p = Pipeline::new(catalog, small_config(), 2, populate()).expect("boots");
        for i in 0..24 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i % 16)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        let events = p.batch_events();
        assert_eq!(events.len(), 3);
        let lens: Vec<usize> = events
            .iter()
            .map(|e| match e {
                BatchEvent::Committed { len } => *len,
                BatchEvent::Quarantined { .. } => panic!("healthy run quarantined"),
            })
            .collect();
        assert_eq!(lens.iter().sum::<usize>(), 24, "events cover every request");
        // One outcome vector per committed batch, all committed, and the
        // second replica's sync asserted equality rather than appending.
        assert_eq!(p.outcome_journal().len(), 3);
        for (k, outcomes) in p.outcome_journal().iter().enumerate() {
            assert_eq!(outcomes.len(), lens[k]);
            assert!(outcomes.iter().all(|o| *o == TxOutcome::Committed));
        }
        p.shutdown();
    }

    #[test]
    fn restart_puts_replica_on_probation_and_shrinks_admission() {
        let (catalog, bump) = counter_catalog();
        let config = PipelineConfig {
            batch_window: Duration::from_secs(60),
            max_pending: Some(8),
            ..small_config()
        };
        let mut p = Pipeline::new(catalog, config, 1, populate()).expect("boots");
        for i in 0..8 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i)])).expect("submits");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        assert_eq!(p.health().aggregate(), HealthState::Healthy);

        // Crash-restart: the replica goes on probation and the pipeline
        // sheds load early (admission capacity drops to 3/4 of the cap).
        p.restart_replica(0);
        assert_eq!(p.health().aggregate(), HealthState::Recovering);
        let mut accepted = 0usize;
        let shed_reason = loop {
            match p.submit(TxRequest::new(bump, vec![Value::Int(accepted as i64 % 16)])) {
                Ok(()) => accepted += 1,
                Err(PipelineError::Rejected { reason, depth, cap }) => {
                    assert_eq!(depth, 6, "structured depth mirrors the queue");
                    assert_eq!(cap, 6, "structured cap is the reduced effective cap");
                    break reason;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(accepted <= 8, "reduced capacity must bite before the full cap");
        };
        assert_eq!(accepted, 6, "recovering fleet admits 3/4 of the cap");
        assert!(shed_reason.contains("load shed (recovering)"), "got: {shed_reason}");
        assert!(p.shed_requests() >= 1);

        // Clean rounds clear probation and restore full capacity.
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        p.sync().expect("second clean round");
        assert_eq!(p.health().aggregate(), HealthState::Healthy);
        for i in 0..8 {
            p.submit(TxRequest::new(bump, vec![Value::Int(i)])).expect("full cap is back");
        }
        p.flush().expect("flushes");
        p.sync().expect("syncs");
        assert_eq!(p.degraded_batches(), 1, "the probation-era batch was counted");
        p.shutdown();
    }
}
