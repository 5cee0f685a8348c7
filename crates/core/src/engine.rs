//! The deterministic multi-threaded batch execution engine.
//!
//! One [`Engine`] is a replica's transaction-processing layer: a single
//! *queuer* (the thread calling [`Engine::execute`]) that is also worker 0
//! of a pool of `workers − 1` persistent *worker threads*, executing
//! batches in phases (paper §III-C):
//!
//! 1. **ROT + prepare** — every thread drains its private read-only-
//!    transaction queue against the pre-batch snapshot (lock-less); the
//!    queuer then *prepares indirect keys* for dependent transactions,
//!    helped by the workers in `MQ` mode;
//! 2. **build** — the queuer populates the lock table, dependent
//!    transactions ahead of independent ones;
//! 3. **update** — every thread drains the ready queues in one loop,
//!    the queuer's pass also serving the cross-shard exchange; dependent
//!    transactions validate their pivots first and abort (without side
//!    effects) if stale;
//! 4. **failed handling** — single-threaded re-execution in client order
//!    (`SF`), deterministic re-prepare + re-run rounds (`MF`), or
//!    hand-back to the client for a future batch (the Calvin baseline).
//!
//! The threads meet at three barriers of `workers` parties per batch —
//! (1) prepare done, (2) lock tables published, (3) update phase done —
//! and the workers leave after (3); with `workers = 1` there is no pool at
//! all. Every later step runs on the queuer alone, `MF`'s retry rounds
//! included: the paper's `SF` rule ("re-execute the failed serially")
//! applied one round at a time, since a retry round is usually one pivot
//! chain that waking the pool cannot parallelize. A round with one
//! drainer (every retry round, and round 1 when `workers = 1`) builds no
//! lock table: it runs its members in member order, a grant order of the
//! table it would build, so verdicts and outcomes are unchanged.
//!
//! The same engine, differently configured, realizes every system in the
//! paper's evaluation except `SEQ` (see [`crate::baselines`]).
//!
//! **The seam.** What a transaction *means* — its class, its prepared
//! key-set, the verdict of running it, the failed-transaction policy, the
//! outcome fold — is decided in [`crate::sched`], which knows no threads
//! and no clock. This module is the threaded *driver* of that core: it
//! owns the worker pool and its barriers, the per-shard lock tables
//! and the cross-shard exchange, the wall-clock stage timers, and the
//! flight-recorder hooks — i.e. *when and where* each core function runs.
//!
//! **Staged lifecycle.** Batch processing is split into two explicit
//! stages: [`Engine::prepare`] classifies the batch's transactions from
//! their symbolic-execution profiles into a [`PreparedBatch`] — a pure
//! function of the batch contents and the catalog, touching no store state
//! — and [`Engine::execute`] runs the phases above against the store.
//! Because classification is store-independent, batch `N+1` may be
//! classified *while batch `N` executes* (the paper's single-queuer
//! overlap): [`crate::Replica::execute_stream`] hands batch `N+1` to batch
//! `N`'s execution, and the queuer classifies it one transaction at a time
//! in round 1's update phase, one step per pass of its drain loop (at one
//! worker, per execution), finishing any remainder after commit. Dependent-transaction
//! preparation reads the store and therefore stays inside `execute`, where
//! it sees exactly the epochs the unpipelined path would — outcomes are
//! byte-identical either way.
//!
//! **Deterministic abort protocol.** A transaction whose own logic fails
//! (a workload bug surfacing as [`TxFailure::Eval`]) or whose worker
//! panics (e.g. an injected fault, see [`crate::faults`]) is aborted
//! *per transaction*, not per batch: its buffered writes are discarded, its
//! lock slots are released in key-set order, and the batch's other
//! transactions commit normally. Because the failure depends only on the
//! agreed batch contents and state (or on a seeded fault plan), every
//! replica reaches the identical per-transaction verdict — reported in
//! [`BatchOutcome::outcomes`]. Only unattributable panics (engine bugs,
//! catalog/profile mismatches) remain batch-fatal.

use crate::catalog::{Catalog, TxRequest};
use crate::exec::AccessLog;
use crate::faults::{AbortReason, FaultPlan};
use crate::locktable::{FifoPolicy, LockTable, LockTableBuilder, ReadyPolicy, TxIdx};
use crate::sched::{self, panic_message, RoundAction, RunMode, Snapshot, Tx, TxState, TxStatus};
use crate::shard::ShardRouter;
use crossbeam::queue::SegQueue;
use crossbeam::utils::Backoff;
use parking_lot::{Condvar, Mutex, RwLock};
use prognosticator_obs::{Counter, Event, FlightRecorder, Histogram, Registry};
use prognosticator_storage::{EpochStore, LatencyConfig};
use prognosticator_symexec::TxClass;
use prognosticator_txir::{Key, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How key-sets of update transactions are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareMode {
    /// From the offline symbolic-execution profile; only pivot keys are
    /// read during preparation (Prognosticator).
    Profile,
    /// By pre-executing the whole transaction logic on a snapshot
    /// (Calvin's OLLP / the `*-R` ablation variants).
    Reconnaissance,
}

/// What happens to transactions that fail validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailedPolicy {
    /// Re-execute sequentially on the queuer, in client order (`SF`).
    SingleThread,
    /// Re-prepare and re-run the failed in further rounds, repeatedly
    /// (`MF`).
    Reenqueue,
    /// Return to the client to be retried in a future batch (Calvin).
    NextBatch,
}

/// Conflict-detection granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Key-level (Prognosticator, Calvin).
    Key,
    /// Table-level (NODO): coarse, but transactions never abort.
    Table,
}

/// Full scheduler configuration. Presets for every paper variant live in
/// [`crate::baselines`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Threads that execute a batch, the calling thread (the queuer)
    /// included: the engine spawns `workers − 1`, so `1` runs every phase
    /// on the caller and spawns no thread.
    pub workers: usize,
    /// Number of key-space shards the execution core is partitioned into.
    /// Each shard builds its own lock table in round 1; transactions are
    /// routed at prepare time by their predicted read/write-set
    /// ([`crate::shard::ShardRouter`]). Outcomes and digests are a pure
    /// function of the committed log — byte-identical for every shard
    /// count (see DESIGN.md §3.5).
    pub shards: usize,
    /// Key-set acquisition strategy.
    pub prepare: PrepareMode,
    /// `true` = `MQ` (workers help prepare), `false` = `1Q`.
    pub parallel_prepare: bool,
    /// Failed-transaction policy.
    pub failed: FailedPolicy,
    /// Conflict granularity.
    pub granularity: Granularity,
    /// How many epochs stale the preparation snapshot is: `0` = the
    /// freshest committed state (Prognosticator), `k > 0` emulates a
    /// Calvin client that prepared `k` batches ahead of execution.
    pub prepare_staleness: u64,
    /// Safety valve: after this many `Reenqueue` rounds, fall back to
    /// single-threaded re-execution (guarantees termination).
    pub max_rounds: u32,
    /// When set, garbage-collect store history after each batch, keeping
    /// this many epochs (must exceed `prepare_staleness`; snapshots older
    /// than the kept window become unreadable). `None` keeps everything.
    pub gc_keep_epochs: Option<u64>,
    /// How workers pick among ready (mutually non-conflicting)
    /// transactions. The default FIFO policy is the production setting;
    /// the testkit's schedule-exploration fuzzer swaps in seeded shuffles
    /// to assert outcomes are schedule-independent.
    pub ready_policy: Arc<dyn ReadyPolicy>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            shards: 1,
            prepare: PrepareMode::Profile,
            parallel_prepare: true,
            failed: FailedPolicy::Reenqueue,
            granularity: Granularity::Key,
            prepare_staleness: 0,
            max_rounds: 64,
            gc_keep_epochs: None,
            ready_policy: Arc::new(FifoPolicy),
        }
    }
}

/// Final per-transaction verdict of a batch — the deterministic abort
/// protocol's output. Every replica fed the same batch (under the same
/// fault plan) must produce the identical `Vec<TxOutcome>`, regardless of
/// worker count or scheduling interleavings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// The transaction executed and its writes are in the store.
    Committed,
    /// The transaction was deterministically aborted: its lock slots were
    /// released in key-set order, its buffered writes were discarded (no
    /// torn writes), and it will not be retried.
    Aborted {
        /// Why the transaction aborted.
        reason: AbortReason,
    },
    /// The transaction was handed back to the client for a future batch
    /// ([`FailedPolicy::NextBatch`]) — neither committed nor aborted yet.
    CarriedOver,
}

/// Per-stage monotonic timers and counters for one batch. All stage
/// durations are wall-clock nanoseconds on the engine (virtual nanoseconds
/// in the bench simulator, which reuses this struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Classification + direct-prediction time (the `prepare` stage),
    /// summed over every stretch the queuer spent on it — inside the
    /// previous batch's update phases under prepare-ahead, in one piece
    /// otherwise.
    pub predict_ns: u64,
    /// Lock-queue population: dependent-transaction preparation plus
    /// lock-table build/publish (a tableless round: its `LockWait` events
    /// while recording), summed over scheduling rounds.
    pub queue_ns: u64,
    /// Update phase (draining the ready queues, or a tableless round's
    /// in-order run) plus failed handling, summed over scheduling rounds.
    pub execute_ns: u64,
    /// Epoch advance + store garbage collection.
    pub commit_ns: u64,
    /// Outcome assembly (outputs, verdicts, latency harvest).
    pub apply_ns: u64,
    /// The part of `predict_ns` spent classifying this batch inside the
    /// previous batch's update phases (prepare-ahead overlap). Zero on the
    /// unpipelined path.
    pub overlap_ns: u64,
    /// Always 0: lock-table queues are links in one per-table arena, so
    /// there are no per-key queue allocations left to count. Kept because
    /// the wall-clock benchmark still reports it.
    pub lock_fresh_allocs: u64,
    /// Wait episodes during the update phase: transitions from executing
    /// to spinning on empty ready queues, summed over every thread — the
    /// queuer's round-1 waits included, since it drains beside the
    /// workers. On the engine this counts round 1 only — retry rounds run
    /// on the queuer alone, which never waits — and is wall-clock-
    /// dependent (the simulator computes a deterministic equivalent over
    /// every round).
    pub lock_waits: u64,
    /// Contended keys (queues of more than one transaction) of the tables
    /// built: pooled round 1's, none at `workers = 1` (the simulator sums
    /// every round). A pure function of the batch and the worker count.
    pub lock_contended_keys: u64,
    /// Update transactions routed to exactly one shard in pooled round 1,
    /// the one round that routes. Deterministic for a given shard count
    /// (metrics only: the value differs *across* shard counts).
    pub single_shard_txs: u64,
    /// Update transactions spanning several shards, resolved by the
    /// queuer's deterministic barrier exchange. See `single_shard_txs`.
    pub cross_shard_txs: u64,
}

impl StageTimings {
    /// Adds `other`'s timers and counters into `self` (for aggregating
    /// across batches).
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.predict_ns += other.predict_ns;
        self.queue_ns += other.queue_ns;
        self.execute_ns += other.execute_ns;
        self.commit_ns += other.commit_ns;
        self.apply_ns += other.apply_ns;
        self.overlap_ns += other.overlap_ns;
        self.lock_fresh_allocs += other.lock_fresh_allocs;
        self.lock_waits += other.lock_waits;
        self.lock_contended_keys += other.lock_contended_keys;
        self.single_shard_txs += other.single_shard_txs;
        self.cross_shard_txs += other.cross_shard_txs;
    }

    /// Plain sum of the five stage timers. `overlap_ns` nanoseconds of
    /// `predict_ns` ran concurrently with the previous batch's execute
    /// stage on the pipelined path, so this sum double-counts them
    /// relative to wall-clock; use [`StageTimings::busy_ns`] for the
    /// wall-clock-comparable total.
    pub fn stage_sum_ns(&self) -> u64 {
        self.predict_ns + self.queue_ns + self.execute_ns + self.commit_ns + self.apply_ns
    }

    /// The wall-clock critical path implied by the stage timers: the
    /// stage sum with the prepare-ahead overlap removed exactly once.
    /// For an unpipelined run this equals [`StageTimings::stage_sum_ns`]
    /// (overlap is zero); for a pipelined run it is what the batches
    /// actually cost end to end.
    pub fn busy_ns(&self) -> u64 {
        self.stage_sum_ns().saturating_sub(self.overlap_ns)
    }
}

/// Per-shard queue/execute wall-clock split of pooled round 1 (no other
/// round has shards), indexed by physical shard. Wall-clock-dependent —
/// metrics only, never compared by the determinism oracles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStageTimings {
    /// Lock-queue population charged to this shard: enqueue time of the
    /// transactions it is home to, plus its builder's freeze time.
    pub queue_ns: u64,
    /// Execution time of the transactions popped from this shard's ready
    /// queue (cross-shard transactions are charged to their home — i.e.
    /// lowest-owner — shard), summed over workers.
    pub execute_ns: u64,
}

/// Per-batch outcome and metrics.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Transactions in the batch (including read-only ones).
    pub batch_size: usize,
    /// Committed transactions.
    pub committed: usize,
    /// Transactions deterministically aborted (workload bugs and injected
    /// faults). Final: aborted transactions are never retried.
    pub aborted: usize,
    /// Abort-and-retry events (one transaction may fail validation several
    /// times before committing).
    pub aborts: usize,
    /// Scheduling rounds used (1 = no failures).
    pub rounds: u32,
    /// Transactions handed back to the client ([`FailedPolicy::NextBatch`]).
    pub carried_over: Vec<TxRequest>,
    /// Per-committed-transaction latency from execution start, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Total time spent preparing dependent transactions, and how many
    /// preparations ran (Fig. 5b's "prepare" component).
    pub prepare_ns_total: u64,
    /// Number of preparation operations.
    pub prepare_count: u64,
    /// Total first-failure→commit time over re-executed transactions
    /// (Fig. 5b's "re-execute failed" component).
    pub reexec_ns_total: u64,
    /// Number of transactions that needed re-execution.
    pub reexec_count: u64,
    /// Wall-clock duration of the execute stage.
    pub duration: Duration,
    /// Per-stage timers and counters (see [`StageTimings`]).
    pub stage: StageTimings,
    /// Per-shard queue/execute split, indexed by physical shard (length =
    /// the engine's configured shard count; empty from the simulator).
    pub shard_stage: Vec<ShardStageTimings>,
    /// Keys the committed update transactions' predictions locked,
    /// summed. Deterministic: a pure function of the batch contents.
    pub predicted_keys: u64,
    /// Distinct keys the committed update transactions concretely
    /// touched, summed. Deterministic (see `predicted_keys`).
    pub observed_keys: u64,
    /// Results emitted by read-only transactions, indexed by batch
    /// position (`None` for update transactions and carried-over ones).
    pub outputs: Vec<Option<Vec<Value>>>,
    /// Per-transaction verdicts, indexed by batch position. Identical on
    /// every replica fed the same batch under the same fault plan.
    pub outcomes: Vec<TxOutcome>,
}

impl BatchOutcome {
    /// Throughput implied by this batch alone (committed / duration).
    pub fn throughput_tps(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.committed as f64 / self.duration.as_secs_f64()
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// One transaction of a batch in flight: the classified transaction plus
/// its mutable state behind one lock. A slot is only ever touched by one
/// thread at a time (its preparer, its executor, or the queuer between
/// barriers), so the lock is uncontended.
struct TxSlot {
    tx: Tx,
    state: Mutex<TxState>,
}

/// A classified batch, ready to execute: the output of [`Engine::prepare`]
/// and the input of [`Engine::execute`].
///
/// Holds only store-independent state (per-transaction class, program,
/// profile, and — for independent transactions — the direct prediction),
/// so it may be built arbitrarily far ahead of execution without changing
/// outcomes.
pub struct PreparedBatch {
    slots: Vec<TxSlot>,
    rot_idxs: Vec<TxIdx>,
    dt_idxs: Vec<TxIdx>,
    it_idxs: Vec<TxIdx>,
    predict_ns: u64,
    /// The part of `predict_ns` spent inside another batch's update phases.
    overlap_ns: u64,
}

impl PreparedBatch {
    /// Transactions in the batch.
    pub fn batch_size(&self) -> usize {
        self.slots.len()
    }

    /// Wall-clock nanoseconds the classification stage took.
    pub fn predict_ns(&self) -> u64 {
        self.predict_ns
    }
}

impl std::fmt::Debug for PreparedBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedBatch")
            .field("batch_size", &self.slots.len())
            .field("read_only", &self.rot_idxs.len())
            .field("dependent", &self.dt_idxs.len())
            .field("independent", &self.it_idxs.len())
            .finish()
    }
}

/// The recording and fault-injection hooks a batch runs under. The
/// engine holds one shared value, replaced whole by the setters and
/// snapshotted once per batch, so a batch sees one consistent set and the
/// hot path reads no lock. Detached hooks cost one branch at each site.
#[derive(Clone, Default)]
struct BatchHooks {
    /// Flight recorder; events carry only logical coordinates.
    recorder: Option<Arc<FlightRecorder>>,
    /// Seeded fault-injection plan.
    faults: Option<FaultPlan>,
}

/// What the queuer shares with the workers for one batch.
struct BatchWork {
    slots: Vec<TxSlot>,
    rot_queues: Vec<SegQueue<TxIdx>>,
    prepare_queue: SegQueue<TxIdx>,
    /// Pooled round 1's per-shard lock tables, indexed by physical shard
    /// (published at barrier (2)).
    lock_tables: OnceLock<Vec<LockTable>>,
    round_total: AtomicUsize,
    completed: AtomicUsize,
    failed: Mutex<Vec<TxIdx>>,
    /// Epoch DT preparation reads from in round 1 (retry rounds read live
    /// state).
    prepare_epoch: u64,
    /// Epoch ROTs read from.
    snapshot_epoch: u64,
    batch_start: Instant,
    prepare_ns: AtomicU64,
    prepare_count: AtomicU64,
    /// This batch's index in the replica's lifetime (the fault plan's
    /// batch coordinate).
    batch_index: u64,
    hooks: Arc<BatchHooks>,
    /// Wait episodes (executing → spinning transitions) during the update
    /// phase, on every thread. Wall-clock-dependent; metrics only.
    lock_waits: AtomicU64,
    /// Per-shard execute-time accumulators, indexed by physical shard.
    /// Each thread charges a popped transaction's execution to the shard
    /// it was popped from; the exchange charges cross-shard transactions
    /// to their home shard. Wall-clock-dependent; metrics only.
    shard_exec_ns: Vec<AtomicU64>,
    /// Set when a thread panics *outside* any per-transaction scope (an
    /// engine bug or a catalog/profile mismatch — not attributable to one
    /// transaction); the batch is wound down through the normal barrier
    /// sequence so no thread deadlocks, and the queuer re-raises the
    /// panic afterwards. Per-transaction failures never reach this: they
    /// become deterministic [`TxOutcome::Aborted`] verdicts instead.
    fatal: AtomicBool,
    fatal_msg: Mutex<Option<String>>,
}

impl BatchWork {
    fn now_ns(&self) -> u64 {
        elapsed_ns(self.batch_start)
    }

    /// Whether the current round's update phase is over (or the batch is
    /// winding down after a fatal error).
    fn round_over(&self) -> bool {
        self.completed.load(Ordering::Acquire) >= self.round_total.load(Ordering::Acquire)
            || self.fatal.load(Ordering::Acquire)
    }

    /// Executes granted update transaction `i`, then `release`s its lock
    /// slots — on commit, retry and abort alike — charging the time to
    /// `shard` (a round without tables charges no shard).
    fn run_granted(
        &self,
        i: TxIdx,
        store: &EpochStore,
        shard: Option<usize>,
        release: impl FnOnce(),
    ) {
        let (batch, tx) = (self.batch_index, u64::from(i));
        if let Some(rec) = &self.hooks.recorder {
            rec.record(|| Event::LockGrant { batch, tx });
        }
        let t_exec = Instant::now();
        run_slot(self, i, store, RunMode::Locked);
        release();
        if let Some(shard) = shard {
            self.shard_exec_ns[shard].fetch_add(elapsed_ns(t_exec), Ordering::Relaxed);
        }
        if let Some(rec) = &self.hooks.recorder {
            rec.record(|| Event::LockRelease { batch, tx });
        }
        self.completed.fetch_add(1, Ordering::AcqRel);
    }
}

/// The queuer's private bookkeeping for a batch in flight. Only the
/// queuer touches it (it alone drains the foreign-ready queues), so no
/// atomics are needed.
struct Rounds {
    /// The coming round's candidates: every update transaction in round
    /// 1 (DTs ahead of ITs, §III-C), the previous round's failures after.
    members: Vec<TxIdx>,
    /// Pooled round 1's cross-shard members.
    cross: Vec<TxIdx>,
    /// Per batch position: owner shards that have not yet signalled the
    /// transaction ready, and the ascending owner list.
    cross_wait: Vec<u32>,
    cross_owners: Vec<Vec<usize>>,
    /// Per-shard queue-time accumulators (wall clock; metrics only).
    shard_queue_ns: Vec<u64>,
    /// The store latency to restore after a storage-spike batch.
    prior_latency: Option<LatencyConfig>,
}

impl Rounds {
    /// One pass of the cross-shard exchange. A cross-shard transaction
    /// becomes executable only once every owner shard has signalled it
    /// ready (it is at the head of all its per-key queues — exactly the
    /// global lock-order condition); the pass collects every table's
    /// signals, then runs the members now ready on all their owners in
    /// ascending batch position, releasing slots in ascending shard order.
    /// That fixed shard-major merge keeps the committed outcome a pure
    /// function of the batch, never of thread interleaving or shard count.
    /// Returns whether any signal arrived.
    fn exchange_pass(
        &mut self,
        work: &BatchWork,
        store: &EpochStore,
        tables: &[LockTable],
    ) -> bool {
        if self.cross.is_empty() {
            return false;
        }
        let mut progress = false;
        let mut ready_cross: Vec<TxIdx> = Vec::new();
        for table in tables {
            while let Some(i) = table.pop_foreign_ready() {
                progress = true;
                self.cross_wait[i as usize] -= 1;
                if self.cross_wait[i as usize] == 0 {
                    ready_cross.push(i);
                }
            }
        }
        ready_cross.sort_unstable();
        for i in ready_cross {
            let owners = &self.cross_owners[i as usize];
            work.run_granted(i, store, Some(owners[0]), || {
                for &s in owners {
                    tables[s].release(i);
                }
            });
        }
        progress
    }
}

/// The queuer's share of [`drain`] beyond executing: the cross-shard
/// exchange and classifying the next batch.
struct QueuerDuty<'a, 'c> {
    rounds: &'a mut Rounds,
    next: Option<&'a mut Classifier<'c>>,
}

/// Runs `f`, converting a panic into the batch-fatal flag so every thread
/// still reaches its barriers.
fn run_guarded(work: &BatchWork, f: impl FnOnce()) {
    if work.fatal.load(Ordering::Acquire) {
        return;
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    if let Err(payload) = result {
        *work.fatal_msg.lock() = Some(panic_message(payload.as_ref()));
        work.fatal.store(true, Ordering::Release);
    }
}

struct Shared {
    config: SchedulerConfig,
    barrier: std::sync::Barrier,
    work: RwLock<Option<Arc<BatchWork>>>,
    generation: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// The engine's handles into the global metrics [`Registry`], fetched
/// once at construction so the hot path never takes the registry lock.
struct EngineMetrics {
    batches: Arc<Counter>,
    tx_committed: Arc<Counter>,
    tx_aborted: Arc<Counter>,
    lock_waits: Arc<Counter>,
    lock_contended_keys: Arc<Counter>,
    single_shard_txs: Arc<Counter>,
    cross_shard_txs: Arc<Counter>,
    batch_queue_us: Arc<Histogram>,
    batch_execute_us: Arc<Histogram>,
    /// Per-shard stage histograms, indexed by physical shard.
    shard_queue_us: Vec<Arc<Histogram>>,
    shard_execute_us: Vec<Arc<Histogram>>,
}

impl EngineMetrics {
    fn new(shards: usize) -> Self {
        let r = Registry::global();
        EngineMetrics {
            batches: r.counter("engine.batches"),
            tx_committed: r.counter("engine.tx_committed"),
            tx_aborted: r.counter("engine.tx_aborted"),
            lock_waits: r.counter("engine.lock_waits"),
            lock_contended_keys: r.counter("engine.lock_contended_keys"),
            single_shard_txs: r.counter("engine.single_shard_txs"),
            cross_shard_txs: r.counter("engine.cross_shard_txs"),
            batch_queue_us: r.histogram("engine.batch_queue_us"),
            batch_execute_us: r.histogram("engine.batch_execute_us"),
            shard_queue_us: (0..shards)
                .map(|s| r.histogram(&format!("engine.shard{s}.queue_us")))
                .collect(),
            shard_execute_us: (0..shards)
                .map(|s| r.histogram(&format!("engine.shard{s}.execute_us")))
                .collect(),
        }
    }

    fn publish(&self, outcome: &BatchOutcome) {
        self.batches.inc();
        self.tx_committed.add(outcome.committed as u64);
        self.tx_aborted.add(outcome.aborted as u64);
        self.lock_waits.add(outcome.stage.lock_waits);
        self.lock_contended_keys.add(outcome.stage.lock_contended_keys);
        self.batch_queue_us.record(outcome.stage.queue_ns / 1_000);
        self.batch_execute_us.record(outcome.stage.execute_ns / 1_000);
        self.single_shard_txs.add(outcome.stage.single_shard_txs);
        self.cross_shard_txs.add(outcome.stage.cross_shard_txs);
        for (s, st) in outcome.shard_stage.iter().enumerate() {
            self.shard_queue_us[s].record(st.queue_ns / 1_000);
            self.shard_execute_us[s].record(st.execute_ns / 1_000);
        }
    }
}

/// A stable 64-bit fingerprint of a key for flight-recorder events
/// (FNV-1a over the key's display form — deterministic across processes).
fn key_fingerprint(key: &Key) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{key:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Records a committed transaction's [`AccessLog`] as `TxRead`/`TxWrite`
/// flight events (logical coordinates only: batch, tx, per-tx sequence,
/// key fingerprint, per-key version). These are the isolation checker's
/// inputs; they are replay-stable because read order is program order and
/// the write flush is key-sorted.
fn record_access_log(work: &BatchWork, tx: TxIdx, log: &AccessLog) {
    let Some(rec) = &work.hooks.recorder else { return };
    if !rec.is_enabled() {
        return;
    }
    let (batch, tx) = (work.batch_index, u64::from(tx));
    for (seq, (key, version)) in log.reads.iter().enumerate() {
        let (seq, key, version) = (seq as u64, key_fingerprint(key), *version);
        rec.record(|| Event::TxRead { batch, tx, seq, key, version });
    }
    for (seq, (key, version)) in log.writes.iter().enumerate() {
        let (seq, key, version) = (seq as u64, key_fingerprint(key), *version);
        rec.record(|| Event::TxWrite { batch, tx, seq, key, version });
    }
}

/// While recording, records a round's lock-queue structure as `LockWait`
/// events: with per-key FIFO queues filled in member order (as a lock
/// table is, built or not), each member waits on each distinct key of its
/// key-set at depth = the number of earlier members locking that key.
fn note_waiters(work: &BatchWork, members: &[TxIdx]) {
    let Some(rec) = work.hooks.recorder.as_ref().filter(|rec| rec.is_enabled()) else { return };
    let batch = work.batch_index;
    let mut queued: HashMap<Key, u64> = HashMap::new();
    for &i in members {
        let slot = &work.slots[i as usize];
        let keys = sched::lock_keys(&slot.tx, &slot.state.lock());
        for (n, key) in keys.iter().enumerate() {
            if keys[..n].contains(key) {
                continue;
            }
            let depth = queued.entry(key.clone()).or_insert(0);
            if *depth > 0 {
                let (tx, depth) = (u64::from(i), *depth);
                let (shard, key) = (ShardRouter::fingerprint(key), key_fingerprint(key));
                rec.record(|| Event::LockWait { batch, tx, key, depth, shard });
            }
            *depth += 1;
        }
    }
}

/// Classifies a batch one transaction at a time, so the queuer can fill
/// the waits of another batch's update phase with it. Panics are held
/// back until [`Classifier::finish`], so the batch being executed never
/// sees them.
struct Classifier<'a> {
    engine: &'a Engine,
    pending: std::vec::IntoIter<TxRequest>,
    batch: PreparedBatch,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<'a> Classifier<'a> {
    fn new(engine: &'a Engine, requests: Vec<TxRequest>) -> Self {
        let batch = PreparedBatch {
            slots: Vec::with_capacity(requests.len()),
            rot_idxs: Vec::new(),
            dt_idxs: Vec::new(),
            it_idxs: Vec::new(),
            predict_ns: 0,
            overlap_ns: 0,
        };
        Classifier { engine, pending: requests.into_iter(), batch, panic: None }
    }

    /// Classifies the next transaction, counting the time as overlap.
    /// Returns `false` once nothing is left to do.
    fn step(&mut self) -> bool {
        if self.panic.is_some() || self.pending.len() == 0 {
            return false;
        }
        let t0 = Instant::now();
        let step = std::panic::AssertUnwindSafe(|| self.classify_next());
        self.panic = std::panic::catch_unwind(step).err();
        let ns = elapsed_ns(t0);
        self.batch.predict_ns += ns;
        self.batch.overlap_ns += ns;
        true
    }

    fn classify_next(&mut self) -> bool {
        let Some(req) = self.pending.next() else { return false };
        let config = self.engine.config();
        let (tx, state) =
            sched::classify(config.granularity, config.prepare, &self.engine.catalog, req);
        let i = self.batch.slots.len() as TxIdx;
        match tx.class {
            TxClass::ReadOnly => self.batch.rot_idxs.push(i),
            TxClass::Dependent => self.batch.dt_idxs.push(i),
            TxClass::Independent => self.batch.it_idxs.push(i),
        }
        self.batch.slots.push(TxSlot { tx, state: Mutex::new(state) });
        true
    }

    /// Classifies whatever is left and returns the batch, re-raising a
    /// panic an earlier [`Classifier::step`] caught.
    fn finish(mut self) -> PreparedBatch {
        if let Some(payload) = self.panic.take() {
            std::panic::resume_unwind(payload);
        }
        let t0 = Instant::now();
        while self.classify_next() {}
        self.batch.predict_ns += elapsed_ns(t0);
        self.batch
    }
}

/// A replica's transaction-processing engine. See the module docs.
///
/// The engine is interior-mutable: every operation takes `&self`, so an
/// `Arc<Engine>` can be shared between threads. Execution itself is
/// serialized by an internal lock — batches always execute one at a time,
/// in call order.
pub struct Engine {
    catalog: Arc<Catalog>,
    store: Arc<EpochStore>,
    /// The configuration, barrier and batch hand-off shared with workers.
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    batches_executed: AtomicU64,
    /// Serializes [`Engine::execute`] calls.
    exec_lock: Mutex<()>,
    /// Long-lived per-shard lock-table builders, indexed by physical
    /// shard; kept across batches only so each key map keeps its capacity.
    builders: Mutex<Vec<LockTableBuilder>>,
    /// Key → shard routing oracle over the configured shard count.
    router: ShardRouter,
    /// Registry handles (see [`EngineMetrics`]).
    metrics: EngineMetrics,
    /// Recorder and fault plan (see [`BatchHooks`]).
    hooks: RwLock<Arc<BatchHooks>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.shared.config)
            .field("pool_threads", &self.handles.lock().len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Spawns the worker pool: `config.workers − 1` threads, since the
    /// caller of [`Engine::execute`] is worker 0.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn new(config: SchedulerConfig, catalog: Arc<Catalog>, store: Arc<EpochStore>) -> Self {
        assert!(config.workers > 0, "at least one worker (the queuer) is required");
        let router = ShardRouter::new(config.shards);
        let workers = config.workers;
        let shared = Arc::new(Shared {
            config,
            barrier: std::sync::Barrier::new(workers),
            work: RwLock::new(None),
            generation: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers - 1);
        for worker_id in 1..workers {
            let shared = Arc::clone(&shared);
            let store = Arc::clone(&store);
            let handle = std::thread::Builder::new()
                .name(format!("prognosticator-worker-{worker_id}"))
                .spawn(move || worker_loop(worker_id, &shared, &store))
                .expect("spawn worker thread");
            handles.push(handle);
        }
        Engine {
            catalog,
            store,
            shared,
            handles: Mutex::new(handles),
            batches_executed: AtomicU64::new(0),
            exec_lock: Mutex::new(()),
            builders: Mutex::new(
                (0..router.shards()).map(|_| LockTableBuilder::new()).collect(),
            ),
            router,
            metrics: EngineMetrics::new(router.shards()),
            hooks: RwLock::new(Arc::default()),
        }
    }

    /// The engine's key → shard routing oracle.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Replaces the hook set with an edited copy; batches started from
    /// now on snapshot the new value.
    fn update_hooks(&self, edit: impl FnOnce(&mut BatchHooks)) {
        let mut slot = self.hooks.write();
        let mut hooks = BatchHooks::clone(&slot);
        edit(&mut hooks);
        *slot = Arc::new(hooks);
    }

    /// Attaches (or detaches) a flight recorder. Subsequent batches emit
    /// structured events into it; recording never changes outcomes.
    pub fn set_recorder(&self, recorder: Option<Arc<FlightRecorder>>) {
        self.update_hooks(|hooks| hooks.recorder = recorder);
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.hooks.read().recorder.clone()
    }

    /// Installs (or clears) a deterministic fault-injection plan applied
    /// to subsequent batches. Injected worker panics become per-
    /// transaction [`TxOutcome::Aborted`] verdicts; storage latency spikes
    /// perturb timing only.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.update_hooks(|hooks| hooks.faults = plan);
    }

    /// Batches executed so far — the fault plan's batch coordinate for
    /// the next batch.
    pub fn batches_executed(&self) -> u64 {
        self.batches_executed.load(Ordering::Acquire)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.shared.config
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<EpochStore> {
        &self.store
    }

    /// The shared program catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Classifies one ordered batch into a [`PreparedBatch`].
    ///
    /// This stage is a pure function of the batch and the catalog: it
    /// derives each transaction's class and, for independent transactions,
    /// the direct key-set prediction — but reads no store state, so it may
    /// run while an earlier batch is still executing without changing any
    /// outcome.
    pub fn prepare(&self, batch: Vec<TxRequest>) -> PreparedBatch {
        Classifier::new(self, batch).finish()
    }

    /// Executes one ordered batch to completion and commits its epoch:
    /// `prepare` + `execute` back to back (the unpipelined path).
    pub fn execute_batch(&self, batch: Vec<TxRequest>) -> BatchOutcome {
        let prepared = self.prepare(batch);
        self.execute(prepared)
    }

    /// Executes a prepared batch to completion and commits its epoch. The
    /// calling thread acts as the queuer. Concurrent callers are
    /// serialized; batches commit in call order.
    ///
    /// The paper's algorithm, one phase function per step; the workers
    /// meet the queuer at three barriers per batch and take part in round
    /// 1 only, and the queuer runs the same phase-1 routine and drain loop
    /// as they do (see the module docs).
    pub fn execute(&self, prepared: PreparedBatch) -> BatchOutcome {
        self.run_batch(prepared, None)
    }

    /// [`Engine::execute`], with the queuer classifying `next` one
    /// transaction per pass of its round-1 drain loop (prepare-ahead).
    /// Returns the outcome and `next`, classified.
    pub(crate) fn execute_and_prepare(
        &self,
        prepared: PreparedBatch,
        next: Vec<TxRequest>,
    ) -> (BatchOutcome, PreparedBatch) {
        let mut classifier = Classifier::new(self, next);
        let outcome = self.run_batch(prepared, Some(&mut classifier));
        (outcome, classifier.finish())
    }

    fn run_batch(
        &self,
        prepared: PreparedBatch,
        mut next: Option<&mut Classifier<'_>>,
    ) -> BatchOutcome {
        let _exec = self.exec_lock.lock();
        let mut builders = self.builders.lock();
        let (work, mut rounds, mut outcome) = self.begin_batch(prepared);
        let config = self.config();
        loop {
            outcome.rounds += 1;
            let first = outcome.rounds == 1;
            // Round 1 of an engine with a pool drains beside the workers,
            // who leave at barrier (3); every other round has one drainer.
            let pooled = first && config.workers > 1;
            let round_start = Instant::now();
            let snapshot = if first { Snapshot::Epoch(work.prepare_epoch) } else { Snapshot::Live };
            prepare_phase(&work, 0, &self.store, config, snapshot);
            if pooled {
                self.shared.barrier.wait(); // (1) prepare done
            }
            // Slots aborted during preparation carry no prediction and their
            // verdict is already final, so they are excluded here; the
            // exclusion is deterministic because abort decisions are.
            rounds.members.retain(|&i| work.slots[i as usize].state.lock().aborted.is_none());
            note_waiters(&work, &rounds.members);
            let tables = if pooled {
                self.build_tables(&work, &mut rounds, &mut builders, &mut outcome)
            } else {
                &[]
            };
            outcome.stage.queue_ns += elapsed_ns(round_start);
            let update_start = Instant::now();
            if pooled {
                let duty = QueuerDuty { rounds: &mut rounds, next: next.as_deref_mut() };
                drain(&work, 0, &self.store, tables, config.ready_policy.as_ref(), Some(duty));
                self.shared.barrier.wait(); // (3) update phase done; the workers leave
            } else {
                // One drainer, no table: member order is a grant order of the
                // per-key FIFO queues, and each transaction reads only keys it
                // locks, so it reads what a table would give it.
                let mut next = next.as_deref_mut().filter(|_| first);
                run_guarded(&work, || {
                    for &i in &rounds.members {
                        if let Some(next) = next.as_deref_mut() {
                            next.step();
                        }
                        work.run_granted(i, &self.store, None, || {});
                    }
                });
            }
            let done = self.finish_round(&work, &mut rounds, &mut outcome);
            outcome.stage.execute_ns += elapsed_ns(update_start);
            if done {
                break;
            }
        }
        drop(builders);
        self.commit_epoch(&work, &rounds, &mut outcome);
        self.assemble_outcome(&work, &rounds, &mut outcome);
        self.metrics.publish(&outcome);
        outcome
    }

    /// Snapshots the hooks and epochs, applies a storage spike, hands the
    /// ROTs and dependent transactions to the pool and wakes it.
    fn begin_batch(&self, prepared: PreparedBatch) -> (Arc<BatchWork>, Rounds, BatchOutcome) {
        let batch_start = Instant::now();
        let PreparedBatch { slots, rot_idxs, dt_idxs, it_idxs, predict_ns, overlap_ns } = prepared;
        let batch_size = slots.len();
        let batch_index = self.batches_executed.fetch_add(1, Ordering::AcqRel);
        let hooks = Arc::clone(&self.hooks.read());
        // Storage latency spike: raise the store's injected latency for
        // this batch only. Timing-only — state and outcomes are unchanged.
        let spike = hooks.faults.as_ref().and_then(|plan| plan.storage_spike(batch_index));
        let prior_latency = spike.map(|spike| {
            let prior = self.store.latency();
            self.store.set_latency(LatencyConfig::symmetric(spike));
            prior
        });
        let config = self.config();
        let shards = self.router.shards();
        let snapshot_epoch = self.store.current_epoch() - 1;
        let work = Arc::new(BatchWork {
            slots,
            rot_queues: (0..config.workers).map(|_| SegQueue::new()).collect(),
            prepare_queue: SegQueue::new(),
            lock_tables: OnceLock::new(),
            round_total: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            failed: Mutex::new(Vec::new()),
            prepare_epoch: snapshot_epoch.saturating_sub(config.prepare_staleness),
            snapshot_epoch,
            batch_start,
            prepare_ns: AtomicU64::new(0),
            prepare_count: AtomicU64::new(0),
            batch_index,
            hooks,
            lock_waits: AtomicU64::new(0),
            shard_exec_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            fatal: AtomicBool::new(false),
            fatal_msg: Mutex::new(None),
        });
        if let Some(rec) = &work.hooks.recorder {
            rec.record(|| Event::BatchStart { batch: batch_index, txs: batch_size as u64 });
        }
        // ROTs round-robin over the per-worker queues; dependent
        // transactions need preparation.
        for (n, &i) in rot_idxs.iter().enumerate() {
            work.rot_queues[n % config.workers].push(i);
        }
        for &i in &dt_idxs {
            work.prepare_queue.push(i);
        }
        // Publish the batch and wake the pool.
        *self.shared.work.write() = Some(Arc::clone(&work));
        {
            let mut generation = self.shared.generation.lock();
            *generation += 1;
            self.shared.wake.notify_all();
        }
        let rounds = Rounds {
            members: dt_idxs.into_iter().chain(it_idxs).collect(),
            cross: Vec::new(),
            cross_wait: vec![0; batch_size],
            cross_owners: vec![Vec::new(); batch_size],
            shard_queue_ns: vec![0; shards],
            prior_latency,
        };
        let stage = StageTimings { predict_ns, overlap_ns, ..StageTimings::default() };
        (work, rounds, BatchOutcome { batch_size, stage, ..BatchOutcome::default() })
    }

    /// Phase 2 of a pooled round 1: routes and enqueues every member by its
    /// predicted key-set, freezes one lock table per shard and publishes
    /// the tables to the pool.
    fn build_tables<'w>(
        &self,
        work: &'w BatchWork,
        rounds: &mut Rounds,
        builders: &mut [LockTableBuilder],
        outcome: &mut BatchOutcome,
    ) -> &'w [LockTable] {
        // Single-shard transactions enqueue locally on their owner;
        // cross-shard ones enqueue a foreign subset on every owner and
        // are resolved by the exchange.
        for &i in &rounds.members {
            let slot = &work.slots[i as usize];
            let keys = sched::lock_keys(&slot.tx, &slot.state.lock());
            let t_enq = Instant::now();
            let mut parts = self.router.partition(keys);
            let home = if parts.len() <= 1 {
                let (s, sub) = parts.pop().unwrap_or((0, Vec::new()));
                builders[s].enqueue(i, sub);
                outcome.stage.single_shard_txs += 1;
                s
            } else {
                rounds.cross_wait[i as usize] = parts.len() as u32;
                rounds.cross_owners[i as usize] = parts.iter().map(|(s, _)| *s).collect();
                let home = parts[0].0;
                for (s, sub) in parts {
                    builders[s].enqueue_foreign(i, sub);
                }
                rounds.cross.push(i);
                outcome.stage.cross_shard_txs += 1;
                home
            };
            rounds.shard_queue_ns[home] += elapsed_ns(t_enq);
        }
        let mut tables = Vec::with_capacity(builders.len());
        for (s, b) in builders.iter_mut().enumerate() {
            let t_freeze = Instant::now();
            let table = b.freeze(work.slots.len());
            rounds.shard_queue_ns[s] += elapsed_ns(t_freeze);
            outcome.stage.lock_contended_keys += table.contended_keys();
            tables.push(table);
        }
        work.round_total.store(rounds.members.len(), Ordering::Release);
        let tables = work.lock_tables.get_or_init(|| tables);
        self.shared.barrier.wait(); // (2) lock tables published
        tables
    }

    /// Phase 4: enacts the failed-transaction policy. Returns whether the
    /// batch is done.
    fn finish_round(
        &self,
        work: &BatchWork,
        rounds: &mut Rounds,
        outcome: &mut BatchOutcome,
    ) -> bool {
        let mut failed = std::mem::take(&mut *work.failed.lock());
        failed.sort_unstable();
        outcome.aborts += failed.len();
        let now = work.now_ns().max(1);
        for &i in &failed {
            let mut state = work.slots[i as usize].state.lock();
            if state.first_fail_ns == 0 {
                state.first_fail_ns = now;
            }
        }
        let config = self.config();
        let action =
            sched::after_round(config.failed, outcome.rounds, config.max_rounds, !failed.is_empty());
        match action {
            RoundAction::Done => {}
            // The workers have left the batch, so the queuer running the
            // failed transactions in client order is trivially
            // deterministic.
            RoundAction::Serial => run_guarded(work, || {
                for &i in &failed {
                    run_slot(work, i, &self.store, RunMode::Serial);
                }
            }),
            // The next round re-prepares them against the live state.
            RoundAction::Reenqueue => {
                for &i in &failed {
                    work.slots[i as usize].state.lock().prediction = None;
                    work.prepare_queue.push(i);
                }
                rounds.members = failed;
            }
            RoundAction::CarryOver => {
                let handed_back = failed.iter().map(|&i| work.slots[i as usize].tx.req.clone());
                outcome.carried_over.extend(handed_back);
            }
        }
        action != RoundAction::Reenqueue || work.fatal.load(Ordering::Acquire)
    }

    /// Retires the batch from the pool, re-raises a batch-fatal panic,
    /// then advances the epoch and garbage-collects history.
    fn commit_epoch(&self, work: &BatchWork, rounds: &Rounds, outcome: &mut BatchOutcome) {
        *self.shared.work.write() = None;
        if let Some(prior) = rounds.prior_latency {
            self.store.set_latency(prior);
        }
        if work.fatal.load(Ordering::Acquire) {
            let msg = work.fatal_msg.lock().take().unwrap_or_default();
            panic!("fatal batch error: {msg}");
        }
        let commit_start = Instant::now();
        self.store.advance_epoch();
        let config = self.config();
        if let Some(keep) = config.gc_keep_epochs {
            debug_assert!(
                keep > config.prepare_staleness,
                "GC window must retain the preparation snapshots"
            );
            // Every shard crossed the batch barrier, so one retirement
            // epoch holds for all of them.
            self.store.gc_before(self.store.current_epoch().saturating_sub(keep));
        }
        outcome.stage.commit_ns = elapsed_ns(commit_start);
    }

    /// Folds the slots into the outcome, harvests the batch's counters
    /// and emits the per-transaction verdict events.
    fn assemble_outcome(&self, work: &BatchWork, rounds: &Rounds, outcome: &mut BatchOutcome) {
        let apply_start = Instant::now();
        outcome.stage.lock_waits = work.lock_waits.load(Ordering::Acquire);
        outcome.shard_stage = (rounds.shard_queue_ns.iter().zip(&work.shard_exec_ns))
            .map(|(&queue_ns, exec)| ShardStageTimings {
                queue_ns,
                execute_ns: exec.load(Ordering::Acquire),
            })
            .collect();
        for slot in &work.slots {
            sched::fold_tx(outcome, &mut slot.state.lock());
        }
        outcome.prepare_ns_total = work.prepare_ns.load(Ordering::Acquire);
        outcome.prepare_count = work.prepare_count.load(Ordering::Acquire);
        outcome.stage.apply_ns = elapsed_ns(apply_start);
        outcome.duration = work.batch_start.elapsed();
        let Some(rec) = work.hooks.recorder.as_ref().filter(|rec| rec.is_enabled()) else {
            return;
        };
        let batch = work.batch_index;
        for (i, verdict) in outcome.outcomes.iter().enumerate() {
            let (tx, committed) = (i as u64, matches!(verdict, TxOutcome::Committed));
            rec.record(|| Event::TxOutcome { batch, tx, committed });
            if let TxOutcome::Aborted { reason: AbortReason::InjectedFault(_) } = verdict {
                rec.record(|| Event::FaultInjected { batch, tx, kind: "worker_panic".to_string() });
            }
        }
        let (committed, failed) = (outcome.committed as u64, outcome.aborted as u64);
        rec.record(|| Event::BatchEnd { batch, committed, failed });
    }

    /// Stops the worker pool. Idempotent, and safe to call whether or not
    /// a batch was ever executed.
    pub fn shutdown(&self) {
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        if handles.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.generation.lock();
            self.shared.wake.notify_all();
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Phase 1 on thread `id`: runs its ROTs against the pre-batch snapshot,
/// then prepares dependent transactions from the shared queue against
/// `snapshot` (the staleness-adjusted epoch in round 1, live state in
/// retry rounds). The queuer (id 0) always prepares — in `1Q` mode it is
/// the only preparer — and the workers help in `MQ` mode.
fn prepare_phase(
    work: &BatchWork,
    id: usize,
    store: &EpochStore,
    config: &SchedulerConfig,
    snapshot: Snapshot,
) {
    run_guarded(work, || {
        while let Some(i) = work.rot_queues[id].pop() {
            run_slot(work, i, store, RunMode::Snapshot(work.snapshot_epoch));
        }
        if id == 0 || config.parallel_prepare {
            while let Some(i) = work.prepare_queue.pop() {
                let t0 = Instant::now();
                let slot = &work.slots[i as usize];
                sched::prepare(store, &slot.tx, &mut slot.state.lock(), config.prepare, snapshot);
                work.prepare_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
                work.prepare_count.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
}

/// Phase 3 on thread `id` in a pooled round 1: pops ready transactions through
/// `policy`, scanning the shards from the thread's affinity offset so the
/// threads spread over shards instead of contending on shard 0, runs them
/// and releases their slots, until the round is over. A single-shard
/// transaction lives wholly in the table it is popped from, so release
/// goes back to that same table.
///
/// The queuer passes its `duty`: each of its passes runs the cross-shard
/// exchange, then classifies one transaction of the next batch, then
/// executes — so classification overlaps the round instead of trailing
/// commit. Idle threads spin hot: parked threads pay wake-up latency on
/// every lock-chain handoff, which would serialize contended batches.
fn drain(
    work: &BatchWork,
    id: usize,
    store: &EpochStore,
    tables: &[LockTable],
    policy: &dyn ReadyPolicy,
    mut duty: Option<QueuerDuty<'_, '_>>,
) {
    run_guarded(work, || {
        let n = tables.len();
        let backoff = Backoff::new();
        // Wait-episode metric: count executing→spinning transitions, not spin
        // iterations, so the number is a coarse contention signal rather than
        // a spin-rate artifact. Wall-clock-dependent; metrics only.
        let mut waiting = false;
        while !work.round_over() {
            let (mut progress, mut classified) = (false, false);
            if let Some(duty) = duty.as_mut() {
                progress = duty.rounds.exchange_pass(work, store, tables);
                classified = duty.next.as_deref_mut().is_some_and(Classifier::step);
            }
            let popped = (0..n)
                .map(|off| (id + off) % n)
                .find_map(|t| tables[t].pop_ready_with(policy).map(|i| (t, i)));
            if let Some((t, i)) = popped {
                work.run_granted(i, store, Some(t), || tables[t].release(i));
                progress = true;
            }
            if progress {
                waiting = false;
                backoff.reset();
                continue;
            }
            if !waiting {
                waiting = true;
                work.lock_waits.fetch_add(1, Ordering::Relaxed);
            }
            if !classified {
                backoff.spin();
            }
        }
    });
}

/// Runs slot `i` through [`sched::run_tx`] and books the verdict: commit
/// time and access events, or a place on the failed (retry) list. Aborts
/// are recorded in the slot by the core.
fn run_slot(work: &BatchWork, i: TxIdx, store: &EpochStore, mode: RunMode) {
    let slot = &work.slots[i as usize];
    let mut state = slot.state.lock();
    let faults = work.hooks.faults.as_ref().map(|plan| (plan, work.batch_index, i));
    match sched::run_tx(store, &slot.tx, &mut state, mode, faults).0 {
        TxStatus::Committed(log) => {
            record_access_log(work, i, &log);
            state.finished_ns = work.now_ns().max(1);
        }
        TxStatus::Retry => work.failed.lock().push(i),
        TxStatus::Aborted => {}
    }
}

/// The worker thread body.
fn worker_loop(worker_id: usize, shared: &Shared, store: &EpochStore) {
    let config = &shared.config;
    let mut last_generation = 0u64;
    loop {
        // Wait for a new batch (or shutdown).
        {
            let mut generation = shared.generation.lock();
            while *generation == last_generation && !shared.shutdown.load(Ordering::Acquire) {
                shared.wake.wait(&mut generation);
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            last_generation = *generation;
        }
        let work = match shared.work.read().clone() {
            Some(w) => w,
            None => continue,
        };

        prepare_phase(&work, worker_id, store, config, Snapshot::Epoch(work.prepare_epoch));
        shared.barrier.wait(); // (1)
        shared.barrier.wait(); // (2) lock tables ready
        let tables = work.lock_tables.get().expect("lock tables published before phase 3");
        drain(&work, worker_id, store, tables, config.ready_policy.as_ref(), None);
        shared.barrier.wait(); // (3) the worker leaves the batch
    }
}
