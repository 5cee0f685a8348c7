//! Deterministic discrete-event simulation of the deterministic-database
//! engine over P workers.
//!
//! The paper's testbed is a 20-core Xeon over RocksDB; the evaluation
//! figures are about *scheduling* — how much parallelism each policy
//! extracts from a batch given its conflict structure. This simulator
//! walks each batch through the scheduling core
//! ([`prognosticator_core::sched`]: classification, DT preparation,
//! run-one-transaction, failed-transaction policy, outcome fold — the
//! same functions the threaded [`prognosticator_core::Engine`] calls)
//! against the real [`EpochStore`], but advances a virtual clock with an
//! explicit [`CostModel`] instead of running threads, charging time from
//! the operation counts the core returns. Results are therefore exact,
//! reproducible, and independent of the host's core count — the
//! substitution DESIGN.md §2 documents for the missing 20-core testbed.
//!
//! Each round drains the same conflict plan the engine's lock table is
//! frozen from ([`sched::plan`]). What the simulator keeps to itself is
//! what genuinely differs from the engine: the cost model, the virtual
//! clocks and a ready-heap. It shares the plan but not the engine's
//! driver — routing, ready queues, lone drainer, doom checks — so it stays the
//! reference for *round membership* in the engine≡simulator differential
//! suites. Grant order itself is checked against the plan's independent
//! per-key FIFO model (`locktable_props`) and golden's pinned virtual
//! makespans.
//!
//! All simulated durations are in nanoseconds of virtual time; a
//! [`BatchOutcome`]'s `duration` is the virtual batch makespan.

use prognosticator_core::baselines::SeqEngine;
use prognosticator_core::sched::{self, RoundAction, RunMode, Snapshot, Tx, TxState, TxStatus};
use prognosticator_core::{
    BatchOutcome, Catalog, FaultPlan, OpCounts, SchedulerConfig, TxClass, TxRequest,
};
use prognosticator_storage::EpochStore;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

/// Virtual-time costs. Defaults approximate the paper's RocksDB-behind-JNI
/// deployment on a 20-core machine.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// One store read (ns).
    pub read_ns: u64,
    /// One store write (ns).
    pub write_ns: u64,
    /// Queuer work to classify one transaction and, for ITs, predict its
    /// key-set from the profile (ns).
    pub classify_ns: u64,
    /// Queuer work per key enqueued into / released from the lock table
    /// (ns).
    pub lock_op_ns: u64,
    /// Per-phase synchronization cost (barrier crossing, ns).
    pub sync_ns: u64,
    /// Number of simulated worker threads.
    pub workers: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_ns: 5_000,
            write_ns: 6_000,
            classify_ns: 500,
            lock_op_ns: 300,
            sync_ns: 50_000,
            workers: 20,
        }
    }
}

impl CostModel {
    /// The line every exhibit prints so no reader takes its numbers for
    /// speed on this host: they are these charges summed on virtual clocks.
    pub fn time_label(&self) -> String {
        let us = |ns: u64| ns as f64 / 1000.0;
        format!(
            "time: virtual (CostModel: read {} µs, write {} µs, classify {} µs, lock op {} µs, sync {} µs)",
            us(self.read_ns),
            us(self.write_ns),
            us(self.classify_ns),
            us(self.lock_op_ns),
            us(self.sync_ns)
        )
    }

    /// Virtual time of one execution: every `GET` (buffer hits and
    /// out-of-scope reads included) and pivot validation is a read.
    fn exec_ns(&self, ops: OpCounts) -> u64 {
        (ops.gets + ops.pivot_reads) * self.read_ns + ops.puts * self.write_ns
    }

    /// Virtual time of one preparation: pivot resolutions, or every
    /// reconnaissance read that reached the store (writes are buffered
    /// client-side, and reading them back is free).
    fn prepare_ns(&self, ops: OpCounts) -> u64 {
        (ops.pivot_reads + ops.gets - ops.buffer_hits) * self.read_ns
    }

    /// The simulated `SEQ` baseline: the real [`SeqEngine`] with one
    /// virtual worker's clock in place of the wall clock.
    pub fn run_seq(&self, seq: &mut SeqEngine, batch: Vec<TxRequest>) -> BatchOutcome {
        let mut clock = 0u64;
        let mut outcome = seq.execute_batch_on(batch, |ops| {
            clock += self.exec_ns(ops);
            clock
        });
        outcome.stage.execute_ns = clock;
        outcome
    }
}

/// The index of the earliest-free of `clocks` (first on ties).
fn earliest(clocks: &[u64]) -> usize {
    (0..clocks.len()).min_by_key(|&c| clocks[c]).expect("at least one clock")
}

/// The simulated replica: real state, virtual time.
pub struct SimReplica {
    catalog: Arc<Catalog>,
    store: Arc<EpochStore>,
    config: SchedulerConfig,
    cost: CostModel,
    carry_over: Vec<TxRequest>,
    fault_plan: Option<FaultPlan>,
    batches_executed: u64,
    /// Previous batch's update-phase span, for the prepare-ahead overlap
    /// report (classification of batch `N+1` hides behind it).
    prev_execute_ns: u64,
}

impl SimReplica {
    /// Creates a simulated replica over a (pre-populated) store.
    pub fn new(
        config: SchedulerConfig,
        cost: CostModel,
        catalog: Arc<Catalog>,
        store: Arc<EpochStore>,
    ) -> Self {
        SimReplica {
            catalog,
            store,
            config,
            cost,
            carry_over: Vec::new(),
            fault_plan: None,
            batches_executed: 0,
            prev_execute_ns: 0,
        }
    }

    /// Installs (or clears) a deterministic fault-injection plan — the
    /// same plan the threaded engine takes, producing the same verdicts.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<EpochStore> {
        &self.store
    }

    /// Deterministic state digest (for engine/simulator cross-checks).
    pub fn state_digest(&self) -> u64 {
        self.store.state_digest()
    }

    /// Simulates one batch (prepending any carried-over requests) and
    /// commits its epoch on the real store.
    pub fn execute_batch(&mut self, batch: Vec<TxRequest>) -> BatchOutcome {
        let mut full = std::mem::take(&mut self.carry_over);
        full.extend(batch);
        let batch_index = self.batches_executed;
        self.batches_executed += 1;
        let mut outcome = self.run_batch(full, batch_index);
        self.carry_over = outcome.carried_over.clone();
        self.store.advance_epoch();
        outcome.stage.commit_ns = self.cost.sync_ns;
        // Prepare-ahead overlap: the single queuer classifies batch N+1
        // while batch N's update phase runs, so up to that span of this
        // batch's classification is off the critical path. Report-only —
        // the makespan is unchanged.
        outcome.stage.overlap_ns = outcome.stage.predict_ns.min(self.prev_execute_ns);
        self.prev_execute_ns = outcome.stage.execute_ns;
        outcome
    }

    /// Runs transaction `i` through the core and prices its operations.
    /// An injected fault fires at execution entry, before any store
    /// access, so it carries zero virtual cost.
    fn run(&self, tx: &mut (Tx, TxState), batch: u64, i: usize, mode: RunMode) -> (TxStatus, u64) {
        let faults = self.fault_plan.as_ref().map(|plan| (plan, batch, i as u32));
        let (status, ops) = sched::run_tx(&self.store, &tx.0, &mut tx.1, mode, faults);
        (status, self.cost.exec_ns(ops))
    }

    /// Prepares `tx` on the earliest-free of `preparers`.
    fn prepare_on(
        &self,
        tx: &mut (Tx, TxState),
        snapshot: Snapshot,
        preparers: &mut [u64],
        outcome: &mut BatchOutcome,
    ) {
        let mode = self.config.prepare;
        let ops = sched::prepare(&self.store, &tx.0, &mut tx.1, mode, snapshot);
        let prep_cost = self.cost.prepare_ns(ops);
        preparers[earliest(preparers)] += prep_cost;
        outcome.prepare_ns_total += prep_cost;
        outcome.prepare_count += 1;
    }

    /// Serial re-execution on the queuer, in client order: no locks, no
    /// preparation, no validation (nothing else runs). Returns the clock
    /// after the last transaction.
    fn run_serially(
        &self,
        txs: &mut [(Tx, TxState)],
        batch: u64,
        failed: &[usize],
        mut clock: u64,
    ) -> u64 {
        for &i in failed {
            let (status, ns) = self.run(&mut txs[i], batch, i, RunMode::Serial);
            clock += ns;
            if let TxStatus::Committed(_) = status {
                txs[i].1.finished_ns = clock.max(1);
            }
        }
        clock
    }

    /// One round's build and update phases over `members`, starting at
    /// virtual time `start`: the round's [`sched::plan`] drained by a
    /// discrete-event loop over a ready-heap and the workers' clocks.
    /// Returns the failed transactions in client order and the time the
    /// update barrier is crossed.
    fn run_round(
        &self,
        txs: &mut [(Tx, TxState)],
        members: &[usize],
        batch: u64,
        start: u64,
        outcome: &mut BatchOutcome,
    ) -> (Vec<usize>, u64) {
        let cost = &self.cost;
        // Build phase (queuer, serial): one lock op per plan entry.
        let plan = sched::plan(members.iter().map(|&i| sched::lock_keys(&txs[i].0, &txs[i].1)));
        let entries: usize = (0..plan.len()).map(|m| plan.entries(m).len()).sum();
        let build_ns = entries as u64 * cost.lock_op_ns + cost.sync_ns;
        let clock = start + build_ns;
        outcome.stage.queue_ns += build_ns;
        outcome.stage.lock_contended_keys += plan.contended_keys();

        // Update phase: discrete-event loop. A min-heap of (ready time, tx
        // index, member): the moment a member reached the head of all its
        // queues, ties broken by index (determinism).
        let mut remaining: Vec<u32> = (0..plan.len()).map(|m| plan.preds(m)).collect();
        let mut ready: BinaryHeap<Reverse<(u64, usize, usize)>> = (remaining.iter().enumerate())
            .filter(|&(_, &preds)| preds == 0)
            .map(|(m, _)| Reverse((clock, members[m], m)))
            .collect();
        let mut workers: Vec<u64> = vec![clock; cost.workers];
        let mut failed: Vec<usize> = Vec::new();
        let mut phase_end = clock;
        for _ in 0..members.len() {
            let Reverse((ready_at, i, m)) = ready.pop().expect("liveness: a ready tx exists");
            let w = earliest(&workers);
            let begin = workers[w].max(ready_at);
            // Virtual wait episode: the earliest-free worker sat idle
            // until this transaction became ready — the simulator's
            // deterministic analogue of the engine's spin episodes.
            if ready_at > workers[w] {
                outcome.stage.lock_waits += 1;
            }
            let (status, exec_cost) = self.run(&mut txs[i], batch, i, RunMode::Locked);
            let finish = begin + exec_cost;
            workers[w] = finish;
            phase_end = phase_end.max(finish);
            match status {
                TxStatus::Committed(_) => txs[i].1.finished_ns = finish.max(1),
                TxStatus::Retry => {
                    outcome.aborts += 1;
                    if txs[i].1.first_fail_ns == 0 {
                        txs[i].1.first_fail_ns = finish.max(1);
                    }
                    failed.push(i);
                }
                // Final verdict: locks still release below, so
                // successors unblock exactly as on commit.
                TxStatus::Aborted => {}
            }
            // Release locks: successors whose queues all reached them
            // become ready at `finish`.
            for entry in plan.entries(m).iter().filter(|e| e.next != sched::NO_NEXT) {
                let succ = entry.next as usize;
                remaining[succ] -= 1;
                if remaining[succ] == 0 {
                    ready.push(Reverse((finish, members[succ], succ)));
                }
            }
        }
        let clock = phase_end + cost.sync_ns;
        outcome.stage.execute_ns += clock - (start + build_ns);
        failed.sort_unstable();
        (failed, clock)
    }

    fn run_batch(&self, batch: Vec<TxRequest>, batch_index: u64) -> BatchOutcome {
        let cost = &self.cost;
        let config = &self.config;
        let snapshot = self.store.snapshot_epoch();
        let prepare_epoch = snapshot.saturating_sub(config.prepare_staleness);
        let mut outcome = BatchOutcome { batch_size: batch.len(), ..BatchOutcome::default() };

        // --- Classification (queuer, serial) ---
        let mut txs: Vec<(Tx, TxState)> = batch
            .into_iter()
            .map(|req| sched::classify(config.granularity, config.prepare, &self.catalog, req))
            .collect();
        let queuer_busy_ns = txs.len() as u64 * cost.classify_ns;
        outcome.stage.predict_ns = queuer_busy_ns;
        let of_class = |class: TxClass| -> Vec<usize> {
            (0..txs.len()).filter(|&i| txs[i].0.class == class).collect()
        };
        let (rot_idxs, dt_idxs) = (of_class(TxClass::ReadOnly), of_class(TxClass::Dependent));
        let it_idxs = of_class(TxClass::Independent);

        // --- Phase 1: ROTs on workers, DT preparation (queuer ± workers) ---
        let mut worker_free = vec![0u64; cost.workers];
        for (n, &i) in rot_idxs.iter().enumerate() {
            let w = n % cost.workers;
            let (status, ns) = self.run(&mut txs[i], batch_index, i, RunMode::Snapshot(snapshot));
            // An aborted ROT (injected fault, workload bug) is not charged.
            if let TxStatus::Committed(_) = status {
                worker_free[w] += ns;
                txs[i].1.finished_ns = worker_free[w].max(1);
            }
        }
        // Prepare tasks: greedy to the earliest-free preparer. The queuer
        // starts after classification; workers (MQ only) after their ROTs.
        let mut preparers: Vec<u64> = if config.parallel_prepare {
            worker_free.iter().copied().chain([queuer_busy_ns]).collect()
        } else {
            vec![queuer_busy_ns]
        };
        for &i in &dt_idxs {
            self.prepare_on(&mut txs[i], Snapshot::Epoch(prepare_epoch), &mut preparers, &mut outcome);
        }
        let phase1_end =
            worker_free.iter().chain(&preparers).copied().max().unwrap_or(0) + cost.sync_ns;

        // --- Rounds ---
        let mut clock = phase1_end;
        let mut members: Vec<usize> = dt_idxs.iter().chain(&it_idxs).copied().collect();
        loop {
            outcome.rounds += 1;
            // Slots aborted during preparation carry no prediction and
            // their verdict is final — exclude them, deterministically,
            // exactly as the engine does each round.
            members.retain(|&i| txs[i].1.aborted.is_none());

            let failed;
            (failed, clock) = self.run_round(&mut txs, &members, batch_index, clock, &mut outcome);

            // Failed handling.
            let any_failed = !failed.is_empty();
            match sched::after_round(config.failed, outcome.rounds, config.max_rounds, any_failed) {
                RoundAction::Done => break,
                RoundAction::CarryOver => {
                    outcome.carried_over.extend(failed.iter().map(|&i| txs[i].0.req.clone()));
                    break;
                }
                RoundAction::Serial => {
                    let serial_end = self.run_serially(&mut txs, batch_index, &failed, clock);
                    outcome.stage.execute_ns += serial_end - clock;
                    clock = serial_end;
                    break;
                }
                RoundAction::Reenqueue => {
                    // Re-prepare against live state (queuer ± workers,
                    // all idle at `clock`).
                    let idle = if config.parallel_prepare { cost.workers + 1 } else { 1 };
                    let mut preparers = vec![clock; idle];
                    for &i in &failed {
                        self.prepare_on(&mut txs[i], Snapshot::Live, &mut preparers, &mut outcome);
                    }
                    clock = preparers.into_iter().max().expect("preparer") + cost.sync_ns;
                    members = failed;
                }
            }
        }

        outcome.duration = Duration::from_nanos(clock);
        // All preparation work (initial DT prep + any re-prepare rounds)
        // counts toward the queue stage.
        outcome.stage.queue_ns += outcome.prepare_ns_total;
        for (_, state) in &mut txs {
            sched::fold_tx(&mut outcome, state);
        }
        outcome
    }
}
