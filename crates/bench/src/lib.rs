#![warn(missing_docs)]
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (§IV).
//!
//! Methodology (matching the paper): batches arrive at a fixed 10 ms
//! interval; for each system we search for the largest batch size whose
//! 99th-percentile transaction latency stays below 10 ms, and report the
//! implied throughput (`batch size × 100` tx/s), together with the
//! normalized abort rate and the per-transaction prepare / re-execute
//! times. The paper runs 10 rounds and discards 3 as warm-up; the defaults
//! here are scaled for laptop runs and adjustable via [`SustainConfig`]
//! (set `PROGNOSTICATOR_FAST=1` to shrink everything further).
//!
//! Binaries: `table1`, `fig3`, `fig4`, `fig5` (one per paper exhibit).

pub mod json;
pub mod sim;

use prognosticator_core::{
    baselines, BatchOutcome, Catalog, Replica, SchedulerConfig, StageTimings, TxRequest,
};
use prognosticator_core::baselines::SeqEngine;
use prognosticator_obs::Histogram;
use prognosticator_storage::{EpochStore, LatencyConfig};
use sim::{CostModel, SimReplica};
use std::sync::Arc;
use std::time::Duration;

/// Every system of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Prognosticator, parallel prepare, re-enqueue failed (best at low
    /// contention).
    MqMf,
    /// Prognosticator, parallel prepare, serial failed re-execution.
    MqSf,
    /// Prognosticator, queuer-only prepare, re-enqueue failed.
    Q1Mf,
    /// Prognosticator, queuer-only prepare, serial failed re-execution.
    Q1Sf,
    /// MQ-MF with reconnaissance instead of symbolic execution.
    MqMfR,
    /// MQ-SF with reconnaissance.
    MqSfR,
    /// 1Q-MF with reconnaissance.
    Q1MfR,
    /// 1Q-SF with reconnaissance.
    Q1SfR,
    /// Calvin with client preparation N batches (= N×10 ms) ahead.
    Calvin(u64),
    /// Table-granularity scheduling.
    Nodo,
    /// Single-threaded sequential execution.
    Seq,
}

impl SystemKind {
    /// Display name used in the generated tables.
    pub fn name(&self) -> String {
        match self {
            SystemKind::MqMf => "MQ-MF".into(),
            SystemKind::MqSf => "MQ-SF".into(),
            SystemKind::Q1Mf => "1Q-MF".into(),
            SystemKind::Q1Sf => "1Q-SF".into(),
            SystemKind::MqMfR => "MQ-MF-R".into(),
            SystemKind::MqSfR => "MQ-SF-R".into(),
            SystemKind::Q1MfR => "1Q-MF-R".into(),
            SystemKind::Q1SfR => "1Q-SF-R".into(),
            SystemKind::Calvin(n) => format!("Calvin-{}", n * 10),
            SystemKind::Nodo => "NODO".into(),
            SystemKind::Seq => "SEQ".into(),
        }
    }

    /// The scheduler configuration (None for SEQ).
    pub fn config(&self, workers: usize) -> Option<SchedulerConfig> {
        Some(match self {
            SystemKind::MqMf => baselines::mq_mf(workers),
            SystemKind::MqSf => baselines::mq_sf(workers),
            SystemKind::Q1Mf => baselines::q1_mf(workers),
            SystemKind::Q1Sf => baselines::q1_sf(workers),
            SystemKind::MqMfR => baselines::mq_mf_r(workers),
            SystemKind::MqSfR => baselines::mq_sf_r(workers),
            SystemKind::Q1MfR => baselines::q1_mf_r(workers),
            SystemKind::Q1SfR => baselines::q1_sf_r(workers),
            SystemKind::Calvin(n) => baselines::calvin(workers, *n),
            SystemKind::Nodo => baselines::nodo(workers),
            SystemKind::Seq => return None,
        })
    }

    /// The systems compared in Figures 3 and 4.
    pub fn comparison_set() -> Vec<SystemKind> {
        vec![
            SystemKind::MqMf,
            SystemKind::MqSf,
            SystemKind::Calvin(10),
            SystemKind::Calvin(20),
            SystemKind::Nodo,
            SystemKind::Seq,
        ]
    }

    /// The eight Prognosticator variants of Figure 5.
    pub fn variant_set() -> Vec<SystemKind> {
        vec![
            SystemKind::MqMf,
            SystemKind::MqSf,
            SystemKind::Q1Mf,
            SystemKind::Q1Sf,
            SystemKind::MqMfR,
            SystemKind::MqSfR,
            SystemKind::Q1MfR,
            SystemKind::Q1SfR,
        ]
    }
}

/// Sustainable-throughput search parameters.
#[derive(Debug, Clone)]
pub struct SustainConfig {
    /// Batch arrival interval (paper: 10 ms).
    pub batch_interval: Duration,
    /// p99 latency limit (paper: 10 ms).
    pub p99_limit: Duration,
    /// Warm-up batches discarded per trial (paper: 3 of 10 runs).
    pub warmup_batches: usize,
    /// Measured batches per trial (paper: 7).
    pub measure_batches: usize,
    /// Worker threads per replica.
    pub workers: usize,
    /// Largest batch size the search may try.
    pub max_batch: usize,
    /// Injected per-access store latency in wall-clock mode, emulating
    /// the paper's RocksDB (JNI) deployment — see DESIGN.md §2.
    pub store_latency: Duration,
    /// `true` (default): discrete-event simulation over
    /// [`CostModel::workers`] virtual workers — exact, host-independent
    /// reproduction of the scheduling behaviour (this host may have a
    /// single core). `false` (`PROGNOSTICATOR_WALLCLOCK=1`): drive the
    /// real threaded engine and measure wall-clock time.
    pub simulated: bool,
    /// Cost model for simulated mode.
    pub cost: CostModel,
}

impl Default for SustainConfig {
    fn default() -> Self {
        let fast = std::env::var("PROGNOSTICATOR_FAST").is_ok_and(|v| v != "0");
        SustainConfig {
            batch_interval: Duration::from_millis(10),
            p99_limit: Duration::from_millis(10),
            // Simulated batches are cheap; run enough history that even a
            // 20-batch-stale Calvin prepare reads genuinely old epochs.
            warmup_batches: if fast { 12 } else { 25 },
            measure_batches: if fast { 5 } else { 10 },
            workers: std::thread::available_parallelism().map_or(4, |p| p.get().clamp(2, 20)),
            max_batch: if fast { 1024 } else { 8192 },
            store_latency: Duration::from_micros(1),
            simulated: !std::env::var("PROGNOSTICATOR_WALLCLOCK").is_ok_and(|v| v != "0"),
            cost: CostModel::default(),
        }
    }
}

/// A deterministic request generator: batch size in, requests out.
pub type BatchGen = Box<dyn FnMut(usize) -> Vec<TxRequest>>;

/// Everything needed to stand up one system instance on a fresh database.
pub struct WorkloadSetup {
    /// The shared catalog (programs + profiles).
    pub catalog: Arc<Catalog>,
    /// Populates a fresh store at epoch 0.
    pub populate: Box<dyn Fn(&EpochStore) + Sync>,
    /// Builds a deterministic request generator from a seed.
    pub make_gen: Box<dyn Fn(u64) -> BatchGen + Sync>,
}

/// Result of measuring one system at one operating point.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Whether any batch size met the latency SLO. When `false`, the
    /// remaining fields describe the smallest probed batch (so abort
    /// behaviour is still visible, as in the paper's Fig. 3b/4b).
    pub sustainable: bool,
    /// Largest sustainable batch size found.
    pub batch_size: usize,
    /// Implied throughput (batch size / batch interval).
    pub throughput_tps: f64,
    /// Committed transactions over the measured window.
    pub committed: usize,
    /// Deterministically aborted transactions (workload bugs / injected
    /// faults) over the measured window — final, replicated verdicts.
    pub aborted: usize,
    /// Abort-and-retry events (validation failures that re-executed) over
    /// the measured window.
    pub abort_retries: usize,
    /// Abort-retry events per 100 committed transactions at that point.
    pub abort_pct: f64,
    /// p99 latency at that point (ms).
    pub p99_ms: f64,
    /// Mean prepare time per prepared transaction (µs).
    pub prepare_us: f64,
    /// Mean first-failure→commit time per re-executed transaction (µs).
    pub reexec_us: f64,
    /// Mean classification (predict) stage time per batch (µs).
    pub predict_us: f64,
    /// Mean lock-queue population (prepare + build) time per batch (µs).
    pub queue_us: f64,
    /// Mean update + failed-handling stage time per batch (µs).
    pub execute_us: f64,
    /// Mean epoch-advance + GC stage time per batch (µs).
    pub commit_us: f64,
    /// Mean prepare-ahead overlap per batch (µs): classification time
    /// hidden behind the previous batch's execution.
    pub overlap_us: f64,
    /// Fresh lock-queue allocations over the measured window (0 once the
    /// builder's recycled pools cover the working set; always 0 in
    /// simulated mode, which models no allocator).
    pub lock_fresh_allocs: u64,
    /// WAL fsyncs issued over the run (0 for purely simulated exhibits,
    /// which model no disk; populated by the durability exhibit).
    pub wal_fsyncs: u64,
    /// Snapshots installed on followers from a leader's compacted log
    /// (durability exhibit only).
    pub snapshot_installs: u64,
    /// Microseconds spent replaying the committed batch log during
    /// deterministic crash recovery (durability exhibit only).
    pub recovery_replay_us: u64,
    /// Worker wait episodes over the measured window: transitions from
    /// executing to spinning on the lock queues (deterministic
    /// idle-waits in simulated mode, wall-clock spin entries on the
    /// threaded engine).
    pub lock_waits: u64,
    /// Keys whose frozen lock queue held more than one transaction,
    /// summed over the measured batches — a pure function of batch
    /// content, identical in simulated and threaded modes.
    pub lock_contended_keys: u64,
    /// Per-stage per-batch latency distributions over the measured
    /// window (empty when a trial measured no batches).
    pub stage_hists: Vec<StageHist>,
    /// Client-level retry submissions (admission backoffs plus
    /// quarantine resubmissions) over the run; 0 for exhibits without a
    /// retrying client in the loop.
    pub client_retries: u64,
    /// Requests refused by bounded admission or health-based load
    /// shedding over the run; 0 for exhibits with unbounded admission.
    pub shed_requests: u64,
    /// Batches proposed while the replica fleet was degraded or on
    /// recovery probation; 0 for exhibits without the health monitor in
    /// the loop.
    pub degraded_batches: u64,
    /// Key-space shard count the point ran at (0 = not reported: the
    /// exhibit predates sharding or drives the single-shard simulator).
    pub shards: usize,
    /// Fraction of update transactions whose predicted key-set spanned
    /// several shards (resolved by the queuer's deterministic barrier
    /// exchange); 0.0 at one shard.
    pub cross_shard_ratio: f64,
    /// Mean per-batch lock-queue population time charged to each shard
    /// (µs), indexed by physical shard; empty for unsharded/simulated
    /// exhibits.
    pub shard_queue_us: Vec<f64>,
    /// Mean per-batch execution time charged to each shard (µs), indexed
    /// by physical shard; empty for unsharded/simulated exhibits.
    pub shard_execute_us: Vec<f64>,
    /// Connections the network front-end accepted over the run (schema
    /// v5); 0 for exhibits that drive the engine in-process.
    pub connections: u64,
    /// Clients the front-end evicted (stalled frames, wedged response
    /// sockets, drain-deadline overruns) over the run.
    pub evicted_clients: u64,
    /// Requests answered with a deterministic wire-level rejection
    /// (per-connection pipeline-depth backpressure, drain refusals).
    pub wire_rejects: u64,
    /// Open-loop served-traffic latency (ms), measured from each
    /// request's *intended* send time (coordinated-omission-safe):
    /// median.
    pub open_loop_p50_ms: f64,
    /// 99th percentile of the same distribution.
    pub open_loop_p99_ms: f64,
    /// Worst case of the same distribution.
    pub open_loop_max_ms: f64,
    /// Programs carrying an active profile specialization during the
    /// run (schema v6); 0 for static-profile exhibits.
    pub specializations_active: u64,
    /// False lock conflicts attributed over the run: keys a transaction
    /// predicted and contended on but never touched (schema v6); 0 when
    /// no adaptation collector observed the run.
    pub false_conflicts: u64,
    /// Sum of predicted key counts over committed, profile-classified
    /// transactions (schema v6); 0 without an adaptation collector.
    pub predicted_keys: u64,
    /// Sum of concretely touched key counts over the same transactions
    /// (schema v6); `predicted_keys / observed_keys` is the run's
    /// over-approximation ratio.
    pub observed_keys: u64,
}

/// Per-stage distribution of per-batch times (µs) over the measured
/// batches of a trial, summarized from a log-linear histogram
/// (`prognosticator-obs`): ≤ 12.5% relative quantile error.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageHist {
    /// Stage name: `predict`, `queue`, `execute`, or `commit`.
    pub stage: String,
    /// Median per-batch stage time (µs).
    pub p50_us: u64,
    /// 95th-percentile per-batch stage time (µs).
    pub p95_us: u64,
    /// 99th-percentile per-batch stage time (µs).
    pub p99_us: u64,
    /// Largest per-batch stage time observed (µs).
    pub max_us: u64,
}

/// Statistics of one fixed-size trial.
#[derive(Debug, Clone, Default)]
pub struct TrialStats {
    /// p99 latency across all committed transactions.
    pub p99: Duration,
    /// Committed transactions.
    pub committed: usize,
    /// Deterministically aborted transactions (final verdicts).
    pub aborted: usize,
    /// Abort-and-retry events.
    pub aborts: usize,
    /// Transactions handed back to the client (Calvin) during the
    /// measured window.
    pub carried: usize,
    /// Mean prepare µs per prepared transaction.
    pub prepare_us: f64,
    /// Mean re-execution µs per re-executed transaction.
    pub reexec_us: f64,
    /// Per-stage timers summed over the measured batches.
    pub stage: StageTimings,
    /// Per-stage per-batch latency distributions (µs) over the measured
    /// batches.
    pub stage_hists: Vec<StageHist>,
}

/// Any of the four ways the harness runs a system: threaded or
/// simulated, parallel or `SEQ`. All report a [`BatchOutcome`].
enum AnyEngine {
    Parallel(Replica),
    Seq(SeqEngine),
    Sim(SimReplica),
    SimSeq(SeqEngine, CostModel),
}

impl AnyEngine {
    fn execute(&mut self, batch: Vec<TxRequest>) -> BatchOutcome {
        match self {
            AnyEngine::Parallel(r) => r.execute_batch(batch),
            AnyEngine::Seq(e) => e.execute_batch(batch),
            AnyEngine::Sim(r) => r.execute_batch(batch),
            AnyEngine::SimSeq(e, cost) => cost.run_seq(e, batch),
        }
    }

    fn shutdown(&mut self) {
        if let AnyEngine::Parallel(r) = self {
            r.shutdown();
        }
    }
}

fn build_engine(kind: SystemKind, setup: &WorkloadSetup, cfg: &SustainConfig) -> AnyEngine {
    if cfg.simulated {
        let store = Arc::new(EpochStore::new());
        (setup.populate)(&store);
        let mut cost = cfg.cost.clone();
        cost.workers = cost.workers.max(1);
        return match kind.config(cost.workers) {
            Some(sched) => AnyEngine::Sim(SimReplica::new(
                sched,
                cost,
                Arc::clone(&setup.catalog),
                store,
            )),
            None => AnyEngine::SimSeq(SeqEngine::new(Arc::clone(&setup.catalog), store), cost),
        };
    }
    let store = Arc::new(
        EpochStore::new().with_latency(LatencyConfig::symmetric(cfg.store_latency)),
    );
    (setup.populate)(&store);
    match kind.config(cfg.workers) {
        Some(sched) => {
            AnyEngine::Parallel(Replica::with_store(sched, Arc::clone(&setup.catalog), store))
        }
        None => AnyEngine::Seq(SeqEngine::new(Arc::clone(&setup.catalog), store)),
    }
}

/// Runs one trial: fresh store, `warmup + measure` batches of `size`.
pub fn run_trial(
    kind: SystemKind,
    setup: &WorkloadSetup,
    cfg: &SustainConfig,
    size: usize,
) -> TrialStats {
    let mut engine = build_engine(kind, setup, cfg);
    let mut gen = (setup.make_gen)(0xC0FFEE);
    let mut latencies: Vec<u64> = Vec::new();
    let mut stats = TrialStats::default();
    let mut prepare_ns: u64 = 0;
    let mut prepare_n: u64 = 0;
    let mut reexec_ns: u64 = 0;
    let mut reexec_n: u64 = 0;
    let interval_ns = cfg.batch_interval.as_nanos() as u64;
    // Per-batch stage-time distributions (µs). The trial runs on one
    // thread, so a single shard suffices.
    let stage_hists: Vec<(&str, Histogram)> = ["predict", "queue", "execute", "commit"]
        .into_iter()
        .map(|name| (name, Histogram::new(1)))
        .collect();
    for batch_no in 0..cfg.warmup_batches + cfg.measure_batches {
        let outcome = engine.execute(gen(size));
        if batch_no < cfg.warmup_batches {
            continue;
        }
        for (name, hist) in &stage_hists {
            let ns = match *name {
                "predict" => outcome.stage.predict_ns,
                "queue" => outcome.stage.queue_ns,
                "execute" => outcome.stage.execute_ns,
                _ => outcome.stage.commit_ns,
            };
            hist.record(ns / 1000);
        }
        latencies.extend(&outcome.latencies_ns);
        let carried = outcome.carried_over.len();
        stats.carried += carried;
        // The paper measures latency "from the time a transaction first
        // arrives at a replica until it exits the system": a transaction
        // handed back to the client (Calvin's failed DTs) waits at least
        // one more batch interval, so charge that sample explicitly. p99
        // then tolerates < 1% carried transactions — the sustainability
        // cliff Calvin falls off as contention grows.
        for _ in 0..carried {
            latencies.push(interval_ns + interval_ns / 2);
        }
        stats.committed += outcome.committed;
        stats.aborted += outcome.aborted;
        stats.aborts += outcome.aborts;
        stats.stage.accumulate(&outcome.stage);
        prepare_ns += outcome.prepare_ns_total;
        prepare_n += outcome.prepare_count;
        reexec_ns += outcome.reexec_ns_total;
        reexec_n += outcome.reexec_count;
    }
    engine.shutdown();
    latencies.sort_unstable();
    stats.p99 = if latencies.is_empty() {
        Duration::ZERO
    } else {
        let idx = ((latencies.len() as f64) * 0.99).ceil() as usize - 1;
        Duration::from_nanos(latencies[idx.min(latencies.len() - 1)])
    };
    stats.prepare_us = if prepare_n == 0 { 0.0 } else { prepare_ns as f64 / prepare_n as f64 / 1000.0 };
    stats.reexec_us = if reexec_n == 0 { 0.0 } else { reexec_ns as f64 / reexec_n as f64 / 1000.0 };
    stats.stage_hists = stage_hists
        .iter()
        .map(|(name, hist)| {
            let s = hist.snapshot();
            StageHist {
                stage: (*name).to_owned(),
                p50_us: s.p50(),
                p95_us: s.p95(),
                p99_us: s.p99(),
                max_us: s.max,
            }
        })
        .collect();
    stats
}

/// Finds the maximum sustainable batch size (p99 < limit) by exponential
/// growth followed by bisection, and reports the operating point.
pub fn measure_sustainable(
    kind: SystemKind,
    setup: &WorkloadSetup,
    cfg: &SustainConfig,
) -> RunResult {
    let feasible = |size: usize| -> (bool, TrialStats) {
        let stats = run_trial(kind, setup, cfg, size);
        (stats.p99 <= cfg.p99_limit && stats.committed > 0, stats)
    };

    let mut best: Option<(usize, TrialStats)> = None;
    let mut first_probe: Option<(usize, TrialStats)> = None;
    let mut lo = 0usize;
    let mut hi = None;
    let mut size = 4usize.min(cfg.max_batch);
    // Exponential probe.
    loop {
        let (ok, stats) = feasible(size);
        if first_probe.is_none() {
            first_probe = Some((size, stats.clone()));
        }
        if ok {
            best = Some((size, stats));
            lo = size;
            if size >= cfg.max_batch {
                break;
            }
            size = (size * 2).min(cfg.max_batch);
        } else {
            hi = Some(size);
            break;
        }
    }
    // Bisection between lo (feasible) and hi (infeasible).
    if let Some(mut hi) = hi {
        while hi - lo > (lo / 8).max(8) {
            let mid = lo + (hi - lo) / 2;
            let (ok, stats) = feasible(mid);
            if ok {
                best = Some((mid, stats));
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    let (sustainable, best) = match best {
        Some(b) => (true, Some(b)),
        None => (false, first_probe),
    };
    match best {
        Some((size, stats)) => RunResult {
            sustainable,
            batch_size: size,
            // Committed work per arrival interval (carried-over Calvin
            // transactions only count when they actually commit).
            throughput_tps: if sustainable {
                stats.committed as f64
                    / cfg.measure_batches as f64
                    / cfg.batch_interval.as_secs_f64()
            } else {
                0.0
            },
            committed: stats.committed,
            aborted: stats.aborted,
            abort_retries: stats.aborts,
            abort_pct: if stats.committed == 0 {
                0.0
            } else {
                stats.aborts as f64 * 100.0 / stats.committed as f64
            },
            p99_ms: stats.p99.as_secs_f64() * 1000.0,
            prepare_us: stats.prepare_us,
            reexec_us: stats.reexec_us,
            predict_us: per_batch_us(stats.stage.predict_ns, cfg.measure_batches),
            queue_us: per_batch_us(stats.stage.queue_ns, cfg.measure_batches),
            execute_us: per_batch_us(stats.stage.execute_ns, cfg.measure_batches),
            commit_us: per_batch_us(stats.stage.commit_ns, cfg.measure_batches),
            overlap_us: per_batch_us(stats.stage.overlap_ns, cfg.measure_batches),
            lock_fresh_allocs: stats.stage.lock_fresh_allocs,
            lock_waits: stats.stage.lock_waits,
            lock_contended_keys: stats.stage.lock_contended_keys,
            stage_hists: stats.stage_hists,
            ..RunResult::default()
        },
        None => RunResult::default(),
    }
}

/// Mean per-batch stage time in microseconds.
fn per_batch_us(total_ns: u64, batches: usize) -> f64 {
    if batches == 0 {
        0.0
    } else {
        total_ns as f64 / batches as f64 / 1000.0
    }
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Builds the TPC-C workload setup at a given warehouse count.
pub fn tpcc_setup(warehouses: i64) -> WorkloadSetup {
    use prognosticator_workloads::{DeterministicRng, TpccConfig, TpccWorkload};
    let mut catalog = Catalog::new();
    let config = TpccConfig { warehouses, ..TpccConfig::default() };
    let workload = Arc::new(
        TpccWorkload::register(&mut catalog, config).expect("TPC-C registers"),
    );
    let catalog = Arc::new(catalog);
    let w1 = Arc::clone(&workload);
    let w2 = Arc::clone(&workload);
    WorkloadSetup {
        catalog,
        populate: Box::new(move |store| w1.populate(store)),
        make_gen: Box::new(move |seed| {
            let workload = Arc::clone(&w2);
            let mut rng = DeterministicRng::new(seed);
            Box::new(move |size| workload.gen_batch(&mut rng, size))
        }),
    }
}

/// Builds the RUBiS-C workload setup.
pub fn rubis_setup() -> WorkloadSetup {
    use prognosticator_workloads::{DeterministicRng, RubisConfig, RubisWorkload};
    let mut catalog = Catalog::new();
    let workload = Arc::new(
        RubisWorkload::register(&mut catalog, RubisConfig::default()).expect("RUBiS registers"),
    );
    let catalog = Arc::new(catalog);
    let w1 = Arc::clone(&workload);
    let w2 = Arc::clone(&workload);
    WorkloadSetup {
        catalog,
        populate: Box::new(move |store| w1.populate(store)),
        make_gen: Box::new(move |seed| {
            let workload = Arc::clone(&w2);
            let mut rng = DeterministicRng::new(seed);
            Box::new(move |size| workload.gen_batch(&mut rng, size))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_names_are_distinct_within_each_set() {
        for set in [SystemKind::comparison_set(), SystemKind::variant_set()] {
            let mut names: Vec<String> = set.iter().map(SystemKind::name).collect();
            names.sort();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before);
        }
    }

    #[test]
    fn seq_has_no_parallel_config() {
        assert!(SystemKind::Seq.config(4).is_none());
        assert!(SystemKind::MqMf.config(4).is_some());
    }

    #[test]
    fn render_table_aligns() {
        let s = render_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(s.contains("bbbb"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn small_trial_runs() {
        let setup = tpcc_setup(2);
        let cfg = SustainConfig {
            warmup_batches: 1,
            measure_batches: 2,
            workers: 2,
            max_batch: 64,
            ..SustainConfig::default()
        };
        let stats = run_trial(SystemKind::MqMf, &setup, &cfg, 32);
        assert_eq!(stats.committed, 64);
        let stats = run_trial(SystemKind::Seq, &setup, &cfg, 32);
        assert_eq!(stats.committed, 64);
    }
}
