//! The replicated workload: a closed loop with one batch in flight
//! through `Pipeline` (`submit` x batch, `flush`, `sync`), leg A on three
//! Raft nodes with a fsynced WAL and three replicas, leg B on one node
//! with one replica and no WAL as the baseline.

use crate::inputs::Inputs;
use crate::proc::{self, TempDir};
use crate::trace::{SpanId, Tracer};
use crate::{Opts, Report};
use prognosticator::core::{baselines, TxOutcome};
use prognosticator::{Pipeline, PipelineConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const WARMUP_BATCHES: usize = 4;

/// The pipeline under test. Everything not named here is the default:
/// `SimNet` 50-500 us one-way delay, 10 ms window, `prepare_ahead` 1, and
/// the network and election seed, which belongs to the system and not to
/// the inputs: `--seed` must not decide which node leads.
pub fn boot(inputs: &Inputs, nodes: usize, replicas: usize, wal: Option<&Path>) -> Pipeline {
    let config = PipelineConfig {
        consensus_nodes: nodes,
        batch_cap: inputs.spec.batch,
        scheduler: baselines::mq_mf(2),
        wal_dir: wal.map(Path::to_path_buf),
        ..PipelineConfig::default()
    };
    Pipeline::new(
        Arc::clone(&inputs.catalog),
        config,
        replicas,
        Arc::clone(&inputs.populate),
    )
    .expect("pipeline boots and elects a leader")
}

/// Caller batches per second of `--seconds` on leg A (3 nodes) and leg B
/// (1 node): about what this host did at the seed commit.
const BATCHES_PER_SECOND_A: f64 = 16.0;
const BATCHES_PER_SECOND_B: f64 = 30.0;
/// A leg's samples are reported per quarter of the leg.
pub const QUARTERS: usize = 4;

#[derive(Default)]
pub struct LoopStats {
    pub batches: usize,
    pub attempted: usize,
    /// Committed according to the pipeline's outcome journal.
    pub committed: usize,
    pub secs: f64,
    pub cpu_ms: f64,
    /// First `submit` of a batch until `sync` returns.
    pub commit_ms: Vec<f64>,
    /// All `submit` calls of a batch together.
    pub submit_us: Vec<f64>,
    pub flush_ms: Vec<f64>,
    pub sync_ms: Vec<f64>,
    /// When each batch's `sync` returned, in seconds since the loop began.
    pub done_s: Vec<f64>,
}

impl LoopStats {
    /// Transactions submitted per second of wall time in each quarter of
    /// the loop (all of them commit or abort; the checks hold that).
    fn quarter_tps(&self, batch: usize) -> Vec<f64> {
        let size = self.done_s.len().div_ceil(QUARTERS).max(1);
        let mut from = 0.0;
        self.done_s
            .chunks(size)
            .map(|q| {
                let until = q[q.len() - 1];
                let tps = (q.len() * batch) as f64 / (until - from);
                from = until;
                tps
            })
            .collect()
    }

    pub fn absorb(&mut self, other: LoopStats) {
        self.batches += other.batches;
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.secs += other.secs;
        self.cpu_ms += other.cpu_ms;
        self.commit_ms.extend(other.commit_ms);
        self.submit_us.extend(other.submit_us);
        self.flush_ms.extend(other.flush_ms);
        self.sync_ms.extend(other.sync_ms);
        self.done_s.extend(other.done_s);
    }
}

/// Drives `pipeline` closed-loop, one caller-flushed batch in flight.
pub fn closed_loop(
    pipeline: &mut Pipeline,
    inputs: &mut Inputs,
    batches: usize,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let committed_before = journal_counts(pipeline).0;
    let cpu = proc::cpu_ms();
    let started = Instant::now();
    for _ in 0..batches {
        let batch = inputs.gen_batch(inputs.spec.batch);
        stats.attempted += batch.len();
        let id = stats.batches as u64;
        let span = tracer.begin("pipeline.batch", parent, id);
        let t0 = Instant::now();
        let s = tracer.begin("pipeline.submit", span, id);
        for req in batch {
            pipeline
                .submit(req)
                .expect("submit is admitted and commits");
        }
        tracer.end(s);
        let t1 = Instant::now();
        let s = tracer.begin("pipeline.flush", span, id);
        pipeline.flush().expect("flush commits");
        tracer.end(s);
        let t2 = Instant::now();
        let s = tracer.begin("pipeline.sync", span, id);
        pipeline.sync().expect("every replica applies the batch");
        tracer.end(s);
        let t3 = Instant::now();
        tracer.end(span);
        stats.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        stats.flush_ms.push((t2 - t1).as_secs_f64() * 1e3);
        stats.sync_ms.push((t3 - t2).as_secs_f64() * 1e3);
        stats.commit_ms.push((t3 - t0).as_secs_f64() * 1e3);
        stats.done_s.push((t3 - started).as_secs_f64());
        stats.batches += 1;
    }
    stats.secs = started.elapsed().as_secs_f64();
    stats.cpu_ms = proc::cpu_ms() - cpu;
    stats.committed = journal_counts(pipeline).0 - committed_before;
    stats
}

/// (committed, aborted) over every batch the pipeline applied.
pub fn journal_counts(pipeline: &Pipeline) -> (usize, usize) {
    let mut counts = (0, 0);
    for outcome in pipeline.outcome_journal().iter().flatten() {
        match outcome {
            TxOutcome::Committed => counts.0 += 1,
            TxOutcome::Aborted { .. } => counts.1 += 1,
            TxOutcome::CarriedOver => {}
        }
    }
    counts
}

/// Output checks of one pipeline after its loop: accounting, replica
/// agreement. `attempted` counts every transaction ever submitted to it.
pub fn check_pipeline(pipeline: &Pipeline, attempted: usize, what: &str, report: &mut Report) {
    let (committed, aborted) = journal_counts(pipeline);
    report.check(committed + aborted == attempted, || {
        format!("{what}: committed {committed} + aborted {aborted} != attempted {attempted}")
    });
    let digests = pipeline.digests();
    report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("{what}: replica digests differ: {digests:x?}")
    });
    report.check(pipeline.shed_requests() == 0, || {
        format!("{what}: {} requests shed", pipeline.shed_requests())
    });
}

/// Crash-restarts replica `idx` and checks the recovered digest against
/// the fleet's. Returns (wall ms of the call, ms the program says it
/// spent replaying).
pub fn recover(pipeline: &mut Pipeline, idx: usize, report: &mut Report) -> (f64, f64) {
    let fleet = pipeline.digests()[0];
    let started = Instant::now();
    let recovery = pipeline.restart_replica(idx);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    report.check(
        recovery.digest == fleet && pipeline.digests()[idx] == fleet,
        || {
            format!(
                "recovered digest {:#x} differs from the fleet's {fleet:#x}",
                recovery.digest
            )
        },
    );
    (wall_ms, recovery.replay_us as f64 / 1e3)
}

fn setup_once(opts: &Opts) -> (f64, Inputs, Pipeline, TempDir, usize) {
    let wal = TempDir::new("wal");
    let started = Instant::now();
    let mut inputs = Inputs::build(opts.spec, opts.seed);
    let mut pipeline = boot(&inputs, 3, 3, Some(&wal.0));
    let warm = closed_loop(
        &mut pipeline,
        &mut inputs,
        WARMUP_BATCHES,
        &mut Tracer::new(false),
        None,
    );
    (
        started.elapsed().as_secs_f64(),
        inputs,
        pipeline,
        wal,
        warm.attempted,
    )
}

/// The untraced run: every end-to-end metric of the replicated workload.
pub fn run(opts: &Opts, report: &mut Report) {
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..opts.setups() {
        // Tear the previous instance down before booting the next one.
        drop(kept.take());
        let (secs, inputs, pipeline, wal, warm) = setup_once(opts);
        setups.push(secs);
        kept = Some((inputs, pipeline, wal, warm));
    }
    let (mut inputs, mut pipeline, _wal, warm) = kept.expect("at least one set-up");
    report.note(format!(
        "leg A: 3 Raft nodes, SimNet one-way delay 50-500 us (injected, not a real network), WAL with \
         real fsync under {}, 3 replicas, batch_cap {}, window 10 ms; closed loop, one batch in flight",
        proc::out_dir().display(),
        inputs.spec.batch
    ));
    let mut off = Tracer::new(false);
    let leg_a = closed_loop(
        &mut pipeline,
        &mut inputs,
        opts.scaled(BATCHES_PER_SECOND_A),
        &mut off,
        None,
    );
    check_pipeline(&pipeline, warm + leg_a.attempted, "leg A", report);
    let (recovery_ms, replay_ms) = recover(&mut pipeline, 1, report);
    let retries = pipeline.consensus_retries();
    pipeline.shutdown();
    drop(pipeline);

    let mut single = boot(&inputs, 1, 1, None);
    let warm_b = closed_loop(&mut single, &mut inputs, WARMUP_BATCHES, &mut off, None);
    let leg_b = closed_loop(
        &mut single,
        &mut inputs,
        opts.scaled(BATCHES_PER_SECOND_B),
        &mut off,
        None,
    );
    check_pipeline(&single, warm_b.attempted + leg_b.attempted, "leg B", report);
    single.shutdown();
    drop(single);

    report.attempted += (leg_a.attempted + leg_b.attempted) as u64;
    report.note(format!(
        "leg A {} batches, leg B (1 node, 1 replica, no WAL) {} batches; {} consensus retries",
        leg_a.batches, leg_b.batches, retries
    ));
    let batch = inputs.spec.batch;
    let quarters = |samples: &[f64]| crate::metrics::quarters(samples, QUARTERS);
    report.note(format!(
        "tps per quarter of the leg: 3 nodes {:.0?}, 1 node {:.0?}",
        leg_a.quarter_tps(batch),
        leg_b.quarter_tps(batch)
    ));
    report.put("setup_s", crate::metrics::median(&setups));
    report.put("tps", crate::metrics::median(&leg_a.quarter_tps(batch)));
    report.put("tps_b", crate::metrics::median(&leg_b.quarter_tps(batch)));
    let lat_a = report.latency(
        "first submit -> sync returns, 3 nodes",
        &quarters(&leg_a.commit_ms),
    );
    let lat_b = report.latency(
        "first submit -> sync returns, 1 node",
        &quarters(&leg_b.commit_ms),
    );
    report.put_leg_latencies(lat_a, lat_b);
    report.put("rss_mb", proc::vm_hwm_mb());
    report.extra("recovery_ms", recovery_ms, "ms");
    report.extra("recovery_replay_ms", replay_ms, "ms");
}
