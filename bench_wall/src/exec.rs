//! The exec workloads: a fixed pre-generated log replayed closed-loop
//! through the real threaded engine, leg A on one shard and leg B on four.

use crate::inputs::Inputs;
use crate::proc;
use crate::trace::{SpanId, Tracer};
use crate::{Opts, Report};
use prognosticator::core::{baselines, BatchOutcome, Replica, SchedulerConfig, TxRequest};
use std::sync::Arc;
use std::time::Instant;

/// Batches executed before the first timed operation of a set-up.
const WARMUP_BATCHES: usize = 8;
/// Length of the prefix whose digest is compared with a one-worker replay.
const CHECK_PREFIX: usize = 32;
pub const SHARDS_B: usize = 4;

/// `mq_mf(2)` everywhere (this host has two cores), with the GC window
/// the pipeline defaults to.
pub fn scheduler(workers: usize, shards: usize) -> SchedulerConfig {
    SchedulerConfig {
        shards,
        gc_keep_epochs: Some(8),
        ..baselines::mq_mf(workers)
    }
}

pub fn fresh_replica(inputs: &Inputs, workers: usize, shards: usize) -> Replica {
    Replica::with_store(
        scheduler(workers, shards),
        Arc::clone(&inputs.catalog),
        inputs.fresh_store(),
    )
}

/// One replay of a log on a fresh store.
pub struct Replay {
    pub secs: f64,
    pub cpu_ms: f64,
    pub digest: u64,
    pub outcomes: Vec<BatchOutcome>,
}

impl Replay {
    pub fn committed(&self) -> usize {
        self.outcomes.iter().map(|o| o.committed).sum()
    }

    pub fn tps(&self) -> f64 {
        self.committed() as f64 / self.secs
    }

    /// Per-batch service time from the engine's own stage timers: the
    /// stream call returns only once the whole log is done.
    pub fn batch_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.outcomes.iter().map(|o| o.stage.busy_ns() as f64 / 1e6)
    }

    /// committed + aborted = attempted, batch by batch.
    pub fn accounts_for(&self, log: &[Vec<TxRequest>]) -> bool {
        self.outcomes.len() == log.len()
            && self.outcomes.iter().zip(log).all(|(o, batch)| {
                o.committed + o.aborted == batch.len() && o.carried_over.is_empty()
            })
    }
}

/// Replays `log` through `Replica::execute_stream(log, 1)`; only the
/// stream call is timed.
pub fn replay_stream(
    inputs: &Inputs,
    log: &[Vec<TxRequest>],
    workers: usize,
    shards: usize,
) -> Replay {
    let mut replica = fresh_replica(inputs, workers, shards);
    let batches = log.to_vec();
    let cpu = proc::cpu_ms();
    let started = Instant::now();
    let outcomes = replica.execute_stream(batches, 1);
    let secs = started.elapsed().as_secs_f64();
    let cpu_ms = proc::cpu_ms() - cpu;
    let digest = replica.state_digest();
    replica.shutdown();
    Replay {
        secs,
        cpu_ms,
        digest,
        outcomes,
    }
}

/// Batch-by-batch replay through `Engine::prepare` / `Engine::execute`,
/// timing each call from outside and recording a span around it. With
/// `alternate`, only even batches are traced, so the odd ones next to
/// them give the untraced cost under the same conditions.
pub struct Stepwise {
    pub replay: Replay,
    pub prepare_us: Vec<f64>,
    pub execute_us: Vec<f64>,
}

pub fn replay_stepwise(
    inputs: &Inputs,
    log: &[Vec<TxRequest>],
    shards: usize,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    alternate: bool,
) -> Stepwise {
    let mut replica = fresh_replica(inputs, 2, shards);
    let engine = Arc::clone(replica.engine());
    let batches = log.to_vec();
    let (mut prepare_us, mut execute_us) = (Vec::new(), Vec::new());
    let mut outcomes = Vec::with_capacity(batches.len());
    let cpu = proc::cpu_ms();
    let started = Instant::now();
    let mut off = Tracer::new(false);
    for (i, batch) in batches.into_iter().enumerate() {
        let tracer = if alternate && i % 2 == 1 {
            &mut off
        } else {
            &mut *tracer
        };
        let span = tracer.begin("core.batch", parent, i as u64);
        let s = tracer.begin("core.prepare", span, i as u64);
        let t = Instant::now();
        let prepared = engine.prepare(batch);
        prepare_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(s);
        let s = tracer.begin("core.execute", span, i as u64);
        let t = Instant::now();
        outcomes.push(engine.execute(prepared));
        execute_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(s);
        tracer.end(span);
    }
    let secs = started.elapsed().as_secs_f64();
    let cpu_ms = proc::cpu_ms() - cpu;
    let digest = replica.state_digest();
    replica.shutdown();
    Stepwise {
        replay: Replay {
            secs,
            cpu_ms,
            digest,
            outcomes,
        },
        prepare_us,
        execute_us,
    }
}

/// One set-up: SE profiling, populate, engine boot and the warm-up
/// batches. Generating the requests is the harness's work and not timed.
fn setup_once(opts: &Opts, log_batches: usize) -> (f64, Inputs, Vec<Vec<TxRequest>>) {
    let mut inputs = Inputs::build(opts.spec, opts.seed);
    let log = inputs.gen_log(log_batches);
    let started = Instant::now();
    let mut replica = fresh_replica(&inputs, 2, 1);
    replica.execute_stream(log[..WARMUP_BATCHES.min(log.len())].to_vec(), 1);
    replica.shutdown();
    let secs = inputs.explore_s + started.elapsed().as_secs_f64();
    (secs, inputs, log)
}

/// The untraced run: every end-to-end metric of an exec workload.
pub fn run(opts: &Opts, report: &mut Report) {
    let log_batches = if opts.quick {
        CHECK_PREFIX / 2
    } else {
        opts.spec.log_batches
    };
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..opts.setups() {
        let (secs, inputs, log) = setup_once(opts, log_batches);
        setups.push(secs);
        kept = Some((inputs, log));
    }
    let (inputs, log) = kept.expect("at least one set-up");
    report.note(format!(
        "log: {} batches x {} tx, closed loop, Replica::execute_stream(log, 1), fresh store per replay",
        log.len(),
        inputs.spec.batch
    ));

    let (mut leg_a, mut leg_b) = (Vec::new(), Vec::new());
    for _ in 0..opts.scaled(opts.spec.pairs_per_second) {
        leg_a.push(replay_stream(&inputs, &log, 2, 1));
        leg_b.push(replay_stream(&inputs, &log, 2, SHARDS_B));
    }

    // Output checks, outside every timed region.
    let digest = leg_a[0].digest;
    for (leg, name) in [(&leg_a, "A"), (&leg_b, "B")] {
        for r in leg {
            report.check(r.accounts_for(&log), || {
                format!("leg {name}: committed + aborted != attempted on some batch")
            });
            report.check(r.digest == digest, || {
                format!(
                    "leg {name}: final digest {:#x} differs from leg A's {digest:#x}",
                    r.digest
                )
            });
        }
    }
    let prefix = &log[..CHECK_PREFIX.min(log.len())];
    let reference = replay_stream(&inputs, prefix, 1, 1).digest;
    for shards in [1, SHARDS_B] {
        let got = replay_stream(&inputs, prefix, 2, shards).digest;
        report.check(got == reference, || {
            format!(
                "digest after batch {} with 2 workers, {shards} shard(s) is {got:#x}, \
                 the one-worker reference replay gives {reference:#x}",
                prefix.len()
            )
        });
    }

    let all = || leg_a.iter().chain(&leg_b);
    let committed: usize = all().map(Replay::committed).sum();
    let aborted: usize = all().flat_map(|r| &r.outcomes).map(|o| o.aborted).sum();
    report.attempted += (all().count() * log.iter().map(Vec::len).sum::<usize>()) as u64;
    report.note(format!(
        "{} replays per leg, alternating; {committed} committed, {aborted} deterministically aborted (an outcome, not a failure)",
        leg_a.len()
    ));

    let tps = |leg: &[Replay]| leg.iter().map(Replay::tps).collect::<Vec<_>>();
    let lat = |leg: &[Replay]| {
        leg.iter()
            .map(|r| r.batch_ms().collect())
            .collect::<Vec<Vec<f64>>>()
    };
    report.note(format!(
        "tps per replay: 1 shard {:.0?}, 4 shards {:.0?}",
        tps(&leg_a),
        tps(&leg_b)
    ));
    report.put("setup_s", crate::metrics::median(&setups));
    report.put("tps", crate::metrics::median(&tps(&leg_a)));
    report.put("tps_b", crate::metrics::median(&tps(&leg_b)));
    let lat_a = report.latency("batch service time, 1 shard", &lat(&leg_a));
    let lat_b = report.latency("batch service time, 4 shards", &lat(&leg_b));
    report.put_leg_latencies(lat_a, lat_b);
    report.put("rss_mb", proc::vm_hwm_mb());
}
