//! The traced run: the workload's own transactions sent through every
//! layer of the stack in turn, with a span around every call into a
//! layer, and the isolated layer probes on the same inputs. Every
//! per-layer metric comes from here; end-to-end metrics never do.

use crate::exec::{self, Replay};
use crate::inputs::{Family, Inputs};
use crate::loadgen::{Answer, Leg};
use crate::metrics::{median, percentile, sorted};
use crate::proc::{self, TempDir};
use crate::replicated::{self, LoopStats};
use crate::served::{self, Stack};
use crate::trace::{self, SpanId, Tracer, LANE_REQUESTS};
use crate::{Opts, Report};
use prognosticator::consensus::raft::Record;
use prognosticator::consensus::{LogStore, NetConfig, RaftCluster, RaftTiming, WalStore};
use prognosticator::core::baselines::SeqEngine;
use prognosticator::core::{LogRecord, Replica, SchedulerConfig, TxRequest};
use prognosticator::server::wire;
use prognosticator::txir::{Key, Value};
use prognosticator::wal_codec::LogRecordCodec;
use prognosticator::PipelineConfig;
use prognosticator_obs::Registry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

fn counter(name: &str) -> u64 {
    Registry::global().counter(name).get()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn pct_of(samples: &[f64], p: f64) -> f64 {
    percentile(&sorted(samples.to_vec()), p)
}

/// Share by which the traced side is slower than the untraced one.
fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced - untraced) / untraced * 100.0
}

struct Ctx<'a> {
    opts: &'a Opts,
    inputs: Inputs,
    tracer: Tracer,
    root: Option<SpanId>,
    report: &'a mut Report,
    own_overhead_pct: f64,
    /// Process CPU per 1 000 committed transactions on the workload's own pass.
    own_cpu_ms_per_ktx: f64,
}

impl Ctx<'_> {
    /// Pass sizes, in units of work at the default `--seconds`: the
    /// workload's own path gets the long pass.
    fn size(&self, family: Family, own: usize, other: usize) -> usize {
        if self.opts.quick {
            return 8;
        }
        let units = if self.opts.spec.family == family {
            own
        } else {
            other
        };
        self.opts.scaled(units as f64 / crate::RUN_SECONDS).max(8)
    }
}

pub fn run(opts: &Opts, report: &mut Report) {
    let mut tracer = Tracer::new(true);
    let root = tracer.begin("bench.traced_run", None, 0);
    let s = tracer.begin("symexec.explore", root, 0);
    let inputs = Inputs::build(opts.spec, opts.seed);
    tracer.end(s);
    report.put("symexec.explore_s", inputs.explore_s);
    let mut ctx = Ctx {
        opts,
        inputs,
        tracer,
        root,
        report,
        own_overhead_pct: 0.0,
        own_cpu_ms_per_ktx: 0.0,
    };

    let keys = symexec_pass(&mut ctx);
    engine_pass(&mut ctx);
    storage_pass(&mut ctx, &keys);
    consensus_pass(&mut ctx);
    pipeline_pass(&mut ctx);
    server_pass(&mut ctx);

    let Ctx {
        mut tracer,
        report,
        own_overhead_pct,
        own_cpu_ms_per_ktx,
        ..
    } = ctx;
    tracer.end(root);
    report.put("proc.cpu_ms_per_ktx", own_cpu_ms_per_ktx);
    report.put("trace.overhead_pct", own_overhead_pct);
    let root = root.expect("tracing is on");
    report.put(
        "trace.self_time_cover_pct",
        trace::self_time_cover_pct(tracer.spans(), root),
    );
    let failed_pct = report.failed as f64 / report.attempted.max(1) as f64 * 100.0;
    report.put("failed_pct", failed_pct);
    let wall = tracer.spans()[root as usize].end_ns as f64;
    report.note(
        "self time per span name on the call lane (span minus what its children cover):".into(),
    );
    for (name, ns) in trace::self_time_by_name(tracer.spans(), trace::LANE_CALLS) {
        report.note(format!(
            "  {name:<28} {:>10.1} ms {:>5.1} %",
            ns as f64 / 1e6,
            ns as f64 / wall * 100.0
        ));
    }
    let path = proc::out_dir().join(format!("trace-{}.jsonl", opts.spec.name));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.check(false, || format!("cannot write {}: {e}", path.display())),
    }
}

/// `Profile::predict` with pivots resolved on the live store, per program.
/// Returns the keys the predictions named, for the storage probes.
fn symexec_pass(ctx: &mut Ctx) -> Vec<Key> {
    let span = ctx.tracer.begin("symexec.predict_probe", ctx.root, 0);
    let store = ctx.inputs.fresh_store();
    let txs: Vec<TxRequest> = ctx
        .inputs
        .gen_log(ctx.size(Family::Exec, 16, 16))
        .into_iter()
        .flatten()
        .collect();
    let mut per_program: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut keys = Vec::new();
    let mut errors = 0usize;
    for req in &txs {
        let entry = ctx.inputs.catalog.entry(req.program);
        let Some(profile) = entry.profile() else {
            continue;
        };
        let mut resolver = |k: &Key| store.get_latest(k).unwrap_or(Value::Unit);
        let t = Instant::now();
        let prediction = profile.predict(&req.inputs, Some(&mut resolver));
        let us = t.elapsed().as_secs_f64() * 1e6;
        match prediction {
            Ok(p) => {
                per_program
                    .entry(entry.program().name().to_owned())
                    .or_default()
                    .push(us);
                if keys.len() < 20_000 {
                    keys.extend(p.key_set());
                }
            }
            Err(_) => errors += 1,
        }
    }
    ctx.tracer.end(span);
    ctx.report.check(errors == 0, || {
        format!("{errors} predictions failed on generated inputs")
    });
    let all: Vec<f64> = per_program.values().flatten().copied().collect();
    let mut slowest: f64 = 0.0;
    for (name, samples) in &per_program {
        let m = median(samples);
        slowest = slowest.max(m);
        ctx.report
            .extra(&format!("symexec.predict_us.{name}"), m, "us");
    }
    let profile_bytes: usize = ctx
        .inputs
        .catalog
        .iter()
        .filter_map(|(_, e)| e.profile())
        .map(|p| p.approx_size())
        .sum();
    ctx.report
        .put("symexec.profile_bytes", profile_bytes as f64);
    ctx.report.put("symexec.predict_us_per_tx", median(&all));
    ctx.report.put("symexec.predict_us_slowest", slowest);
    keys
}

fn check_replay(
    ctx: &mut Ctx,
    replay: &Replay,
    log: &[Vec<TxRequest>],
    what: &str,
    digest: Option<u64>,
) {
    ctx.report.attempted += log.iter().map(Vec::len).sum::<usize>() as u64;
    ctx.report.check(replay.accounts_for(log), || {
        format!("{what}: committed + aborted != attempted")
    });
    if let Some(expected) = digest {
        ctx.report.check(replay.digest == expected, || {
            format!(
                "{what}: digest {:#x} differs from the streamed replay's {expected:#x}",
                replay.digest
            )
        });
    }
}

/// The engine on a fixed log: streamed (stage timers), batch by batch
/// (outside timing of `prepare` / `execute`), on four shards, and through
/// `SeqEngine`, the base of the parallel speed-up.
fn engine_pass(ctx: &mut Ctx) {
    let span = ctx.tracer.begin("core.pass", ctx.root, 0);
    let batches = ctx.size(Family::Exec, ctx.opts.spec.log_batches / 2, 48);
    let log = ctx.inputs.gen_log(batches);
    let txs: usize = log.iter().map(Vec::len).sum();

    let s = ctx.tracer.begin("core.execute_stream", span, 0);
    let streamed = exec::replay_stream(&ctx.inputs, &log, 2, 1);
    ctx.tracer.end(s);
    check_replay(ctx, &streamed, &log, "streamed replay", None);
    let digest = streamed.digest;

    let own = ctx.opts.spec.family == Family::Exec;
    let s = ctx.tracer.begin("core.stepwise", span, 0);
    let stepwise = exec::replay_stepwise(&ctx.inputs, &log, 1, &mut ctx.tracer, s, own);
    ctx.tracer.end(s);
    check_replay(
        ctx,
        &stepwise.replay,
        &log,
        "batch-by-batch replay",
        Some(digest),
    );
    if own {
        // Even batches were traced, odd ones not.
        let call_us = |parity: usize| -> Vec<f64> {
            let calls = stepwise
                .prepare_us
                .iter()
                .zip(&stepwise.execute_us)
                .map(|(p, e)| p + e);
            calls.skip(parity).step_by(2).collect()
        };
        ctx.own_overhead_pct = overhead_pct(median(&call_us(1)), median(&call_us(0)));
        ctx.own_cpu_ms_per_ktx = streamed.cpu_ms / streamed.committed() as f64 * 1e3;
    }

    let s = ctx.tracer.begin("core.execute_stream_shards4", span, 0);
    let sharded = exec::replay_stream(&ctx.inputs, &log, 2, exec::SHARDS_B);
    ctx.tracer.end(s);
    check_replay(ctx, &sharded, &log, "4-shard replay", Some(digest));

    let s = ctx.tracer.begin("txir.seq_replay", span, 0);
    let prefix = &log[..log.len().min(16)];
    let mut seq = SeqEngine::new(Arc::clone(&ctx.inputs.catalog), ctx.inputs.fresh_store());
    let t = Instant::now();
    let seq_committed: usize = prefix
        .iter()
        .map(|b| seq.execute_batch(b.clone()).committed)
        .sum();
    let seq_secs = t.elapsed().as_secs_f64();
    ctx.tracer.end(s);
    ctx.tracer.end(span);

    let n = streamed.outcomes.len() as f64;
    let per_batch_us = |f: &dyn Fn(&prognosticator::core::StageTimings) -> u64| {
        streamed.outcomes.iter().map(|o| f(&o.stage)).sum::<u64>() as f64 / n / 1e3
    };
    let sum = |f: &dyn Fn(&prognosticator::core::BatchOutcome) -> u64| {
        streamed.outcomes.iter().map(f).sum::<u64>() as f64
    };
    let r = &mut *ctx.report;
    r.put(
        "core.prepare_call_us",
        mean(stepwise.prepare_us.iter().copied()),
    );
    r.put(
        "core.execute_call_us",
        mean(stepwise.execute_us.iter().copied()),
    );
    r.put("core.predict_us", per_batch_us(&|s| s.predict_ns));
    r.put("core.queue_us", per_batch_us(&|s| s.queue_ns));
    r.put("core.execute_us", per_batch_us(&|s| s.execute_ns));
    r.put("core.commit_us", per_batch_us(&|s| s.commit_ns));
    r.put("core.apply_us", per_batch_us(&|s| s.apply_ns));
    r.put("core.overlap_us", per_batch_us(&|s| s.overlap_ns));
    r.put("core.lock_waits", sum(&|o| o.stage.lock_waits) / n);
    r.put(
        "core.contended_keys",
        sum(&|o| o.stage.lock_contended_keys) / n,
    );
    // Warm = once the builder's recycled pools cover the working set.
    let warm = streamed.outcomes.iter().skip(8);
    r.put(
        "core.lock_fresh_allocs",
        warm.map(|o| o.stage.lock_fresh_allocs).sum::<u64>() as f64,
    );
    r.put("core.rounds", sum(&|o| u64::from(o.rounds)) / n);
    r.put(
        "core.retry_pct",
        sum(&|o| o.aborts as u64) / streamed.committed() as f64 * 100.0,
    );
    let per = |total: f64, count: f64| {
        if count == 0.0 {
            0.0
        } else {
            total / count / 1e3
        }
    };
    r.put(
        "core.reexec_us_per_tx",
        per(sum(&|o| o.reexec_ns_total), sum(&|o| o.reexec_count)),
    );
    r.put(
        "core.dep_prepare_us",
        per(sum(&|o| o.prepare_ns_total), sum(&|o| o.prepare_count)),
    );
    let tx_lat = sorted(
        streamed
            .outcomes
            .iter()
            .flat_map(|o| &o.latencies_ns)
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
    );
    let batch_ms = sorted(streamed.batch_ms().collect());
    r.put("core.batch_p50_ms", percentile(&batch_ms, 0.5));
    r.put("core.batch_p95_ms", percentile(&batch_ms, 0.95));
    r.put("core.tx_lat_p50_us", percentile(&tx_lat, 0.5));
    r.put("core.tx_lat_p99_us", percentile(&tx_lat, 0.99));
    r.put(
        "symexec.overapprox_ratio",
        sum(&|o| o.predicted_keys) / sum(&|o| o.observed_keys).max(1.0),
    );
    let (single, cross) = sharded.outcomes.iter().fold((0u64, 0u64), |(s, c), o| {
        (s + o.stage.single_shard_txs, c + o.stage.cross_shard_txs)
    });
    r.put(
        "core.cross_shard_ratio",
        cross as f64 / (single + cross).max(1) as f64,
    );
    let mut shard_exec = [0u64; exec::SHARDS_B];
    for o in &sharded.outcomes {
        for (slot, t) in shard_exec.iter_mut().zip(&o.shard_stage) {
            *slot += t.execute_ns;
        }
    }
    let shard_mean = shard_exec.iter().sum::<u64>() as f64 / shard_exec.len() as f64;
    r.put(
        "core.shard_exec_imbalance",
        *shard_exec.iter().max().expect("four shards") as f64 / shard_mean.max(1.0),
    );
    r.put("core.stream_tps", streamed.tps());
    r.put("core.stream_tps_shards4", sharded.tps());
    r.put("core.seq_tps", seq_committed as f64 / seq_secs);
    r.put(
        "txir.interp_us_per_tx",
        seq_secs * 1e6 / prefix.iter().map(Vec::len).sum::<usize>() as f64,
    );
    r.note(format!(
        "engine pass: {batches} batches x {} tx = {txs} tx per replay",
        ctx.opts.spec.batch
    ));
}

/// The store, populated and then aged by a replay with GC off.
fn storage_pass(ctx: &mut Ctx, keys: &[Key]) {
    let span = ctx.tracer.begin("storage.probe", ctx.root, 0);
    let log = ctx.inputs.gen_log(ctx.size(Family::Exec, 32, 32));
    let store = ctx.inputs.fresh_store();
    let config = SchedulerConfig {
        gc_keep_epochs: None,
        ..exec::scheduler(2, 1)
    };
    let mut replica =
        Replica::with_store(config, Arc::clone(&ctx.inputs.catalog), Arc::clone(&store));
    replica.execute_stream(log, 1);
    replica.shutdown();
    ctx.report.check(!keys.is_empty(), || {
        "no predicted keys to probe the store with".into()
    });
    const CALLS: usize = 100_000;

    let key_count = store.key_count();
    let versions = store.version_count();
    let t = Instant::now();
    let mut hits = 0usize;
    for key in keys.iter().cycle().take(CALLS) {
        hits += usize::from(std::hint::black_box(store.get_latest(key)).is_some());
    }
    let get_ns = t.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
    let t = Instant::now();
    let removed = store.gc_before(store.current_epoch().saturating_sub(8));
    let gc_us = t.elapsed().as_secs_f64() * 1e6;
    let digest_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(store.state_digest());
            ms(t.elapsed())
        })
        .collect();
    let t = Instant::now();
    for (i, key) in keys.iter().cycle().take(CALLS).enumerate() {
        store.put(key, Value::Int(i as i64));
    }
    let put_ns = t.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
    ctx.tracer.end(span);

    let r = &mut *ctx.report;
    r.put("storage.get_ns", get_ns);
    r.put("storage.put_ns", put_ns);
    r.put("storage.gc_us", gc_us);
    r.put("storage.digest_ms", median(&digest_ms));
    r.put("storage.keys", key_count as f64);
    r.put(
        "storage.versions_per_key",
        versions as f64 / key_count.max(1) as f64,
    );
    r.put("storage.gc_versions_removed", removed as f64);
    r.note(format!(
        "storage probe: {CALLS} gets ({hits} hits) and puts over {} predicted keys",
        keys.len()
    ));
}

/// A stand-alone 3-node cluster with the pipeline's network, timing and
/// WAL, fed the workload's batches as log records; then a bare WAL.
fn consensus_pass(ctx: &mut Ctx) {
    let span = ctx.tracer.begin("consensus.probe", ctx.root, 0);
    let proposals = ctx.size(Family::Replicated, 100, 60);
    let dir = TempDir::new("raft");
    let stores = (0..3)
        .map(|i| {
            Box::new(
                WalStore::open(dir.0.join(format!("node{i}")), LogRecordCodec).expect("WAL opens"),
            ) as Box<dyn LogStore<LogRecord>>
        })
        .collect();
    let elections = counter("raft.elections");
    let mut cluster = RaftCluster::with_log_stores(
        3,
        NetConfig::default(),
        RaftTiming::default(),
        PipelineConfig::default().seed,
        Vec::new(),
        stores,
    );
    let leader = cluster.wait_for_leader(TIMEOUT);
    ctx.report.check(leader.is_some(), || {
        "stand-alone cluster elected no leader".into()
    });
    let elections = counter("raft.elections") - elections;
    let before = cluster.durability_stats().store;
    let (mut propose_ms, mut lag_ms) = (Vec::new(), Vec::new());
    let mut txs = 0usize;
    for i in 0..proposals {
        let batch = ctx.inputs.gen_batch(ctx.opts.spec.batch);
        txs += batch.len();
        let s = ctx.tracer.begin("consensus.propose", span, i as u64);
        let t = Instant::now();
        let committed = cluster.propose_until_committed(LogRecord::Batch(batch), TIMEOUT);
        propose_ms.push(ms(t.elapsed()));
        ctx.tracer.end(s);
        let s = ctx.tracer.begin("consensus.follower_wait", span, i as u64);
        let t = Instant::now();
        let caught_up = (0..3).all(|node| cluster.wait_for_committed(node, i + 1, TIMEOUT));
        lag_ms.push(ms(t.elapsed()));
        ctx.tracer.end(s);
        ctx.report.check(committed && caught_up, || {
            format!("proposal {i} did not commit on every node")
        });
    }
    let after = cluster.durability_stats().store;
    let logs: Vec<_> = (0..3).map(|node| cluster.committed(node)).collect();
    ctx.report.check(
        logs.iter().all(|l| l.len() == proposals && *l == logs[0]),
        || "the three nodes' committed logs differ".into(),
    );
    cluster.shutdown();
    drop(cluster);

    let s = ctx.tracer.begin("consensus.wal_probe", span, 0);
    let mut wal = WalStore::open(dir.0.join("bare"), LogRecordCodec).expect("WAL opens");
    let appends: Vec<f64> = (1..=proposals as u64)
        .map(|id| {
            let rec = Record {
                term: 1,
                id,
                payload: Some(LogRecord::Batch(ctx.inputs.gen_batch(ctx.opts.spec.batch))),
            };
            let t = Instant::now();
            wal.append(&rec);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    ctx.report.check(wal.records().len() == proposals, || {
        "bare WAL lost appended records".into()
    });
    drop(wal);
    ctx.tracer.end(s);
    ctx.tracer.end(span);

    let n = proposals as f64;
    let r = &mut *ctx.report;
    r.put("consensus.propose_p50_ms", pct_of(&propose_ms, 0.5));
    r.put("consensus.propose_p95_ms", pct_of(&propose_ms, 0.95));
    r.put("consensus.follower_lag_ms", pct_of(&lag_ms, 0.5));
    r.put(
        "consensus.wal_fsyncs_per_batch",
        (after.wal_fsyncs - before.wal_fsyncs) as f64 / n,
    );
    r.put(
        "consensus.wal_appends_per_batch",
        (after.wal_appends - before.wal_appends) as f64 / n,
    );
    r.put(
        "consensus.wal_bytes_per_tx",
        (after.wal_bytes - before.wal_bytes) as f64 / txs as f64,
    );
    r.put("consensus.wal_append_fsync_us", median(&appends));
    r.put("consensus.elections", elections as f64);
    r.note(format!(
        "consensus probe: {proposals} records of {} tx, 3 nodes, SimNet 50-500 us injected delay, WAL fsync is this sandbox's, not a device's; propose {}",
        ctx.opts.spec.batch,
        crate::metrics::describe(&propose_ms, "ms")
    ));
}

/// The replicated pipeline, caller-flushed, then recovery, then one node.
fn pipeline_pass(ctx: &mut Ctx) {
    let span = ctx.tracer.begin("pipeline.pass", ctx.root, 0);
    let own = ctx.opts.spec.family == Family::Replicated;
    let batches = ctx.size(Family::Replicated, 160, 50);
    let wal = TempDir::new("wal");
    let (admitted, cuts) = (counter("batcher.admitted"), counter("batcher.batches_cut"));
    let s = ctx.tracer.begin("pipeline.boot", span, 0);
    let mut pipeline = replicated::boot(&ctx.inputs, 3, 3, Some(&wal.0));
    ctx.tracer.end(s);

    // Untraced and traced chunks alternate on the one pipeline, because
    // a batch's cost grows with the length of the committed log.
    let mut traced = LoopStats::default();
    let mut untraced = LoopStats::default();
    let chunk = if own { 20 } else { batches };
    let mut done = 0;
    while done < batches {
        if own {
            let part = replicated::closed_loop(
                &mut pipeline,
                &mut ctx.inputs,
                chunk,
                &mut Tracer::new(false),
                None,
            );
            untraced.absorb(part);
            done += chunk;
        }
        let s = ctx.tracer.begin("pipeline.closed_loop", span, done as u64);
        let part =
            replicated::closed_loop(&mut pipeline, &mut ctx.inputs, chunk, &mut ctx.tracer, s);
        ctx.tracer.end(s);
        traced.absorb(part);
        done += chunk;
    }
    if own {
        ctx.own_overhead_pct = overhead_pct(
            pct_of(&untraced.commit_ms, 0.5),
            pct_of(&traced.commit_ms, 0.5),
        );
        ctx.own_cpu_ms_per_ktx = traced.cpu_ms / traced.committed as f64 * 1e3;
    }
    let attempted = traced.attempted + untraced.attempted;
    ctx.report.attempted += attempted as u64;
    replicated::check_pipeline(&pipeline, attempted, "3-node pipeline", ctx.report);
    let durability = pipeline.durability();
    let stage = *pipeline.stage_totals();
    let (admitted, cuts) = (
        counter("batcher.admitted") - admitted,
        counter("batcher.batches_cut") - cuts,
    );
    let s = ctx.tracer.begin("pipeline.restart_replica", span, 0);
    let (recovery_ms, replay_ms) = replicated::recover(&mut pipeline, 1, ctx.report);
    ctx.tracer.end(s);
    let (retries, shed) = (pipeline.consensus_retries(), pipeline.shed_requests());
    pipeline.shutdown();
    drop(pipeline);

    let s = ctx.tracer.begin("pipeline.single_node", span, 0);
    let mut single = replicated::boot(&ctx.inputs, 1, 1, None);
    let base = replicated::closed_loop(
        &mut single,
        &mut ctx.inputs,
        batches / 2,
        &mut ctx.tracer,
        s,
    );
    ctx.report.attempted += base.attempted as u64;
    replicated::check_pipeline(&single, base.attempted, "single-node pipeline", ctx.report);
    single.shutdown();
    drop(single);
    ctx.tracer.end(s);
    ctx.tracer.end(span);

    let total_batches = (traced.batches + untraced.batches) as f64;
    let r = &mut *ctx.report;
    r.put("pipeline.tps", traced.committed as f64 / traced.secs);
    r.put("pipeline.commit_p50_ms", pct_of(&traced.commit_ms, 0.5));
    r.put("pipeline.commit_p95_ms", pct_of(&traced.commit_ms, 0.95));
    r.put(
        "pipeline.submit_us_per_tx",
        mean(traced.submit_us.iter().copied()) / ctx.opts.spec.batch as f64,
    );
    r.put("pipeline.flush_p50_ms", pct_of(&traced.flush_ms, 0.5));
    r.put("pipeline.sync_p50_ms", pct_of(&traced.sync_ms, 0.5));
    r.put("pipeline.sync_p95_ms", pct_of(&traced.sync_ms, 0.95));
    // Engine time per caller batch on one replica, from the stage totals
    // summed over the three replicas.
    r.put(
        "pipeline.apply_us_per_batch",
        stage.busy_ns() as f64 / 1e3 / total_batches / 3.0,
    );
    r.put(
        "pipeline.single_node_commit_p50_ms",
        pct_of(&base.commit_ms, 0.5),
    );
    r.put("pipeline.recovery_ms", recovery_ms);
    r.put("pipeline.recovery_replay_ms", replay_ms);
    r.put("pipeline.consensus_retries", retries as f64);
    r.put("pipeline.shed_requests", shed as f64);
    r.put("consensus.batch_fill", admitted as f64 / cuts.max(1) as f64);
    r.extra(
        "pipeline.wal_fsyncs_per_batch",
        durability.store.wal_fsyncs as f64 / total_batches,
        "ratio",
    );
    r.note(format!(
        "pipeline pass: {} caller batches of {} tx became {cuts} log records; commit {}",
        total_batches,
        ctx.opts.spec.batch,
        crate::metrics::describe(&traced.commit_ms, "ms")
    ));
}

fn request_spans(tracer: &mut Tracer, parent: Option<SpanId>, leg: &Leg) {
    let at = |ns: u64| leg.start + Duration::from_nanos(ns);
    for (k, r) in leg.requests.iter().enumerate() {
        let Some((answered, _)) = r.answer else {
            continue;
        };
        let id = k as u64;
        let req = tracer.add(
            "request",
            parent,
            id,
            LANE_REQUESTS,
            at(r.due_ns),
            at(answered),
        );
        tracer.add(
            "loadgen.late",
            req,
            id,
            LANE_REQUESTS,
            at(r.due_ns),
            at(r.sent_ns),
        );
        tracer.add(
            "server.request",
            req,
            id,
            LANE_REQUESTS,
            at(r.sent_ns),
            at(answered),
        );
    }
}

/// The TCP front-end: idle round trips, then the open loop. On the
/// served workload the loop climbs the rate ladder to the first miss.
fn server_pass(ctx: &mut Ctx) {
    let span = ctx.tracer.begin("server.pass", ctx.root, 0);
    let own = ctx.opts.spec.family == Family::Served;
    let retries = counter("client.retries");
    let s = ctx.tracer.begin("server.boot", span, 0);
    let mut stack = Stack::boot(&ctx.inputs);
    ctx.tracer.end(s);

    let calls = ctx.size(Family::Served, 100, 50);
    let calls = served::requests(&mut ctx.inputs, calls);
    ctx.report.attempted += calls.len() as u64;
    let s = ctx.tracer.begin("server.rtt_idle", span, 0);
    let rtt = stack.calls(calls);
    ctx.tracer.end(s);

    let leg_secs = if ctx.opts.quick {
        0.5
    } else {
        4.0 * ctx.opts.seconds / crate::RUN_SECONDS
    };
    let run_leg = |ctx: &mut Ctx, rate: u64, stack: &mut Stack| {
        let batch = served::requests(&mut ctx.inputs, (rate as f64 * leg_secs) as usize);
        let s = ctx.tracer.begin("loadgen.leg", span, rate);
        let leg = stack.leg(&batch, rate);
        ctx.tracer.end(s);
        served::check_leg(&leg, ctx.report);
        leg
    };
    let account = |ctx: &mut Ctx, leg: &Leg| {
        ctx.report.attempted += leg.requests.len() as u64;
        ctx.report.failed += leg.failed() as u64;
    };
    let cpu = proc::cpu_ms();
    let first = run_leg(ctx, ctx.opts.spec.probe_rps, &mut stack);
    let cpu_ms = proc::cpu_ms() - cpu;
    account(ctx, &first);
    // The generator takes its timestamps whether or not a trace is kept;
    // tracing adds only the assembly of the spans after the leg.
    let t = Instant::now();
    request_spans(&mut ctx.tracer, span, &first);
    if own {
        ctx.own_overhead_pct = t.elapsed().as_secs_f64() / first.send_secs * 100.0;
        ctx.own_cpu_ms_per_ktx = cpu_ms / first.count(Answer::Committed).max(1) as f64 * 1e3;
    }
    let lat = sorted(first.latency_ms());
    let late = sorted(first.late_ms());
    let achieved_pct = first.achieved_rps() / first.rate as f64 * 100.0;

    if own {
        // Rates above leg B overload the server on purpose: refusals
        // there are the finding, not failed operations of the workload.
        let mut legs = vec![first];
        for &rate in &served::LADDER[1..] {
            if served::meets_limit(&legs[legs.len() - 1]).is_err() {
                break;
            }
            let leg = run_leg(ctx, rate, &mut stack);
            if rate <= served::RATE_B {
                account(ctx, &leg);
            }
            legs.push(leg);
        }
        let mut max_ok = 0;
        for leg in &legs {
            let rate = leg.rate;
            let lat = sorted(leg.latency_ms());
            let refused = leg.failed() as f64;
            let r = &mut *ctx.report;
            r.extra(&format!("lat_p50_ms_r{rate}"), percentile(&lat, 0.5), "ms");
            r.extra(&format!("lat_p95_ms_r{rate}"), percentile(&lat, 0.95), "ms");
            r.extra(
                &format!("server.lat_p99_ms_r{rate}"),
                percentile(&lat, 0.99),
                "ms",
            );
            r.extra(
                &format!("server.reject_pct_r{rate}"),
                refused / leg.requests.len() as f64 * 100.0,
                "%",
            );
            r.extra(
                &format!("loadgen.late_p99_ms_r{rate}"),
                pct_of(&leg.late_ms(), 0.99),
                "ms",
            );
            match served::meets_limit(leg) {
                Ok(()) => max_ok = rate,
                Err(why) => r.note(format!("{rate} rps misses the limit: {why}")),
            }
        }
        ctx.report.extra("max_ok_rps", max_ok as f64, "1/s");
    }

    let s = ctx.tracer.begin("server.shutdown", span, 0);
    let books = stack.shutdown(ctx.report);
    ctx.tracer.end(s);

    let s = ctx.tracer.begin("server.wire_probe", span, 0);
    let sample = served::requests(&mut ctx.inputs, 10_000);
    let t = Instant::now();
    let frames: Vec<Vec<u8>> = sample
        .iter()
        .enumerate()
        .map(|(i, req)| wire::encode_request(i as u64, req))
        .collect();
    let encode_ns = t.elapsed().as_secs_f64() * 1e9 / sample.len() as f64;
    let mut stream: Vec<u8> = frames.concat();
    let t = Instant::now();
    let mut decoded = 0usize;
    while let Ok(Some(payload)) = wire::try_extract_frame(&mut stream, wire::DEFAULT_MAX_FRAME) {
        decoded += usize::from(matches!(
            wire::decode_payload(&payload),
            Ok(wire::WirePayload::Request { .. })
        ));
    }
    let decode_ns = t.elapsed().as_secs_f64() * 1e9 / sample.len() as f64;
    ctx.report.check(decoded == sample.len(), || {
        format!("wire probe decoded {decoded} of {} frames", sample.len())
    });
    ctx.tracer.end(s);
    ctx.tracer.end(span);

    let r = &mut *ctx.report;
    r.put(
        "client.retries",
        (counter("client.retries") - retries) as f64,
    );
    r.put("server.wire_encode_ns", encode_ns);
    r.put("server.wire_decode_ns", decode_ns);
    r.put("server.rtt_idle_p50_ms", pct_of(&rtt, 0.5));
    r.put("server.lat_p50_ms", percentile(&lat, 0.5));
    r.put("server.lat_p95_ms", percentile(&lat, 0.95));
    r.put("server.lat_p99_ms", percentile(&lat, 0.99));
    r.put(
        "server.lat_max_ms",
        *lat.last().expect("the open loop got answers"),
    );
    r.put("server.wire_rejects", books.wire_rejects as f64);
    r.put("server.dropped_responses", books.dropped_responses as f64);
    r.put("server.engine_unresolved", books.engine_unresolved as f64);
    r.put("server.evicted_clients", books.evicted_clients as f64);
    r.put("loadgen.late_p99_ms", percentile(&late, 0.99));
    r.put("loadgen.achieved_rps_pct", achieved_pct);
    r.note(format!(
        "server pass: idle round trip {}; open loop at {} rps for {leg_secs} s, latency {}",
        crate::metrics::describe(&rtt, "ms"),
        ctx.opts.spec.probe_rps,
        crate::metrics::describe(&lat, "ms")
    ));
}
