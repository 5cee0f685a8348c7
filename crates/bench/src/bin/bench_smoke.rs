//! CI bench-smoke: a fast, deterministic pass over the simulated
//! workloads that exercises the whole measurement path and emits
//! `results/BENCH_smoke.json` with the per-stage timing fields
//! (predict/queue/execute/commit, prepare-ahead overlap) — a guardrail
//! artifact for tracking stage-level regressions across commits, not a
//! gate.
//!
//! Run: `cargo run --release -p prognosticator-bench --bin bench_smoke`

use prognosticator::{
    ClientConfig, OpenLoopConfig, Pipeline, PipelineConfig, Server, ServerConfig,
};
use prognosticator_bench::json::{snapshot_json, write_snapshot};
use prognosticator_bench::{
    render_table, rubis_setup, run_trial, tpcc_setup, RunResult, SustainConfig, SystemKind,
    WorkloadSetup,
};
use prognosticator_consensus::{
    Admission, Batcher, LogStore, NetConfig, RaftCluster, RaftTiming, RetryPolicy, U64Codec,
    WalStore,
};
use prognosticator_adapt::{AdaptConfig, Specializer, StatsCollector};
use prognosticator_core::{baselines, AdaptSink, Catalog, LogRecord, Replica, SpecializationSet};
use prognosticator_workloads::{
    AdaptiveConfig, AdaptiveWorkload, DeterministicRng, SmallBankConfig, SmallBankWorkload,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed-size trial (no sustainability search — smoke must be fast and
/// deterministic), reported through the same [`RunResult`] schema the
/// exhibit snapshots use.
fn smoke_point(kind: SystemKind, setup: &WorkloadSetup, cfg: &SustainConfig, size: usize) -> RunResult {
    let stats = run_trial(kind, setup, cfg, size);
    let batches = cfg.measure_batches as f64;
    let per_batch_us = |ns: u64| ns as f64 / batches / 1000.0;
    RunResult {
        sustainable: stats.committed > 0,
        batch_size: size,
        throughput_tps: stats.committed as f64
            / cfg.measure_batches as f64
            / cfg.batch_interval.as_secs_f64(),
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
        predict_us: per_batch_us(stats.stage.predict_ns),
        queue_us: per_batch_us(stats.stage.queue_ns),
        execute_us: per_batch_us(stats.stage.execute_ns),
        commit_us: per_batch_us(stats.stage.commit_ns),
        overlap_us: per_batch_us(stats.stage.overlap_ns),
        lock_fresh_allocs: stats.stage.lock_fresh_allocs,
        lock_waits: stats.stage.lock_waits,
        lock_contended_keys: stats.stage.lock_contended_keys,
        stage_hists: stats.stage_hists,
        ..RunResult::default()
    }
}

/// Observability-overhead guardrail: the same simulated trial, with the
/// metrics registry and flight recorders hot versus cold, must cost
/// about the same wall-clock time. The tolerance (default 5%) can be
/// widened on noisy runners via `PROGNOSTICATOR_OBS_OVERHEAD_PCT`;
/// best-of-N timing on each side filters scheduler noise.
fn obs_overhead_guard(setup: &WorkloadSetup, cfg: &SustainConfig, size: usize) {
    const ROUNDS: usize = 3;
    let time_side = |enabled: bool| -> Duration {
        prognosticator_obs::set_default_enabled(enabled);
        let mut best = Duration::MAX;
        for _ in 0..ROUNDS {
            let started = Instant::now();
            let stats = run_trial(SystemKind::MqMf, setup, cfg, size);
            assert!(stats.committed > 0, "overhead trial committed nothing");
            best = best.min(started.elapsed());
        }
        best
    };
    // Warm both paths once (allocators, lazily-built registry entries).
    let disabled = time_side(false);
    let enabled = time_side(true);
    prognosticator_obs::set_default_enabled(false);
    let limit_pct: f64 = std::env::var("PROGNOSTICATOR_OBS_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let overhead_pct =
        (enabled.as_secs_f64() / disabled.as_secs_f64() - 1.0).max(0.0) * 100.0;
    println!(
        "obs overhead: disabled {:?}, enabled {:?} ({overhead_pct:.2}% overhead, limit {limit_pct}%)",
        disabled, enabled
    );
    assert!(
        overhead_pct <= limit_pct,
        "observability overhead {overhead_pct:.2}% exceeds {limit_pct}% \
         (disabled {disabled:?} vs enabled {enabled:?})"
    );
}

/// Shard-sweep point: drives the real threaded engine (the simulator
/// does not shard) at a fixed worker count and harvests the per-shard
/// queue/execute split plus the cross-shard transaction ratio — the
/// schema-v4 fields. Deterministic: fixed seed, fixed batch count.
fn shard_sweep_point(setup: &WorkloadSetup, shards: usize, workers: usize) -> RunResult {
    const BATCHES: usize = 8;
    const SIZE: usize = 96;
    let store = Arc::new(prognosticator_storage::EpochStore::new());
    (setup.populate)(&store);
    let mut replica = Replica::with_store(
        prognosticator_core::SchedulerConfig { shards, ..baselines::mq_mf(workers) },
        Arc::clone(&setup.catalog),
        store,
    );
    let mut gen = (setup.make_gen)(0x05AA_2DE7);
    let mut committed = 0usize;
    let (mut single, mut cross) = (0u64, 0u64);
    let (mut queue_ns, mut exec_ns) = (0u64, 0u64);
    let mut shard_queue = vec![0u64; shards];
    let mut shard_exec = vec![0u64; shards];
    for _ in 0..BATCHES {
        let o = replica.execute_batch(gen(SIZE));
        committed += o.committed;
        single += o.stage.single_shard_txs;
        cross += o.stage.cross_shard_txs;
        queue_ns += o.stage.queue_ns;
        exec_ns += o.stage.execute_ns;
        assert_eq!(
            o.shard_stage.len(),
            shards,
            "engine reported {} shard-stage slots for {shards} shards",
            o.shard_stage.len()
        );
        for (s, t) in o.shard_stage.iter().enumerate() {
            shard_queue[s] += t.queue_ns;
            shard_exec[s] += t.execute_ns;
        }
    }
    replica.shutdown();
    let per_batch_us = |ns: u64| ns as f64 / BATCHES as f64 / 1000.0;
    let routed = single + cross;
    RunResult {
        sustainable: true,
        batch_size: SIZE,
        committed,
        queue_us: per_batch_us(queue_ns),
        execute_us: per_batch_us(exec_ns),
        shards,
        cross_shard_ratio: if routed == 0 { 0.0 } else { cross as f64 / routed as f64 },
        shard_queue_us: shard_queue.iter().map(|&ns| per_batch_us(ns)).collect(),
        shard_execute_us: shard_exec.iter().map(|&ns| per_batch_us(ns)).collect(),
        ..RunResult::default()
    }
}

/// Durability smoke: drives a WAL-backed consensus cluster through
/// commits, compaction, and a snapshot-served rejoin, then times a
/// deterministic replica recovery over a TPC-C batch log — populating the
/// `wal_fsyncs` / `snapshot_installs` / `recovery_replay_us` counters so
/// BENCH snapshots track durability-path regressions too.
fn durability_point(setup: &WorkloadSetup) -> RunResult {
    // WAL-backed 3-node cluster on real files under target/tmp.
    let base = std::path::PathBuf::from("target/tmp/bench-durability")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&base);
    let stores: Vec<Box<dyn LogStore<u64>>> = (0..3)
        .map(|i| {
            Box::new(WalStore::open(base.join(format!("node{i}")), U64Codec).expect("open wal"))
                as Box<dyn LogStore<u64>>
        })
        .collect();
    let c = RaftCluster::with_log_stores(
        3,
        NetConfig::default(),
        RaftTiming::default(),
        0xBE7C4,
        Vec::new(),
        stores,
    );
    let leader = c.wait_for_leader(Duration::from_secs(10)).expect("leader");
    for i in 0..4u64 {
        assert!(c.propose_until_committed(i, Duration::from_secs(10)), "entry {i}");
    }
    // Push a follower behind the compaction horizon so the heal is served
    // by InstallSnapshot rather than log replay.
    let follower = (leader + 1) % 3;
    c.net().isolate(follower);
    for i in 4..12u64 {
        assert!(c.propose_until_committed(i, Duration::from_secs(10)), "entry {i}");
    }
    c.compact_before(c.max_commit_index());
    let deadline = Instant::now() + Duration::from_secs(10);
    while c.durability_stats().store.snapshots_written == 0 {
        assert!(Instant::now() < deadline, "leader never compacted");
        std::thread::sleep(Duration::from_millis(10));
    }
    c.net().reconnect(follower);
    assert!(
        c.wait_for_committed(follower, 12, Duration::from_secs(10)),
        "follower rejoins via snapshot"
    );
    let durability = c.durability_stats();
    let committed = c.committed(leader).len();
    let mut cluster = c;
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&base);

    // Deterministic recovery: replay a committed TPC-C batch log and
    // check the recovered digest against the live run's.
    let mut gen = (setup.make_gen)(0xD1_6E57);
    let batches: Vec<_> = (0..5).map(|_| gen(32)).collect();
    let fresh = || {
        let store = Arc::new(prognosticator_storage::EpochStore::new());
        (setup.populate)(&store);
        store
    };
    let mut live = Replica::with_store(baselines::mq_mf(2), Arc::clone(&setup.catalog), fresh());
    for batch in &batches {
        live.execute_batch(batch.clone());
    }
    let digest = live.state_digest();
    live.shutdown();
    let (mut recovered, report) = Replica::recover(
        baselines::mq_mf(2),
        Arc::clone(&setup.catalog),
        fresh(),
        batches.into_iter().map(prognosticator_core::LogRecord::Batch).collect(),
        None,
        Some(digest),
    );
    recovered.shutdown();

    RunResult {
        sustainable: true,
        committed,
        wal_fsyncs: durability.store.wal_fsyncs,
        snapshot_installs: durability.snapshot_installs,
        recovery_replay_us: report.replay_us,
        ..RunResult::default()
    }
}

/// Service-loop smoke: a bounded batcher feeding a live consensus
/// cluster through a retrying client loop, with a simulated mid-run
/// degraded window that shrinks the effective admission capacity —
/// populating the `client_retries` / `shed_requests` /
/// `degraded_batches` counters (schema v3) so BENCH snapshots track
/// service-loop robustness regressions too.
fn service_loop_point() -> RunResult {
    let cluster: RaftCluster<Vec<u64>> =
        RaftCluster::new(3, NetConfig::default(), RaftTiming::default(), 0x5E11);
    cluster.wait_for_leader(Duration::from_secs(10)).expect("leader");
    let retry = RetryPolicy::default();
    const QUEUE_CAP: usize = 12;
    const DEGRADED_CAP: usize = QUEUE_CAP * 3 / 4;
    let mut batcher: Batcher<u64> = Batcher::with_queue_cap(Duration::from_secs(60), 8, QUEUE_CAP);

    let (mut client_retries, mut shed_requests, mut degraded_batches) = (0u64, 0u64, 0u64);
    let mut committed = 0usize;
    let mut propose = |batch: Vec<u64>, degraded_now: bool| {
        let n = batch.len();
        assert!(
            cluster.propose_until_committed(batch, Duration::from_secs(10)),
            "service-loop batch failed to commit"
        );
        committed += n;
        if degraded_now {
            degraded_batches += 1;
        }
    };

    for i in 0..64u64 {
        // A degraded window in the middle of the run: the client loop
        // sheds at 3/4 of the admission cap, exactly like the pipeline's
        // health-based degradation.
        let degraded_now = (24..40).contains(&i);
        let effective = if degraded_now { DEGRADED_CAP } else { QUEUE_CAP };
        let mut attempts = 0usize;
        loop {
            let refused = if batcher.queued() >= effective && effective < QUEUE_CAP {
                true // health shed: capacity shrunk below the hard cap
            } else {
                matches!(batcher.try_push(i), Admission::Rejected { .. })
            };
            if !refused {
                break;
            }
            shed_requests += 1;
            // Backpressure: drain a ready batch through consensus, back
            // off, and retry the submission.
            if let Some(batch) = batcher.take_ready().or_else(|| batcher.flush()) {
                propose(batch, degraded_now);
            }
            std::thread::sleep(retry.backoff(attempts.min(3)));
            attempts += 1;
            client_retries += 1;
        }
    }
    while let Some(batch) = batcher.take_ready() {
        propose(batch, false);
    }
    if let Some(batch) = batcher.flush() {
        propose(batch, false);
    }
    let mut cluster = cluster;
    cluster.shutdown();

    RunResult {
        sustainable: true,
        committed,
        client_retries,
        shed_requests,
        degraded_batches,
        ..RunResult::default()
    }
}

/// Served-traffic smoke: boots the real TCP front-end over a one-replica
/// pipeline and drives it with the open-loop load generator (target-rate
/// schedule, Zipfian client population, latency measured from each
/// request's *intended* send time) — populating the schema-v5
/// `connections` / `evicted_clients` / `wire_rejects` /
/// `open_loop_*_ms` fields so BENCH snapshots track the service
/// front-end alongside the engine.
fn served_traffic_point() -> RunResult {
    const SB: SmallBankConfig = SmallBankConfig { customers: 32, hotspot_pct: 25, hotspot_size: 4 };
    let mut catalog = Catalog::new();
    let bank = SmallBankWorkload::register(&mut catalog, SB).expect("smallbank registers");
    let populate = Arc::new(|store: &prognosticator_storage::EpochStore| {
        let mut scratch = Catalog::new();
        SmallBankWorkload::register(&mut scratch, SB).expect("smallbank registers").populate(store);
    });
    let pipeline = Pipeline::new(
        Arc::new(catalog),
        PipelineConfig {
            batch_window: Duration::from_millis(2),
            batch_cap: 32,
            scheduler: baselines::mq_mf(2),
            seed: 0x5E12,
            ..PipelineConfig::default()
        },
        1,
        populate,
    )
    .expect("served-traffic pipeline boots");
    let server = Server::start(
        pipeline,
        ServerConfig {
            client: ClientConfig { deadline: Duration::from_secs(2), ..ClientConfig::default() },
            ..ServerConfig::default()
        },
    )
    .expect("served-traffic server binds");

    let mut rng = DeterministicRng::new(0x10AD);
    let mut queue: Vec<prognosticator_core::TxRequest> = Vec::new();
    let cfg = OpenLoopConfig { target_rps: 400, requests: 200, ..OpenLoopConfig::default() };
    let report = prognosticator::server::loadgen::run_open_loop(
        server.addr(),
        move |_| {
            if queue.is_empty() {
                queue = bank.gen_batch(&mut rng, 32);
            }
            queue.pop().expect("non-empty batch")
        },
        &cfg,
    )
    .expect("open-loop run completes");
    let (_, server_report) = server.shutdown();

    assert_eq!(report.lost, 0, "open loop lost responses: {report:?}");
    assert_eq!(report.failed_sends, 0, "open loop failed sends: {report:?}");
    assert!(report.committed > 0, "served traffic committed nothing: {report:?}");
    assert!(!server_report.engine_panicked, "{server_report:?}");
    assert_eq!(server_report.active_connections, 0, "leaked connections: {server_report:?}");
    assert_eq!(
        server_report.requests,
        server_report.responses + server_report.dropped_responses,
        "server accounting must balance: {server_report:?}"
    );

    println!(
        "open loop: {} sent at {:.0} rps achieved (target {}), {} committed, \
         p50 {:.2}ms p99 {:.2}ms max {:.2}ms",
        report.sent,
        report.achieved_rps,
        cfg.target_rps,
        report.committed,
        report.p50_ms,
        report.p99_ms,
        report.max_ms
    );
    RunResult {
        sustainable: true,
        committed: report.committed,
        aborted: report.aborted,
        throughput_tps: report.achieved_rps,
        connections: server_report.connections,
        evicted_clients: server_report.evicted_clients,
        wire_rejects: server_report.wire_rejects,
        open_loop_p50_ms: report.p50_ms,
        open_loop_p99_ms: report.p99_ms,
        open_loop_max_ms: report.max_ms,
        ..RunResult::default()
    }
}

/// Adaptation pass: the adaptive workload (widened wide-range scans over
/// a Zipfian-hot tail) replayed twice over the identical batch stream —
/// once on static profiles, once with a mid-stream specialization swap
/// learned from the first half — populating the schema-v6
/// `specializations_active` / `false_conflicts` / `predicted_keys` /
/// `observed_keys` fields. The adaptive leg must attribute strictly
/// fewer false lock conflicts while reaching the identical digest.
fn adaptation_points() -> (RunResult, RunResult) {
    const BATCHES: usize = 12;
    const SIZE: usize = 48;
    let mut catalog = Catalog::new();
    let wl = AdaptiveWorkload::register(&mut catalog, AdaptiveConfig::default())
        .expect("adaptive registers");
    let catalog = Arc::new(catalog);
    let fresh = || {
        let store = Arc::new(prognosticator_storage::EpochStore::new());
        wl.populate(&store);
        store
    };
    let mut rng = DeterministicRng::new(0xADA_B5);
    let stream: Vec<Vec<prognosticator_core::TxRequest>> =
        (0..BATCHES).map(|_| wl.gen_batch(&mut rng, SIZE)).collect();

    // Learn a specialization set from the first half of the stream.
    let learn_collector = Arc::new(StatsCollector::new(AdaptConfig::default()));
    let mut learner = Replica::with_store(baselines::mq_mf(2), Arc::clone(&catalog), fresh());
    learner
        .engine()
        .set_adapt_sink(Some(Arc::clone(&learn_collector) as Arc<dyn AdaptSink>));
    learner.execute_stream(stream[..BATCHES / 2].to_vec(), 1);
    learner.shutdown();
    let set = Specializer::new(AdaptConfig::default())
        .propose(&learn_collector, &SpecializationSet::empty())
        .expect("the widened scan must trigger a specialization");

    // Replay the identical stream with and without the mid-stream swap.
    let run = |records: Vec<LogRecord>, specs_active: u64| -> (RunResult, u64) {
        let collector = Arc::new(StatsCollector::new(AdaptConfig::default()));
        let mut replica = Replica::with_store(baselines::mq_mf(2), Arc::clone(&catalog), fresh());
        replica.engine().set_adapt_sink(Some(Arc::clone(&collector) as Arc<dyn AdaptSink>));
        let committed =
            replica.execute_records(records, 1).iter().map(|o| o.committed).sum();
        let digest = replica.state_digest();
        replica.shutdown();
        let (mut predicted, mut observed) = (0u64, 0u64);
        for row in collector.snapshot() {
            predicted += row.predicted_keys;
            observed += row.observed_keys;
        }
        let result = RunResult {
            sustainable: true,
            batch_size: SIZE,
            committed,
            specializations_active: specs_active,
            false_conflicts: collector.false_conflicts(),
            predicted_keys: predicted,
            observed_keys: observed,
            ..RunResult::default()
        };
        (result, digest)
    };
    let static_records: Vec<LogRecord> =
        stream.iter().cloned().map(LogRecord::Batch).collect();
    let mut adaptive_records: Vec<LogRecord> =
        stream[..BATCHES / 2].iter().cloned().map(LogRecord::Batch).collect();
    adaptive_records.push(LogRecord::Specialize(set.clone()));
    adaptive_records
        .extend(stream[BATCHES / 2..].iter().cloned().map(LogRecord::Batch));

    let (static_run, static_digest) = run(static_records, 0);
    let (adaptive_run, adaptive_digest) = run(adaptive_records, set.programs.len() as u64);
    assert_eq!(
        static_digest, adaptive_digest,
        "specialization changed execution results — it may only change locking"
    );
    (static_run, adaptive_run)
}

fn main() {
    // Small, fixed trial: the point is stage coverage, not peak numbers.
    let cfg = SustainConfig {
        warmup_batches: 3,
        measure_batches: 5,
        max_batch: 128,
        ..SustainConfig::default()
    };
    let systems = [SystemKind::MqMf, SystemKind::MqSf, SystemKind::Calvin(10), SystemKind::Seq];
    let batch_size = 64usize;
    let mut groups = Vec::new();
    println!("bench smoke — simulated workloads, batch size {batch_size}, {} measured batches", cfg.measure_batches);

    for (label, setup) in [
        ("tpcc-2wh".to_string(), tpcc_setup(2)),
        ("rubis".to_string(), rubis_setup()),
    ] {
        println!("\n== {label} ==");
        let mut rows = Vec::new();
        let mut group = Vec::new();
        for kind in systems {
            let r = smoke_point(kind, &setup, &cfg, batch_size);
            assert!(r.committed > 0, "{label}/{}: smoke trial committed nothing", kind.name());
            assert!(
                !r.stage_hists.is_empty(),
                "{label}/{}: smoke trial produced no stage histograms",
                kind.name()
            );
            let exec = r
                .stage_hists
                .iter()
                .find(|h| h.stage == "execute")
                .expect("execute histogram present");
            rows.push(vec![
                kind.name(),
                r.committed.to_string(),
                format!("{:.1}", r.predict_us),
                format!("{:.1}", r.queue_us),
                format!("{:.1}", r.execute_us),
                format!("{}/{}/{}", exec.p50_us, exec.p95_us, exec.p99_us),
                format!("{:.1}", r.commit_us),
                format!("{:.1}", r.overlap_us),
                r.lock_waits.to_string(),
                r.lock_contended_keys.to_string(),
            ]);
            group.push((kind.name(), r));
        }
        print!(
            "{}",
            render_table(
                &[
                    "System",
                    "Committed",
                    "predict µs",
                    "queue µs",
                    "execute µs",
                    "exec p50/95/99",
                    "commit µs",
                    "overlap µs",
                    "waits",
                    "contended",
                ],
                &rows
            )
        );
        groups.push((label, group));
    }

    // Shard sweep: the real threaded engine across shard counts.
    // Cross-shard transactions must be observed (and resolved) whenever
    // shards > 1. The whole-batch queue+execute column is printed, not
    // asserted: whether sharding pays is a wall-clock question, and
    // `bench_wall`'s `tpcc_exec` `tps` / `tps_b` pair answers it.
    println!("\n== shard sweep ==");
    let sweep_setup = tpcc_setup(4);
    let mut sweep_rows = Vec::new();
    let mut sweep_group = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let r = shard_sweep_point(&sweep_setup, shards, 4);
        assert!(r.committed > 0, "shard-sweep/{shards}: committed nothing");
        if shards == 1 {
            assert_eq!(r.cross_shard_ratio, 0.0, "single shard cannot have cross-shard txs");
        } else {
            assert!(
                r.cross_shard_ratio > 0.0,
                "shard-sweep/{shards}: no cross-shard transactions observed"
            );
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (q, e) = (mean(&r.shard_queue_us), mean(&r.shard_execute_us));
        sweep_rows.push(vec![
            shards.to_string(),
            r.committed.to_string(),
            format!("{:.3}", r.cross_shard_ratio),
            format!("{q:.1}"),
            format!("{e:.1}"),
            format!("{:.1}", r.queue_us + r.execute_us),
        ]);
        sweep_group.push((format!("shards-{shards}"), r));
    }
    print!(
        "{}",
        render_table(
            &[
                "Shards",
                "Committed",
                "cross ratio",
                "shard queue µs",
                "shard execute µs",
                "batch queue+execute µs",
            ],
            &sweep_rows
        )
    );
    groups.push(("shard-sweep".to_string(), sweep_group));

    // Observability must be close to free: same trial, obs hot vs cold.
    println!("\n== obs overhead ==");
    obs_overhead_guard(&tpcc_setup(2), &cfg, batch_size);

    // Durability pass: WAL-backed cluster + deterministic recovery.
    println!("\n== durability ==");
    let d = durability_point(&tpcc_setup(2));
    assert!(d.wal_fsyncs > 0, "durability smoke issued no fsyncs");
    assert!(d.snapshot_installs > 0, "durability smoke installed no snapshot");
    print!(
        "{}",
        render_table(
            &["Committed", "wal fsyncs", "snapshot installs", "recovery replay µs"],
            &[vec![
                d.committed.to_string(),
                d.wal_fsyncs.to_string(),
                d.snapshot_installs.to_string(),
                d.recovery_replay_us.to_string(),
            ]]
        )
    );
    groups.push(("durability".to_string(), vec![("WAL".to_string(), d)]));

    // Service-loop pass: bounded admission + retrying client + degraded
    // window over a live consensus cluster.
    println!("\n== service loop ==");
    let s = service_loop_point();
    assert_eq!(s.committed, 64, "service loop must commit every request exactly once");
    assert!(s.shed_requests > 0, "degraded window shed no requests");
    assert!(s.client_retries > 0, "backpressure caused no client retries");
    assert!(s.degraded_batches > 0, "no batch was proposed under degradation");
    print!(
        "{}",
        render_table(
            &["Committed", "client retries", "shed requests", "degraded batches"],
            &[vec![
                s.committed.to_string(),
                s.client_retries.to_string(),
                s.shed_requests.to_string(),
                s.degraded_batches.to_string(),
            ]]
        )
    );
    groups.push(("service-loop".to_string(), vec![("client".to_string(), s)]));

    // Served-traffic pass: the real TCP front-end under open-loop load.
    println!("\n== served traffic ==");
    let t = served_traffic_point();
    print!(
        "{}",
        render_table(
            &["Committed", "connections", "evicted", "wire rejects", "p50 ms", "p99 ms", "max ms"],
            &[vec![
                t.committed.to_string(),
                t.connections.to_string(),
                t.evicted_clients.to_string(),
                t.wire_rejects.to_string(),
                format!("{:.2}", t.open_loop_p50_ms),
                format!("{:.2}", t.open_loop_p99_ms),
                format!("{:.2}", t.open_loop_max_ms),
            ]]
        )
    );
    groups.push(("served-traffic".to_string(), vec![("open-loop".to_string(), t)]));

    // Adaptation pass: identical Zipfian hot-skew stream on static vs
    // specialized profiles — the schema-v6 loop-closure guardrail.
    println!("\n== adaptation ==");
    let (a_static, a_adaptive) = adaptation_points();
    assert!(a_static.false_conflicts > 0, "static widened scan produced no false conflicts");
    assert!(
        a_adaptive.false_conflicts < a_static.false_conflicts,
        "specialization did not reduce false conflicts: {} (adaptive) vs {} (static)",
        a_adaptive.false_conflicts,
        a_static.false_conflicts
    );
    assert!(a_adaptive.specializations_active > 0, "no specialization was active");
    assert!(
        a_static.predicted_keys > a_static.observed_keys,
        "the adaptive workload must over-approximate statically"
    );
    print!(
        "{}",
        render_table(
            &["Run", "Committed", "specs", "false conflicts", "predicted", "observed"],
            &[
                vec![
                    "static".to_string(),
                    a_static.committed.to_string(),
                    a_static.specializations_active.to_string(),
                    a_static.false_conflicts.to_string(),
                    a_static.predicted_keys.to_string(),
                    a_static.observed_keys.to_string(),
                ],
                vec![
                    "adaptive".to_string(),
                    a_adaptive.committed.to_string(),
                    a_adaptive.specializations_active.to_string(),
                    a_adaptive.false_conflicts.to_string(),
                    a_adaptive.predicted_keys.to_string(),
                    a_adaptive.observed_keys.to_string(),
                ],
            ]
        )
    );
    groups.push((
        "adaptation".to_string(),
        vec![("static".to_string(), a_static), ("adaptive".to_string(), a_adaptive)],
    ));

    match write_snapshot("smoke", &snapshot_json("smoke", &groups)) {
        Ok(path) => println!("\nsnapshot: {}", path.display()),
        Err(e) => {
            eprintln!("\nsnapshot write failed: {e}");
            std::process::exit(1);
        }
    }
}
