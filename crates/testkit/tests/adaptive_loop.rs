//! End-to-end oracle for the adaptive-prediction loop (DESIGN.md §12).
//!
//! Claim under test: runtime feedback closes the loop. The adaptive
//! workload's `wide_scan` carries a deliberately widened static profile
//! (full `SLOT_SPAN` hull), so a pipeline running it accumulates
//! false lock conflicts on the hot tail slots its scans predict but
//! never touch. With adaptation enabled the controller must
//!
//! 1. observe the over-approximation and commit a `RangeNarrow`
//!    specialization for `wide_scan` through consensus as a
//!    [`LogRecord::Specialize`] entry mid-stream,
//! 2. keep the specialized profiles sound (the specialized soundness
//!    sweep passes on an independent stream),
//! 3. measurably reduce false lock conflicts versus a static replay of
//!    the same committed batches,
//! 4. change *nothing* about execution results: digests stay
//!    byte-identical with adaptation on vs off, across worker counts,
//!    shard counts, and seeds, and
//! 5. survive a crash: recovery replays the committed log *including*
//!    the swap entry and lands on the pre-crash digest.

use prognosticator::{Pipeline, PipelineConfig};
use prognosticator_adapt::{AdaptConfig, Specializer, StatsCollector};
use prognosticator_core::{
    baselines, AdaptSink, LogRecord, Replica, SchedulerConfig, SpecializationSet, TxRequest,
};
use prognosticator_storage::EpochStore;
use prognosticator_symexec::ProfileSpecialization;
use std::sync::Arc;
use std::time::Duration;
use testkit::{check_specialized_soundness, TestWorkload, WorkloadKind};

const BATCHES: usize = 10;
const BATCH_SIZE: usize = 24;

/// Aggressive-but-deterministic knobs so specialization triggers within
/// a short test stream: consider templates after 4 observations, run the
/// specializer every 2 committed batches.
fn fast_adapt() -> AdaptConfig {
    AdaptConfig { min_observations: 4, interval_batches: 2, ..AdaptConfig::default() }
}

fn pipeline_config(seed: u64, adaptation: Option<AdaptConfig>) -> PipelineConfig {
    PipelineConfig {
        // Only explicit flushes cut batches, so the committed stream
        // tiles the generated one batch-for-batch.
        batch_window: Duration::from_secs(60),
        batch_cap: BATCH_SIZE,
        scheduler: baselines::mq_mf(2),
        seed,
        adaptation,
        ..PipelineConfig::default()
    }
}

/// Submits every generated batch and syncs after each, so the adaptation
/// controller gets a chance to propose between batches (a mid-stream
/// swap, not an end-of-run one).
fn pump(pipeline: &mut Pipeline, stream: &[Vec<TxRequest>]) {
    for batch in stream {
        for tx in batch {
            pipeline.submit(tx.clone()).expect("submits");
        }
        pipeline.flush().expect("flushes");
        pipeline.sync().expect("syncs");
    }
}

/// Replays a committed record stream through a fresh replica with a
/// stats collector attached, returning the final digest, the false lock
/// conflicts the replay attributed, and how many more keys it predicted
/// than it touched.
fn replay(
    workload: &TestWorkload,
    records: Vec<LogRecord>,
    workers: usize,
    shards: usize,
) -> (u64, u64, u64) {
    let collector = Arc::new(StatsCollector::new(AdaptConfig::default()));
    let mut replica = Replica::with_store(
        SchedulerConfig { shards, ..baselines::mq_mf(workers) },
        Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    replica.engine().set_adapt_sink(Some(Arc::clone(&collector) as Arc<dyn AdaptSink>));
    replica.execute_records(records, 1);
    let digest = replica.state_digest();
    replica.shutdown();
    let rows = collector.snapshot();
    let surplus = rows
        .iter()
        .map(|r| r.predicted_keys)
        .sum::<u64>()
        .saturating_sub(rows.iter().map(|r| r.observed_keys).sum());
    (digest, collector.false_conflicts(), surplus)
}

/// Strips specialization swaps, leaving the static batch stream.
fn batches_only(records: &[LogRecord]) -> Vec<LogRecord> {
    records.iter().filter(|r| matches!(r, LogRecord::Batch(_))).cloned().collect()
}

#[test]
fn adaptation_loop_closes_end_to_end() {
    let workload = TestWorkload::new(WorkloadKind::Adaptive);
    let populate: Arc<dyn Fn(&EpochStore) + Send + Sync> = {
        let wl = TestWorkload::new(WorkloadKind::Adaptive);
        Arc::new(move |store: &EpochStore| wl.populate_store(store))
    };
    let mut pipeline = Pipeline::new(
        Arc::clone(workload.catalog()),
        pipeline_config(0xC105E, Some(fast_adapt())),
        2,
        populate,
    )
    .expect("boots");

    let stream = workload.gen_stream(0xC105E, BATCHES, BATCH_SIZE);
    pump(&mut pipeline, &stream);

    // (1) A specialization committed, and it narrows the widened scan.
    let specs = pipeline.active_specializations();
    assert!(specs.version >= 1, "the controller never committed a specialization");
    let wide = specs.for_program("wide_scan").expect("wide_scan must be specialized");
    assert!(
        wide.specs
            .iter()
            .any(|s| matches!(s, ProfileSpecialization::RangeNarrow { .. })),
        "wide_scan must gain a RangeNarrow, got {:?}",
        wide.specs
    );

    // The swap sits mid-stream in the replicated log: strictly after the
    // batches that produced its statistics and before the last batch.
    let records = pipeline.live_records(0);
    let swap_pos = records
        .iter()
        .position(|r| matches!(r, LogRecord::Specialize(_)))
        .expect("a Specialize record in the committed log");
    assert!(swap_pos > 0, "swap cannot precede the batches that produced it");
    assert!(
        swap_pos < records.len() - 1,
        "swap must land mid-stream (position {swap_pos} of {})",
        records.len()
    );

    // (2) The specialized profiles stay sound on an independent stream.
    let sweep = check_specialized_soundness(WorkloadKind::Adaptive, 0x5CA1, 3, BATCH_SIZE, &specs)
        .unwrap_or_else(|e| panic!("specialized prediction under-approximated: {e}"));
    assert!(sweep.checked > 0, "degenerate sweep: nothing checked");
    assert!(
        sweep.narrowed > 0 && sweep.narrowed_dropped > 0,
        "the committed RangeNarrow never dropped a key in the sweep: {sweep:?}"
    );

    // (3) False lock conflicts drop versus the static baseline, on the
    // *same* committed batches. (4) while the digests stay identical —
    // specialization changes locking, never results.
    let fleet_digest = pipeline.digests()[0];
    let (spec_digest, spec_fc, _) = replay(&workload, records.clone(), 2, 2);
    let (static_digest, static_fc, static_surplus) =
        replay(&workload, batches_only(&records), 2, 2);
    assert_eq!(spec_digest, fleet_digest, "specialized replay diverged from the fleet");
    assert_eq!(static_digest, fleet_digest, "static replay diverged from the fleet");
    assert!(static_fc > 0, "the widened scan never produced a false conflict statically");
    assert!(static_surplus > 0, "the adaptive workload must over-approximate statically");
    assert!(
        spec_fc < static_fc,
        "specialization did not reduce false conflicts: {spec_fc} (adaptive) vs \
         {static_fc} (static)"
    );

    // (5) Crash-recovery replays the committed log *including* the swap
    // entry and must land on the pre-crash digest (restart_replica
    // panics internally on mismatch; assert the report anyway).
    let report = pipeline.restart_replica(0);
    assert_eq!(report.digest, fleet_digest, "recovery across the swap entry diverged");
    assert_eq!(
        report.batches_replayed,
        records.iter().filter(|r| r.as_batch().is_some()).count(),
        "recovery must replay every committed batch around the swap"
    );

    // The recovered replica — with the specialization re-installed from
    // the log — keeps pace with fresh traffic.
    let tail = workload.gen_stream(0x7A11, 2, BATCH_SIZE);
    pump(&mut pipeline, &tail);
    let after = pipeline.digests();
    assert_eq!(after[0], after[1], "recovered replica diverged on post-recovery traffic");
    assert_ne!(after[0], fleet_digest, "post-recovery traffic never landed");
    pipeline.shutdown();
}

/// Builds a committed record stream with a genuine mid-stream swap
/// without consensus: learn statistics from the first half of the
/// stream, propose once, splice the set between the halves.
fn records_with_midstream_swap(
    workload: &TestWorkload,
    seed: u64,
) -> (Vec<LogRecord>, SpecializationSet) {
    let stream = workload.gen_stream(seed, 8, BATCH_SIZE);
    let (first, rest) = stream.split_at(4);

    let collector = Arc::new(StatsCollector::new(fast_adapt()));
    let mut learner = Replica::with_store(
        baselines::mq_mf(2),
        Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    learner.engine().set_adapt_sink(Some(Arc::clone(&collector) as Arc<dyn AdaptSink>));
    learner.execute_stream(first.to_vec(), 1);
    learner.shutdown();

    let set = Specializer::new(fast_adapt())
        .propose(&collector, &SpecializationSet::empty())
        .expect("4 batches of the adaptive workload must trigger a proposal");
    assert_eq!(set.version, 1);
    assert!(
        set.for_program("wide_scan").is_some_and(|p| p.narrows()),
        "learned set must narrow wide_scan"
    );

    let mut records: Vec<LogRecord> =
        first.iter().cloned().map(LogRecord::Batch).collect();
    records.push(LogRecord::Specialize(set.clone()));
    records.extend(rest.iter().cloned().map(LogRecord::Batch));
    (records, set)
}

#[test]
fn specialization_determinism_matrix() {
    // Satellite determinism matrix: {1,2,4} workers × {1,2,4,8} shards ×
    // 3 seeds, digests byte-identical with adaptation on vs off across a
    // mid-stream swap, plus crash-recovery replay across the swap entry.
    let workload = TestWorkload::new(WorkloadKind::Adaptive);
    for seed in [0xD1u64, 0xD2, 0xD3] {
        let (records, _set) = records_with_midstream_swap(&workload, seed);
        let static_records = batches_only(&records);

        let (reference, _, _) = replay(&workload, records.clone(), 1, 1);
        for workers in [1usize, 2, 4] {
            for shards in [1usize, 2, 4, 8] {
                let (on, _, _) = replay(&workload, records.clone(), workers, shards);
                let (off, _, _) = replay(&workload, static_records.clone(), workers, shards);
                assert_eq!(
                    on, reference,
                    "adaptation-on digest diverged: seed={seed:#x} workers={workers} \
                     shards={shards}"
                );
                assert_eq!(
                    off, reference,
                    "adaptation-off digest diverged: seed={seed:#x} workers={workers} \
                     shards={shards}"
                );
            }
        }

        // Crash-recovery replay across the swap entry: Replica::recover
        // installs the set at its log position and panics internally if
        // the digest misses the expectation.
        let (mut recovered, report) = Replica::recover(
            SchedulerConfig { shards: 2, ..baselines::mq_mf(2) },
            Arc::clone(workload.catalog()),
            workload.fresh_store(),
            records.clone(),
            None,
            Some(reference),
        );
        assert_eq!(report.digest, reference);
        assert_eq!(report.batches_replayed, static_records.len());
        recovered.shutdown();
    }
}
