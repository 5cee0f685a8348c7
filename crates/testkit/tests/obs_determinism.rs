//! Observability-determinism suite: recording must never perturb the
//! deterministic database.
//!
//! Three contracts (DESIGN.md §10):
//!
//! 1. Every oracle produces byte-identical outcome vectors and store
//!    digests with flight recording and metrics hot versus cold — obs is
//!    strictly read-only with respect to scheduling.
//! 2. The flight recorder itself is replay-stable: two runs of the same
//!    batch stream yield byte-identical canonical JSONL dumps, no matter
//!    how the worker threads interleaved.
//! 3. A recovery digest mismatch auto-dumps every live recorder to
//!    `flightrec-*.jsonl` before panicking, so the forensic trail exists
//!    exactly when determinism was violated.
//!
//! `set_default_enabled` is process-global, so every test here holds one
//! mutex for its whole body and restores the disabled state on exit.

use prognosticator_core::{baselines, Replica};
use prognosticator_obs::FlightRecorder;
use std::sync::{Arc, Mutex};
use testkit::{
    explore_schedules, run_differential, DifferentialConfig, ScheduleSweep, TestWorkload,
    WorkloadKind,
};

/// Serializes tests that flip the process-global recording default.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Restores recording-disabled even if the test body panics.
struct DisableOnDrop;

impl Drop for DisableOnDrop {
    fn drop(&mut self) {
        prognosticator_obs::set_default_enabled(false);
    }
}

#[test]
fn schedule_oracle_is_identical_with_obs_on_and_off() {
    let _guard = lock();
    let _restore = DisableOnDrop;
    for workload in [WorkloadKind::SmallBank, WorkloadKind::Tpcc, WorkloadKind::Rubis] {
        let sweep = ScheduleSweep {
            batches: 2,
            batch_size: 16,
            policy_seeds: vec![11, 42],
            worker_counts: vec![1, 2],
            ..ScheduleSweep::standard(workload, 0xA11CE)
        };

        prognosticator_obs::set_default_enabled(false);
        let cold = explore_schedules(&sweep);
        prognosticator_obs::set_default_enabled(true);
        let hot = explore_schedules(&sweep);
        prognosticator_obs::set_default_enabled(false);

        assert_eq!(
            cold.outcomes, hot.outcomes,
            "{workload:?}: outcome vectors must not depend on recording"
        );
        assert_eq!(
            cold.digest, hot.digest,
            "{workload:?}: store digest must not depend on recording"
        );
        assert_eq!(cold.committed, hot.committed);
        assert_eq!(cold.aborted, hot.aborted);
    }
}

#[test]
fn differential_oracle_passes_identically_with_obs_enabled() {
    let _guard = lock();
    let _restore = DisableOnDrop;
    let config = DifferentialConfig {
        batches: 2,
        batch_size: 16,
        worker_counts: vec![1, 2],
        ..DifferentialConfig::standard(WorkloadKind::SmallBank, 0xBEEF)
    };

    prognosticator_obs::set_default_enabled(false);
    let cold = run_differential(&config).expect("cold differential passes");
    prognosticator_obs::set_default_enabled(true);
    let hot = run_differential(&config).expect("hot differential passes");
    prognosticator_obs::set_default_enabled(false);

    assert_eq!(cold.committed, hot.committed, "commit counts must match");
    assert_eq!(cold.aborted, hot.aborted, "abort counts must match");
    assert_eq!(cold.systems, hot.systems);
}

/// Recording takes the production path: with the recorder on and off, a
/// TPC-C and a RUBiS stream run the same rounds and the same number of
/// preparation walks (a doomed retry-round member is walked in neither),
/// and reach the same outcomes and digest.
#[test]
fn recording_walks_and_runs_what_production_does() {
    let _guard = lock();
    let _restore = DisableOnDrop;
    prognosticator_obs::set_default_enabled(false);
    for kind in [WorkloadKind::Tpcc, WorkloadKind::Rubis] {
        let workload = TestWorkload::new(kind);
        let stream = workload.gen_stream(0x0B5E, 3, 32);
        let run = |recording: bool| {
            let recorder = FlightRecorder::new(3);
            recorder.set_enabled(recording);
            let mut replica = Replica::with_store(
                baselines::mq_mf(2),
                Arc::clone(workload.catalog()),
                workload.fresh_store(),
            );
            replica.attach_recorder(Arc::clone(&recorder));
            let outcomes = replica.execute_stream(stream.clone(), 0);
            let digest = replica.state_digest();
            replica.shutdown();
            let rounds: Vec<u32> = outcomes.iter().map(|o| o.rounds).collect();
            let walks: u64 = outcomes.iter().map(|o| o.prepare_count).sum();
            let outcomes: Vec<_> = outcomes.into_iter().map(|o| o.outcomes).collect();
            (outcomes, rounds, walks, digest, recorder.render_jsonl())
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.0, off.0, "{kind:?}: outcome vectors must not depend on recording");
        assert_eq!(on.1, off.1, "{kind:?}: rounds must not depend on recording");
        assert_eq!(on.2, off.2, "{kind:?}: walks must not depend on recording");
        assert_eq!(on.3, off.3, "{kind:?}: store digest must not depend on recording");
        assert!(off.4.is_empty(), "{kind:?}: a disabled recorder records nothing");
        if kind == WorkloadKind::Rubis {
            assert!(on.4.contains("\"type\":\"doomed\""), "rubis: no retry round doomed a member");
        }
    }
}

/// Two runs of the same stream on fresh replicas, with recorders pinned
/// to the same replica id, must render byte-identical canonical dumps:
/// every event is keyed by logical coordinates only, and the canonical
/// sort erases worker-interleaving order.
#[test]
fn flight_recorder_dumps_are_replay_stable() {
    let _guard = lock();
    let _restore = DisableOnDrop;
    prognosticator_obs::set_default_enabled(false);
    let workload = TestWorkload::new(WorkloadKind::SmallBank);
    let stream = workload.gen_stream(0xF11E, 3, 24);

    let run = || -> (String, u64) {
        let recorder = FlightRecorder::new(7);
        recorder.set_enabled(true);
        let mut replica = Replica::with_store(
            baselines::mq_mf(4),
            Arc::clone(workload.catalog()),
            workload.fresh_store(),
        );
        replica.attach_recorder(Arc::clone(&recorder));
        // Pipelined, so QueuerHandoff events are exercised too.
        replica.execute_stream(stream.clone(), 1);
        let digest = replica.state_digest();
        replica.shutdown();
        (recorder.render_jsonl(), digest)
    };

    let (dump_a, digest_a) = run();
    let (dump_b, digest_b) = run();
    assert_eq!(digest_a, digest_b, "replicas must agree before dumps can");
    assert!(!dump_a.is_empty(), "an enabled recorder must capture events");
    assert!(
        dump_a.contains("\"type\":\"batch_start\""),
        "dump must contain batch lifecycle events: {dump_a}"
    );
    assert_eq!(dump_a, dump_b, "canonical dumps must be byte-identical across runs");
}

/// Sharding must be invisible in the forensic trail too: the same stream
/// executed at shard counts {1, 2, 4, 8} (recorders pinned to one replica
/// id) renders byte-identical canonical dumps. `LockWait` events name
/// their key by its count-independent routing fingerprint — not the
/// physical shard index — and the canonical sort includes it, so the
/// partitioning never leaks into the dump (DESIGN.md §3.5).
#[test]
fn flight_recorder_dumps_are_identical_across_shard_counts() {
    let _guard = lock();
    let _restore = DisableOnDrop;
    prognosticator_obs::set_default_enabled(false);
    let workload = TestWorkload::new(WorkloadKind::HotSkew);
    let stream = workload.gen_stream(0x5AF1, 3, 24);

    let run = |shards: usize| -> (String, u64) {
        let recorder = FlightRecorder::new(9);
        recorder.set_enabled(true);
        let mut replica = Replica::with_store(
            prognosticator_core::SchedulerConfig { shards, ..baselines::mq_mf(4) },
            Arc::clone(workload.catalog()),
            workload.fresh_store(),
        );
        replica.attach_recorder(Arc::clone(&recorder));
        replica.execute_stream(stream.clone(), 1);
        let digest = replica.state_digest();
        replica.shutdown();
        (recorder.render_jsonl(), digest)
    };

    let (reference, reference_digest) = run(1);
    assert!(
        reference.contains("\"type\":\"lock_wait\""),
        "a hot-key storm must record lock waits"
    );
    let is_keyed_wait = |l: &str| l.contains("\"type\":\"lock_wait\"") && l.contains("\"key\":");
    assert!(
        reference.lines().any(is_keyed_wait),
        "lock waits must carry the key's routing fingerprint"
    );
    for shards in [2, 4, 8] {
        let (dump, digest) = run(shards);
        assert_eq!(digest, reference_digest, "s={shards}: digests must agree");
        assert_eq!(dump, reference, "s={shards}: canonical dumps must be byte-identical");
    }
}

#[test]
fn forced_digest_mismatch_dumps_flight_recorder() {
    let _guard = lock();
    let _restore = DisableOnDrop;
    let dump_dir = std::env::temp_dir().join(format!("prog-flightrec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    std::fs::create_dir_all(&dump_dir).expect("create dump dir");
    prognosticator_obs::set_dump_dir(&dump_dir);
    prognosticator_obs::set_default_enabled(true);

    let workload = TestWorkload::new(WorkloadKind::SmallBank);
    let stream = workload.gen_stream(0xD16E, 2, 16);
    let mut live = Replica::with_store(
        baselines::mq_mf(2),
        Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    for batch in &stream {
        live.execute_batch(batch.clone());
    }
    let digest = live.state_digest();
    live.shutdown();

    // Recover against a deliberately wrong expected digest: the replica
    // must dump its flight recorders, then panic.
    let catalog = Arc::clone(workload.catalog());
    let store = workload.fresh_store();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        Replica::recover(
            baselines::mq_mf(2),
            catalog,
            store,
            stream,
            None,
            Some(digest ^ 0xDEAD_BEEF),
        )
    }));
    prognosticator_obs::set_default_enabled(false);
    prognosticator_obs::set_dump_dir("results");
    assert!(result.is_err(), "recovery against a wrong digest must panic");

    let dumps: Vec<_> = std::fs::read_dir(&dump_dir)
        .expect("dump dir readable")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| {
            name.starts_with("flightrec-recovery-digest-mismatch") && name.ends_with(".jsonl")
        })
        .collect();
    assert!(
        !dumps.is_empty(),
        "digest mismatch must produce a flightrec-*.jsonl dump in {}",
        dump_dir.display()
    );
    let body = std::fs::read_to_string(dump_dir.join(&dumps[0])).expect("dump readable");
    assert!(
        body.contains("digest_mismatch"),
        "dump must record the DigestMismatch event: {body}"
    );
    let _ = std::fs::remove_dir_all(&dump_dir);
}
