#![warn(missing_docs)]
//! Deterministic testkit for the Prognosticator workspace.
//!
//! Production code promises one thing above all else: every replica fed
//! the same batches reaches the same state, no matter how many worker
//! threads it runs or how its scheduler interleaves them. This crate turns
//! that promise into three executable oracles:
//!
//! * [`schedule`] — a schedule-exploration fuzzer. It drives the engine's
//!   [`ReadyPolicy`](prognosticator_core::ReadyPolicy) seam with seeded
//!   shuffle policies and worker-count sweeps, asserting byte-identical
//!   per-transaction outcome vectors and store digests across every
//!   explored schedule.
//! * [`differential`] — a cross-system differential harness running one
//!   generated batch stream through the threaded [`Engine`]
//!   (several worker counts), the `SEQ` baseline, and the discrete-event
//!   simulator, diffing outcomes and digests. On a mismatch it
//!   delta-debugs the batch stream down to a minimal failing reproducer
//!   and writes it to a `.reproducer.json` file.
//! * [`soundness`] — an RWS-soundness oracle: a tracing shim over txir
//!   interpretation records the concrete keys each transaction touches and
//!   checks that [`Profile::predict`](prognosticator_symexec::Profile::predict)
//!   returned a superset, reporting the over-approximation ratio per
//!   workload.
//! * [`recovery`] — a crash-recovery fuzzer: for each seeded crash point
//!   it kills a WAL-backed replica mid-batch (optionally under a torn
//!   write, failed fsync, or partial snapshot), restarts it from the
//!   durable prefix via faults-quiet replay, re-executes the lost tail,
//!   and requires byte-identical outcome traces and digests versus a
//!   never-crashed reference across worker counts.
//!
//! * [`isolation`] — a polygraph-style serializability checker: it
//!   rebuilds the WR/WW/RW dependency graph from the flight recorder's
//!   per-transaction read/write version provenance and certifies
//!   acyclicity against the batch order, shrinking any violation to a
//!   shortest-cycle witness. A mutation harness forges known
//!   violations (swapped commits, stale reads, dropped lock releases)
//!   to prove the checker rejects bad histories, and every other
//!   oracle calls it opportunistically whenever recording is on.
//!
//! * [`chaos`] — a chaos-campaign oracle: the full pipeline plus the
//!   retrying client session under a seeded, eventually-healing
//!   [`ChaosPlan`] (leader churn,
//!   asymmetric partitions, replica restarts, duplicate/reorder storms,
//!   overload bursts, disk faults), asserting terminal outcomes for every
//!   request, post-heal liveness, replica determinism across worker
//!   counts, and log-level exactly-once.
//!
//! * [`wire`] — a wire-protocol fuzzer: a real TCP
//!   [`Server`](prognosticator::Server) front-end under a seeded
//!   population of hostile clients (malformed frames, truncated writes,
//!   connection storms, stalled readers, mid-request disconnects) drawn
//!   from the `hostile_clients` chaos plan, asserting the server never
//!   panics, never leaks sessions, keeps its terminal-outcome accounting
//!   balanced, and that the committed stream a hostile campaign produced
//!   replays to byte-identical digests at every worker count.
//!
//! [`strategies`] supplies `proptest` strategies generating
//! [`TxRequest`](prognosticator_core::TxRequest) batches and seeded
//! [`FaultPlan`](prognosticator_core::FaultPlan)s over all three bundled
//! workloads (SmallBank, TPC-C, RUBiS), and [`workload`] wraps the three
//! workload generators behind one enum so every oracle is
//! workload-parametric.
//!
//! [`Engine`]: prognosticator_core::Engine

pub mod chaos;
pub mod chaos_plan;
pub mod differential;
pub mod isolation;
pub mod recovery;
pub mod schedule;
pub mod soundness;
pub mod strategies;
pub mod wire;
pub mod workload;

/// Records an [`OracleFailure`](prognosticator_obs::Event::OracleFailure)
/// flight event and dumps every live flight recorder to
/// `flightrec-<reason>-*.jsonl` (see `prognosticator_obs::set_dump_dir`).
///
/// Called by the oracles just before they panic or return a mismatch, so
/// a CI failure ships the recorded event history next to the shrunk
/// reproducer. A no-op dump (recording disabled process-wide) costs one
/// atomic load.
pub fn report_oracle_failure(oracle: &str, detail: &str, reason: &str) {
    if prognosticator_obs::default_enabled() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Harness recorders live in their own id namespace, far above
        // replica (0..) and WAL (1<<32..) recorders.
        static NEXT_HARNESS: AtomicU64 = AtomicU64::new(1 << 48);
        let rec = prognosticator_obs::FlightRecorder::new(
            NEXT_HARNESS.fetch_add(1, Ordering::Relaxed),
        );
        let (oracle, detail) = (oracle.to_owned(), detail.to_owned());
        rec.record(move || prognosticator_obs::Event::OracleFailure { oracle, detail });
        prognosticator_obs::dump_all(reason);
    }
}

pub use chaos::{run_chaos, ChaosOracleConfig, ChaosReport, ChaosViolation};
pub use chaos_plan::{ChaosClass, ChaosEvent, ChaosPhase, ChaosPlan, WireFaultKind, PLAN_NAMES};
pub use differential::{run_differential, DifferentialConfig, DifferentialReport, Mismatch};
pub use isolation::{
    check_replica_trace, check_trace, inject_violation, run_isolation, trace_stream,
    trace_stream_with, CycleWitness, Edge, EdgeKind, IsolationConfig, IsolationReport,
    IsolationViolation, Mutation, Trace, TxId, Verdict,
};
pub use recovery::{
    crash_batch_for, run_crash_recovery, CrashRecoveryReport, RecoveryFuzzConfig, RecoveryMismatch,
};
pub use schedule::{explore_schedules, ScheduleReport, ScheduleSweep};
pub use wire::{run_wire_fuzz, WireFuzzConfig, WireFuzzReport, WireFuzzViolation};
pub use soundness::{
    check_soundness, check_soundness_sharded, SoundnessError, SoundnessReport, TemplateSoundness,
};
pub use strategies::{batch_strategy, fault_plan_strategy, tx_request_strategy, workload_strategy};
pub use workload::{TestWorkload, WorkloadKind};
