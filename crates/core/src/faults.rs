//! Seeded, deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] is a pure function from `(seed, batch_index, tx_index)`
//! to fault decisions. Because the decision depends only on those
//! coordinates — never on wall-clock time, thread identity, or scheduling
//! order — every replica fed the same batches under the same plan injects
//! *exactly* the same faults, and the deterministic-abort protocol
//! (see [`crate::engine::TxOutcome`]) turns each injected worker panic into
//! the same per-transaction abort on every replica. That is what lets the
//! determinism checker assert byte-identical commit/abort vectors across
//! replicas with different worker counts while faults are firing.
//!
//! Three fault classes are covered:
//!
//! * **Worker panics** — per-transaction: the executing worker panics
//!   mid-transaction ([`FaultPlan::maybe_inject_worker_panic`]). The engine
//!   catches the panic, discards the buffered writes, and records
//!   `TxOutcome::Aborted`.
//! * **Storage latency spikes** — per-batch: the batch executes with a
//!   temporarily raised per-access store latency
//!   ([`FaultPlan::storage_spike`], applied through
//!   `EpochStore::set_latency`). Spikes perturb timing only; state must be
//!   unaffected.
//! * **Consensus disruptions** — per-batch: the harness isolates the
//!   current Raft leader or partitions a link around the batch
//!   ([`FaultPlan::consensus_fault`]). The consensus crate is below this
//!   one in the dependency graph, so the plan only *decides*; tests apply
//!   the decision to their `SimNet` / `RaftCluster`.

use std::time::Duration;

/// The SplitMix64 output function: two xor-shift-multiply rounds.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: `z` advanced by the golden gamma, then finalized.
pub fn splitmix64(z: u64) -> u64 {
    finalize(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// SplitMix64-style mix of a seed with the coordinates `(domain, a, b)`.
/// Pure: same inputs, same output, on every replica. The one mixer behind
/// [`FaultPlan`]'s decisions and the testkit's seeded draws.
pub fn mix(seed: u64, domain: u64, a: u64, b: u64) -> u64 {
    finalize(
        seed.wrapping_add(domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB)),
    )
}

/// Marker prefix of injected-panic payloads, used to tell an injected
/// fault apart from a genuine workload bug when a caught panic is
/// converted into an abort reason.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// Why a transaction was deterministically aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// The transaction's own logic failed (e.g. division by zero) — a
    /// workload bug. Deterministic: every replica evaluates the same
    /// program over the same state and reaches the same error.
    WorkloadBug(String),
    /// An injected fault (see [`FaultPlan`]) killed the transaction.
    /// Deterministic because the plan is a pure function of
    /// `(seed, batch, tx)`.
    InjectedFault(String),
}

impl AbortReason {
    /// Canonical workload-bug reason for an evaluation error in `program`
    /// (the message is part of the replicated outcome vector).
    pub fn workload(program: &str, err: impl std::fmt::Display) -> Self {
        AbortReason::WorkloadBug(format!("{program}: {err}"))
    }

    /// Classifies a caught panic payload message into an abort reason.
    pub fn from_panic_message(msg: String) -> Self {
        if msg.starts_with(INJECTED_PANIC_PREFIX) {
            AbortReason::InjectedFault(msg)
        } else {
            AbortReason::WorkloadBug(msg)
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            AbortReason::WorkloadBug(m) | AbortReason::InjectedFault(m) => m,
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::WorkloadBug(m) => write!(f, "workload bug: {m}"),
            AbortReason::InjectedFault(m) => write!(f, "{m}"),
        }
    }
}

/// A consensus-level disruption decided for a batch (applied by the test
/// harness, which owns the network handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusFault {
    /// Isolate the current leader before proposing, heal after `heal_ms`.
    IsolateLeader {
        /// How long the leader stays cut off, in milliseconds.
        heal_ms: u64,
    },
    /// Cut one link of the `(a, b)` pair for the duration of the batch.
    PartitionLink {
        /// One endpoint (node index, modulo cluster size).
        a: usize,
        /// The other endpoint (node index, modulo cluster size).
        b: usize,
    },
}

/// A deterministic, seeded fault-injection plan.
///
/// All rates are per-mille (0–1000). The default plan injects nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Probability (‰) that a given transaction's worker panics.
    pub worker_panic_per_mille: u16,
    /// Probability (‰) that a given batch runs under a latency spike.
    pub storage_spike_per_mille: u16,
    /// Per-access latency during a spike.
    pub storage_spike_latency: Duration,
    /// Probability (‰) that a given batch gets a consensus disruption.
    pub consensus_fault_per_mille: u16,
    /// Replay mode: this plan is driving recovery replay of batches that
    /// already executed once. Injection goes quiet (no panics, spikes, or
    /// disruptions fire) but [`FaultPlan::replay_abort`] still reproduces
    /// the aborts the original run recorded, so the replayed outcome
    /// vector is byte-identical to the pre-crash one.
    pub replay: bool,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for builders).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            worker_panic_per_mille: 0,
            storage_spike_per_mille: 0,
            storage_spike_latency: Duration::from_micros(50),
            consensus_fault_per_mille: 0,
            replay: false,
        }
    }

    /// Enables worker panics at the given per-mille rate.
    #[must_use]
    pub fn with_worker_panics(mut self, per_mille: u16) -> Self {
        self.worker_panic_per_mille = per_mille;
        self
    }

    /// Enables storage latency spikes at the given per-mille rate.
    #[must_use]
    pub fn with_storage_spikes(mut self, per_mille: u16, latency: Duration) -> Self {
        self.storage_spike_per_mille = per_mille;
        self.storage_spike_latency = latency;
        self
    }

    /// Enables consensus disruptions at the given per-mille rate.
    #[must_use]
    pub fn with_consensus_faults(mut self, per_mille: u16) -> Self {
        self.consensus_fault_per_mille = per_mille;
        self
    }

    /// Derives the replay-mode variant of this plan: identical decision
    /// coordinates, but live injection is suppressed and
    /// [`FaultPlan::replay_abort`] reproduces the original aborts.
    #[must_use]
    pub fn replay(mut self) -> Self {
        self.replay = true;
        self
    }

    /// Whether this plan is the replay-mode variant.
    pub fn is_replay(&self) -> bool {
        self.replay
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// [`mix`] of the plan seed with fault-domain coordinates.
    fn mix(&self, domain: u64, a: u64, b: u64) -> u64 {
        mix(self.seed, domain, a, b)
    }

    fn roll(&self, domain: u64, a: u64, b: u64, per_mille: u16) -> bool {
        per_mille > 0 && self.mix(domain, a, b) % 1000 < u64::from(per_mille)
    }

    /// Whether the worker executing transaction `tx` of batch `batch`
    /// panics.
    pub fn injects_worker_panic(&self, batch: u64, tx: u32) -> bool {
        self.roll(1, batch, u64::from(tx), self.worker_panic_per_mille)
    }

    /// The panic payload used for an injected worker panic (stable across
    /// replicas so abort reasons compare equal).
    pub fn injected_panic_message(batch: u64, tx: u32) -> String {
        format!("{INJECTED_PANIC_PREFIX} worker panic (batch {batch}, tx {tx})")
    }

    /// Panics with [`FaultPlan::injected_panic_message`] when the plan
    /// injects a fault for `(batch, tx)`; otherwise returns normally.
    /// Call from inside a per-transaction `catch_unwind` scope.
    /// No-ops in replay mode — recovery must not unwind workers again;
    /// [`FaultPlan::replay_abort`] reproduces the abort instead.
    pub fn maybe_inject_worker_panic(&self, batch: u64, tx: u32) {
        if !self.replay && self.injects_worker_panic(batch, tx) {
            panic!("{}", Self::injected_panic_message(batch, tx));
        }
    }

    /// During recovery replay, the abort the *original* run recorded for
    /// `(batch, tx)` — `Some` exactly where the live run panicked, with
    /// the byte-identical [`AbortReason`], but without any unwinding.
    /// Always `None` outside replay mode (the live path injects the real
    /// panic instead).
    pub fn replay_abort(&self, batch: u64, tx: u32) -> Option<AbortReason> {
        if self.replay && self.injects_worker_panic(batch, tx) {
            Some(Self::injected_abort_reason(batch, tx))
        } else {
            None
        }
    }

    /// The abort reason an injected panic for `(batch, tx)` resolves to
    /// once caught.
    pub fn injected_abort_reason(batch: u64, tx: u32) -> AbortReason {
        AbortReason::InjectedFault(Self::injected_panic_message(batch, tx))
    }

    /// The latency spike for `batch`, if any. Quiet in replay mode:
    /// spikes perturb timing only, and recovery replays state, not
    /// timing.
    pub fn storage_spike(&self, batch: u64) -> Option<Duration> {
        if !self.replay && self.roll(2, batch, 0, self.storage_spike_per_mille) {
            Some(self.storage_spike_latency)
        } else {
            None
        }
    }

    /// The consensus disruption for `batch`, if any. Quiet in replay
    /// mode: a recovering replica replays a local durable prefix and
    /// never touches the network.
    pub fn consensus_fault(&self, batch: u64) -> Option<ConsensusFault> {
        if self.replay || !self.roll(3, batch, 0, self.consensus_fault_per_mille) {
            return None;
        }
        let pick = self.mix(4, batch, 0);
        if pick.is_multiple_of(2) {
            Some(ConsensusFault::IsolateLeader { heal_ms: 100 + pick % 200 })
        } else {
            Some(ConsensusFault::PartitionLink {
                a: (pick >> 8) as usize,
                b: (pick >> 16) as usize,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let a = FaultPlan::quiet(7).with_worker_panics(300);
        let b = FaultPlan::quiet(7).with_worker_panics(300);
        for batch in 0..20u64 {
            for tx in 0..50u32 {
                assert_eq!(
                    a.injects_worker_panic(batch, tx),
                    b.injects_worker_panic(batch, tx)
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::quiet(1).with_worker_panics(500);
        let b = FaultPlan::quiet(2).with_worker_panics(500);
        let hits = |p: &FaultPlan| -> Vec<bool> {
            (0..200u32).map(|tx| p.injects_worker_panic(0, tx)).collect()
        };
        assert_ne!(hits(&a), hits(&b));
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let p = FaultPlan::quiet(3);
        for batch in 0..10u64 {
            assert!(p.storage_spike(batch).is_none());
            assert!(p.consensus_fault(batch).is_none());
            for tx in 0..10u32 {
                assert!(!p.injects_worker_panic(batch, tx));
            }
        }
    }

    #[test]
    fn rate_roughly_matches_per_mille() {
        let p = FaultPlan::quiet(9).with_worker_panics(100); // 10%
        let hits = (0..2000u32).filter(|&tx| p.injects_worker_panic(0, tx)).count();
        assert!((100..300).contains(&hits), "got {hits} of 2000");
    }

    #[test]
    fn injected_panics_classify_as_injected() {
        let msg = FaultPlan::injected_panic_message(3, 4);
        assert!(matches!(
            AbortReason::from_panic_message(msg),
            AbortReason::InjectedFault(_)
        ));
        assert!(matches!(
            AbortReason::from_panic_message("division by zero".into()),
            AbortReason::WorkloadBug(_)
        ));
    }

    #[test]
    fn replay_mode_is_quiet_but_reproduces_aborts() {
        let live = FaultPlan::quiet(21)
            .with_worker_panics(400)
            .with_storage_spikes(400, Duration::from_micros(80))
            .with_consensus_faults(400);
        let replay = live.clone().replay();
        assert!(replay.is_replay());
        for batch in 0..30u64 {
            // Timing/network faults never fire during replay.
            assert!(replay.storage_spike(batch).is_none());
            assert!(replay.consensus_fault(batch).is_none());
            for tx in 0..20u32 {
                // No unwinding in replay mode, even where the live plan
                // panics...
                replay.maybe_inject_worker_panic(batch, tx);
                // ...but the abort vector is reproduced byte-identically.
                let expect = if live.injects_worker_panic(batch, tx) {
                    Some(FaultPlan::injected_abort_reason(batch, tx))
                } else {
                    None
                };
                assert_eq!(replay.replay_abort(batch, tx), expect);
                // And the live plan never consults the replay path.
                assert_eq!(live.replay_abort(batch, tx), None);
            }
        }
    }

    #[test]
    fn injection_panics_with_stable_payload() {
        let p = FaultPlan::quiet(11).with_worker_panics(1000);
        let err = std::panic::catch_unwind(|| p.maybe_inject_worker_panic(5, 6))
            .expect_err("always injects at 1000 per mille");
        let msg = err.downcast_ref::<String>().expect("string payload").clone();
        assert_eq!(msg, FaultPlan::injected_panic_message(5, 6));
        assert_eq!(
            AbortReason::from_panic_message(msg),
            FaultPlan::injected_abort_reason(5, 6)
        );
    }
}
