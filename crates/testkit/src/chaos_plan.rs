//! Seeded, phased chaos campaigns over the whole service loop.
//!
//! Where a [`FaultPlan`](prognosticator_core::FaultPlan) makes independent
//! per-batch/per-tx decisions, a [`ChaosPlan`] orchestrates a *campaign*:
//! contiguous [`ChaosPhase`]s of rounds, each with its own intensity and
//! mix of fault classes, followed by a guaranteed-quiet tail. Every
//! decision is a pure function of `(seed, round)` — no wall clock, no
//! ordering dependence — so a failing campaign replays exactly from its
//! `(plan name, seed)` pair.
//!
//! The central contract is the **healing guarantee**: [`ChaosPlan::events_at`]
//! returns no events at or after [`ChaosPlan::heal_after`], no matter what
//! the phases say. Liveness oracles lean on this: after the last possible
//! fault, every accepted transaction must reach its terminal outcome
//! within a bounded number of batches, because nothing can disrupt the
//! pipeline ever again.
//!
//! The plan only *decides*; the harness ([`crate::chaos`]) owns the
//! `SimNet` / `RaftCluster` / `Pipeline` handles and applies each
//! [`ChaosEvent`] transiently around a round of traffic.

use prognosticator_consensus::DiskFault;
use prognosticator_core::faults::mix;
use std::time::Duration;

/// One concrete chaos action, decided for a single round of traffic. The
/// harness applies it before submitting the round's transactions and
/// reverts any transient effect (partitions, delay spikes, link configs)
/// when the round ends, so each event is self-healing by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Isolate the current consensus leader for the round (both
    /// directions), forcing an election under live traffic.
    IsolateLeader,
    /// Cut only the `from → to` direction of one link (indices are taken
    /// modulo the cluster size; the harness skips degenerate pairs).
    AsymmetricPartition {
        /// Source node index (mod cluster size).
        from: usize,
        /// Destination node index (mod cluster size).
        to: usize,
    },
    /// Crash and immediately restart replica `replica` (mod fleet size)
    /// mid-traffic, exercising recovery under load.
    RestartReplica {
        /// Replica index (mod fleet size).
        replica: usize,
    },
    /// Raise the network's delay window by `extra` for the round.
    DelaySpike {
        /// Additional delay added to the max-delay bound.
        extra: Duration,
    },
    /// Run the round with message duplication and reordering turned up.
    MessageStorm,
    /// Multiply the round's submitted request count by `multiplier`,
    /// driving the admission queue and load-shedder into overload.
    OverloadBurst {
        /// Factor applied to the round's normal request count.
        multiplier: u32,
    },
    /// Arm a one-shot WAL disk fault on consensus node `node` (mod
    /// cluster size). A no-op for memory-backed clusters.
    DiskFault {
        /// Consensus node index (mod cluster size).
        node: usize,
        /// Which disk fault to arm.
        kind: DiskFault,
    },
    /// Have wire client `client` (mod population size) misbehave this
    /// round. Only harnesses that drive a network front-end react; the
    /// in-process harness treats it as a no-op.
    WireFault {
        /// Hostile-client index (mod the harness's client population).
        client: usize,
        /// The misbehaviour to stage.
        kind: WireFaultKind,
    },
}

/// The ways a hostile wire client can misbehave (the parameter space of
/// [`ChaosEvent::WireFault`]). Mirrors the malformed-frame taxonomy the
/// server's connection loop must survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFaultKind {
    /// Send bytes that fail frame validation: an oversized length
    /// prefix, a corrupted CRC, or a zero-length frame.
    MalformedFrame,
    /// Write only a prefix of a valid frame, then close — a torn final
    /// frame from the server's point of view.
    TruncatedWrite,
    /// Open a burst of connections at once and slam them shut, driving
    /// the acceptor through its connection cap.
    ConnectionStorm,
    /// Open a connection, trickle a partial frame, and stall — a
    /// slowloris the frame deadline must evict.
    StalledReader,
    /// Send a valid request and disconnect before the response arrives;
    /// the engine's work must still complete and be accounted as a
    /// dropped response.
    MidRequestDisconnect,
}

/// The fault classes a [`ChaosPhase`] can draw from. Each class rolls
/// independently per round, so one round can suffer overlapping faults
/// (e.g. a leader isolation *and* a delay spike).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosClass {
    /// Leader isolation bursts ([`ChaosEvent::IsolateLeader`]).
    LeaderIsolation,
    /// One-way link cuts ([`ChaosEvent::AsymmetricPartition`]).
    AsymmetricSplit,
    /// Crash-restart of a replica ([`ChaosEvent::RestartReplica`]).
    ReplicaRestart,
    /// Transient latency inflation ([`ChaosEvent::DelaySpike`]).
    DelaySpike,
    /// Duplication + reordering storms ([`ChaosEvent::MessageStorm`]).
    MessageStorm,
    /// Request-rate spikes ([`ChaosEvent::OverloadBurst`]).
    OverloadBurst,
    /// One-shot WAL faults ([`ChaosEvent::DiskFault`]).
    DiskFault,
    /// Hostile network clients ([`ChaosEvent::WireFault`]).
    WireClient,
}

impl ChaosClass {
    /// Stable per-class mixing domain (disjoint from the parameter
    /// domains used by [`event_params`]).
    fn domain(self) -> u64 {
        match self {
            ChaosClass::LeaderIsolation => 10,
            ChaosClass::AsymmetricSplit => 11,
            ChaosClass::ReplicaRestart => 12,
            ChaosClass::DelaySpike => 13,
            ChaosClass::MessageStorm => 14,
            ChaosClass::OverloadBurst => 15,
            ChaosClass::DiskFault => 16,
            ChaosClass::WireClient => 17,
        }
    }
}

/// A contiguous window of rounds `[from_step, until_step)` with one
/// intensity and class mix. Phases may overlap; each contributes its own
/// rolls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPhase {
    /// First round (inclusive) the phase covers.
    pub from_step: u64,
    /// First round past the phase (exclusive).
    pub until_step: u64,
    /// Per-class firing probability in this window, per-mille (0–1000).
    pub per_mille: u16,
    /// The fault classes this phase draws from.
    pub classes: Vec<ChaosClass>,
}

/// A named, seeded, phased — and eventually healing — chaos campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    seed: u64,
    name: &'static str,
    phases: Vec<ChaosPhase>,
    heal_after: u64,
}

/// Names of the built-in campaign presets, in [`ChaosPlan::by_name`]
/// order — the value space of the `CHAOS_PLANS` env knob.
pub const PLAN_NAMES: &[&str] =
    &["leader_churn", "split_and_storm", "crash_and_overload", "hostile_clients"];

impl ChaosPlan {
    /// Builds a campaign from explicit phases. `heal_after` caps every
    /// phase: no event ever fires at a round `>= heal_after`.
    pub fn new(name: &'static str, seed: u64, phases: Vec<ChaosPhase>, heal_after: u64) -> Self {
        ChaosPlan { seed, name, phases, heal_after }
    }

    /// Leader-churn campaign: after a quiet warmup, rounds draw leader
    /// isolations and delay spikes until the heal point.
    pub fn leader_churn(seed: u64, horizon: u64) -> Self {
        let heal = heal_point(horizon);
        ChaosPlan::new(
            "leader_churn",
            seed,
            vec![ChaosPhase {
                from_step: horizon / 6,
                until_step: heal,
                per_mille: 700,
                classes: vec![ChaosClass::LeaderIsolation, ChaosClass::DelaySpike],
            }],
            heal,
        )
    }

    /// Asymmetric-split campaign: one-way partitions and dup/reorder
    /// storms from round 0, escalating with delay spikes mid-campaign.
    pub fn split_and_storm(seed: u64, horizon: u64) -> Self {
        let heal = heal_point(horizon);
        ChaosPlan::new(
            "split_and_storm",
            seed,
            vec![
                ChaosPhase {
                    from_step: 0,
                    until_step: horizon / 3,
                    per_mille: 500,
                    classes: vec![ChaosClass::AsymmetricSplit, ChaosClass::MessageStorm],
                },
                ChaosPhase {
                    from_step: horizon / 3,
                    until_step: heal,
                    per_mille: 800,
                    classes: vec![
                        ChaosClass::AsymmetricSplit,
                        ChaosClass::MessageStorm,
                        ChaosClass::DelaySpike,
                    ],
                },
            ],
            heal,
        )
    }

    /// Crash-and-overload campaign: replica crash-restarts, overload
    /// bursts, and one-shot disk faults under sustained traffic.
    pub fn crash_and_overload(seed: u64, horizon: u64) -> Self {
        let heal = heal_point(horizon);
        ChaosPlan::new(
            "crash_and_overload",
            seed,
            vec![ChaosPhase {
                from_step: horizon / 6,
                until_step: heal,
                per_mille: 600,
                classes: vec![
                    ChaosClass::ReplicaRestart,
                    ChaosClass::OverloadBurst,
                    ChaosClass::DiskFault,
                ],
            }],
            heal,
        )
    }

    /// Hostile-clients campaign: wire-protocol abuse (malformed frames,
    /// truncated writes, connection storms, stalled readers, mid-request
    /// disconnects) from round 0, joined by overload bursts once the
    /// service is warm. Only harnesses driving a network front-end react
    /// to the wire events; others see it as overload-with-quiet-rounds.
    pub fn hostile_clients(seed: u64, horizon: u64) -> Self {
        let heal = heal_point(horizon);
        ChaosPlan::new(
            "hostile_clients",
            seed,
            vec![
                ChaosPhase {
                    from_step: 0,
                    until_step: heal,
                    per_mille: 700,
                    classes: vec![ChaosClass::WireClient],
                },
                ChaosPhase {
                    from_step: horizon / 4,
                    until_step: heal,
                    per_mille: 400,
                    classes: vec![ChaosClass::WireClient, ChaosClass::OverloadBurst],
                },
            ],
            heal,
        )
    }

    /// Resolves a preset by name (see [`PLAN_NAMES`]).
    pub fn by_name(name: &str, seed: u64, horizon: u64) -> Option<Self> {
        match name {
            "leader_churn" => Some(Self::leader_churn(seed, horizon)),
            "split_and_storm" => Some(Self::split_and_storm(seed, horizon)),
            "crash_and_overload" => Some(Self::crash_and_overload(seed, horizon)),
            "hostile_clients" => Some(Self::hostile_clients(seed, horizon)),
            _ => None,
        }
    }

    /// The campaign's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The campaign's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The first round guaranteed fault-free — and with it every later
    /// round, forever. Liveness bounds are measured from here.
    pub fn heal_after(&self) -> u64 {
        self.heal_after
    }

    /// The chaos events firing at round `step` — empty at or past
    /// [`ChaosPlan::heal_after`] (the healing guarantee), otherwise one
    /// independent roll per class of every phase covering the round.
    /// Pure: same `(plan, step)` always yields the same events.
    pub fn events_at(&self, step: u64) -> Vec<ChaosEvent> {
        if step >= self.heal_after {
            return Vec::new();
        }
        let mut events = Vec::new();
        for (pi, phase) in self.phases.iter().enumerate() {
            if step < phase.from_step || step >= phase.until_step {
                continue;
            }
            for &class in &phase.classes {
                let roll = mix(self.seed, class.domain(), step, pi as u64) % 1000;
                if roll < u64::from(phase.per_mille) {
                    events.push(self.event_params(class, step, pi as u64));
                }
            }
        }
        events
    }

    /// Derives the concrete parameters of a firing event (separate mix
    /// domain from the firing roll, so parameters and firing decisions
    /// are independent).
    fn event_params(&self, class: ChaosClass, step: u64, phase: u64) -> ChaosEvent {
        let r = mix(self.seed, class.domain() + 40, step, phase);
        match class {
            ChaosClass::LeaderIsolation => ChaosEvent::IsolateLeader,
            ChaosClass::AsymmetricSplit => ChaosEvent::AsymmetricPartition {
                from: (r >> 8) as usize & 0xff,
                to: (r >> 16) as usize & 0xff,
            },
            ChaosClass::ReplicaRestart => {
                ChaosEvent::RestartReplica { replica: (r >> 8) as usize & 0xff }
            }
            ChaosClass::DelaySpike => {
                ChaosEvent::DelaySpike { extra: Duration::from_millis(1 + r % 5) }
            }
            ChaosClass::MessageStorm => ChaosEvent::MessageStorm,
            ChaosClass::OverloadBurst => {
                ChaosEvent::OverloadBurst { multiplier: 2 + (r % 3) as u32 }
            }
            ChaosClass::DiskFault => ChaosEvent::DiskFault {
                node: (r >> 8) as usize & 0xff,
                kind: match r % 3 {
                    0 => DiskFault::TornFinalFrame,
                    1 => DiskFault::FailedFsync,
                    _ => DiskFault::PartialSnapshot,
                },
            },
            ChaosClass::WireClient => ChaosEvent::WireFault {
                client: (r >> 8) as usize & 0xff,
                kind: match r % 5 {
                    0 => WireFaultKind::MalformedFrame,
                    1 => WireFaultKind::TruncatedWrite,
                    2 => WireFaultKind::ConnectionStorm,
                    3 => WireFaultKind::StalledReader,
                    _ => WireFaultKind::MidRequestDisconnect,
                },
            },
        }
    }
}

/// The heal point presets use: two-thirds of the horizon, at least 1, so
/// a campaign always has both a chaotic head and a quiet tail.
fn heal_point(horizon: u64) -> u64 {
    (horizon.saturating_mul(2) / 3).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn presets(seed: u64, horizon: u64) -> Vec<ChaosPlan> {
        PLAN_NAMES
            .iter()
            .map(|n| ChaosPlan::by_name(n, seed, horizon).expect("preset"))
            .collect()
    }

    #[test]
    fn events_are_pure_functions_of_seed_and_step() {
        for plan in presets(7, 24) {
            let again = ChaosPlan::by_name(plan.name(), 7, 24).unwrap();
            for step in 0..24 {
                assert_eq!(plan.events_at(step), again.events_at(step), "{} @{step}", plan.name());
            }
        }
    }

    #[test]
    fn healing_guarantee_holds_for_every_preset() {
        for seed in [1u64, 42, 0xdead] {
            for plan in presets(seed, 30) {
                assert!(plan.heal_after() < 30, "{}: heal inside horizon", plan.name());
                for step in plan.heal_after()..40 {
                    assert!(
                        plan.events_at(step).is_empty(),
                        "{} fired after heal point at step {step}",
                        plan.name()
                    );
                }
            }
        }
    }

    #[test]
    fn presets_actually_fire_before_healing() {
        for plan in presets(42, 30) {
            let fired: usize = (0..plan.heal_after()).map(|s| plan.events_at(s).len()).sum();
            assert!(fired > 0, "{} never fired in 30 rounds", plan.name());
        }
    }

    #[test]
    fn different_seeds_draw_different_campaigns() {
        let a: Vec<_> = (0..20).map(|s| ChaosPlan::leader_churn(1, 30).events_at(s)).collect();
        let b: Vec<_> = (0..20).map(|s| ChaosPlan::leader_churn(2, 30).events_at(s)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn by_name_rejects_unknown_plans() {
        assert!(ChaosPlan::by_name("nope", 1, 10).is_none());
        for name in PLAN_NAMES {
            assert_eq!(ChaosPlan::by_name(name, 1, 10).unwrap().name(), *name);
        }
    }

    #[test]
    fn hostile_clients_draws_every_wire_fault_kind() {
        use std::collections::BTreeSet;
        let plan = ChaosPlan::hostile_clients(3, 120);
        let mut kinds = BTreeSet::new();
        for step in 0..plan.heal_after() {
            for ev in plan.events_at(step) {
                match ev {
                    ChaosEvent::WireFault { kind, .. } => {
                        kinds.insert(format!("{kind:?}"));
                    }
                    ChaosEvent::OverloadBurst { .. } => {}
                    other => panic!("hostile_clients drew a foreign event: {other:?}"),
                }
            }
        }
        assert_eq!(kinds.len(), 5, "all five wire-fault kinds drawn, got {kinds:?}");
    }

    #[test]
    fn overload_multipliers_stay_small_and_positive() {
        let plan = ChaosPlan::crash_and_overload(9, 60);
        for step in 0..plan.heal_after() {
            for ev in plan.events_at(step) {
                if let ChaosEvent::OverloadBurst { multiplier } = ev {
                    assert!((2..=4).contains(&multiplier));
                }
            }
        }
    }
}
