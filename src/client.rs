//! Client session layer: deadlines, bounded retries with deterministic
//! backoff, and an exactly-once terminal outcome for every request.
//!
//! [`ClientSession`] wraps a [`Pipeline`] and upgrades its per-call
//! errors into a per-request contract: every transaction handed to
//! [`ClientSession::submit`] reaches **exactly one** terminal
//! [`ClientOutcome`] — `Committed`, `Aborted`, or `Rejected` — never
//! zero (lost) and never two (double-applied). The pieces:
//!
//! * **Admission retries.** A submission refused by bounded admission or
//!   the load shedder is retried with seeded exponential backoff + jitter
//!   until the per-request deadline expires; only then is it terminally
//!   `Rejected`. Backoff durations are a pure function of
//!   `(seed, request, attempt)`, so identical runs back off identically.
//! * **Quarantine resubmission.** When a batch exhausts its consensus
//!   retries and is quarantined, its transactions are resubmitted (up to
//!   [`ClientConfig::max_retries`] times each) in fresh batches under
//!   fresh proposal ids. Exactly-once still holds: the pipeline voids the
//!   quarantined proposal id, so even if a deposed leader's log later
//!   commits the original entry, every replica skips it — the Raft
//!   proposal-id dedup plus void set make retries idempotent.
//! * **Outcome resolution.** The pipeline journals one [`BatchEvent`]
//!   per decided batch and one outcome vector per committed batch. The
//!   session replays that journal positionally — admission order equals
//!   batch order, carried-over transactions are prepended to the next
//!   batch — to assign each accepted request its engine-level outcome.

use crate::pipeline::{BatchEvent, Pipeline, PipelineError};
use prognosticator_core::faults::mix;
use prognosticator_core::{AbortReason, TxOutcome, TxRequest};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Client-side retry/timeout policy.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Wall-clock budget for getting one request *admitted* (the backoff
    /// loop on admission rejections); expiry means terminal `Rejected`.
    pub deadline: Duration,
    /// Resubmissions allowed per request after its batch is quarantined.
    pub max_retries: u32,
    /// First backoff step after an admission rejection.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline: Duration::from_secs(2),
            max_retries: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 0xC11E,
        }
    }
}

/// The single terminal outcome of one submitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOutcome {
    /// The transaction committed on every replica.
    Committed,
    /// The transaction executed and deterministically aborted on every
    /// replica (same reason everywhere).
    Aborted {
        /// Why the engine aborted it.
        reason: AbortReason,
    },
    /// The transaction never executed: admission/shedding refused it past
    /// its deadline, or its batch quarantined past the retry budget.
    Rejected {
        /// Why it was given up on.
        reason: String,
        /// Admission queue depth observed at the final rejection (0 when
        /// the rejection did not come from bounded admission).
        depth: usize,
        /// Effective admission cap at the final rejection (0 when
        /// unknown). Wire clients back off proportionally to `depth/cap`.
        cap: usize,
    },
}

/// Summary of a finished session (see [`ClientSession::finish`]).
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Terminal outcome per request, indexed by submission order. `None`
    /// means the request never resolved — a liveness violation the chaos
    /// oracle asserts against.
    pub outcomes: Vec<Option<ClientOutcome>>,
    /// Total resubmissions performed after quarantines.
    pub retries: u64,
    /// Requests without a terminal outcome (must be 0).
    pub unresolved: usize,
}

struct Tracked {
    req: TxRequest,
    retries: u32,
}

/// A retrying client session over one [`Pipeline`]. Single-threaded by
/// design: admission order is the positional ground truth that maps
/// requests to batch slots.
pub struct ClientSession {
    pipeline: Pipeline,
    config: ClientConfig,
    reqs: Vec<Tracked>,
    outcomes: Vec<Option<ClientOutcome>>,
    /// Request ids in admission order (resubmissions appear again).
    admitted: Vec<usize>,
    /// Cursor into [`Pipeline::batch_events`].
    event_cursor: usize,
    /// Cursor into `admitted`: requests consumed by decided batches.
    admit_cursor: usize,
    /// Committed events processed so far == next outcome-journal index.
    committed_seen: usize,
    /// Requests carried over into the next committed batch.
    carried: VecDeque<usize>,
    /// Requests whose batch quarantined, awaiting resubmission.
    pending_retry: Vec<usize>,
    /// Total resubmissions after quarantines.
    retries: u64,
}

/// `now + budget`, clamping to the farthest representable `Instant`
/// instead of panicking when the budget does not fit (a near-`u64::MAX`
/// deadline must mean "practically forever", not an overflow — and never
/// a wrap into the past, which would reject every request instantly).
fn saturating_deadline(now: Instant, budget: Duration) -> Instant {
    let mut d = budget;
    loop {
        if let Some(t) = now.checked_add(d) {
            return t;
        }
        d /= 2;
    }
}

impl ClientSession {
    /// Wraps `pipeline` with the given retry policy.
    pub fn new(pipeline: Pipeline, config: ClientConfig) -> Self {
        ClientSession {
            pipeline,
            config,
            reqs: Vec::new(),
            outcomes: Vec::new(),
            admitted: Vec::new(),
            event_cursor: 0,
            admit_cursor: 0,
            committed_seen: 0,
            carried: VecDeque::new(),
            pending_retry: Vec::new(),
            retries: 0,
        }
    }

    /// The wrapped pipeline (for inspection and chaos injection).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable access to the wrapped pipeline (replica restarts, fault
    /// plans). Callers must not submit through it directly — that would
    /// desynchronize the positional journal.
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> usize {
        self.reqs.len()
    }

    /// Total quarantine resubmissions so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Terminal outcomes assigned so far (index = submission order).
    pub fn outcomes(&self) -> &[Option<ClientOutcome>] {
        &self.outcomes
    }

    /// Deterministic backoff for admission attempt `attempt` of request
    /// `req_id`: exponential in the attempt, jittered into the upper half
    /// of the step by a pure mix of `(seed, req_id, attempt)`.
    fn backoff(&self, req_id: u64, attempt: u32) -> Duration {
        let step = self
            .config
            .initial_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.config.max_backoff);
        // Saturate the u128→u64 conversion: a near-`Duration::MAX` step
        // would otherwise truncate to an arbitrary (possibly tiny) wait,
        // turning backoff into a hot spin.
        let ns = u64::try_from(step.as_nanos()).unwrap_or(u64::MAX);
        let jitter = mix(self.config.seed, req_id, u64::from(attempt), 0);
        Duration::from_nanos(ns / 2 + jitter % (ns / 2 + 1))
    }

    /// Submits one request, retrying admission rejections with backoff
    /// until [`ClientConfig::deadline`]. Returns the request id; the
    /// terminal outcome is available from [`ClientSession::finish`] (or
    /// immediately, if admission terminally rejected it).
    pub fn submit(&mut self, req: TxRequest) -> usize {
        let id = self.reqs.len();
        self.reqs.push(Tracked { req: req.clone(), retries: 0 });
        self.outcomes.push(None);
        self.admit(id);
        id
    }

    /// Tries to get request `id` into the batcher, backing off on
    /// admission rejections. Terminal failure records `Rejected`.
    fn admit(&mut self, id: usize) {
        let deadline = saturating_deadline(Instant::now(), self.config.deadline);
        let mut attempt: u32 = 0;
        loop {
            match self.pipeline.submit(self.reqs[id].req.clone()) {
                Ok(()) => {
                    self.admitted.push(id);
                    return;
                }
                // The request *was* admitted; the error describes an
                // older batch that exhausted its consensus retries. Its
                // members are resolved through the event journal.
                Err(PipelineError::BatchQuarantined { .. }) => {
                    self.admitted.push(id);
                    return;
                }
                Err(PipelineError::Rejected { reason, depth, cap }) => {
                    if Instant::now() >= deadline {
                        self.outcomes[id] = Some(ClientOutcome::Rejected {
                            reason: format!("deadline exceeded: {reason}"),
                            depth,
                            cap,
                        });
                        return;
                    }
                    attempt += 1;
                    std::thread::sleep(self.backoff(id as u64, attempt));
                }
                Err(other) => {
                    self.outcomes[id] = Some(ClientOutcome::Rejected {
                        reason: other.to_string(),
                        depth: 0,
                        cap: 0,
                    });
                    return;
                }
            }
        }
    }

    /// Replays newly decided batch events, assigning terminal outcomes
    /// positionally. Committed events need their outcome vector (filled
    /// by sync) before they can resolve; the walk stops at the first
    /// not-yet-synced batch.
    fn process_events(&mut self) {
        loop {
            let Some(&event) = self.pipeline.batch_events().get(self.event_cursor) else {
                return;
            };
            match event {
                BatchEvent::Committed { len } => {
                    if self.committed_seen >= self.pipeline.outcome_journal().len() {
                        return; // not yet applied; resolved after sync
                    }
                    let mut slots: Vec<usize> = self.carried.drain(..).collect();
                    slots.extend(&self.admitted[self.admit_cursor..self.admit_cursor + len]);
                    self.admit_cursor += len;
                    let vector = &self.pipeline.outcome_journal()[self.committed_seen];
                    assert_eq!(
                        vector.len(),
                        slots.len(),
                        "outcome vector misaligned with admission order"
                    );
                    for (req_id, outcome) in slots.into_iter().zip(vector.clone()) {
                        match outcome {
                            TxOutcome::Committed => {
                                self.outcomes[req_id] = Some(ClientOutcome::Committed);
                            }
                            TxOutcome::Aborted { reason } => {
                                self.outcomes[req_id] =
                                    Some(ClientOutcome::Aborted { reason });
                            }
                            TxOutcome::CarriedOver => self.carried.push_back(req_id),
                        }
                    }
                    self.committed_seen += 1;
                }
                BatchEvent::Quarantined { len } => {
                    for &req_id in &self.admitted[self.admit_cursor..self.admit_cursor + len] {
                        self.pending_retry.push(req_id);
                    }
                    self.admit_cursor += len;
                }
            }
            self.event_cursor += 1;
        }
    }

    /// Syncs the pipeline, tolerating a few transient replica lags (a
    /// lagging node may still be absorbing a healed partition).
    fn sync_with_patience(&mut self) -> Result<(), PipelineError> {
        let mut last = Ok(());
        for _ in 0..3 {
            last = self.pipeline.sync();
            match &last {
                Ok(()) => return Ok(()),
                Err(PipelineError::ReplicaLagged { .. }) => continue,
                Err(_) => return last,
            }
        }
        last
    }

    /// Drains everything: flushes buffered batches, syncs replicas,
    /// resolves outcomes, and resubmits quarantined requests until every
    /// request is terminal or budgets are exhausted. Bounded: each round
    /// consumes flush progress or retry budget, so the loop cannot spin
    /// forever even under a permanently broken cluster.
    pub fn finish(&mut self) -> ClientReport {
        self.settle();
        let unresolved = self.outcomes.iter().filter(|o| o.is_none()).count();
        ClientReport { outcomes: self.outcomes.clone(), retries: self.retries, unresolved }
    }

    /// Incremental [`ClientSession::finish`]: drives bounded
    /// flush/sync/resolve/resubmit rounds over whatever has been
    /// submitted so far, without building a report. Safe to call
    /// repeatedly as new requests arrive — the server front-end pumps it
    /// between socket reads to resolve in-flight requests.
    pub fn settle(&mut self) {
        // Retry budget bounds the rounds: every non-final round either
        // resolves requests or burns at least one resubmission.
        let max_rounds = 4 + self.reqs.len() * (self.config.max_retries as usize + 1);
        for _ in 0..max_rounds {
            // Flush until the batcher is empty or a quarantine interrupts
            // (the error is about the journal, which we process below).
            while self.pipeline.pending() > 0 {
                if self.pipeline.flush().is_err() {
                    continue;
                }
            }
            let _ = self.sync_with_patience();
            self.process_events();
            if self.pending_retry.is_empty() {
                if self.pipeline.pending() == 0 {
                    break;
                }
                continue;
            }
            for req_id in std::mem::take(&mut self.pending_retry) {
                if self.reqs[req_id].retries >= self.config.max_retries {
                    let attempts = self.reqs[req_id].retries + 1;
                    self.outcomes[req_id] = Some(ClientOutcome::Rejected {
                        reason: format!("batch quarantined after {attempts} submissions"),
                        depth: 0,
                        cap: 0,
                    });
                    continue;
                }
                self.reqs[req_id].retries += 1;
                self.retries += 1;
                prognosticator_obs::Registry::global().counter("client.retries").inc();
                self.admit(req_id);
            }
        }
    }

    /// Consumes the session, returning the wrapped pipeline.
    pub fn into_pipeline(self) -> Pipeline {
        self.pipeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use prognosticator_consensus::RetryPolicy;
    use prognosticator_core::Catalog;
    use prognosticator_storage::EpochStore;
    use prognosticator_txir::{Expr, InputBound, Key, ProgramBuilder, TableId, Value};
    use std::sync::Arc;

    fn counter_catalog() -> (Arc<Catalog>, prognosticator_core::ProgId) {
        let mut b = ProgramBuilder::new("bump");
        let t = b.table("counters");
        let id = b.input("id", InputBound::int(0, 15));
        let v = b.var("v");
        b.get(v, Expr::key(t, vec![Expr::input(id)]));
        b.put(Expr::key(t, vec![Expr::input(id)]), Expr::var(v).add(Expr::lit(1)));
        let mut catalog = Catalog::new();
        let bump = catalog.register(b.build()).expect("registers");
        (Arc::new(catalog), bump)
    }

    fn populate() -> Arc<dyn Fn(&EpochStore) + Send + Sync> {
        Arc::new(|store: &EpochStore| {
            store.populate((0..16).map(|i| (Key::of_ints(TableId(0), &[i]), Value::Int(0))));
        })
    }

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            batch_cap: 8,
            scheduler: prognosticator_core::baselines::mq_mf(2),
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn every_request_commits_exactly_once_on_a_healthy_cluster() {
        let (catalog, bump) = counter_catalog();
        let p = Pipeline::new(catalog, small_config(), 2, populate()).expect("boots");
        let mut session = ClientSession::new(p, ClientConfig::default());
        for i in 0..24 {
            session.submit(TxRequest::new(bump, vec![Value::Int(i % 16)]));
        }
        let report = session.finish();
        assert_eq!(report.unresolved, 0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.outcomes.len(), 24);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.as_ref(), Some(&ClientOutcome::Committed), "request {i}");
        }
        // Effects landed exactly once: counters 0..8 bumped twice
        // (i and i+16), 8..16 once.
        let p = session.into_pipeline();
        for i in 0..8 {
            assert_eq!(
                p.store(0).get_latest(&Key::of_ints(TableId(0), &[i])),
                Some(Value::Int(2))
            );
        }
        for i in 8..16 {
            assert_eq!(
                p.store(0).get_latest(&Key::of_ints(TableId(0), &[i])),
                Some(Value::Int(1))
            );
        }
    }

    #[test]
    fn admission_pressure_resolves_with_backoff_not_loss() {
        let (catalog, bump) = counter_catalog();
        let config = PipelineConfig {
            batch_window: Duration::from_millis(5),
            batch_cap: 4,
            max_pending: Some(8),
            ..small_config()
        };
        let p = Pipeline::new(catalog, config, 1, populate()).expect("boots");
        let mut session = ClientSession::new(
            p,
            ClientConfig { deadline: Duration::from_secs(5), ..ClientConfig::default() },
        );
        for i in 0..32 {
            session.submit(TxRequest::new(bump, vec![Value::Int(i % 16)]));
        }
        let report = session.finish();
        assert_eq!(report.unresolved, 0);
        let committed =
            report.outcomes.iter().flatten().filter(|o| **o == ClientOutcome::Committed).count();
        assert_eq!(committed, 32, "backoff must absorb pressure without losing requests");
    }

    #[test]
    fn quarantined_requests_are_retried_and_commit_exactly_once() {
        let (catalog, bump) = counter_catalog();
        let config = PipelineConfig {
            consensus_timeout: Duration::from_millis(200),
            batch_window: Duration::from_secs(60),
            retry: RetryPolicy {
                max_attempts: 2,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
            },
            ..small_config()
        };
        let p = Pipeline::new(catalog, config, 2, populate()).expect("boots");
        let mut session = ClientSession::new(p, ClientConfig::default());
        // Cut every link: the first batch must quarantine.
        let n = session.pipeline().cluster().len();
        for a in 0..n {
            for b in (a + 1)..n {
                session.pipeline().cluster().net().partition(a, b);
            }
        }
        for i in 0..8 {
            session.submit(TxRequest::new(bump, vec![Value::Int(i)]));
        }
        let _ = session.pipeline_mut().flush(); // quarantines under the cut
        // Heal: the resubmissions (fresh proposal ids) must commit.
        for a in 0..n {
            for b in (a + 1)..n {
                session.pipeline().cluster().net().heal(a, b);
            }
        }
        session
            .pipeline()
            .cluster()
            .wait_for_leader(Duration::from_secs(10))
            .expect("re-elects");
        let report = session.finish();
        assert_eq!(report.unresolved, 0);
        assert!(report.retries >= 8, "the whole batch was resubmitted");
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.as_ref(), Some(&ClientOutcome::Committed), "request {i}");
        }
        // Exactly once: each counter bumped exactly once despite the
        // quarantine + resubmit cycle.
        let p = session.into_pipeline();
        for replica in 0..p.replica_count() {
            for i in 0..8 {
                assert_eq!(
                    p.store(replica).get_latest(&Key::of_ints(TableId(0), &[i])),
                    Some(Value::Int(1)),
                    "replica {replica} counter {i}"
                );
            }
        }
    }

    #[test]
    fn retry_budget_exhaustion_is_a_terminal_rejection() {
        let (catalog, bump) = counter_catalog();
        let config = PipelineConfig {
            consensus_timeout: Duration::from_millis(120),
            batch_window: Duration::from_secs(60),
            retry: RetryPolicy {
                max_attempts: 1,
                initial_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(4),
            },
            ..small_config()
        };
        let p = Pipeline::new(catalog, config, 1, populate()).expect("boots");
        let mut session = ClientSession::new(
            p,
            ClientConfig { max_retries: 1, ..ClientConfig::default() },
        );
        // Permanently cut the cluster: every batch quarantines, so after
        // the retry budget each request must terminally reject — never
        // hang unresolved.
        let n = session.pipeline().cluster().len();
        for a in 0..n {
            for b in (a + 1)..n {
                session.pipeline().cluster().net().partition(a, b);
            }
        }
        for i in 0..8 {
            session.submit(TxRequest::new(bump, vec![Value::Int(i)]));
        }
        let report = session.finish();
        assert_eq!(report.unresolved, 0, "no request may be left in limbo");
        for (i, o) in report.outcomes.iter().enumerate() {
            assert!(
                matches!(o, Some(ClientOutcome::Rejected { .. })),
                "request {i} should be terminally rejected, got {o:?}"
            );
        }
        assert_eq!(report.retries, 8, "each request used its one retry");
    }

    /// Regression: near-`u64::MAX` deadlines and backoff steps must
    /// saturate, not overflow. Before the fix, `Instant::now() +
    /// config.deadline` panicked on huge budgets and `step.as_nanos() as
    /// u64` truncated a near-`Duration::MAX` step to an arbitrary small
    /// wait (a hot retry spin).
    #[test]
    fn backoff_and_deadline_saturate_near_u64_max() {
        let huge = Duration::new(u64::MAX, 999_999_999);
        let now = Instant::now();
        let deadline = saturating_deadline(now, huge);
        assert!(deadline >= now, "saturated deadline must not wrap into the past");
        assert_eq!(saturating_deadline(now, Duration::ZERO), now);

        let (catalog, bump) = counter_catalog();
        let p = Pipeline::new(catalog, small_config(), 1, populate()).expect("boots");
        let cfg = ClientConfig {
            deadline: huge,
            initial_backoff: huge,
            max_backoff: huge,
            ..ClientConfig::default()
        };
        let mut session = ClientSession::new(p, cfg);
        // The jitter stays within [step/2, step] even at the saturation
        // point — never a truncated near-zero wait, never an overflow.
        for attempt in [1u32, 16, 17, u32::MAX] {
            let d = session.backoff(7, attempt);
            assert_eq!(d, session.backoff(7, attempt), "pure under saturation");
            assert!(
                d >= Duration::from_nanos(u64::MAX / 2),
                "attempt {attempt}: truncation produced a hot spin ({d:?})"
            );
        }
        // The admit path computes `now + deadline` on entry: a healthy
        // submission under the huge budget must not panic.
        session.submit(TxRequest::new(bump, vec![Value::Int(1)]));
        let report = session.finish();
        assert_eq!(report.unresolved, 0);
        assert_eq!(report.outcomes[0], Some(ClientOutcome::Committed));
        session.into_pipeline().shutdown();
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let (catalog, _) = counter_catalog();
        let p = Pipeline::new(catalog, small_config(), 1, populate()).expect("boots");
        let cfg = ClientConfig {
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(16),
            seed: 7,
            ..ClientConfig::default()
        };
        let session = ClientSession::new(p, cfg.clone());
        for req in 0..10u64 {
            for attempt in 1..10u32 {
                let d = session.backoff(req, attempt);
                assert_eq!(d, session.backoff(req, attempt), "pure function");
                assert!(d <= Duration::from_millis(16), "capped at max_backoff");
                assert!(d >= Duration::from_millis(1), "at least half the first step");
            }
        }
        // Jitter actually varies across requests.
        let distinct: std::collections::HashSet<_> =
            (0..32u64).map(|r| session.backoff(r, 3)).collect();
        assert!(distinct.len() > 8, "jitter should spread backoffs");
    }

    /// Same seed + same rejection sequence ⇒ byte-identical retry
    /// schedule and identical terminal outcomes; a different seed
    /// reshuffles the schedule.
    #[test]
    fn backoff_schedule_and_terminal_outcome_replay_from_the_seed() {
        let session_with_seed = |seed: u64| {
            let (catalog, _) = counter_catalog();
            let p = Pipeline::new(catalog, small_config(), 1, populate()).expect("boots");
            ClientSession::new(
                p,
                ClientConfig {
                    initial_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(16),
                    seed,
                    ..ClientConfig::default()
                },
            )
        };
        // A rejection sequence is (request id, attempt) pairs in
        // admission order; the retry schedule is the backoff chosen for
        // each rejection.
        let rejections: Vec<(u64, u32)> =
            (0..6u64).flat_map(|req| (1..5u32).map(move |attempt| (req, attempt))).collect();
        let schedule = |session: &ClientSession| -> Vec<Duration> {
            rejections.iter().map(|&(req, attempt)| session.backoff(req, attempt)).collect()
        };

        // Two independently built sessions replay the same rejection
        // sequence into byte-identical schedules; a different seed does
        // not.
        let (a, b) = (session_with_seed(7), session_with_seed(7));
        assert_eq!(schedule(&a), schedule(&b), "same seed ⇒ same retry schedule");
        assert_ne!(schedule(&a), schedule(&session_with_seed(8)), "seed must matter");

        // Terminal outcomes replay too: a full admission queue plus a
        // zero deadline makes every over-capacity rejection terminal,
        // so two identically seeded runs of the same submission
        // sequence record identical outcome journals.
        let run_overloaded = |seed: u64| -> Vec<Option<ClientOutcome>> {
            let (catalog, bump) = counter_catalog();
            let config = PipelineConfig {
                max_pending: Some(2),
                batch_window: Duration::from_secs(60),
                ..small_config()
            };
            let p = Pipeline::new(catalog, config, 1, populate()).expect("boots");
            let mut session = ClientSession::new(
                p,
                ClientConfig { deadline: Duration::ZERO, seed, ..ClientConfig::default() },
            );
            for i in 0..6 {
                session.submit(TxRequest::new(bump, vec![Value::Int(i)]));
            }
            let report = session.finish();
            assert_eq!(report.unresolved, 0);
            report.outcomes
        };
        let first = run_overloaded(7);
        assert_eq!(first, run_overloaded(7), "same seed ⇒ identical terminal outcomes");
        assert!(
            first.iter().any(|o| matches!(o, Some(ClientOutcome::Rejected { .. }))),
            "the overload must actually reject something"
        );
        assert!(
            first.iter().any(|o| matches!(o, Some(ClientOutcome::Committed))),
            "admitted requests must still commit"
        );
    }
}
