//! Raft-lite: leader election + log replication + commit, enough to give
//! every replica the same ordered stream of batches.
//!
//! The paper assumes a consensus layer (Paxos/Raft, §III-A) that delivers
//! identical batches in the same order to all replicas. This module
//! implements that contract over the [`crate::simnet::SimNet`]: seeded
//! election timeouts, per-term single votes, log-matching append, and
//! majority commit. Persistence and snapshots are provided through the
//! [`LogStore`] seam ([`crate::wal`]): every term/vote/log mutation is
//! saved before it takes effect, nodes can crash and restart from their
//! store, and a follower that has fallen behind the compaction horizon
//! catches up via an `InstallSnapshot` RPC instead of full log replay.
//! Still omitted relative to full Raft: membership changes.
//!
//! Election timeouts are *deterministic*: each node's jitter is a pure
//! function of `(seed, node, attempt)` and nodes occupy disjoint slots of
//! the jitter window (see [`election_jitter`]), so two candidates can
//! never pick the same timeout and tie forever.

use crate::simnet::{NetConfig, NodeId, SimNet};
use crate::wal::{DurabilityStats, HardState, LogStore, MemLogStore, SnapshotData};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry<T> {
    /// Term the entry was appended in.
    pub term: u64,
    /// Client-assigned unique id (used to deduplicate re-proposals).
    pub id: u64,
    /// The payload (a transaction batch, in the full pipeline).
    pub payload: T,
}

/// A raw slot in the replicated log: either a client entry or a leader
/// no-op. Every new leader appends (and replicates) a no-op in its own
/// term immediately on election — the standard Raft device that lets it
/// commit the previous leader's tail without waiting for fresh client
/// traffic (§5.4.2 only allows counting replicas for current-term
/// entries). No-ops are invisible in [`NodeView::committed`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record<T> {
    /// Term the record was appended in.
    pub term: u64,
    /// Client-assigned id, or 0 for leader no-ops (client ids start at 1).
    pub id: u64,
    /// The client payload; `None` for leader no-ops.
    pub payload: Option<T>,
}

/// Messages exchanged by Raft nodes.
#[derive(Debug, Clone)]
pub enum RaftMsg<T> {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Candidate's id.
        candidate: NodeId,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote response.
    Vote {
        /// Voter's current term.
        term: u64,
        /// Voter id.
        from: NodeId,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries (empty = heartbeat).
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Leader id.
        leader: NodeId,
        /// Index of the entry preceding `entries`.
        prev_index: u64,
        /// Term of that entry.
        prev_term: u64,
        /// Records to append (client entries and leader no-ops).
        entries: Vec<Record<T>>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Append response.
    AppendResp {
        /// Follower's current term.
        term: u64,
        /// Follower id.
        from: NodeId,
        /// Whether the append matched.
        success: bool,
        /// Highest index known replicated on the follower.
        match_index: u64,
    },
    /// Leader ships its snapshot to a follower whose next index has been
    /// compacted away. Carries the full committed-prefix payload entries
    /// (cheap here: the batch log *is* the replica state).
    InstallSnapshot {
        /// Leader's term.
        term: u64,
        /// Leader id.
        leader: NodeId,
        /// The snapshot to install.
        snapshot: SnapshotData<T>,
    },
    /// Client proposal (only the leader acts on it).
    Propose {
        /// Client-assigned unique id.
        id: u64,
        /// The payload.
        payload: T,
    },
}

/// Timing knobs (kept small so tests converge quickly).
#[derive(Debug, Clone)]
pub struct RaftTiming {
    /// Minimum election timeout.
    pub election_min: Duration,
    /// Maximum election timeout.
    pub election_max: Duration,
    /// Leader heartbeat interval.
    pub heartbeat: Duration,
}

impl Default for RaftTiming {
    fn default() -> Self {
        RaftTiming {
            election_min: Duration::from_millis(80),
            election_max: Duration::from_millis(160),
            heartbeat: Duration::from_millis(25),
        }
    }
}

/// SplitMix64 finalizer — the deterministic hash behind election jitter.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic election-timeout jitter: a pure function of the run
/// seed, the node id, and the per-node election attempt counter.
///
/// The jitter window (`election_max - election_min`) is divided into
/// `nodes` disjoint slots and node `i` always lands inside slot `i`, so
/// **two distinct nodes can never pick the same timeout** — candidate
/// ties cannot repeat forever regardless of seed (the liveness regression
/// the old thread-RNG jitter could only make improbable).
pub fn election_jitter(
    seed: u64,
    node: NodeId,
    nodes: usize,
    attempt: u64,
    span: Duration,
) -> Duration {
    let span_ns = span.as_nanos().max(1) as u64;
    let slot = (span_ns / nodes.max(1) as u64).max(1);
    let base = slot.saturating_mul(node as u64).min(span_ns - 1);
    let h = mix64(seed ^ mix64((node as u64) << 32 | attempt));
    Duration::from_nanos(base + h % slot)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Shared observable state of one node (what tests and the pipeline read).
#[derive(Debug)]
pub struct NodeView<T> {
    /// Committed entries in order.
    pub committed: RwLock<Vec<LogEntry<T>>>,
    /// The proposal id of every entry in `committed`, so "has this
    /// proposal committed here?" is one lookup, not a scan of the log.
    pub committed_ids: RwLock<HashSet<u64>>,
    /// Current term (best effort, for diagnostics).
    pub term: RwLock<u64>,
    /// Whether this node currently believes itself leader.
    pub is_leader: AtomicBool,
    /// Every term in which this node won an election — lets tests check
    /// the Election Safety property (at most one leader per term).
    /// Preserved across crash/restart so safety checks span incarnations.
    pub leader_terms: RwLock<Vec<u64>>,
    /// The node's raft commit index (includes leader no-ops).
    pub commit_index: AtomicU64,
    /// How many snapshots this node has installed from a leader.
    pub snapshot_installs: AtomicU64,
}

impl<T> Default for NodeView<T> {
    fn default() -> Self {
        NodeView {
            committed: RwLock::new(Vec::new()),
            committed_ids: RwLock::new(HashSet::new()),
            term: RwLock::new(0),
            is_leader: AtomicBool::new(false),
            leader_terms: RwLock::new(Vec::new()),
            commit_index: AtomicU64::new(0),
            snapshot_installs: AtomicU64::new(0),
        }
    }
}

impl<T> NodeView<T> {
    /// Appends one newly committed entry (entry first, then its id, so a
    /// visible id implies a visible entry).
    fn publish(&self, entry: LogEntry<T>) {
        let id = entry.id;
        self.committed.write().push(entry);
        self.committed_ids.write().insert(id);
    }
}

/// The cluster's commit signal, shared by every node and every waiter: a
/// generation counter that a node bumps (under the mutex) after it
/// publishes a commit, installs or recovers a snapshot, or gains or
/// loses leadership, plus a condvar to sleep on until the next bump.
///
/// No wake-up is lost. A waiter reads the generation *before* probing its
/// predicate, and parks only while the generation still equals what it
/// read. A publication that lands after the probe bumps the generation
/// under the same mutex: either before the waiter re-locks (it sees the
/// new generation and probes again without sleeping) or while it is
/// parked (the bump's `notify_all` wakes it).
#[derive(Debug, Default)]
struct CommitSignal {
    generation: Mutex<u64>,
    changed: Condvar,
}

impl CommitSignal {
    fn notify(&self) {
        *self.generation.lock() += 1;
        self.changed.notify_all();
    }

    /// Probes `ready` after every bump until it holds (true) or
    /// `deadline` passes with it still false.
    fn wait_until(&self, deadline: Instant, mut ready: impl FnMut() -> bool) -> bool {
        loop {
            let seen = *self.generation.lock();
            if ready() {
                return true;
            }
            let mut generation = self.generation.lock();
            while *generation == seen {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return false;
                }
                self.changed.wait_for(&mut generation, left);
            }
        }
    }
}

/// Shared handle to a node's durable store.
pub type SharedLogStore<T> = Arc<Mutex<Box<dyn LogStore<T>>>>;

struct Node<T> {
    id: NodeId,
    n: usize,
    term: u64,
    voted_for: Option<NodeId>,
    /// In-memory log suffix; absolute index of `log[i]` is
    /// `log_base + i + 1` (indices are 1-based, `log_base` = last index
    /// covered by the snapshot).
    log: Vec<Record<T>>,
    log_base: u64,
    snapshot: Option<SnapshotData<T>>,
    /// Every client proposal id present in `log` or `snapshot`, kept in
    /// sync incrementally so proposal dedup is O(1) instead of an
    /// O(log-length) scan per `Propose`. Survives compaction because ids
    /// only *move* from the log into the snapshot's committed prefix;
    /// conflict truncation and snapshot installs resync it explicitly.
    known_ids: HashSet<u64>,
    commit_index: u64,
    role: Role,
    votes: usize,
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    leader_hint: Option<NodeId>,
    view: Arc<NodeView<T>>,
    signal: Arc<CommitSignal>,
    subscribers: Vec<Sender<LogEntry<T>>>,
    store: SharedLogStore<T>,
    compact_to: Arc<AtomicU64>,
    seed: u64,
    election_attempt: u64,
    timing: RaftTiming,
    deadline: Instant,
}

impl<T: Clone + Send + Sync + 'static> Node<T> {
    fn last_log_index(&self) -> u64 {
        self.log_base + self.log.len() as u64
    }

    fn last_log_term(&self) -> u64 {
        self.log
            .last()
            .map(|e| e.term)
            .or_else(|| self.snapshot.as_ref().map(|s| s.last_term))
            .unwrap_or(0)
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else if index == self.log_base {
            self.snapshot.as_ref().map_or(0, |s| s.last_term)
        } else if index < self.log_base {
            0 // compacted away; callers never compare below the snapshot
        } else {
            self.log.get((index - self.log_base - 1) as usize).map_or(0, |e| e.term)
        }
    }

    /// Records a client proposal id as present. No-ops (id 0) are not
    /// tracked — only client proposals are deduplicated.
    fn note_id(&mut self, id: u64) {
        if id != 0 {
            self.known_ids.insert(id);
        }
    }

    /// Drops the ids of truncated records from the dedup set — unless the
    /// same id still exists in the remaining log or the snapshot (a
    /// conflicting leader can re-ship the same proposal under a new term).
    fn forget_ids(&mut self, removed: &[Record<T>]) {
        for rec in removed {
            if rec.id == 0 {
                continue;
            }
            let still_present = self.log.iter().any(|e| e.id == rec.id)
                || self
                    .snapshot
                    .as_ref()
                    .is_some_and(|s| s.entries.iter().any(|e| e.id == rec.id));
            if !still_present {
                self.known_ids.remove(&rec.id);
            }
        }
    }

    /// Rebuilds the dedup set from scratch — used after a leader-shipped
    /// snapshot replaces local state wholesale.
    fn rebuild_known_ids(&mut self) {
        self.known_ids = known_ids_of(&self.log, self.snapshot.as_ref());
    }

    fn persist_hard_state(&self) {
        self.store
            .lock()
            .save_hard_state(HardState { term: self.term, voted_for: self.voted_for });
    }

    /// Publishes whether this node leads; a change wakes the waiters.
    fn set_leader(&self, leader: bool) {
        if self.view.is_leader.swap(leader, Ordering::AcqRel) != leader {
            self.signal.notify();
        }
    }

    fn reset_election_deadline(&mut self) {
        self.election_attempt += 1;
        let span = self.timing.election_max - self.timing.election_min;
        let jitter = election_jitter(self.seed, self.id, self.n, self.election_attempt, span);
        self.deadline = Instant::now() + self.timing.election_min + jitter;
    }

    /// Adopts a higher term and reverts to follower. For followers and
    /// candidates this deliberately does NOT reset the election deadline:
    /// the timer only resets on granting a vote or on valid leader
    /// contact. Resetting on mere term observation would let a
    /// stale-logged candidate (which can never win) perpetually suppress
    /// healthy nodes' timeouts — a livelock the deterministic slotted
    /// jitter would otherwise never escape.
    ///
    /// A *deposed leader* is the exception: its deadline is stale from
    /// its leadership tenure (leaders use it as a heartbeat timer), so
    /// without a reset it would time out instantly and — often holding
    /// the longest log — steal the election back, resurrecting entries
    /// the deposing majority had already abandoned. It instead waits out
    /// a full fresh slot, giving the in-flight election time to finish.
    fn become_follower(&mut self, term: u64) {
        if self.role == Role::Leader {
            self.reset_election_deadline();
        }
        self.term = term;
        self.role = Role::Follower;
        self.voted_for = None;
        self.persist_hard_state();
        self.set_leader(false);
        *self.view.term.write() = term;
    }

    fn become_leader(&mut self, net: &SimNet<RaftMsg<T>>) {
        self.role = Role::Leader;
        self.set_leader(true);
        self.view.leader_terms.write().push(self.term);
        prognosticator_obs::Registry::global().counter("raft.leader_wins").inc();
        self.next_index = vec![self.last_log_index() + 1; self.n];
        self.match_index = vec![0; self.n];
        // Commit-visibility no-op: a leader may only count replicas for
        // entries of its own term, so without this a fresh leader would
        // sit on the previous leader's committed-but-unannounced tail
        // until the next client proposal arrived.
        let noop = Record { term: self.term, id: 0, payload: None };
        self.store.lock().append(&noop);
        self.log.push(noop);
        self.match_index[self.id] = self.last_log_index();
        self.deadline = Instant::now(); // heartbeat immediately
        self.broadcast_append(net);
        if self.n == 1 {
            self.advance_commit(net);
        }
    }

    fn start_election(&mut self, net: &SimNet<RaftMsg<T>>) {
        prognosticator_obs::Registry::global().counter("raft.elections").inc();
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.persist_hard_state();
        *self.view.term.write() = self.term;
        self.votes = 1;
        self.set_leader(false);
        self.reset_election_deadline();
        for peer in 0..self.n {
            if peer != self.id {
                net.send(
                    self.id,
                    peer,
                    RaftMsg::RequestVote {
                        term: self.term,
                        candidate: self.id,
                        last_log_index: self.last_log_index(),
                        last_log_term: self.last_log_term(),
                    },
                );
            }
        }
        // Single-node cluster: win immediately.
        if self.votes * 2 > self.n {
            self.become_leader(net);
        }
    }

    fn broadcast_append(&mut self, net: &SimNet<RaftMsg<T>>) {
        for peer in 0..self.n {
            if peer == self.id {
                continue;
            }
            let next = self.next_index[peer];
            if next <= self.log_base {
                // The entries this follower needs are compacted away:
                // ship the snapshot instead of replaying the log.
                if let Some(snap) = &self.snapshot {
                    net.send(
                        self.id,
                        peer,
                        RaftMsg::InstallSnapshot {
                            term: self.term,
                            leader: self.id,
                            snapshot: snap.clone(),
                        },
                    );
                    continue;
                }
            }
            let prev_index = next - 1;
            let prev_term = self.term_at(prev_index);
            let skip = (prev_index - self.log_base) as usize;
            let entries: Vec<Record<T>> = self.log.iter().skip(skip).cloned().collect();
            net.send(
                self.id,
                peer,
                RaftMsg::AppendEntries {
                    term: self.term,
                    leader: self.id,
                    prev_index,
                    prev_term,
                    entries,
                    leader_commit: self.commit_index,
                },
            );
        }
        self.deadline = Instant::now() + self.timing.heartbeat;
    }

    /// Commits the highest current-term index a majority holds, then
    /// pushes the new commit index to the followers at once (entries go
    /// only to peers still lacking them, as in a heartbeat), so they
    /// publish the commit one message delay later instead of at the next
    /// heartbeat.
    fn advance_commit(&mut self, net: &SimNet<RaftMsg<T>>) {
        if self.role != Role::Leader {
            return;
        }
        for n in (self.commit_index + 1..=self.last_log_index()).rev() {
            if self.term_at(n) != self.term {
                continue;
            }
            let replicas = self.match_index.iter().filter(|&&m| m >= n).count();
            if replicas * 2 > self.n {
                self.set_commit(n);
                if self.n > 1 {
                    self.broadcast_append(net);
                }
                break;
            }
        }
    }

    fn set_commit(&mut self, index: u64) {
        let index = index.min(self.last_log_index());
        if self.commit_index >= index {
            return;
        }
        while self.commit_index < index {
            self.commit_index += 1;
            debug_assert!(self.commit_index > self.log_base, "commit below snapshot base");
            let rec = self.log[(self.commit_index - self.log_base - 1) as usize].clone();
            // Leader no-ops advance the commit index but are invisible to
            // clients: only records carrying a payload are published.
            if let Some(payload) = rec.payload {
                let entry = LogEntry { term: rec.term, id: rec.id, payload };
                self.subscribers.retain(|s| s.send(entry.clone()).is_ok());
                self.view.publish(entry);
            }
        }
        self.view.commit_index.store(self.commit_index, Ordering::Release);
        self.signal.notify();
    }

    /// Compacts the log up to `min(watermark, commit_index)`: persists a
    /// snapshot of the full committed payload prefix and drops the
    /// covered records. A failed durable install (injected disk fault)
    /// skips compaction — the log stays authoritative and we retry later.
    fn maybe_compact(&mut self) {
        let want = self.compact_to.load(Ordering::Acquire).min(self.commit_index);
        if want <= self.log_base {
            return;
        }
        let mut entries = self.snapshot.as_ref().map_or_else(Vec::new, |s| s.entries.clone());
        for rec in &self.log[..(want - self.log_base) as usize] {
            if let Some(p) = &rec.payload {
                entries.push(LogEntry { term: rec.term, id: rec.id, payload: p.clone() });
            }
        }
        let snap = SnapshotData { last_index: want, last_term: self.term_at(want), entries };
        if self.store.lock().install_snapshot(&snap).is_err() {
            return;
        }
        self.log.drain(..(want - self.log_base) as usize);
        self.log_base = want;
        self.snapshot = Some(snap);
    }

    /// Installs a leader-shipped snapshot: persists it, replaces the
    /// covered log prefix, publishes any newly-visible committed entries.
    fn apply_snapshot(&mut self, snap: SnapshotData<T>) {
        let keep_suffix = self.last_log_index() > snap.last_index
            && self.term_at(snap.last_index) == snap.last_term;
        {
            let mut store = self.store.lock();
            if store.install_snapshot(&snap).is_err() {
                return; // durable install failed; leader will retry
            }
            if !keep_suffix {
                store.truncate_from(snap.last_index + 1);
            }
        }
        if keep_suffix {
            let covered = (snap.last_index - self.log_base) as usize;
            self.log.drain(..covered);
        } else {
            self.log.clear();
        }
        self.log_base = snap.last_index;
        let old_len = self.view.committed.read().len();
        for e in snap.entries.iter().skip(old_len) {
            self.subscribers.retain(|s| s.send(e.clone()).is_ok());
            self.view.publish(e.clone());
        }
        if snap.last_index > self.commit_index {
            self.commit_index = snap.last_index;
            self.view.commit_index.store(self.commit_index, Ordering::Release);
        }
        self.view.snapshot_installs.fetch_add(1, Ordering::AcqRel);
        self.snapshot = Some(snap);
        self.rebuild_known_ids();
        self.signal.notify();
    }

    fn handle(&mut self, msg: RaftMsg<T>, net: &SimNet<RaftMsg<T>>) {
        match msg {
            RaftMsg::RequestVote { term, candidate, last_log_index, last_log_term } => {
                if term > self.term {
                    self.become_follower(term);
                }
                let up_to_date = (last_log_term, last_log_index)
                    >= (self.last_log_term(), self.last_log_index());
                let granted = term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(candidate));
                if granted {
                    self.voted_for = Some(candidate);
                    self.persist_hard_state();
                    self.reset_election_deadline();
                }
                net.send(self.id, candidate, RaftMsg::Vote { term: self.term, from: self.id, granted });
            }
            RaftMsg::Vote { term, granted, .. } => {
                if term > self.term {
                    self.become_follower(term);
                    return;
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes += 1;
                    if self.votes * 2 > self.n {
                        self.become_leader(net);
                    }
                }
            }
            RaftMsg::AppendEntries { term, leader, prev_index, prev_term, entries, leader_commit } => {
                self.handle_append_entries(term, leader, prev_index, prev_term, entries, leader_commit, net);
            }
            RaftMsg::InstallSnapshot { term, leader, snapshot } => {
                if term < self.term {
                    net.send(
                        self.id,
                        leader,
                        RaftMsg::AppendResp { term: self.term, from: self.id, success: false, match_index: 0 },
                    );
                    return;
                }
                if term > self.term {
                    self.become_follower(term);
                } else {
                    self.role = Role::Follower;
                    self.set_leader(false);
                }
                self.reset_election_deadline(); // valid leader contact
                self.leader_hint = Some(leader);
                if snapshot.last_index > self.commit_index {
                    self.apply_snapshot(snapshot);
                }
                net.send(
                    self.id,
                    leader,
                    RaftMsg::AppendResp {
                        term: self.term,
                        from: self.id,
                        success: true,
                        match_index: self.last_log_index(),
                    },
                );
            }
            RaftMsg::AppendResp { term, from, success, match_index } => {
                if term > self.term {
                    self.become_follower(term);
                    return;
                }
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                if success {
                    self.match_index[from] = self.match_index[from].max(match_index);
                    self.next_index[from] = self.match_index[from] + 1;
                    self.advance_commit(net);
                } else {
                    // Back off (to the follower's hint) and retry at the
                    // next heartbeat.
                    self.next_index[from] = (match_index + 1).max(1);
                }
            }
            RaftMsg::Propose { id, payload } => {
                if self.role == Role::Leader {
                    // O(1) dedup against every id in the log or snapshot;
                    // retried proposals (client timeouts) are absorbed here.
                    let duplicate = self.known_ids.contains(&id);
                    if !duplicate {
                        let rec = Record { term: self.term, id, payload: Some(payload) };
                        self.note_id(id);
                        self.store.lock().append(&rec);
                        self.log.push(rec);
                        self.match_index[self.id] = self.last_log_index();
                        self.broadcast_append(net);
                        if self.n == 1 {
                            self.advance_commit(net);
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_append_entries(
        &mut self,
        term: u64,
        leader: NodeId,
        mut prev_index: u64,
        mut prev_term: u64,
        mut entries: Vec<Record<T>>,
        leader_commit: u64,
        net: &SimNet<RaftMsg<T>>,
    ) {
        if term < self.term {
            net.send(
                self.id,
                leader,
                RaftMsg::AppendResp { term: self.term, from: self.id, success: false, match_index: 0 },
            );
            return;
        }
        if term > self.term {
            self.become_follower(term);
        } else if self.role != Role::Leader {
            self.role = Role::Follower;
            self.set_leader(false);
        } else {
            return; // two leaders in one term cannot happen
        }
        self.reset_election_deadline(); // valid leader contact
        self.leader_hint = Some(leader);
        if prev_index < self.log_base {
            // The leader's window starts below our snapshot: everything
            // up to log_base is committed state, so skip the overlap.
            let skip = (self.log_base - prev_index) as usize;
            if entries.len() <= skip {
                net.send(
                    self.id,
                    leader,
                    RaftMsg::AppendResp {
                        term: self.term,
                        from: self.id,
                        success: true,
                        match_index: self.last_log_index(),
                    },
                );
                return;
            }
            entries.drain(..skip);
            prev_index = self.log_base;
            prev_term = self.term_at(self.log_base);
        }
        // Log matching check.
        let ok = prev_index <= self.last_log_index() && self.term_at(prev_index) == prev_term;
        if ok {
            // Truncate conflicts and append (persisting each mutation).
            let mut index = prev_index;
            for entry in entries {
                index += 1;
                let pos = (index - self.log_base - 1) as usize;
                if pos < self.log.len() {
                    if self.log[pos].term != entry.term {
                        debug_assert!(index > self.commit_index, "conflicting entry below commit index");
                        let removed = self.log.split_off(pos);
                        let mut store = self.store.lock();
                        store.truncate_from(index);
                        store.append(&entry);
                        drop(store);
                        self.note_id(entry.id);
                        self.log.push(entry);
                        // Forget truncated ids *after* the replacement is
                        // in place, so a re-shipped id is not dropped.
                        self.forget_ids(&removed);
                    }
                } else {
                    self.note_id(entry.id);
                    self.store.lock().append(&entry);
                    self.log.push(entry);
                }
            }
            self.set_commit(leader_commit.min(self.last_log_index()));
            net.send(
                self.id,
                leader,
                RaftMsg::AppendResp {
                    term: self.term,
                    from: self.id,
                    success: true,
                    match_index: self.last_log_index(),
                },
            );
        } else {
            net.send(
                self.id,
                leader,
                RaftMsg::AppendResp {
                    term: self.term,
                    from: self.id,
                    success: false,
                    match_index: prev_index.saturating_sub(1),
                },
            );
        }
    }
}

/// Aggregated durability counters for a whole cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityReport {
    /// Merged per-store counters (fsyncs, appends, snapshot writes, ...).
    pub store: DurabilityStats,
    /// Total snapshots installed from a leader across all nodes.
    pub snapshot_installs: u64,
}

/// One node's seat in the cluster: everything that outlives the node
/// thread across crash/restart cycles.
struct Seat<T> {
    view: Arc<NodeView<T>>,
    store: SharedLogStore<T>,
    compact_to: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    subscribers: Vec<Sender<LogEntry<T>>>,
}

/// A running Raft cluster over a simulated network.
pub struct RaftCluster<T: Clone + Send + Sync + 'static> {
    net: Arc<SimNet<RaftMsg<T>>>,
    seats: Vec<Seat<T>>,
    signal: Arc<CommitSignal>,
    timing: RaftTiming,
    seed: u64,
    next_id: AtomicU64,
}

impl<T: Clone + Send + Sync + 'static> RaftCluster<T> {
    /// Spawns `n` nodes with the given network fault model and timing,
    /// each persisting into a hermetic in-memory [`MemLogStore`].
    pub fn new(n: usize, net_config: NetConfig, timing: RaftTiming, seed: u64) -> Self {
        Self::with_subscribers(n, net_config, timing, seed, Vec::new())
    }

    /// Like [`RaftCluster::new`], additionally attaching a committed-entry
    /// subscriber channel to each node (index-aligned; missing = none).
    ///
    /// Restarted nodes re-deliver entries committed after their snapshot,
    /// so subscribers see at-least-once delivery across crashes.
    pub fn with_subscribers(
        n: usize,
        net_config: NetConfig,
        timing: RaftTiming,
        seed: u64,
        subscribers: Vec<Vec<Sender<LogEntry<T>>>>,
    ) -> Self {
        let stores = (0..n)
            .map(|_| Box::new(MemLogStore::new()) as Box<dyn LogStore<T>>)
            .collect();
        Self::with_log_stores(n, net_config, timing, seed, subscribers, stores)
    }

    /// Spawns `n` nodes over caller-provided durable stores (one per
    /// node). Each node recovers its term, vote, snapshot, and log from
    /// its store before joining the cluster, so a store carried over from
    /// a previous incarnation resumes where it crashed.
    pub fn with_log_stores(
        n: usize,
        net_config: NetConfig,
        timing: RaftTiming,
        seed: u64,
        mut subscribers: Vec<Vec<Sender<LogEntry<T>>>>,
        stores: Vec<Box<dyn LogStore<T>>>,
    ) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        assert_eq!(stores.len(), n, "one store per node");
        subscribers.resize_with(n, Vec::new);
        let mut inboxes = Vec::new();
        let mut rxs: Vec<Receiver<RaftMsg<T>>> = Vec::new();
        for _ in 0..n {
            let (tx, rx) = channel();
            inboxes.push(tx);
            rxs.push(rx);
        }
        let net = Arc::new(SimNet::new(inboxes, net_config, seed));
        // Resume client-id allocation past anything already durable, so
        // fresh proposals are never swallowed by leader-side dedup
        // against entries recovered from a previous incarnation.
        let max_recovered_id = stores
            .iter()
            .flat_map(|s| {
                let from_log = s.records().into_iter().map(|r| r.id);
                let from_snap = s
                    .snapshot()
                    .into_iter()
                    .flat_map(|snap| snap.entries.into_iter().map(|e| e.id));
                from_log.chain(from_snap).collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0);
        let signal = Arc::new(CommitSignal::default());
        let mut seats = Vec::new();
        for ((id, rx), (subs, store)) in
            (0..n).zip(rxs).zip(subscribers.into_iter().zip(stores))
        {
            let store: SharedLogStore<T> = Arc::new(Mutex::new(store));
            let view = Arc::new(NodeView::default());
            let compact_to = Arc::new(AtomicU64::new(0));
            let shutdown = Arc::new(AtomicBool::new(false));
            let handle = spawn_node_thread(
                id,
                n,
                Arc::clone(&net),
                timing.clone(),
                seed,
                Arc::clone(&view),
                Arc::clone(&signal),
                Arc::clone(&store),
                Arc::clone(&compact_to),
                Arc::clone(&shutdown),
                subs.clone(),
                rx,
            );
            seats.push(Seat { view, store, compact_to, shutdown, handle: Some(handle), subscribers: subs });
        }
        RaftCluster {
            net,
            seats,
            signal,
            timing,
            seed,
            next_id: AtomicU64::new(max_recovered_id + 1),
        }
    }

    /// The simulated network (for partitions / fault injection).
    pub fn net(&self) -> &SimNet<RaftMsg<T>> {
        &self.net
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.seats.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.seats.is_empty()
    }

    /// The observable state of `node` (shared with its thread).
    pub fn node_view(&self, node: NodeId) -> Arc<NodeView<T>> {
        Arc::clone(&self.seats[node].view)
    }

    /// The current leader, if any node believes it is one.
    pub fn leader(&self) -> Option<NodeId> {
        self.seats.iter().position(|s| s.view.is_leader.load(Ordering::Acquire))
    }

    /// Every node currently believing it is leader. Stale claims are
    /// included: an isolated old leader keeps claiming leadership until it
    /// reconnects and observes the higher term.
    pub fn current_leaders(&self) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&n| self.seats[n].view.is_leader.load(Ordering::Acquire))
            .collect()
    }

    /// Waits until some node is leader.
    pub fn wait_for_leader(&self, timeout: Duration) -> Option<NodeId> {
        let mut leader = None;
        self.wait_until(timeout, || {
            leader = self.leader();
            leader.is_some()
        });
        leader
    }

    /// Blocks on the cluster's commit signal until `ready` holds or
    /// `timeout` passes, probing `ready` again after every commit,
    /// snapshot install and leadership change on any node. Returns
    /// whether `ready` held. `ready` should depend only on that state:
    /// nothing else wakes the wait.
    pub fn wait_until(&self, timeout: Duration, ready: impl FnMut() -> bool) -> bool {
        self.signal.wait_until(Instant::now() + timeout, ready)
    }

    /// Broadcasts a proposal (assigning it a fresh id) to every node; the
    /// leader appends it. Returns the id.
    pub fn propose(&self, payload: T) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::AcqRel);
        self.propose_with_id(id, payload);
        id
    }

    /// Re-broadcasts a proposal with a known id (idempotent thanks to
    /// leader-side dedup).
    pub fn propose_with_id(&self, id: u64, payload: T) {
        for node in 0..self.len() {
            // "from" does not matter for client messages; use the target.
            self.net.send(node, node, RaftMsg::Propose { id, payload: payload.clone() });
        }
    }

    /// Allocates a fresh proposal id without broadcasting anything. Pair
    /// with [`RaftCluster::propose_id_until_committed`] when the caller
    /// wants to retry a proposal across timeouts: reusing the id keeps the
    /// retries idempotent (leader-side dedup), so a batch can never be
    /// committed twice by an impatient client.
    pub fn begin_proposal(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::AcqRel)
    }

    /// Re-broadcasts the proposal `id` until it commits somewhere or the
    /// timeout expires. Returns whether it committed. Safe to call
    /// repeatedly with the same id (and required to, when retrying).
    pub fn propose_id_until_committed(&self, id: u64, payload: &T, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            self.propose_with_id(id, payload.clone());
            let rebroadcast_at = (Instant::now() + Duration::from_millis(40)).min(deadline);
            if self.signal.wait_until(rebroadcast_at, || self.proposal_committed(id)) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
        }
    }

    /// Whether some node has committed the proposal with this id.
    pub fn proposal_committed(&self, id: u64) -> bool {
        self.seats.iter().any(|s| s.view.committed_ids.read().contains(&id))
    }

    /// Proposes and re-broadcasts until the entry commits on `observer`,
    /// or the timeout expires. Returns whether it committed.
    pub fn propose_until_committed(&self, payload: T, timeout: Duration) -> bool {
        let id = self.begin_proposal();
        self.propose_id_until_committed(id, &payload, timeout)
    }

    /// Snapshot of `node`'s committed log payloads.
    pub fn committed(&self, node: NodeId) -> Vec<LogEntry<T>> {
        self.seats[node].view.committed.read().clone()
    }

    /// `node`'s committed entries from position `from` on (empty when it
    /// has committed no more than `from`): what a consumer that has
    /// already read the first `from` entries still needs, cloned without
    /// the prefix.
    pub fn committed_from(&self, node: NodeId, from: usize) -> Vec<LogEntry<T>> {
        self.seats[node].view.committed.read().get(from..).map_or_else(Vec::new, <[_]>::to_vec)
    }

    /// Every `(node, term)` leadership claim observed so far — for
    /// checking the Election Safety property in tests. Spans restarts.
    pub fn leadership_claims(&self) -> Vec<(NodeId, u64)> {
        let mut out = Vec::new();
        for (node, seat) in self.seats.iter().enumerate() {
            for term in seat.view.leader_terms.read().iter() {
                out.push((node, *term));
            }
        }
        out
    }

    /// Waits until `node` has committed at least `count` entries.
    pub fn wait_for_committed(&self, node: NodeId, count: usize, timeout: Duration) -> bool {
        self.wait_until(timeout, || self.seats[node].view.committed.read().len() >= count)
    }

    /// Requests every node compact its log up to `index` (clamped to each
    /// node's own commit index). Wire this to the pipeline's commit
    /// watermark; nodes compact asynchronously in their main loop.
    pub fn compact_before(&self, index: u64) {
        for seat in &self.seats {
            seat.compact_to.fetch_max(index, Ordering::AcqRel);
        }
    }

    /// The highest raft commit index any node has reached.
    pub fn max_commit_index(&self) -> u64 {
        self.seats.iter().map(|s| s.view.commit_index.load(Ordering::Acquire)).max().unwrap_or(0)
    }

    /// Merged durability counters across all nodes' stores.
    pub fn durability_stats(&self) -> DurabilityReport {
        let mut report = DurabilityReport::default();
        for (node, seat) in self.seats.iter().enumerate() {
            report.store = report.store.merge(&self.durability_stats_of(node));
            report.snapshot_installs += seat.view.snapshot_installs.load(Ordering::Acquire);
        }
        report
    }

    /// `node`'s own durable-store counters.
    pub fn durability_stats_of(&self, node: NodeId) -> DurabilityStats {
        self.seats[node].store.lock().stats()
    }

    /// Arms a one-shot injected disk fault on `node`'s durable store,
    /// firing on its next matching WAL operation. A no-op for memory
    /// stores (see [`LogStore::arm_disk_fault`]) — chaos plans call this
    /// unconditionally and only WAL-backed clusters actually feel it.
    pub fn arm_disk_fault(&self, node: NodeId, fault: crate::wal::DiskFault) {
        self.seats[node].store.lock().arm_disk_fault(fault);
    }

    /// Whether `node` is currently running (not crashed).
    pub fn is_running(&self, node: NodeId) -> bool {
        self.seats[node].handle.is_some()
    }

    /// Kills `node`: its thread exits and its volatile state is lost.
    /// The durable store survives in the seat for [`RaftCluster::restart`].
    pub fn crash(&mut self, node: NodeId) {
        let seat = &mut self.seats[node];
        seat.shutdown.store(true, Ordering::Release);
        if let Some(h) = seat.handle.take() {
            let _ = h.join();
        }
        seat.view.is_leader.store(false, Ordering::Release);
    }

    /// Restarts a crashed node from its durable store: term, vote,
    /// snapshot, and retained log are recovered; committed entries beyond
    /// the snapshot are re-published as the node rejoins and catches up.
    pub fn restart(&mut self, node: NodeId) {
        let n = self.len();
        let seat = &mut self.seats[node];
        assert!(seat.handle.is_none(), "restart of a running node {node}");
        let (tx, rx) = channel();
        self.net.set_inbox(node, tx);
        let old_terms = seat.view.leader_terms.read().clone();
        let view = Arc::new(NodeView::default());
        *view.leader_terms.write() = old_terms;
        seat.view = Arc::clone(&view);
        seat.shutdown = Arc::new(AtomicBool::new(false));
        seat.handle = Some(spawn_node_thread(
            node,
            n,
            Arc::clone(&self.net),
            self.timing.clone(),
            self.seed,
            view,
            Arc::clone(&self.signal),
            Arc::clone(&seat.store),
            Arc::clone(&seat.compact_to),
            Arc::clone(&seat.shutdown),
            seat.subscribers.clone(),
            rx,
        ));
    }

    /// Stops all nodes and the network.
    pub fn shutdown(&mut self) {
        for seat in &mut self.seats {
            seat.shutdown.store(true, Ordering::Release);
        }
        for seat in &mut self.seats {
            if let Some(h) = seat.handle.take() {
                let _ = h.join();
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for RaftCluster<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns one node thread, recovering its state from `store` first.
#[allow(clippy::too_many_arguments)]
fn spawn_node_thread<T: Clone + Send + Sync + 'static>(
    id: NodeId,
    n: usize,
    net: Arc<SimNet<RaftMsg<T>>>,
    timing: RaftTiming,
    seed: u64,
    view: Arc<NodeView<T>>,
    signal: Arc<CommitSignal>,
    store: SharedLogStore<T>,
    compact_to: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    subscribers: Vec<Sender<LogEntry<T>>>,
    rx: Receiver<RaftMsg<T>>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("raft-node-{id}"))
        .spawn(move || {
            // Recovery: rebuild volatile state from the durable store.
            let (hard, snapshot, log) = {
                let s = store.lock();
                (s.hard_state(), s.snapshot(), s.records())
            };
            let log_base = snapshot.as_ref().map_or(0, |s| s.last_index);
            let commit_index = log_base;
            if let Some(snap) = &snapshot {
                for e in &snap.entries {
                    view.publish(e.clone());
                }
                view.commit_index.store(log_base, Ordering::Release);
                signal.notify();
            }
            *view.term.write() = hard.term;
            let known_ids = known_ids_of(&log, snapshot.as_ref());
            let mut node = Node {
                id,
                n,
                term: hard.term,
                voted_for: hard.voted_for,
                log,
                log_base,
                snapshot,
                known_ids,
                commit_index,
                role: Role::Follower,
                votes: 0,
                next_index: vec![1; n],
                match_index: vec![0; n],
                leader_hint: None,
                view,
                signal,
                subscribers,
                store,
                compact_to,
                seed,
                election_attempt: 0,
                timing,
                deadline: Instant::now(),
            };
            node.reset_election_deadline();
            node_loop(&mut node, &net, &shutdown, rx);
        })
        .expect("spawn raft node")
}

/// Collects every client proposal id present in a log suffix plus the
/// snapshot's committed prefix (leader no-ops, id 0, are excluded).
fn known_ids_of<T>(log: &[Record<T>], snapshot: Option<&SnapshotData<T>>) -> HashSet<u64> {
    let mut ids: HashSet<u64> = log.iter().filter(|r| r.id != 0).map(|r| r.id).collect();
    if let Some(s) = snapshot {
        ids.extend(s.entries.iter().filter(|e| e.id != 0).map(|e| e.id));
    }
    ids
}

fn node_loop<T: Clone + Send + Sync + 'static>(
    node: &mut Node<T>,
    net: &SimNet<RaftMsg<T>>,
    shutdown: &AtomicBool,
    rx: Receiver<RaftMsg<T>>,
) {
    while !shutdown.load(Ordering::Acquire) {
        let now = Instant::now();
        let wait = node.deadline.saturating_duration_since(now).min(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(msg) => node.handle(msg, net),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        node.maybe_compact();
        if Instant::now() >= node.deadline {
            match node.role {
                Role::Leader => node.broadcast_append(net),
                Role::Follower | Role::Candidate => node.start_election(net),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize, seed: u64) -> RaftCluster<u64> {
        RaftCluster::new(n, NetConfig::default(), RaftTiming::default(), seed)
    }

    #[test]
    fn elects_a_leader() {
        let c = cluster(3, 1);
        assert!(c.wait_for_leader(Duration::from_secs(5)).is_some());
    }

    #[test]
    fn single_node_cluster_commits_alone() {
        let c = cluster(1, 2);
        assert!(c.wait_for_leader(Duration::from_secs(5)).is_some());
        assert!(c.propose_until_committed(7, Duration::from_secs(5)));
        assert_eq!(c.committed(0).len(), 1);
        assert_eq!(c.committed(0)[0].payload, 7);
    }

    #[test]
    fn replicates_in_order_to_all_nodes() {
        let c = cluster(3, 3);
        c.wait_for_leader(Duration::from_secs(5)).expect("leader");
        for i in 0..10u64 {
            assert!(c.propose_until_committed(i, Duration::from_secs(5)), "entry {i}");
        }
        for node in 0..3 {
            assert!(c.wait_for_committed(node, 10, Duration::from_secs(5)), "node {node}");
            let payloads: Vec<u64> = c.committed(node).iter().map(|e| e.payload).collect();
            assert_eq!(payloads, (0..10).collect::<Vec<_>>(), "node {node} order");
            let full = c.committed(node);
            for from in [0, 4, 10, 11] {
                let suffix = c.committed_from(node, from);
                assert_eq!(suffix, full.get(from..).unwrap_or_default(), "node {node} from {from}");
            }
        }
    }

    #[test]
    fn followers_commit_without_waiting_for_a_heartbeat() {
        // The heartbeat (250 ms) is far longer than the 50 ms each
        // follower gets: only the leader's commit push can make it.
        let timing = RaftTiming {
            election_min: Duration::from_millis(300),
            election_max: Duration::from_millis(600),
            heartbeat: Duration::from_millis(250),
        };
        let c = RaftCluster::new(3, NetConfig::default(), timing, 8);
        let leader = c.wait_for_leader(Duration::from_secs(10)).expect("leader");
        for k in 1..=20u64 {
            assert!(c.propose_until_committed(k, Duration::from_secs(5)), "entry {k}");
            for f in (0..3).filter(|&f| f != leader) {
                assert!(
                    c.wait_for_committed(f, k as usize, Duration::from_millis(50)),
                    "follower {f} lacks entry {k} 50 ms after the leader committed it"
                );
            }
        }
    }

    #[test]
    fn commits_despite_message_loss() {
        let c = RaftCluster::new(
            3,
            NetConfig { drop_prob: 0.10, ..NetConfig::default() },
            RaftTiming::default(),
            4,
        );
        c.wait_for_leader(Duration::from_secs(10)).expect("leader despite loss");
        for i in 0..5u64 {
            assert!(c.propose_until_committed(i, Duration::from_secs(10)), "entry {i}");
        }
        assert!(c.wait_for_committed(0, 5, Duration::from_secs(10)));
    }

    #[test]
    fn survives_leader_isolation() {
        let c = cluster(3, 5);
        let first = c.wait_for_leader(Duration::from_secs(5)).expect("leader");
        assert!(c.propose_until_committed(1, Duration::from_secs(5)));
        // Cut the leader off; the rest must elect a replacement and keep
        // committing.
        c.net().isolate(first);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut second = None;
        while Instant::now() < deadline {
            if let Some(l) = (0..3).find(|&n| {
                n != first && c.seats[n].view.is_leader.load(Ordering::Acquire)
            }) {
                second = Some(l);
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let second = second.expect("new leader elected after isolation");
        assert_ne!(second, first);
        assert!(c.propose_until_committed(2, Duration::from_secs(10)));
        // Heal: the old leader catches up.
        c.net().reconnect(first);
        assert!(c.wait_for_committed(first, 2, Duration::from_secs(10)));
        let a: Vec<u64> = c.committed(first).iter().map(|e| e.payload).collect();
        let b: Vec<u64> = c.committed(second).iter().map(|e| e.payload).collect();
        assert_eq!(a, b[..a.len().min(b.len())].to_vec());
    }

    #[test]
    fn committed_prefixes_always_agree() {
        let c = cluster(5, 6);
        c.wait_for_leader(Duration::from_secs(5)).expect("leader");
        for i in 0..20u64 {
            assert!(c.propose_until_committed(i, Duration::from_secs(5)));
        }
        for node in 0..5 {
            c.wait_for_committed(node, 20, Duration::from_secs(10));
        }
        let logs: Vec<Vec<u64>> =
            (0..5).map(|n| c.committed(n).iter().map(|e| e.payload).collect()).collect();
        for pair in logs.windows(2) {
            let min = pair[0].len().min(pair[1].len());
            assert_eq!(pair[0][..min], pair[1][..min], "prefix disagreement");
        }
    }

    #[test]
    fn election_safety_under_churn() {
        // Repeatedly isolate whoever is leader; across all the forced
        // elections, no term may ever have two distinct leaders.
        let c = cluster(5, 11);
        for round in 0..4 {
            let leader = c.wait_for_leader(Duration::from_secs(10)).expect("leader");
            assert!(c.propose_until_committed(round, Duration::from_secs(10)));
            c.net().isolate(leader);
            std::thread::sleep(Duration::from_millis(250));
            c.net().reconnect(leader);
        }
        let mut claims = c.leadership_claims();
        claims.sort_by_key(|&(_, term)| term);
        for pair in claims.windows(2) {
            if pair[0].1 == pair[1].1 {
                assert_eq!(
                    pair[0].0, pair[1].0,
                    "two different leaders in term {}",
                    pair[0].1
                );
            }
        }
        assert!(!claims.is_empty());
    }

    #[test]
    fn subscriber_stream_receives_commits() {
        let (tx, rx) = channel();
        let c = RaftCluster::with_subscribers(
            3,
            NetConfig::default(),
            RaftTiming::default(),
            7,
            vec![vec![tx]],
        );
        c.wait_for_leader(Duration::from_secs(5)).expect("leader");
        assert!(c.propose_until_committed(99, Duration::from_secs(5)));
        let entry = rx.recv_timeout(Duration::from_secs(5)).expect("stream entry");
        assert_eq!(entry.payload, 99);
    }

    #[test]
    fn election_jitter_slots_are_disjoint() {
        // Two distinct nodes may never draw the same timeout: their
        // jitter slots are disjoint sub-ranges of the window, for every
        // seed and attempt. This is the "two nodes never tie forever"
        // regression guard.
        let span = Duration::from_millis(80);
        for seed in [0u64, 1, 7, 0xdead_beef] {
            for attempt in 0..50u64 {
                let a = election_jitter(seed, 0, 2, attempt, span);
                let b = election_jitter(seed, 1, 2, attempt, span);
                assert!(a < span && b < span, "jitter inside the window");
                assert!(
                    a < span / 2 && b >= span / 2,
                    "slots must be disjoint (seed {seed} attempt {attempt}: {a:?} vs {b:?})"
                );
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn election_jitter_is_deterministic_but_varies_by_attempt() {
        let span = Duration::from_millis(80);
        let a1 = election_jitter(42, 1, 3, 1, span);
        let a1_again = election_jitter(42, 1, 3, 1, span);
        assert_eq!(a1, a1_again, "pure function of (seed, node, attempt)");
        let distinct: std::collections::HashSet<_> =
            (0..20u64).map(|att| election_jitter(42, 1, 3, att, span)).collect();
        assert!(distinct.len() > 10, "attempts must actually vary the jitter");
    }

    #[test]
    fn proposal_dedup_survives_snapshot_compaction() {
        let c = cluster(3, 17);
        c.wait_for_leader(Duration::from_secs(5)).expect("leader");
        let id = c.begin_proposal();
        assert!(c.propose_id_until_committed(id, &41, Duration::from_secs(5)));
        // Compact the committed prefix everywhere, so the original record
        // leaves every node's in-memory log and only the snapshot's
        // committed prefix still knows the id.
        c.compact_before(c.max_commit_index());
        let deadline = Instant::now() + Duration::from_secs(10);
        while c.durability_stats().store.snapshots_written < 3 {
            assert!(Instant::now() < deadline, "compaction never ran");
            std::thread::sleep(Duration::from_millis(10));
        }
        // A retried proposal with the same id must be absorbed, not
        // re-appended: the dedup set outlives the compacted log.
        c.propose_with_id(id, 41);
        assert!(c.propose_until_committed(99, Duration::from_secs(5)), "fresh entry");
        for node in 0..3 {
            assert!(c.wait_for_committed(node, 2, Duration::from_secs(10)), "node {node}");
            let ids: Vec<u64> = c.committed(node).iter().map(|e| e.id).collect();
            assert_eq!(
                ids.iter().filter(|&&i| i == id).count(),
                1,
                "node {node}: id {id} must appear exactly once in {ids:?}"
            );
        }
    }

    #[test]
    fn leader_reemerges_and_commits_after_each_isolation() {
        // Liveness soak: every time the leader is cut off, a replacement
        // must take over and commit fresh traffic within a bounded
        // window, and the healed ex-leader must converge before the next
        // round of churn.
        let c = cluster(5, 13);
        let mut committed = 0usize;
        for round in 0..6u64 {
            let leader = c.wait_for_leader(Duration::from_secs(10)).expect("leader");
            c.net().isolate(leader);
            let started = Instant::now();
            let new_leader = loop {
                if let Some(l) = (0..5).find(|&n| {
                    n != leader && c.seats[n].view.is_leader.load(Ordering::Acquire)
                }) {
                    break l;
                }
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "no replacement leader within bound (round {round})"
                );
                std::thread::sleep(Duration::from_millis(10));
            };
            assert_ne!(new_leader, leader);
            assert!(
                c.propose_until_committed(round, Duration::from_secs(10)),
                "no commit under isolation (round {round})"
            );
            committed += 1;
            c.net().reconnect(leader);
            assert!(
                c.wait_for_committed(leader, committed, Duration::from_secs(10)),
                "healed ex-leader never caught up (round {round})"
            );
        }
        // All that churn must never have produced two leaders in a term.
        let mut claims = c.leadership_claims();
        claims.sort_by_key(|&(_, term)| term);
        for pair in claims.windows(2) {
            if pair[0].1 == pair[1].1 {
                assert_eq!(pair[0].0, pair[1].0, "split brain in term {}", pair[0].1);
            }
        }
    }

    #[test]
    fn two_node_cluster_elects_quickly() {
        // The classic pathological case for randomized timeouts: n = 2,
        // where repeated split votes are possible. Slotted deterministic
        // jitter guarantees the node-0 candidate always times out first.
        for seed in 0..6u64 {
            let c = cluster(2, seed);
            assert!(
                c.wait_for_leader(Duration::from_secs(5)).is_some(),
                "two-node cluster must elect (seed {seed})"
            );
        }
    }
}
