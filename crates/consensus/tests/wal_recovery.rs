//! Durability tests: real node crashes (thread killed, volatile state
//! lost) followed by restarts from the durable [`LogStore`], snapshot
//! catch-up for followers left behind the compaction horizon, and
//! full-cluster recovery from on-disk WAL files.

use prognosticator_consensus::{
    LogStore, NetConfig, RaftCluster, RaftTiming, U64Codec, WalStore,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn cluster(n: usize, seed: u64) -> RaftCluster<u64> {
    RaftCluster::new(n, NetConfig::default(), RaftTiming::default(), seed)
}

fn payloads(c: &RaftCluster<u64>, node: usize) -> Vec<u64> {
    c.committed(node).iter().map(|e| e.payload).collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp/wal-recovery")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls until some node other than `not` claims leadership.
fn wait_for_other_leader(c: &RaftCluster<u64>, not: usize, timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Some(l) = c.current_leaders().into_iter().find(|&l| l != not) {
            return l;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no replacement leader elected within {timeout:?}");
}

#[test]
fn crashed_follower_restarts_from_store_and_catches_up() {
    let mut c = cluster(3, 0xD15C);
    let leader = c.wait_for_leader(Duration::from_secs(10)).expect("leader");
    for i in 0..4u64 {
        assert!(c.propose_until_committed(i, Duration::from_secs(10)), "entry {i}");
    }
    let follower = (leader + 1) % 3;
    assert!(c.wait_for_committed(follower, 4, Duration::from_secs(10)));

    // Kill the follower outright: its thread exits and every volatile
    // structure is dropped. Only the LogStore in its seat survives.
    c.crash(follower);
    assert!(!c.is_running(follower));
    for i in 4..8u64 {
        assert!(c.propose_until_committed(i, Duration::from_secs(10)), "entry {i}");
    }

    // Restart from the durable store: term/vote/log recovered, then the
    // leader brings it up to date.
    c.restart(follower);
    assert!(c.is_running(follower));
    assert!(
        c.wait_for_committed(follower, 8, Duration::from_secs(10)),
        "restarted follower catches up"
    );
    assert_eq!(payloads(&c, follower), (0..8).collect::<Vec<_>>());
}

#[test]
fn crashed_leader_restart_preserves_election_safety() {
    let mut c = cluster(3, 0x1EAD);
    let mut next = 0u64;
    for _cycle in 0..3 {
        let leader = c.wait_for_leader(Duration::from_secs(10)).expect("leader");
        for _ in 0..2 {
            assert!(c.propose_until_committed(next, Duration::from_secs(10)), "entry {next}");
            next += 1;
        }
        // Hard-kill the leader and bring it back. Because its term and
        // vote are durable, the restarted incarnation can never grant a
        // second vote in a term it already voted in.
        c.crash(leader);
        let _ = wait_for_other_leader(&c, leader, Duration::from_secs(10));
        c.restart(leader);
    }
    for node in 0..3 {
        assert!(
            c.wait_for_committed(node, next as usize, Duration::from_secs(15)),
            "node {node} catches up"
        );
        assert_eq!(payloads(&c, node), (0..next).collect::<Vec<_>>(), "node {node}");
    }
    // Election Safety across incarnations: at most one leader per term,
    // spanning every crash/restart cycle.
    let mut claims = c.leadership_claims();
    claims.sort_by_key(|&(_, term)| term);
    for pair in claims.windows(2) {
        if pair[0].1 == pair[1].1 {
            assert_eq!(pair[0].0, pair[1].0, "two leaders in term {}", pair[0].1);
        }
    }
    assert!(!claims.is_empty());
}

#[test]
fn follower_beyond_compaction_horizon_rejoins_via_snapshot_install() {
    let c = cluster(3, 0x5A4B);
    let leader = c.wait_for_leader(Duration::from_secs(10)).expect("leader");
    for i in 0..5u64 {
        assert!(c.propose_until_committed(i, Duration::from_secs(10)), "entry {i}");
    }
    let follower = (leader + 1) % 3;
    assert!(c.wait_for_committed(follower, 5, Duration::from_secs(10)));

    // Partition the follower, then commit well past it and compact the
    // leader's log beyond everything the follower has seen.
    c.net().isolate(follower);
    for i in 5..25u64 {
        assert!(c.propose_until_committed(i, Duration::from_secs(10)), "entry {i}");
    }
    c.compact_before(c.max_commit_index());
    // Wait until the leader itself has compacted (its own store reports a
    // snapshot) so the heal cannot be served by plain log replay. Another
    // node's snapshot proves nothing: the live follower may compact first.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if c.durability_stats_of(leader).snapshots_written > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "leader never compacted");
        std::thread::sleep(Duration::from_millis(10));
    }

    let installs_before = c.node_view(follower).snapshot_installs.load(std::sync::atomic::Ordering::Acquire);
    c.net().reconnect(follower);
    assert!(
        c.wait_for_committed(follower, 25, Duration::from_secs(10)),
        "partitioned follower converges after heal"
    );
    // It must have converged via InstallSnapshot, not log replay: the
    // entries it needed were compacted away on the leader.
    let installs_after = c.node_view(follower).snapshot_installs.load(std::sync::atomic::Ordering::Acquire);
    assert!(
        installs_after > installs_before,
        "expected a snapshot install, got none ({installs_before} -> {installs_after})"
    );
    // Byte-identical committed prefix (same payloads, ids, terms).
    let lead_log = c.committed(leader);
    let foll_log = c.committed(follower);
    assert_eq!(foll_log[..lead_log.len().min(foll_log.len())], lead_log[..lead_log.len().min(foll_log.len())]);
    assert_eq!(payloads(&c, follower), (0..25).collect::<Vec<_>>());
}

#[test]
fn whole_cluster_recovers_from_on_disk_wal() {
    let dirs: Vec<PathBuf> = (0..3).map(|i| tmpdir(&format!("cluster-node{i}"))).collect();
    let open_stores = |dirs: &[PathBuf]| -> Vec<Box<dyn LogStore<u64>>> {
        dirs.iter()
            .map(|d| Box::new(WalStore::open(d, U64Codec).expect("open wal")) as Box<dyn LogStore<u64>>)
            .collect()
    };

    // First incarnation: commit a prefix, then take the whole cluster
    // down (every thread joined, every volatile structure dropped).
    {
        let mut c = RaftCluster::with_log_stores(
            3,
            NetConfig::default(),
            RaftTiming::default(),
            0xA15EED,
            Vec::new(),
            open_stores(&dirs),
        );
        c.wait_for_leader(Duration::from_secs(10)).expect("leader");
        for i in 0..6u64 {
            assert!(c.propose_until_committed(i, Duration::from_secs(10)), "entry {i}");
        }
        for node in 0..3 {
            assert!(c.wait_for_committed(node, 6, Duration::from_secs(10)));
        }
        assert!(c.durability_stats().store.wal_fsyncs > 0, "writes must hit the disk");
        c.shutdown();
    }

    // Second incarnation: reopen the same directories. The committed
    // prefix must be recovered from disk and the cluster must resume.
    let mut c = RaftCluster::with_log_stores(
        3,
        NetConfig::default(),
        RaftTiming::default(),
        0xA15EED,
        Vec::new(),
        open_stores(&dirs),
    );
    c.wait_for_leader(Duration::from_secs(10)).expect("re-elects from recovered state");
    for i in 6..9u64 {
        assert!(c.propose_until_committed(i, Duration::from_secs(10)), "entry {i}");
    }
    for node in 0..3 {
        assert!(c.wait_for_committed(node, 9, Duration::from_secs(10)), "node {node}");
        assert_eq!(
            payloads(&c, node),
            (0..9).collect::<Vec<_>>(),
            "node {node}: recovered prefix + new entries"
        );
    }
    c.shutdown();
}
