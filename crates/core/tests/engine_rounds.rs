//! MF retry rounds run on the queuer alone.
//!
//! Every copy of the one transaction here reads a counter, writes the
//! item it names and bumps the counter, so a batch of 48 copies is one
//! pivot chain: each round commits its head and fails the rest, which
//! `MF` re-prepares and re-enqueues. If the workers took part in those
//! rounds they would sleep at the pool's barriers in every one of them;
//! since they leave each batch after round 1, they sleep a handful of
//! times per batch instead. This is the only test in its binary, so no
//! other test's threads share the worker name.

#![cfg(target_os = "linux")]

use prognosticator_core::{baselines, Catalog, Replica, TxOutcome, TxRequest};
use prognosticator_txir::{Expr, Key, ProgramBuilder, Value};
use std::sync::Arc;

const BATCHES: usize = 6;
const COPIES: usize = 48;

/// Voluntary context switches summed over the engine's worker threads
/// (`comm` is the worker name cut to 15 bytes).
fn worker_voluntary_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists this process' threads");
    let mut total = 0;
    for task in tasks {
        let dir = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        if comm.trim_end() != "prognosticator-" {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else { continue };
        total += status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .map(|n| n.trim().parse::<u64>().expect("a switch count"))
            .expect("status reports voluntary switches");
    }
    total
}

#[test]
fn workers_sleep_per_batch_not_per_retry_round() {
    let mut b = ProgramBuilder::new("chain");
    let ctr = b.table("ctr");
    let item = b.table("item");
    let v = b.var("v");
    b.get(v, Expr::key(ctr, vec![Expr::lit(0)]));
    b.put(Expr::key(item, vec![Expr::var(v)]), Expr::lit(1));
    b.put(Expr::key(ctr, vec![Expr::lit(0)]), Expr::var(v).add(Expr::lit(1)));
    let mut catalog = Catalog::new();
    let chain = catalog.register(b.build()).expect("registers");

    let mut replica = Replica::new(baselines::mq_mf(2), Arc::new(catalog));
    replica.store().populate([(Key::of_ints(ctr, &[0]), Value::Int(0))]);
    let batch: Vec<TxRequest> = (0..COPIES).map(|_| TxRequest::new(chain, vec![])).collect();
    let stream = vec![batch; BATCHES];

    let before = worker_voluntary_switches();
    let outcomes = replica.execute_stream(stream, 0);
    let switches = worker_voluntary_switches() - before;
    replica.shutdown();

    for (n, o) in outcomes.iter().enumerate() {
        assert!(o.outcomes.iter().all(|v| *v == TxOutcome::Committed), "batch {n} commits all");
        assert!(o.rounds >= 40, "batch {n} chains: {} rounds", o.rounds);
    }
    let rounds: u64 = outcomes.iter().map(|o| u64::from(o.rounds)).sum();
    assert!(
        switches < rounds,
        "workers slept {switches} times over {rounds} rounds: retry rounds woke the pool"
    );
}
