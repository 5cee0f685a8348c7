//! The engine runs on `workers` threads, the caller included.
//!
//! The calling thread is worker 0, so constructing an engine spawns
//! `workers − 1` threads, and none at all for one worker. The queuer
//! classifies batch `N+1` on the thread that drives batch `N`, so
//! streaming at depth 1 must leave the process with exactly the threads
//! it had before: the replica's workers and nothing else. This is the
//! only test in its binary, so no other test's threads come and go while
//! it counts.

#![cfg(target_os = "linux")]

use prognosticator_core::{baselines, Catalog, Replica, TxRequest};
use prognosticator_txir::{Expr, InputBound, Key, ProgramBuilder, Value};
use std::sync::Arc;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs lists this process' threads").count()
}

#[test]
fn streaming_at_depth_one_spawns_no_thread() {
    let mut b = ProgramBuilder::new("bump");
    let t = b.table("counters");
    let id = b.input("id", InputBound::int(0, 15));
    let v = b.var("v");
    b.get(v, Expr::key(t, vec![Expr::input(id)]));
    b.put(Expr::key(t, vec![Expr::input(id)]), Expr::var(v).add(Expr::lit(1)));
    let mut catalog = Catalog::new();
    let bump = catalog.register(b.build()).expect("registers");
    let catalog = Arc::new(catalog);

    let base = thread_count();
    let mut solo = Replica::new(baselines::mq_mf(1), Arc::clone(&catalog));
    assert_eq!(thread_count(), base, "one worker is the caller: no thread is spawned");
    solo.shutdown();
    let mut replica = Replica::new(baselines::mq_mf(2), catalog);
    assert_eq!(thread_count(), base + 1, "two workers spawn one thread beside the caller");
    replica.store().populate((0..16).map(|i| (Key::of_ints(t, &[i]), Value::Int(0))));
    let before = thread_count();
    let stream: Vec<Vec<TxRequest>> = (0..6)
        .map(|_| (0..16).map(|i| TxRequest::new(bump, vec![Value::Int(i % 16)])).collect())
        .collect();
    let outcomes = replica.execute_stream(stream, 1);
    let after = thread_count();
    assert_eq!(outcomes.iter().map(|o| o.committed).sum::<usize>(), 96);
    assert_eq!(after, before, "prepare-ahead must not add a thread");
    replica.shutdown();
}
