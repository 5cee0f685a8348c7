//! Extension study (not a paper exhibit): worker-count scaling of the
//! deterministic scheduler on TPC-C, in simulated time. Shows where each
//! policy stops scaling — Prognosticator is bounded by the batch's
//! conflict structure, NODO by its table-granularity serialization, SEQ by
//! definition.
//!
//! Run: `cargo run --release -p prognosticator-bench --bin scaling`

use prognosticator_bench::sim::CostModel;
use prognosticator_bench::{render_table, sim_engine, tpcc_setup, SystemKind};

const BATCH: usize = 512;
const BATCHES: usize = 6;

fn makespan_ms(kind: SystemKind, workers: usize, setup: &prognosticator_bench::WorkloadSetup) -> f64 {
    let mut execute = sim_engine(kind, setup, CostModel { workers, ..CostModel::default() });
    let mut gen = (setup.make_gen)(0xBEEF);
    let total: std::time::Duration = (0..BATCHES).map(|_| execute(gen(BATCH)).duration).sum();
    total.as_secs_f64() * 1_000.0 / BATCHES as f64
}

fn main() {
    println!("Worker scaling, TPC-C, batch = {BATCH}, mean batch makespan in ms");
    println!("{}, cost.workers = P (swept)\n", CostModel::default().time_label());
    for warehouses in [100i64, 1] {
        println!("== {warehouses} warehouses ==");
        let setup = tpcc_setup(warehouses);
        let workers = [1usize, 2, 4, 8, 16, 20, 32];
        let mut rows = Vec::new();
        for kind in [SystemKind::MqMf, SystemKind::Nodo, SystemKind::Seq] {
            let mut row = vec![kind.name()];
            for &w in &workers {
                row.push(format!("{:.2}", makespan_ms(kind, w, &setup)));
            }
            rows.push(row);
        }
        let headers: Vec<String> =
            std::iter::once("System".to_owned()).chain(workers.iter().map(|w| format!("P={w}"))).collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        print!("{}", render_table(&header_refs, &rows));
        println!();
    }
    println!("Expected: MQ-MF's makespan shrinks with P until the conflict structure's");
    println!("critical path dominates (earlier at 1 warehouse); NODO and SEQ stay flat.");
}
