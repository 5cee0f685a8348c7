//! Regenerates **Figure 3**: TPC-C maximum sustainable throughput (3a)
//! and normalized abort rate (3b) at low/medium/high contention
//! (100/10/1 warehouses) for MQ-MF, MQ-SF, Calvin-100, Calvin-200, NODO
//! and SEQ.
//!
//! Run: `cargo run --release -p prognosticator-bench --bin fig3`
//! (`PROGNOSTICATOR_FAST=1` for a quick pass.)

use prognosticator_bench::json::{snapshot_json, write_snapshot};
use prognosticator_bench::{measure_sustainable, render_table, tpcc_setup, SustainConfig, SystemKind};

fn main() {
    let cfg = SustainConfig::default();
    let mut groups = Vec::new();
    println!(
        "Figure 3 — TPC-C max sustainable throughput (p99 < {:?}) and abort rate",
        cfg.p99_limit
    );
    println!("{}", cfg.header());

    for warehouses in [100i64, 10, 1] {
        let contention = match warehouses {
            100 => "low",
            10 => "medium",
            _ => "high",
        };
        println!("== {warehouses} warehouses ({contention} contention) ==");
        let setup = tpcc_setup(warehouses);
        let mut rows = Vec::new();
        let mut group = Vec::new();
        for kind in SystemKind::comparison_set() {
            let r = measure_sustainable(kind, &setup, &cfg);
            rows.push(vec![
                kind.name(),
                if r.sustainable { format!("{:.0}", r.throughput_tps) } else { "unsust.".into() },
                r.batch_size.to_string(),
                format!("{:.2}", r.abort_pct),
                format!("{:.2}", r.p99_ms),
            ]);
            group.push((kind.name(), r));
        }
        groups.push((format!("tpcc-{warehouses}wh"), group));
        print!(
            "{}",
            render_table(
                &["System", "Throughput tx/s", "Batch", "Abort %", "p99 ms"],
                &rows
            )
        );
        println!();
    }
    println!("Paper reference shapes (Fig. 3): at 100 warehouses MQ-MF wins by ~5× over");
    println!("NODO and MF > SF; at 10 warehouses the gap narrows (~2.3×); at 1 warehouse");
    println!("NODO edges ahead and SF > MF; Calvin trails with much higher abort rates,");
    println!("Calvin-200 worse than Calvin-100; SEQ is flat across contention levels.");
    match write_snapshot("fig3", &snapshot_json("fig3", &groups)) {
        Ok(path) => println!("\nsnapshot: {}", path.display()),
        Err(e) => eprintln!("\nsnapshot write failed: {e}"),
    }
}
