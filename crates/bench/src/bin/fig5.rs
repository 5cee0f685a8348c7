//! Regenerates **Figure 5**: throughput (5a) and per-transaction
//! execution-time split (5b: prepare vs re-execute-failed) for the eight
//! Prognosticator variants {MQ,1Q} × {SF,MF} × {SE, reconnaissance} on
//! TPC-C at the three contention levels.
//!
//! Run: `cargo run --release -p prognosticator-bench --bin fig5`

use prognosticator_bench::json::{snapshot_json, write_snapshot};
use prognosticator_bench::{measure_sustainable, render_table, tpcc_setup, SustainConfig, SystemKind};

fn main() {
    let cfg = SustainConfig::default();
    let mut groups = Vec::new();
    println!("Figure 5 — Prognosticator variant ablation on TPC-C");
    println!("{}", cfg.header());

    for warehouses in [100i64, 10, 1] {
        println!("== {warehouses} warehouses ==");
        let setup = tpcc_setup(warehouses);
        let mut rows = Vec::new();
        let mut group = Vec::new();
        for kind in SystemKind::variant_set() {
            let r = measure_sustainable(kind, &setup, &cfg);
            rows.push(vec![
                kind.name(),
                format!("{:.0}", r.throughput_tps),
                format!("{:.2}", r.abort_pct),
                format!("{:.1}", r.prepare_us),
                format!("{:.1}", r.reexec_us),
            ]);
            group.push((kind.name(), r));
        }
        groups.push((format!("tpcc-{warehouses}wh"), group));
        print!(
            "{}",
            render_table(
                &["Variant", "Throughput tx/s", "Abort %", "Prepare µs/tx", "Re-exec µs/tx"],
                &rows
            )
        );
        println!();
    }
    println!("Paper reference shapes (Fig. 5): SE variants beat the reconnaissance (*-R)");
    println!("ones everywhere (reconnaissance executes the whole transaction to prepare);");
    println!("MQ beats 1Q on prepare time; MF wins at low contention, SF at high.");
    match write_snapshot("fig5", &snapshot_json("fig5", &groups)) {
        Ok(path) => println!("\nsnapshot: {}", path.display()),
        Err(e) => eprintln!("\nsnapshot write failed: {e}"),
    }
}
