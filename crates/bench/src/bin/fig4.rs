//! Regenerates **Figure 4**: RUBiS-C maximum sustainable throughput (4a)
//! and normalized abort rate (4b).
//!
//! Run: `cargo run --release -p prognosticator-bench --bin fig4`

use prognosticator_bench::json::{snapshot_json, write_snapshot};
use prognosticator_bench::{measure_sustainable, render_table, rubis_setup, SustainConfig, SystemKind};

fn main() {
    let cfg = SustainConfig::default();
    println!(
        "Figure 4 — RUBiS-C max sustainable throughput (p99 < {:?}) and abort rate",
        cfg.p99_limit
    );
    println!("{}", cfg.header());

    let setup = rubis_setup();
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
    print!(
        "{}",
        render_table(&["System", "Throughput tx/s", "Batch", "Abort %", "p99 ms"], &rows)
    );

    println!("\nPaper reference shapes (Fig. 4): RUBiS-C is highly contended (every update");
    println!("transaction pivots on a shared counter); MQ-SF wins (~1.35× over NODO) and");
    println!("has ~3× lower abort rate than MQ-MF; Calvin aborts heavily.");
    let groups = vec![("rubis".to_owned(), group)];
    match write_snapshot("fig4", &snapshot_json("fig4", &groups)) {
        Ok(path) => println!("\nsnapshot: {}", path.display()),
        Err(e) => eprintln!("\nsnapshot write failed: {e}"),
    }
}
