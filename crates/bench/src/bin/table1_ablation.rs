//! Ablation of the three symbolic-execution optimizations of §III-B:
//! relevance (concolic irrelevant variables), sibling merging, and loop
//! summarization — each toggled independently on the transactions whose
//! analysis is interesting (newOrder, delivery, stockLevel).
//!
//! Run: `cargo run --release -p prognosticator-bench --bin table1_ablation`

use prognosticator_symexec::{analyze, ExplorerConfig};
use prognosticator_txir::Program;
use prognosticator_workloads::{tpcc, TpccConfig};
use std::time::Duration;

fn config(relevance: bool, merge: bool, summarize: bool) -> ExplorerConfig {
    ExplorerConfig {
        relevance,
        merge,
        summarize_loops: summarize,
        max_states: 500_000,
        time_budget: Duration::from_secs(10),
        max_path_depth: 1024,
        ..ExplorerConfig::optimized()
    }
}

fn run_row(program: &Program, cfg: &ExplorerConfig) -> Vec<String> {
    match analyze(program, cfg) {
        Ok(a) => vec![
            a.stats.states_explored.to_string(),
            a.profile.unique_key_sets().to_string(),
            a.stats.merged.to_string(),
            a.stats.loop_summarizations.to_string(),
            format!("{:.0}", (a.stats.peak_live_bytes + a.stats.profile_bytes) as f64 / 1024.0),
            format!("{:.2}", a.stats.duration.as_secs_f64() * 1000.0),
        ],
        Err(e) => vec![format!("{e}"), "—".into(), "—".into(), "—".into(), "—".into(), "—".into()],
    }
}

fn main() {
    let tpcc_cfg = TpccConfig::default();
    let programs = tpcc::programs(&tpcc_cfg);
    let variants: [(&str, ExplorerConfig); 5] = [
        ("all on", config(true, true, true)),
        ("no relevance", config(false, true, true)),
        ("no merging", config(true, false, true)),
        ("no summarization", config(true, true, false)),
        ("all off", config(false, false, false)),
    ];

    println!("Ablation of the §III-B analysis optimizations (caps: 500k states / 10 s / depth 1024)");
    println!("time: `Wall ms` and the 10 s budget are wall clock on this host; every other column is a count\n");
    for (name, program) in [
        ("TPC-C newOrder", &programs.new_order),
        ("TPC-C delivery", &programs.delivery),
        ("TPC-C stockLevel", &programs.stock_level),
    ] {
        println!("== {name} ==");
        let rows: Vec<Vec<String>> = variants
            .iter()
            .map(|(label, cfg)| {
                let mut row = vec![(*label).to_owned()];
                row.extend(run_row(program, cfg));
                row
            })
            .collect();
        print!(
            "{}",
            prognosticator_bench::render_table(
                &["Variant", "States", "Key-sets", "Merged", "Summarized", "Mem KB", "Wall ms"],
                &rows
            )
        );
        println!();
    }
    println!("Expected: each optimization alone removes part of the blow-up; newOrder needs");
    println!("relevance + summarization to reach 1 key-set; delivery is bounded by merging;");
    println!("stockLevel caps under every configuration (the paper's fallback case).");
}
