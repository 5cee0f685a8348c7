//! Regenerates **Table I**: symbolic-execution analysis statistics for
//! every update transaction of TPC-C and RUBiS, with and without the
//! optimizations (relevance concolic pass, sibling merging, loop
//! summarization).
//!
//! Run: `cargo run --release -p prognosticator-bench --bin table1`

use prognosticator_symexec::{analyze, AnalysisStats, ExploreError, ExplorerConfig, Profile};
use prognosticator_txir::Program;
use prognosticator_workloads::{rubis, tpcc, RubisConfig, TpccConfig};
use std::time::Duration;

struct Row {
    name: String,
    opt: Result<(Profile, AnalysisStats), ExploreError>,
    unopt: Result<(Profile, AnalysisStats), ExploreError>,
}

fn run(program: &Program, config: &ExplorerConfig) -> Result<(Profile, AnalysisStats), ExploreError> {
    analyze(program, config).map(|a| (a.profile, a.stats))
}

fn fmt_states(r: &Result<(Profile, AnalysisStats), ExploreError>) -> String {
    match r {
        Ok((_, s)) => s.states_explored.to_string(),
        Err(ExploreError::StateLimit(n)) => format!(">{n} (capped)"),
        Err(ExploreError::TimeBudget(_)) => "(time cap)".into(),
        Err(ExploreError::DepthLimit(_)) => "(depth cap)".into(),
        Err(e) => format!("error: {e}"),
    }
}

fn fmt_opt_field(r: &Result<(Profile, AnalysisStats), ExploreError>, f: impl Fn(&Profile, &AnalysisStats) -> String) -> String {
    match r {
        Ok((p, s)) => f(p, s),
        Err(_) => "—".into(),
    }
}

fn fmt_time(r: &Result<(Profile, AnalysisStats), ExploreError>, budget: Duration) -> String {
    match r {
        Ok((_, s)) => format!("{:.1}", s.duration.as_secs_f64() * 1000.0),
        Err(ExploreError::StateLimit(_)) | Err(ExploreError::DepthLimit(_)) => ">cap".into(),
        Err(ExploreError::TimeBudget(_)) => format!(">{}s", budget.as_secs()),
        Err(_) => "err".into(),
    }
}

fn fmt_mem(r: &Result<(Profile, AnalysisStats), ExploreError>) -> String {
    match r {
        Ok((_, s)) => format!("{:.0}", (s.peak_live_bytes + s.profile_bytes) as f64 / 1024.0),
        Err(_) => "—".into(),
    }
}

fn main() {
    let opt_cfg = ExplorerConfig::optimized();
    let unopt_cfg = ExplorerConfig {
        max_states: 2_000_000,
        time_budget: Duration::from_secs(20),
        max_path_depth: 2048,
        ..ExplorerConfig::unoptimized()
    };

    let tpcc_config = TpccConfig::default();
    let rubis_config = RubisConfig::default();
    let tpcc_programs = tpcc::programs(&tpcc_config);
    let rubis_programs = rubis::programs(&rubis_config);

    let mut rows: Vec<Row> = Vec::new();
    for iters in [5i64, 10, 15] {
        let p = tpcc::new_order_with_max_ol(&tpcc_config, iters);
        rows.push(Row {
            name: format!("TPC-C: new order ({iters} iters.)"),
            opt: run(&p, &opt_cfg),
            unopt: run(&p, &unopt_cfg),
        });
    }
    rows.push(Row {
        name: "TPC-C: payment".into(),
        opt: run(&tpcc_programs.payment, &opt_cfg),
        unopt: run(&tpcc_programs.payment, &unopt_cfg),
    });
    rows.push(Row {
        name: "TPC-C: delivery".into(),
        opt: run(&tpcc_programs.delivery, &opt_cfg),
        unopt: run(&tpcc_programs.delivery, &unopt_cfg),
    });
    for (name, p) in [
        ("RUBiS: store bid", &rubis_programs.store_bid),
        ("RUBiS: store buy now", &rubis_programs.store_buy_now),
        ("RUBiS: store comment", &rubis_programs.store_comment),
        ("RUBiS: register user", &rubis_programs.register_user),
        ("RUBiS: register item", &rubis_programs.register_item),
    ] {
        rows.push(Row { name: name.into(), opt: run(p, &opt_cfg), unopt: run(p, &unopt_cfg) });
    }

    println!("Table I — symbolic-execution analysis of the update transactions");
    println!("(optimized = relevance + merging + loop summarization; unoptimized = none)");
    println!("time: the two `Wall ms` columns are wall clock on this host, and so is the");
    println!("unoptimized {}s budget a row may hit; every other column is a count\n", unopt_cfg.time_budget.as_secs());
    let headers = [
        "Transaction",
        "States opt",
        "States unopt",
        "Depth opt/max",
        "Key-sets",
        "Indirect",
        "Mem KB opt",
        "Mem KB unopt",
        "Wall ms opt",
        "Wall ms unopt",
    ];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt_states(&r.opt),
                fmt_states(&r.unopt),
                format!(
                    "{}/{}",
                    fmt_opt_field(&r.opt, |p, _| p.depth().to_string()),
                    fmt_opt_field(&r.unopt, |p, _| p.depth().to_string()),
                ),
                fmt_opt_field(&r.opt, |p, _| p.unique_key_sets().to_string()),
                fmt_opt_field(&r.opt, |p, _| p.indirect_keys().to_string()),
                fmt_mem(&r.opt),
                fmt_mem(&r.unopt),
                fmt_time(&r.opt, opt_cfg.time_budget),
                fmt_time(&r.unopt, unopt_cfg.time_budget),
            ]
        })
        .collect();
    print!("{}", prognosticator_bench::render_table(&headers, &table_rows));

    println!("\nPaper reference shapes: newOrder collapses to 1 key-set / 1 indirect key;");
    println!("delivery explodes to 2^districts key-sets with 2 pivots per district (20 at");
    println!("spec scale); every RUBiS update transaction has 1 indirect key; unoptimized");
    println!("state counts grow exponentially with the iteration bound and eventually cap.");
}
