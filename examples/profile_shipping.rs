//! Profile shipping: the paper's client runs symbolic execution **once,
//! offline**, then ships the profiles to the replicas together with the
//! transaction requests (§III-A). In this system every replica builds the
//! same profiles itself, in its `Catalog`, so no profile crosses a process
//! boundary. This example renders the TPC-C programs as pseudocode,
//! profiles them, and shows the two kinds of dependent transactions from
//! §III-C: those whose profile tree can be traversed from the inputs alone
//! (client can pre-resolve the PSC) and those whose path conditions
//! themselves need pivot values.
//!
//! Run: `cargo run --release --example profile_shipping`

use prognosticator::txir::render;
use prognosticator::workloads::{tpcc, TpccConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = TpccConfig { warehouses: 4, ..TpccConfig::default() };
    let programs = tpcc::programs(&config);

    println!("── newOrder as the profiler sees it ──");
    print!("{}", render(&programs.new_order, &programs.tables));

    // Offline analysis, as the paper's client would run it.
    for (name, program) in
        [("new_order", &programs.new_order), ("payment", &programs.payment), ("delivery", &programs.delivery)]
    {
        let analysis = prognosticator::symexec::profile_program(program)?;
        let profile = analysis.profile;

        // §III-C distinguishes dependent transactions whose PSC tree
        // traversal needs pivots (queuer must resolve) from those where
        // the client can pick the partition from inputs alone.
        let traversal = if profile.root().has_pivot_condition() {
            "PSC traversal needs pivots (queuer resolves the tree)"
        } else {
            "PSC traversal is input-only (client can pre-select the partition)"
        };
        println!(
            "\n{name}: {profile}\n  class {}, {} partitions, {} pivots — {traversal}",
            profile.class(),
            profile.partition_count(),
            profile.pivot_specs().len(),
        );
    }

    println!(
        "\nnewOrder's tree is input-only even though it is dependent — exactly the\n\
         case the paper's client-side-prediction optimization exploits; delivery's\n\
         per-district conditions read the database, so only the queuer can resolve it."
    );
    Ok(())
}
