//! Regenerates the §4.3 ILP-vs-LP comparison: the ILP (IVol) solver
//! matches LP on the tiny glucose assay but blows its budget on the
//! enzyme assay (the paper's LP_Solve run "ran for hours without
//! generating a solution"; we time-box instead of literally running for
//! hours).

use std::time::Duration;

use aqua_bench::{benchmark_dag, secs, time_lp, Benchmark};
use aqua_lp::{solve_ilp, IlpConfig, IlpStatus};
use aqua_volume::lpform::{self, LpOptions};
use aqua_volume::Machine;

fn main() {
    let machine = Machine::paper_default();
    let budget = Duration::from_secs(30);
    println!("=== §4.3: ILP (IVol) vs LP (RVol) ===");
    println!("(ILP budget: {}s per assay)\n", budget.as_secs());
    println!(
        "{:<10} {:>12} {:>14} {:>22}",
        "Assay", "LP (s)", "ILP (s)", "ILP outcome"
    );
    let relaxed_ivol = LpOptions {
        min_volume: false,
        ..LpOptions::ivol()
    };
    for (bench, opts, label) in [
        (Benchmark::Glucose, LpOptions::ivol(), "Glucose"),
        (Benchmark::Enzyme, LpOptions::ivol(), "Enzyme"),
        (Benchmark::Enzyme, relaxed_ivol, "Enzyme*"),
    ] {
        let dag = benchmark_dag(bench);
        let (lp_time, _, _) = time_lp(&dag, &machine, &LpOptions::rvol());
        let form = lpform::build(&dag, &machine, &opts);
        let cfg = IlpConfig {
            time_budget: budget,
            max_nodes: 1_000_000,
        };
        let start = std::time::Instant::now();
        let out = solve_ilp(&form.model, &cfg);
        let ilp_time = start.elapsed();
        let outcome = match out.status {
            IlpStatus::Optimal(_) => "optimal".to_owned(),
            IlpStatus::Infeasible => "infeasible".to_owned(),
            IlpStatus::Unbounded => "unbounded".to_owned(),
            IlpStatus::BudgetExhausted { incumbent } => format!(
                "budget exhausted ({} nodes, {})",
                out.stats.nodes,
                if incumbent.is_some() {
                    "has incumbent"
                } else {
                    "no solution"
                }
            ),
        };
        println!(
            "{:<10} {:>12} {:>14} {:>22}",
            label,
            secs(lp_time),
            secs(ilp_time),
            outcome
        );
    }
    println!("\n(Enzyme* relaxes the least-count floor so the relaxation is");
    println!(" feasible and branch-and-bound actually searches.)");
    println!("\nShape check: ILP is competitive on Glucose; on Enzyme it either");
    println!("proves infeasibility slowly or exhausts its budget — the paper's");
    println!("\"ran for hours\" observation under a bounded clock.");
}
