//! The paper's glucose calibration assay (Figure 9/12), end to end:
//! source → DAG → DAGSolve → AIS → simulated execution, verifying the
//! mix ratios physically achieved on the (simulated) chip.
//!
//! Run with: `cargo run --example glucose_pipeline`

use aqua_assays::glucose;
use aqua_compiler::compile;
use aqua_sim::exec::{ExecConfig, Executor};
use aqua_volume::{dagsolve, Machine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = Machine::paper_default();

    // 1. Compile (volume management runs inside).
    let out = compile(glucose::SOURCE, &machine, &Default::default())?;
    println!(
        "compiled `{}`: {} DAG nodes, {} AIS instructions",
        out.program.name(),
        out.dag.num_nodes(),
        out.program.len_executable()
    );

    // 2. The volume assignment (Figure 12's numbers).
    let sol = dagsolve::solve(&out.dag, &machine)?;
    let (_, min) = sol.min_edge.expect("has edges");
    println!(
        "smallest metered transfer: {:.2} nl (paper: 3.3 nl); underflow: {}",
        min.to_f64(),
        sol.underflow.is_some()
    );

    // 3. Execute on the simulated AquaCore chip.
    let report = Executor::new(&machine, ExecConfig::default()).run(&out)?;
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    println!("\nsensed calibration points:");
    let mut results = report.sense_results.clone();
    results.sort_by(|a, b| a.target.cmp(&b.target));
    for s in &results {
        // Readings are keyed by fluid id; the run's fluid table names them.
        let composition = report.final_state.named(&s.composition);
        let glucose_pl = composition.get("Glucose").copied().unwrap_or(0.0);
        let sample_pl = composition.get("Sample").copied().unwrap_or(0.0);
        let reagent_pl = composition.get("Reagent").copied().unwrap_or(0.0);
        let analyte = glucose_pl + sample_pl;
        println!(
            "  {}: {:.1} nl, analyte:reagent = 1:{:.2}",
            s.target,
            s.volume_pl as f64 / 1000.0,
            reagent_pl / analyte
        );
    }
    println!(
        "\nall five points produced from one 100 nl reagent load — the\n\
         distribution problem the paper's volume management solves."
    );
    Ok(())
}
