//! Quickstart: write an assay, compile it with automatic volume
//! management, inspect the generated AquaCore code, and simulate it.
//!
//! Run with: `cargo run --example quickstart`

use aqua_compiler::{compile, PlannedVolume};
use aqua_sim::exec::{ExecConfig, Executor};
use aqua_volume::Machine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A three-point serial dilution of a dye, read by the optical
    // sensor. `it` always names the previous statement's product.
    let src = "
ASSAY dilution_curve START
fluid Dye, Buffer;
VAR Reading[3];
MIX Dye AND Buffer IN RATIOS 1 : 1 FOR 10;
SENSE OPTICAL it INTO Reading[1];
MIX Dye AND Buffer IN RATIOS 1 : 9 FOR 10;
SENSE OPTICAL it INTO Reading[2];
MIX Dye AND Buffer IN RATIOS 1 : 19 FOR 10;
SENSE OPTICAL it INTO Reading[3];
END";

    // The paper's machine: 100 nl capacity, 0.1 nl metering resolution.
    let machine = Machine::paper_default();
    let out = compile(src, &machine, &Default::default())?;

    println!("=== Generated AquaCore (AIS) code ===");
    print!("{}", out.program);

    println!("\n=== Metered volumes chosen by DAGSolve ===");
    for (i, instr) in out.program.instrs().iter().enumerate() {
        if let Some(PlannedVolume::Static(pl)) = out.volume_plan.get(i) {
            println!(
                "  {:<28} {:>8.1} nl",
                instr.to_string(),
                *pl as f64 / 1000.0
            );
        }
    }

    println!("\n=== Simulated execution ===");
    let report = Executor::new(&machine, ExecConfig::default()).run(&out)?;
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    for s in &report.sense_results {
        // Readings are keyed by fluid id; the run's fluid table names them.
        let composition = report.final_state.named(&s.composition);
        let dye = composition.get("Dye").copied().unwrap_or(0.0);
        let buffer = composition.get("Buffer").copied().unwrap_or(0.0);
        println!(
            "  {}: {:.1} nl sensed, Dye:Buffer = 1:{:.0}",
            s.target,
            s.volume_pl as f64 / 1000.0,
            buffer / dye
        );
    }
    println!("\nno underflow, no overflow, no fluid ran out — volumes managed.");
    Ok(())
}
