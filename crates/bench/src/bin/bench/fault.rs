//! Executions under injected hardware faults with the run-time recovery
//! ladder on (re-dispense → regenerate → re-solve, the Fig. 6 hierarchy
//! applied at run time): the Figure 2 example, Glucose and Glycomics on
//! the paper chip and Enzyme10 on `big` (it stores 113 fluids at once),
//! each run once fault-free for its reference and then at every fault
//! rate × seed (rates {0, 10}% × 3 seeds with `--quick`, {0, 2, 5, 10,
//! 20}% × 20 seeds in full).
//!
//! A run *recovers* when it completes without deficit or overflow
//! violations, with the fault-free number of sensor readings and fluid
//! at every planned output port; volume conservation is asserted on
//! every run. Rows `{assay}/{machine}/fault-{rate}` time one run per
//! seed; figures `fault_recovered_share_rate{pct}` give the recovered
//! share per rate over all cases. Gate `fault_zero_rate_recovered`:
//! every zero-rate run recovers.

use aqua_bench::harness::sample;
use aqua_sim::{ExecConfig, ExecReport, Executor, FaultPlan, Violation};

use crate::{status_on, Bench};

pub(crate) fn run(b: &mut Bench) {
    let rates: &[f64] = if b.quick() {
        &[0.0, 0.10]
    } else {
        &[0.0, 0.02, 0.05, 0.10, 0.20]
    };
    let seeds: u64 = if b.quick() { 3 } else { 20 };
    let cases = [
        ("fig2", "paper"),
        ("glucose", "paper"),
        ("glycomics", "paper"),
        ("enzyme10", "big"),
    ];
    let mut recovered = vec![0u64; rates.len()];
    for (assay, chip) in cases {
        let machine = aqua_bench::machine(chip).expect("known machine");
        let src = aqua_bench::assay_source(assay).expect("known assay");
        let out = aqua_compiler::compile(&src, &machine, &Default::default())
            .unwrap_or_else(|e| panic!("{assay} failed to compile: {e}"));
        let clean = Executor::new(&machine, ExecConfig::default())
            .run(&out)
            .unwrap_or_else(|e| panic!("{assay} failed fault-free: {e}"));
        // Meter underflows are tolerated in the baseline: Enzyme10's
        // fan-out drives some planned volumes below the least count even
        // fault-free. Only deficits and overflows disqualify.
        assert!(
            !hard_violation(&clean),
            "{assay} starves/overflows even fault-free: {:?}",
            clean.violations
        );
        let status = status_on(assay, chip);
        for (i, &rate) in rates.iter().enumerate() {
            let mut seed = 0;
            let mut wins = 0;
            let samples = sample(0, seeds as usize, || {
                seed += 1;
                let config = ExecConfig {
                    faults: FaultPlan::uniform(seed, rate),
                    recover: true,
                    obs: b.obs.clone(),
                    ..ExecConfig::default()
                };
                let report = Executor::new(&machine, config)
                    .run(&out)
                    .unwrap_or_else(|e| panic!("{assay}: {e}"));
                assert_eq!(
                    report.conservation_delta_pl(),
                    0,
                    "{assay} seed {seed}: volume not conserved"
                );
                wins += u64::from(recovers(&clean, &report));
            });
            b.report
                .row(format!("{assay}/{chip}/fault-{rate:.2}"), &status, &samples);
            recovered[i] += wins;
        }
    }
    let runs = seeds * cases.len() as u64;
    for (&rate, &wins) in rates.iter().zip(&recovered) {
        let pct = (rate * 100.0).round();
        b.report.figure(
            &format!("fault_recovered_share_rate{pct}"),
            wins as f64 / runs as f64,
        );
    }
    b.report
        .holds("fault_zero_rate_recovered", recovered[0] == runs);
}

fn hard_violation(report: &ExecReport) -> bool {
    report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::Deficit { .. } | Violation::Overflow { .. }))
}

/// Whether a faulty run recovered: no deficit or overflow, the clean
/// run's number of readings, and fluid at each of its output ports
/// (port 1 doubles as the overflow-trim waste, so extras are fine).
fn recovers(clean: &ExecReport, report: &ExecReport) -> bool {
    !hard_violation(report)
        && report.sense_results.len() == clean.sense_results.len()
        && clean
            .collected_pl
            .keys()
            .all(|p| report.collected_pl.get(p).is_some_and(|&v| v > 0))
}
