//! Differential fault testing over the paper's assays: under every
//! single-fault scenario, a recovering run either completes with the
//! same sensor-reading set as the fault-free run, or reports a typed,
//! non-panicking failure — never a silently wrong result.

use std::collections::BTreeMap;

use aqua_assays::Benchmark;
use aqua_sim::{
    ExecConfig, ExecReport, Executor, FaultPlan, ScriptedFault, ScriptedKind, Violation,
};
use aqua_volume::Machine;

/// The assay suite: the running example plus the paper benchmarks small
/// enough to sweep every dispense index (Enzyme10 is covered by the
/// `bench` binary's fault section instead).
fn suite() -> Vec<(&'static str, String)> {
    vec![
        ("fig2", aqua_assays::figure2::SOURCE.to_owned()),
        ("glucose", Benchmark::Glucose.source()),
        ("glycomics", Benchmark::Glycomics.source()),
        ("enzyme4", Benchmark::Enzyme.source()),
    ]
}

/// The single-fault scenarios, one scripted fault each.
fn scenarios() -> Vec<(&'static str, ScriptedKind)> {
    vec![
        ("transient", ScriptedKind::Transient),
        ("stuck-half", ScriptedKind::Stuck { per_mille: 500 }),
        ("over-meter", ScriptedKind::Meter { delta_lc: 2 }),
        ("under-meter", ScriptedKind::Meter { delta_lc: -2 }),
        ("sensor-high", ScriptedKind::Sensor { per_mille: 1400 }),
    ]
}

/// The multiset of sense-result targets (the observable outcome of the
/// assay, ignoring exact volumes which faults legitimately perturb).
fn sense_targets(report: &ExecReport) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for s in &report.sense_results {
        *m.entry(s.target.clone()).or_insert(0) += 1;
    }
    m
}

fn hard_violations(report: &ExecReport) -> Vec<&Violation> {
    report
        .violations
        .iter()
        .filter(|v| matches!(v, Violation::Deficit { .. } | Violation::Overflow { .. }))
        .collect()
}

#[test]
fn every_single_fault_recovers_or_fails_typed() {
    let machine = Machine::paper_default();
    for (assay, source) in suite() {
        let out = aqua_compiler::compile(&source, &machine, &Default::default())
            .unwrap_or_else(|e| panic!("{assay}: {e}"));
        let clean = Executor::new(&machine, ExecConfig::default())
            .run(&out)
            .unwrap_or_else(|e| panic!("{assay} fault-free: {e}"));
        let want = sense_targets(&clean);
        // Count metered dispenses in the clean run so the sweep covers
        // every index (inputs + metered moves ≈ wet instructions).
        let dispenses = clean.wet_instructions.max(8);
        for (scenario, kind) in scenarios() {
            for at in 0..dispenses {
                let config = ExecConfig {
                    faults: FaultPlan::script(ScriptedFault { at, kind }),
                    recover: true,
                    ..ExecConfig::default()
                };
                match Executor::new(&machine, config).run(&out) {
                    Ok(report) => {
                        // Completion must mean the full reading set —
                        // anything less must have surfaced as a typed
                        // violation, not vanished.
                        let got = sense_targets(&report);
                        if hard_violations(&report).is_empty() {
                            assert_eq!(
                                got, want,
                                "{assay}/{scenario}@{at}: silent result divergence"
                            );
                        } else {
                            // A reported failure is acceptable; a wrong
                            // *set* of readings with no report is not.
                            assert!(
                                got.len() <= want.len(),
                                "{assay}/{scenario}@{at}: extra readings"
                            );
                        }
                        // Every injected fault is counted.
                        if report.faults.total() == 0 {
                            // The scripted index was past the last
                            // dispense/measurement — a clean replay.
                            assert_eq!(got, want, "{assay}/{scenario}@{at}");
                        }
                    }
                    Err(err) => {
                        // Typed, matchable, non-panicking.
                        let _: &dyn std::error::Error = &err;
                        assert!(
                            matches!(err, aqua_sim::ExecError::RuntimeDispense { .. }),
                            "{assay}/{scenario}@{at}: unexpected structural error {err}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn uniform_faults_reproduce_exactly_per_seed() {
    let machine = Machine::paper_default();
    for (assay, source) in suite() {
        let out = aqua_compiler::compile(&source, &machine, &Default::default()).unwrap();
        for seed in [1u64, 17, 7777] {
            let mk = || {
                let config = ExecConfig {
                    faults: FaultPlan::uniform(seed, 0.15),
                    recover: true,
                    record_trace: true,
                    ..ExecConfig::default()
                };
                Executor::new(&machine, config).run(&out).unwrap()
            };
            let a = mk();
            let b = mk();
            assert_eq!(a.faults, b.faults, "{assay} seed {seed}: fault counters");
            assert_eq!(a.recovery, b.recovery, "{assay} seed {seed}: recovery");
            assert_eq!(a.trace, b.trace, "{assay} seed {seed}: trace");
            assert_eq!(
                a.violations, b.violations,
                "{assay} seed {seed}: violations"
            );
            let va: Vec<_> = a.sense_results.iter().map(|s| s.volume_pl).collect();
            let vb: Vec<_> = b.sense_results.iter().map(|s| s.volume_pl).collect();
            assert_eq!(va, vb, "{assay} seed {seed}: sensed volumes");
            assert_eq!(a.conservation_delta_pl(), 0, "{assay} seed {seed}");
        }
    }
}

#[test]
fn recovery_is_off_by_default_and_faults_stay_visible() {
    // The no-recovery contract: with faults on but recovery off, a
    // materially starved run reports a Deficit rather than patching
    // itself — the behavioral baseline the paper's Fig. 6 run-time
    // ladder is measured against.
    let machine = Machine::paper_default();
    let out = aqua_compiler::compile(&Benchmark::Glucose.source(), &machine, &Default::default())
        .unwrap();
    let mut saw_deficit = false;
    for seed in 0..20u64 {
        let config = ExecConfig {
            faults: FaultPlan::uniform(seed, 0.25),
            ..ExecConfig::default()
        };
        let report = Executor::new(&machine, config).run(&out).unwrap();
        assert_eq!(report.recovery.total_recovered(), 0, "seed {seed}");
        assert_eq!(report.recovery.extra_volume_pl, 0, "seed {seed}");
        saw_deficit |= report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Deficit { .. }));
        assert_eq!(report.conservation_delta_pl(), 0, "seed {seed}");
    }
    assert!(
        saw_deficit,
        "25% fault rate never starved glucose across 20 seeds"
    );
}
