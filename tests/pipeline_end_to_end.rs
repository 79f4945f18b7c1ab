//! End-to-end pipeline tests: every benchmark assay compiles to AIS and
//! executes on the simulated chip without violations, with physically
//! correct mixture compositions.

use aqua_assays::Benchmark;
use aqua_compiler::{compile, CompileOptions, VolumeResolution};
use aqua_sim::exec::{ExecConfig, Executor};
use aqua_volume::Machine;

#[test]
fn glucose_compiles_and_executes_cleanly() {
    let machine = Machine::paper_default();
    let out = Benchmark::Glucose.compile(&machine).unwrap();
    assert!(matches!(out.resolution, VolumeResolution::Static(_)));
    let report = Executor::new(&machine, ExecConfig::default())
        .run(&out)
        .unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.sense_results.len(), 5);
    // Physically achieved ratios match the assay within rounding.
    for (slot, want) in [(1, 1.0), (2, 2.0), (3, 4.0), (4, 8.0)] {
        let s = report
            .sense_results
            .iter()
            .find(|s| s.target == format!("Result[{slot}]"))
            .unwrap();
        let comp = report.final_state.named(&s.composition);
        let got = comp["Reagent"] / comp["Glucose"];
        assert!(
            (got - want).abs() / want < 0.02,
            "Result[{slot}]: {got} vs {want}"
        );
    }
}

#[test]
fn glycomics_compiles_and_executes_cleanly() {
    let machine = Machine::paper_default();
    let out = Benchmark::Glycomics.compile(&machine).unwrap();
    assert!(matches!(out.resolution, VolumeResolution::Partitioned(_)));
    let report = Executor::new(&machine, ExecConfig::default())
        .run(&out)
        .unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn enzyme_compiles_via_rewrites_and_executes() {
    let machine = Machine::paper_default();
    let out = Benchmark::Enzyme.compile(&machine).unwrap();
    // The hierarchy must have rewritten the DAG (cascade stages appear).
    assert!(out.dag.num_nodes() > 208, "no rewrites applied?");
    let report = Executor::new(&machine, ExecConfig::default())
        .run(&out)
        .unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.sense_results.len(), 64);
    // Spot-check the mildest corner tightly: all 1:1 dilutions mixed
    // 1:1:1 puts each reagent at 1/6 of the final mixture.
    let s = report
        .sense_results
        .iter()
        .find(|s| s.target == "RESULT[1][1][1]")
        .unwrap();
    let share = report.final_state.named(&s.composition)["enzyme"] / s.volume_pl as f64;
    assert!(
        (share - 1.0 / 6.0).abs() / (1.0 / 6.0) < 0.02,
        "enzyme share {share} at 1:1"
    );
    // The most extreme corner (all 1:999, so 1/3000 each) accumulates
    // least-count rounding across three cascade stages; it stays within
    // a factor of ~1.5 of nominal — the imprecision the paper's §3.2
    // notes the chemistry tolerates at these scales.
    let s = report
        .sense_results
        .iter()
        .find(|s| s.target == "RESULT[4][4][4]")
        .unwrap();
    let share = report.final_state.named(&s.composition)["enzyme"] / s.volume_pl as f64;
    let nominal = 1.0 / 3000.0;
    assert!(
        share > nominal / 1.5 && share < nominal * 1.5,
        "enzyme share {share} vs nominal {nominal}"
    );
}

#[test]
fn enzyme10_compiles_headlessly() {
    // The scaled assay is big (3034 DAG nodes); it must still flow
    // through lowering and codegen without volume management blowing up.
    let machine = Machine::paper_default();
    let out = compile(
        &Benchmark::EnzymeN(10).source(),
        &machine,
        &CompileOptions {
            skip_volume_management: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(out.program.len_executable() > 5000);
}

#[test]
fn all_sources_reparse_from_printed_ais() {
    // The printed AIS of every benchmark round-trips through the
    // assembly parser.
    let machine = Machine::paper_default();
    for b in [Benchmark::Glucose, Benchmark::Glycomics, Benchmark::Enzyme] {
        let out = b.compile(&machine).unwrap();
        let printed = out.program.to_string();
        let reparsed: aqua_ais::Program = printed.parse().unwrap();
        assert_eq!(out.program, reparsed, "{} round-trip", b.name());
    }
}

#[test]
fn tighter_machines_degrade_gracefully() {
    // A coarse machine (least count 1 nl) cannot meter the glucose
    // 1:8 aliquot at full precision but must still compile — either
    // solved (after rewrites) or flagged for regeneration, never a
    // panic.
    let machine = Machine::new(
        aqua_rational::Ratio::from_int(20),
        aqua_rational::Ratio::from_int(1),
    )
    .unwrap();
    let result = compile(
        &Benchmark::Glucose.source(),
        &machine,
        &CompileOptions::default(),
    );
    assert!(result.is_ok(), "{:?}", result.err());
}

#[test]
fn no_volume_management_baseline_differs() {
    let machine = Machine::paper_default();
    let managed = Benchmark::Glucose.compile(&machine).unwrap();
    let baseline = compile(
        &Benchmark::Glucose.source(),
        &machine,
        &CompileOptions {
            skip_volume_management: true,
            ..Default::default()
        },
    )
    .unwrap();
    let managed_static = managed
        .volume_plan
        .entries
        .iter()
        .flatten()
        .filter(|p| matches!(p, aqua_compiler::PlannedVolume::Static(_)))
        .count();
    let baseline_static = baseline
        .volume_plan
        .entries
        .iter()
        .flatten()
        .filter(|p| matches!(p, aqua_compiler::PlannedVolume::Static(_)))
        .count();
    assert!(managed_static > 0);
    assert_eq!(baseline_static, 0);
}

#[test]
fn explicit_outputs_with_weights_shape_production() {
    // Two outputs with 3:1 weights: the chip must collect three times
    // as much of the first product.
    let machine = Machine::paper_default();
    let src = "
ASSAY t START
fluid A, B, heavy, light;
heavy = MIX A AND B IN RATIOS 1 : 1 FOR 10;
light = MIX A AND B IN RATIOS 1 : 2 FOR 10;
OUTPUT heavy WEIGHT 3;
OUTPUT light;
END";
    let out = compile(src, &machine, &CompileOptions::default()).unwrap();
    let report = Executor::new(&machine, ExecConfig::default())
        .run(&out)
        .unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // Dedicated output ports start at op2; collectables in weight order.
    let mut volumes: Vec<u64> = report
        .collected_pl
        .iter()
        .filter(|(&port, _)| port >= 2)
        .map(|(_, &v)| v)
        .collect();
    volumes.sort_unstable();
    assert_eq!(volumes.len(), 2, "{:?}", report.collected_pl);
    let ratio = volumes[1] as f64 / volumes[0] as f64;
    assert!((ratio - 3.0).abs() < 0.05, "weight ratio {ratio}");
}
