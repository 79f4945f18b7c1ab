//! Code-generation corner cases: unit eviction, parked products, and
//! plan/instruction consistency.

use aqua_ais::{Instr, WetLoc};
use aqua_compiler::{compile, CompileOptions};
use aqua_volume::Machine;

/// Two independent mixes contend for the single mixer: the first
/// product must be evicted to a reservoir before the second mix runs,
/// and still reach its consumer afterwards.
#[test]
fn parked_products_are_evicted_when_the_unit_is_reused() {
    let machine = Machine::paper_default();
    let src = "
ASSAY t START
fluid A, B, x, y;
x = MIX A AND B IN RATIOS 1 : 1 FOR 5;
y = MIX A AND B IN RATIOS 1 : 2 FOR 5;
MIX x AND y FOR 5;
SENSE OPTICAL it INTO R;
END";
    let out = compile(src, &machine, &CompileOptions::default()).unwrap();
    // Find an eviction: a move FROM mixer1 TO a reservoir that is not
    // the multi-use store (x and y are single-use, so any
    // mixer->reservoir move is an eviction).
    let evictions = out
        .program
        .instrs()
        .iter()
        .filter(|i| {
            matches!(
                i,
                Instr::Move {
                    dst: WetLoc::Reservoir(_),
                    src: WetLoc::Mixer(1),
                    ..
                }
            )
        })
        .count();
    assert!(evictions >= 1, "expected an eviction:\n{}", out.program);
    // And the program still executes cleanly.
    let report = aqua_sim::exec::Executor::new(&machine, Default::default())
        .run(&out)
        .unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // The final 1:1 mix of x (1:1) and y (1:2) has A:B =
    // (1/2 + 1/3)/2 : (1/2 + 2/3)/2 = 5/12 : 7/12.
    let comp = report
        .final_state
        .named(&report.sense_results[0].composition);
    let ratio = comp["B"] / comp["A"];
    assert!((ratio - 7.0 / 5.0).abs() < 0.02, "B:A {ratio}");
}

/// The sensor is also contended: two products sensed back-to-back must
/// not leak into each other.
#[test]
fn sensor_contention_does_not_mix_samples() {
    let machine = Machine::paper_default();
    let src = "
ASSAY t START
fluid A, B, C;
MIX A AND B FOR 5;
SENSE OPTICAL it INTO R1;
MIX A AND C FOR 5;
SENSE OPTICAL it INTO R2;
END";
    let out = compile(src, &machine, &CompileOptions::default()).unwrap();
    let report = aqua_sim::exec::Executor::new(&machine, Default::default())
        .run(&out)
        .unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let r1 = report
        .sense_results
        .iter()
        .find(|s| s.target == "R1")
        .unwrap();
    let r2 = report
        .sense_results
        .iter()
        .find(|s| s.target == "R2")
        .unwrap();
    let (r1, r2) = (
        report.final_state.named(&r1.composition),
        report.final_state.named(&r2.composition),
    );
    assert!(r1.get("C").copied().unwrap_or(0.0) < 1e-9);
    assert!(r2.get("B").copied().unwrap_or(0.0) < 1e-9);
}

/// Every emitted instruction has a plan slot, and every metered move's
/// static volume is a least-count multiple.
#[test]
fn plans_are_complete_and_least_count_aligned() {
    let machine = Machine::paper_default();
    for bench in [
        aqua_assays::Benchmark::Glucose,
        aqua_assays::Benchmark::Enzyme,
    ] {
        let out = bench.compile(&machine).unwrap();
        assert_eq!(out.volume_plan.entries.len(), out.program.instrs().len());
        for entry in out.volume_plan.entries.iter().flatten() {
            if let aqua_compiler::PlannedVolume::Static(pl) = entry {
                assert_eq!(pl % 100, 0, "{pl} pl is not a 100 pl multiple");
            }
        }
    }
}

/// An unknown-volume separation with two uses in different partitions
/// splits its measured yield 1/2 + 1/2.
#[test]
fn multi_use_unknown_yield_is_split() {
    let machine = Machine::paper_default();
    let src = "
ASSAY t START
fluid A, B, s, m, buf, eff, waste;
s = MIX A AND B FOR 30;
SEPARATE s MATRIX m USING buf FOR 30 INTO eff AND waste;
MIX eff AND A FOR 5;
SENSE OPTICAL it INTO R1;
MIX eff AND B FOR 5;
SENSE OPTICAL it INTO R2;
END";
    let out = compile(src, &machine, &CompileOptions::default()).unwrap();
    let aqua_compiler::VolumeResolution::Partitioned(plan) = &out.resolution else {
        panic!("expected partitioned resolution");
    };
    let mut shares = Vec::new();
    for part in &plan.partitions {
        for binding in part.bindings.values() {
            if let aqua_volume::unknown::Binding::Runtime { share, .. } = binding {
                shares.push(*share);
            }
        }
    }
    shares.sort();
    let half = aqua_rational::Ratio::new(1, 2).unwrap();
    assert!(
        shares.iter().filter(|&&s| s == half).count() >= 2,
        "expected two 1/2 shares, got {shares:?}"
    );
    // And execution respects the split.
    let report = aqua_sim::exec::Executor::new(&machine, Default::default())
        .run(&out)
        .unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}
