//! Differential suite: the scheduled executor must be chemically
//! indistinguishable from the sequential executor.
//!
//! For every paper assay and a family of seeded synthetic programs,
//! fault-free and at 5% / 20% fault rates across 20 seeds each, the
//! scheduled replay's sense set, conservation delta, recovery-tier
//! counts, and violation count must equal the sequential run's —
//! while the schedule itself stays valid and its makespan never
//! exceeds the sequential baseline. Readings are compared by fluid
//! name, each named through its own run's fluid table, so the two runs
//! need not number their fluids alike.

use aqua_assays::Benchmark;
use aqua_compiler::CompileOutput;
use aqua_sim::exec::{ExecConfig, ExecReport, Executor, SenseResult};
use aqua_sim::fault::FaultPlan;
use aqua_sim::sched::{plan, InstrDag, SchedOptions, Schedule};
use aqua_volume::Machine;

/// A machine with enough storage and ports for renamed parallelism
/// (the unit counts stay at the paper defaults).
fn big_machine() -> Machine {
    Machine::paper_default()
        .with_reservoirs(128)
        .with_input_ports(64)
}

fn schedule_for(out: &CompileOutput, machine: &Machine) -> Schedule {
    let sched = plan(out, machine, &SchedOptions::default());
    sched
        .validate()
        .unwrap_or_else(|e| panic!("invalid schedule: {e}"));
    assert!(
        sched.makespan_s <= sched.sequential_s,
        "schedule ({}s) slower than sequential ({}s)",
        sched.makespan_s,
        sched.sequential_s
    );
    assert!(
        sched.makespan_s >= sched.critical_path_s,
        "schedule ({}s) beats the critical path ({}s)",
        sched.makespan_s,
        sched.critical_path_s
    );
    sched
}

/// A reading's composition by fluid name (value bits), sorted.
fn by_name(report: &ExecReport, s: &SenseResult) -> Vec<(String, u64)> {
    let mut named: Vec<(String, u64)> = (s.composition.iter())
        .map(|&(fluid, pl)| {
            (
                report.final_state.fluid_name(fluid).to_owned(),
                pl.to_bits(),
            )
        })
        .collect();
    named.sort_unstable();
    named
}

fn assert_equivalent(case: &str, seq: &ExecReport, sch: &ExecReport) {
    assert_eq!(
        seq.sense_results.len(),
        sch.sense_results.len(),
        "{case}: sense count"
    );
    for (a, b) in seq.sense_results.iter().zip(&sch.sense_results) {
        assert_eq!(a.target, b.target, "{case}: sense target");
        assert_eq!(a.volume_pl, b.volume_pl, "{case}: sense volume");
        assert_eq!(
            by_name(seq, a),
            by_name(sch, b),
            "{case}: sense composition"
        );
    }
    assert_eq!(
        seq.conservation_delta_pl(),
        sch.conservation_delta_pl(),
        "{case}: conservation delta"
    );
    assert_eq!(seq.recovery, sch.recovery, "{case}: recovery counters");
    assert_eq!(seq.faults, sch.faults, "{case}: fault counters");
    assert_eq!(
        seq.violations.len(),
        sch.violations.len(),
        "{case}: violation count"
    );
    assert_eq!(seq.wet_seconds, sch.wet_seconds, "{case}: wet seconds");
    assert_eq!(seq.collected_pl, sch.collected_pl, "{case}: collected");
    assert_eq!(seq.input_pl, sch.input_pl, "{case}: input volume");
    assert_eq!(
        seq.dry_registers, sch.dry_registers,
        "{case}: dry registers"
    );
}

fn check_program(case: &str, out: &CompileOutput, machine: &Machine, config: &ExecConfig) {
    let sched = schedule_for(out, machine);
    let seq = Executor::new(machine, config.clone())
        .run(out)
        .unwrap_or_else(|e| panic!("{case}: sequential run failed: {e}"));
    let run = Executor::new(machine, config.clone())
        .run_scheduled(out, &sched)
        .unwrap_or_else(|e| panic!("{case}: scheduled run failed: {e}"));
    assert_equivalent(case, &seq, &run.report);
    assert_eq!(
        seq.wet_seconds, sched.sequential_s,
        "{case}: sequential baseline is exactly the sequential wet time"
    );
    assert!(
        run.realized_makespan_s >= run.makespan_s,
        "{case}: repairs can only lengthen the timeline"
    );
    if run.report.recovery.repair_s == 0 {
        assert_eq!(
            run.realized_makespan_s, run.makespan_s,
            "{case}: no repairs, no re-timing"
        );
        assert_eq!(run.shifted_instrs, 0, "{case}: no repairs, nothing shifts");
    }
}

fn paper_assays(machine: &Machine) -> Vec<(String, CompileOutput)> {
    Benchmark::table2_suite()
        .iter()
        .map(|b| (b.name().to_string(), b.compile(machine).expect("compiles")))
        .collect()
}

#[test]
fn fault_free_matches_sequential_on_paper_assays() {
    let machine = big_machine();
    for (name, out) in paper_assays(&machine) {
        check_program(&name, &out, &machine, &ExecConfig::default());
    }
}

#[test]
fn faulted_recovered_matches_sequential_on_paper_assays() {
    let machine = big_machine();
    let assays = paper_assays(&machine);
    for rate in [0.05, 0.20] {
        for seed in 0..20u64 {
            for (name, out) in &assays {
                let config = ExecConfig {
                    faults: FaultPlan::uniform(seed.wrapping_mul(31).wrapping_add(7), rate),
                    recover: true,
                    ..ExecConfig::default()
                };
                let case = format!("{name} rate={rate} seed={seed}");
                check_program(&case, out, &machine, &config);
            }
        }
    }
}

/// Synthetic wide programs: N independent mix→incubate→sense chains,
/// compiled from generated source. Seeds vary the ratios and
/// durations, so the DAG shapes differ run to run.
fn synthetic_source(seed: u64, chains: u64) -> String {
    let mut s = String::from("ASSAY synth START\nfluid A, B, C;\n");
    for i in 0..chains {
        s.push_str(&format!("fluid m{i};\n"));
    }
    s.push_str(&format!("VAR R[{chains}];\n"));
    let mut rng = aqua_rational::rng::XorShift64Star::new(seed);
    let mut next = move || rng.next_u64();
    for i in 0..chains {
        let r1 = next() % 4 + 1;
        let r2 = next() % 6 + 1;
        let mix_s = next() % 20 + 5;
        let inc_s = next() % 120 + 30;
        let pair = match next() % 3 {
            0 => ("A", "B"),
            1 => ("A", "C"),
            _ => ("B", "C"),
        };
        s.push_str(&format!(
            "m{i} = MIX {} AND {} IN RATIOS {r1} : {r2} FOR {mix_s};\n",
            pair.0, pair.1
        ));
        s.push_str(&format!("INCUBATE m{i} AT 37 FOR {inc_s};\n"));
        s.push_str(&format!("SENSE OPTICAL m{i} INTO R[{}];\n", i + 1));
    }
    s.push_str("END\n");
    s
}

#[test]
fn synthetic_chains_match_sequential_and_speed_up() {
    let machine = big_machine();
    let opts = aqua_compiler::CompileOptions::default();
    for seed in 0..10u64 {
        let src = synthetic_source(seed, 6);
        let out = aqua_compiler::compile(&src, &machine, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check_program(
            &format!("synthetic seed={seed}"),
            &out,
            &machine,
            &ExecConfig::default(),
        );
        // Six independent chains on two mixers and two heaters must
        // overlap: the schedule beats the sequential baseline.
        let sched = plan(&out, &machine, &SchedOptions::default());
        assert!(
            sched.makespan_s < sched.sequential_s,
            "seed {seed}: no overlap ({} vs {})",
            sched.makespan_s,
            sched.sequential_s
        );
    }
}

#[test]
fn synthetic_chains_under_faults_match_sequential() {
    let machine = big_machine();
    let opts = aqua_compiler::CompileOptions::default();
    for seed in 0..20u64 {
        let src = synthetic_source(seed, 4);
        let out = aqua_compiler::compile(&src, &machine, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for rate in [0.05, 0.20] {
            let config = ExecConfig {
                faults: FaultPlan::uniform(seed, rate),
                recover: true,
                ..ExecConfig::default()
            };
            check_program(
                &format!("synthetic seed={seed} rate={rate}"),
                &out,
                &machine,
                &config,
            );
        }
    }
}

#[test]
fn dag_analysis_is_consistent() {
    let machine = big_machine();
    for (name, out) in paper_assays(&machine) {
        let dag = InstrDag::build(&out);
        assert_eq!(dag.len, out.program.instrs().len(), "{name}: node count");
        // Priorities dominate successors' priorities (critical path).
        for i in 0..dag.len {
            for &s in &dag.succs[i] {
                assert!(
                    dag.priority[i] >= dag.dur_s[i] + dag.priority[s as usize],
                    "{name}: priority inversion at {i}"
                );
                assert!((s as usize) > i, "{name}: backward edge {i}->{s}");
            }
        }
        assert!(dag.critical_path_s <= dag.sequential_s, "{name}: bounds");
    }
}
