//! Benchmarks the chip-as-CPU plan scheduler: scheduled (parallel)
//! execution vs the sequential baseline, plus the 32-instance batch
//! fleet. Writes `BENCH_exec.json` at the repo root.
//!
//! Usage: `cargo run --release --bin bench_exec [--quick] [--out PATH]
//! [--obs TRACE_PATH]`
//!
//! Three experiments:
//!
//! * `enzyme10` — the paper's largest assay on the default two-mixer /
//!   two-heater inventory (with enough storage for renaming). The
//!   headline `enzyme10_speedup` is simulated sequential wet time over
//!   scheduled makespan; the acceptance floor is 2x. An eight-unit
//!   variant (`enzyme10_speedup_8u`) shows inventory scaling.
//! * `batch32` — a fleet of 32 assay instances (8 each of figure2,
//!   glucose, glycomics, enzyme) union-scheduled on one chip.
//!   Isomorphic instances share one DAG analysis via their canonical
//!   plan keys (aqua-serve's content addressing). The batch replays on
//!   1, 2, and 8 worker threads and the report digests must agree
//!   bit-for-bit (`threads_agree`).
//! * `batch32/faulted` — the same fleet at a 5% uniform fault rate with
//!   recovery on: every shortfall must be recovered (no deficit
//!   violations), and the spliced (re-timed) makespan reported.
//!
//! Makespans are *simulated* wet seconds — fully deterministic — so the
//! speedup gates are exact, not statistical. Wall-clock timings of the
//! scheduler itself are reported alongside (`*/plan` rows).
//!
//! Exit status: nonzero if any scheduled makespan exceeds its
//! sequential baseline, if thread counts disagree, if recovery fails,
//! or (full mode only) if a headline speedup misses the 2x floor.

use std::collections::HashMap;

use aqua_bench::harness::{self, Extra, Measurement};
use aqua_bench::Benchmark;
use aqua_compiler::CompileOutput;
use aqua_serve::canon;
use aqua_sim::batch_exec::{run_batch, BatchJob, BatchOptions, BatchReport};
use aqua_sim::exec::{ExecConfig, Executor};
use aqua_sim::fault::FaultPlan;
use aqua_sim::sched::{plan, InstrDag, SchedOptions};
use aqua_volume::Machine;

/// Acceptance floor for the headline speedups (full mode).
const MIN_SPEEDUP: f64 = 2.0;

/// The single-assay machine: paper unit counts, storage sized for
/// renaming (reservoirs are cheap chip area; units are not).
fn exec_machine() -> Machine {
    Machine::paper_default()
        .with_reservoirs(128)
        .with_input_ports(64)
}

/// The batch-fleet machine: a large chip hosting 32 concurrent
/// instances (glycomics separator columns stay occupied for the whole
/// assay, so the fleet needs one per instance).
fn fleet_machine() -> Machine {
    Machine::paper_default()
        .with_reservoirs(512)
        .with_input_ports(128)
        .with_mixers(8)
        .with_heaters(8)
        .with_sensors(8)
        .with_separators(16)
}

struct FleetCase {
    name: &'static str,
    out: CompileOutput,
    key: u128,
}

fn fleet_cases(machine: &Machine) -> Vec<FleetCase> {
    let mut cases = Vec::new();
    for (name, src) in [
        ("figure2", aqua_assays::figure2::SOURCE.to_string()),
        ("glucose", Benchmark::Glucose.source()),
        ("glycomics", Benchmark::Glycomics.source()),
        ("enzyme", Benchmark::Enzyme.source()),
    ] {
        let out = aqua_compiler::compile(&src, machine, &Default::default())
            .unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
        let key = canon::canonicalize(&out.dag, &HashMap::new(), machine)
            .unwrap_or_else(|e| panic!("{name} does not canonicalize: {e}"))
            .key;
        cases.push(FleetCase { name, out, key });
    }
    cases
}

fn build_jobs<'a>(
    cases: &'a [FleetCase],
    per_case: usize,
    config: impl Fn(usize) -> ExecConfig,
) -> Vec<BatchJob<'a>> {
    let mut jobs = Vec::new();
    for case in cases {
        for _ in 0..per_case {
            let i = jobs.len();
            jobs.push(BatchJob {
                out: &case.out,
                key: case.key,
                config: config(i),
            });
        }
    }
    jobs
}

fn speedup(seq_s: u64, sched_s: u64) -> f64 {
    if sched_s == 0 {
        0.0
    } else {
        seq_s as f64 / sched_s as f64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(pos) => match args.get(pos + 1) {
            Some(p) if !p.starts_with("--") => p.clone(),
            _ => {
                eprintln!("error: --out requires a path");
                std::process::exit(2);
            }
        },
        None => "BENCH_exec.json".to_string(),
    };
    let (obs, obs_out) = harness::obs_from_args(&args);
    let (warmup, iters) = if quick { (0, 1) } else { (1, 5) };

    let mut measurements: Vec<Measurement> = Vec::new();
    let mut extras: Vec<(String, Extra)> = Vec::new();
    let mut ok = true;

    // --- Experiment 1: enzyme10, scheduled vs sequential. ---
    let machine = exec_machine();
    let out = Benchmark::EnzymeN(10)
        .compile(&machine)
        .expect("enzyme10 compiles");
    let opts = SchedOptions { obs: obs.clone() };
    // Every executor reports to the harness sink, so an `--obs` trace
    // holds one `sim.run` span per run.
    let exec_config = || ExecConfig {
        obs: obs.clone(),
        ..ExecConfig::default()
    };
    measurements.push(harness::time("enzyme10/plan", warmup, iters, || {
        plan(&out, &machine, &opts)
    }));
    let sched = plan(&out, &machine, &opts);
    sched
        .validate()
        .unwrap_or_else(|e| panic!("enzyme10 schedule invalid: {e}"));
    measurements.push(harness::time("enzyme10/replay", warmup, iters, || {
        Executor::new(&machine, exec_config())
            .run_scheduled(&out, &sched)
            .expect("enzyme10 replays")
    }));
    let run = Executor::new(&machine, exec_config())
        .run_scheduled(&out, &sched)
        .expect("enzyme10 replays");
    assert_eq!(
        run.report.conservation_delta_pl(),
        0,
        "conservation holds under renaming"
    );
    let e10_seq = sched.sequential_s;
    let e10_sched = sched.makespan_s;
    let e10_speedup = speedup(e10_seq, e10_sched);
    println!(
        "enzyme10: sequential {e10_seq}s, scheduled {e10_sched}s ({e10_speedup:.2}x, \
         critical path {}s, {} spills, fallback={})",
        sched.critical_path_s, sched.stats.spills, sched.stats.fallback
    );
    extras.push(("enzyme10_seq_s".into(), Extra::Num(e10_seq.to_string())));
    extras.push(("enzyme10_sched_s".into(), Extra::Num(e10_sched.to_string())));
    extras.push((
        "enzyme10_speedup".into(),
        Extra::Num(format!("{e10_speedup:.3}")),
    ));
    extras.push((
        "enzyme10_critical_path_s".into(),
        Extra::Num(sched.critical_path_s.to_string()),
    ));
    for u in &sched.utilization {
        if u.slots > 0 && u.busy_slot_s > 0 {
            extras.push((
                format!("enzyme10_util_{}_permille", u.class).to_lowercase(),
                Extra::Num(u.util_permille.to_string()),
            ));
        }
    }

    // Inventory scaling: eight units of everything.
    let machine8 = exec_machine()
        .with_mixers(8)
        .with_heaters(8)
        .with_sensors(8);
    let out8 = Benchmark::EnzymeN(10)
        .compile(&machine8)
        .expect("enzyme10 compiles");
    let sched8 = plan(&out8, &machine8, &opts);
    let e10_speedup8 = speedup(sched8.sequential_s, sched8.makespan_s);
    println!(
        "enzyme10 (8 units): sequential {}s, scheduled {}s ({e10_speedup8:.2}x)",
        sched8.sequential_s, sched8.makespan_s
    );
    extras.push((
        "enzyme10_speedup_8u".into(),
        Extra::Num(format!("{e10_speedup8:.3}")),
    ));

    // --- Experiment 2: the 32-instance batch fleet. ---
    let fleet = fleet_machine();
    let cases = fleet_cases(&fleet);
    let per_case = 8usize;
    println!(
        "fleet: {per_case} instances each of {}",
        cases.iter().map(|c| c.name).collect::<Vec<_>>().join(", ")
    );
    let run_fleet = |threads: usize| -> BatchReport {
        let jobs = build_jobs(&cases, per_case, |_| exec_config());
        run_batch(
            &fleet,
            &jobs,
            &BatchOptions {
                threads,
                obs: obs.clone(),
            },
        )
        .expect("batch executes")
    };
    measurements.push(harness::time("batch32/plan+exec", warmup, iters, || {
        run_fleet(8)
    }));
    let batch = run_fleet(1);
    batch
        .schedule
        .validate()
        .unwrap_or_else(|e| panic!("batch schedule invalid: {e}"));
    let batch_speedup = speedup(batch.sequential_s, batch.makespan_s);
    println!(
        "batch32: sequential {}s, scheduled {}s ({batch_speedup:.2}x, {} instances, \
         {} unique DAGs, {} cache hits, fallback={})",
        batch.sequential_s,
        batch.makespan_s,
        batch.reports.len(),
        batch.unique_keys,
        batch.dag_cache_hits,
        batch.schedule.stats.fallback
    );
    for r in &batch.reports {
        assert_eq!(r.conservation_delta_pl(), 0, "batch conservation");
    }
    let digest1 = batch.digest;
    let digest2 = run_fleet(2).digest;
    let digest8 = run_fleet(8).digest;
    let threads_agree = digest1 == digest2 && digest1 == digest8;
    println!("thread digests: 1={digest1:016x} 2={digest2:016x} 8={digest8:016x}");
    extras.push((
        "batch_seq_s".into(),
        Extra::Num(batch.sequential_s.to_string()),
    ));
    extras.push((
        "batch_sched_s".into(),
        Extra::Num(batch.makespan_s.to_string()),
    ));
    extras.push((
        "batch_speedup".into(),
        Extra::Num(format!("{batch_speedup:.3}")),
    ));
    extras.push((
        "batch_instances".into(),
        Extra::Num(batch.reports.len().to_string()),
    ));
    extras.push((
        "batch_dag_cache_hits".into(),
        Extra::Num(batch.dag_cache_hits.to_string()),
    ));
    extras.push(("threads_agree".into(), Extra::Bool(threads_agree)));

    // --- Experiment 3: the fleet under faults, recovery on. ---
    let fault_jobs = build_jobs(&cases, per_case, |i| ExecConfig {
        faults: FaultPlan::uniform(0xBEEF ^ i as u64, 0.05),
        recover: true,
        ..exec_config()
    });
    let faulted = run_batch(
        &fleet,
        &fault_jobs,
        &BatchOptions {
            threads: 8,
            obs: obs.clone(),
        },
    )
    .expect("faulted batch executes");
    let fault_total: u64 = faulted.reports.iter().map(|r| r.faults.total()).sum();
    let recovered: u64 = faulted
        .reports
        .iter()
        .map(|r| r.recovery.total_recovered())
        .sum();
    let failures: u64 = faulted.reports.iter().map(|r| r.recovery.failures).sum();
    let fault_recovered = failures == 0 && fault_total > 0;
    println!(
        "batch32 @5% faults: {fault_total} faults, {recovered} recoveries, {failures} failures; \
         makespan {}s -> realized {}s ({} instrs re-timed)",
        faulted.makespan_s, faulted.realized_makespan_s, faulted.shifted_instrs
    );
    extras.push(("fault_total".into(), Extra::Num(fault_total.to_string())));
    extras.push(("fault_recoveries".into(), Extra::Num(recovered.to_string())));
    extras.push(("fault_recovered".into(), Extra::Bool(fault_recovered)));
    extras.push((
        "faulted_realized_makespan_s".into(),
        Extra::Num(faulted.realized_makespan_s.to_string()),
    ));
    extras.push((
        "faulted_shifted_instrs".into(),
        Extra::Num(faulted.shifted_instrs.to_string()),
    ));

    // --- Gates. ---
    let makespan_floor_ok = e10_sched <= e10_seq && batch.makespan_s <= batch.sequential_s;
    extras.push(("makespan_floor_ok".into(), Extra::Bool(makespan_floor_ok)));
    extras.push((
        "spills".into(),
        Extra::Num((sched.stats.spills + batch.schedule.stats.spills).to_string()),
    ));
    extras.push((
        "stalls".into(),
        Extra::Num((sched.stats.stalls + batch.schedule.stats.stalls).to_string()),
    ));
    // DAG size context for the plan-time rows.
    let dag = InstrDag::build(&out);
    extras.push(("enzyme10_instrs".into(), Extra::Num(dag.len.to_string())));
    extras.push((
        "enzyme10_episodes".into(),
        Extra::Num(dag.episodes.len().to_string()),
    ));
    harness::push_host_extras(&mut extras, &[("batch", 8)]);
    extras.push(("quick".into(), Extra::Bool(quick)));

    if !makespan_floor_ok {
        eprintln!("FAIL: a scheduled makespan exceeds its sequential baseline");
        ok = false;
    }
    if !threads_agree {
        eprintln!("FAIL: batch digests differ across thread counts");
        ok = false;
    }
    if !fault_recovered {
        eprintln!("FAIL: faulted batch left unrecovered shortfalls (or injected none)");
        ok = false;
    }
    if !quick {
        if e10_speedup < MIN_SPEEDUP {
            eprintln!("FAIL: enzyme10 speedup {e10_speedup:.2}x below {MIN_SPEEDUP}x");
            ok = false;
        }
        if batch_speedup < MIN_SPEEDUP {
            eprintln!("FAIL: batch speedup {batch_speedup:.2}x below {MIN_SPEEDUP}x");
            ok = false;
        }
    }

    for m in &measurements {
        harness::report(m);
    }
    let json = harness::to_json("bench_exec/v1", &measurements, &extras);
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
    if let Some((path, sink)) = obs_out {
        harness::write_obs_trace(&path, &sink);
    }
    if !ok {
        std::process::exit(1);
    }
}
