//! Emits `BENCH_obs.json`: per-phase wall time and operation counts
//! for the paper's four assays, recorded through the `aqua-obs`
//! observability layer rather than ad-hoc timers.
//!
//! Usage: `cargo run --release --bin bench_obs [--quick] [--out PATH]`
//!
//! Each case (the Figure 2 running example, Glucose, Glycomics, and
//! Enzyme10 on a 128-reservoir machine) gets its own recording sink
//! and exercises every instrumented layer:
//!
//! 1. compile with volume management (`compile.*` / `vol.*` spans,
//!    `vol.vnorm_passes` and rewrite counters),
//! 2. one explicit LP solve of the assay's formulation (`lp.*` spans,
//!    `lp.pivots` / `lp.eta_refactors`; per partition when volumes are
//!    unknown, like the paper's glycomics runs),
//! 3. a budgeted ILP solve on the small assays (`ilp.solve` span,
//!    `ilp.nodes`); LP solves also record `lp.backend_chosen.sparse`
//!    and the `lp.pricing.*` devex bookkeeping counters,
//! 4. a fault-free execution plus a few faulty executions with the
//!    recovery ladder on (`sim.run` span, `sim.instructions`,
//!    `sim.faults`, `sim.recover.*` tier counters).
//!
//! The aggregated [`aqua_obs::export::ObsReport`] of each case is
//! embedded in one `bench_obs/v1` JSON document (schema documented in
//! EXPERIMENTS.md). `--quick` shrinks the faulty-seed count for CI.

use std::fmt::Write as _;

use aqua_bench::{benchmark_dag, Benchmark};
use aqua_lp::{solve_ilp, solve_with, IlpConfig, SimplexConfig, Status};
use aqua_obs::export::ObsReport;
use aqua_sim::{ExecConfig, Executor, FaultPlan};
use aqua_volume::lpform::{self, LpOptions};
use aqua_volume::{unknown, Machine, VolumeManagerOptions};

struct CaseSpec {
    name: &'static str,
    source: String,
    machine: Machine,
    /// Whether to also run the budgeted ILP (skipped for the large
    /// assays, where even the budget check costs minutes).
    ilp: bool,
}

/// One explicit LP solve through the instrumented solver (per
/// partition when the assay has unknown volumes). Returns whether all
/// partitions were feasible.
fn lp_solve(dag: &aqua_dag::Dag, machine: &Machine, obs: &aqua_obs::Obs) -> bool {
    let config = SimplexConfig {
        obs: obs.clone(),
        ..SimplexConfig::default()
    };
    let opts = LpOptions::rvol();
    if unknown::has_unknown_volumes(dag) {
        let Ok(plan) = unknown::partition(dag, machine) else {
            return false;
        };
        plan.partitions.iter().all(|part| {
            let form = lpform::build(&part.dag, machine, &opts);
            matches!(solve_with(&form.model, &config).status, Status::Optimal(_))
        })
    } else {
        let form = lpform::build(dag, machine, &opts);
        matches!(solve_with(&form.model, &config).status, Status::Optimal(_))
    }
}

/// Budgeted integer solve so `ilp.nodes` appears in the report. The
/// budget mirrors the `ilp_vs_lp` binary's: the point is the count,
/// not proven optimality.
fn ilp_solve(dag: &aqua_dag::Dag, machine: &Machine, obs: &aqua_obs::Obs, quick: bool) {
    let form = lpform::build(dag, machine, &LpOptions::ivol());
    let config = IlpConfig {
        max_nodes: if quick { 200 } else { 2_000 },
        time_budget: std::time::Duration::from_secs(if quick { 2 } else { 10 }),
        simplex: SimplexConfig {
            obs: obs.clone(),
            ..SimplexConfig::default()
        },
        ..IlpConfig::default()
    };
    let _ = solve_ilp(&form.model, &config);
}

fn run_case(spec: &CaseSpec, quick: bool) -> ObsReport {
    let (obs, sink) = aqua_obs::Obs::recording();

    // Compile with the obs handle threaded through the hierarchy.
    let opts = aqua_compiler::CompileOptions {
        volume: VolumeManagerOptions {
            obs: obs.clone(),
            ..VolumeManagerOptions::default()
        },
        ..aqua_compiler::CompileOptions::default()
    };
    let out = aqua_compiler::compile(&spec.source, &spec.machine, &opts)
        .unwrap_or_else(|e| panic!("{} failed to compile: {e}", spec.name));

    // Explicit LP (and, for the small assays, budgeted ILP) solves so
    // pivot and branch-and-bound counters are populated even when
    // DAGSolve alone managed the volumes.
    let dag = if spec.name == "fig2" {
        aqua_assays::figure2::dag().0
    } else {
        benchmark_dag(match spec.name {
            "glucose" => Benchmark::Glucose,
            "glycomics" => Benchmark::Glycomics,
            _ => Benchmark::EnzymeN(10),
        })
    };
    lp_solve(&dag, &spec.machine, &obs);
    if spec.ilp {
        ilp_solve(&dag, &spec.machine, &obs, quick);
    }

    // Fault-free execution, then faulty executions with recovery so
    // the per-tier ladder counters are exercised.
    let clean = Executor::new(
        &spec.machine,
        ExecConfig {
            obs: obs.clone(),
            ..ExecConfig::default()
        },
    )
    .run(&out)
    .unwrap_or_else(|e| panic!("{} failed fault-free: {e}", spec.name));
    assert_eq!(
        clean.conservation_delta_pl(),
        0,
        "{}: volume not conserved",
        spec.name
    );
    let seeds: u64 = if quick { 2 } else { 5 };
    for seed in 0..seeds {
        let config = ExecConfig {
            faults: FaultPlan::uniform(seed + 1, 0.10),
            recover: true,
            obs: obs.clone(),
            ..ExecConfig::default()
        };
        Executor::new(&spec.machine, config)
            .run(&out)
            .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", spec.name));
    }

    ObsReport::from_sink(&sink)
}

/// Counters the acceptance criteria require per case; missing ones
/// fail the run loudly rather than shipping a hollow report.
const REQUIRED_COUNTERS: &[&str] = &[
    "lp.pivots",
    "lp.backend_chosen.sparse",
    "vol.vnorm_passes",
    "sim.instructions",
];

fn check_report(name: &str, report: &ObsReport) {
    assert!(!report.is_empty(), "{name}: empty obs report");
    for c in REQUIRED_COUNTERS {
        assert!(
            report.counters.iter().any(|(k, v)| k == c && *v > 0),
            "{name}: required counter {c} missing or zero"
        );
    }
    assert!(
        !report.phases.is_empty(),
        "{name}: no phase wall times recorded"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(pos) => args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --out requires a path");
            std::process::exit(2);
        }),
        None => concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json").to_owned(),
    };

    let default = Machine::paper_default();
    let big = Machine::paper_default()
        .with_reservoirs(128)
        .with_input_ports(64);
    let specs = [
        CaseSpec {
            name: "fig2",
            source: aqua_assays::figure2::SOURCE.to_owned(),
            machine: default.clone(),
            ilp: true,
        },
        CaseSpec {
            name: "glucose",
            source: Benchmark::Glucose.source(),
            machine: default.clone(),
            ilp: true,
        },
        CaseSpec {
            name: "glycomics",
            source: Benchmark::Glycomics.source(),
            machine: default.clone(),
            ilp: false,
        },
        CaseSpec {
            name: "enzyme10",
            source: Benchmark::EnzymeN(10).source(),
            machine: big,
            ilp: false,
        },
    ];

    println!(
        "bench_obs: per-phase wall time + op counts ({} mode)\n",
        if quick { "quick" } else { "full" }
    );

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"bench_obs/v1\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    // The ILP case solves relaxations on two workers (see `ilp_solve`).
    out.push_str("  \"ilp_threads\": 2,\n");
    out.push_str("  \"cases\": {\n");
    for (i, spec) in specs.iter().enumerate() {
        let report = run_case(spec, quick);
        check_report(spec.name, &report);
        println!("=== {} ===", spec.name);
        for p in &report.phases {
            println!("  {:<24} x{:<5} {} ns", p.name, p.count, p.total_ns);
        }
        for (k, v) in &report.counters {
            println!("  {k:<24} {v}");
        }
        println!();
        let _ = write!(out, "    \"{}\": {}", spec.name, report.to_json());
        out.push_str(if i + 1 < specs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");

    std::fs::write(&out_path, &out).expect("write BENCH_obs.json");
    println!("wrote {out_path}");
}
