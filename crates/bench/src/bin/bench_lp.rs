//! Times the LP solver's sparse revised simplex against the dense
//! tableau oracle on the paper's assays, and writes the results to
//! `BENCH_lp.json` at the repo root.
//!
//! Usage: `cargo run --release --bin bench_lp [--quick] [--out PATH]
//! [--obs TRACE_PATH]`
//!
//! `--obs` attaches a recording observability sink: pivot/eta-refactor
//! counters and phase spans from every sparse solve are exported as a
//! Chrome trace-event JSON (load it at `chrome://tracing` or Perfetto)
//! and a text summary is printed at exit.
//!
//! Four cases are measured, each as formulated by `lpform` (glycomics
//! is solved per partition, like the paper's four-partition runs):
//! the Figure 2 running example, Glucose, Glycomics, and Enzyme10.
//! Every case is solved once per solver outside the timed region to
//! check agreement (identical status, |Δobjective| <= 1e-6), then
//! timed with warmup + N iterations (median/p95, see `harness`).
//!
//! The `bench_lp/v3` schema records per case `*_agree`, `*_max_dobj`,
//! `*_lp_status`, `*_pivots` (sparse simplex iterations under the
//! default devex pricing) and `*_speedup` (dense median over sparse
//! median), plus `host_cpus` and `agree_all`. `enzyme10_lp_status`
//! records that the raw enzyme10 RVol LP is *expectedly* infeasible:
//! the extreme dilution chain outruns the machine span, which is
//! exactly what triggers the paper's Fig. 6 cascade/replication
//! escalation (pinned in tests/paper_numbers.rs).
//!
//! `--quick` drops iteration counts to a smoke-test level for CI; use
//! the default mode to regenerate the committed `BENCH_lp.json`.

use aqua_bench::harness::{self, Extra, Measurement};
use aqua_bench::{benchmark_dag, Benchmark};
use aqua_lp::{solve_dense, solve_with, Model, SimplexConfig, SolveOutput, Status};
use aqua_volume::lpform::{self, LpOptions};
use aqua_volume::{unknown, Machine};

/// Objective agreement tolerance between the two solvers.
const OBJ_TOL: f64 = 1e-6;

struct Case {
    name: &'static str,
    /// One model per partition (a single entry for unpartitioned assays).
    models: Vec<Model>,
}

#[derive(Clone, Copy)]
enum Solver {
    Sparse,
    Dense,
}

/// Solves every model of a case with one solver; returns per-model
/// (status kind, objective, pivots) where the objective is NaN unless
/// optimal.
fn solve_case(
    case: &Case,
    solver: Solver,
    config: &SimplexConfig,
) -> Vec<(&'static str, f64, u64)> {
    case.models
        .iter()
        .map(|m| {
            let SolveOutput { status, stats } = match solver {
                Solver::Sparse => solve_with(m, config),
                Solver::Dense => solve_dense(m, config),
            };
            let (kind, obj) = match status {
                Status::Optimal(sol) => ("optimal", sol.objective),
                Status::Infeasible => ("infeasible", f64::NAN),
                Status::Unbounded => ("unbounded", f64::NAN),
                Status::IterationLimit => ("iteration-limit", f64::NAN),
            };
            (kind, obj, stats.iterations)
        })
        .collect()
}

/// Largest |Δobjective| across a case's models, or None if the two
/// solvers disagree on any model's status.
fn agreement(
    sparse: &[(&'static str, f64, u64)],
    dense: &[(&'static str, f64, u64)],
) -> Option<f64> {
    let mut max_delta = 0.0f64;
    for (s, d) in sparse.iter().zip(dense) {
        if s.0 != d.0 {
            return None;
        }
        if s.0 == "optimal" {
            max_delta = max_delta.max((s.1 - d.1).abs());
        }
    }
    Some(max_delta)
}

fn build_case(name: &'static str, dag: &aqua_dag::Dag, machine: &Machine) -> Case {
    let opts = LpOptions::rvol();
    let models = if unknown::has_unknown_volumes(dag) {
        let plan = unknown::partition(dag, machine).expect("benchmark partitions");
        plan.partitions
            .iter()
            .map(|part| lpform::build(&part.dag, machine, &opts).model)
            .collect()
    } else {
        vec![lpform::build(dag, machine, &opts).model]
    };
    Case { name, models }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(pos) => args.get(pos + 1).cloned().unwrap_or_else(|| {
            // Refuse to fall back silently: the default path is the
            // committed BENCH_lp.json, which a typo'd --out would clobber.
            eprintln!("error: --out requires a path");
            std::process::exit(2);
        }),
        None => concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp.json").to_owned(),
    };
    // With --obs PATH, every timed solve reports pivot counts and
    // phase spans into a Chrome trace written at exit.
    let (obs, obs_out) = harness::obs_from_args(&args);

    let machine = Machine::paper_default();
    let cases = vec![
        build_case("fig2", &aqua_assays::figure2::dag().0, &machine),
        build_case("glucose", &benchmark_dag(Benchmark::Glucose), &machine),
        build_case("glycomics", &benchmark_dag(Benchmark::Glycomics), &machine),
        build_case("enzyme10", &benchmark_dag(Benchmark::EnzymeN(10)), &machine),
    ];

    let config = SimplexConfig {
        obs,
        ..SimplexConfig::default()
    };
    println!(
        "bench_lp: sparse vs dense simplex ({} mode)\n",
        if quick { "quick" } else { "full" }
    );

    let mut measurements: Vec<Measurement> = Vec::new();
    let mut extras: Vec<(String, Extra)> = vec![("quick".into(), Extra::Bool(quick))];
    let mut agree_all = true;

    for case in &cases {
        // Reference solves (untimed) for the agreement check.
        let ref_sparse = solve_case(case, Solver::Sparse, &config);
        let ref_dense = solve_case(case, Solver::Dense, &config);
        let delta = agreement(&ref_sparse, &ref_dense);
        let agree = delta.is_some_and(|d| d <= OBJ_TOL);
        agree_all &= agree;
        match delta {
            Some(d) => println!(
                "{:<12} status {} x{}, max |dObj| = {:.2e} ({})",
                case.name,
                ref_sparse[0].0,
                case.models.len(),
                d,
                if agree { "agree" } else { "DISAGREE" }
            ),
            None => println!("{:<12} solvers DISAGREE on status", case.name),
        }
        extras.push((format!("{}_agree", case.name), Extra::Bool(agree)));
        if let Some(d) = delta {
            extras.push((
                format!("{}_max_dobj", case.name),
                Extra::Num(format!("{d:e}")),
            ));
        }
        // `*_lp_status`: the status of the *raw LP formulation*.
        // Enzyme10's is expectedly "infeasible" — the signal that sends
        // the hierarchy into the Fig. 6 cascade/replication escalation,
        // not a solver failure.
        extras.push((
            format!("{}_lp_status", case.name),
            Extra::Str(ref_sparse.iter().map(|s| s.0).collect::<Vec<_>>().join(",")),
        ));
        let pivots: u64 = ref_sparse.iter().map(|s| s.2).sum();
        extras.push((
            format!("{}_pivots", case.name),
            Extra::Num(pivots.to_string()),
        ));

        let mut medians = [0u128; 2];
        for (slot, solver, sname) in [
            (0usize, Solver::Sparse, "sparse"),
            (1, Solver::Dense, "dense"),
        ] {
            let (warmup, iters) = iteration_plan(case.name, solver, quick);
            // The small cases solve in single-digit microseconds —
            // below the resolution a busy host can time one call at.
            // Batch `reps` solves per timed iteration and normalize, so
            // each sample is comfortably above timer/scheduler noise;
            // solver ratios are unaffected (both share the batching).
            let reps: u128 = if case.name == "enzyme10" { 1 } else { 32 };
            let label = format!("{}/{sname}", case.name);
            let mut m = harness::time(&label, warmup, iters, || {
                for _ in 1..reps {
                    std::hint::black_box(solve_case(case, solver, &config));
                }
                solve_case(case, solver, &config)
            });
            m.min_ns /= reps;
            m.mean_ns /= reps;
            m.median_ns /= reps;
            m.p95_ns /= reps;
            harness::report(&m);
            medians[slot] = m.median_ns;
            measurements.push(m);
        }
        let speedup = medians[1] as f64 / medians[0].max(1) as f64;
        println!("{:<12} sparse speedup: {speedup:.2}x\n", case.name);
        extras.push((
            format!("{}_speedup", case.name),
            Extra::Num(format!("{speedup:.3}")),
        ));
    }

    // `host_cpus` qualifies every timing: all solves run on one thread.
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    extras.push(("host_cpus".into(), Extra::Num(host_cpus.to_string())));
    extras.push(("agree_all".into(), Extra::Bool(agree_all)));
    let json = harness::to_json("bench_lp/v3", &measurements, &extras);
    std::fs::write(&out_path, &json).expect("write BENCH_lp.json");
    println!("wrote {out_path}");
    if let Some((path, sink)) = obs_out {
        harness::write_obs_trace(&path, &sink);
    }
    if !agree_all {
        eprintln!("error: sparse/dense disagreement (see above)");
        std::process::exit(1);
    }
}

/// (warmup, timed iterations) per case and solver.
///
/// Enzyme10 is the expensive case (~1 s per dense solve; the paper's
/// Enzyme10 LP took >20 minutes on its hardware), so it gets fewer
/// iterations; everything else is microseconds and gets a proper
/// median over several runs.
fn iteration_plan(case: &str, solver: Solver, quick: bool) -> (usize, usize) {
    let slow = case == "enzyme10";
    match (slow, solver, quick) {
        (true, Solver::Dense, true) => (0, 1),
        (true, Solver::Sparse, true) => (0, 2),
        (true, Solver::Dense, false) => (1, 3),
        (true, Solver::Sparse, false) => (1, 5),
        // The small cases are microseconds each: lots of iterations are
        // nearly free and keep the min/median stable on noisy hosts.
        (false, _, true) => (2, 25),
        (false, _, false) => (3, 51),
    }
}
