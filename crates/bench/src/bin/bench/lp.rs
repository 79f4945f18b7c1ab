//! The sparse revised simplex against the dense tableau oracle on five
//! RVol formulations on the paper machine: the Figure 2 running example,
//! Glucose, Glycomics (one model per partition, like the paper's
//! four-partition runs), Enzyme10, and Enzyme4 after its Fig. 6
//! rewrites.
//!
//! Rows `{assay}/paper/lp-sparse` and `lp-dense` (`rewritten-lp-*` for
//! the rewritten Enzyme4) carry each solver's LP status, one per model.
//! Enzyme10's raw LP is expectedly `infeasible`: its dilution chain
//! outruns the machine span, which is what sends the hierarchy into the
//! Fig. 6 escalation, and the hierarchy's exact precheck proves it
//! without the simplex, so that row times an LP the compiler never
//! solves. The rewritten Enzyme4 LP is one it does solve (plan status
//! `solved/LP (after rewrites)`; its pivots are pinned in
//! `tests/lp_differential.rs`).
//!
//! Gate `lp_agree`: on every case both solvers return the same status
//! per model and objectives within 1e-6.

use aqua_bench::harness::sample;
use aqua_bench::{benchmark_dag, Benchmark};
use aqua_lp::{solve_dense, solve_with, Model, SimplexConfig, Status};
use aqua_volume::lpform::{self, LpOptions};
use aqua_volume::{manage_volumes, unknown, Machine, ManagedOutcome, Method, VolumeManagerOptions};

use crate::Bench;

/// Objective agreement tolerance between the two solvers.
const OBJ_TOL: f64 = 1e-6;

type Solve = fn(&Model, &SimplexConfig) -> aqua_lp::SolveOutput;

pub(crate) fn run(b: &mut Bench) {
    let machine = Machine::paper_default();
    let cases = [
        (
            "fig2",
            "lp",
            models(&aqua_assays::figure2::dag().0, &machine),
        ),
        (
            "glucose",
            "lp",
            models(&benchmark_dag(Benchmark::Glucose), &machine),
        ),
        (
            "glycomics",
            "lp",
            models(&benchmark_dag(Benchmark::Glycomics), &machine),
        ),
        (
            "enzyme10",
            "lp",
            models(&benchmark_dag(Benchmark::EnzymeN(10)), &machine),
        ),
        (
            "enzyme4",
            "rewritten-lp",
            models(&rewritten_dag(4, &machine), &machine),
        ),
    ];
    let config = SimplexConfig {
        obs: b.obs.clone(),
        ..SimplexConfig::default()
    };
    let mut agree = true;
    for (assay, path, models) in &cases {
        // Untimed reference solves for the agreement check.
        let sparse = solve_all(models, solve_with, &config);
        let dense = solve_all(models, solve_dense, &config);
        agree &= sparse.len() == dense.len()
            && sparse
                .iter()
                .zip(&dense)
                .all(|(s, d)| s.0 == d.0 && (s.0 != "optimal" || (s.1 - d.1).abs() <= OBJ_TOL));
        // The enzyme cases take milliseconds sparse and about a second
        // dense; the rest solve in microseconds, below what a busy host
        // can time one call at, so each sample batches `reps` solves.
        let slow = assay.starts_with("enzyme");
        let reps: u128 = if slow { 1 } else { 32 };
        // (warmup, timed iterations) with --quick, then in full mode.
        for (name, solve, reference, slow_plans) in [
            ("sparse", solve_with as Solve, &sparse, [(0, 2), (1, 5)]),
            ("dense", solve_dense as Solve, &dense, [(0, 1), (1, 3)]),
        ] {
            let plans = if slow { slow_plans } else { [(2, 25), (3, 51)] };
            let (warmup, iters) = plans[usize::from(!b.quick())];
            let mut samples = sample(warmup, iters, || {
                for _ in 1..reps {
                    std::hint::black_box(solve_all(models, solve, &config));
                }
                solve_all(models, solve, &config)
            });
            for s in &mut samples {
                *s /= reps;
            }
            let status: Vec<&str> = reference.iter().map(|s| s.0).collect();
            b.report.row(
                format!("{assay}/paper/{path}-{name}"),
                &status.join(","),
                &samples,
            );
        }
    }
    b.report.holds("lp_agree", agree);
}

/// The RVol models of a DAG: one per partition when volumes are unknown.
fn models(dag: &aqua_dag::Dag, machine: &Machine) -> Vec<Model> {
    let opts = LpOptions::rvol();
    if unknown::has_unknown_volumes(dag) {
        let plan = unknown::partition(dag, machine).expect("benchmark partitions");
        plan.partitions
            .iter()
            .map(|part| lpform::build(&part.dag, machine, &opts).model)
            .collect()
    } else {
        vec![lpform::build(dag, machine, &opts).model]
    }
}

/// Solves every model with one solver: (status, objective or NaN).
fn solve_all(models: &[Model], solve: Solve, config: &SimplexConfig) -> Vec<(&'static str, f64)> {
    models
        .iter()
        .map(|m| match solve(m, config).status {
            Status::Optimal(sol) => ("optimal", sol.objective),
            Status::Infeasible => ("infeasible", f64::NAN),
            Status::Unbounded => ("unbounded", f64::NAN),
            Status::IterationLimit => ("iteration-limit", f64::NAN),
        })
        .collect()
}

/// The DAG whose LP solution the Fig. 6 hierarchy accepts for the
/// enzyme assay with `n` dilutions: the original DAG after every
/// cascade and replication the hierarchy applied.
fn rewritten_dag(n: u32, machine: &Machine) -> aqua_dag::Dag {
    let dag = benchmark_dag(Benchmark::EnzymeN(n));
    match manage_volumes(&dag, machine, &VolumeManagerOptions::default()) {
        ManagedOutcome::Solved { dag, volumes, .. }
            if volumes.method == Method::LpAfterRewrites =>
        {
            dag
        }
        other => panic!("enzyme{n} no longer solves by LP after rewrites: {other:?}"),
    }
}
