//! Micro-benchmarks of the LP substrate itself: the two-phase bounded
//! simplex on random dense LPs of growing size, on both the sparse
//! revised simplex (the solver) and the dense tableau (its oracle).
//!
//! Uses the in-repo harness (`aqua_bench::harness`) instead of
//! criterion, which is unavailable offline.

use aqua_bench::harness::{report, time};
use aqua_lp::{solve_dense, solve_with, Model, Sense, SimplexConfig, SolveOutput};
use aqua_rational::rng::XorShift64Star;
use std::hint::black_box;

/// Feasible-by-construction random LP (witness at the origin + slack).
fn random_lp(seed: u64, nvars: usize, nrows: usize) -> Model {
    let mut rng = XorShift64Star::new(seed);
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..nvars)
        .map(|i| m.add_var(format!("x{i}"), 0.0, 50.0))
        .collect();
    let costs: Vec<_> = vars
        .iter()
        .map(|&v| (v, rng.range_f64(-1.0, 2.0)))
        .collect();
    m.set_objective(costs);
    for r in 0..nrows {
        let terms: Vec<_> = vars
            .iter()
            .map(|&v| (v, rng.range_f64(-1.0, 2.0)))
            .collect();
        let rhs = rng.range_f64(5.0, 50.0);
        m.add_le(format!("r{r}"), terms, rhs);
    }
    m
}

type Solve = fn(&Model, &SimplexConfig) -> SolveOutput;

fn main() {
    for (nvars, nrows) in [(10, 10), (40, 40), (100, 100), (200, 150)] {
        let model = random_lp(7, nvars, nrows);
        for (name, solve) in [("Sparse", solve_with as Solve), ("Dense", solve_dense)] {
            let config = SimplexConfig::default();
            let m = time(&format!("simplex/{name}/{nvars}v_{nrows}r"), 2, 10, || {
                black_box(solve(black_box(&model), &config))
            });
            report(&m);
        }
    }
}
