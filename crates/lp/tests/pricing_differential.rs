//! Seeded differential tests for the pricing rules.
//!
//! The sparse revised simplex defaults to devex pricing with a
//! candidate-list scan; the dense tableau ([`aqua_lp::solve_dense`])
//! keeps pure Dantzig pricing as the differential oracle. Pricing picks the *path* across vertices,
//! not the destination: every rule must land on the same optimal
//! objective (alternative optima permitting, which is why comparisons
//! are on objectives within 1e-6 and on status classes, never on raw
//! vertex coordinates). The generator is a fixed-seed xorshift so every
//! run and every machine sees the same model family.

use aqua_lp::{
    solve_dense, solve_with, Model, PricingRule, Sense, SimplexConfig, SolveOutput, Status,
};
use aqua_rational::rng::XorShift64Star;

/// A random bounded LP: finite variable bounds guarantee the objective
/// is bounded, so the only status split is Optimal vs Infeasible — and
/// both solvers must agree on which.
fn random_model(seed: u64) -> Model {
    let mut rng = XorShift64Star::new(seed);
    let nvars = 4 + rng.index(12);
    let ncons = 3 + rng.index(10);
    let sense = if rng.next_f64() < 0.5 {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(sense);
    let vars: Vec<_> = (0..nvars)
        .map(|i| {
            let lb = if rng.next_f64() < 0.25 {
                -(rng.next_f64() * 5.0)
            } else {
                0.0
            };
            m.add_var(format!("x{i}"), lb, lb + 1.0 + rng.next_f64() * 9.0)
        })
        .collect();
    let mut obj = Vec::new();
    for &v in &vars {
        if rng.next_f64() < 0.8 {
            obj.push((v, (rng.next_f64() - 0.4) * 10.0));
        }
    }
    m.set_objective(obj);
    for c in 0..ncons {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.next_f64() < 0.5 {
                terms.push((v, (rng.next_f64() - 0.3) * 4.0));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let rhs = (rng.next_f64() - 0.2) * 20.0;
        match rng.index(4) {
            0 => m.add_ge(format!("c{c}"), terms, rhs),
            1 => m.add_eq(format!("c{c}"), terms, rhs * 0.3),
            _ => m.add_le(format!("c{c}"), terms, rhs),
        };
    }
    m
}

fn solve(m: &Model, pricing: PricingRule) -> SolveOutput {
    solve_with(
        m,
        &SimplexConfig {
            pricing,
            ..SimplexConfig::default()
        },
    )
}

/// Statuses must match by class; optimal objectives within `tol`.
fn assert_agree(seed: u64, label: &str, a: &SolveOutput, b: &SolveOutput, tol: f64) {
    match (&a.status, &b.status) {
        (Status::Optimal(sa), Status::Optimal(sb)) => {
            let scale = 1.0 + sa.objective.abs();
            assert!(
                (sa.objective - sb.objective).abs() / scale < tol,
                "seed {seed} {label}: objectives diverge: {} vs {}",
                sa.objective,
                sb.objective
            );
        }
        (Status::Infeasible, Status::Infeasible) => {}
        other => panic!("seed {seed} {label}: status split {other:?}"),
    }
}

/// Devex + candidate-list pricing must reach the same optimum as the
/// Dantzig rule on the same (sparse) solver, across a seeded family.
#[test]
fn devex_matches_dantzig_on_sparse() {
    for seed in 0..120u64 {
        let m = random_model(seed);
        let devex = solve(&m, PricingRule::Devex);
        let dantzig = solve(&m, PricingRule::Dantzig);
        assert_agree(seed, "devex vs dantzig", &devex, &dantzig, 1e-6);
    }
}

/// The default configuration (sparse solver, devex pricing) must agree
/// with the dense Dantzig tableau — the end-to-end oracle check.
#[test]
fn default_config_matches_dense_oracle() {
    for seed in 0..120u64 {
        let m = random_model(seed);
        let sparse = solve_with(&m, &SimplexConfig::default());
        let dense = solve_dense(&m, &SimplexConfig::default());
        assert_agree(seed, "sparse vs dense", &sparse, &dense, 1e-6);
    }
}
