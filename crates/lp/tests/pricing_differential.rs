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
//!
//! The default solve also meets three properties that need no oracle:
//! an LP a witness point satisfies solves to optimal, no worse than the
//! witness; lowering its right-hand sides never improves the optimum;
//! and variables pinned by equality rows come back exactly.

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

/// A maximization that a witness point satisfies by construction: 2–5
/// variables in `[0, ub]`, ub in [6, 20), and 1–5 rows `row · x <= row
/// · witness + slack`, witness in [0, 5)^n. Returns the model and the
/// witness's objective value; the draws do not depend on `slack`.
fn witnessed_lp(seed: u64, slack: f64) -> (Model, f64) {
    let mut rng = XorShift64Star::new(seed);
    let n = 2 + rng.index(4);
    let witness: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 5.0)).collect();
    let costs: Vec<f64> = (0..n).map(|_| rng.range_f64(-3.0, 3.0)).collect();
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("x{i}"), 0.0, rng.range_f64(6.0, 20.0)))
        .collect();
    m.set_objective(vars.iter().copied().zip(costs.iter().copied()));
    for r in 0..1 + rng.index(5) {
        let row: Vec<f64> = (0..n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let rhs = row.iter().zip(&witness).map(|(c, w)| c * w).sum::<f64>() + slack;
        m.add_le(format!("r{r}"), vars.iter().copied().zip(row), rhs);
    }
    let witness_obj = witness.iter().zip(&costs).map(|(x, c)| x * c).sum();
    (m, witness_obj)
}

#[test]
fn feasible_by_construction_lps_solve_to_optimal() {
    for seed in 0..128u64 {
        let (m, witness_obj) = witnessed_lp(seed, 0.5);
        let out = aqua_lp::solve(&m);
        let Status::Optimal(sol) = &out.status else {
            panic!("seed {seed}: not optimal: {:?}", out.status);
        };
        assert!(
            sol.is_feasible_for(&m, 1e-5),
            "seed {seed}: infeasible point"
        );
        assert!(
            sol.objective >= witness_obj - 1e-5,
            "seed {seed}: solver {} < witness {witness_obj}",
            sol.objective
        );
    }
}

#[test]
fn tightening_rhs_never_improves_objective() {
    for seed in 0..128u64 {
        let (loose, tight) = (witnessed_lp(seed, 0.5).0, witnessed_lp(seed, 0.25).0);
        let (a, b) = (aqua_lp::solve(&loose).status, aqua_lp::solve(&tight).status);
        if let (Status::Optimal(a), Status::Optimal(b)) = (a, b) {
            assert!(
                b.objective <= a.objective + 1e-5,
                "seed {seed}: tightened LP improved"
            );
        }
    }
}

#[test]
fn equality_pinned_models_round_trip() {
    for seed in 0..128u64 {
        let mut rng = XorShift64Star::new(seed);
        let vals: Vec<f64> = (0..1 + rng.index(4))
            .map(|_| rng.range_f64(0.1, 10.0))
            .collect();
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..vals.len())
            .map(|i| m.add_var(format!("x{i}"), 0.0, f64::INFINITY))
            .collect();
        m.set_objective(vars.iter().map(|&v| (v, 1.0)));
        for (i, (&v, &val)) in vars.iter().zip(&vals).enumerate() {
            m.add_eq(format!("pin{i}"), [(v, 2.0)], 2.0 * val);
        }
        let out = aqua_lp::solve(&m);
        let sol = out.status.solution().expect("pinned model is feasible");
        for (&v, &val) in vars.iter().zip(&vals) {
            assert!((sol.value(v) - val).abs() < 1e-6, "seed {seed}: {v:?}");
        }
    }
}
