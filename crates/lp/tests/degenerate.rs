//! Regression tests for degenerate LPs under the sparse revised
//! simplex: highly degenerate vertices force zero-length ratio-test
//! steps, so these only terminate because stall detection switches
//! pricing to Bland's rule (smallest-index entering/leaving), which is
//! cycle-free. The dense tableau serves as the reference.

use aqua_lp::{solve, solve_dense, Model, Sense, SimplexConfig, SolveOutput, Status};

fn objective(label: &str, out: SolveOutput) -> f64 {
    match out.status {
        Status::Optimal(sol) => sol.objective,
        other => panic!("{label} not optimal: {other:?}"),
    }
}

fn sparse_objective(m: &Model) -> f64 {
    objective("sparse", solve(m))
}

fn dense_objective(m: &Model) -> f64 {
    objective("dense", solve_dense(m, &SimplexConfig::default()))
}

/// Beale's classic cycling example: Dantzig pricing with a naive tie
/// rule cycles forever at the (degenerate) origin. Optimum is 0.05.
#[test]
fn beale_cycling_example_terminates() {
    let mut m = Model::new(Sense::Minimize);
    let x1 = m.add_var("x1", 0.0, f64::INFINITY);
    let x2 = m.add_var("x2", 0.0, f64::INFINITY);
    let x3 = m.add_var("x3", 0.0, f64::INFINITY);
    let x4 = m.add_var("x4", 0.0, f64::INFINITY);
    m.set_objective([(x1, -0.75), (x2, 150.0), (x3, -0.02), (x4, 6.0)]);
    m.add_le("r1", [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
    m.add_le("r2", [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
    m.add_le("r3", [(x3, 1.0)], 1.0);
    for (label, obj) in [
        ("sparse", sparse_objective(&m)),
        ("dense", dense_objective(&m)),
    ] {
        assert!((obj - (-0.05)).abs() < 1e-9, "{label}: {obj}");
    }
}

/// A transportation-style LP with massively redundant equalities: every
/// basic feasible solution is degenerate. Both solvers must terminate
/// and agree.
#[test]
fn redundant_equalities_stay_finite_and_agree() {
    let mut m = Model::new(Sense::Minimize);
    let n = 6;
    let vars: Vec<_> = (0..n * n)
        .map(|i| m.add_var(format!("x{i}"), 0.0, f64::INFINITY))
        .collect();
    // Uniform supplies/demands of 1 make every vertex degenerate.
    for r in 0..n {
        let row: Vec<_> = (0..n).map(|c| (vars[r * n + c], 1.0)).collect();
        m.add_eq(format!("supply{r}"), row, 1.0);
    }
    for c in 0..n {
        let col: Vec<_> = (0..n).map(|r| (vars[r * n + c], 1.0)).collect();
        m.add_eq(format!("demand{c}"), col, 1.0);
    }
    // Costs with many ties to stress the pricing tie-breaks.
    let obj: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, ((i / n + i % n) % 3) as f64))
        .collect();
    m.set_objective(obj);
    let sparse = sparse_objective(&m);
    let dense = dense_objective(&m);
    assert!(
        (sparse - dense).abs() < 1e-6,
        "sparse {sparse} dense {dense}"
    );
    // n assignments, each of cost >= 0; the all-zero-cost diagonal
    // pattern (i/n + i%n ≡ 0 mod 3) cannot cover all rows, so the
    // optimum is small but positive and well below the worst cost 2n.
    assert!((0.0..=(2 * n) as f64).contains(&sparse));
}

/// Degenerate rows (zero right-hand sides) pin the phase-1 optimum to a
/// vertex where many basics are at value 0; the revised simplex must
/// still leave phase 1 cleanly and reach the same optimum as the dense
/// tableau.
#[test]
fn zero_rhs_degeneracy_matches_dense() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var("x", 0.0, 10.0);
    let y = m.add_var("y", 0.0, 10.0);
    let z = m.add_var("z", 0.0, 10.0);
    m.set_objective([(x, 1.0), (y, 1.0), (z, 1.0)]);
    // All constraints active at the origin.
    m.add_le("a", [(x, 1.0), (y, -1.0)], 0.0);
    m.add_le("b", [(y, 1.0), (z, -1.0)], 0.0);
    m.add_le("c", [(x, 1.0), (y, 1.0), (z, -2.0)], 0.0);
    m.add_le("cap", [(x, 1.0), (y, 1.0), (z, 1.0)], 9.0);
    let sparse = sparse_objective(&m);
    let dense = dense_objective(&m);
    assert!((sparse - dense).abs() < 1e-9);
    assert!((sparse - 9.0).abs() < 1e-9, "x=y=z=3 is optimal: {sparse}");
}
