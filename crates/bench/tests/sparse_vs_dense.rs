//! Differential tests: the sparse revised simplex must agree with the
//! dense tableau oracle on every assay formulation and on a battery of
//! seeded random models.
//!
//! Agreement means identical status, objectives within 1e-6, and a
//! primal-feasible solution (bounds + constraints within tolerance).

use aqua_bench::{benchmark_dag, Benchmark};
use aqua_lp::{solve_dense, solve_with, Model, SimplexConfig, Status};
use aqua_rational::rng::XorShift64Star;
use aqua_volume::lpform::{self, LpOptions};
use aqua_volume::{unknown, Machine};

const OBJ_TOL: f64 = 1e-6;
const FEAS_TOL: f64 = 1e-6;

/// Asserts the point satisfies every bound and constraint of `model`.
fn assert_feasible(model: &Model, values: &[f64], context: &str) {
    for var in model.var_ids() {
        let (lb, ub) = model.var_bounds(var);
        let v = values[var.index()];
        assert!(
            v >= lb - FEAS_TOL && v <= ub + FEAS_TOL,
            "{context}: var {var} = {v} outside [{lb}, {ub}]"
        );
    }
    for c in model.constraints() {
        let lhs = c.expr.eval(values);
        let ok = match c.sense {
            aqua_lp::ConstraintSense::Le => lhs <= c.rhs + FEAS_TOL,
            aqua_lp::ConstraintSense::Ge => lhs >= c.rhs - FEAS_TOL,
            aqua_lp::ConstraintSense::Eq => (lhs - c.rhs).abs() <= FEAS_TOL,
        };
        assert!(
            ok,
            "{context}: constraint '{}' violated: {lhs} vs {} {:?}",
            c.name, c.rhs, c.sense
        );
    }
}

/// Solves with both solvers and checks full agreement.
fn differential(model: &Model, context: &str) {
    let sparse = solve_with(model, &SimplexConfig::default()).status;
    let dense = solve_dense(model, &SimplexConfig::default()).status;
    match (&sparse, &dense) {
        (Status::Optimal(s), Status::Optimal(d)) => {
            assert!(
                (s.objective - d.objective).abs() <= OBJ_TOL,
                "{context}: objectives differ: sparse {} vs dense {}",
                s.objective,
                d.objective
            );
            assert_feasible(model, &s.values, &format!("{context} (sparse)"));
            assert_feasible(model, &d.values, &format!("{context} (dense)"));
        }
        (Status::Infeasible, Status::Infeasible) => {}
        (Status::Unbounded, Status::Unbounded) => {}
        (s, d) => panic!("{context}: status mismatch: sparse {s:?} vs dense {d:?}"),
    }
}

/// Every LP model an assay formulates (one per partition for assays
/// with run-time-unknown volumes).
fn assay_models(bench: Benchmark, machine: &Machine) -> Vec<Model> {
    let dag = benchmark_dag(bench);
    let opts = LpOptions::rvol();
    if unknown::has_unknown_volumes(&dag) {
        let plan = unknown::partition(&dag, machine).expect("partitions");
        plan.partitions
            .iter()
            .map(|part| lpform::build(&part.dag, machine, &opts).model)
            .collect()
    } else {
        vec![lpform::build(&dag, machine, &opts).model]
    }
}

#[test]
fn backends_agree_on_figure2() {
    let machine = Machine::paper_default();
    let (dag, _) = aqua_assays::figure2::dag();
    let form = lpform::build(&dag, &machine, &LpOptions::rvol());
    differential(&form.model, "figure2");
}

#[test]
fn backends_agree_on_glucose() {
    let machine = Machine::paper_default();
    for (i, m) in assay_models(Benchmark::Glucose, &machine)
        .iter()
        .enumerate()
    {
        differential(m, &format!("glucose[{i}]"));
    }
}

#[test]
fn backends_agree_on_glycomics_partitions() {
    let machine = Machine::paper_default();
    let models = assay_models(Benchmark::Glycomics, &machine);
    assert!(models.len() > 1, "glycomics should partition");
    for (i, m) in models.iter().enumerate() {
        differential(m, &format!("glycomics[{i}]"));
    }
}

#[test]
fn backends_agree_on_enzyme_formulations() {
    let machine = Machine::paper_default();
    // Enzyme (4 dilutions) is the paper's infeasible case (§4.2); a
    // 6-dilution variant keeps the differential check cheap enough for
    // debug-mode CI while still exercising a few hundred constraints.
    for bench in [Benchmark::Enzyme, Benchmark::EnzymeN(6)] {
        for (i, m) in assay_models(bench, &machine).iter().enumerate() {
            differential(m, &format!("{}[{i}]", bench.name()));
        }
    }
}

/// A model with no variables (what the hierarchy hands the LP for an
/// assay with no operations) has one point, the empty one: both
/// solvers answer it optimal, with no values.
#[test]
fn backends_agree_on_a_model_with_no_columns() {
    for sense in [aqua_lp::Sense::Minimize, aqua_lp::Sense::Maximize] {
        let m = Model::new(sense);
        differential(&m, &format!("no columns ({sense:?})"));
        let sparse = solve_with(&m, &SimplexConfig::default()).status;
        let dense = solve_dense(&m, &SimplexConfig::default()).status;
        let (s, d) = (sparse.solution().unwrap(), dense.solution().unwrap());
        assert!(s.values.is_empty() && d.values.is_empty());
        assert_eq!(s.objective.to_bits(), d.objective.to_bits(), "{sense:?}");
    }
}

/// Seeded random LPs: dense constraint structure, mixed senses, some
/// bounded and some free variables. Feasibility is guaranteed by
/// generating constraints satisfied at a random interior point.
#[test]
fn backends_agree_on_seeded_random_models() {
    let mut rng = XorShift64Star::new(0x5eed_cafe_f00d_0001);
    for trial in 0..40 {
        let nvars = 2 + (rng.next_u64() % 8) as usize;
        let ncons = 1 + (rng.next_u64() % 12) as usize;
        let sense = if rng.next_u64().is_multiple_of(2) {
            aqua_lp::Sense::Maximize
        } else {
            aqua_lp::Sense::Minimize
        };
        let mut m = Model::new(sense);
        let mut point = Vec::with_capacity(nvars);
        let vars: Vec<_> = (0..nvars)
            .map(|i| {
                let free = rng.next_u64().is_multiple_of(4);
                let (lb, ub) = if free {
                    (f64::NEG_INFINITY, f64::INFINITY)
                } else {
                    (0.0, 1.0 + (rng.next_u64() % 20) as f64)
                };
                // An interior point used to keep the model feasible.
                point.push(if free {
                    (rng.next_u64() % 21) as f64 - 10.0
                } else {
                    ub * 0.5
                });
                m.add_var(format!("x{i}"), lb, ub)
            })
            .collect();
        let obj: Vec<_> = vars
            .iter()
            .map(|&v| (v, (rng.next_u64() % 11) as f64 - 5.0))
            .collect();
        m.set_objective(obj);
        for c in 0..ncons {
            let mut terms = Vec::new();
            for &v in &vars {
                if !rng.next_u64().is_multiple_of(3) {
                    terms.push((v, (rng.next_u64() % 9) as f64 - 4.0));
                }
            }
            if terms.is_empty() {
                continue;
            }
            let at_point: f64 = terms.iter().map(|&(v, coef)| coef * point[v.index()]).sum();
            let slack = (rng.next_u64() % 5) as f64;
            match rng.next_u64() % 3 {
                0 => m.add_le(format!("c{c}"), terms, at_point + slack),
                1 => m.add_ge(format!("c{c}"), terms, at_point - slack),
                _ => m.add_eq(format!("c{c}"), terms, at_point),
            };
        }
        differential(&m, &format!("random trial {trial}"));
    }
}
