//! Differential tests for the LP stack on real assay formulations: the
//! default configuration (sparse solver + devex pricing) must reproduce
//! exactly what the dense Dantzig tableau — the differential oracle —
//! computes on the four paper assays and on seeded synthetic DAGs.
//! Objectives are compared within 1e-6 (alternative optima can
//! legitimately move vertex coordinates; the optimum value cannot).
//! The IVol branch-and-bound search on glucose is pinned as well.

use aqua_assays::synthetic::{layered_dag, LayeredConfig};
use aqua_assays::{figure2, Benchmark};
use aqua_lp::{IlpConfig, IlpStatus, PricingRule, SimplexConfig, Status};
use aqua_volume::lpform::{self, LpOptions};
use aqua_volume::unknown;
use aqua_volume::Machine;

fn dag_of(b: Benchmark) -> aqua_dag::Dag {
    let flat = aqua_lang::compile_to_flat(&b.source()).unwrap();
    aqua_compiler::lower_to_dag(&flat).unwrap().0
}

/// Solves the model under every pricing rule and checks they agree with
/// the dense Dantzig oracle; returns the oracle objective if optimal,
/// `None` if all agree the model is infeasible.
fn assert_all_rules_agree(label: &str, model: &aqua_lp::Model) -> Option<f64> {
    let oracle = aqua_lp::solve_dense(model, &SimplexConfig::default());
    let candidates = [
        ("default", SimplexConfig::default()),
        (
            "dantzig",
            SimplexConfig {
                pricing: PricingRule::Dantzig,
                ..SimplexConfig::default()
            },
        ),
    ];
    match oracle.status {
        Status::Optimal(ref sol) => {
            let expect = sol.objective;
            let scale = 1.0 + expect.abs();
            for (name, cfg) in candidates {
                match aqua_lp::solve_with(model, &cfg).status {
                    Status::Optimal(s) => assert!(
                        (s.objective - expect).abs() / scale < 1e-6,
                        "{label}/{name}: {} vs oracle {expect}",
                        s.objective
                    ),
                    other => panic!("{label}/{name}: expected optimal, got {other:?}"),
                }
            }
            Some(expect)
        }
        Status::Infeasible => {
            for (name, cfg) in candidates {
                assert!(
                    matches!(aqua_lp::solve_with(model, &cfg).status, Status::Infeasible),
                    "{label}/{name}: oracle says infeasible"
                );
            }
            None
        }
        other => panic!("{label}: oracle status {other:?}"),
    }
}

/// The four paper assays, solved under every pricing rule. The
/// objectives double as goldens (they also live in BENCH_lp.json and
/// tests/paper_numbers.rs); the point here is that the *default* path
/// the hierarchy takes — sparse solver, devex pricing — cannot drift
/// from the oracle on the exact models the paper cares about.
#[test]
fn paper_assays_agree_across_rules() {
    let machine = Machine::paper_default();
    let opts = LpOptions::rvol();

    let (fig2, _) = figure2::dag();
    let form = lpform::build(&fig2, &machine, &opts);
    let obj = assert_all_rules_agree("fig2", &form.model).expect("fig2 is feasible");
    assert!((obj - 1970.588235294118).abs() < 1e-6);

    let form = lpform::build(&dag_of(Benchmark::Glucose), &machine, &opts);
    let obj = assert_all_rules_agree("glucose", &form.model).expect("glucose is feasible");
    assert!((obj - 1514.195583596214).abs() < 1e-6);

    // Glycomics has unknown volumes: solve per partition.
    let plan = unknown::partition(&dag_of(Benchmark::Glycomics), &machine).unwrap();
    assert_eq!(plan.partitions.len(), 4);
    for (i, part) in plan.partitions.iter().enumerate() {
        let form = lpform::build(&part.dag, &machine, &opts);
        let obj = assert_all_rules_agree(&format!("glycomics[{i}]"), &form.model)
            .expect("partition is feasible");
        assert!((obj - 1000.0).abs() < 1e-6);
    }

    // Enzyme10's raw RVol LP is expectedly infeasible (see
    // tests/paper_numbers.rs); every rule must agree on that verdict
    // too — phase 1 also runs under devex pricing.
    let form = lpform::build(&dag_of(Benchmark::EnzymeN(10)), &machine, &opts);
    assert!(assert_all_rules_agree("enzyme10", &form.model).is_none());
}

/// Glucose's IVol model under a 200-node budget: node and iteration
/// counts, the incumbent objective and every incumbent value are pinned
/// bit for bit, so any change to node selection, branching, pruning or
/// the warm-started relaxation solves shows up here.
#[test]
fn glucose_ivol_search_is_pinned() {
    let form = lpform::build(
        &dag_of(Benchmark::Glucose),
        &Machine::paper_default(),
        &LpOptions::ivol(),
    );
    let out = aqua_lp::solve_ilp(
        &form.model,
        &IlpConfig {
            max_nodes: 200,
            time_budget: std::time::Duration::from_secs(3600),
            ..IlpConfig::default()
        },
    );
    assert_eq!(out.stats.nodes, 200);
    assert_eq!(out.stats.simplex_iterations, 2271);
    let incumbent = match &out.status {
        IlpStatus::BudgetExhausted { incumbent: Some(s) } => s,
        other => panic!("expected the node budget to stop the search: {other:?}"),
    };
    assert_eq!(incumbent.objective.to_bits(), 0x4097_a400_0000_0000); // 1513
    let values: Vec<u64> = incumbent.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        values,
        [
            0x4063_6000_0000_0000,
            0x4063_6000_0000_0000,
            0x4073_6000_0000_0000,
            0x4059_8000_0000_0000,
            0x4069_8000_0000_0000,
            0x4073_2000_0000_0000,
            0x404c_0000_0000_0000,
            0x406c_0000_0000_0000,
            0x4071_8000_0000_0000,
            0x403f_0000_0000_0000,
            0x406f_0000_0000_0000,
            0x4071_7000_0000_0000,
            0x4065_2000_0000_0002,
            0x4065_2000_0000_0002,
            0x4075_2000_0000_0002,
            0x4075_8000_0000_0000,
            0x408f_4000_0000_0000,
            0x4065_2000_0000_0002,
        ]
    );
}

/// Seeded synthetic assays: layered random DAGs of two sizes, plus the
/// stress generators, formulated as RVol LPs and solved under every
/// rule. Covers shapes the paper assays don't (wide fan-in layers,
/// replication-heavy, extreme ratios).
#[test]
fn synthetic_assays_agree_across_rules() {
    let machine = Machine::paper_default();
    let opts = LpOptions::rvol();
    let mut optimal = 0usize;

    for seed in 0..12u64 {
        let dag = layered_dag(seed, &LayeredConfig::default());
        let form = lpform::build(&dag, &machine, &opts);
        if assert_all_rules_agree(&format!("layered[{seed}]"), &form.model).is_some() {
            optimal += 1;
        }
    }
    // Bigger instances: wider layers, more fan-in.
    let big = LayeredConfig {
        inputs: 6,
        layers: 5,
        width: 6,
        fanin: 3,
        ..LayeredConfig::default()
    };
    for seed in 0..4u64 {
        let dag = layered_dag(seed, &big);
        let form = lpform::build(&dag, &machine, &opts);
        if assert_all_rules_agree(&format!("layered-big[{seed}]"), &form.model).is_some() {
            optimal += 1;
        }
    }
    for (label, dag) in [
        ("many-uses", aqua_assays::synthetic::many_uses_dag(40)),
        ("extreme", aqua_assays::synthetic::extreme_ratio_dag(120)),
    ] {
        let form = lpform::build(&dag, &machine, &opts);
        if assert_all_rules_agree(label, &form.model).is_some() {
            optimal += 1;
        }
    }
    // The suite is vacuous if everything came out infeasible.
    assert!(optimal >= 10, "only {optimal} feasible instances");
}
