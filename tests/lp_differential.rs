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
/// objectives double as goldens (tests/paper_numbers.rs pins them too,
/// and BENCH.json's LP rows record their statuses); the point here is
/// that the *default* path the hierarchy takes — sparse solver, devex
/// pricing — cannot drift from the oracle on the exact models the
/// paper cares about.
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

/// The enzyme assay with `n` dilutions per series, its three series
/// diluted by `factors` instead of 10.
fn enzyme_variant(n: u32, factors: [u32; 3]) -> String {
    let mut factors = factors.iter();
    let mut out = String::new();
    for line in aqua_assays::enzyme::source_n(n).split_inclusive('\n') {
        if line.contains("temp = temp * 10;") {
            let f = factors.next().expect("three dilution series");
            out.push_str(&line.replace("temp * 10;", &format!("temp * {f};")));
        } else {
            out.push_str(line);
        }
    }
    out
}

/// The RVol LP the Fig. 6 hierarchy solved last for `src` on
/// `machine`, solved again with the default configuration: `(simplex
/// iterations, objective bits, FNV-1a 64 of every value's bits)`, or
/// `None` when the hierarchy did not accept an LP solution.
fn hierarchy_lp(src: &str, machine: &Machine) -> Option<(u64, u64, u64)> {
    let flat = aqua_lang::compile_to_flat(src).unwrap();
    let dag = aqua_compiler::lower_to_dag(&flat).unwrap().0;
    let outcome =
        aqua_volume::manage_volumes(&dag, machine, &aqua_volume::VolumeManagerOptions::default());
    let aqua_volume::ManagedOutcome::Solved { dag, volumes, .. } = outcome else {
        return None;
    };
    if !matches!(
        volumes.method,
        aqua_volume::Method::Lp | aqua_volume::Method::LpAfterRewrites
    ) {
        return None;
    }
    let form = lpform::build(&dag, machine, &LpOptions::rvol());
    let out = aqua_lp::solve_with(&form.model, &SimplexConfig::default());
    let Status::Optimal(sol) = out.status else {
        panic!("the hierarchy accepted this LP's solution");
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in &sol.values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Some((out.stats.iterations, sol.objective.to_bits(), h))
}

/// The LPs the hierarchy actually solves — enzyme4 on the paper
/// machine after its rewrites, 16 seeded dilution variants of it, and
/// enzyme4/enzyme6 on the 128-reservoir machine — are pinned pivot for
/// pivot: the iteration count, the objective's bits and a digest of
/// every solution value's bits. A change to pricing, the ratio test or
/// the eta file that moves a pivot or a solution bit shows up here; in
/// debug builds these solves also run the LP kernels' own bit-for-bit
/// oracles (every refactorization eta, every pivot-row entry).
#[test]
fn hierarchy_lps_are_pinned() {
    let paper = Machine::paper_default();
    let big = Machine::paper_default()
        .with_reservoirs(128)
        .with_input_ports(64);
    let mut cases = vec![
        (
            "enzyme4/paper".to_owned(),
            aqua_assays::enzyme::source_n(4),
            paper.clone(),
        ),
        (
            "enzyme4/big".to_owned(),
            aqua_assays::enzyme::source_n(4),
            big.clone(),
        ),
        (
            "enzyme6/big".to_owned(),
            aqua_assays::enzyme::source_n(6),
            big,
        ),
    ];
    let mut rng = aqua_rational::rng::XorShift64Star::new(0x1DA7);
    while cases.len() < 19 {
        let f = [0; 3].map(|_| rng.range_u64(6, 13) as u32);
        if f != [10; 3] {
            let label = format!("enzyme4/paper x{}:{}:{}", f[0], f[1], f[2]);
            cases.push((label, enzyme_variant(4, f), paper.clone()));
        }
    }
    // Recorded before the nonzero-driven pivot-row update, phase
    // objective and refactorization; those reproduce every pivot.
    let pinned: [Option<(u64, u64, u64)>; 19] = [
        Some((452, 0x4086_7b6c_4cbc_f514, 0x05cb_8343_3811_e7d6)),
        Some((452, 0x4086_7b6c_4cbc_f514, 0x05cb_8343_3811_e7d6)),
        Some((1276, 0x4090_8591_e6cf_75ab, 0xc369_d30b_0576_6848)),
        Some((461, 0x4080_3c1a_5158_85d4, 0x32c9_d60e_68f5_5076)),
        None,
        Some((474, 0x408e_746f_f40e_ed53, 0xacf2_ed53_a48d_0b45)),
        Some((448, 0x4084_3c43_935b_b5eb, 0x1044_d868_1c19_c0b1)),
        Some((465, 0x4076_42cc_8f5c_19f9, 0xdbea_30b1_68ca_78ed)),
        Some((468, 0x4083_5ea2_bb7a_4702, 0x27da_f2cb_04cd_e7c8)),
        Some((468, 0x40b1_6a01_72be_6e00, 0x0797_fe92_12c4_c78b)),
        None,
        Some((456, 0x4083_833c_bc0b_98c5, 0x5182_ae64_ce86_36aa)),
        Some((442, 0x4080_e70d_2771_9fb3, 0x22f2_ae06_d442_00fb)),
        None,
        None,
        Some((489, 0x4081_0376_7de8_e293, 0x9ad7_e6a1_8bf2_9da0)),
        Some((467, 0x4081_7fae_fa9d_d972, 0x1d3a_c624_c1a1_ec88)),
        Some((446, 0x4082_a134_2acd_a679, 0x2641_a997_d6d8_ec81)),
        Some((455, 0x407a_a7dc_40ab_9671, 0xf9a7_5902_23ed_c203)),
    ];
    for ((label, src, machine), pin) in cases.iter().zip(pinned) {
        assert_eq!(hierarchy_lp(src, machine), pin, "{label}");
    }
}
