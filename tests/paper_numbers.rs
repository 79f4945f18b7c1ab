//! Consolidated paper-vs-measured assertions: every machine-independent
//! number the paper reports must reproduce exactly (they are rational
//! arithmetic, not timings).

use aqua_assays::{figure2, Benchmark};
use aqua_rational::Ratio;
use aqua_volume::lpform::{self, LpOptions};
use aqua_volume::unknown::{self, Binding};
use aqua_volume::{cascade, dagsolve, replicate, vnorm, Machine};

fn r(n: i128, d: i128) -> Ratio {
    Ratio::new(n, d).unwrap()
}

fn dag_of(b: Benchmark) -> aqua_dag::Dag {
    let flat = aqua_lang::compile_to_flat(&b.source()).unwrap();
    aqua_compiler::lower_to_dag(&flat).unwrap().0
}

/// Figure 5: the running example's Vnorms and dispensing.
#[test]
fn figure5_exact_numbers() {
    let (dag, f) = figure2::dag();
    let machine = Machine::paper_default();
    let sol = dagsolve::solve(&dag, &machine).unwrap();
    assert_eq!(sol.vnorms.node[f.l.index()], r(11, 15));
    assert_eq!(sol.vnorms.node[f.k.index()], r(2, 3));
    assert_eq!(sol.vnorms.node[f.a.index()], r(2, 15));
    assert_eq!(sol.vnorms.node[f.b.index()], r(46, 45));
    assert_eq!(sol.vnorms.node[f.c.index()], r(38, 45));
    assert_eq!(sol.node_nl(f.b), Ratio::from_int(100));
    assert!(sol.underflow.is_none());
}

/// Figure 3: the running example's LP constraint count (26 incl. the
/// optional output-to-output band) and feasibility.
#[test]
fn figure3_constraint_count() {
    let (dag, _) = figure2::dag();
    let machine = Machine::paper_default();
    let form = lpform::build(&dag, &machine, &LpOptions::rvol());
    assert_eq!(form.num_constraints, 26);
    assert!(aqua_lp::solve(&form.model).status.is_optimal());
}

/// Table 2, "LP constraints" column: Glucose = 49 exactly; the others
/// land in the paper's regime (the paper's exact DAG node accounting
/// for auxiliary fluids is not fully specified).
#[test]
fn table2_constraint_counts() {
    let machine = Machine::paper_default();
    let count = |b: Benchmark| {
        let dag = dag_of(b);
        if unknown::has_unknown_volumes(&dag) {
            let plan = unknown::partition(&dag, &machine).unwrap();
            plan.partitions
                .iter()
                .map(|p| lpform::build(&p.dag, &machine, &LpOptions::rvol()).num_constraints)
                .sum::<usize>()
        } else {
            lpform::build(&dag, &machine, &LpOptions::rvol()).num_constraints
        }
    };
    assert_eq!(count(Benchmark::Glucose), 49); // paper: 49
    let glycomics = count(Benchmark::Glycomics); // paper: 84
    assert!((50..=100).contains(&glycomics), "glycomics {glycomics}");
    let enzyme = count(Benchmark::Enzyme); // paper: 872
    assert!((800..=1100).contains(&enzyme), "enzyme {enzyme}");
    let enzyme10 = count(Benchmark::EnzymeN(10)); // paper: 11258
    assert!((10_000..=16_000).contains(&enzyme10), "enzyme10 {enzyme10}");
}

/// Figure 12: glucose's minimum dispensed volume is 3.3 nl.
#[test]
fn figure12_min_volume() {
    let machine = Machine::paper_default();
    let sol = dagsolve::solve(&dag_of(Benchmark::Glucose), &machine).unwrap();
    let (_, min) = sol.min_edge.unwrap();
    assert_eq!(machine.round_to_least_count(min), r(33, 10));
    assert!(sol.underflow.is_none());
}

/// Figure 13: glycomics partitions — 4 of them, buffer3a split 50/50,
/// X2 constrained input at Vnorm 1/204.
#[test]
fn figure13_partition_numbers() {
    let machine = Machine::paper_default();
    let plan = unknown::partition(&dag_of(Benchmark::Glycomics), &machine).unwrap();
    assert_eq!(plan.partitions.len(), 4);
    let mut statics = Vec::new();
    let mut x2 = false;
    for part in &plan.partitions {
        for (ci, b) in &part.bindings {
            match b {
                Binding::Static { volume_nl } => statics.push(*volume_nl),
                Binding::Runtime { .. } => {
                    if part.vnorms.node[ci.index()] == r(1, 204) {
                        x2 = true;
                    }
                }
            }
        }
    }
    assert_eq!(statics, vec![Ratio::from_int(50); 2]);
    assert!(x2, "X2 Vnorm 1/204 not found");
}

/// Figure 14: the enzyme rescue numbers (9.8 pl -> 65.5 pl -> 196 pl;
/// replication alone 29.5 pl; diluent Vnorm 54 -> 81 -> 27).
#[test]
fn figure14_rescue_numbers() {
    let machine = Machine::paper_default();
    let dag = dag_of(Benchmark::Enzyme);
    let pl = |sol: &aqua_volume::VolumeAssignment| sol.min_edge.unwrap().1.to_f64() * 1000.0;

    let baseline = dagsolve::solve(&dag, &machine).unwrap();
    assert!((pl(&baseline) - 9.83).abs() < 0.1);
    let t = vnorm::compute(&dag).unwrap();
    assert!((t.max_load().to_f64() - 54.22).abs() < 0.05);

    let mut cascaded = dag.clone();
    for node in cascade::find_extreme_mixes(&cascaded, &machine) {
        cascade::apply_cascade(&mut cascaded, node, &machine).unwrap();
    }
    let after_cascade = dagsolve::solve(&cascaded, &machine).unwrap();
    assert!((pl(&after_cascade) - 65.5).abs() < 0.5);
    let t = vnorm::compute(&cascaded).unwrap();
    assert!((t.max_load().to_f64() - 81.44).abs() < 0.05);

    let mut rescued = cascaded.clone();
    let diluent = rescued.find_node("diluent").unwrap();
    replicate::replicate_node(&mut rescued, diluent, 3, &machine).unwrap();
    let done = dagsolve::solve(&rescued, &machine).unwrap();
    assert!((pl(&done) - 196.0).abs() < 2.0);
    assert!(done.underflow.is_none());
    let t = vnorm::compute(&rescued).unwrap();
    assert!((t.max_load().to_f64() - 27.15).abs() < 0.05);

    let mut repl_only = dag.clone();
    let diluent = repl_only.find_node("diluent").unwrap();
    replicate::replicate_node(&mut repl_only, diluent, 3, &machine).unwrap();
    let partial = dagsolve::solve(&repl_only, &machine).unwrap();
    assert!((pl(&partial) - 29.5).abs() < 0.5);
    assert!(partial.underflow.is_some());
}

/// §4.2: mean RVol -> IVol rounding error stays under the paper's 2%.
#[test]
fn rounding_error_under_two_percent() {
    let machine = Machine::paper_default();
    for b in [Benchmark::Glucose, Benchmark::Enzyme] {
        let dag = dag_of(b);
        let sol = dagsolve::solve(&dag, &machine).unwrap();
        let rounded = aqua_volume::round::round_assignment(&dag, &machine, &sol);
        assert!(
            rounded.mean_ratio_error < r(2, 100),
            "{}: mean error {}",
            b.name(),
            rounded.mean_ratio_error
        );
    }
}

/// Table 2, regeneration column: the paper's shape — glucose needs a
/// handful, enzyme an order of magnitude more, Enzyme10 an order more
/// again; with successful volume management the count is zero by
/// construction (non-deficit).
#[test]
fn regeneration_counts_shape() {
    use aqua_sim::regen::{count_regenerations, RegenConfig};
    let machine = Machine::paper_default();
    let cfg = RegenConfig::default();
    let glucose = count_regenerations(&dag_of(Benchmark::Glucose), &machine, &cfg);
    let enzyme = count_regenerations(&dag_of(Benchmark::Enzyme), &machine, &cfg);
    let enzyme10 = count_regenerations(&dag_of(Benchmark::EnzymeN(10)), &machine, &cfg);
    assert!(glucose.regenerations >= 1 && glucose.regenerations <= 10);
    assert!(enzyme.regenerations > 10 * glucose.regenerations);
    assert!(enzyme10.regenerations > 5 * enzyme.regenerations);
}

/// Golden regression: Table 2's regeneration column, pinned to the
/// exact counts this reproduction computes (the paper reports the same
/// shape; these exact values guard the regeneration engine itself —
/// any drift means the baseline executor changed behavior).
#[test]
fn golden_regeneration_counts() {
    use aqua_sim::regen::{count_regenerations, RegenConfig};
    let machine = Machine::paper_default();
    let cfg = RegenConfig::default();
    let count = |b: Benchmark| count_regenerations(&dag_of(b), &machine, &cfg).regenerations;
    assert_eq!(count(Benchmark::Glucose), 5);
    assert_eq!(count(Benchmark::Glycomics), 1);
    assert_eq!(count(Benchmark::Enzyme), 140);
    assert_eq!(count(Benchmark::EnzymeN(10)), 2076);
}

/// Golden regression: the LP objective values of the RVol formulations
/// the `bench` binary's LP rows time (`{assay}/paper/lp-*` in
/// `BENCH.json`, which records their statuses; the test's name predates
/// the single bench document). Least-count units. Exact rational
/// pipelines feed the solver, so these reproduce to within float
/// round-off; a bigger drift means the formulation or the simplex
/// backend changed.
#[test]
fn golden_lp_objectives_match_bench_lp_json() {
    let machine = Machine::paper_default();
    let opts = LpOptions::rvol();
    let objective = |dag: &aqua_dag::Dag| {
        let form = lpform::build(dag, &machine, &opts);
        match aqua_lp::solve(&form.model).status {
            aqua_lp::Status::Optimal(sol) => sol.objective,
            other => panic!("expected optimal, got {other:?}"),
        }
    };
    let (fig2, _) = figure2::dag();
    assert!((objective(&fig2) - 1970.588235294118).abs() < 1e-6);
    assert!((objective(&dag_of(Benchmark::Glucose)) - 1514.195583596214).abs() < 1e-6);
    // Glycomics solves per partition: four partitions, each driving its
    // most loaded node to the full 1000-least-count capacity.
    let plan = unknown::partition(&dag_of(Benchmark::Glycomics), &machine).unwrap();
    assert_eq!(plan.partitions.len(), 4);
    for part in &plan.partitions {
        assert!((objective(&part.dag) - 1000.0).abs() < 1e-6);
    }
    // Enzyme10's plain RVol LP is infeasible (the extreme dilution
    // chain outruns the machine span) — the paper's motivation for
    // cascading; its `enzyme10/paper/lp-*` rows in BENCH.json record
    // "infeasible".
    let form = lpform::build(&dag_of(Benchmark::EnzymeN(10)), &machine, &opts);
    assert!(matches!(
        aqua_lp::solve(&form.model).status,
        aqua_lp::Status::Infeasible
    ));
}

/// Enzyme10's raw RVol LP is *expectedly* infeasible on the paper's
/// default machine — the 1:5000-grade dilution chains outrun the
/// machine span — and that infeasibility is precisely what drives the
/// Fig. 6 escalation. This pins the whole path: round 0 DAGSolve
/// underflows and the LP agrees (infeasible), cascading rewrites all 21
/// extreme mixes (7 stages each for Inhibitor/Enzyme/Substrate), round
/// 1 still underflows, and replication is blocked by the 32-reservoir
/// budget, so compilation ends in ResourcesExceeded. Any drift here
/// means the escalation logic — not just a solver — changed.
#[test]
fn enzyme10_escalation_path_is_pinned() {
    use aqua_volume::{manage_volumes, ManagedOutcome, VolumeManagerOptions};
    let machine = Machine::paper_default();
    let dag = dag_of(Benchmark::EnzymeN(10));
    let (obs, sink) = aqua_obs::Obs::recording();
    let out = manage_volumes(
        &dag,
        &machine,
        &VolumeManagerOptions {
            obs,
            ..Default::default()
        },
    );
    let log = match &out {
        ManagedOutcome::ResourcesExceeded { reason, log } => {
            assert!(
                reason.contains("reservoirs"),
                "expected a reservoir-budget failure, got: {reason}"
            );
            log
        }
        other => panic!("expected ResourcesExceeded, got {other:?}"),
    };
    // The LP verdict appears in both rounds: infeasible is the signal
    // that escalates, not an error.
    assert!(log.iter().any(|l| l == "round 0: LP infeasible"), "{log:?}");
    assert!(log.iter().any(|l| l == "round 1: LP infeasible"), "{log:?}");
    assert!(
        log.iter().any(|l| l.contains("replication blocked")),
        "{log:?}"
    );

    let snap = sink.snapshot();
    let counter = |name: &str| snap.counter(name);
    // 21 cascades: Diluted_{Inhibitor,Enzyme,Substrate}[4..=10].
    assert_eq!(counter("vol.cascade_rewrites"), 21);
    // Two LP fallback attempts (round 0 and round 1); both verdicts
    // come from the exact infeasibility pre-check, so no simplex ever
    // runs: nothing under the `lp.` prefix was recorded, whatever the
    // solver's counters and spans are called.
    assert_eq!(counter("vol.lp_fallbacks"), 2);
    assert_eq!(counter("vol.precheck_infeasible"), 2);
    let lp_names: Vec<&str> = snap
        .counters
        .keys()
        .chain(snap.spans.keys())
        .chain(snap.hists.keys())
        .copied()
        .filter(|name| name.starts_with("lp."))
        .collect();
    assert!(lp_names.is_empty(), "a simplex ran: {lp_names:?}");
}

/// §4.3: DAGSolve is significantly faster than LP on every benchmark,
/// and the gap grows with problem size (the paper's ~80x at Enzyme
/// scale, more at Enzyme10 scale).
#[test]
fn dagsolve_beats_lp_with_growing_gap() {
    let machine = Machine::paper_default();
    // Each side's time is the median of 11 interleaved repetitions, so a
    // burst of load from the binary's other test threads lands on both
    // sides alike and moves neither median.
    let time_pair = |b: Benchmark| {
        let dag = dag_of(b);
        let (mut ds, mut lp) = (Vec::new(), Vec::new());
        for _ in 0..11 {
            let t0 = std::time::Instant::now();
            let _ = dagsolve::solve(&dag, &machine);
            ds.push(t0.elapsed().as_secs_f64());
            let t0 = std::time::Instant::now();
            let form = lpform::build(&dag, &machine, &LpOptions::rvol());
            let _ = aqua_lp::solve(&form.model);
            lp.push(t0.elapsed().as_secs_f64());
        }
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        (median(ds), median(lp))
    };
    let (ds_e, lp_e) = time_pair(Benchmark::Enzyme);
    assert!(
        lp_e > 3.0 * ds_e,
        "enzyme: LP {lp_e:.6}s vs DAGSolve {ds_e:.6}s"
    );
    let (ds_e6, lp_e6) = time_pair(Benchmark::EnzymeN(6));
    let gap_e = lp_e / ds_e;
    let gap_e6 = lp_e6 / ds_e6;
    assert!(
        gap_e6 > gap_e,
        "gap should grow: enzyme {gap_e:.1}x, enzyme6 {gap_e6:.1}x"
    );
}
