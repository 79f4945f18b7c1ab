//! Seeded property tests of the paper's volume invariants and of the
//! executor under randomized assays and fault plans. Randomness comes
//! from the in-repo xorshift64*, and every assertion message carries
//! the seed (and DAG configuration), so a failure replays from it.
//!
//! Volume management (§3–§4) on random layered DAGs:
//!
//! * DAGSolve's volumes satisfy Fig. 3's ratio, capacity and
//!   non-deficit constraints, and its dispensing pass fills the most
//!   loaded node to capacity;
//! * the LP's total output is at least DAGSolve's (§4.3);
//! * cascading keeps an extreme mix's composition (§3.4.1);
//! * rounding moves an edge by at most half a least count, except for
//!   the underflows it lifts to one least count (§3.2, §4.2);
//! * the Fig. 6 hierarchy is total, and its `Solved` plans underflow
//!   nowhere.
//!
//! Execution (DESIGN.md §8):
//!
//! * volume is conserved *exactly* (integer picoliters) on every run,
//!   faulty or not, recovering or not;
//! * a fault-free execution of a `Solved` plan never overflows a
//!   location and never starves;
//! * the same seed reproduces the same run bit-for-bit.

use aqua_assays::synthetic::{self, LayeredConfig};
use aqua_dag::{NodeKind, Ratio};
use aqua_rational::rng::XorShift64Star;
use aqua_sim::{ExecConfig, Executor, FaultPlan, Violation};
use aqua_volume::lpform::{self, LpOptions};
use aqua_volume::{cascade, dagsolve, round, Machine, ManagedOutcome};

mod common;
use common::render;

/// Draws a random layered-DAG configuration from the seed stream.
fn random_config(rng: &mut XorShift64Star) -> LayeredConfig {
    LayeredConfig {
        inputs: rng.range_u64(2, 5) as usize,
        layers: rng.range_u64(1, 3) as usize,
        width: rng.range_u64(2, 5) as usize,
        fanin: rng.range_u64(2, 3) as usize,
        max_part: rng.range_u64(1, 19),
    }
}

/// Compiles one random assay, or None when the rendering is degenerate
/// (the renderer cannot express every random DAG).
fn random_case(seed: u64, machine: &Machine) -> Option<aqua_compiler::CompileOutput> {
    let mut rng = XorShift64Star::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1));
    let cfg = random_config(&mut rng);
    let dag = synthetic::layered_dag(rng.next_u64(), &cfg);
    dag.validate().ok()?;
    aqua_compiler::compile(&render(&dag), machine, &Default::default()).ok()
}

const CASES: u64 = 64;

#[test]
fn fault_free_runs_conserve_volume_and_respect_capacity() {
    let machine = Machine::paper_default();
    let mut ran = 0;
    for seed in 0..CASES {
        let Some(out) = random_case(seed, &machine) else {
            continue;
        };
        ran += 1;
        let report = Executor::new(&machine, ExecConfig::default())
            .run(&out)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            report.conservation_delta_pl(),
            0,
            "seed {seed}: volume leaked (replay with random_case({seed}, ..))"
        );
        // Capacity: rounding every in-edge of a mix up to a least
        // count independently can legally land a few least counts over
        // the cap (RVol→IVol, §4.2); anything beyond that slack is a
        // real overflow bug.
        let lc_pl = 100;
        let cap_pl = 100_000;
        for v in &report.violations {
            if let Violation::Overflow { volume_pl, loc, .. } = v {
                assert!(
                    *volume_pl <= cap_pl + 4 * lc_pl,
                    "seed {seed}: {loc} at {volume_pl} pl is beyond rounding slack"
                );
            }
        }
        // A Solved compile-time plan must execute without starving.
        if matches!(
            out.resolution,
            aqua_compiler::VolumeResolution::Static(aqua_volume::ManagedOutcome::Solved { .. })
        ) {
            assert!(
                !report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::Deficit { .. })),
                "seed {seed}: solved plan starved: {:?}",
                report.violations
            );
        }
    }
    assert!(ran >= CASES / 4, "renderer rejected too many cases: {ran}");
}

#[test]
fn faulty_runs_conserve_volume_and_stay_total() {
    let machine = Machine::paper_default();
    let mut faulted = 0u64;
    for seed in 0..CASES {
        let Some(out) = random_case(seed, &machine) else {
            continue;
        };
        for (rate, recover) in [(0.1, false), (0.1, true), (0.3, true)] {
            let config = ExecConfig {
                faults: FaultPlan::uniform(seed + 1, rate),
                recover,
                ..ExecConfig::default()
            };
            let report = Executor::new(&machine, config)
                .run(&out)
                .unwrap_or_else(|e| panic!("seed {seed} rate {rate}: {e}"));
            assert_eq!(
                report.conservation_delta_pl(),
                0,
                "seed {seed} rate {rate} recover {recover}: volume leaked"
            );
            faulted += report.faults.total();
            if !recover {
                assert_eq!(
                    report.recovery.total_recovered(),
                    0,
                    "seed {seed}: recovery acted while disabled"
                );
            }
        }
    }
    assert!(faulted > 0, "the fault plans never fired");
}

#[test]
fn same_seed_is_bit_identical() {
    let machine = Machine::paper_default();
    for seed in 0..CASES / 4 {
        let Some(out) = random_case(seed, &machine) else {
            continue;
        };
        let mk = || {
            let config = ExecConfig {
                faults: FaultPlan::uniform(seed * 31 + 7, 0.2),
                recover: true,
                record_trace: true,
                ..ExecConfig::default()
            };
            Executor::new(&machine, config).run(&out).unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.faults, b.faults, "seed {seed}");
        assert_eq!(a.recovery, b.recovery, "seed {seed}");
        assert_eq!(a.trace, b.trace, "seed {seed}");
        let va: Vec<_> = a.sense_results.iter().map(|s| s.volume_pl).collect();
        let vb: Vec<_> = b.sense_results.iter().map(|s| s.volume_pl).collect();
        assert_eq!(va, vb, "seed {seed}");
    }
}

/// Layered DAGs that once broke a volume property, replayed before the
/// random draws: seed 0 once violated DAGSolve's ratio constraints, and
/// the second DAG's edge 0 (raw 75/2432 nl) rounds to 0 and is lifted
/// to one least count.
fn pinned_dags() -> [(u64, LayeredConfig); 2] {
    let cfg = |inputs, layers, width, fanin, max_part| LayeredConfig {
        inputs,
        layers,
        width,
        fanin,
        max_part,
    };
    [
        (0, cfg(3, 1, 2, 2, 1)),
        (7_522_969_977_435_641_408, cfg(4, 3, 2, 3, 18)),
    ]
}

/// The pinned DAGs, then `cases` random ones drawn from `stream`, as
/// `(label, dag)`; the label replays the case.
fn layered_dags(stream: u64, cases: usize) -> Vec<(String, aqua_dag::Dag)> {
    let mut rng = XorShift64Star::new(stream);
    let random: Vec<_> = (0..cases)
        .map(|_| {
            let cfg = random_config(&mut rng);
            (rng.next_u64(), cfg)
        })
        .collect();
    pinned_dags()
        .into_iter()
        .chain(random)
        .map(|(seed, cfg)| {
            (
                format!("layered_dag({seed}, {cfg:?})"),
                synthetic::layered_dag(seed, &cfg),
            )
        })
        .collect()
}

const VOLUME_CASES: usize = 256;

/// DAGSolve's assignment audits clean apart from least-count notes
/// (capacity and non-deficit, Fig. 3), and every mix draws its inputs
/// in exactly its ratio.
#[test]
fn dagsolve_satisfies_paper_constraints() {
    let machine = Machine::paper_default();
    for (case, dag) in layered_dags(1, VOLUME_CASES) {
        if dag.validate().is_err() {
            continue;
        }
        let sol = dagsolve::solve(&dag, &machine).unwrap_or_else(|e| panic!("{case}: {e}"));
        let problems = sol.audit(&dag, &machine);
        let real: Vec<_> = problems
            .iter()
            .filter(|p| !p.contains("least count"))
            .collect();
        assert!(real.is_empty(), "{case}: {real:?}");
        for n in dag.node_ids() {
            if !matches!(dag.node(n).kind, NodeKind::Mix { .. }) {
                continue;
            }
            let total =
                Ratio::checked_sum(dag.in_edges(n).iter().map(|&e| sol.edge_nl(e))).unwrap();
            if !total.is_positive() {
                continue;
            }
            for &e in dag.in_edges(n) {
                let name = &dag.node(n).name;
                assert_eq!(
                    sol.edge_nl(e) / total,
                    dag.edge(e).fraction,
                    "{case}: ratio at {name}"
                );
            }
        }
    }
}

/// DAGSolve's dispensing pass produces as much as it can: the most
/// loaded node sits exactly at machine capacity.
#[test]
fn dispensing_saturates_capacity() {
    let machine = Machine::paper_default();
    for (case, dag) in layered_dags(2, VOLUME_CASES) {
        let Ok(sol) = dagsolve::solve(&dag, &machine) else {
            continue;
        };
        let max_load_nl = dag
            .node_ids()
            .map(|n| sol.vnorms.load[n.index()] * sol.scale_nl)
            .max()
            .unwrap();
        assert_eq!(max_load_nl, machine.max_capacity_nl(), "{case}");
    }
}

/// The LP's optimal total output is at least DAGSolve's, which solves
/// an over-constrained version of the same problem (§4.3).
#[test]
fn lp_dominates_dagsolve_total_output() {
    let machine = Machine::paper_default();
    let mut compared = 0;
    for (case, dag) in layered_dags(3, VOLUME_CASES) {
        let Ok(sol) = dagsolve::solve(&dag, &machine) else {
            continue;
        };
        if sol.underflow.is_some() {
            continue;
        }
        let form = lpform::build(&dag, &machine, &LpOptions::rvol());
        let aqua_lp::Status::Optimal(lp) = aqua_lp::solve(&form.model).status else {
            continue;
        };
        compared += 1;
        let ds_total: f64 = dag
            .node_ids()
            .filter(|&n| dag.out_edges(n).is_empty())
            .map(|n| sol.node_nl(n).to_f64())
            .sum();
        let lp_total = lp.objective * machine.least_count_nl().to_f64();
        assert!(
            lp_total >= ds_total - 1e-4,
            "{case}: LP {lp_total} < DAGSolve {ds_total}"
        );
    }
    assert!(
        compared >= VOLUME_CASES / 4,
        "only {compared} cases compared"
    );
}

/// Rounding to least counts moves every edge by at most half a least
/// count, except the productive transfers that round to zero: those
/// are DAGSolve underflows in (0, lc/2], lifted to exactly one least
/// count, and the assignment then misses the paper's 2% tolerance.
#[test]
fn rounding_error_is_bounded_outside_underflows() {
    let machine = Machine::paper_default();
    let lc = machine.least_count_nl();
    let half = lc / Ratio::from_int(2);
    let mut lifted = 0;
    for (case, dag) in layered_dags(4, VOLUME_CASES) {
        let Ok(sol) = dagsolve::solve(&dag, &machine) else {
            continue;
        };
        let rounded = round::round_assignment(&dag, &machine, &sol);
        for e in dag.edge_ids() {
            let raw = sol.edge_volumes_nl[e.index()];
            let got = rounded.edge_volumes_nl[e.index()];
            if rounded.underflows.contains(&e.index()) {
                assert!(
                    raw.is_positive() && raw <= half,
                    "{case}: {e} underflowed from {raw} nl"
                );
                assert_eq!(got, lc, "{case}: {e} lifted to {got} nl");
            } else {
                assert!(
                    (got - raw).abs() <= half,
                    "{case}: {e} rounded {raw} to {got} nl"
                );
            }
        }
        if !rounded.underflows.is_empty() {
            lifted += 1;
            assert!(
                sol.underflow.is_some(),
                "{case}: DAGSolve reported no underflow"
            );
            assert!(
                !rounded.within_paper_tolerance(),
                "{case}: lifted edges within 2%"
            );
        }
    }
    assert!(lifted > 0, "no case lifted an underflow");
}

/// Cascading an extreme mix keeps its composition exactly: input A's
/// share of the final product is still 1/(skew+1), and no stage is
/// left beyond the machine's mixing span (§3.4.1). Skew 998,001 once
/// broke it and runs first.
#[test]
fn cascading_preserves_composition() {
    let machine = Machine::paper_default();
    let mut rng = XorShift64Star::new(5);
    let skews =
        std::iter::once(998_001).chain((0..VOLUME_CASES).map(|_| rng.range_u64(1_001, 1_999_999)));
    for skew in skews {
        let mut dag = synthetic::extreme_ratio_dag(skew);
        let m = dag.find_node("extreme").unwrap();
        let a = dag.find_node("A").unwrap();
        cascade::apply_cascade(&mut dag, m, &machine)
            .unwrap_or_else(|e| panic!("skew {skew}: {e}"));
        assert!(dag.validate().is_ok(), "skew {skew}: {:?}", dag.validate());
        let mut share = Ratio::ONE;
        let mut cur = m;
        loop {
            let small = dag
                .in_edges(cur)
                .iter()
                .map(|&e| dag.edge(e))
                .min_by(|x, y| x.fraction.cmp(&y.fraction))
                .unwrap()
                .clone();
            share *= small.fraction;
            if small.src == a {
                break;
            }
            cur = small.src;
        }
        assert_eq!(
            share,
            Ratio::new(1, skew as i128 + 1).unwrap(),
            "skew {skew}"
        );
        assert!(
            cascade::find_extreme_mixes(&dag, &machine).is_empty(),
            "skew {skew}"
        );
    }
}

/// The full Fig. 6 hierarchy returns on every DAG, and a `Solved`
/// outcome moves at least one least count along every edge that feeds
/// a product.
#[test]
fn hierarchy_is_total_and_sound() {
    let machine = Machine::paper_default();
    let lc = machine.least_count_nl();
    for (case, dag) in layered_dags(6, 64) {
        let out = aqua_volume::manage_volumes(&dag, &machine, &Default::default());
        let ManagedOutcome::Solved { volumes, dag, .. } = out else {
            continue;
        };
        for e in dag.edge_ids() {
            if dag.node(dag.edge(e).dst).kind == NodeKind::Excess {
                continue;
            }
            let v = volumes.edge_volumes_nl[e.index()];
            assert!(v >= lc, "{case}: solved outcome underflows at {e}: {v} nl");
        }
    }
}
