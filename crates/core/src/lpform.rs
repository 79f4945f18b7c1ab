//! The LP/ILP formulation of volume management (Figure 3, §3.2).
//!
//! Variables are the per-edge transfer volumes plus one load variable
//! per source (input) node, all in *least-count units* so the ILP
//! variant is exactly the paper's IVol. Constraint classes and their
//! counts match the paper's accounting:
//!
//! 1. minimum volume — one `>=` row per edge;
//! 2. maximum capacity — one `<=` row per node;
//! 3. non-deficit — one row per non-sink node (`=` when the DAGSolve
//!    flow-conservation constraint is added);
//! 4. mix ratio — `k-1` equality rows per mix with `k` inputs;
//! 5. relative output-to-input — one row per known-fraction separation;
//! 6. output-to-output — two band rows per output beyond the first
//!    (or one equality row each under DAGSolve's output equalization);
//! 7. excess definition — one equality row per cascading excess edge.
//!
//! The objective maximizes the sum of output volumes.

use std::collections::HashMap;

use aqua_dag::{Dag, EdgeId, NodeId, NodeKind, Ratio};
use aqua_lp::{Model, Sense, VarId};

use crate::machine::Machine;

/// Options controlling the formulation.
#[derive(Debug, Clone)]
pub struct LpOptions {
    /// Half-width of the relative output-to-output band (the paper uses
    /// 10%, i.e. `0.9 N <= M <= 1.1 N`). `None` drops the optional
    /// constraint class entirely.
    pub output_band: Option<f64>,
    /// Add DAGSolve's flow-conservation constraint (non-deficit becomes
    /// equality). Used by the §4.3 "LP with additional constraints"
    /// experiment.
    pub flow_conservation: bool,
    /// Add DAGSolve's output-equalization constraint (all outputs
    /// equal). Replaces the output band.
    pub equalize_outputs: bool,
    /// Mark all variables integer (the ILP / IVol variant).
    pub integer: bool,
    /// Enforce the least-count minimum on every transfer (class 1).
    /// Disabling it reproduces runs where the LP "fails to avoid the
    /// underflow" yet still returns volumes (§4.2's enzyme discussion):
    /// transfers only need to be nonnegative.
    pub min_volume: bool,
}

impl Default for LpOptions {
    fn default() -> LpOptions {
        LpOptions {
            output_band: Some(0.1),
            flow_conservation: false,
            equalize_outputs: false,
            integer: false,
            min_volume: true,
        }
    }
}

impl LpOptions {
    /// The paper's plain RVol LP.
    pub fn rvol() -> LpOptions {
        LpOptions::default()
    }

    /// RVol LP plus DAGSolve's two artificial constraints (§4.3).
    pub fn with_dagsolve_constraints() -> LpOptions {
        LpOptions {
            flow_conservation: true,
            equalize_outputs: true,
            output_band: None,
            ..LpOptions::default()
        }
    }

    /// The paper's IVol ILP.
    pub fn ivol() -> LpOptions {
        LpOptions {
            integer: true,
            ..LpOptions::default()
        }
    }
}

/// A built LP/ILP model plus the variable maps needed to read solutions
/// back onto the DAG.
#[derive(Debug, Clone)]
pub struct LpFormulation {
    /// The assembled model (least-count units).
    pub model: Model,
    /// Per-edge variable (dead/cut edges have none).
    pub edge_vars: Vec<Option<VarId>>,
    /// Load variable per source node.
    pub source_vars: HashMap<NodeId, VarId>,
    /// Number of constraints as formulated (Table 2's "LP constraints").
    pub num_constraints: usize,
}

/// Builds the formulation for a DAG on a machine.
///
/// Constrained-input availability is not encoded here (that is a
/// run-time quantity); [`crate::unknown`] adds those bounds per
/// partition.
///
/// # Examples
///
/// ```
/// use aqua_dag::Dag;
/// use aqua_volume::{lpform, Machine};
///
/// let mut dag = Dag::new();
/// let a = dag.add_input("A");
/// let b = dag.add_input("B");
/// let m = dag.add_mix("mx", &[(a, 1), (b, 4)], 0)?;
/// dag.add_process("sense", "sense.OD", m);
/// let f = lpform::build(&dag, &Machine::paper_default(), &lpform::LpOptions::rvol());
/// let out = aqua_lp::solve(&f.model);
/// assert!(out.status.is_optimal());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build(dag: &Dag, machine: &Machine, opts: &LpOptions) -> LpFormulation {
    let span = machine.span().to_f64(); // capacity in least-count units
    let mut model = Model::new(Sense::Maximize);

    // --- Variables ---
    let mut edge_vars: Vec<Option<VarId>> = vec![None; dag.num_edges()];
    for e in dag.edge_ids() {
        if dag.edge_is_live(e) {
            let v = if opts.integer {
                model.add_int_var(format!("e{}", e.index()), 0.0, f64::INFINITY)
            } else {
                model.add_var(format!("e{}", e.index()), 0.0, f64::INFINITY)
            };
            edge_vars[e.index()] = Some(v);
        }
    }
    let mut source_vars = HashMap::new();
    for n in dag.node_ids() {
        if dag.node(n).kind.is_source() {
            let v = if opts.integer {
                model.add_int_var(format!("load_{}", dag.node(n).name), 0.0, f64::INFINITY)
            } else {
                model.add_var(format!("load_{}", dag.node(n).name), 0.0, f64::INFINITY)
            };
            source_vars.insert(n, v);
        }
    }

    let live_in = |n: NodeId| -> Vec<VarId> {
        dag.in_edges(n)
            .iter()
            .filter_map(|&e| edge_vars[e.index()])
            .collect()
    };
    let live_out = |n: NodeId| -> Vec<VarId> {
        dag.out_edges(n)
            .iter()
            .filter_map(|&e| edge_vars[e.index()])
            .collect()
    };

    // --- (1) minimum volume per edge ---
    for e in dag.edge_ids() {
        if let Some(v) = edge_vars[e.index()] {
            let floor = if opts.min_volume { 1.0 } else { 0.0 };
            model.add_ge(format!("min_e{}", e.index()), [(v, 1.0)], floor);
        }
    }

    // --- (2) maximum capacity per node ---
    for n in dag.node_ids() {
        let name = format!("cap_{}", dag.node(n).name);
        if let Some(&lv) = source_vars.get(&n) {
            model.add_le(name, [(lv, 1.0)], span);
        } else {
            let ins = live_in(n);
            if !ins.is_empty() {
                model.add_le(name, ins.iter().map(|&v| (v, 1.0)), span);
            }
        }
    }

    // --- (3) non-deficit / flow conservation per non-sink node ---
    for n in dag.node_ids() {
        let node = dag.node(n);
        let outs = live_out(n);
        if outs.is_empty() {
            continue;
        }
        // Known-fraction separations get class (5) instead.
        if matches!(node.kind, NodeKind::Separate { fraction: Some(_) }) {
            continue;
        }
        let mut terms: Vec<(VarId, f64)> = outs.iter().map(|&v| (v, 1.0)).collect();
        if let Some(&lv) = source_vars.get(&n) {
            terms.push((lv, -1.0));
        } else {
            terms.extend(live_in(n).iter().map(|&v| (v, -1.0)));
        }
        let name = format!("nondeficit_{}", node.name);
        if opts.flow_conservation {
            model.add_eq(name, terms, 0.0);
        } else {
            model.add_le(name, terms, 0.0);
        }
    }

    // --- (4) ratio constraints: k-1 per multi-input node ---
    for n in dag.node_ids() {
        let ins: Vec<EdgeId> = dag
            .in_edges(n)
            .iter()
            .copied()
            .filter(|&e| edge_vars[e.index()].is_some())
            .collect();
        if ins.len() < 2 {
            continue;
        }
        let f0 = dag.edge(ins[0]).fraction.to_f64();
        let v0 = edge_vars[ins[0].index()].expect("live");
        for (i, &e) in ins.iter().enumerate().skip(1) {
            let fi = dag.edge(e).fraction.to_f64();
            let vi = edge_vars[e.index()].expect("live");
            // f0 * e_i - f_i * e_0 = 0
            model.add_eq(
                format!("ratio_{}_{i}", dag.node(n).name),
                [(vi, f0), (v0, -fi)],
                0.0,
            );
        }
    }

    // --- (5) relative output-to-input for known-fraction separations ---
    for n in dag.node_ids() {
        if let NodeKind::Separate { fraction: Some(f) } = &dag.node(n).kind {
            let outs = live_out(n);
            if outs.is_empty() {
                continue;
            }
            let mut terms: Vec<(VarId, f64)> = outs.iter().map(|&v| (v, 1.0)).collect();
            terms.extend(live_in(n).iter().map(|&v| (v, -f.to_f64())));
            let name = format!("sep_o2i_{}", dag.node(n).name);
            if opts.flow_conservation {
                model.add_eq(name, terms, 0.0);
            } else {
                model.add_le(name, terms, 0.0);
            }
        }
    }

    // --- (7) excess-edge definition (cascading) ---
    for e in dag.edge_ids() {
        if edge_vars[e.index()].is_none() {
            continue;
        }
        let edge = dag.edge(e);
        if dag.node(edge.dst).kind != NodeKind::Excess {
            continue;
        }
        // excess = share * production, production = sum of in-edges of
        // the producer (or its load variable for sources).
        let share = edge.fraction.to_f64();
        let ev = edge_vars[e.index()].expect("live");
        let mut terms: Vec<(VarId, f64)> = vec![(ev, 1.0)];
        if let Some(&lv) = source_vars.get(&edge.src) {
            terms.push((lv, -share));
        } else {
            terms.extend(live_in(edge.src).iter().map(|&v| (v, -share)));
        }
        model.add_eq(format!("excess_e{}", e.index()), terms, 0.0);
    }

    // --- Outputs: every non-excess sink ---
    let leaves: Vec<NodeId> = dag
        .node_ids()
        .filter(|&n| {
            dag.out_edges(n)
                .iter()
                .all(|&e| edge_vars[e.index()].is_none())
                && dag.node(n).kind != NodeKind::Excess
                && !live_in(n).is_empty()
        })
        .collect();

    // --- (6) output-to-output ---
    if leaves.len() > 1 && (opts.equalize_outputs || opts.output_band.is_some()) {
        let first = leaves[0];
        let first_terms: Vec<(VarId, f64)> = live_in(first).iter().map(|&v| (v, 1.0)).collect();
        for (i, &leaf) in leaves.iter().enumerate().skip(1) {
            let leaf_terms: Vec<(VarId, f64)> = live_in(leaf).iter().map(|&v| (v, 1.0)).collect();
            if opts.equalize_outputs {
                let mut terms = leaf_terms.clone();
                terms.extend(first_terms.iter().map(|&(v, c)| (v, -c)));
                model.add_eq(format!("equal_out_{i}"), terms, 0.0);
            } else if let Some(band) = opts.output_band {
                // (1-band)*first <= leaf <= (1+band)*first
                let mut lo = leaf_terms.clone();
                lo.extend(first_terms.iter().map(|&(v, c)| (v, -c * (1.0 - band))));
                model.add_ge(format!("band_lo_{i}"), lo, 0.0);
                let mut hi = leaf_terms.clone();
                hi.extend(first_terms.iter().map(|&(v, c)| (v, -c * (1.0 + band))));
                model.add_le(format!("band_hi_{i}"), hi, 0.0);
            }
        }
    }

    // --- Objective: maximize total output volume ---
    let mut obj: Vec<(VarId, f64)> = Vec::new();
    for &leaf in &leaves {
        obj.extend(live_in(leaf).iter().map(|&v| (v, 1.0)));
    }
    model.set_objective(obj);

    let num_constraints = model.num_constraints();
    LpFormulation {
        model,
        edge_vars,
        source_vars,
        num_constraints,
    }
}

/// Volumes recovered from an LP/ILP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpVolumes {
    /// Transfer volume per edge in nl (exact least-count multiples after
    /// [`LpVolumes::rounded`]; raw LP values here).
    pub edge_nl: Vec<f64>,
    /// Production per node in nl (sum of in-edges, separation fractions
    /// applied; source nodes report their load variable).
    pub node_nl: Vec<f64>,
    /// The smallest live productive transfer.
    pub min_edge_nl: Option<(EdgeId, f64)>,
}

impl LpFormulation {
    /// Maps an LP solution's variable values back to per-edge/-node
    /// volumes in nanoliters.
    pub fn volumes(&self, dag: &Dag, machine: &Machine, sol: &aqua_lp::Solution) -> LpVolumes {
        let lc = machine.least_count_nl().to_f64();
        let mut edge_nl = vec![0.0; dag.num_edges()];
        for e in dag.edge_ids() {
            if let Some(v) = self.edge_vars[e.index()] {
                edge_nl[e.index()] = sol.value(v) * lc;
            }
        }
        let mut node_nl = vec![0.0; dag.num_nodes()];
        for n in dag.node_ids() {
            node_nl[n.index()] = if let Some(&lv) = self.source_vars.get(&n) {
                sol.value(lv) * lc
            } else {
                let in_sum: f64 = dag.in_edges(n).iter().map(|&e| edge_nl[e.index()]).sum();
                match &dag.node(n).kind {
                    NodeKind::Separate { fraction: Some(f) } => in_sum * f.to_f64(),
                    _ => in_sum,
                }
            };
        }
        let mut min_edge = None;
        for e in dag.edge_ids() {
            if self.edge_vars[e.index()].is_none() {
                continue;
            }
            if dag.node(dag.edge(e).dst).kind == NodeKind::Excess {
                continue;
            }
            let v = edge_nl[e.index()];
            if min_edge.is_none_or(|(_, m)| v < m) {
                min_edge = Some((e, v));
            }
        }
        LpVolumes {
            edge_nl,
            node_nl,
            min_edge_nl: min_edge,
        }
    }
}

impl LpVolumes {
    /// Rounds every edge volume to the nearest least-count multiple,
    /// returning exact rationals (the RVol -> IVol step for the LP path).
    pub fn rounded(&self, machine: &Machine) -> Vec<Ratio> {
        let lc = machine.least_count_nl();
        self.edge_nl
            .iter()
            .map(|&v| {
                let counts = (v / lc.to_f64()).round() as i128;
                Ratio::from_int(counts.max(0)) * lc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_lp::{solve, Status};

    fn figure2() -> Dag {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let c = d.add_input("C");
        let k = d.add_mix("K", &[(a, 1), (b, 4)], 0).unwrap();
        let l = d.add_mix("L", &[(b, 2), (c, 1)], 0).unwrap();
        d.add_mix("M", &[(k, 2), (l, 1)], 0).unwrap();
        d.add_mix("N", &[(l, 2), (c, 3)], 0).unwrap();
        d
    }

    #[test]
    fn figure2_constraint_count_matches_paper() {
        // Figure 3 lists: 8 min + 7 cap + 5 non-deficit + 4 ratio +
        // 2 output-to-output = 26 constraints.
        let d = figure2();
        let f = build(&d, &Machine::paper_default(), &LpOptions::rvol());
        assert_eq!(f.num_constraints, 26);
    }

    #[test]
    fn figure2_lp_is_feasible_and_respects_all_constraints() {
        let d = figure2();
        let machine = Machine::paper_default();
        let f = build(&d, &machine, &LpOptions::rvol());
        let out = solve(&f.model);
        let sol = match &out.status {
            Status::Optimal(s) => s.clone(),
            other => panic!("LP not optimal: {other:?}"),
        };
        assert!(sol.is_feasible_for(&f.model, 1e-5));
        let vols = f.volumes(&d, &machine, &sol);
        // Every transfer at least the least count.
        let (_, min) = vols.min_edge_nl.unwrap();
        assert!(min >= 0.1 - 1e-9, "min edge {min}");
        // No node exceeds capacity.
        for n in d.node_ids() {
            let in_sum: f64 = d.in_edges(n).iter().map(|&e| vols.edge_nl[e.index()]).sum();
            assert!(in_sum <= 100.0 + 1e-6);
        }
    }

    #[test]
    fn lp_beats_or_matches_dagsolve_total_output() {
        // DAGSolve over-constrains, so LP's total output is >= DAGSolve's.
        let d = figure2();
        let machine = Machine::paper_default();
        let f = build(&d, &machine, &LpOptions::rvol());
        let lp_total = match solve(&f.model).status {
            Status::Optimal(s) => s.objective * machine.least_count_nl().to_f64(),
            other => panic!("{other:?}"),
        };
        let ds = crate::dagsolve::solve(&d, &machine).unwrap();
        let ds_total: f64 = d
            .node_ids()
            .filter(|&n| d.out_edges(n).is_empty())
            .map(|n| ds.node_nl(n).to_f64())
            .sum();
        assert!(
            lp_total >= ds_total - 1e-6,
            "lp {lp_total} < dagsolve {ds_total}"
        );
    }

    #[test]
    fn dagsolve_constraints_shrink_the_feasible_set() {
        let d = figure2();
        let machine = Machine::paper_default();
        let plain = build(&d, &machine, &LpOptions::rvol());
        let constrained = build(&d, &machine, &LpOptions::with_dagsolve_constraints());
        let o1 = match solve(&plain.model).status {
            Status::Optimal(s) => s.objective,
            other => panic!("{other:?}"),
        };
        let o2 = match solve(&constrained.model).status {
            Status::Optimal(s) => s.objective,
            other => panic!("{other:?}"),
        };
        assert!(o2 <= o1 + 1e-6);
    }

    #[test]
    fn extreme_ratio_lp_is_infeasible() {
        // 1:1999 cannot satisfy min-volume + capacity on a 1000x span.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        d.add_mix("mx", &[(a, 1), (b, 1999)], 0).unwrap();
        let f = build(&d, &Machine::paper_default(), &LpOptions::rvol());
        assert!(matches!(solve(&f.model).status, Status::Infeasible));
    }

    #[test]
    fn separation_fraction_constraint_holds() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let s = d.add_separate("sep", a, Some(Ratio::new(1, 4).unwrap()));
        d.add_process("sink", "sense.OD", s);
        let machine = Machine::paper_default();
        let f = build(&d, &machine, &LpOptions::rvol());
        let sol = match solve(&f.model).status {
            Status::Optimal(s) => s,
            other => panic!("{other:?}"),
        };
        let vols = f.volumes(&d, &machine, &sol);
        let in_e = d.in_edges(s)[0];
        let out_e = d.out_edges(s)[0];
        assert!(vols.edge_nl[out_e.index()] <= 0.25 * vols.edge_nl[in_e.index()] + 1e-6);
    }

    #[test]
    fn ilp_variant_returns_integer_least_counts() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        d.add_mix("mx", &[(a, 1), (b, 2)], 0).unwrap();
        let machine = Machine::paper_default();
        let f = build(&d, &machine, &LpOptions::ivol());
        let out = aqua_lp::solve_ilp(&f.model, &aqua_lp::IlpConfig::default());
        let sol = match out.status {
            aqua_lp::IlpStatus::Optimal(s) => s,
            other => panic!("{other:?}"),
        };
        for (i, v) in sol.values.iter().enumerate() {
            assert!(
                (v - v.round()).abs() < 1e-6,
                "var {i} = {v} is not integral"
            );
        }
    }

    #[test]
    fn rounded_volumes_are_least_count_multiples() {
        let d = figure2();
        let machine = Machine::paper_default();
        let f = build(&d, &machine, &LpOptions::rvol());
        let sol = match solve(&f.model).status {
            Status::Optimal(s) => s,
            other => panic!("{other:?}"),
        };
        let vols = f.volumes(&d, &machine, &sol);
        for v in vols.rounded(&machine) {
            assert!(machine.is_least_count_multiple(v));
        }
    }
}
