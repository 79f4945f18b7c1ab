//! DAGSolve: the paper's linear-time volume-assignment algorithm
//! (Figure 4), combining the backward [`crate::vnorm`] pass with the
//! forward dispensing pass that applies the hardware constraints.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use aqua_dag::{Dag, EdgeId, NodeId, NodeKind, Ratio};

use crate::machine::Machine;
use crate::vnorm::{self, VnormError, VnormTable};

/// A complete relative+absolute volume assignment for an assay DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeAssignment {
    /// The relative volumes from the backward pass.
    pub vnorms: VnormTable,
    /// Nanoliters per Vnorm unit chosen by the dispensing pass.
    pub scale_nl: Ratio,
    /// Absolute output volume per node, in nl.
    pub node_volumes_nl: Vec<Ratio>,
    /// Absolute transfer volume per edge, in nl (zero for cut edges).
    pub edge_volumes_nl: Vec<Ratio>,
    /// The smallest live-edge transfer, if any edges exist.
    pub min_edge: Option<(EdgeId, Ratio)>,
    /// Present iff the assignment underflows (some transfer below the
    /// least count). DAGSolve *failing* is represented this way rather
    /// than as an error: the hierarchy inspects it and falls back to LP.
    pub underflow: Option<Underflow>,
}

/// Description of an underflowing transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Underflow {
    /// The underflowing edge.
    pub edge: EdgeId,
    /// Its assigned volume in nl.
    pub volume_nl: Ratio,
    /// The machine least count it fails to reach, in nl.
    pub least_count_nl: Ratio,
}

impl fmt::Display for Underflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transfer of {} nl on edge {} is below the least count of {} nl",
            self.volume_nl, self.edge, self.least_count_nl
        )
    }
}

/// Error from DAGSolve (structural problems; underflow is *not* an
/// error, see [`VolumeAssignment::underflow`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DagSolveError {
    /// The backward pass failed.
    Vnorm(VnormError),
    /// The DAG demands zero volume everywhere (no dispensing possible).
    ZeroDemand,
}

impl fmt::Display for DagSolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagSolveError::Vnorm(e) => write!(f, "{e}"),
            DagSolveError::ZeroDemand => write!(f, "assay demands zero volume everywhere"),
        }
    }
}

impl Error for DagSolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DagSolveError::Vnorm(e) => Some(e),
            DagSolveError::ZeroDemand => None,
        }
    }
}

impl From<VnormError> for DagSolveError {
    fn from(e: VnormError) -> DagSolveError {
        DagSolveError::Vnorm(e)
    }
}

/// Runs DAGSolve with equal output volumes (the paper's default).
///
/// # Errors
///
/// Returns [`DagSolveError`] on structural problems; an *underflowing*
/// but structurally sound assignment is returned as `Ok` with
/// [`VolumeAssignment::underflow`] set.
///
/// # Examples
///
/// See the crate-level example.
pub fn solve(dag: &Dag, machine: &Machine) -> Result<VolumeAssignment, DagSolveError> {
    solve_weighted(dag, machine, &HashMap::new())
}

/// Runs DAGSolve with explicit relative output weights (`Va:Vb:Vc` in
/// the paper's terms).
///
/// # Errors
///
/// See [`solve`].
pub fn solve_weighted(
    dag: &Dag,
    machine: &Machine,
    weights: &HashMap<NodeId, Ratio>,
) -> Result<VolumeAssignment, DagSolveError> {
    let vnorms = vnorm::compute_weighted(dag, weights)?;
    Ok(verdict(dag, machine, &vnorms)?.assign(vnorms))
}

/// DAGSolve's decision on a Vnorm table, before any volume is
/// computed: the capacity scale and the smallest transfer it yields.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Nanoliters per Vnorm unit.
    pub scale_nl: Ratio,
    /// The smallest live-edge transfer in nl, if any edges exist.
    pub min_edge: Option<(EdgeId, Ratio)>,
    /// Present iff that transfer is below the least count.
    pub underflow: Option<Underflow>,
}

impl Verdict {
    /// The per-node and per-edge volumes in nl: every Vnorm of
    /// `vnorms` (the table the verdict was read from) times the scale.
    pub fn volumes(&self, vnorms: &VnormTable) -> (Vec<Ratio>, Vec<Ratio>) {
        let scale = |vs: &[Ratio]| vs.iter().map(|&v| v * self.scale_nl).collect();
        (scale(&vnorms.node), scale(&vnorms.edge))
    }

    /// The full assignment [`Verdict::volumes`] builds.
    pub fn assign(self, vnorms: VnormTable) -> VolumeAssignment {
        let (node_volumes_nl, edge_volumes_nl) = self.volumes(&vnorms);
        VolumeAssignment {
            vnorms,
            scale_nl: self.scale_nl,
            node_volumes_nl,
            edge_volumes_nl,
            min_edge: self.min_edge,
            underflow: self.underflow,
        }
    }
}

/// Reads DAGSolve's verdict off a Vnorm table of `dag` (Fig. 4, lines
/// 8–11, and the least-count check): the most loaded node gets the
/// machine's capacity, so the scale is capacity / max load, and the
/// smallest transfer is the smallest live non-excess edge Vnorm times
/// that scale. Costs one scan of the table and no volume vectors; the
/// Fig. 6 hierarchy and the incremental replanner decide every round
/// through it, and [`Verdict::assign`] builds the volumes only for the
/// assignment they return.
///
/// # Errors
///
/// [`DagSolveError::ZeroDemand`] when no node carries a positive load.
pub fn verdict(
    dag: &Dag,
    machine: &Machine,
    vnorms: &VnormTable,
) -> Result<Verdict, DagSolveError> {
    let max_load = vnorms.max_load();
    if !max_load.is_positive() {
        return Err(DagSolveError::ZeroDemand);
    }
    let scale_nl = machine.max_capacity_nl() / max_load;
    // A positive scale keeps the order of transfers, so the smallest
    // Vnorm edge is the smallest transfer.
    let min_edge = min_transfer(dag, &vnorms.edge).map(|(e, v)| (e, v * scale_nl));
    Ok(Verdict {
        scale_nl,
        underflow: underflow(machine, min_edge),
        min_edge,
    })
}

/// The smallest of `values` (indexed by edge id) over live edges that
/// do not feed an excess node, first in edge-id order on ties.
///
/// Transfers into excess nodes are discards of surplus fluid; the
/// paper meters only productive transfers, so the minimum-volume check
/// skips them (they are large by construction anyway). Live edges are
/// exactly those the nodes list as in-edges.
fn min_transfer(dag: &Dag, values: &[Ratio]) -> Option<(EdgeId, Ratio)> {
    let mut min: Option<(EdgeId, Ratio)> = None;
    for n in dag.node_ids() {
        if dag.node(n).kind == NodeKind::Excess {
            continue;
        }
        for &e in dag.in_edges(n) {
            let v = values[e.index()];
            if min.is_none_or(|(me, m)| v < m || (v == m && e < me)) {
                min = Some((e, v));
            }
        }
    }
    min
}

fn underflow(machine: &Machine, min_edge: Option<(EdgeId, Ratio)>) -> Option<Underflow> {
    min_edge.and_then(|(e, v)| {
        (v < machine.least_count_nl()).then(|| Underflow {
            edge: e,
            volume_nl: v,
            least_count_nl: machine.least_count_nl(),
        })
    })
}

/// Runs DAGSolve in the *minimum-output* mode of §3.5 (independent
/// loops): instead of maximizing against capacity, the listed output
/// nodes must produce at least the given absolute volumes; everything
/// is scaled so the most demanding requirement is met exactly.
///
/// The scale is still capped by machine capacity; if a requirement is
/// unreachable within capacity the result will show the shortfall via
/// `node_volumes_nl` (callers compare against their requirement).
///
/// # Errors
///
/// See [`solve`].
pub fn solve_min_outputs(
    dag: &Dag,
    machine: &Machine,
    min_outputs_nl: &HashMap<NodeId, Ratio>,
) -> Result<VolumeAssignment, DagSolveError> {
    let vnorms = vnorm::compute(dag)?;
    let max_load = vnorms.max_load();
    if !max_load.is_positive() {
        return Err(DagSolveError::ZeroDemand);
    }
    // Scale that meets every minimum...
    let mut scale = Ratio::ZERO;
    for (&node, &min_nl) in min_outputs_nl {
        let v = vnorms.node[node.index()];
        if v.is_positive() {
            scale = scale.max(min_nl / v);
        }
    }
    if !scale.is_positive() {
        return Err(DagSolveError::ZeroDemand);
    }
    // ...but never exceeding capacity at the most loaded node.
    let cap_scale = machine.max_capacity_nl() / max_load;
    let scale = scale.min(cap_scale);
    Ok(dispense(dag, machine, vnorms, scale))
}

/// Runs DAGSolve with per-node production caps (in nl): the scale is
/// the capacity scale further reduced so no listed node produces more
/// than its cap. This is the run-time re-entry of Fig. 6 — after a
/// fault, the *observed* availability of already-produced fluids
/// becomes a hard cap and the rest of the assay is re-dispensed
/// proportionally (§3.5's philosophy of solving with measured volumes
/// as constraints).
///
/// # Errors
///
/// See [`solve`].
pub fn solve_capped(
    dag: &Dag,
    machine: &Machine,
    weights: &HashMap<NodeId, Ratio>,
    caps_nl: &HashMap<NodeId, Ratio>,
) -> Result<VolumeAssignment, DagSolveError> {
    let vnorms = vnorm::compute_weighted(dag, weights)?;
    let max_load = vnorms.max_load();
    if !max_load.is_positive() {
        return Err(DagSolveError::ZeroDemand);
    }
    let mut scale = machine.max_capacity_nl() / max_load;
    for (&node, &cap_nl) in caps_nl {
        let v = vnorms.node[node.index()];
        if v.is_positive() {
            scale = scale.min(cap_nl.max(Ratio::ZERO) / v);
        }
    }
    Ok(dispense(dag, machine, vnorms, scale))
}

/// The forward dispensing pass: multiply every Vnorm by `scale_nl` and
/// check the least count.
pub(crate) fn dispense(
    dag: &Dag,
    machine: &Machine,
    vnorms: VnormTable,
    scale_nl: Ratio,
) -> VolumeAssignment {
    let edge_volumes_nl: Vec<Ratio> = vnorms.edge.iter().map(|&v| v * scale_nl).collect();
    let min_edge = min_transfer(dag, &edge_volumes_nl);
    VolumeAssignment {
        node_volumes_nl: vnorms.node.iter().map(|&v| v * scale_nl).collect(),
        edge_volumes_nl,
        vnorms,
        scale_nl,
        min_edge,
        underflow: underflow(machine, min_edge),
    }
}

impl VolumeAssignment {
    /// Re-runs the forward dispensing pass at `factor` times this
    /// assignment's scale, keeping the Vnorms. Used by the run-time
    /// recovery engine to shrink a partition's plan to what a faulty
    /// dispenser actually delivered (all ratios preserved exactly).
    pub fn rescaled(&self, dag: &Dag, machine: &Machine, factor: Ratio) -> VolumeAssignment {
        dispense(dag, machine, self.vnorms.clone(), self.scale_nl * factor)
    }

    /// Absolute volume of one node's output, in nl.
    ///
    /// # Panics
    ///
    /// Panics if `node` is stale.
    pub fn node_nl(&self, node: NodeId) -> Ratio {
        self.node_volumes_nl[node.index()]
    }

    /// Absolute volume transferred along one edge, in nl.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is stale.
    pub fn edge_nl(&self, edge: EdgeId) -> Ratio {
        self.edge_volumes_nl[edge.index()]
    }

    /// Audits the paper's four requirements against this assignment:
    /// ratios (by construction), least count, capacity, and non-deficit.
    /// Returns human-readable violations (empty = clean).
    pub fn audit(&self, dag: &Dag, machine: &Machine) -> Vec<String> {
        let mut problems = Vec::new();
        for id in dag.node_ids() {
            let in_sum = Ratio::checked_sum(
                dag.in_edges(id)
                    .iter()
                    .map(|&e| self.edge_volumes_nl[e.index()]),
            )
            .unwrap_or(Ratio::ZERO);
            let load = in_sum.max(self.node_volumes_nl[id.index()]);
            if load > machine.max_capacity_nl() {
                problems.push(format!(
                    "capacity exceeded at `{}`: {} nl > {} nl",
                    dag.node(id).name,
                    load,
                    machine.max_capacity_nl()
                ));
            }
            // Non-deficit: out-flow cannot exceed production.
            let out_sum = Ratio::checked_sum(
                dag.out_edges(id)
                    .iter()
                    .map(|&e| self.edge_volumes_nl[e.index()]),
            )
            .unwrap_or(Ratio::ZERO);
            let produced = self.node_volumes_nl[id.index()];
            if out_sum > produced {
                problems.push(format!(
                    "deficit at `{}`: uses {} nl but produces {} nl",
                    dag.node(id).name,
                    out_sum,
                    produced
                ));
            }
        }
        if let Some(u) = &self.underflow {
            problems.push(u.to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    fn figure2() -> (Dag, [NodeId; 9]) {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let c = d.add_input("C");
        let k = d.add_mix("K", &[(a, 1), (b, 4)], 0).unwrap();
        let l = d.add_mix("L", &[(b, 2), (c, 1)], 0).unwrap();
        let m = d.add_mix("M", &[(k, 2), (l, 1)], 0).unwrap();
        let n = d.add_mix("N", &[(l, 2), (c, 3)], 0).unwrap();
        let om = d.add_output("M_out", m);
        let on = d.add_output("N_out", n);
        (d, [a, b, c, k, l, m, n, om, on])
    }

    /// Figure 5(b): B (the max Vnorm, 46/45) gets the 100 nl default;
    /// every other volume is its Vnorm share of that.
    #[test]
    fn figure5_dispensed_volumes() {
        let (d, [a, b, c, k, l, m, n, _, _]) = figure2();
        let machine = Machine::paper_default();
        let sol = solve(&d, &machine).unwrap();
        assert_eq!(sol.node_nl(b), Ratio::from_int(100));
        // scale = 100 / (46/45) = 4500/46 = 2250/23.
        assert_eq!(sol.scale_nl, r(2250, 23));
        // Paper's rounded figures: A=13, K=65, L=72(?), M=98, N=98, C=77.
        // Exact values:
        assert_eq!(sol.node_nl(a), r(2, 15) * r(2250, 23)); // 300/23 ~ 13.0
        assert_eq!(sol.node_nl(k), r(2, 3) * r(2250, 23)); // 1500/23 ~ 65.2
        assert_eq!(sol.node_nl(l), r(11, 15) * r(2250, 23)); // ~71.7
        assert_eq!(sol.node_nl(m), r(2250, 23)); // ~97.8
        assert_eq!(sol.node_nl(n), r(2250, 23));
        assert_eq!(sol.node_nl(c), r(38, 45) * r(2250, 23)); // ~82.6
        assert!(sol.underflow.is_none());
        assert!(sol.audit(&d, &machine).is_empty());
    }

    #[test]
    fn min_edge_is_reported() {
        let (d, [a, ..]) = figure2();
        let machine = Machine::paper_default();
        let sol = solve(&d, &machine).unwrap();
        let (edge, vol) = sol.min_edge.unwrap();
        // The smallest transfer is A -> K (Vnorm 2/15).
        assert_eq!(d.edge(edge).src, a);
        assert_eq!(vol, r(2, 15) * r(2250, 23));
    }

    #[test]
    fn extreme_ratio_underflows() {
        // 1:1999 exceeds the 1000x span: the small side must underflow.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1999)], 0).unwrap();
        d.add_output("o", m);
        let sol = solve(&d, &Machine::paper_default()).unwrap();
        let u = sol.underflow.expect("must underflow");
        assert_eq!(d.edge(u.edge).src, a);
        assert!(u.volume_nl < r(1, 10));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let (d, _) = figure2();
        let machine = Machine::paper_default();
        let sol = solve(&d, &machine).unwrap();
        for id in d.node_ids() {
            assert!(sol.vnorms.load[id.index()] * sol.scale_nl <= machine.max_capacity_nl());
        }
    }

    #[test]
    fn weighted_solve_prefers_heavy_output() {
        let (d, [.., m_out, n_out]) = figure2();
        let machine = Machine::paper_default();
        let mut w = HashMap::new();
        w.insert(m_out, Ratio::from_int(9));
        w.insert(n_out, Ratio::ONE);
        let sol = solve_weighted(&d, &machine, &w).unwrap();
        assert_eq!(sol.node_nl(m_out) / sol.node_nl(n_out), Ratio::from_int(9));
    }

    #[test]
    fn min_outputs_mode_meets_requirement_within_capacity() {
        let (d, [.., m_out, _]) = figure2();
        let machine = Machine::paper_default();
        let mut req = HashMap::new();
        req.insert(m_out, Ratio::from_int(10));
        let sol = solve_min_outputs(&d, &machine, &req).unwrap();
        assert_eq!(sol.node_nl(m_out), Ratio::from_int(10));
        assert!(sol.audit(&d, &machine).is_empty());
    }

    #[test]
    fn min_outputs_mode_is_capacity_capped() {
        let (d, [.., m_out, _]) = figure2();
        let machine = Machine::paper_default();
        let mut req = HashMap::new();
        req.insert(m_out, Ratio::from_int(1_000_000));
        let sol = solve_min_outputs(&d, &machine, &req).unwrap();
        // Capped at the capacity scale: B gets exactly 100 nl.
        assert!(sol.node_nl(m_out) < Ratio::from_int(1_000_000));
        assert!(sol.audit(&d, &machine).is_empty());
    }

    #[test]
    fn capped_solve_respects_observed_availability() {
        let (d, [a, b, ..]) = figure2();
        let machine = Machine::paper_default();
        let free = solve(&d, &machine).unwrap();
        // Cap B (the most loaded node) at half what the free solve gave
        // it: the whole assignment shrinks by exactly that factor.
        let mut caps = HashMap::new();
        caps.insert(b, free.node_nl(b) / Ratio::from_int(2));
        let capped = solve_capped(&d, &machine, &HashMap::new(), &caps).unwrap();
        assert_eq!(capped.scale_nl, free.scale_nl / Ratio::from_int(2));
        assert_eq!(capped.node_nl(a), free.node_nl(a) / Ratio::from_int(2));
        // Caps above the free solution change nothing.
        let mut loose = HashMap::new();
        loose.insert(b, Ratio::from_int(1_000_000));
        let same = solve_capped(&d, &machine, &HashMap::new(), &loose).unwrap();
        assert_eq!(same.scale_nl, free.scale_nl);
    }

    #[test]
    fn rescaled_preserves_ratios() {
        let (d, [a, b, ..]) = figure2();
        let machine = Machine::paper_default();
        let sol = solve(&d, &machine).unwrap();
        let half = sol.rescaled(&d, &machine, r(1, 2));
        assert_eq!(half.scale_nl, sol.scale_nl / Ratio::from_int(2));
        assert_eq!(
            half.node_nl(a) / half.node_nl(b),
            sol.node_nl(a) / sol.node_nl(b)
        );
    }

    #[test]
    fn separation_capacity_binds_on_input() {
        // Input -> separate(1/10) -> output: the separator's input load
        // is 10x its output, so the input edge gets the full 100 nl.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let s = d.add_separate("sep", a, Some(r(1, 10)));
        d.add_output("o", s);
        let machine = Machine::paper_default();
        let sol = solve(&d, &machine).unwrap();
        let in_edge = d.in_edges(s)[0];
        assert_eq!(sol.edge_nl(in_edge), Ratio::from_int(100));
        assert_eq!(sol.node_nl(s), Ratio::from_int(10));
        assert!(sol.audit(&d, &machine).is_empty());
    }
}
