//! The backward `Vnorm` pass of DAGSolve (Figure 4, lines 2–7).
//!
//! A node's *Vnorm* is its output volume relative to the assay's final
//! outputs (which are pinned to Vnorm 1, or to caller-provided weights).
//! An edge's Vnorm is the relative volume of the fluid transferred along
//! it. The pass walks the DAG in reverse topological order, applying:
//!
//! * flow conservation — a node produces exactly the sum of its uses
//!   (DAGSolve's second artificial constraint);
//! * ratio constraints — each in-edge takes its fraction of the node's
//!   total input;
//! * output-to-input relations — a separation's input is `output /
//!   fraction`;
//! * excess handling — cascading's discard edges take a fixed share of
//!   the *producer's* output, so `V = useful / (1 - discard_share)`.

use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;

use aqua_dag::{Dag, DagError, EdgeId, NodeId, NodeKind, Ratio};
use aqua_rational::RatioError;

/// Per-node and per-edge relative volumes computed by the backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct VnormTable {
    /// Output-volume Vnorm per node, indexed by [`NodeId::index`].
    pub node: Vec<Ratio>,
    /// Volume Vnorm per edge, indexed by [`aqua_dag::EdgeId::index`].
    /// Cut edges hold zero.
    pub edge: Vec<Ratio>,
    /// Input-side load per node (`max(output, sum of in-edges)`), the
    /// quantity bounded by the hardware capacity.
    pub load: Vec<Ratio>,
}

impl VnormTable {
    /// The largest load Vnorm across the DAG — the paper's `Max_Vnorm`
    /// used by the dispensing pass.
    pub fn max_load(&self) -> Ratio {
        self.load
            .iter()
            .copied()
            .fold(Ratio::ZERO, |acc, v| acc.max(v))
    }
}

/// Error from the Vnorm pass.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VnormError {
    /// The DAG failed structural validation.
    Dag(DagError),
    /// A node with statically-unknown output volume still has consumers;
    /// partition the DAG first (see [`crate::unknown`]).
    UnknownVolumeInterior {
        /// The offending node's name.
        node: String,
    },
    /// A node discards 100% or more of its output to excess.
    ExcessShareTooLarge {
        /// The offending node's name.
        node: String,
    },
    /// The DAG has no output (leaf) node to normalize against.
    NoOutputs,
    /// Exact arithmetic overflowed (absurdly deep or skewed DAG).
    Arithmetic(RatioError),
}

impl fmt::Display for VnormError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VnormError::Dag(e) => write!(f, "invalid assay DAG: {e}"),
            VnormError::UnknownVolumeInterior { node } => write!(
                f,
                "node `{node}` has a statically-unknown output volume but still has consumers; \
                 apply unknown-volume partitioning first"
            ),
            VnormError::ExcessShareTooLarge { node } => {
                write!(f, "node `{node}` discards its entire output to excess")
            }
            VnormError::NoOutputs => write!(f, "assay DAG has no output node"),
            VnormError::Arithmetic(e) => write!(f, "vnorm arithmetic failed: {e}"),
        }
    }
}

impl Error for VnormError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VnormError::Dag(e) => Some(e),
            VnormError::Arithmetic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DagError> for VnormError {
    fn from(e: DagError) -> VnormError {
        VnormError::Dag(e)
    }
}

impl From<RatioError> for VnormError {
    fn from(e: RatioError) -> VnormError {
        VnormError::Arithmetic(e)
    }
}

/// Computes the Vnorm table with every leaf weighted 1 (the paper's
/// default of equal output volumes).
///
/// # Errors
///
/// See [`VnormError`].
pub fn compute(dag: &Dag) -> Result<VnormTable, VnormError> {
    compute_weighted(dag, &HashMap::new())
}

/// Computes the Vnorm table with explicit leaf weights.
///
/// Any sink node (a node without live out-edges) that is not an
/// [`NodeKind::Excess`] node counts as a leaf: final outputs, and —
/// after partitioning — unknown-volume separations whose consumers were
/// cut. Leaves absent from `weights` default to 1; weights must be
/// positive.
///
/// # Errors
///
/// See [`VnormError`].
pub fn compute_weighted(
    dag: &Dag,
    weights: &HashMap<NodeId, Ratio>,
) -> Result<VnormTable, VnormError> {
    dag.validate()?;
    let order = dag.topological_order()?;
    let mut table = VnormTable {
        node: vec![Ratio::ZERO; dag.num_nodes()],
        edge: vec![Ratio::ZERO; dag.num_edges()],
        load: vec![Ratio::ZERO; dag.num_nodes()],
    };
    let mut leaves = 0usize;
    for &id in order.iter().rev() {
        if eval_node(&mut table, dag, weights, id, |_| {})? {
            leaves += 1;
        }
    }
    if leaves == 0 {
        return Err(VnormError::NoOutputs);
    }
    for id in dag.node_ids() {
        refresh_load(&mut table, dag, id)?;
    }
    Ok(table)
}

/// Evaluates one node from its consumers' final edge Vnorms: the node's
/// own Vnorm, its excess out-edges and their sinks, and its in-edges.
/// `moved` sees every in-edge whose Vnorm changed. Returns whether the
/// node is a leaf.
fn eval_node(
    table: &mut VnormTable,
    dag: &Dag,
    weights: &HashMap<NodeId, Ratio>,
    id: NodeId,
    mut moved: impl FnMut(EdgeId),
) -> Result<bool, VnormError> {
    let node = dag.node(id);
    if node.kind == NodeKind::Excess {
        return Ok(false); // assigned by its producer, below
    }
    let outs = dag.out_edges(id);
    let leaf = outs.is_empty();
    if leaf {
        if node.kind.is_source() {
            // An input nobody uses: load nothing.
            table.node[id.index()] = Ratio::ZERO;
            return Ok(false);
        }
        // Leaf: pinned by weight (default 1).
        table.node[id.index()] = weights.get(&id).copied().unwrap_or(Ratio::ONE);
    } else {
        // Fig. 4, line 5 — plus the excess refinement of §3.4.1.
        let mut useful = Ratio::ZERO;
        let mut discard_share = Ratio::ZERO;
        for &e in outs {
            let edge = dag.edge(e);
            if dag.node(edge.dst).kind == NodeKind::Excess {
                discard_share = discard_share.checked_add(edge.fraction)?;
            } else {
                useful = useful.checked_add(table.edge[e.index()])?;
            }
        }
        if discard_share >= Ratio::ONE {
            return Err(VnormError::ExcessShareTooLarge {
                node: node.name.clone(),
            });
        }
        let total = useful.checked_div(Ratio::ONE.checked_sub(discard_share)?)?;
        table.node[id.index()] = total;
        for &e in outs {
            let edge = dag.edge(e);
            if dag.node(edge.dst).kind == NodeKind::Excess {
                let v = edge.fraction.checked_mul(total)?;
                table.edge[e.index()] = v;
                table.node[edge.dst.index()] = v;
            }
        }
    }
    // Fig. 4, line 7: propagate demand to in-edges, adjusted for the
    // node's output-to-input relation.
    let demand = match &node.kind {
        NodeKind::Separate { fraction: Some(f) } => table.node[id.index()].checked_div(*f)?,
        NodeKind::Separate { fraction: None } => {
            if !leaf {
                return Err(VnormError::UnknownVolumeInterior {
                    node: node.name.clone(),
                });
            }
            // As a partition sink, the unknown node's *input* is what
            // gets normalized; demand equals its pinned Vnorm.
            table.node[id.index()]
        }
        _ => table.node[id.index()],
    };
    for &e in dag.in_edges(id) {
        let v = dag.edge(e).fraction.checked_mul(demand)?;
        if table.edge[e.index()] != v {
            table.edge[e.index()] = v;
            moved(e);
        }
    }
    Ok(leaf)
}

/// Loads: what capacity must hold at each node.
fn refresh_load(table: &mut VnormTable, dag: &Dag, id: NodeId) -> Result<(), VnormError> {
    let in_sum = Ratio::checked_sum(dag.in_edges(id).iter().map(|&e| table.edge[e.index()]))?;
    table.load[id.index()] = in_sum.max(table.node[id.index()]);
    Ok(())
}

/// Brings `table` up to date after `dag` changed at `seeds`, and
/// returns how many nodes it re-evaluated.
///
/// `table` must be exact for the graph before the change, and `seeds`
/// must hold every node whose own inputs changed: a node with new
/// fractions or a new output weight, a node the change created, and
/// every node that gained or lost an out-edge (for a rewrite: its
/// target, the nodes it created, and their in-edge sources). The
/// update walks reverse topological order (`topo_pos` from
/// [`Dag::topo_positions`] on the changed graph) outward from the
/// seeds and re-evaluates a node's producers only through in-edges
/// whose Vnorm moved, so the work is proportional to what changed, not
/// to the DAG. The result equals [`compute_weighted`] on the changed
/// graph: every value comes from one local rule over the node's
/// consumers, and a node none of whose inputs moved keeps its value.
///
/// # Errors
///
/// Same conditions as [`compute_weighted`]'s pass (the caller already
/// holds validation and the topological order), reported for the same
/// node; the table is then partially updated and must be discarded.
pub fn recompute_weighted(
    table: &mut VnormTable,
    dag: &Dag,
    weights: &HashMap<NodeId, Ratio>,
    seeds: &[NodeId],
    topo_pos: &[usize],
) -> Result<usize, VnormError> {
    table.node.resize(dag.num_nodes(), Ratio::ZERO);
    table.load.resize(dag.num_nodes(), Ratio::ZERO);
    table.edge.resize(dag.num_edges(), Ratio::ZERO);
    let mut pending = Pending::new(dag.num_nodes(), topo_pos, seeds);
    let mut evaluated = 0;
    while let Some(id) = pending.pop() {
        evaluated += 1;
        eval_node(table, dag, weights, id, |e| pending.push(dag.edge(e).src))?;
        refresh_load(table, dag, id)?;
        for &e in dag.out_edges(id) {
            let dst = dag.edge(e).dst;
            if dag.node(dst).kind == NodeKind::Excess {
                refresh_load(table, dag, dst)?;
            }
        }
    }
    Ok(evaluated)
}

/// A reverse-topological worklist: pops the queued node with the
/// highest topological position, so every node comes out after all
/// its queued consumers, and never queues a node twice.
pub(crate) struct Pending<'a> {
    heap: BinaryHeap<(usize, NodeId)>,
    queued: Vec<bool>,
    topo_pos: &'a [usize],
}

impl<'a> Pending<'a> {
    pub(crate) fn new(nodes: usize, topo_pos: &'a [usize], seeds: &[NodeId]) -> Pending<'a> {
        let mut pending = Pending {
            heap: BinaryHeap::with_capacity(seeds.len()),
            queued: vec![false; nodes],
            topo_pos,
        };
        for &id in seeds {
            pending.push(id);
        }
        pending
    }

    pub(crate) fn push(&mut self, id: NodeId) {
        if !std::mem::replace(&mut self.queued[id.index()], true) {
            self.heap.push((self.topo_pos[id.index()], id));
        }
    }

    pub(crate) fn pop(&mut self) -> Option<NodeId> {
        self.heap.pop().map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    /// Figure 2 / Figure 5(a): the paper's worked Vnorm numbers.
    #[test]
    fn figure5_vnorms_are_exact() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let c = d.add_input("C");
        let k = d.add_mix("K", &[(a, 1), (b, 4)], 0).unwrap();
        let l = d.add_mix("L", &[(b, 2), (c, 1)], 0).unwrap();
        let m = d.add_mix("M", &[(k, 2), (l, 1)], 0).unwrap();
        let n = d.add_mix("N", &[(l, 2), (c, 3)], 0).unwrap();
        d.add_output("M_out", m);
        d.add_output("N_out", n);
        let t = compute(&d).unwrap();

        // Outputs pinned to 1; M and N conserve flow.
        assert_eq!(t.node[m.index()], Ratio::ONE);
        assert_eq!(t.node[n.index()], Ratio::ONE);
        // L feeds 1/3 of M and 2/5 of N: Vnorm = 1/3 + 2/5 = 11/15.
        assert_eq!(t.node[l.index()], r(11, 15));
        // K feeds 2/3 of M.
        assert_eq!(t.node[k.index()], r(2, 3));
        // Edge B->L = 2/3 * 11/15 = 22/45; C->L = 11/45 (paper's example).
        let b_l = d
            .in_edges(l)
            .iter()
            .find(|&&e| d.edge(e).src == b)
            .copied()
            .unwrap();
        let c_l = d
            .in_edges(l)
            .iter()
            .find(|&&e| d.edge(e).src == c)
            .copied()
            .unwrap();
        assert_eq!(t.edge[b_l.index()], r(22, 45));
        assert_eq!(t.edge[c_l.index()], r(11, 45));
        // B is used in K (4/5 * 2/3 = 8/15) and L (22/45): 24/45+22/45=46/45.
        assert_eq!(t.node[b.index()], r(46, 45));
        // A = 1/5 * 2/3 = 2/15.
        assert_eq!(t.node[a.index()], r(2, 15));
        // C = 11/45 + 3/5 * 1 = 11/45 + 27/45 = 38/45.
        assert_eq!(t.node[c.index()], r(38, 45));
        // B carries the maximum load.
        assert_eq!(t.max_load(), r(46, 45));
    }

    #[test]
    fn separation_fraction_inflates_input_demand() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let s = d.add_separate("sep", a, Some(r(1, 4)));
        d.add_output("o", s);
        let t = compute(&d).unwrap();
        // Output needs 1, separation keeps 1/4 => input edge needs 4.
        assert_eq!(t.node[s.index()], Ratio::ONE);
        assert_eq!(t.edge[d.in_edges(s)[0].index()], Ratio::from_int(4));
        assert_eq!(t.node[a.index()], Ratio::from_int(4));
        // The separator's load is its input (4), not its output (1).
        assert_eq!(t.load[s.index()], Ratio::from_int(4));
        assert_eq!(t.max_load(), Ratio::from_int(4));
    }

    #[test]
    fn excess_nodes_scale_producer_vnorm() {
        // Cascaded 1:99 as in Figure 7: C' = A:B 1:9 with 9/10 excess,
        // C = C':B 1:9.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let c1 = d.add_mix("C'", &[(a, 1), (b, 9)], 0).unwrap();
        d.add_excess("ex", c1, r(9, 10));
        let c = d.add_mix("C", &[(c1, 1), (b, 9)], 0).unwrap();
        d.add_output("o", c);
        let t = compute(&d).unwrap();
        assert_eq!(t.node[c.index()], Ratio::ONE);
        // C' supplies 1/10 of C but produces 10x that due to excess:
        // V(C') = (1/10) / (1 - 9/10) = 1.
        assert_eq!(t.node[c1.index()], Ratio::ONE);
        // A's metered volume into C' is 1/10 — 10x the direct 1/100.
        let a_edge = d.in_edges(c1)[0];
        assert_eq!(t.edge[a_edge.index()], r(1, 10));
    }

    #[test]
    fn weighted_outputs_shift_allocation() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let p1 = d.add_process("p1", "incubate", a);
        let p2 = d.add_process("p2", "incubate", a);
        let o1 = d.add_output("o1", p1);
        d.add_output("o2", p2);
        let mut w = HashMap::new();
        w.insert(o1, Ratio::from_int(3));
        let t = compute_weighted(&d, &w).unwrap();
        assert_eq!(t.node[o1.index()], Ratio::from_int(3));
        assert_eq!(t.node[a.index()], Ratio::from_int(4));
    }

    #[test]
    fn interior_unknown_volume_is_rejected() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let s = d.add_separate("sep", a, None);
        d.add_output("o", s);
        assert!(matches!(
            compute(&d),
            Err(VnormError::UnknownVolumeInterior { .. })
        ));
    }

    #[test]
    fn sink_unknown_volume_is_a_leaf() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1)], 0).unwrap();
        let s = d.add_separate("sep", m, None);
        let t = compute(&d).unwrap();
        assert_eq!(t.node[s.index()], Ratio::ONE);
        assert_eq!(t.node[m.index()], Ratio::ONE);
        assert_eq!(t.node[a.index()], r(1, 2));
    }

    #[test]
    fn empty_dag_has_no_outputs() {
        let d = Dag::new();
        assert!(matches!(compute(&d), Err(VnormError::NoOutputs)));
    }

    /// The seeds of a ratio edit at `node`: the mix and its producers.
    fn ratio_edit_seeds(d: &Dag, node: NodeId) -> Vec<NodeId> {
        let mut seeds = vec![node];
        seeds.extend(d.in_edges(node).iter().map(|&e| d.edge(e).src));
        seeds
    }

    /// Edits an in-edge fraction pair and updates from the edit's
    /// seeds: the table must match a fresh full pass exactly.
    #[test]
    fn seeded_update_after_a_ratio_edit_matches_fresh_pass() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let c = d.add_input("C");
        let k = d.add_mix("K", &[(a, 1), (b, 4)], 0).unwrap();
        let l = d.add_mix("L", &[(b, 2), (c, 1)], 0).unwrap();
        let m = d.add_mix("M", &[(k, 2), (l, 1)], 0).unwrap();
        let n = d.add_mix("N", &[(l, 2), (c, 3)], 0).unwrap();
        d.add_output("M_out", m);
        d.add_output("N_out", n);
        let mut table = compute(&d).unwrap();

        // Edit K's ratio from 1:4 to 3:2.
        let ins: Vec<_> = d.in_edges(k).to_vec();
        d.set_edge_fraction(ins[0], r(3, 5));
        d.set_edge_fraction(ins[1], r(2, 5));

        let pos = d.topo_positions().unwrap();
        let seeds = ratio_edit_seeds(&d, k);
        let evaluated = recompute_weighted(&mut table, &d, &HashMap::new(), &seeds, &pos).unwrap();
        assert_eq!(table, compute(&d).unwrap());
        // K's own Vnorm did not move, so only K and its producers A, B
        // were re-evaluated.
        assert_eq!(evaluated, 3);
    }

    /// A weight edit is seeded at the output leaf alone.
    #[test]
    fn seeded_update_applies_weight_changes() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let p1 = d.add_process("p1", "incubate", a);
        let p2 = d.add_process("p2", "incubate", a);
        let o1 = d.add_output("o1", p1);
        d.add_output("o2", p2);
        let mut table = compute(&d).unwrap();
        let mut w = HashMap::new();
        w.insert(o1, Ratio::from_int(3));
        let pos = d.topo_positions().unwrap();
        recompute_weighted(&mut table, &d, &w, &[o1], &pos).unwrap();
        assert_eq!(table, compute_weighted(&d, &w).unwrap());
    }

    /// The update refreshes producer-assigned excess consumers too.
    #[test]
    fn seeded_update_refreshes_excess_consumers() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let c1 = d.add_mix("C'", &[(a, 1), (b, 9)], 0).unwrap();
        d.add_excess("ex", c1, r(9, 10));
        let c = d.add_mix("C", &[(c1, 1), (b, 9)], 0).unwrap();
        d.add_output("o", c);
        let mut table = compute(&d).unwrap();
        let ins: Vec<_> = d.in_edges(c).to_vec();
        d.set_edge_fraction(ins[0], r(1, 5));
        d.set_edge_fraction(ins[1], r(4, 5));
        let pos = d.topo_positions().unwrap();
        let seeds = ratio_edit_seeds(&d, c);
        recompute_weighted(&mut table, &d, &HashMap::new(), &seeds, &pos).unwrap();
        assert_eq!(table, compute(&d).unwrap());
    }

    /// A rewrite grows the DAG: the update takes in the new nodes and
    /// edges from the rewrite's seeds, and equals a full pass.
    #[test]
    fn seeded_update_after_a_cascade_matches_fresh_pass() {
        let machine = crate::Machine::paper_default();
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1999)], 0).unwrap();
        let n = d.add_mix("n", &[(m, 1), (b, 1)], 0).unwrap();
        d.add_output("o", n);
        let mut table = compute(&d).unwrap();
        let before = d.num_nodes();
        crate::cascade::apply_cascade(&mut d, m, &machine).unwrap();
        let mut seeds: Vec<NodeId> = std::iter::once(m)
            .chain(d.node_ids().skip(before))
            .collect();
        let sources: Vec<NodeId> = seeds
            .iter()
            .flat_map(|&s| d.in_edges(s).iter().map(|&e| d.edge(e).src))
            .collect();
        seeds.extend(sources);
        let pos = d.topo_positions().unwrap();
        recompute_weighted(&mut table, &d, &HashMap::new(), &seeds, &pos).unwrap();
        assert_eq!(table, compute(&d).unwrap());
    }

    #[test]
    fn full_excess_discard_is_rejected() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let p = d.add_process("p", "incubate", a);
        d.add_excess("ex", p, Ratio::ONE);
        // p has only the excess consumer: useful = 0, share = 1.
        assert!(matches!(
            compute(&d),
            Err(VnormError::ExcessShareTooLarge { .. }) | Err(VnormError::NoOutputs)
        ));
    }
}
