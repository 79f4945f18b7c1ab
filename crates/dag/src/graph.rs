//! Core graph structure: nodes, edges, traversal.

use std::fmt;

use aqua_rational::Ratio;

use crate::validate::DagError;

/// Handle to a node of a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Zero-based index of the node.
    pub fn index(self) -> usize {
        self.0
    }

    /// The handle of node `index`: a DAG numbers its nodes in the order
    /// they were added.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle to an edge of a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// Zero-based index of the edge.
    pub fn index(self) -> usize {
        self.0
    }

    /// The handle of edge `index`: a DAG numbers its edges in the order
    /// they were added.
    pub fn from_index(index: usize) -> EdgeId {
        EdgeId(index)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What operation a node performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An external fluid source: the assay may load up to the machine's
    /// capacity of this fluid.
    Input,
    /// A volume-aggregating operation (mix): output volume equals the
    /// sum of input volumes, combined in the in-edge fractions.
    Mix {
        /// Wet-path duration in seconds (informational).
        seconds: u64,
    },
    /// A pass-through operation (incubate, sense target, heat):
    /// single input, output volume equals input volume.
    Process {
        /// Operation label, e.g. `"incubate"`.
        op: String,
    },
    /// A separation step: output volume is `fraction` of the input when
    /// known at compile time, or measured at run time when `None`
    /// (the statically-unknown case of §3.5).
    Separate {
        /// Known output-to-input fraction, or `None` for run-time
        /// measurement.
        fraction: Option<Ratio>,
    },
    /// A final output of the assay (leaf).
    Output,
    /// Discarded excess introduced by cascading (§3.4.1); its Vnorm is
    /// derived from its source node rather than from consumers.
    Excess,
    /// A constrained input introduced by DAG partitioning (§3.5): its
    /// available volume is fixed (by a run-time measurement or a
    /// conservative split), not free like a true input.
    ConstrainedInput,
}

impl NodeKind {
    /// Whether nodes of this kind act as sources (no in-edges).
    pub fn is_source(&self) -> bool {
        matches!(self, NodeKind::Input | NodeKind::ConstrainedInput)
    }

    /// Whether nodes of this kind act as sinks (no out-edges).
    pub fn is_sink(&self) -> bool {
        matches!(self, NodeKind::Output | NodeKind::Excess)
    }
}

/// One node of the assay DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable name (fluid or operation label).
    pub name: String,
    /// The operation this node performs.
    pub kind: NodeKind,
    pub(crate) in_edges: Vec<EdgeId>,
    pub(crate) out_edges: Vec<EdgeId>,
}

/// One edge of the assay DAG: fluid produced by `src` consumed by `dst`.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producing node.
    pub src: NodeId,
    /// Consuming node.
    pub dst: NodeId,
    /// Fraction of `dst`'s total input contributed by this fluid; the
    /// in-edge fractions of every node sum to 1.
    pub fraction: Ratio,
}

/// The assay DAG. See the crate docs for the model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dag {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
}

impl Dag {
    /// Creates an empty DAG.
    pub fn new() -> Dag {
        Dag::default()
    }

    /// Creates an empty DAG with room for `nodes` nodes and `edges`
    /// edges, for builders that know the final size.
    pub fn with_capacity(nodes: usize, edges: usize) -> Dag {
        Dag {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this DAG.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Moves the names of `ids` out of the DAG, in that order, leaving
    /// those nodes unnamed: a caller done with the DAG keeps its names
    /// without copying them.
    ///
    /// # Panics
    ///
    /// Panics if an id does not belong to this DAG.
    pub fn take_names(&mut self, ids: &[NodeId]) -> Vec<String> {
        ids.iter()
            .map(|id| std::mem::take(&mut self.nodes[id.0].name))
            .collect()
    }

    /// The edge behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this DAG.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// In-edges of a node (order of insertion).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this DAG.
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.nodes[id.0].in_edges
    }

    /// Out-edges of a node (order of insertion).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this DAG.
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.nodes[id.0].out_edges
    }

    /// Iterates over all node handles.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over all edge handles.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Finds a node by name (first match).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// The number of uses of a node's output fluid (its out-degree).
    pub fn num_uses(&self, id: NodeId) -> usize {
        self.nodes[id.0].out_edges.len()
    }

    /// Nodes in topological order (sources first).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cycle`] if the graph has a cycle (which would
    /// mean a malformed assay).
    pub fn topological_order(&self) -> Result<Vec<NodeId>, DagError> {
        let n = self.nodes.len();
        let mut indegree: Vec<usize> = self.nodes.iter().map(|nd| nd.in_edges.len()).collect();
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indegree[i] == 0).map(NodeId).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop() {
            order.push(id);
            for &e in &self.nodes[id.0].out_edges {
                let d = self.edges[e.0].dst;
                indegree[d.0] -= 1;
                if indegree[d.0] == 0 {
                    queue.push(d);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(DagError::Cycle)
        }
    }

    /// All output (leaf) nodes.
    pub fn outputs(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.node(id).kind == NodeKind::Output)
            .collect()
    }

    /// All input (source) nodes, including constrained inputs.
    pub fn inputs(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.node(id).kind.is_source())
            .collect()
    }

    /// Adds a raw node. Prefer the typed builders in the `build` module
    /// ([`Dag::add_input`], [`Dag::add_mix`], ...), which maintain the
    /// fraction invariants.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            kind,
            in_edges: Vec::new(),
            out_edges: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a raw edge with an explicit fraction. Prefer the typed
    /// builders, which compute fractions from mix ratios.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, fraction: Ratio) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, fraction });
        self.nodes[src.0].out_edges.push(id);
        self.nodes[dst.0].in_edges.push(id);
        id
    }

    /// Re-points an edge's source to another node, keeping its fraction.
    ///
    /// Used by static replication to redistribute uses among replicas.
    ///
    /// # Panics
    ///
    /// Panics if either id is stale.
    pub fn redirect_edge_src(&mut self, edge: EdgeId, new_src: NodeId) {
        let old_src = self.edges[edge.0].src;
        self.nodes[old_src.0].out_edges.retain(|&e| e != edge);
        self.edges[edge.0].src = new_src;
        self.nodes[new_src.0].out_edges.push(edge);
    }

    /// Overwrites an edge's fraction; the caller is responsible for
    /// keeping the destination's fractions normalized (checked by
    /// [`Dag::validate`]). Used by cascading's final-stage rewiring.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is stale.
    pub fn set_edge_fraction(&mut self, edge: EdgeId, fraction: Ratio) {
        self.edges[edge.0].fraction = fraction;
    }

    /// Removes an edge (used by partitioning's edge cuts). The edge id
    /// is invalidated; other ids remain stable.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is stale.
    pub fn cut_edge(&mut self, edge: EdgeId) -> Edge {
        let e = self.edges[edge.0].clone();
        self.nodes[e.src.0].out_edges.retain(|&x| x != edge);
        self.nodes[e.dst.0].in_edges.retain(|&x| x != edge);
        // Mark the slot dead by making it a self-loop on a sentinel
        // fraction; traversals never see it because no node lists it.
        self.edges[edge.0].fraction = Ratio::ZERO;
        e
    }

    /// Whether an edge is still attached (not cut).
    ///
    /// [`Dag::add_edge`], [`Dag::redirect_edge_src`] and
    /// [`Dag::cut_edge`] are the only mutators of the adjacency lists,
    /// and each keeps an edge in both its source's out-list and its
    /// destination's in-list or in neither. So every edge a node lists
    /// is live, and this scans the destination's in-list, which is
    /// bounded by a mix's arity, not the source's out-list, which grows
    /// with its uses.
    pub fn edge_is_live(&self, edge: EdgeId) -> bool {
        let e = &self.edges[edge.0];
        self.nodes[e.dst.0].in_edges.contains(&edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topological_order_respects_edges() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let k = d.add_mix("K", &[(a, 1), (b, 1)], 0).unwrap();
        let o = d.add_output("out", k);
        let order = d.topological_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(k));
        assert!(pos(b) < pos(k));
        assert!(pos(k) < pos(o));
    }

    #[test]
    fn cycle_is_detected() {
        let mut d = Dag::new();
        let x = d.add_node("x", NodeKind::Process { op: "p".into() });
        let y = d.add_node("y", NodeKind::Process { op: "p".into() });
        d.add_edge(x, y, Ratio::ONE);
        d.add_edge(y, x, Ratio::ONE);
        assert!(matches!(d.topological_order(), Err(DagError::Cycle)));
    }

    #[test]
    fn redirect_edge_src_moves_use() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let a2 = d.add_input("A2");
        let b = d.add_input("B");
        let k = d.add_mix("K", &[(a, 1), (b, 1)], 0).unwrap();
        d.add_output("out", k);
        let e = d.in_edges(k)[0];
        assert_eq!(d.edge(e).src, a);
        d.redirect_edge_src(e, a2);
        assert_eq!(d.edge(e).src, a2);
        assert_eq!(d.num_uses(a), 0);
        assert_eq!(d.num_uses(a2), 1);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn cut_edge_detaches() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let p = d.add_process("heat", "incubate", a);
        d.add_output("out", p);
        let e = d.in_edges(p)[0];
        let cut = d.cut_edge(e);
        assert_eq!(cut.src, a);
        assert_eq!(d.num_uses(a), 0);
        assert!(d.in_edges(p).is_empty());
        assert!(!d.edge_is_live(e));
    }

    /// Seeded random add/redirect/cut scripts: after every step, an
    /// edge is live exactly when its source lists it as an out-edge and
    /// exactly when its destination lists it as an in-edge, and every
    /// listed edge is live.
    #[test]
    fn liveness_matches_both_adjacency_lists_under_random_edits() {
        use aqua_rational::rng::XorShift64Star;
        for seed in 1..=32u64 {
            let mut rng = XorShift64Star::new(seed);
            let mut d = Dag::new();
            let n = 2 + rng.index(12);
            let nodes: Vec<NodeId> = (0..n)
                .map(|i| d.add_node(format!("v{i}"), NodeKind::Mix { seconds: 0 }))
                .collect();
            for _ in 0..300 {
                let live: Vec<EdgeId> = d.edge_ids().filter(|&e| d.edge_is_live(e)).collect();
                match rng.index(5) {
                    0 | 1 => {
                        let (a, b) = (nodes[rng.index(n)], nodes[rng.index(n)]);
                        d.add_edge(a, b, Ratio::ONE);
                    }
                    // Redirecting needs a live id (a cut id is stale).
                    2 if !live.is_empty() => {
                        d.redirect_edge_src(live[rng.index(live.len())], nodes[rng.index(n)]);
                    }
                    3 if d.num_edges() > 0 => {
                        d.cut_edge(EdgeId(rng.index(d.num_edges())));
                    }
                    _ => {}
                }
                for e in d.edge_ids() {
                    let edge = d.edge(e);
                    let in_out = d.out_edges(edge.src).contains(&e);
                    let in_in = d.in_edges(edge.dst).contains(&e);
                    assert_eq!(d.edge_is_live(e), in_out, "seed {seed}, {e}");
                    assert_eq!(d.edge_is_live(e), in_in, "seed {seed}, {e}");
                }
                for id in d.node_ids() {
                    for &e in d.in_edges(id).iter().chain(d.out_edges(id)) {
                        assert!(d.edge_is_live(e), "seed {seed}: {id} lists dead {e}");
                    }
                }
            }
        }
    }

    /// 128 seeded random DAGs: 2–4 inputs, then 1–7 mixes of 2–3 draws
    /// (parts 1–9) from every node built so far, and a sense step on
    /// each product nothing consumes.
    fn random_dags() -> impl Iterator<Item = (u64, Dag)> {
        use aqua_rational::rng::XorShift64Star;
        (0..128u64).map(|seed| {
            let mut rng = XorShift64Star::new(seed);
            let mut d = Dag::new();
            let inputs = rng.range_u64(2, 4);
            let mut pool: Vec<NodeId> =
                (0..inputs).map(|i| d.add_input(format!("in{i}"))).collect();
            for i in 0..rng.range_u64(1, 7) {
                let mut parts: Vec<(NodeId, u64)> = Vec::new();
                for _ in 0..rng.range_u64(2, 3) {
                    let (node, w) = (pool[rng.index(pool.len())], rng.range_u64(1, 9));
                    match parts.iter_mut().find(|(n, _)| *n == node) {
                        Some(part) => part.1 += w,
                        None => parts.push((node, w)),
                    }
                }
                pool.push(d.add_mix(format!("m{i}"), &parts, 0).unwrap());
            }
            let leaves: Vec<NodeId> = d
                .node_ids()
                .filter(|&n| d.out_edges(n).is_empty() && !d.in_edges(n).is_empty())
                .collect();
            for (i, l) in leaves.into_iter().enumerate() {
                d.add_process(format!("s{i}"), "sense.OD", l);
            }
            (seed, d)
        })
    }

    #[test]
    fn random_dags_validate() {
        for (seed, d) in random_dags() {
            assert!(d.validate().is_ok(), "seed {seed}: {:?}", d.validate());
        }
    }

    #[test]
    fn in_edge_fractions_sum_to_one() {
        for (seed, d) in random_dags() {
            for n in d.node_ids().filter(|&n| !d.in_edges(n).is_empty()) {
                let sum = Ratio::checked_sum(d.in_edges(n).iter().map(|&e| d.edge(e).fraction));
                assert_eq!(sum, Ok(Ratio::ONE), "seed {seed}, {n}");
            }
        }
    }

    #[test]
    fn topological_order_is_consistent() {
        for (seed, d) in random_dags() {
            let order = d.topological_order().unwrap();
            assert_eq!(order.len(), d.num_nodes(), "seed {seed}");
            let mut pos = vec![0; d.num_nodes()];
            for (i, n) in order.into_iter().enumerate() {
                pos[n.index()] = i;
            }
            for e in d.edge_ids() {
                let edge = d.edge(e);
                assert!(
                    pos[edge.src.index()] < pos[edge.dst.index()],
                    "seed {seed}, {e}"
                );
            }
        }
    }

    #[test]
    fn backward_slice_contains_all_ancestors() {
        for (seed, d) in random_dags() {
            for n in d.node_ids() {
                let slice = d.backward_slice(n);
                for &e in d.in_edges(n) {
                    assert!(slice.contains(&d.edge(e).src), "seed {seed}, {n}");
                }
                for &m in &slice {
                    assert!(
                        m == n || d.reaches(m, n),
                        "seed {seed}: {m} does not reach {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn cut_edges_disappear_from_adjacency() {
        for (seed, mut d) in random_dags() {
            let e = d.edge_ids().find(|&e| d.edge_is_live(e)).unwrap();
            let edge = d.cut_edge(e);
            assert!(!d.edge_is_live(e), "seed {seed}");
            assert!(!d.out_edges(edge.src).contains(&e), "seed {seed}");
            assert!(!d.in_edges(edge.dst).contains(&e), "seed {seed}");
        }
    }

    #[test]
    fn dot_mentions_every_node() {
        for (seed, d) in random_dags() {
            let dot = d.to_dot("g");
            for n in d.node_ids() {
                let needle = format!("label=\"{}\"", d.node(n).name);
                assert!(dot.contains(&needle), "seed {seed}: missing {needle}");
            }
        }
    }

    #[test]
    fn find_node_by_name() {
        let mut d = Dag::new();
        let a = d.add_input("Glucose");
        assert_eq!(d.find_node("Glucose"), Some(a));
        assert_eq!(d.find_node("missing"), None);
    }
}
