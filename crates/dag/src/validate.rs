//! Structural validation of assay DAGs.

use std::error::Error;
use std::fmt;

use aqua_rational::Ratio;

use crate::graph::{Dag, EdgeId, NodeId, NodeKind};

/// Structural error in an assay DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagError {
    /// The graph contains a cycle.
    Cycle,
    /// A node's in-degree is invalid for its kind.
    BadInDegree {
        /// The offending node's name.
        node: String,
        /// Its actual in-degree.
        found: usize,
        /// Human-readable expectation.
        expected: &'static str,
    },
    /// A node's out-degree is invalid for its kind.
    BadOutDegree {
        /// The offending node's name.
        node: String,
        /// Its actual out-degree.
        found: usize,
        /// Human-readable expectation.
        expected: &'static str,
    },
    /// A node's in-edge fractions do not sum to one.
    FractionsNotNormalized {
        /// The offending node's name.
        node: String,
        /// The actual sum.
        sum: Ratio,
    },
    /// An edge fraction is zero or negative.
    NonPositiveFraction {
        /// The offending edge's source node name.
        src: String,
        /// The offending edge's destination node name.
        dst: String,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Cycle => write!(f, "assay graph contains a cycle"),
            DagError::BadInDegree {
                node,
                found,
                expected,
            } => write!(
                f,
                "node `{node}` has in-degree {found}, expected {expected}"
            ),
            DagError::BadOutDegree {
                node,
                found,
                expected,
            } => write!(
                f,
                "node `{node}` has out-degree {found}, expected {expected}"
            ),
            DagError::FractionsNotNormalized { node, sum } => write!(
                f,
                "in-edge fractions of node `{node}` sum to {sum}, expected 1"
            ),
            DagError::NonPositiveFraction { src, dst } => {
                write!(f, "edge {src} -> {dst} has a non-positive fraction")
            }
        }
    }
}

impl Error for DagError {}

impl Dag {
    /// Checks structural invariants:
    ///
    /// * acyclicity;
    /// * source kinds (input, constrained input) have no in-edges, sink
    ///   kinds (output, excess) have no out-edges and exactly one in-edge;
    /// * process/separate nodes have exactly one in-edge; mixes at least
    ///   one;
    /// * every node's in-edge fractions sum to 1 (excess edges excepted —
    ///   their fraction is a share of the *source*, not of the sink's
    ///   input);
    /// * all fractions are strictly positive.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), DagError> {
        self.topological_order()?;
        for id in self.node_ids() {
            self.validate_node(id)?;
        }
        self.edge_ids().try_for_each(|eid| self.validate_edge(eid))
    }

    /// [`Dag::validate`]'s node and edge checks for `nodes` and their
    /// in-edges only (cycles are [`Dag::topological_order`]'s job). For
    /// a graph that passed [`Dag::validate`] and then changed only at
    /// `nodes` — new nodes, new or re-pointed in-edges, new fractions —
    /// this returns exactly what a full validation would: the checks
    /// run in the same order (nodes by id, then edges by id), and every
    /// other node and edge still passes.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate_nodes(&self, nodes: &[NodeId]) -> Result<(), DagError> {
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        for &id in &nodes {
            self.validate_node(id)?;
        }
        let mut edges: Vec<EdgeId> = nodes
            .iter()
            .flat_map(|&id| self.in_edges(id).iter().copied())
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges.into_iter().try_for_each(|e| self.validate_edge(e))
    }

    fn validate_edge(&self, eid: EdgeId) -> Result<(), DagError> {
        let e = self.edge(eid);
        if e.fraction.is_positive() {
            Ok(())
        } else {
            Err(DagError::NonPositiveFraction {
                src: self.node(e.src).name.clone(),
                dst: self.node(e.dst).name.clone(),
            })
        }
    }

    fn validate_node(&self, id: NodeId) -> Result<(), DagError> {
        let node = self.node(id);
        let ins = self.in_edges(id).len();
        let outs = self.out_edges(id).len();
        let bad_in = |expected| {
            Err(DagError::BadInDegree {
                node: node.name.clone(),
                found: ins,
                expected,
            })
        };
        let bad_out = |expected| {
            Err(DagError::BadOutDegree {
                node: node.name.clone(),
                found: outs,
                expected,
            })
        };
        match &node.kind {
            NodeKind::Input | NodeKind::ConstrainedInput => {
                if ins != 0 {
                    return bad_in("0 (source node)");
                }
            }
            NodeKind::Mix { .. } => {
                if ins == 0 {
                    return bad_in("at least 1");
                }
            }
            NodeKind::Process { .. } | NodeKind::Separate { .. } => {
                if ins != 1 {
                    return bad_in("exactly 1");
                }
            }
            NodeKind::Output | NodeKind::Excess => {
                if ins != 1 {
                    return bad_in("exactly 1");
                }
                if outs != 0 {
                    return bad_out("0 (sink node)");
                }
            }
        }
        // Fraction normalization: the in-edge fractions of a node must
        // sum to 1 — except sinks fed by excess edges, whose fraction is
        // relative to the source.
        if ins > 0 && node.kind != NodeKind::Excess {
            let sum = Ratio::checked_sum(self.in_edges(id).iter().map(|&e| self.edge(e).fraction))
                .map_err(|_| DagError::FractionsNotNormalized {
                    node: node.name.clone(),
                    sum: Ratio::ZERO,
                })?;
            if sum != Ratio::ONE {
                return Err(DagError::FractionsNotNormalized {
                    node: node.name.clone(),
                    sum,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_figure2_dag_passes() {
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
        assert!(d.validate().is_ok());
    }

    #[test]
    fn input_with_in_edge_fails() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        d.add_edge(a, b, Ratio::ONE);
        assert!(matches!(d.validate(), Err(DagError::BadInDegree { .. })));
    }

    #[test]
    fn output_with_out_edge_fails() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let o = d.add_output("out", a);
        let p = d.add_node("p", NodeKind::Process { op: "x".into() });
        d.add_edge(o, p, Ratio::ONE);
        assert!(matches!(d.validate(), Err(DagError::BadOutDegree { .. })));
    }

    #[test]
    fn unnormalized_fractions_fail() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_node("m", NodeKind::Mix { seconds: 0 });
        d.add_edge(a, m, Ratio::new(1, 2).unwrap());
        d.add_edge(b, m, Ratio::new(1, 3).unwrap()); // sums to 5/6
        d.add_output("o", m);
        assert!(matches!(
            d.validate(),
            Err(DagError::FractionsNotNormalized { .. })
        ));
    }

    #[test]
    fn excess_edges_are_exempt_from_normalization() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("c'", &[(a, 1), (b, 9)], 0).unwrap();
        // 9/10 of c' discarded.
        d.add_excess("ex", m, Ratio::new(9, 10).unwrap());
        let m2 = d
            .add_mix_exact("c", &[(m, Ratio::ONE), (b, Ratio::from_int(9))], 0)
            .unwrap();
        d.add_output("o", m2);
        assert!(d.validate().is_ok());
    }

    /// After a valid graph changes at some nodes, checking just those
    /// reports what a full validation reports, in the same order.
    #[test]
    fn validating_changed_nodes_matches_a_full_validation() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let k = d.add_mix("K", &[(a, 1), (b, 4)], 0).unwrap();
        let m = d.add_mix("M", &[(k, 1), (b, 1)], 0).unwrap();
        d.add_output("o", m);
        assert_eq!(d.validate_nodes(&[m, k]), Ok(()));
        // Break M's fractions and add a process with no input.
        let ins = d.in_edges(m).to_vec();
        d.set_edge_fraction(ins[0], Ratio::ZERO);
        let c = d.add_input("C");
        let p = d.add_node("p", NodeKind::Process { op: "x".into() });
        d.add_output("o2", p);
        let changed = [p, m, c, k];
        for _ in 0..3 {
            let full = d.validate();
            assert!(full.is_err());
            assert_eq!(d.validate_nodes(&changed), full);
            // Repair the first violation; the next one surfaces.
            match full {
                Err(DagError::FractionsNotNormalized { .. }) => {
                    d.set_edge_fraction(ins[1], Ratio::ONE);
                }
                Err(DagError::BadInDegree { .. }) => {
                    d.add_edge(c, p, Ratio::ONE);
                }
                other => assert!(
                    matches!(other, Err(DagError::NonPositiveFraction { .. })),
                    "{other:?}"
                ),
            }
        }
    }

    #[test]
    fn zero_fraction_edge_fails() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let p = d.add_node("p", NodeKind::Process { op: "x".into() });
        d.add_edge(a, p, Ratio::ONE);
        d.add_output("o", p);
        // Sneak in a dead-weight zero edge.
        let b = d.add_input("B");
        let m = d.add_node("m", NodeKind::Mix { seconds: 0 });
        d.add_edge(b, m, Ratio::ZERO);
        d.add_output("o2", m);
        assert!(d.validate().is_err());
    }

    #[test]
    fn multi_input_process_fails() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let p = d.add_node("p", NodeKind::Process { op: "x".into() });
        d.add_edge(a, p, Ratio::new(1, 2).unwrap());
        d.add_edge(b, p, Ratio::new(1, 2).unwrap());
        d.add_output("o", p);
        assert!(matches!(d.validate(), Err(DagError::BadInDegree { .. })));
    }
}
