//! In-place assay edits for incremental replanning.
//!
//! A push-mode session retains its DAG across edits; each edit is
//! *diffed* against the retained graph ([`set_mix_ratio`] returns only
//! the edges whose fraction actually changed) and the downstream
//! replanner re-evaluates only what the edit changed, in reverse
//! topological order ([`Dag::topo_positions`]). Structural edits that
//! cannot be expressed in place (removing a node from the append-only
//! arena) rebuild via [`rebuild_without`] with a stable id remap.

use std::error::Error;
use std::fmt;

use aqua_rational::Ratio;

use crate::graph::{Dag, EdgeId, NodeId, NodeKind};
use crate::validate::DagError;

/// Error applying an edit to a retained DAG.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EditError {
    /// The edited node is not a mix (ratios only exist on mixes).
    NotAMix {
        /// Name of the node.
        node: String,
    },
    /// The edit's source set does not match the mix's current inputs —
    /// that is a topology change, not a ratio change.
    SourceMismatch {
        /// Name of the edited mix.
        node: String,
    },
    /// A ratio part was zero (parts must be positive).
    ZeroPart {
        /// Name of the edited mix.
        node: String,
    },
    /// The removed node still has consumers.
    HasConsumers {
        /// Name of the node.
        node: String,
    },
    /// Exact arithmetic overflowed while normalizing parts.
    Arithmetic,
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::NotAMix { node } => write!(f, "node `{node}` is not a mix"),
            EditError::SourceMismatch { node } => write!(
                f,
                "ratio edit on `{node}` names different sources than its current inputs"
            ),
            EditError::ZeroPart { node } => {
                write!(f, "ratio edit on `{node}` has a zero part")
            }
            EditError::HasConsumers { node } => {
                write!(f, "node `{node}` still has consumers")
            }
            EditError::Arithmetic => write!(f, "edit arithmetic overflowed"),
        }
    }
}

impl Error for EditError {}

/// Rewrites a mix's in-edge fractions from integer ratio parts, keyed
/// by source node. Returns the *diff*: only the edges whose fraction
/// actually changed, with their new value (empty means the edit was a
/// no-op). The source set must equal the mix's current inputs — one
/// part per in-edge — since anything else is a topology change.
///
/// # Errors
///
/// See [`EditError`]. On error the DAG is unchanged.
pub fn set_mix_ratio(
    dag: &mut Dag,
    node: NodeId,
    parts: &[(NodeId, u64)],
) -> Result<Vec<(EdgeId, Ratio)>, EditError> {
    let name = || dag.node(node).name.clone();
    if !matches!(dag.node(node).kind, NodeKind::Mix { .. }) {
        return Err(EditError::NotAMix { node: name() });
    }
    let ins: Vec<EdgeId> = dag.in_edges(node).to_vec();
    if ins.len() != parts.len() {
        return Err(EditError::SourceMismatch { node: name() });
    }
    let mut total: u64 = 0;
    for &(_, p) in parts {
        if p == 0 {
            return Err(EditError::ZeroPart { node: name() });
        }
        total = total.checked_add(p).ok_or(EditError::Arithmetic)?;
    }
    // Match each in-edge to exactly one part by source node.
    let mut used = vec![false; parts.len()];
    let mut new_fractions = Vec::with_capacity(ins.len());
    for &e in &ins {
        let src = dag.edge(e).src;
        let Some(i) = parts
            .iter()
            .enumerate()
            .position(|(i, &(s, _))| s == src && !used[i])
        else {
            return Err(EditError::SourceMismatch { node: name() });
        };
        used[i] = true;
        let f = Ratio::new(parts[i].1 as i128, total as i128).map_err(|_| EditError::Arithmetic)?;
        new_fractions.push((e, f));
    }
    let changed: Vec<(EdgeId, Ratio)> = new_fractions
        .into_iter()
        .filter(|&(e, f)| dag.edge(e).fraction != f)
        .collect();
    for &(e, f) in &changed {
        dag.set_edge_fraction(e, f);
    }
    Ok(changed)
}

/// Rebuilds the DAG without `node` (which must have no consumers) and
/// without its in-edges. Returns the new DAG and the node remap:
/// `remap[old.index()]` is the node's id in the new graph, `None` for
/// the removed node. The other edges keep their order.
///
/// # Errors
///
/// Returns [`EditError::HasConsumers`] if the node has out-edges.
pub fn rebuild_without(dag: &Dag, node: NodeId) -> Result<(Dag, Vec<Option<NodeId>>), EditError> {
    if !dag.out_edges(node).is_empty() {
        return Err(EditError::HasConsumers {
            node: dag.node(node).name.clone(),
        });
    }
    let mut out = Dag::new();
    let mut remap: Vec<Option<NodeId>> = Vec::with_capacity(dag.num_nodes());
    for id in dag.node_ids() {
        if id == node {
            remap.push(None);
        } else {
            let n = dag.node(id);
            remap.push(Some(out.add_node(n.name.clone(), n.kind.clone())));
        }
    }
    for e in dag.edge_ids() {
        let edge = dag.edge(e);
        if let (Some(src), Some(dst)) = (remap[edge.src.index()], remap[edge.dst.index()]) {
            out.add_edge(src, dst, edge.fraction);
        }
    }
    Ok((out, remap))
}

impl Dag {
    /// Topological position per node (`pos[n.index()]` is the node's
    /// rank in one fixed topological order). Positions let callers sort
    /// arbitrary node sets into (reverse) topological order in
    /// `O(k log k)` without re-walking the graph.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cycle`] if the graph has a cycle.
    pub fn topo_positions(&self) -> Result<Vec<usize>, DagError> {
        let order = self.topological_order()?;
        let mut pos = vec![0usize; self.num_nodes()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        Ok(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    fn diamond() -> (Dag, [NodeId; 4]) {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("m", &[(a, 1), (b, 4)], 0).unwrap();
        let o = d.add_output("o", m);
        (d, [a, b, m, o])
    }

    #[test]
    fn ratio_edit_returns_only_changed_edges() {
        let (mut d, [a, b, m, _]) = diamond();
        let changed = set_mix_ratio(&mut d, m, &[(a, 1), (b, 4)]).unwrap();
        assert!(changed.is_empty(), "same ratio must be a no-op diff");
        let changed = set_mix_ratio(&mut d, m, &[(b, 9), (a, 1)]).unwrap();
        assert_eq!(changed.len(), 2);
        assert_eq!(d.edge(d.in_edges(m)[0]).fraction, r(1, 10));
        assert_eq!(d.edge(d.in_edges(m)[1]).fraction, r(9, 10));
        assert!(d.validate().is_ok());
    }

    #[test]
    fn ratio_edit_rejects_topology_changes() {
        let (mut d, [a, _, m, o]) = diamond();
        let c = d.add_input("C");
        assert!(matches!(
            set_mix_ratio(&mut d, m, &[(a, 1), (c, 4)]),
            Err(EditError::SourceMismatch { .. })
        ));
        assert!(matches!(
            set_mix_ratio(&mut d, m, &[(a, 1)]),
            Err(EditError::SourceMismatch { .. })
        ));
        assert!(matches!(
            set_mix_ratio(&mut d, o, &[(m, 1)]),
            Err(EditError::NotAMix { .. })
        ));
        let b = d.in_edges(m)[1];
        let b = d.edge(b).src;
        assert!(matches!(
            set_mix_ratio(&mut d, m, &[(a, 0), (b, 1)]),
            Err(EditError::ZeroPart { .. })
        ));
    }

    #[test]
    fn rebuild_without_drops_node_and_in_edges() {
        let (d, [a, b, m, o]) = diamond();
        let (rebuilt, remap) = rebuild_without(&d, o).unwrap();
        assert_eq!(rebuilt.num_nodes(), 3);
        assert_eq!(rebuilt.num_edges(), 2);
        assert!(remap[o.index()].is_none());
        let new_m = remap[m.index()].unwrap();
        assert_eq!(rebuilt.node(new_m).name, "m");
        assert_eq!(rebuilt.num_uses(new_m), 0);
        assert_eq!(rebuilt.num_uses(remap[a.index()].unwrap()), 1);
        assert_eq!(rebuilt.num_uses(remap[b.index()].unwrap()), 1);
        assert!(rebuilt.validate().is_ok());
    }

    #[test]
    fn rebuild_without_rejects_interior_nodes() {
        let (d, [_, _, m, _]) = diamond();
        assert!(matches!(
            rebuild_without(&d, m),
            Err(EditError::HasConsumers { .. })
        ));
    }
}
