//! Statically-unknown volumes: DAG partitioning and run-time dispensing
//! (§3.5, Figures 8 and 13).
//!
//! Two kinds of nodes get their out-edges cut at compile time:
//!
//! 1. *unknown-volume* nodes (separations whose yield is measured at run
//!    time) — their consumers become constrained inputs bound to the
//!    measurement;
//! 2. *multi-use* nodes any of whose uses transitively reaches an
//!    unknown-volume node — the relative split among such uses cannot
//!    be decided statically, so the node becomes an output of its
//!    producing partition and each use conservatively receives an
//!    `m/N` share (the paper's refinement merges `m` same-partition
//!    uses into one constrained input).
//!
//! The remaining weakly-connected components are the partitions. Vnorm
//! computation stays at compile time (per partition); only the final
//! dispensing step moves to run time, where it costs microseconds on
//! the electronic controller.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use aqua_dag::{Dag, EdgeId, NodeId, NodeKind, Ratio};

use crate::dagsolve::{dispense, VolumeAssignment};
use crate::machine::Machine;
use crate::vnorm::{self, VnormError, VnormTable};

/// How a constrained input's available volume is determined.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// Fixed at compile time: an input fluid split across partitions
    /// gets `share` of the machine maximum.
    Static {
        /// Available volume in nl.
        volume_nl: Ratio,
    },
    /// Bound at run time to `share` of the volume produced (or measured,
    /// for unknown-volume nodes) by a node of an earlier partition.
    Runtime {
        /// Index of the producing partition in [`PartitionPlan`].
        partition: usize,
        /// The producing node, in that partition's local ids.
        source: NodeId,
        /// This consumer's share of the produced volume.
        share: Ratio,
    },
}

/// One compile-time partition: a self-contained sub-DAG whose leaves are
/// original outputs, unknown-volume separations, or cut multi-use nodes.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The partition's local DAG (constrained inputs included).
    pub dag: Dag,
    /// Binding for each constrained-input node (local id).
    pub bindings: HashMap<NodeId, Binding>,
    /// Map from original DAG node ids to local ids.
    pub node_map: HashMap<NodeId, NodeId>,
    /// Map from original DAG edge ids to this partition's local edge
    /// ids. Covers internal edges and cut edges (a cut edge maps to the
    /// constrained-input edge that replaces it on the consumer side).
    pub edge_map: HashMap<EdgeId, EdgeId>,
    /// Compile-time Vnorm table for the local DAG.
    pub vnorms: VnormTable,
}

impl Partition {
    /// Looks up a local node id by original-DAG node id.
    pub fn local(&self, original: NodeId) -> Option<NodeId> {
        self.node_map.get(&original).copied()
    }
}

/// The full compile-time plan: partitions in execution order.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Partitions, topologically ordered by their runtime bindings.
    pub partitions: Vec<Partition>,
}

impl PartitionPlan {
    /// The partition containing an original node, with its local id.
    pub fn locate(&self, original: NodeId) -> Option<(usize, NodeId)> {
        self.partitions
            .iter()
            .enumerate()
            .find_map(|(i, p)| p.local(original).map(|l| (i, l)))
    }
}

/// Error from partitioning or run-time dispensing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PartitionError {
    /// The Vnorm pass failed inside a partition.
    Vnorm(VnormError),
    /// A runtime binding referenced a measurement that was not provided.
    MissingMeasurement {
        /// Index of the partition whose node needed measuring.
        partition: usize,
        /// Name of the node.
        node: String,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Vnorm(e) => write!(f, "{e}"),
            PartitionError::MissingMeasurement { partition, node } => write!(
                f,
                "no run-time measurement provided for `{node}` of partition {partition}"
            ),
        }
    }
}

impl Error for PartitionError {}

impl From<VnormError> for PartitionError {
    fn from(e: VnormError) -> PartitionError {
        PartitionError::Vnorm(e)
    }
}

/// Whether the DAG needs partitioning at all.
pub fn has_unknown_volumes(dag: &Dag) -> bool {
    dag.node_ids()
        .any(|n| matches!(dag.node(n).kind, NodeKind::Separate { fraction: None }))
}

/// Builds the compile-time partition plan.
///
/// # Errors
///
/// Returns [`PartitionError::Vnorm`] if a partition's Vnorm pass fails
/// (structural DAG problems).
pub fn partition(dag: &Dag, machine: &Machine) -> Result<PartitionPlan, PartitionError> {
    let n = dag.num_nodes();

    // --- Which nodes' out-edges get cut? ---
    let unknown: Vec<NodeId> = dag
        .node_ids()
        .filter(|&id| matches!(dag.node(id).kind, NodeKind::Separate { fraction: None }))
        .collect();
    let mut reaches_unknown = vec![false; n];
    for &u in &unknown {
        for id in dag.backward_slice(u) {
            reaches_unknown[id.index()] = true;
        }
    }
    let mut cut_source = vec![false; n];
    for id in dag.node_ids() {
        let is_unknown = matches!(dag.node(id).kind, NodeKind::Separate { fraction: None });
        let multi_use_tainted = !is_unknown
            && dag.num_uses(id) >= 2
            && dag
                .out_edges(id)
                .iter()
                .any(|&e| reaches_unknown[dag.edge(e).dst.index()]);
        cut_source[id.index()] = is_unknown || multi_use_tainted;
    }

    // --- Component labelling over the uncut edges. ---
    // Cut *input* nodes are dissolved entirely (their volume is a static
    // split); other cut nodes stay in their producing component.
    let dissolved =
        |id: NodeId| -> bool { cut_source[id.index()] && dag.node(id).kind.is_source() };
    let mut comp = vec![usize::MAX; n];
    let mut next_comp = 0usize;
    for start in dag.node_ids() {
        if comp[start.index()] != usize::MAX || dissolved(start) {
            continue;
        }
        let c = next_comp;
        next_comp += 1;
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            if comp[id.index()] != usize::MAX || dissolved(id) {
                continue;
            }
            comp[id.index()] = c;
            if !cut_source[id.index()] {
                for &e in dag.out_edges(id) {
                    stack.push(dag.edge(e).dst);
                }
            }
            for &e in dag.in_edges(id) {
                let src = dag.edge(e).src;
                if !cut_source[src.index()] {
                    stack.push(src);
                }
            }
        }
    }

    // --- Execution order: a cut node's partition precedes its
    // consumers' partitions.
    let mut comp_deps: Vec<Vec<usize>> = vec![Vec::new(); next_comp];
    for id in dag.node_ids() {
        if !cut_source[id.index()] || dissolved(id) {
            continue;
        }
        let producer_comp = comp[id.index()];
        for &e in dag.out_edges(id) {
            let consumer_comp = comp[dag.edge(e).dst.index()];
            if consumer_comp != producer_comp {
                comp_deps[consumer_comp].push(producer_comp);
            }
        }
    }
    let comp_order = topo_components(&comp_deps);
    // comp id -> position in execution order.
    let mut comp_rank = vec![usize::MAX; next_comp];
    for (rank, &c) in comp_order.iter().enumerate() {
        comp_rank[c] = rank;
    }

    // --- Materialize each partition (in execution order). ---
    let mut partitions: Vec<Partition> = Vec::with_capacity(next_comp);
    for &c in &comp_order {
        let mut local = Dag::new();
        let mut node_map: HashMap<NodeId, NodeId> = HashMap::new();
        for id in dag.node_ids() {
            if comp[id.index()] == c {
                let node = dag.node(id);
                let lid = local.add_node(node.name.clone(), node.kind.clone());
                node_map.insert(id, lid);
            }
        }
        let mut edge_map = HashMap::new();
        for e in dag.edge_ids() {
            let edge = dag.edge(e);
            if cut_source[edge.src.index()] {
                continue; // cut edge: becomes a constrained input below
            }
            if let (Some(&ls), Some(&ld)) = (node_map.get(&edge.src), node_map.get(&edge.dst)) {
                let le = local.add_edge(ls, ld, edge.fraction);
                edge_map.insert(e, le);
            }
        }
        partitions.push(Partition {
            dag: local,
            bindings: HashMap::new(),
            node_map,
            edge_map,
            vnorms: VnormTable {
                node: Vec::new(),
                edge: Vec::new(),
                load: Vec::new(),
            },
        });
    }

    // --- Constrained inputs for cut edges, merged per (source,
    // consumer partition) — the paper's m/N refinement.
    for id in dag.node_ids() {
        if !cut_source[id.index()] {
            continue;
        }
        let uses: Vec<EdgeId> = dag.out_edges(id).to_vec();
        let total_uses = uses.len();
        if total_uses == 0 {
            continue;
        }
        let mut by_part: HashMap<usize, Vec<EdgeId>> = HashMap::new();
        for &e in &uses {
            let consumer = dag.edge(e).dst;
            by_part
                .entry(comp_rank[comp[consumer.index()]])
                .or_default()
                .push(e);
        }
        for (part_rank, edges) in by_part {
            let m = edges.len();
            let share = Ratio::new(m as i128, total_uses as i128).expect("nonzero uses");
            let binding = if dag.node(id).kind.is_source() {
                Binding::Static {
                    volume_nl: machine.max_capacity_nl() * share,
                }
            } else {
                let src_rank = comp_rank[comp[id.index()]];
                let src_local = partitions[src_rank].node_map[&id];
                Binding::Runtime {
                    partition: src_rank,
                    source: src_local,
                    share,
                }
            };
            let part = &mut partitions[part_rank];
            let ci = part
                .dag
                .add_constrained_input(format!("{}'", dag.node(id).name));
            for e in edges {
                let edge = dag.edge(e);
                let ld = part.node_map[&edge.dst];
                let le = part.dag.add_edge(ci, ld, edge.fraction);
                part.edge_map.insert(e, le);
            }
            part.bindings.insert(ci, binding);
        }
    }

    // --- Compile-time Vnorms per partition: each partition's table
    // depends only on its own local DAG, so the (potentially many)
    // computations fan out across the batch pool. ---
    let tables =
        aqua_lp::batch::run_parallel(partitions.len(), |i| vnorm::compute(&partitions[i].dag));
    for (part, table) in partitions.iter_mut().zip(tables) {
        part.vnorms = table?;
    }

    Ok(PartitionPlan { partitions })
}

impl PartitionPlan {
    /// Dispenses every partition in order, resolving constrained inputs.
    ///
    /// `measure` supplies run-time measurements: called with
    /// `(partition index, local node id)` for unknown-volume nodes; for
    /// known-volume cut nodes the already-dispensed production is used
    /// and `measure` is not consulted.
    ///
    /// The scale of each partition is the paper's rule: the minimum over
    /// constrained inputs of `available / Vnorm`, further capped by the
    /// machine-capacity scale.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::MissingMeasurement`] if `measure`
    /// returns `None` for a needed unknown-volume node.
    pub fn dispense_all(
        &self,
        machine: &Machine,
        measure: impl FnMut(usize, NodeId) -> Option<Ratio>,
    ) -> Result<Vec<VolumeAssignment>, PartitionError> {
        self.dispense_upto(self.partitions.len().saturating_sub(1), machine, measure)
    }

    /// Dispenses partitions `0..=upto` only — the incremental form used
    /// by executors, which dispense each partition just before running
    /// it (later partitions' measurements do not exist yet).
    ///
    /// # Errors
    ///
    /// See [`PartitionPlan::dispense_all`].
    pub fn dispense_upto(
        &self,
        upto: usize,
        machine: &Machine,
        mut measure: impl FnMut(usize, NodeId) -> Option<Ratio>,
    ) -> Result<Vec<VolumeAssignment>, PartitionError> {
        let mut results: Vec<VolumeAssignment> = Vec::with_capacity(upto + 1);
        for part in self.partitions.iter().take(upto + 1) {
            let max_load = part.vnorms.max_load();
            let mut scale = if max_load.is_positive() {
                machine.max_capacity_nl() / max_load
            } else {
                Ratio::ZERO
            };
            for (&ci, binding) in &part.bindings {
                let available = match binding {
                    Binding::Static { volume_nl } => *volume_nl,
                    Binding::Runtime {
                        partition,
                        source,
                        share,
                    } => {
                        let src_part = &self.partitions[*partition];
                        let produced = if matches!(
                            src_part.dag.node(*source).kind,
                            NodeKind::Separate { fraction: None }
                        ) {
                            measure(*partition, *source).ok_or_else(|| {
                                PartitionError::MissingMeasurement {
                                    partition: *partition,
                                    node: src_part.dag.node(*source).name.clone(),
                                }
                            })?
                        } else {
                            results[*partition].node_nl(*source)
                        };
                        produced * *share
                    }
                };
                let demand = part.vnorms.node[ci.index()];
                if demand.is_positive() {
                    scale = scale.min(available / demand);
                }
            }
            results.push(dispense(&part.dag, machine, part.vnorms.clone(), scale));
        }
        Ok(results)
    }
}

fn topo_components(deps: &[Vec<usize>]) -> Vec<usize> {
    let n = deps.len();
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 new, 1 visiting, 2 done
    fn visit(c: usize, deps: &[Vec<usize>], state: &mut [u8], order: &mut Vec<usize>) {
        if state[c] != 0 {
            return;
        }
        state[c] = 1;
        for &d in &deps[c] {
            visit(d, deps, state, order);
        }
        state[c] = 2;
        order.push(c);
    }
    for c in 0..n {
        visit(c, deps, &mut state, &mut order);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    /// A glycomics-shaped chain: mix -> unknown separate -> mix -> ...
    fn glycomics_like() -> (Dag, NodeId, NodeId, NodeId) {
        let mut d = Dag::new();
        let buf1a = d.add_input("buffer1a");
        let sample = d.add_input("sample");
        let m1 = d.add_mix("m1", &[(buf1a, 1), (sample, 1)], 30).unwrap();
        let sep1 = d.add_separate("sep1", m1, None);
        let buf2 = d.add_input("buffer2");
        let m2 = d.add_mix("m2", &[(sep1, 1), (buf2, 1)], 30).unwrap();
        let buf3a = d.add_input("buffer3a");
        let m3 = d.add_mix("m3", &[(m2, 1), (buf3a, 10)], 30).unwrap();
        let sep2 = d.add_separate("sep2", m3, None);
        let naoh = d.add_input("NaOH");
        let buf4 = d.add_input("buffer4");
        let m4 = d
            .add_mix("m4", &[(sep2, 1), (buf4, 100), (naoh, 1)], 30)
            .unwrap();
        let m5 = d.add_mix("m5", &[(m4, 1), (buf3a, 1)], 30).unwrap();
        let sep3 = d.add_separate("sep3", m5, None);
        let buf5 = d.add_input("buffer5");
        let m6 = d.add_mix("m6", &[(sep3, 1), (buf5, 1)], 30).unwrap();
        let _ = m6;
        (d, buf3a, sep2, m4)
    }

    #[test]
    fn glycomics_partitions_into_four() {
        let (d, _, _, _) = glycomics_like();
        let plan = partition(&d, &Machine::paper_default()).unwrap();
        assert_eq!(plan.partitions.len(), 4);
    }

    #[test]
    fn shared_buffer_is_split_fifty_fifty() {
        // buffer3a is used by partitions 2 and 3: each constrained input
        // gets 50 nl (Figure 13).
        let (d, buf3a, _, _) = glycomics_like();
        let machine = Machine::paper_default();
        let plan = partition(&d, &machine).unwrap();
        let mut static_bindings = Vec::new();
        for part in &plan.partitions {
            for b in part.bindings.values() {
                if let Binding::Static { volume_nl } = b {
                    static_bindings.push(*volume_nl);
                }
            }
        }
        let _ = buf3a;
        assert_eq!(
            static_bindings,
            vec![Ratio::from_int(50), Ratio::from_int(50)]
        );
    }

    #[test]
    fn x2_vnorm_is_1_over_204() {
        // Figure 13: in the third partition the constrained input coming
        // from sep2 has Vnorm 1/204 (1/102 of the 1:100:1 mix, which is
        // half of the following 1:1 mix, which feeds the sink).
        let (d, _, sep2, m4) = glycomics_like();
        let machine = Machine::paper_default();
        let plan = partition(&d, &machine).unwrap();
        // Find the partition containing m4.
        let (pi, m4_local) = plan.locate(m4).unwrap();
        let part = &plan.partitions[pi];
        // Its constrained input bound to sep2's measurement:
        let (ci, binding) = part
            .bindings
            .iter()
            .find(|(_, b)| matches!(b, Binding::Runtime { .. }))
            .expect("has runtime binding");
        if let Binding::Runtime { share, .. } = binding {
            assert_eq!(*share, Ratio::ONE);
        }
        assert_eq!(part.vnorms.node[ci.index()], r(1, 204));
        let _ = (sep2, m4_local);
    }

    #[test]
    fn dispense_scales_to_measured_volume() {
        let (d, _, _, _) = glycomics_like();
        let machine = Machine::paper_default();
        let plan = partition(&d, &machine).unwrap();
        // Measurements: every unknown separation yields 10 nl.
        let results = plan
            .dispense_all(&machine, |_, _| Some(Ratio::from_int(10)))
            .unwrap();
        assert_eq!(results.len(), 4);
        // Every partition's constrained inputs stay within availability.
        for (pi, part) in plan.partitions.iter().enumerate() {
            for (&ci, binding) in &part.bindings {
                let available = match binding {
                    Binding::Static { volume_nl } => *volume_nl,
                    Binding::Runtime { share, .. } => Ratio::from_int(10) * *share,
                };
                assert!(
                    results[pi].node_nl(ci) <= available,
                    "partition {pi} overdraws its constrained input"
                );
            }
        }
    }

    #[test]
    fn missing_measurement_is_reported() {
        let (d, _, _, _) = glycomics_like();
        let machine = Machine::paper_default();
        let plan = partition(&d, &machine).unwrap();
        let err = plan.dispense_all(&machine, |_, _| None).unwrap_err();
        assert!(matches!(err, PartitionError::MissingMeasurement { .. }));
    }

    #[test]
    fn figure8_multi_use_node_is_cut_and_split() {
        // X feeds Y (plain sink) and, transitively, unknown U.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let x = d.add_process("X", "incubate", a);
        let _y = d.add_process("Y", "sense.OD", x);
        let b = d.add_input("B");
        let m = d.add_mix("m", &[(x, 1), (b, 1)], 0).unwrap();
        let _u = d.add_separate("U", m, None);
        let machine = Machine::paper_default();
        let plan = partition(&d, &machine).unwrap();
        // X's producing partition + Y's partition + U's partition = 3.
        assert_eq!(plan.partitions.len(), 3);
        // Both consumers got a constrained input with share 1/2.
        let mut shares = Vec::new();
        for part in &plan.partitions {
            for b in part.bindings.values() {
                if let Binding::Runtime { share, .. } = b {
                    shares.push(*share);
                }
            }
        }
        assert_eq!(shares, vec![r(1, 2), r(1, 2)]);
    }

    #[test]
    fn no_unknowns_is_one_partition() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("m", &[(a, 1), (b, 1)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        assert!(!has_unknown_volumes(&d));
        let plan = partition(&d, &Machine::paper_default()).unwrap();
        assert_eq!(plan.partitions.len(), 1);
        assert!(plan.partitions[0].bindings.is_empty());
    }
}
