//! AIS code generation with reservoir allocation and volume planning.
//!
//! Walks the (possibly rewritten) assay DAG in topological order and
//! emits AIS. Register allocation follows the AquaCore conventions:
//!
//! * every external input is loaded into its own reservoir
//!   (`input sN, ipM`);
//! * single-use intermediates stay *parked* in their producing
//!   functional unit and flow straight to their consumer (storage-less
//!   operands); a parked fluid is evicted to a reservoir only if its
//!   unit is needed first;
//! * multi-use intermediates are stored to a reservoir immediately and
//!   metered out per use;
//! * reservoirs are freed at a fluid's last use (linear-scan style).
//!
//! Every fluid-moving instruction gets a [`PlannedVolume`] entry: a
//! static picoliter amount (IVol-rounded), a run-time lookup key into
//! the partition plan (§3.5), or "move everything".

use std::collections::HashMap;

use aqua_ais::{DryReg, Instr, Picoliters, Program, SenseKind, SepPort, SeparateKind, WetLoc};
use aqua_dag::{Dag, EdgeId, NodeId, NodeKind, Ratio};
use aqua_lang::{SenseMode, SepKind};
use aqua_volume::hierarchy::ManagedOutcome;
use aqua_volume::Machine;

use crate::error::CompileError;
use crate::lower::DagMap;
use crate::VolumeResolution;

/// The volume to meter for one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannedVolume {
    /// A compile-time amount in picoliters (a least-count multiple).
    Static(Picoliters),
    /// Resolved at run time: the volume of `edge` in partition
    /// `partition` of the compile-time partition plan.
    Runtime {
        /// Partition index in the [`aqua_volume::unknown::PartitionPlan`].
        partition: usize,
        /// Local edge id within that partition.
        edge: EdgeId,
    },
    /// Transfer everything at the source location.
    All,
}

/// Per-instruction volume annotations, parallel to the program's
/// instruction list (`None` for non-fluid instructions).
#[derive(Debug, Clone, Default)]
pub struct VolumePlan {
    /// `entries[i]` annotates instruction `i`.
    pub entries: Vec<Option<PlannedVolume>>,
    /// Which fluid each chip input port supplies.
    pub port_fluids: HashMap<u32, String>,
    /// For known-fraction separation instructions: the output fraction.
    pub separation_fractions: HashMap<usize, f64>,
    /// For unknown-volume separation instructions under partitioned
    /// resolution: the `(partition, local node)` key whose measurement
    /// the run-time dispenser needs.
    pub unknown_separations: HashMap<usize, (usize, aqua_dag::NodeId)>,
    /// For metered instructions: the original-DAG edge being executed.
    /// Lets the run-time recovery engine map an instruction back to the
    /// plan it is drawing from.
    pub instr_edges: HashMap<usize, EdgeId>,
    /// For metered instructions: the original-DAG node whose fluid is
    /// drawn (the input node itself for `Input` loads). The recovery
    /// engine regenerates this node's backward slice on a shortfall.
    pub instr_sources: HashMap<usize, NodeId>,
    /// For run-time-resolved instructions: which partition they draw
    /// from (derived from the `Runtime` entries).
    pub instr_partitions: HashMap<usize, usize>,
    /// Per-node slack in pl under a static resolution: planned
    /// production minus planned draws — the "re-dispense with slack"
    /// budget of recovery tier 1. Empty without a static volume table.
    pub node_slack_pl: Vec<Picoliters>,
}

impl VolumePlan {
    /// The annotation for instruction `i`, if any.
    pub fn get(&self, i: usize) -> Option<&PlannedVolume> {
        self.entries.get(i).and_then(|e| e.as_ref())
    }
}

/// Where a produced fluid currently lives during emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Not yet produced.
    Pending,
    /// In reservoir `sN`.
    Reservoir(u32),
    /// Parked in a functional unit.
    Unit(WetLoc),
    /// Fully consumed.
    Gone,
}

struct Emitter<'a> {
    dag: &'a Dag,
    map: &'a DagMap,
    machine: &'a Machine,
    program: Program,
    plan: Vec<Option<PlannedVolume>>,
    /// Current location of each node's product.
    loc: Vec<Loc>,
    /// Uses remaining per node.
    remaining: Vec<usize>,
    /// Reservoir free list (ascending).
    free_reservoirs: Vec<u32>,
    /// Input port assigned to each auxiliary (matrix/pusher) fluid.
    aux_ports: HashMap<String, u32>,
    next_input_port: u32,
    /// Per-edge planned volume (static path), already IVol-rounded.
    edge_pl: Option<Vec<Picoliters>>,
    /// Run-time lookup: original edge -> (partition, local edge).
    runtime_edges: Option<HashMap<EdgeId, (usize, EdgeId)>>,
    /// Planned production per node in pl (for input loads and drains).
    node_pl: Option<Vec<Picoliters>>,
    /// For unknown separations: original node -> (partition, local id).
    unknown_keys: HashMap<NodeId, (usize, NodeId)>,
    instr_edges: HashMap<usize, EdgeId>,
    instr_sources: HashMap<usize, NodeId>,
    port_fluids: HashMap<u32, String>,
    separation_fractions: HashMap<usize, f64>,
    unknown_separations: HashMap<usize, (usize, NodeId)>,
    /// Next dedicated port for explicit outputs (op1 is the waste/drain
    /// port).
    next_output_port: u32,
}

/// Emits AIS for a DAG under a volume resolution.
///
/// # Errors
///
/// Returns [`CompileError::Codegen`] if the machine's reservoir or port
/// inventory is exhausted.
pub fn emit(
    name: &str,
    dag: &Dag,
    map: &DagMap,
    machine: &Machine,
    resolution: &VolumeResolution,
) -> Result<(Program, VolumePlan), CompileError> {
    // --- Volume tables by resolution mode. ---
    let lc = machine.least_count_nl();
    let to_pl = |nl: Ratio| -> Picoliters {
        let rounded = Ratio::from_int((nl / lc).round()) * lc;
        let pl = rounded * Ratio::from_int(1000);
        pl.round().max(0) as Picoliters
    };
    let mut edge_pl: Option<Vec<Picoliters>> = None;
    let mut node_pl: Option<Vec<Picoliters>> = None;
    let mut runtime_edges: Option<HashMap<EdgeId, (usize, EdgeId)>> = None;
    match resolution {
        VolumeResolution::Static(ManagedOutcome::Solved { volumes, .. }) => {
            edge_pl = Some(volumes.edge_volumes_nl.iter().map(|&v| to_pl(v)).collect());
            node_pl = Some(volumes.node_volumes_nl.iter().map(|&v| to_pl(v)).collect());
        }
        VolumeResolution::Static(ManagedOutcome::NeedsRegeneration {
            best_effort: Some(sol),
            ..
        }) => {
            edge_pl = Some(sol.edge_volumes_nl.iter().map(|&v| to_pl(v)).collect());
            node_pl = Some(sol.node_volumes_nl.iter().map(|&v| to_pl(v)).collect());
        }
        VolumeResolution::Partitioned(plan) => {
            let mut lookup = HashMap::new();
            for (pi, part) in plan.partitions.iter().enumerate() {
                for (&orig, &local) in &part.edge_map {
                    lookup.insert(orig, (pi, local));
                }
            }
            runtime_edges = Some(lookup);
        }
        _ => {}
    }
    // --- Conservation reconciliation (IVol drift repair). ---
    // Per-edge rounding drifts independently, so a node's rounded uses
    // can exceed its rounded production by a few least counts (worst at
    // 16-way fan-outs like the enzyme dilutions). Walk the DAG in
    // topological order, cap each node's out-flow at its physical
    // in-flow, and rebuild node productions from the reconciled edges —
    // the executed plan then conserves volume exactly.
    if let (Some(edges), Some(nodes)) = (&mut edge_pl, &mut node_pl) {
        let lc_pl = (lc * Ratio::from_int(1000)).round().max(1) as Picoliters;
        let order = dag
            .topological_order()
            .map_err(|err| CompileError::Codegen(err.to_string()))?;
        for &n in &order {
            let node = dag.node(n);
            let production: Picoliters = if node.kind.is_source() {
                // Sources load exactly what their uses draw — capped at
                // the reservoir capacity (rounded draws can overshoot
                // it by a least count or two; the shaving loop below
                // trims the uses back).
                let cap_pl =
                    (machine.max_capacity_nl() * Ratio::from_int(1000)).round() as Picoliters;
                let total = dag
                    .out_edges(n)
                    .iter()
                    .map(|&e| edges[e.index()])
                    .sum::<Picoliters>()
                    .min(cap_pl);
                nodes[n.index()] = total;
                total
            } else {
                let in_total: Picoliters = dag.in_edges(n).iter().map(|&e| edges[e.index()]).sum();
                let out = match &node.kind {
                    NodeKind::Separate { fraction: Some(f) } => {
                        let exact = Ratio::from_int(in_total as i128) * *f;
                        let counts = (exact / Ratio::from_int(lc_pl as i128)).floor();
                        (counts.max(0) as Picoliters) * lc_pl
                    }
                    _ => in_total,
                };
                nodes[n.index()] = out;
                out
            };
            // Cap out-flow at production, shaving the largest edges in
            // least-count steps (never below one least count).
            let mut out_total: Picoliters =
                dag.out_edges(n).iter().map(|&e| edges[e.index()]).sum();
            while out_total > production {
                let Some(&biggest) = dag
                    .out_edges(n)
                    .iter()
                    .filter(|&&e| edges[e.index()] > lc_pl)
                    .max_by_key(|&&e| edges[e.index()])
                else {
                    break; // everything at the floor: leave the drift
                };
                edges[biggest.index()] -= lc_pl;
                out_total -= lc_pl;
            }
        }
    }

    let mut unknown_keys = HashMap::new();
    if let VolumeResolution::Partitioned(plan) = resolution {
        for n in dag.node_ids() {
            if matches!(dag.node(n).kind, NodeKind::Separate { fraction: None }) {
                if let Some(key) = plan.locate(n) {
                    unknown_keys.insert(n, key);
                }
            }
        }
    }

    let mut e = Emitter {
        dag,
        map,
        machine,
        program: Program::new(name),
        plan: Vec::new(),
        loc: vec![Loc::Pending; dag.num_nodes()],
        remaining: dag.node_ids().map(|n| dag.num_uses(n)).collect(),
        free_reservoirs: (1..=machine.reservoirs as u32).rev().collect(),
        aux_ports: HashMap::new(),
        next_input_port: 1,
        edge_pl,
        runtime_edges,
        node_pl,
        unknown_keys,
        instr_edges: HashMap::new(),
        instr_sources: HashMap::new(),
        port_fluids: HashMap::new(),
        separation_fractions: HashMap::new(),
        unknown_separations: HashMap::new(),
        next_output_port: 2,
    };

    let order = dag
        .topological_order()
        .map_err(|err| CompileError::Codegen(err.to_string()))?;
    for node in order {
        e.emit_node(node)?;
    }
    let instr_partitions = e
        .plan
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            Some(PlannedVolume::Runtime { partition, .. }) => Some((i, *partition)),
            _ => None,
        })
        .collect();
    // Tier-1 recovery budget: slack a node's reservoir holds beyond its
    // planned draws (after reconciliation, so never negative in effect).
    let node_slack_pl = match (&e.node_pl, &e.edge_pl) {
        (Some(nodes), Some(edges)) => dag
            .node_ids()
            .map(|n| {
                let drawn: Picoliters = dag.out_edges(n).iter().map(|&ed| edges[ed.index()]).sum();
                nodes[n.index()].saturating_sub(drawn)
            })
            .collect(),
        _ => Vec::new(),
    };
    let plan = VolumePlan {
        entries: e.plan.clone(),
        port_fluids: e.port_fluids.clone(),
        separation_fractions: e.separation_fractions.clone(),
        unknown_separations: e.unknown_separations.clone(),
        instr_edges: e.instr_edges.clone(),
        instr_sources: e.instr_sources.clone(),
        instr_partitions,
        node_slack_pl,
    };
    Ok((e.program, plan))
}

impl<'a> Emitter<'a> {
    fn push(&mut self, instr: Instr, vol: Option<PlannedVolume>) {
        self.program.push(instr);
        self.plan.push(vol);
    }

    /// Records which DAG edge/source the *next* pushed instruction
    /// executes, so the run-time recovery engine can map a shortfall
    /// back to its plan volume and starved fluid.
    fn note_meta(&mut self, edge: Option<EdgeId>, src: Option<NodeId>) {
        let idx = self.program.instrs().len();
        if let Some(e) = edge {
            self.instr_edges.insert(idx, e);
        }
        if let Some(s) = src {
            self.instr_sources.insert(idx, s);
        }
    }

    fn alloc_reservoir(&mut self) -> Result<u32, CompileError> {
        self.free_reservoirs.pop().ok_or_else(|| {
            CompileError::Codegen(format!(
                "out of reservoirs ({} available)",
                self.machine.reservoirs
            ))
        })
    }

    fn alloc_input_port(&mut self) -> Result<u32, CompileError> {
        let p = self.next_input_port;
        if p as usize > self.machine.input_ports {
            return Err(CompileError::Codegen(format!(
                "out of input ports ({} available)",
                self.machine.input_ports
            )));
        }
        self.next_input_port += 1;
        Ok(p)
    }

    /// Volume annotation for a metered transfer along `edge`.
    fn edge_volume(&self, edge: EdgeId) -> PlannedVolume {
        if let Some(tbl) = &self.edge_pl {
            return PlannedVolume::Static(tbl[edge.index()]);
        }
        if let Some(rt) = &self.runtime_edges {
            if let Some(&(pi, local)) = rt.get(&edge) {
                return PlannedVolume::Runtime {
                    partition: pi,
                    edge: local,
                };
            }
        }
        PlannedVolume::All
    }

    /// Integer "relative volume" operand for display: the edge fraction
    /// scaled to the smallest integer parts among the consumer's inputs.
    fn rel_parts(&self, node: NodeId) -> HashMap<EdgeId, u64> {
        let ins = self.dag.in_edges(node);
        let mut denom_lcm: i128 = 1;
        for &e in ins {
            let d = self.dag.edge(e).fraction.denom();
            denom_lcm = lcm(denom_lcm, d);
            if denom_lcm > 1_000_000_000 {
                break;
            }
        }
        let mut out = HashMap::new();
        for &e in ins {
            let f = self.dag.edge(e).fraction;
            let part = if denom_lcm <= 1_000_000_000 {
                (f.numer() * (denom_lcm / f.denom())).max(1) as u64
            } else {
                // Fractions too wild for a display integer: use 1.
                1
            };
            out.insert(e, part);
        }
        out
    }

    /// Ensures the fluid produced by `node` is addressable, returning
    /// its current wet location (evictions already handled by callers).
    fn location(&self, node: NodeId) -> Result<WetLoc, CompileError> {
        match self.loc[node.index()] {
            Loc::Reservoir(r) => Ok(WetLoc::Reservoir(r)),
            Loc::Unit(u) => Ok(u),
            state => Err(CompileError::Codegen(format!(
                "fluid `{}` is {state:?} when needed",
                self.dag.node(node).name
            ))),
        }
    }

    /// Evicts whatever is parked in `unit` (if anything) to a reservoir.
    fn evict_unit(&mut self, unit: WetLoc) -> Result<(), CompileError> {
        let parked = self
            .dag
            .node_ids()
            .find(|&n| self.loc[n.index()] == Loc::Unit(unit));
        if let Some(n) = parked {
            let r = self.alloc_reservoir()?;
            self.push(
                Instr::Move {
                    dst: WetLoc::Reservoir(r),
                    src: unit,
                    rel_vol: None,
                },
                Some(PlannedVolume::All),
            );
            self.loc[n.index()] = Loc::Reservoir(r);
        }
        Ok(())
    }

    /// Consumes one use of `src`'s fluid; frees its reservoir at the
    /// last use, draining any leftover so the reservoir can be reused
    /// without contamination.
    fn consume(&mut self, src: NodeId) {
        let rem = &mut self.remaining[src.index()];
        *rem = rem.saturating_sub(1);
        if *rem == 0 {
            if let Loc::Reservoir(r) = self.loc[src.index()] {
                if self.may_have_residue(src) {
                    self.push(
                        Instr::Output {
                            port: WetLoc::OutputPort(1),
                            src: WetLoc::Reservoir(r),
                        },
                        Some(PlannedVolume::All),
                    );
                }
                self.free_reservoirs.push(r);
            }
            self.loc[src.index()] = Loc::Gone;
        }
    }

    /// Whether a node's production may exceed the sum of its planned
    /// draws (leftover fluid in its reservoir after the last use).
    /// Without a static volume table the answer is conservatively yes.
    fn may_have_residue(&self, node: NodeId) -> bool {
        let (Some(node_pl), Some(edge_pl)) = (&self.node_pl, &self.edge_pl) else {
            return true;
        };
        let drawn: Picoliters = self
            .dag
            .out_edges(node)
            .iter()
            .map(|&e| edge_pl[e.index()])
            .sum();
        node_pl[node.index()] > drawn
    }

    /// After producing at `unit`: park single-use products, store
    /// multi-use products to a reservoir.
    fn place_product(&mut self, node: NodeId, unit: WetLoc) -> Result<(), CompileError> {
        if self.dag.num_uses(node) <= 1 {
            self.loc[node.index()] = Loc::Unit(unit);
        } else {
            let r = self.alloc_reservoir()?;
            self.push(
                Instr::Move {
                    dst: WetLoc::Reservoir(r),
                    src: unit,
                    rel_vol: None,
                },
                Some(PlannedVolume::All),
            );
            self.loc[node.index()] = Loc::Reservoir(r);
        }
        Ok(())
    }

    /// Input port supplying an auxiliary fluid (separation matrix /
    /// pusher); allocated on first use. Aux fluids are loaded straight
    /// into the separator's port per separation — they never occupy a
    /// reservoir and are flushed through the column by the separation.
    fn aux_port(&mut self, fluid: &str) -> Result<u32, CompileError> {
        if let Some(&p) = self.aux_ports.get(fluid) {
            return Ok(p);
        }
        let p = self.alloc_input_port()?;
        self.port_fluids.insert(p, fluid.to_owned());
        self.aux_ports.insert(fluid.to_owned(), p);
        Ok(p)
    }

    fn emit_node(&mut self, node: NodeId) -> Result<(), CompileError> {
        let kind = self.dag.node(node).kind.clone();
        match kind {
            NodeKind::Input | NodeKind::ConstrainedInput => {
                let r = self.alloc_reservoir()?;
                let p = self.alloc_input_port()?;
                self.push(
                    Instr::Comment(format!(" {}", self.dag.node(node).name)),
                    None,
                );
                let vol = match &self.node_pl {
                    Some(tbl) => PlannedVolume::Static(tbl[node.index()]),
                    None => PlannedVolume::All, // load to capacity
                };
                self.note_meta(None, Some(node));
                self.push(
                    Instr::Input {
                        dst: WetLoc::Reservoir(r),
                        port: WetLoc::InputPort(p),
                    },
                    Some(vol),
                );
                self.port_fluids.insert(p, self.dag.node(node).name.clone());
                self.loc[node.index()] = Loc::Reservoir(r);
                Ok(())
            }
            NodeKind::Mix { seconds } => {
                let mixer = WetLoc::Mixer(1);
                // If one of the inputs is parked in the mixer already,
                // mixing happens around it; otherwise clear the mixer.
                let ins: Vec<EdgeId> = self.dag.in_edges(node).to_vec();
                let parked_input = ins
                    .iter()
                    .find(|&&e| self.loc[self.dag.edge(e).src.index()] == Loc::Unit(mixer))
                    .copied();
                if parked_input.is_none() {
                    self.evict_unit(mixer)?;
                }
                let parts = self.rel_parts(node);
                for &e in &ins {
                    let src = self.dag.edge(e).src;
                    if Some(e) == parked_input {
                        self.consume(src);
                        continue; // already in the mixer
                    }
                    let src_loc = self.location(src)?;
                    let vol = self.edge_volume(e);
                    self.note_meta(Some(e), Some(src));
                    self.push(
                        Instr::Move {
                            dst: mixer,
                            src: src_loc,
                            rel_vol: Some(parts[&e]),
                        },
                        Some(vol),
                    );
                    self.consume(src);
                }
                self.push(
                    Instr::Mix {
                        unit: mixer,
                        seconds,
                    },
                    None,
                );
                self.place_product(node, mixer)
            }
            NodeKind::Process { ref op } => {
                if op.starts_with("sense") {
                    return self.emit_sense(node, op);
                }
                let heater = WetLoc::Heater(1);
                let e = self.dag.in_edges(node)[0];
                let src = self.dag.edge(e).src;
                if self.loc[src.index()] != Loc::Unit(heater) {
                    self.evict_unit(heater)?;
                    let src_loc = self.location(src)?;
                    let vol = self.edge_volume(e);
                    let metered = self.dag.num_uses(src) > 1;
                    self.note_meta(Some(e), Some(src));
                    self.push(
                        Instr::Move {
                            dst: heater,
                            src: src_loc,
                            rel_vol: metered.then_some(1),
                        },
                        Some(vol),
                    );
                }
                self.consume(src);
                let (temp_c, seconds) = self
                    .map
                    .process_details
                    .get(node.index())
                    .copied()
                    .flatten()
                    .unwrap_or((37, 0));
                let instr = if op == "concentrate" {
                    Instr::Concentrate {
                        unit: heater,
                        temp_c,
                        seconds,
                    }
                } else {
                    Instr::Incubate {
                        unit: heater,
                        temp_c,
                        seconds,
                    }
                };
                self.push(instr, None);
                self.place_product(node, heater)
            }
            NodeKind::Separate { .. } => {
                let sep = WetLoc::Separator(1, SepPort::Main);
                self.evict_unit(sep)?;
                self.evict_unit(WetLoc::Separator(1, SepPort::Out1))?;
                let (matrix, pusher, kind, seconds) = match self
                    .map
                    .separate_details
                    .get(node.index())
                    .and_then(Option::as_ref)
                {
                    Some((m, u, k, s)) => (m.clone(), u.clone(), *k, *s),
                    None => (
                        "matrix".to_owned(),
                        "pusher".to_owned(),
                        SepKind::Affinity,
                        0,
                    ),
                };
                let m_port = self.aux_port(&matrix)?;
                let p_port = self.aux_port(&pusher)?;
                self.push(Instr::Comment(format!(" {matrix} (matrix)")), None);
                self.push(
                    Instr::Input {
                        dst: WetLoc::Separator(1, SepPort::Matrix),
                        port: WetLoc::InputPort(m_port),
                    },
                    Some(PlannedVolume::All),
                );
                self.push(Instr::Comment(format!(" {pusher} (pusher)")), None);
                self.push(
                    Instr::Input {
                        dst: WetLoc::Separator(1, SepPort::Pusher),
                        port: WetLoc::InputPort(p_port),
                    },
                    Some(PlannedVolume::All),
                );
                let e = self.dag.in_edges(node)[0];
                let src = self.dag.edge(e).src;
                let src_loc = self.location(src)?;
                let vol = self.edge_volume(e);
                let metered = self.dag.num_uses(src) > 1;
                self.note_meta(Some(e), Some(src));
                self.push(
                    Instr::Move {
                        dst: sep,
                        src: src_loc,
                        rel_vol: metered.then_some(1),
                    },
                    Some(vol),
                );
                self.consume(src);
                let ais_kind = match kind {
                    SepKind::Affinity => SeparateKind::Affinity,
                    SepKind::LiquidChromatography => SeparateKind::LiquidChromatography,
                    SepKind::Electrophoresis => SeparateKind::Electrophoresis,
                    SepKind::Size => SeparateKind::Size,
                };
                let sep_idx = self.program.instrs().len();
                self.push(
                    Instr::Separate {
                        unit: sep,
                        kind: ais_kind,
                        seconds,
                    },
                    None,
                );
                match self.dag.node(node).kind {
                    NodeKind::Separate { fraction: Some(f) } => {
                        self.separation_fractions.insert(sep_idx, f.to_f64());
                    }
                    NodeKind::Separate { fraction: None } => {
                        if let Some(&key) = self.unknown_keys.get(&node) {
                            self.unknown_separations.insert(sep_idx, key);
                        }
                    }
                    _ => {}
                }
                self.place_product(node, WetLoc::Separator(1, SepPort::Out1))
            }
            NodeKind::Output | NodeKind::Excess => {
                // Excess discards go to the shared waste port (op1);
                // explicit outputs each get a dedicated port.
                let port = if kind == NodeKind::Output {
                    let p = self.next_output_port;
                    self.next_output_port += 1;
                    p
                } else {
                    1
                };
                let e = self.dag.in_edges(node)[0];
                let src = self.dag.edge(e).src;
                let src_loc = self.location(src)?;
                let vol = self.edge_volume(e);
                let metered = self.dag.num_uses(src) > 1;
                self.note_meta(Some(e), Some(src));
                self.push(
                    Instr::Output {
                        port: WetLoc::OutputPort(port),
                        src: src_loc,
                    },
                    Some(if metered { vol } else { PlannedVolume::All }),
                );
                self.consume(src);
                self.loc[node.index()] = Loc::Gone;
                Ok(())
            }
        }
    }

    fn emit_sense(&mut self, node: NodeId, op: &str) -> Result<(), CompileError> {
        let sensor = WetLoc::Sensor(2); // the paper's listings use sensor2
        let e = self.dag.in_edges(node)[0];
        let src = self.dag.edge(e).src;
        if self.loc[src.index()] != Loc::Unit(sensor) {
            self.evict_unit(sensor)?;
            let src_loc = self.location(src)?;
            let vol = self.edge_volume(e);
            let metered = self.dag.num_uses(src) > 1;
            self.note_meta(Some(e), Some(src));
            self.push(
                Instr::Move {
                    dst: sensor,
                    src: src_loc,
                    rel_vol: metered.then_some(1),
                },
                Some(vol),
            );
        }
        self.consume(src);
        let (mode, target) = match self
            .map
            .sense_details
            .get(node.index())
            .and_then(Option::as_ref)
        {
            Some((m, t)) => (*m, t.clone()),
            None => (SenseMode::Optical, self.dag.node(node).name.clone()),
        };
        let kind = match (mode, op) {
            (SenseMode::Fluorescence, _) => SenseKind::Fluorescence,
            (_, "sense.FL") => SenseKind::Fluorescence,
            _ => SenseKind::OpticalDensity,
        };
        self.push(
            Instr::Sense {
                unit: sensor,
                kind,
                dst: DryReg(target),
            },
            None,
        );
        // The sensed aliquot is consumed; the sensor is free again.
        self.loc[node.index()] = Loc::Gone;
        Ok(())
    }
}

fn lcm(a: i128, b: i128) -> i128 {
    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    (a / gcd(a, b)).saturating_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};

    const GLUCOSE: &str = "
ASSAY glucose START
fluid Glucose, Reagent, Sample;
fluid a, b, c, d, e;
VAR Result[5];
a = MIX Glucose AND Reagent IN RATIOS 1 : 1 FOR 10;
SENSE OPTICAL it INTO Result[1];
b = MIX Glucose AND Reagent IN RATIOS 1 : 2 FOR 10;
SENSE OPTICAL it INTO Result[2];
c = MIX Glucose AND Reagent IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO Result[3];
d = MIX Glucose AND Reagent IN RATIOS 1 : 8 FOR 10;
SENSE OPTICAL it INTO Result[4];
e = MIX Sample AND Reagent IN RATIOS 1 : 1 FOR 10;
SENSE OPTICAL it INTO Result[5];
END";

    #[test]
    fn glucose_emits_paper_shaped_code() {
        let machine = Machine::paper_default();
        let out = compile(GLUCOSE, &machine, &CompileOptions::default()).unwrap();
        let text = out.program.to_string();
        // The paper's Figure 9(b) landmarks.
        assert!(text.contains("input s1, ip1"));
        assert!(text.contains("move mixer1, s"));
        assert!(text.contains("mix mixer1, 10"));
        assert!(text.contains("move sensor2, mixer1"));
        assert!(text.contains("sense.OD sensor2, Result[1]"));
        // 3 inputs + (2 moves + mix + move-to-sensor + sense) * 5 = 28
        // executable instructions.
        assert_eq!(out.program.len_executable(), 28);
    }

    #[test]
    fn glucose_plan_volumes_match_dagsolve() {
        let machine = Machine::paper_default();
        let out = compile(GLUCOSE, &machine, &CompileOptions::default()).unwrap();
        // The minimum metered move is the 1:8 glucose aliquot: 3.3 nl
        // = 3300 pl (Figure 12's "smallest volume dispensed is 3.3 nl").
        let mut min_static = u64::MAX;
        for entry in out.volume_plan.entries.iter().flatten() {
            if let PlannedVolume::Static(v) = entry {
                if *v > 0 {
                    min_static = min_static.min(*v);
                }
            }
        }
        assert_eq!(min_static, 3300);
    }

    #[test]
    fn every_instruction_has_a_plan_slot() {
        let machine = Machine::paper_default();
        let out = compile(GLUCOSE, &machine, &CompileOptions::default()).unwrap();
        assert_eq!(out.volume_plan.entries.len(), out.program.instrs().len());
    }

    #[test]
    fn multi_use_products_are_stored_to_reservoirs() {
        let machine = Machine::paper_default();
        let src = "
ASSAY t START
fluid A, B, premix;
premix = MIX A AND B FOR 5;
MIX premix AND A IN RATIOS 1 : 1 FOR 5;
SENSE OPTICAL it INTO R1;
MIX premix AND B IN RATIOS 1 : 2 FOR 5;
SENSE OPTICAL it INTO R2;
END";
        let out = compile(src, &machine, &CompileOptions::default()).unwrap();
        let text = out.program.to_string();
        // premix (2 uses) must be parked in a reservoir: a move from
        // mixer1 to a reservoir appears right after the first mix.
        let lines: Vec<&str> = text.lines().collect();
        let mix_idx = lines.iter().position(|l| l.contains("mix mixer1")).unwrap();
        assert!(
            lines[mix_idx + 1].trim().starts_with("move s"),
            "expected store after first mix, got `{}`",
            lines[mix_idx + 1]
        );
    }

    #[test]
    fn separation_emits_matrix_and_pusher_loads() {
        let machine = Machine::paper_default();
        let src = "
ASSAY t START
fluid A, B, s, lectin, buf, eff, waste;
s = MIX A AND B FOR 30;
SEPARATE s MATRIX lectin USING buf FOR 30 INTO eff AND waste;
MIX eff AND A FOR 30;
END";
        let out = compile(src, &machine, &CompileOptions::default()).unwrap();
        let text = out.program.to_string();
        assert!(text.contains("input separator1.matrix, ip"));
        assert!(text.contains("input separator1.pusher, ip"));
        assert!(text.contains("separate.AF separator1, 30"));
        assert!(text.contains("separator1.out1"));
    }

    #[test]
    fn unknown_volume_assay_gets_runtime_plan_entries() {
        let machine = Machine::paper_default();
        let src = "
ASSAY t START
fluid A, B, s, m, buf, eff, waste;
s = MIX A AND B FOR 30;
SEPARATE s MATRIX m USING buf FOR 30 INTO eff AND waste;
MIX eff AND A FOR 30;
SENSE OPTICAL it INTO R;
END";
        let out = compile(src, &machine, &CompileOptions::default()).unwrap();
        assert!(matches!(
            out.resolution,
            crate::VolumeResolution::Partitioned(_)
        ));
        let has_runtime = out
            .volume_plan
            .entries
            .iter()
            .flatten()
            .any(|p| matches!(p, PlannedVolume::Runtime { .. }));
        assert!(has_runtime, "expected run-time volume entries");
    }

    #[test]
    fn metered_instructions_carry_recovery_metadata() {
        let machine = Machine::paper_default();
        let out = compile(GLUCOSE, &machine, &CompileOptions::default()).unwrap();
        let plan = &out.volume_plan;
        // Every static-metered instruction maps back to a DAG source.
        for (i, entry) in plan.entries.iter().enumerate() {
            if matches!(entry, Some(PlannedVolume::Static(_))) {
                assert!(
                    plan.instr_sources.contains_key(&i),
                    "instr {i} has a static volume but no source node"
                );
            }
        }
        // Slack table covers the whole DAG and sources have headroom
        // only where production exceeds draws (reconciled: no negatives).
        assert_eq!(plan.node_slack_pl.len(), out.dag.num_nodes());
        // Runtime entries (none for glucose) would populate partitions.
        assert!(plan.instr_partitions.is_empty());
    }

    #[test]
    fn reservoir_exhaustion_is_a_codegen_error() {
        let mut machine = Machine::paper_default();
        machine.reservoirs = 1;
        let out = compile(GLUCOSE, &machine, &CompileOptions::default());
        assert!(matches!(out, Err(CompileError::Codegen(_))));
    }

    #[test]
    fn skip_volume_management_marks_moves_all_or_relative() {
        let machine = Machine::paper_default();
        let opts = CompileOptions {
            skip_volume_management: true,
            ..Default::default()
        };
        let out = compile(GLUCOSE, &machine, &opts).unwrap();
        assert!(matches!(out.resolution, crate::VolumeResolution::None));
        for p in out.volume_plan.entries.iter().flatten() {
            assert_eq!(*p, PlannedVolume::All);
        }
    }

    #[test]
    fn reservoirs_are_recycled_after_last_use() {
        // A long chain of single-shot mixes must not accumulate
        // reservoirs: 20 sequential mixes with 2 inputs fits in the
        // default 32 reservoirs.
        let mut src = String::from("ASSAY t START\nfluid A, B;\n");
        for i in 0..20 {
            src.push_str(&format!(
                "MIX A AND B IN RATIOS 1 : {} FOR 5;\nSENSE OPTICAL it INTO R{i};\n",
                i + 1
            ));
        }
        src.push_str("END");
        let machine = Machine::paper_default();
        let out = compile(&src, &machine, &CompileOptions::default());
        assert!(out.is_ok(), "{:?}", out.err());
    }
}
