//! Incremental recompilation: trace recording and seeded replay.
//!
//! A push-mode session edits an already-compiled assay — one mix ratio,
//! one output weight — and wants the new plan without paying for a cold
//! run of the Figure 6 hierarchy. The contract is strict: the
//! incremental result must be **byte-identical** to a cold compile of
//! the edited DAG, so the replay never *approximates* the hierarchy; it
//! re-verifies the recorded decision trace against the edited graph and
//! updates each recorded table from the edit's seeds with the same
//! seeded updates the hierarchy carries its tables with
//! ([`vnorm::recompute_weighted`], [`feascheck::recompute`]), reading
//! each round's verdict through the same [`dagsolve::verdict`]. Any
//! decision that no longer holds (an underflow disappears, the LP stops
//! being provably infeasible, a mix crosses the extreme-ratio
//! threshold, a replication stops being blocked) is a *divergence*: the
//! caller discards the trace and recompiles cold.
//!
//! Recording happens inside the real [`crate::manage_volumes`] loop —
//! there is no shadow interpreter to drift out of sync. Two trace
//! shapes replay:
//!
//! - **Shape A**: round 0 DAGSolve solved outright. Replay is one
//!   seeded Vnorm update plus the verdict's scan of the table.
//! - **Shape B**: every round underflowed, was proven LP-infeasible by
//!   the exact pre-check, and cascaded all extreme mixes cleanly, until
//!   replication was blocked by machine resources. Replay re-verifies
//!   each round's verdicts on the stored per-round DAGs.
//!
//! Everything else — simplex runs, rewrites that solve, regeneration
//! fallbacks, errors — is recorded as non-replayable and served by cold
//! compiles.

use std::collections::HashMap;

use aqua_dag::{Dag, EdgeId, NodeId, Ratio};

use crate::cascade::CascadeInfo;
use crate::dagsolve::{self, DagSolveError};
use crate::feascheck::{self, DemandTable};
use crate::hierarchy::{manage_volumes_impl, ManagedOutcome, VolumeManagerOptions};
use crate::machine::Machine;
use crate::replicate::{self, ReplicateError};
use crate::vnorm::{self, VnormTable};

/// One cascade rewrite applied during a recorded round.
#[derive(Debug, Clone)]
pub struct CascadeRec {
    /// The cascaded (extreme) mix node.
    pub target: NodeId,
    /// Stage count reported in the solve log.
    pub depth: usize,
    /// Nodes the rewrite created, in creation order.
    pub generated: Vec<NodeId>,
}

/// Everything the replay needs about one hierarchy round.
#[derive(Debug, Clone)]
pub struct RoundRec {
    /// The working DAG as the round began (mutated in place by edits).
    pub dag: Dag,
    /// The weighted Vnorm table DAGSolve computed this round.
    pub vnorms: Option<VnormTable>,
    /// Whether DAGSolve underflowed this round.
    pub underflow: bool,
    /// The exact demand table that proved the LP infeasible, if it did.
    pub demand: Option<DemandTable>,
    /// Extreme mixes found this round (empty in the final round).
    pub extremes: Vec<NodeId>,
    /// Cascades applied, in application order.
    pub cascades: Vec<CascadeRec>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Pending,
    SolvedRound0,
    Blocked,
}

/// A decision trace of one [`crate::manage_volumes`] run.
///
/// Built by [`compile_with_trace`]; consumed by [`IncrSolver`].
#[derive(Debug, Clone)]
pub struct Recording {
    /// Per-round records, in round order.
    pub rounds: Vec<RoundRec>,
    /// The *unweighted* Vnorm table behind the final round's bottleneck
    /// scan (the hierarchy ranks replication candidates unweighted).
    pub final_vnorms: Option<VnormTable>,
    /// The resource-exhaustion reason, verbatim (Shape B).
    pub reason: Option<String>,
    replayable: bool,
    shape: Shape,
}

impl Recording {
    fn new() -> Recording {
        Recording {
            rounds: Vec::new(),
            final_vnorms: None,
            reason: None,
            replayable: true,
            shape: Shape::Pending,
        }
    }

    /// Whether the trace ended in a replayable shape with every table
    /// the replay needs.
    pub fn is_replayable(&self) -> bool {
        if !self.replayable {
            return false;
        }
        match self.shape {
            Shape::Pending => false,
            Shape::SolvedRound0 => {
                self.rounds.len() == 1
                    && self.rounds[0].vnorms.is_some()
                    && !self.rounds[0].underflow
            }
            Shape::Blocked => {
                !self.rounds.is_empty()
                    && self.reason.is_some()
                    && self.final_vnorms.is_some()
                    && self.rounds.iter().enumerate().all(|(i, r)| {
                        let last = i + 1 == self.rounds.len();
                        r.vnorms.is_some()
                            && r.underflow
                            && r.demand.is_some()
                            && (!last || (r.extremes.is_empty() && r.cascades.is_empty()))
                    })
            }
        }
    }

    fn cur(&mut self) -> Option<&mut RoundRec> {
        if self.replayable {
            self.rounds.last_mut()
        } else {
            None
        }
    }

    pub(crate) fn begin_round(&mut self, work: &Dag) {
        if !self.replayable {
            return;
        }
        self.rounds.push(RoundRec {
            dag: work.clone(),
            vnorms: None,
            underflow: false,
            demand: None,
            extremes: Vec::new(),
            cascades: Vec::new(),
        });
    }

    pub(crate) fn invalidate(&mut self) {
        self.replayable = false;
    }

    pub(crate) fn on_dagsolve(&mut self, vnorms: &VnormTable, underflow: bool) {
        if let Some(r) = self.cur() {
            r.vnorms = Some(vnorms.clone());
            r.underflow = underflow;
        }
    }

    pub(crate) fn on_solved(&mut self, round: usize) {
        if round == 0 && self.replayable {
            self.shape = Shape::SolvedRound0;
        } else {
            self.invalidate();
        }
    }

    pub(crate) fn on_proven_infeasible(&mut self, table: &DemandTable) {
        if let Some(r) = self.cur() {
            r.demand = Some(table.clone());
        }
    }

    pub(crate) fn on_extremes(&mut self, extremes: &[NodeId]) {
        if let Some(r) = self.cur() {
            r.extremes = extremes.to_vec();
        }
    }

    pub(crate) fn on_cascade(&mut self, info: &CascadeInfo) {
        // Cascading a node that an earlier cascade generated would make
        // cold-order reconstruction recursive; punt those traces.
        let base_nodes = self.rounds.first().map_or(0, |r| r.dag.num_nodes());
        if info.node.index() >= base_nodes {
            self.invalidate();
            return;
        }
        let generated: Vec<NodeId> = info
            .intermediates
            .iter()
            .zip(&info.excess_nodes)
            .flat_map(|(&m, &x)| [m, x])
            .collect();
        let depth = info.plan.depth();
        if let Some(r) = self.cur() {
            r.cascades.push(CascadeRec {
                target: info.node,
                depth,
                generated,
            });
        }
    }

    pub(crate) fn on_bottleneck(&mut self, table: &VnormTable) {
        if self.replayable {
            self.final_vnorms = Some(table.clone());
        }
    }

    pub(crate) fn on_blocked(&mut self, reason: &str) {
        if self.replayable {
            self.reason = Some(reason.to_string());
            self.shape = Shape::Blocked;
        }
    }
}

/// Runs the hierarchy once, recording a decision trace alongside the
/// normal outcome. The trace is returned only when it is replayable;
/// the outcome is identical to [`crate::manage_volumes`] either way.
pub fn compile_with_trace(
    dag: &Dag,
    machine: &Machine,
    opts: &VolumeManagerOptions,
) -> (ManagedOutcome, Option<Recording>) {
    let mut rec = Recording::new();
    let out = manage_volumes_impl(dag, machine, opts, Some(&mut rec));
    let rec = rec.is_replayable().then_some(rec);
    (out, rec)
}

/// An edit expressed against the trace's *base* DAG (the canonical DAG
/// the trace was recorded on; round-0 node and edge ids).
#[derive(Debug, Clone)]
pub enum IncrEdit {
    /// New fractions for some of one mix node's in-edges.
    Fractions {
        /// The edited mix.
        node: NodeId,
        /// `(in-edge, new fraction)` pairs; fractions of the node's
        /// full in-edge set must still sum to one.
        changes: Vec<(EdgeId, Ratio)>,
    },
    /// A new relative output weight for one output node.
    Weight {
        /// The output node.
        node: NodeId,
        /// The new weight.
        weight: Ratio,
    },
}

/// Result of a successful replay.
#[derive(Debug, Clone)]
pub enum ReplayOutcome {
    /// Shape A: the edited assay still solves in round 0. Volumes are
    /// indexed by the base DAG's node/edge ids.
    Solved {
        /// Absolute per-node volumes in nl.
        node_volumes_nl: Vec<Ratio>,
        /// Absolute per-edge volumes in nl.
        edge_volumes_nl: Vec<Ratio>,
    },
    /// Shape B: the edited assay still exhausts machine resources.
    /// `log` is fully rendered in the edited DAG's canonical namespace.
    Blocked {
        /// The resource-exhaustion reason, byte-identical to a cold
        /// compile's.
        reason: String,
        /// The full solve log, byte-identical to a cold compile's.
        log: Vec<String>,
    },
}

/// A recorded decision no longer holds under the edit; the caller must
/// recompile cold. The label names the first check that failed (fed to
/// observability counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence(pub &'static str);

/// The divergence for a DAGSolve verdict the replay cannot read.
fn diverged(e: DagSolveError) -> Divergence {
    Divergence(match e {
        DagSolveError::ZeroDemand => "zero-demand",
        _ => "verdict-arithmetic",
    })
}

/// Replays edits against a recorded trace.
///
/// The solver owns the trace and mutates it as edits apply, so a
/// session can push many successful edits through one trace. After a
/// [`Divergence`] the solver is poisoned — discard it and rebuild from
/// a fresh [`compile_with_trace`].
#[derive(Debug, Clone)]
pub struct IncrSolver {
    machine: Machine,
    weights: HashMap<NodeId, Ratio>,
    rec: Recording,
    /// Cached topological positions per round (round topology never
    /// changes under fraction/weight edits).
    topo: Vec<Option<Vec<usize>>>,
}

impl IncrSolver {
    /// Wraps a replayable recording. `weights` must be the output
    /// weights the trace was compiled with (base-DAG node ids).
    pub fn new(
        machine: Machine,
        weights: HashMap<NodeId, Ratio>,
        rec: Recording,
    ) -> Option<IncrSolver> {
        if !rec.is_replayable() {
            return None;
        }
        let topo = vec![None; rec.rounds.len()];
        Some(IncrSolver {
            machine,
            weights,
            rec,
            topo,
        })
    }

    /// Number of nodes in the base (round 0) DAG.
    pub fn base_nodes(&self) -> usize {
        self.rec.rounds[0].dag.num_nodes()
    }

    /// Replays one edit. `base_to_cur[i]` maps base-DAG node `i` to its
    /// rank in the *edited* DAG's canonical order — the replay renders
    /// node names (and orders cascade log lines and replication
    /// tie-breaks) exactly as a cold compile of the edited DAG would.
    ///
    /// Returns the size of the edit's dirty slice (the touched node's
    /// backward slice, largest over the replayed rounds) alongside the
    /// outcome so callers can report it.
    ///
    /// # Errors
    ///
    /// [`Divergence`] when any recorded decision no longer holds; the
    /// solver must then be discarded.
    pub fn replay_edit(
        &mut self,
        edit: &IncrEdit,
        base_to_cur: &[usize],
    ) -> Result<(ReplayOutcome, usize), Divergence> {
        let base_n = self.base_nodes();
        let (touched, changes) = match edit {
            IncrEdit::Fractions { node, changes } => (*node, Some(changes)),
            IncrEdit::Weight { node, weight } => {
                self.weights.insert(*node, *weight);
                (*node, None)
            }
        };
        if touched.index() >= base_n || base_to_cur.len() < base_n {
            return Err(Divergence("bad-edit-target"));
        }
        // A fraction edit on a node the trace cascaded would invalidate
        // the stored rewrites themselves.
        if self
            .rec
            .rounds
            .iter()
            .any(|r| r.cascades.iter().any(|c| c.target == touched))
        {
            return Err(Divergence("edited-cascaded-node"));
        }

        let shape = self.rec.shape;
        let nrounds = self.rec.rounds.len();
        let mut underflow_vols: Vec<Ratio> = Vec::with_capacity(nrounds);
        let mut solved: Option<(Vec<Ratio>, Vec<Ratio>)> = None;
        let mut slice_len = 0usize;
        // A fraction edit changes the touched mix's in-edges, so its
        // producers are seeds too; a weight edit changes one leaf.
        let seeds = |dag: &Dag| -> Vec<NodeId> {
            let mut seeds = vec![touched];
            if changes.is_some() {
                seeds.extend(dag.in_edges(touched).iter().map(|&e| dag.edge(e).src));
            }
            seeds
        };

        for r in 0..nrounds {
            if self.topo[r].is_none() {
                let pos = self.rec.rounds[r]
                    .dag
                    .topo_positions()
                    .map_err(|_| Divergence("cyclic-round-dag"))?;
                self.topo[r] = Some(pos);
            }
            let round = &mut self.rec.rounds[r];
            if let Some(changes) = changes {
                for &(e, f) in changes {
                    round.dag.set_edge_fraction(e, f);
                }
            }
            let pos = self.topo[r].as_deref().expect("cached above");
            let seeds = seeds(&round.dag);
            // Reported as the edit's dirty slice on the wire; the update
            // itself re-evaluates only what moved inside it.
            slice_len = slice_len.max(round.dag.backward_slice(touched).len());
            let table = round.vnorms.as_mut().expect("replayable trace");
            vnorm::recompute_weighted(table, &round.dag, &self.weights, &seeds, pos)
                .map_err(|_| Divergence("vnorm-error"))?;

            // The same DAGSolve verdict a cold compile reads.
            let verdict = dagsolve::verdict(&round.dag, &self.machine, table).map_err(diverged)?;
            if verdict.underflow.is_some() != round.underflow {
                return Err(Divergence("underflow-flipped"));
            }
            match verdict.underflow {
                Some(under) => underflow_vols.push(under.volume_nl),
                None => {
                    // Shape A's single round; Shape B rounds always
                    // underflow, checked just above.
                    solved = Some(verdict.volumes(table).map_err(diverged)?);
                    break;
                }
            }

            if changes.is_some() {
                // The exact LP pre-check must still prove infeasibility,
                // or a cold compile would run the simplex. (Weight edits
                // skip this: the demand reduction is weight-free.)
                let demand = round.demand.as_mut().expect("replayable trace");
                feascheck::recompute(demand, &round.dag, &self.machine, &seeds, pos)
                    .map_err(|_| Divergence("feascheck-unsupported"))?;
                if !demand.infeasible() {
                    return Err(Divergence("lp-not-proven"));
                }
                // The touched mix must stay on its side of the
                // extreme-ratio threshold; no other node's fractions
                // moved, so no other membership can change.
                let threshold = self
                    .machine
                    .span()
                    .checked_recip()
                    .map_err(|_| Divergence("bad-span"))?;
                let was_extreme = round.extremes.contains(&touched);
                let is_extreme = round
                    .dag
                    .in_edges(touched)
                    .iter()
                    .any(|&e| round.dag.edge(e).fraction <= threshold);
                if was_extreme != is_extreme {
                    return Err(Divergence("extreme-flipped"));
                }
            }
        }

        if let Some((node_volumes_nl, edge_volumes_nl)) = solved {
            if shape != Shape::SolvedRound0 {
                return Err(Divergence("underflow-flipped"));
            }
            return Ok((
                ReplayOutcome::Solved {
                    node_volumes_nl,
                    edge_volumes_nl,
                },
                slice_len,
            ));
        }
        if shape != Shape::Blocked {
            return Err(Divergence("shape-mismatch"));
        }

        // Final round: re-rank the bottleneck unweighted and confirm
        // its replication is still blocked by the same resource.
        let last = nrounds - 1;
        if changes.is_some() {
            let fdag = &self.rec.rounds[last].dag;
            let pos = self.topo[last].as_deref().expect("cached above");
            let ftable = self.rec.final_vnorms.as_mut().expect("replayable trace");
            vnorm::recompute_weighted(ftable, fdag, &HashMap::new(), &seeds(fdag), pos)
                .map_err(|_| Divergence("vnorm-error"))?;
        }
        let cold = self.cold_positions(base_to_cur);
        let fdag = &self.rec.rounds[last].dag;
        let ftable = self.rec.final_vnorms.as_ref().expect("replayable trace");
        let mut order: Vec<NodeId> = fdag.node_ids().collect();
        order.sort_by_key(|n| cold[n.index()]);
        // Mirror `replicate::bottleneck_candidate`: max load over
        // parked interior nodes, last maximum in cold node order.
        let mut best: Option<(Ratio, NodeId)> = None;
        for n in order {
            if fdag.num_uses(n) >= 2 && !fdag.node(n).kind.is_sink() {
                let load = ftable.load[n.index()];
                if best.is_none_or(|(b, _)| load >= b) {
                    best = Some((load, n));
                }
            }
        }
        let (_, candidate) = best.ok_or(Divergence("no-candidate"))?;
        let reason = match replicate::projected_fits(fdag, candidate, 2, &self.machine) {
            Err(ReplicateError::ResourcesExceeded { what }) => what,
            _ => return Err(Divergence("replication-unblocked")),
        };

        let mut log = Vec::new();
        for (r, (round, vol)) in self.rec.rounds.iter().zip(&underflow_vols).enumerate() {
            log.push(format!("round {r}: DAGSolve underflowed ({vol})"));
            log.push(format!("round {r}: LP infeasible"));
            let mut cascades: Vec<&CascadeRec> = round.cascades.iter().collect();
            cascades.sort_by_key(|c| cold[c.target.index()]);
            for c in cascades {
                log.push(format!(
                    "round {r}: cascaded `f{}` into {} stages",
                    base_to_cur[c.target.index()],
                    c.depth
                ));
            }
        }
        log.push(format!("round {last}: replication blocked: {reason}"));
        Ok((ReplayOutcome::Blocked { reason, log }, slice_len))
    }

    /// Total order of the final round's nodes as a cold compile of the
    /// edited DAG would create them: base nodes in edited canonical
    /// rank order, then cascade-generated nodes round by round, each
    /// round's cascades ordered by their target's rank.
    fn cold_positions(&self, base_to_cur: &[usize]) -> Vec<u64> {
        let base_n = self.base_nodes();
        let total = self.rec.rounds.last().map_or(base_n, |r| r.dag.num_nodes());
        let mut cold = vec![0u64; total];
        for (i, slot) in cold.iter_mut().enumerate().take(base_n) {
            *slot = base_to_cur[i] as u64;
        }
        let mut next = base_n as u64;
        for round in &self.rec.rounds {
            let mut cascades: Vec<&CascadeRec> = round.cascades.iter().collect();
            cascades.sort_by_key(|c| cold[c.target.index()]);
            for c in cascades {
                for &g in &c.generated {
                    if g.index() < total {
                        cold[g.index()] = next;
                    }
                    next += 1;
                }
            }
        }
        cold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::manage_volumes;

    fn machine() -> Machine {
        Machine::paper_default()
    }

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    /// Round-0 solvable assay: trace is Shape A, and a ratio edit
    /// replays to exactly the volumes a cold compile produces.
    #[test]
    fn shape_a_replay_matches_cold_compile() {
        let mut d = Dag::new();
        let a = d.add_input("f0");
        let b = d.add_input("f1");
        let m = d.add_mix("f2", &[(a, 1), (b, 4)], 0).unwrap();
        d.add_process("f3", "sense.OD", m);
        let opts = VolumeManagerOptions::default();
        let (out, rec) = compile_with_trace(&d, &machine(), &opts);
        assert!(out.is_solved());
        let rec = rec.expect("shape A is replayable");
        let mut solver = IncrSolver::new(machine(), HashMap::new(), rec).unwrap();

        // Edit 1:4 -> 3:7 and replay.
        let mut edited = d.clone();
        let changes = aqua_dag::set_mix_ratio(&mut edited, m, &[(a, 3), (b, 7)]).unwrap();
        let (outcome, dirty) = solver
            .replay_edit(
                &IncrEdit::Fractions { node: m, changes },
                &identity(d.num_nodes()),
            )
            .expect("replay succeeds");
        assert!(dirty >= 3);
        let cold = manage_volumes(&edited, &machine(), &opts);
        match (outcome, cold) {
            (
                ReplayOutcome::Solved {
                    node_volumes_nl,
                    edge_volumes_nl,
                },
                ManagedOutcome::Solved { volumes, .. },
            ) => {
                assert_eq!(node_volumes_nl, volumes.node_volumes_nl);
                assert_eq!(edge_volumes_nl, volumes.edge_volumes_nl);
            }
            other => panic!("expected solved/solved, got {other:?}"),
        }
    }

    /// Consecutive edits accumulate: each replay applies on top of the
    /// previous edit's state.
    #[test]
    fn consecutive_edits_accumulate() {
        let mut d = Dag::new();
        let a = d.add_input("f0");
        let b = d.add_input("f1");
        let m = d.add_mix("f2", &[(a, 1), (b, 4)], 0).unwrap();
        d.add_process("f3", "sense.OD", m);
        let opts = VolumeManagerOptions::default();
        let (_, rec) = compile_with_trace(&d, &machine(), &opts);
        let mut solver = IncrSolver::new(machine(), HashMap::new(), rec.unwrap()).unwrap();
        let ident = identity(d.num_nodes());

        let mut edited = d.clone();
        for parts in [(2u64, 3u64), (1, 1), (5, 3)] {
            let changes =
                aqua_dag::set_mix_ratio(&mut edited, m, &[(a, parts.0), (b, parts.1)]).unwrap();
            let (outcome, _) = solver
                .replay_edit(&IncrEdit::Fractions { node: m, changes }, &ident)
                .expect("replay succeeds");
            let cold = manage_volumes(&edited, &machine(), &opts);
            match (outcome, cold) {
                (
                    ReplayOutcome::Solved {
                        node_volumes_nl, ..
                    },
                    ManagedOutcome::Solved { volumes, .. },
                ) => assert_eq!(node_volumes_nl, volumes.node_volumes_nl),
                other => panic!("expected solved/solved, got {other:?}"),
            }
        }
    }

    /// A weight edit replays through the weighted Vnorm pass.
    #[test]
    fn weight_edit_replays() {
        let mut d = Dag::new();
        let a = d.add_input("f0");
        let b = d.add_input("f1");
        let m = d.add_mix("f2", &[(a, 1), (b, 1)], 0).unwrap();
        let o = d.add_output("f3", m);
        let opts = VolumeManagerOptions::default();
        let (_, rec) = compile_with_trace(&d, &machine(), &opts);
        let mut solver = IncrSolver::new(machine(), HashMap::new(), rec.unwrap()).unwrap();

        let w = Ratio::from_int(3);
        let (outcome, _) = solver
            .replay_edit(
                &IncrEdit::Weight { node: o, weight: w },
                &identity(d.num_nodes()),
            )
            .expect("replay succeeds");
        let mut opts_w = VolumeManagerOptions::default();
        opts_w.output_weights.insert(o, w);
        let cold = manage_volumes(&d, &machine(), &opts_w);
        match (outcome, cold) {
            (
                ReplayOutcome::Solved {
                    node_volumes_nl, ..
                },
                ManagedOutcome::Solved { volumes, .. },
            ) => assert_eq!(node_volumes_nl, volumes.node_volumes_nl),
            other => panic!("expected solved/solved, got {other:?}"),
        }
    }

    /// An edit that changes the solve shape (the underflow disappears
    /// or appears) must report a divergence, never a wrong plan.
    #[test]
    fn shape_change_diverges() {
        // 1:1500 is extreme enough that DAGSolve underflows.
        let mut d = Dag::new();
        let a = d.add_input("f0");
        let b = d.add_input("f1");
        let m = d.add_mix("f2", &[(a, 1), (b, 4)], 0).unwrap();
        d.add_process("f3", "sense.OD", m);
        let opts = VolumeManagerOptions::default();
        let (_, rec) = compile_with_trace(&d, &machine(), &opts);
        let mut solver = IncrSolver::new(machine(), HashMap::new(), rec.unwrap()).unwrap();
        let mut edited = d.clone();
        let changes = aqua_dag::set_mix_ratio(&mut edited, m, &[(a, 1), (b, 1500)]).unwrap();
        let err = solver
            .replay_edit(
                &IncrEdit::Fractions { node: m, changes },
                &identity(d.num_nodes()),
            )
            .expect_err("underflow appears; must diverge");
        assert_eq!(err, Divergence("underflow-flipped"));
    }

    /// Shape B: a resource-blocked assay replays a ratio edit to the
    /// byte-identical reason and log of a cold compile.
    #[test]
    fn shape_b_replay_matches_cold_compile() {
        let (d, edit_node, srcs) = blocked_assay();
        let opts = VolumeManagerOptions::default();
        let mut machine = machine();
        machine.reservoirs = 8;
        let (out, rec) = compile_with_trace(&d, &machine, &opts);
        assert!(
            matches!(out, ManagedOutcome::ResourcesExceeded { .. }),
            "{out:?}"
        );
        let rec = rec.expect("shape B is replayable");
        let mut solver = IncrSolver::new(machine.clone(), HashMap::new(), rec).unwrap();

        let mut edited = d.clone();
        let changes =
            aqua_dag::set_mix_ratio(&mut edited, edit_node, &[(srcs.0, 2), (srcs.1, 3)]).unwrap();
        assert!(!changes.is_empty());
        let (outcome, _) = solver
            .replay_edit(
                &IncrEdit::Fractions {
                    node: edit_node,
                    changes,
                },
                &identity(d.num_nodes()),
            )
            .expect("replay succeeds");
        let cold = manage_volumes(&edited, &machine, &opts);
        match (outcome, cold) {
            (
                ReplayOutcome::Blocked { reason, log },
                ManagedOutcome::ResourcesExceeded {
                    reason: cold_reason,
                    log: cold_log,
                },
            ) => {
                assert_eq!(reason, cold_reason);
                assert_eq!(log, cold_log);
            }
            other => panic!("expected blocked/blocked, got {other:?}"),
        }
    }

    /// An assay whose extreme mixes cascade cleanly but whose
    /// replication is blocked by a tiny reservoir bank. Node names
    /// follow the canonical `f{i}` scheme so rendered logs line up
    /// with the identity rank map.
    fn blocked_assay() -> (Dag, NodeId, (NodeId, NodeId)) {
        let mut d = Dag::new();
        let mut idx = 0;
        let mut name = || {
            let n = format!("f{idx}");
            idx += 1;
            n
        };
        let stock = d.add_input(name());
        let other = d.add_input(name());
        // One extreme mix (cascades), many shared uses of `stock` so
        // replication is the only remaining rewrite, then blocked.
        let extreme = d.add_mix(name(), &[(stock, 1), (other, 1999)], 0).unwrap();
        d.add_process(name(), "sense.OD", extreme);
        let mild = d.add_mix(name(), &[(stock, 1), (other, 1)], 0).unwrap();
        d.add_process(name(), "sense.OD", mild);
        for _ in 0..40 {
            let m = d.add_mix(name(), &[(stock, 1), (other, 2999)], 0).unwrap();
            d.add_process(name(), "sense.OD", m);
        }
        (d, mild, (stock, other))
    }
}
