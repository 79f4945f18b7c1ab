//! The volume-management hierarchy of Figure 6.
//!
//! The preferred solver is DAGSolve (fast, occasionally infeasible);
//! its underflows fall back to the LP (slow, strictly more general);
//! LP failures trigger the DAG rewrites — cascading for extreme mix
//! ratios, static replication for numerous uses — and the rewritten DAG
//! re-enters the hierarchy. When everything fails within budget, the
//! assay must rely on reactive regeneration at run time (Biostream's
//! policy, provided by the simulator) — better a slow solution than
//! none.

use std::collections::HashMap;
use std::fmt;

use aqua_dag::{Dag, DagError, NodeId, Ratio};

use crate::cascade;
use crate::dagsolve::{self, DagSolveError, Verdict, VolumeAssignment};
use crate::feascheck::{self, DemandTable};
use crate::incr::Recording;
use crate::lpform::{self, LpOptions};
use crate::machine::Machine;
use crate::replicate;
use crate::round;
use crate::vnorm::{self, VnormError, VnormTable};

/// Which solver finally produced the accepted assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Plain DAGSolve on the original DAG.
    DagSolve,
    /// LP fallback on the original DAG.
    Lp,
    /// DAGSolve after cascading and/or replication rewrites.
    DagSolveAfterRewrites,
    /// LP after cascading and/or replication rewrites.
    LpAfterRewrites,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::DagSolve => write!(f, "DAGSolve"),
            Method::Lp => write!(f, "LP"),
            Method::DagSolveAfterRewrites => write!(f, "DAGSolve (after rewrites)"),
            Method::LpAfterRewrites => write!(f, "LP (after rewrites)"),
        }
    }
}

/// Budgets for the hierarchy.
#[derive(Debug, Clone)]
pub struct VolumeManagerOptions {
    /// Maximum rewrite rounds (each round cascades every extreme mix or
    /// replicates one bottleneck).
    pub max_rewrite_rounds: usize,
    /// Whether excess production (and hence cascading) is allowed; some
    /// fluids forbid discarding for safety/cost/regulatory reasons.
    pub allow_excess: bool,
    /// Whether the LP fallback runs at all (DAGSolve-only mode for
    /// run-time use).
    pub use_lp: bool,
    /// Relative output weights by node id (absent = 1): the paper's
    /// `Va:Vb:Vc` proportions, fed to DAGSolve's Vnorm initialization.
    pub output_weights: std::collections::HashMap<aqua_dag::NodeId, Ratio>,
    /// Fluids (by node name) for which excess production is forbidden —
    /// cascading never rewrites a mix that consumes them (§3.4.1:
    /// "because of safety, cost, regulation, or even correctness").
    pub no_excess_fluids: Vec<String>,
    /// Observability handle: spans (`vol.manage`, one `vol.dagsolve`
    /// per round, `vol.lp` with one `vol.precheck` inside per LP
    /// fallback) and counters (`vol.vnorm_passes`,
    /// `vol.cascade_rewrites`, `vol.replicate_rewrites`,
    /// `vol.lp_fallbacks`, `vol.precheck_infeasible`, `vol.escalations`)
    /// flow through here and into the LP solver beneath.
    /// `vol.vnorm_passes` counts Vnorm table reads — one per DAGSolve
    /// attempt and one per replication scan. A read is a full backward
    /// pass only when no table is carried (round 0, or after a failed
    /// read); otherwise it updates the carried table from the rewrites'
    /// seeds. The default [`aqua_obs::Obs::off`] handle reduces every
    /// probe to one branch.
    pub obs: aqua_obs::Obs,
}

impl Default for VolumeManagerOptions {
    fn default() -> VolumeManagerOptions {
        VolumeManagerOptions {
            max_rewrite_rounds: 6,
            allow_excess: true,
            use_lp: true,
            output_weights: std::collections::HashMap::new(),
            no_excess_fluids: Vec::new(),
            obs: aqua_obs::Obs::off(),
        }
    }
}

/// Volumes accepted by the hierarchy, tagged by solver.
#[derive(Debug, Clone)]
pub struct ManagedVolumes {
    /// Exact per-edge volumes in nl, indexed by edge id of the
    /// *transformed* DAG.
    pub edge_volumes_nl: Vec<Ratio>,
    /// Exact per-node production in nl.
    pub node_volumes_nl: Vec<Ratio>,
    /// Which solver produced this.
    pub method: Method,
}

/// Final outcome of the hierarchy.
///
/// Variants intentionally carry the (large) rewritten DAG by value: the
/// caller owns it from here on and the hierarchy runs once per
/// compilation, so boxing would only add indirection.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum ManagedOutcome {
    /// An underflow-free assignment was found; `dag` is the (possibly
    /// rewritten) DAG the volumes refer to.
    Solved {
        /// The DAG the volumes index into (original or rewritten).
        dag: Dag,
        /// The accepted volumes.
        volumes: ManagedVolumes,
        /// Human-readable solve log (one line per attempt).
        log: Vec<String>,
    },
    /// No static assignment exists within budget; execution must rely on
    /// run-time regeneration. The best-effort assignment (with
    /// underflows) is included so execution can still be attempted.
    NeedsRegeneration {
        /// The last rewritten DAG attempted.
        dag: Dag,
        /// Best-effort DAGSolve result on that DAG (may underflow).
        best_effort: Option<VolumeAssignment>,
        /// Human-readable solve log.
        log: Vec<String>,
    },
    /// A rewrite exceeded the machine's fluid-path resources:
    /// compilation fails (§3.4.2).
    ResourcesExceeded {
        /// Description of the exhausted resource.
        reason: String,
        /// Human-readable solve log.
        log: Vec<String>,
    },
}

impl ManagedOutcome {
    /// Whether a full assignment was produced.
    pub fn is_solved(&self) -> bool {
        matches!(self, ManagedOutcome::Solved { .. })
    }
}

/// Runs the Figure 6 hierarchy on an assay DAG.
///
/// # Examples
///
/// ```
/// use aqua_dag::Dag;
/// use aqua_volume::{manage_volumes, Machine, Method, VolumeManagerOptions};
///
/// let mut dag = Dag::new();
/// let a = dag.add_input("A");
/// let b = dag.add_input("B");
/// let m = dag.add_mix("mx", &[(a, 1), (b, 4)], 0)?;
/// dag.add_process("sense", "sense.OD", m);
/// let out = manage_volumes(&dag, &Machine::paper_default(), &VolumeManagerOptions::default());
/// assert!(out.is_solved());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn manage_volumes(dag: &Dag, machine: &Machine, opts: &VolumeManagerOptions) -> ManagedOutcome {
    manage_volumes_impl(dag, machine, opts, &mut Recording::off())
}

/// [`manage_volumes`] with a decision-trace recorder for incremental
/// replay ([`crate::incr`]). The recorder observes the real loop — there
/// is no shadow interpreter — so a recorded trace is by construction the
/// trace of the returned outcome. Every hook of a recording that is not
/// (or no longer) replayable returns at its first branch.
pub(crate) fn manage_volumes_impl(
    dag: &Dag,
    machine: &Machine,
    opts: &VolumeManagerOptions,
    rec: &mut Recording,
) -> ManagedOutcome {
    let _manage_span = opts.obs.span("vol.manage");
    let mut work = dag.clone();
    let mut log = Vec::new();
    let mut rewritten = false;
    let mut tables = Tables::default();
    // The round's DAGSolve verdict while it underflows: the best-effort
    // assignment, read off `tables` only if the hierarchy gives up.
    let mut best: Option<Verdict> = None;

    for round in 0..=opts.max_rewrite_rounds {
        rec.begin_round(&work);
        // --- 1. DAGSolve ---
        let verdict = {
            let _span = opts.obs.span("vol.dagsolve");
            // Every DAGSolve attempt reads one Vnorm table: a full
            // backward pass in round 0, a seeded update after rewrites.
            opts.obs.add("vol.vnorm_passes", 1);
            // A verdict without underflow is the answer: its volumes are
            // part of the read (an overflow there is a DAGSolve error).
            tables
                .vnorms(&work, &opts.output_weights)
                .map_err(DagSolveError::from)
                .and_then(|t| {
                    let v = dagsolve::verdict(&work, machine, t)?;
                    let volumes = match v.underflow {
                        None => Some(v.volumes(t)?),
                        Some(_) => None,
                    };
                    rec.on_dagsolve(t, v.underflow.is_some());
                    Ok((v, volumes))
                })
        };
        match verdict {
            Ok((v, volumes)) => match (&v.underflow, volumes) {
                (None, Some((node_volumes_nl, edge_volumes_nl))) => {
                    rec.on_solved(round);
                    log.push(format!("round {round}: DAGSolve succeeded"));
                    let method = if rewritten {
                        Method::DagSolveAfterRewrites
                    } else {
                        Method::DagSolve
                    };
                    return ManagedOutcome::Solved {
                        volumes: ManagedVolumes {
                            edge_volumes_nl,
                            node_volumes_nl,
                            method,
                        },
                        dag: work,
                        log,
                    };
                }
                (Some(under), _) => {
                    log.push(format!(
                        "round {round}: DAGSolve underflowed ({})",
                        under.volume_nl
                    ));
                    best = Some(v);
                }
                (None, None) => unreachable!("volumes are read with every solved verdict"),
            },
            Err(e) => {
                rec.invalidate();
                log.push(format!("round {round}: DAGSolve error: {e}"));
                best = None;
            }
        }

        // --- 2. LP fallback ---
        if opts.use_lp {
            opts.obs.add("vol.lp_fallbacks", 1);
            let _lp_span = opts.obs.span("vol.lp");
            // Exact infeasibility pre-check: when the rational demand
            // propagation certifies the LP has no solution, skip the
            // simplex entirely (the verdict — and hence the log — is
            // identical, just ~100x cheaper on infeasible rounds).
            let (demand, proven_infeasible) = {
                let _pre_span = opts.obs.span("vol.precheck");
                let demand = tables.demand(&work, machine);
                (demand, demand.is_some_and(DemandTable::infeasible))
            };
            // The simplex path (and hence any LP success) depends on
            // state a dirty-slice replay does not carry.
            match demand {
                Some(table) if proven_infeasible => rec.on_proven_infeasible(table),
                _ => rec.invalidate(),
            }
            if proven_infeasible {
                opts.obs.add("vol.precheck_infeasible", 1);
                log.push(format!("round {round}: LP infeasible"));
            }
            // Explicit output weights override the default anti-skew
            // band (which would force outputs equal-ish and fight the
            // requested proportions).
            let lp_opts = if opts.output_weights.is_empty() {
                LpOptions::rvol()
            } else {
                LpOptions {
                    output_band: None,
                    ..LpOptions::rvol()
                }
            };
            let out_status = if proven_infeasible {
                None
            } else {
                let form = lpform::build(&work, machine, &lp_opts);
                let config = aqua_lp::SimplexConfig {
                    obs: opts.obs.clone(),
                    ..Default::default()
                };
                Some((aqua_lp::solve_with(&form.model, &config), form))
            };
            if let Some((out, form)) = out_status {
                match out.status {
                    aqua_lp::Status::Optimal(sol) => {
                        let vols = form.volumes(&work, machine, &sol);
                        // RVol → IVol with the clamp-and-measure discipline:
                        // sub-least-count transfers are raised to one count
                        // (never silently emitted or dropped). When such a
                        // clamp breaks a mix ratio beyond the paper's 2%
                        // tolerance, the plan escalates to the rewrite tier
                        // instead of shipping. Ordinary rounding noise on
                        // meterable transfers does not escalate — §4.2
                        // measures it and the chemistry tolerates it.
                        let ra = round::round_lp_edges(&work, machine, &vols.edge_nl);
                        if !ra.underflows.is_empty() && !ra.within_paper_tolerance() {
                            opts.obs.add("vol.escalations", 1);
                            log.push(format!(
                                "round {round}: LP clamped {} sub-least-count transfer(s) \
                             and broke a mix ratio ({} > {} tolerance); escalating",
                                ra.underflows.len(),
                                ra.max_ratio_error,
                                round::PAPER_RATIO_TOLERANCE,
                            ));
                        } else {
                            log.push(format!(
                                "round {round}: LP succeeded ({} constraints)",
                                form.num_constraints
                            ));
                            let round::RoundedAssignment {
                                edge_volumes_nl,
                                node_volumes_nl: mut rounded_nodes,
                                ..
                            } = ra;
                            // Source nodes must load at least what they
                            // dispense (non-deficit); the rounded out-edge
                            // sum already guarantees that, but never load
                            // *less* than the LP asked for.
                            for n in work.node_ids() {
                                if work.in_edges(n).is_empty() {
                                    let lp_load = machine.round_to_least_count(float_to_ratio_nl(
                                        vols.node_nl[n.index()],
                                    ));
                                    rounded_nodes[n.index()] =
                                        rounded_nodes[n.index()].max(lp_load);
                                }
                            }
                            let method = if rewritten {
                                Method::LpAfterRewrites
                            } else {
                                Method::Lp
                            };
                            return ManagedOutcome::Solved {
                                volumes: ManagedVolumes {
                                    edge_volumes_nl,
                                    node_volumes_nl: rounded_nodes,
                                    method,
                                },
                                dag: work,
                                log,
                            };
                        }
                    }
                    aqua_lp::Status::Infeasible => {
                        log.push(format!("round {round}: LP infeasible"));
                    }
                    other => {
                        log.push(format!("round {round}: LP failed: {other:?}"));
                    }
                }
            }
        }

        if round == opts.max_rewrite_rounds {
            break;
        }

        // --- 3. Rewrites: cascade extreme ratios, else replicate the
        // bottleneck. Each rewrite tells `tables` which nodes it
        // touched; the next round's reads update only from those. ---
        let mut changed = false;
        if opts.allow_excess {
            let extremes = cascade::find_extreme_mixes(&work, machine);
            rec.on_extremes(&extremes);
            for node in extremes {
                // Respect per-fluid excess bans: skip mixes consuming a
                // protected fluid (their rescue must come from
                // replication or regeneration).
                let protected = work.in_edges(node).iter().any(|&e| {
                    opts.no_excess_fluids
                        .contains(&work.node(work.edge(e).src).name)
                });
                if protected {
                    rec.invalidate();
                    log.push(format!(
                        "round {round}: `{}` consumes a no-excess fluid; cascade skipped",
                        work.node(node).name
                    ));
                    continue;
                }
                let before = work.num_nodes();
                match cascade::apply_cascade(&mut work, node, machine) {
                    Ok(info) => {
                        tables.touch(&work, info.node, before);
                        opts.obs.add("vol.cascade_rewrites", 1);
                        rec.on_cascade(&info);
                        log.push(format!(
                            "round {round}: cascaded `{}` into {} stages",
                            work.node(info.node).name,
                            info.plan.depth()
                        ));
                        changed = true;
                    }
                    Err(e) => {
                        if work.num_nodes() > before {
                            // The cascade failed after adding stages,
                            // which stay in the DAG: the tables must
                            // take them in, and the best effort no
                            // longer indexes the working DAG.
                            tables.touch(&work, node, before);
                            best = None;
                        }
                        rec.invalidate();
                        log.push(format!("round {round}: cascade failed: {e}"));
                    }
                }
            }
        }
        if !changed {
            // Replicate the current bottleneck.
            opts.obs.add("vol.vnorm_passes", 1);
            match tables.bottleneck_vnorms(&work, &opts.output_weights) {
                Ok(t) => {
                    rec.on_bottleneck(t);
                    match replicate::bottleneck_candidate(&work, t) {
                        Some(node) => {
                            let name = work.node(node).name.clone();
                            let before = work.num_nodes();
                            match replicate::replicate_node(&mut work, node, 2, machine) {
                                Ok(info) => {
                                    tables.touch(&work, info.node, before);
                                    opts.obs.add("vol.replicate_rewrites", 1);
                                    rec.invalidate();
                                    log.push(format!("round {round}: replicated `{name}` x2"));
                                    changed = true;
                                }
                                Err(replicate::ReplicateError::ResourcesExceeded { what }) => {
                                    rec.on_blocked(&what);
                                    log.push(format!("round {round}: replication blocked: {what}"));
                                    return ManagedOutcome::ResourcesExceeded { reason: what, log };
                                }
                                Err(e) => {
                                    rec.invalidate();
                                    log.push(format!("round {round}: replication failed: {e}"));
                                }
                            }
                        }
                        None => {
                            rec.invalidate();
                            log.push(format!("round {round}: no replication candidate"));
                        }
                    }
                }
                Err(e) => {
                    rec.invalidate();
                    log.push(format!("round {round}: vnorm failed: {e}"));
                }
            }
        }
        if !changed {
            break; // nothing left to try
        }
        rewritten = true;
    }

    rec.invalidate();
    opts.obs.add("vol.escalations", 1);
    log.push("falling back to run-time regeneration".into());
    ManagedOutcome::NeedsRegeneration {
        best_effort: best.and_then(|v| v.assign(tables.weighted.table.take()?).ok()),
        dag: work,
        log,
    }
}

/// The tables the hierarchy carries across its rounds: the weighted
/// Vnorm table DAGSolve reads, the unweighted one the replication scan
/// reads when output weights make the two differ, and the precheck's
/// demand table.
///
/// A table is computed in full when first read (round 0) and from then
/// on brought up to date at each read from the nodes the rewrites since
/// its last read touched ([`Tables::touch`]): the seeded updates of
/// [`vnorm::recompute_weighted`] and [`feascheck::recompute`]. Both
/// tables come from one reverse-topological pass of local rules, so
/// the update equals a full pass on the rewritten DAG; debug builds
/// check exactly that after every update. A read that fails drops its
/// table (the next read computes it in full), and reports the error a
/// full pass would: the touched nodes get [`Dag::validate`]'s per-node
/// checks, and the topological order catches cycles.
#[derive(Default)]
struct Tables {
    /// Topological positions of the working DAG since the last rewrite.
    pos: Option<Result<Vec<usize>, DagError>>,
    weighted: Carried<VnormTable>,
    unweighted: Carried<VnormTable>,
    demand: Carried<DemandTable>,
}

/// One carried table and the nodes touched since it was last read.
struct Carried<T> {
    table: Option<T>,
    seeds: Vec<NodeId>,
}

impl<T> Default for Carried<T> {
    fn default() -> Carried<T> {
        Carried {
            table: None,
            seeds: Vec::new(),
        }
    }
}

impl<T> Carried<T> {
    fn touch(&mut self, seeds: &[NodeId]) {
        // Without a table the next read is a full pass anyway.
        if self.table.is_some() {
            self.seeds.extend_from_slice(seeds);
        }
    }
}

impl Tables {
    /// Records a rewrite of `work` at `target` that created the nodes
    /// numbered from `created_from` on: they, the target and their
    /// in-edge sources are the next reads' seeds.
    fn touch(&mut self, work: &Dag, target: NodeId, created_from: usize) {
        let mut seeds: Vec<NodeId> = std::iter::once(target)
            .chain(work.node_ids().skip(created_from))
            .collect();
        let sources: Vec<NodeId> = seeds
            .iter()
            .flat_map(|&n| work.in_edges(n).iter().map(|&e| work.edge(e).src))
            .collect();
        seeds.extend(sources);
        self.weighted.touch(&seeds);
        self.unweighted.touch(&seeds);
        self.demand.touch(&seeds);
        self.pos = None;
    }

    /// The weighted Vnorm table of `work`.
    fn vnorms(
        &mut self,
        work: &Dag,
        weights: &HashMap<NodeId, Ratio>,
    ) -> Result<&VnormTable, VnormError> {
        read_vnorms(&mut self.weighted, &mut self.pos, work, weights)
    }

    /// The unweighted Vnorm table of `work` the replication scan ranks
    /// by: the weighted one itself when there are no weights.
    fn bottleneck_vnorms(
        &mut self,
        work: &Dag,
        weights: &HashMap<NodeId, Ratio>,
    ) -> Result<&VnormTable, VnormError> {
        let carried = if weights.is_empty() {
            &mut self.weighted
        } else {
            &mut self.unweighted
        };
        read_vnorms(carried, &mut self.pos, work, &HashMap::new())
    }

    /// The demand table of `work`; `None` where the reduction does not
    /// apply ([`feascheck::Analysis::Unsupported`]).
    fn demand(&mut self, work: &Dag, machine: &Machine) -> Option<&DemandTable> {
        let seeds = std::mem::take(&mut self.demand.seeds);
        let table = match self.demand.table.take() {
            None => match feascheck::analyze(work, machine) {
                feascheck::Analysis::Proven(t) | feascheck::Analysis::Unproven(t) => Some(t),
                feascheck::Analysis::Unsupported => None,
            },
            Some(t) if seeds.is_empty() => Some(t),
            Some(mut t) => {
                let updated = match positions(&mut self.pos, work) {
                    Ok(pos) => feascheck::recompute(&mut t, work, machine, &seeds, pos).is_ok(),
                    Err(_) => false,
                };
                #[cfg(any(test, debug_assertions))]
                oracle::check_demand(work, machine, updated.then_some(&t));
                updated.then_some(t)
            }
        };
        self.demand.table = table;
        self.demand.table.as_ref()
    }
}

/// Reads one carried Vnorm table: a full pass when there is none, else
/// a seeded update when rewrites touched the DAG since the last read.
fn read_vnorms<'t>(
    carried: &'t mut Carried<VnormTable>,
    pos: &mut Option<Result<Vec<usize>, DagError>>,
    work: &Dag,
    weights: &HashMap<NodeId, Ratio>,
) -> Result<&'t VnormTable, VnormError> {
    let seeds = std::mem::take(&mut carried.seeds);
    let table = match carried.table.take() {
        None => vnorm::compute_weighted(work, weights)?,
        Some(t) if seeds.is_empty() => t,
        Some(mut t) => {
            let updated = positions(pos, work)
                .map_err(VnormError::from)
                .and_then(|pos| {
                    work.validate_nodes(&seeds)?;
                    vnorm::recompute_weighted(&mut t, work, weights, &seeds, pos)
                })
                .map(|_| t);
            #[cfg(any(test, debug_assertions))]
            oracle::check_vnorms(work, weights, updated.as_ref());
            updated?
        }
    };
    Ok(carried.table.insert(table))
}

fn positions<'p>(
    pos: &'p mut Option<Result<Vec<usize>, DagError>>,
    work: &Dag,
) -> Result<&'p [usize], DagError> {
    match pos.get_or_insert_with(|| work.topo_positions()) {
        Ok(pos) => Ok(pos),
        Err(e) => Err(e.clone()),
    }
}

/// The check that a seeded update equals a full pass, in debug builds
/// and in this crate's own tests.
#[cfg(any(test, debug_assertions))]
mod oracle {
    use super::*;

    pub(super) fn check_vnorms(
        work: &Dag,
        weights: &HashMap<NodeId, Ratio>,
        updated: Result<&VnormTable, &VnormError>,
    ) {
        let fresh = vnorm::compute_weighted(work, weights);
        assert_eq!(
            updated,
            fresh.as_ref(),
            "carried Vnorm table differs from a full pass"
        );
    }

    pub(super) fn check_demand(work: &Dag, machine: &Machine, updated: Option<&DemandTable>) {
        let fresh = match feascheck::analyze(work, machine) {
            feascheck::Analysis::Proven(t) | feascheck::Analysis::Unproven(t) => Some(t),
            feascheck::Analysis::Unsupported => None,
        };
        assert_eq!(
            updated,
            fresh.as_ref(),
            "carried demand table differs from a full analysis"
        );
    }
}

/// Run-time re-entry of the hierarchy (§3.5 + Fig. 6's regeneration
/// tier): re-solves an assay's volumes with *observed* node
/// availability (in nl) as hard production caps.
///
/// This is the DAGSolve-only fast path — no LP and no rewrites, since
/// it runs mid-execution where a rewritten DAG could no longer be
/// mapped back onto the already-emitted instruction stream. If the
/// capped assignment underflows (the observed volumes are too small to
/// meter), the caller must fall back to regeneration; that is reported
/// as [`ManagedOutcome::NeedsRegeneration`] with the best-effort
/// assignment attached.
pub fn replan_with_observations(
    dag: &Dag,
    machine: &Machine,
    opts: &VolumeManagerOptions,
    observed_nl: &std::collections::HashMap<aqua_dag::NodeId, Ratio>,
) -> ManagedOutcome {
    let mut log = vec![format!(
        "run-time replan with {} observed volumes",
        observed_nl.len()
    )];
    match dagsolve::solve_capped(dag, machine, &opts.output_weights, observed_nl) {
        Ok(sol) => match sol.underflow {
            None => {
                log.push("replan: DAGSolve (capped) succeeded".into());
                ManagedOutcome::Solved {
                    volumes: ManagedVolumes {
                        edge_volumes_nl: sol.edge_volumes_nl.clone(),
                        node_volumes_nl: sol.node_volumes_nl.clone(),
                        method: Method::DagSolve,
                    },
                    dag: dag.clone(),
                    log,
                }
            }
            Some(ref under) => {
                log.push(format!(
                    "replan: capped DAGSolve underflowed ({})",
                    under.volume_nl
                ));
                ManagedOutcome::NeedsRegeneration {
                    dag: dag.clone(),
                    best_effort: Some(sol),
                    log,
                }
            }
        },
        Err(e) => {
            log.push(format!("replan: DAGSolve error: {e}"));
            ManagedOutcome::NeedsRegeneration {
                dag: dag.clone(),
                best_effort: None,
                log,
            }
        }
    }
}

/// Converts an LP float (nl) to an exact ratio via milli-least-count
/// quantization; only used for reporting source loads.
fn float_to_ratio_nl(v: f64) -> Ratio {
    let scaled = (v * 1_000_000.0).round() as i128;
    Ratio::new(scaled, 1_000_000).unwrap_or(Ratio::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn easy_assay_solves_with_dagsolve() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let out = manage_volumes(&d, &Machine::paper_default(), &Default::default());
        match out {
            ManagedOutcome::Solved { volumes, .. } => {
                assert_eq!(volumes.method, Method::DagSolve);
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn extreme_ratio_is_rescued_by_cascading() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1999)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let out = manage_volumes(&d, &Machine::paper_default(), &Default::default());
        match out {
            ManagedOutcome::Solved { volumes, dag, .. } => {
                assert_eq!(volumes.method, Method::DagSolveAfterRewrites);
                // The rewritten DAG gained cascade stages.
                assert!(dag.num_nodes() > d.num_nodes());
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn numerous_uses_are_rescued_by_replication() {
        // 1500 equal uses of one fluid: each transfer is 100/1500 nl
        // = 0.067 < 0.1 least count. No extreme ratios (all mixes 1:1),
        // so only replication can help.
        let mut d = Dag::new();
        let stock = d.add_input("stock");
        let other = d.add_input("other");
        for i in 0..1500 {
            let m = d
                .add_mix(format!("m{i}"), &[(stock, 1), (other, 1)], 0)
                .unwrap();
            d.add_process(format!("s{i}"), "sense.OD", m);
        }
        let mut machine = Machine::paper_default();
        machine.reservoirs = 64;
        machine.input_ports = 64;
        let opts = VolumeManagerOptions {
            use_lp: false, // LP can't fix a structural underflow either
            ..Default::default()
        };
        let out = manage_volumes(&d, &machine, &opts);
        match out {
            ManagedOutcome::Solved { volumes, .. } => {
                assert_eq!(volumes.method, Method::DagSolveAfterRewrites);
                let min = volumes
                    .edge_volumes_nl
                    .iter()
                    .filter(|v| v.is_positive())
                    .min()
                    .unwrap();
                assert!(*min >= machine.least_count_nl());
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn resource_exhaustion_fails_compilation() {
        let mut d = Dag::new();
        let stock = d.add_input("stock");
        let other = d.add_input("other");
        for i in 0..1500 {
            let m = d
                .add_mix(format!("m{i}"), &[(stock, 1), (other, 1)], 0)
                .unwrap();
            d.add_process(format!("s{i}"), "sense.OD", m);
        }
        let mut machine = Machine::paper_default();
        machine.input_ports = 2; // replication cannot add inputs
        let opts = VolumeManagerOptions {
            use_lp: false,
            ..Default::default()
        };
        let out = manage_volumes(&d, &machine, &opts);
        assert!(matches!(out, ManagedOutcome::ResourcesExceeded { .. }));
    }

    #[test]
    fn impossible_assay_falls_back_to_regeneration() {
        // Forbid excess production: the extreme mix cannot be cascaded,
        // LP is infeasible, replication does not change ratios.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1999)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let opts = VolumeManagerOptions {
            allow_excess: false,
            ..Default::default()
        };
        let out = manage_volumes(&d, &Machine::paper_default(), &opts);
        match out {
            ManagedOutcome::NeedsRegeneration { best_effort, .. } => {
                assert!(best_effort.expect("has best effort").underflow.is_some());
            }
            other => panic!("expected regeneration fallback, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;

    /// Determinism across thread counts: the same assay batch managed
    /// with 1, 2, and 8 workers must produce identical outcomes in
    /// input order — same method, same log, same exact volumes.
    #[test]
    fn parallel_assays_are_identical_across_thread_counts() {
        let dags: Vec<Dag> = (0..12)
            .map(|k: u64| {
                let mut d = Dag::new();
                let a = d.add_input("A");
                let b = d.add_input("B");
                // Ratios from mild (1:3) to extreme (1:1603) so the
                // batch exercises DAGSolve, LP, and cascade paths.
                let m = d
                    .add_mix("mx", &[(a, 1), (b, (k % 5) * 400 + 3)], 0)
                    .unwrap();
                d.add_process("s", "sense.OD", m);
                d
            })
            .collect();
        let machine = Machine::paper_default();
        let opts = VolumeManagerOptions::default();
        let solve = |threads: usize| {
            aqua_lp::batch::run_parallel_threads(dags.len(), threads, |i| {
                manage_volumes(&dags[i], &machine, &opts)
            })
        };
        let baseline = solve(1);
        for threads in [2usize, 8] {
            let run = solve(threads);
            assert_eq!(run.len(), baseline.len());
            for (i, (a, b)) in baseline.iter().zip(&run).enumerate() {
                match (a, b) {
                    (
                        ManagedOutcome::Solved {
                            volumes: va,
                            log: la,
                            ..
                        },
                        ManagedOutcome::Solved {
                            volumes: vb,
                            log: lb,
                            ..
                        },
                    ) => {
                        assert_eq!(va.method, vb.method, "assay {i}, {threads} threads");
                        assert_eq!(va.edge_volumes_nl, vb.edge_volumes_nl, "assay {i}");
                        assert_eq!(va.node_volumes_nl, vb.node_volumes_nl, "assay {i}");
                        assert_eq!(la, lb, "assay {i}");
                    }
                    other => panic!("outcome mismatch at assay {i}: {other:?}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod replan_tests {
    use super::*;
    use std::collections::HashMap;

    fn simple() -> (Dag, aqua_dag::NodeId) {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 4)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        (d, b)
    }

    #[test]
    fn observations_cap_the_replan() {
        let (d, b) = simple();
        let machine = Machine::paper_default();
        let mut obs = HashMap::new();
        obs.insert(b, Ratio::from_int(40));
        let out = replan_with_observations(&d, &machine, &Default::default(), &obs);
        match out {
            ManagedOutcome::Solved { volumes, .. } => {
                assert_eq!(volumes.method, Method::DagSolve);
                assert!(volumes.node_volumes_nl[b.index()] <= Ratio::from_int(40));
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn starved_observation_forces_regeneration() {
        // Observed availability below the least count: capped DAGSolve
        // underflows, so the replan reports the regeneration fallback.
        let (d, b) = simple();
        let machine = Machine::paper_default();
        let mut obs = HashMap::new();
        obs.insert(b, Ratio::new(1, 100).unwrap());
        let out = replan_with_observations(&d, &machine, &Default::default(), &obs);
        assert!(matches!(out, ManagedOutcome::NeedsRegeneration { .. }));
    }
}

#[cfg(test)]
mod no_excess_tests {
    use super::*;

    #[test]
    fn protected_fluids_are_never_cascaded() {
        let mut d = Dag::new();
        let a = d.add_input("PreciousSample");
        let b = d.add_input("Buffer");
        let m = d.add_mix("mx", &[(a, 1), (b, 1999)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let opts = VolumeManagerOptions {
            no_excess_fluids: vec!["PreciousSample".into()],
            ..Default::default()
        };
        let out = manage_volumes(&d, &Machine::paper_default(), &opts);
        match out {
            ManagedOutcome::NeedsRegeneration { dag, log, .. } => {
                // No cascade stages were added for the protected mix.
                assert_eq!(dag.num_nodes(), d.num_nodes());
                assert!(log.iter().any(|l| l.contains("cascade skipped")), "{log:?}");
            }
            other => panic!("expected regeneration fallback, got {other:?}"),
        }
    }

    #[test]
    fn unprotected_fluids_still_cascade() {
        let mut d = Dag::new();
        let a = d.add_input("Dye");
        let b = d.add_input("Buffer");
        let m = d.add_mix("mx", &[(a, 1), (b, 1999)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let opts = VolumeManagerOptions {
            no_excess_fluids: vec!["SomethingElse".into()],
            ..Default::default()
        };
        let out = manage_volumes(&d, &Machine::paper_default(), &opts);
        assert!(out.is_solved());
    }
}

#[cfg(test)]
mod carried_table_tests {
    use super::*;
    use aqua_rational::rng::XorShift64Star;

    /// A seeded assay whose mixes dilute a few stocks into one shared
    /// buffer, about half of them at extreme ratios: the extreme mixes
    /// cascade, and the cascades' buffer uses then make replication
    /// rounds. Stocks and buffer are themselves produced (an incubated
    /// input, a mix of two inputs), so a rewrite's changes must travel
    /// past its seeds to their producers. Returns the DAG and its
    /// output nodes.
    fn dilution_assay(seed: u64) -> (Dag, Vec<aqua_dag::NodeId>) {
        let mut rng = XorShift64Star::new(seed);
        let mut d = Dag::new();
        let stocks: Vec<_> = (0..2)
            .map(|i| {
                let raw = d.add_input(format!("raw{i}"));
                d.add_process(format!("stock{i}"), "incubate", raw)
            })
            .collect();
        let salt = d.add_input("salt");
        let water = d.add_input("water");
        let buffer = d.add_mix("buffer", &[(salt, 1), (water, 9)], 0).unwrap();
        let mut outputs = Vec::new();
        for i in 0..rng.range_u64(12, 32) {
            let stock = stocks[rng.index(stocks.len())];
            let parts = if rng.index(2) == 0 {
                (1, [1_999, 2_999, 4_999][rng.index(3)])
            } else {
                (rng.range_u64(1, 4), rng.range_u64(1, 9))
            };
            let m = d
                .add_mix(format!("m{i}"), &[(stock, parts.0), (buffer, parts.1)], 0)
                .unwrap();
            if rng.index(2) == 0 {
                outputs.push(d.add_output(format!("o{i}"), m));
            } else {
                d.add_process(format!("s{i}"), "sense.OD", m);
            }
        }
        (d, outputs)
    }

    /// Runs the hierarchy over seeded assays that reach cascade and
    /// replication rounds, with and without output weights. Every
    /// round's carried tables are checked against full passes inside
    /// the loop (the oracle is on in this crate's tests); this test
    /// pins that the runs cover the rounds that matter, with the LP
    /// fallback (and so the demand table) on and off: updates after
    /// cascades, and after two replications that followed cascades —
    /// with weights, the second replication scan reads its own carried
    /// unweighted table, updated after the first.
    #[test]
    fn carried_tables_match_full_passes_through_cascades_and_replications() {
        let mut machine = Machine::paper_default();
        machine.reservoirs = 64;
        machine.input_ports = 16;
        let mut covered = [[[false; 2]; 2]; 2];
        for seed in 0..16u64 {
            let (dag, outputs) = dilution_assay(seed);
            let mut rng = XorShift64Star::new(seed ^ 0x5EED);
            for (weighted, cover) in covered.iter_mut().enumerate() {
                let mut opts = VolumeManagerOptions::default();
                if weighted == 1 {
                    for &o in &outputs {
                        opts.output_weights
                            .insert(o, Ratio::from_int(rng.range_u64(1, 4) as i128));
                    }
                }
                for (use_lp, cover) in cover.iter_mut().enumerate() {
                    opts.use_lp = use_lp == 1;
                    let log = match manage_volumes(&dag, &machine, &opts) {
                        ManagedOutcome::Solved { log, .. }
                        | ManagedOutcome::NeedsRegeneration { log, .. }
                        | ManagedOutcome::ResourcesExceeded { log, .. } => log,
                    };
                    let after_cascade = log.iter().any(|l| l.starts_with("round 1: DAGSolve"));
                    let replications = log.iter().filter(|l| l.contains("replicated")).count();
                    cover[0] |= after_cascade && log.iter().any(|l| l.contains("cascaded"));
                    cover[1] |= after_cascade && replications >= 2;
                }
            }
        }
        assert_eq!(
            covered, [[[true; 2]; 2]; 2],
            "[weighted][LP on][after a cascade, after two replications]"
        );
    }

    /// A cascade can fail after adding its stages (here the carrier of
    /// a 1:2:2 mix on a span-4 machine cannot absorb the last stage):
    /// the stages stay in the DAG, so the tables take them in as seeds,
    /// and the run stays exact (checked by the oracle) through the
    /// replication scan that reads the updated table.
    #[test]
    fn failed_cascade_stages_are_carried_exactly() {
        let machine = Machine::new(Ratio::from_int(100), Ratio::from_int(25)).unwrap();
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let c = d.add_input("C");
        let m = d.add_mix("mx", &[(a, 1), (b, 2), (c, 2)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let n = d.add_mix("n", &[(b, 1), (c, 1)], 0).unwrap();
        d.add_process("t", "sense.OD", n);
        let opts = VolumeManagerOptions {
            use_lp: false,
            ..Default::default()
        };
        let out = manage_volumes(&d, &machine, &opts);
        let (dag, log) = match out {
            ManagedOutcome::NeedsRegeneration { dag, log, .. } => (dag, log),
            other => panic!("expected regeneration fallback, got {other:?}"),
        };
        assert!(log.iter().any(|l| l.contains("cascade failed")), "{log:?}");
        assert!(dag.num_nodes() > d.num_nodes(), "the failed stages stay");
    }
}

#[cfg(test)]
mod weighted_lp_tests {
    use super::*;
    use aqua_rational::Ratio;

    /// A weighted assay that DAGSolve cannot satisfy directly (extreme
    /// ratio forces the LP / rewrites): the LP fallback must honor the
    /// weights instead of fighting them with the anti-skew band.
    #[test]
    fn lp_fallback_respects_output_weights() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let heavy = d.add_mix("heavy", &[(a, 1), (b, 1)], 0).unwrap();
        let light = d.add_mix("light", &[(a, 1), (b, 999)], 0).unwrap();
        let oh = d.add_output("oh", heavy);
        let ol = d.add_output("ol", light);
        let mut opts = VolumeManagerOptions::default();
        opts.output_weights.insert(oh, Ratio::from_int(5));
        opts.output_weights.insert(ol, Ratio::ONE);
        let out = manage_volumes(&d, &Machine::paper_default(), &opts);
        match out {
            ManagedOutcome::Solved { volumes, dag, .. } => {
                // Whatever solver won, the outcome satisfies the least
                // count everywhere.
                let lc = Machine::paper_default().least_count_nl();
                for e in dag.edge_ids() {
                    if !dag.edge_is_live(e) {
                        continue;
                    }
                    if dag.node(dag.edge(e).dst).kind == aqua_dag::NodeKind::Excess {
                        continue;
                    }
                    assert!(volumes.edge_volumes_nl[e.index()] >= lc);
                }
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }
}
