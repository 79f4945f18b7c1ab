//! Exact feasibility pre-check for the RVol LP (the perfect-mixability
//! direction of arXiv:1806.08875, specialized to Figure 3's formulation).
//!
//! The LP's ratio rows force every live in-edge of a node to carry a
//! fixed share of that node's total inflow, so the whole system reduces
//! to one variable per node: its total inflow `t` in least-count units
//! (for sources, the load variable). All remaining constraint classes
//! become *monotone* lower bounds on `t` — minimum transfer volumes,
//! excess-edge floors, and non-deficit demands that propagate from
//! consumers to producers — plus per-node capacity ceilings. On a DAG
//! the pointwise-minimal solution is therefore computed by one reverse-
//! topological pass, and the system is infeasible whenever some node's
//! minimal inflow already exceeds its ceiling.
//!
//! The check is **sound but not complete**: it deliberately relaxes the
//! anti-skew output band (dropping constraints can only shrink the set
//! of provable infeasibilities) and bails out as [`Unsupported`] on
//! structures whose reduction is not a pure lower-bound system (an
//! excess node with several live in-edges couples its producers through
//! the ratio rows). A `Proven` verdict is a constructive certificate
//! that the exact rational LP — and hence the f64 LP the simplex sees —
//! has no solution; anything else means "run the solver".
//!
//! [`crate::manage_volumes`] consults this check before every LP
//! fallback, which removes the dominant cost of compiling assays whose
//! LPs are infeasible (the enzyme-family DAGs spend ~80% of a cold
//! compile proving two infeasibilities the hard way). The hierarchy
//! analyzes the DAG in full once and then carries the table across its
//! rewrite rounds with [`recompute`], as the incremental replanner
//! carries it across edits.

use aqua_dag::{Dag, NodeId, NodeKind, Ratio};

use crate::machine::Machine;
use crate::vnorm::Pending;

/// Result of analyzing a DAG's LP feasibility structure.
#[derive(Debug, Clone, PartialEq)]
pub enum Analysis {
    /// The LP is infeasible, with an exact certificate.
    Proven(DemandTable),
    /// No infeasibility certificate found; the LP may well be feasible.
    Unproven(DemandTable),
    /// The DAG uses a structure the reduction does not model exactly;
    /// nothing can be concluded.
    Unsupported,
}

/// Minimal-inflow table in least-count units, one entry per node.
///
/// `lb[n]` is a valid lower bound on node `n`'s total inflow (its load
/// variable for sources) in *any* feasible LP solution; `cap[n]` is its
/// ceiling (`None` when the LP has no capacity row for the node). The
/// table is a pure function of the DAG's isomorphism class, so values
/// computed on a session's retained DAG transfer to the canonical form.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTable {
    /// Lower bound per node, indexed by [`NodeId::index`].
    pub lb: Vec<Ratio>,
    /// Capacity ceiling per node (least-count units), where the LP has
    /// a cap row.
    pub cap: Vec<Option<Ratio>>,
}

impl DemandTable {
    /// Whether any node's minimal inflow exceeds its ceiling — the
    /// infeasibility certificate.
    pub fn infeasible(&self) -> bool {
        self.lb
            .iter()
            .zip(&self.cap)
            .any(|(lb, cap)| cap.map(|c| *lb > c).unwrap_or(false))
    }
}

/// Analyzes a DAG against the RVol LP's feasibility structure.
///
/// `Proven` means the LP built by [`crate::lpform::build`] with the
/// least-count floor enabled has no solution; `Unproven` carries the
/// demand table anyway (the incremental replanner caches it);
/// `Unsupported` means the reduction does not apply.
pub fn analyze(dag: &Dag, machine: &Machine) -> Analysis {
    let Ok(order) = dag.topological_order() else {
        return Analysis::Unsupported;
    };
    let mut table = DemandTable {
        lb: vec![Ratio::ZERO; dag.num_nodes()],
        cap: vec![None; dag.num_nodes()],
    };
    for &id in order.iter().rev() {
        match node_bounds(dag, machine, id, &table.lb) {
            Ok(Some((lb, cap))) => {
                table.lb[id.index()] = lb;
                table.cap[id.index()] = cap;
            }
            Ok(None) => {}
            Err(Unsupported) => return Analysis::Unsupported,
        }
    }
    if table.infeasible() {
        Analysis::Proven(table)
    } else {
        Analysis::Unproven(table)
    }
}

/// Marker for structures outside the reduction (or overflowing exact
/// arithmetic mid-proof).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported;

/// Brings `table` up to date after `dag` changed at `seeds`, and
/// returns how many nodes it re-evaluated.
///
/// The contract is [`crate::vnorm::recompute_weighted`]'s: `table` is
/// exact for the graph before the change, `seeds` holds every node
/// whose own structure changed plus the in-edge sources of every node
/// whose in-edges changed, and `topo_pos` orders the changed graph. A
/// node's bound depends only on its own edges and its consumers' lower
/// bounds, so the walk re-evaluates a node's producers only when its
/// lower bound moved, and the result equals [`analyze`]'s table.
///
/// # Errors
///
/// Returns [`Unsupported`] exactly when [`analyze`] would; the table is
/// then partially updated and must be discarded.
pub fn recompute(
    table: &mut DemandTable,
    dag: &Dag,
    machine: &Machine,
    seeds: &[NodeId],
    topo_pos: &[usize],
) -> Result<usize, Unsupported> {
    table.lb.resize(dag.num_nodes(), Ratio::ZERO);
    table.cap.resize(dag.num_nodes(), None);
    let mut pending = Pending::new(dag.num_nodes(), topo_pos, seeds);
    let mut evaluated = 0;
    while let Some(id) = pending.pop() {
        evaluated += 1;
        let (lb, cap) = node_bounds(dag, machine, id, &table.lb)?.unwrap_or((Ratio::ZERO, None));
        table.cap[id.index()] = cap;
        if table.lb[id.index()] != lb {
            table.lb[id.index()] = lb;
            for &e in dag.in_edges(id) {
                pending.push(dag.edge(e).src);
            }
        }
    }
    Ok(evaluated)
}

/// Computes one node's `(lower bound, ceiling)` from its own structure
/// and its consumers' already-final lower bounds. `None` means the node
/// has no variable in the reduction (an excess sink, or an unused
/// non-source).
#[allow(clippy::type_complexity)]
fn node_bounds(
    dag: &Dag,
    machine: &Machine,
    id: NodeId,
    lb: &[Ratio],
) -> Result<Option<(Ratio, Option<Ratio>)>, Unsupported> {
    let node = dag.node(id);
    let span = machine.span();
    let is_source = node.kind.is_source();

    // Every edge a node lists is live (see `Dag::edge_is_live`).
    let live_in = dag.in_edges(id);
    let live_out = dag.out_edges(id);

    if node.kind == NodeKind::Excess {
        // An excess sink's inflow is fixed by its producer's excess
        // rows; with one in-edge every constraint on it is already
        // expressed at the producer. Several in-edges would couple the
        // producers through the ratio rows — outside the reduction.
        return if live_in.len() > 1 {
            Err(Unsupported)
        } else {
            Ok(None)
        };
    }
    if !is_source && live_in.is_empty() && live_out.is_empty() {
        return Ok(None);
    }

    // Production factor: output volume per unit of inflow.
    let prod_factor = match &node.kind {
        NodeKind::Separate { fraction: Some(f) } => {
            if !f.is_positive() {
                return Err(Unsupported);
            }
            *f
        }
        NodeKind::Separate { fraction: None } if !live_out.is_empty() => {
            // Interior unknown volume: the hierarchy rejects this DAG
            // before any LP, but stay conservative.
            return Err(Unsupported);
        }
        _ => Ratio::ONE,
    };

    let mut bound = Ratio::ZERO;

    // Class 1 (minimum transfer) through the ratio rows: every live
    // in-edge carries fraction/sum(fractions) of the inflow, so the
    // smallest-fraction edge pins the floor.
    if !live_in.is_empty() {
        let mut frac_sum = Ratio::ZERO;
        let mut min_frac: Option<Ratio> = None;
        for &e in live_in {
            let f = dag.edge(e).fraction;
            if !f.is_positive() {
                return Err(Unsupported);
            }
            frac_sum = frac_sum.checked_add(f).map_err(|_| Unsupported)?;
            min_frac = Some(min_frac.map_or(f, |m| m.min(f)));
        }
        let min_frac = min_frac.expect("nonempty");
        bound = bound.max(frac_sum.checked_div(min_frac).map_err(|_| Unsupported)?);
    }

    // Consumer demand and excess floors (classes 3, 5, 7).
    let mut useful = Ratio::ZERO;
    let mut discard_share = Ratio::ZERO;
    let mut excess_cap: Option<Ratio> = None;
    for &e in live_out {
        let edge = dag.edge(e);
        if dag.node(edge.dst).kind == NodeKind::Excess {
            let share = edge.fraction;
            if !share.is_positive() {
                return Err(Unsupported);
            }
            discard_share = discard_share.checked_add(share).map_err(|_| Unsupported)?;
            // x = share * prod_factor * t, with 1 <= x <= span.
            let scale = share.checked_mul(prod_factor).map_err(|_| Unsupported)?;
            bound = bound.max(scale.checked_recip().map_err(|_| Unsupported)?);
            let ceil = span.checked_div(scale).map_err(|_| Unsupported)?;
            excess_cap = Some(excess_cap.map_or(ceil, |c| c.min(ceil)));
        } else {
            // This edge carries fraction/sum(dst fractions) of the
            // consumer's inflow, whose minimum is already final.
            let dst = edge.dst;
            let mut dst_sum = Ratio::ZERO;
            for &de in dag.in_edges(dst) {
                dst_sum = dst_sum
                    .checked_add(dag.edge(de).fraction)
                    .map_err(|_| Unsupported)?;
            }
            if !dst_sum.is_positive() {
                return Err(Unsupported);
            }
            let share = edge
                .fraction
                .checked_div(dst_sum)
                .map_err(|_| Unsupported)?;
            let need = share
                .checked_mul(lb[dst.index()])
                .map_err(|_| Unsupported)?;
            useful = useful.checked_add(need).map_err(|_| Unsupported)?;
        }
    }
    if !live_out.is_empty() {
        // Non-deficit: useful + discard_share * prod <= prod.
        let keep = Ratio::ONE
            .checked_sub(discard_share)
            .map_err(|_| Unsupported)?;
        if !keep.is_positive() {
            if useful.is_positive() || discard_share > Ratio::ONE {
                // Demands at least one least count from a node that
                // keeps nothing (or discards more than it makes).
                return Ok(Some((
                    span.checked_add(Ratio::ONE).map_err(|_| Unsupported)?,
                    Some(span),
                )));
            }
        } else {
            let denom = prod_factor.checked_mul(keep).map_err(|_| Unsupported)?;
            bound = bound.max(useful.checked_div(denom).map_err(|_| Unsupported)?);
        }
        if !is_source && live_in.is_empty() && bound.is_positive() {
            // No inflow variable exists (t = 0), yet consumers demand
            // fluid: the non-deficit row is unsatisfiable.
            return Ok(Some((
                span.checked_add(Ratio::ONE).map_err(|_| Unsupported)?,
                Some(span),
            )));
        }
    }

    // Class 2: capacity rows exist for sources and for nodes with live
    // inflow; excess out-edges tighten the ceiling further.
    let cap = if is_source || !live_in.is_empty() {
        Some(excess_cap.map_or(span, |c| c.min(span)))
    } else {
        excess_cap
    };
    Ok(Some((bound, cap)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpform::{self, LpOptions};

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

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

    /// Every `Proven` verdict must agree with the simplex; exercised
    /// over a family of mixes straddling the extreme-ratio threshold.
    #[test]
    fn proven_verdicts_match_the_simplex() {
        let machine = Machine::paper_default();
        for parts in [1u64, 9, 99, 500, 998, 999, 1000, 1500, 1999, 5000] {
            let mut d = Dag::new();
            let a = d.add_input("A");
            let b = d.add_input("B");
            let m = d.add_mix("mx", &[(a, 1), (b, parts)], 0).unwrap();
            d.add_process("s", "sense.OD", m);
            let verdict = analyze(&d, &machine);
            let form = lpform::build(&d, &machine, &LpOptions::rvol());
            let lp = aqua_lp::solve(&form.model);
            if matches!(verdict, Analysis::Proven(_)) {
                assert!(
                    matches!(lp.status, aqua_lp::Status::Infeasible),
                    "1:{parts}: precheck proved infeasible but LP said {:?}",
                    lp.status
                );
            }
            if parts >= 1999 {
                // Strictly past the span: the certificate must be found.
                assert!(
                    matches!(verdict, Analysis::Proven(_)),
                    "1:{parts} should be proven"
                );
            }
        }
    }

    #[test]
    fn feasible_paper_dag_is_unproven() {
        let verdict = analyze(&figure2(), &Machine::paper_default());
        assert!(matches!(verdict, Analysis::Unproven(_)));
    }

    #[test]
    fn shared_reagent_demand_overflow_is_proven() {
        // 200 consumers each drawing >= 5 least counts of one reagent:
        // the source's minimal load is >= 1000 least counts... push past
        // the span with 2001 consumers of >= 0.5 each.
        let machine = Machine::paper_default();
        let mut d = Dag::new();
        let stock = d.add_input("stock");
        let other = d.add_input("other");
        for i in 0..2001 {
            let m = d
                .add_mix(format!("m{i}"), &[(stock, 1), (other, 1)], 0)
                .unwrap();
            d.add_process(format!("s{i}"), "sense.OD", m);
        }
        // Each mix needs inflow >= 2 (two edges, each >= 1 count), so
        // stock >= 2001 > 1000 = span.
        let verdict = analyze(&d, &machine);
        assert!(matches!(verdict, Analysis::Proven(_)), "{verdict:?}");
        let form = lpform::build(&d, &machine, &LpOptions::rvol());
        assert!(matches!(
            aqua_lp::solve(&form.model).status,
            aqua_lp::Status::Infeasible
        ));
    }

    #[test]
    fn excess_floor_tightens_the_proof() {
        // A producer discarding 999/1000 of its output must make 1000
        // counts per useful count; stacking two such stages overflows
        // capacity. Certificate comes from the excess floor.
        let machine = Machine::paper_default();
        let mut d = Dag::new();
        let a = d.add_input("A");
        let p = d.add_process("p", "incubate", a);
        d.add_excess("ex", p, r(9999, 10000));
        d.add_output("o", p);
        // useful >= 1, keep = 1/10000 => t >= 10000 > span.
        let verdict = analyze(&d, &machine);
        assert!(matches!(verdict, Analysis::Proven(_)), "{verdict:?}");
        let form = lpform::build(&d, &machine, &LpOptions::rvol());
        assert!(matches!(
            aqua_lp::solve(&form.model).status,
            aqua_lp::Status::Infeasible
        ));
    }

    #[test]
    fn multi_input_excess_is_unsupported() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let p = d.add_process("p", "incubate", a);
        let q = d.add_process("q", "incubate", b);
        let ex = d.add_excess("ex", p, r(1, 2));
        d.add_edge(q, ex, r(1, 2));
        d.add_output("o", p);
        d.add_output("o2", q);
        assert_eq!(
            analyze(&d, &Machine::paper_default()),
            Analysis::Unsupported
        );
    }

    #[test]
    fn table_recompute_matches_fresh_analysis() {
        // Change a fraction, update from the edit's seeds (the mix and
        // its producers), and compare against analyzing the edited DAG
        // from scratch.
        let machine = Machine::paper_default();
        let mut d = figure2();
        let l = d.find_node("L").unwrap();
        let table = match analyze(&d, &machine) {
            Analysis::Unproven(t) => t,
            other => panic!("{other:?}"),
        };
        let e = d.in_edges(l)[0];
        let partner = d.in_edges(l)[1];
        d.set_edge_fraction(e, r(3, 4));
        d.set_edge_fraction(partner, r(1, 4));
        let mut seeds = vec![l];
        seeds.extend(d.in_edges(l).iter().map(|&e| d.edge(e).src));
        let pos = d.topo_positions().unwrap();
        let mut patched = table;
        recompute(&mut patched, &d, &machine, &seeds, &pos).unwrap();
        match analyze(&d, &machine) {
            Analysis::Unproven(fresh) | Analysis::Proven(fresh) => assert_eq!(patched, fresh),
            other => panic!("{other:?}"),
        }
    }
}
