//! RVol → IVol rounding (§3.2, evaluated in §4.2).
//!
//! DAGSolve and LP solve the *rational* relaxation; real hardware meters
//! integer multiples of the least count. Rounding each transfer to the
//! nearest least-count multiple perturbs mix ratios slightly; the
//! chemistry tolerates small errors (the paper measured ≤ 2% on its
//! benchmarks), and this module measures exactly that error.

use aqua_dag::{Dag, NodeKind, Ratio};

use crate::dagsolve::VolumeAssignment;
use crate::machine::Machine;

/// A least-count-integral volume assignment plus its rounding error.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundedAssignment {
    /// Rounded transfer volume per edge, in nl (exact least-count
    /// multiples).
    pub edge_volumes_nl: Vec<Ratio>,
    /// Rounded production per node: the sum of its rounded in-edge
    /// volumes (inputs keep their rounded total demand).
    pub node_volumes_nl: Vec<Ratio>,
    /// Largest relative mix-ratio error across all mix-node inputs.
    pub max_ratio_error: Ratio,
    /// Mean relative mix-ratio error across all mix-node inputs.
    pub mean_ratio_error: Ratio,
    /// Edges whose rounded volume fell below the least count (rounding
    /// can only cause this for transfers already within half a least
    /// count of the floor). Under [`round_assignment`] and
    /// [`round_lp_edges`] these edges are *clamped up to one least
    /// count* in `edge_volumes_nl` / `node_volumes_nl` — the hardware
    /// cannot meter less — while the ratio-error metrics are measured
    /// on the raw (unclamped) rounding, the paper's §4.2 metric, where
    /// a dropped transfer is a 100% error on its mix. Either way an
    /// underflowed mix fails [`Self::within_paper_tolerance`], so the
    /// hierarchy escalates instead of shipping the broken plan.
    /// [`round_apportioned`] records but does not clamp (its guarantee
    /// is per-node conservation, which a clamp would break).
    pub underflows: Vec<usize>,
}

impl RoundedAssignment {
    /// Whether the rounded volumes stay within the paper's measured
    /// mix-ratio tolerance (≤ 2% on its benchmarks, §4.2).
    pub fn within_paper_tolerance(&self) -> bool {
        self.max_ratio_error <= paper_ratio_tolerance()
    }
}

/// The paper's mix-ratio error tolerance: 2% (§4.2 measured ≤ 2% across
/// its benchmarks). The hierarchy rejects rounded assignments whose
/// clamped underflows push a mix ratio beyond this.
pub fn paper_ratio_tolerance() -> Ratio {
    // 1/50 is a valid, canonical rational.
    Ratio::new(1, 50).unwrap_or(Ratio::ZERO)
}

/// Constant alias for documentation; see [`paper_ratio_tolerance`].
pub const PAPER_RATIO_TOLERANCE: &str = "2%";

/// Rounds a rational assignment to least-count multiples and measures
/// the resulting mix-ratio error.
///
/// # Examples
///
/// ```
/// use aqua_dag::Dag;
/// use aqua_volume::{dagsolve, round::round_assignment, Machine};
///
/// let mut dag = Dag::new();
/// let a = dag.add_input("A");
/// let b = dag.add_input("B");
/// let m = dag.add_mix("mx", &[(a, 1), (b, 3)], 0)?;
/// dag.add_output("o", m);
/// let machine = Machine::paper_default();
/// let sol = dagsolve::solve(&dag, &machine)?;
/// let rounded = round_assignment(&dag, &machine, &sol);
/// assert!(rounded.underflows.is_empty());
/// // 25 + 75 nl are exact least-count multiples: zero error.
/// assert!(rounded.max_ratio_error.is_zero());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn round_assignment(
    dag: &Dag,
    machine: &Machine,
    assignment: &VolumeAssignment,
) -> RoundedAssignment {
    let (edge_volumes_nl, underflows) = rounded_edges(dag, machine, assignment);
    clamp_and_finish(dag, machine, edge_volumes_nl, underflows)
}

/// Shared tail of the clamping entry points: measure ratio errors on
/// the raw rounded table (§4.2's metric — an underflowed transfer
/// counts as dropped, a 100% error), then clamp each underflowed edge
/// up to one least count for the emitted volumes, since the hardware
/// cannot meter less. A clamped plan therefore never ships a
/// sub-least-count transfer, and its distorted mix still fails
/// [`RoundedAssignment::within_paper_tolerance`].
fn clamp_and_finish(
    dag: &Dag,
    machine: &Machine,
    mut edge_volumes_nl: Vec<Ratio>,
    underflows: Vec<usize>,
) -> RoundedAssignment {
    let (max_ratio_error, mean_ratio_error) = ratio_errors(dag, &edge_volumes_nl);
    let lc = machine.least_count_nl();
    for &e in &underflows {
        edge_volumes_nl[e] = lc;
    }
    let node_volumes_nl = node_totals(dag, &edge_volumes_nl);
    RoundedAssignment {
        edge_volumes_nl,
        node_volumes_nl,
        max_ratio_error,
        mean_ratio_error,
        underflows,
    }
}

/// Rounds each live edge independently; returns the rounded table plus
/// the indices of productive transfers that fell below the least count
/// (only transfers the plan actually needs: positive exact volume,
/// destination not an excess node).
fn rounded_edges(
    dag: &Dag,
    machine: &Machine,
    assignment: &VolumeAssignment,
) -> (Vec<Ratio>, Vec<usize>) {
    let mut edge_volumes_nl = vec![Ratio::ZERO; dag.num_edges()];
    let mut underflows = Vec::new();
    for e in dag.edge_ids() {
        if !dag.edge_is_live(e) {
            continue;
        }
        let exact = assignment.edge_volumes_nl[e.index()];
        let rounded = machine.round_to_least_count(exact);
        edge_volumes_nl[e.index()] = rounded;
        let is_excess = dag.node(dag.edge(e).dst).kind == NodeKind::Excess;
        if rounded < machine.least_count_nl() && exact.is_positive() && !is_excess {
            underflows.push(e.index());
        }
    }
    (edge_volumes_nl, underflows)
}

/// Rounds LP solution volumes (floats, nl) to least-count multiples
/// with the same clamp-and-measure discipline as [`round_assignment`]:
/// productive transfers that round to zero but carry real volume are
/// raised to one least count, and the returned ratio errors reflect
/// the clamped table. This is the LP-path RVol → IVol step used by
/// `hierarchy::manage_volumes`.
pub fn round_lp_edges(dag: &Dag, machine: &Machine, edge_nl: &[f64]) -> RoundedAssignment {
    let lc = machine.least_count_nl();
    let lc_f = lc.to_f64();
    // Anything below this is LP float noise around zero, not a real
    // transfer the plan depends on; clamping it would invent fluid.
    let noise = lc_f * 1e-6;
    let mut edge_volumes_nl = vec![Ratio::ZERO; dag.num_edges()];
    let mut underflows = Vec::new();
    for e in dag.edge_ids() {
        if !dag.edge_is_live(e) {
            continue;
        }
        let exact = edge_nl[e.index()];
        let counts = (exact / lc_f).round() as i128;
        let rounded = Ratio::from_int(counts.max(0)) * lc;
        edge_volumes_nl[e.index()] = rounded;
        let is_excess = dag.node(dag.edge(e).dst).kind == NodeKind::Excess;
        if rounded < lc && exact > noise && !is_excess {
            underflows.push(e.index());
        }
    }
    clamp_and_finish(dag, machine, edge_volumes_nl, underflows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dagsolve;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    #[test]
    fn rounding_error_is_bounded_by_half_count_over_volume() {
        // Glucose-like mix 1:8 at 100 nl scale: shares 11.11/88.89 round
        // to 11.1/88.9 — tiny relative error.
        let mut d = Dag::new();
        let a = d.add_input("G");
        let b = d.add_input("R");
        let m = d.add_mix("mx", &[(a, 1), (b, 8)], 0).unwrap();
        d.add_output("o", m);
        let machine = Machine::paper_default();
        let sol = dagsolve::solve(&d, &machine).unwrap();
        let rounded = round_assignment(&d, &machine, &sol);
        assert!(rounded.underflows.is_empty());
        // The paper reports <= 2% on its assays; this toy case is far
        // below that.
        assert!(rounded.max_ratio_error < r(2, 100));
        // All volumes are least-count multiples.
        for id in d.edge_ids() {
            assert!(machine.is_least_count_multiple(rounded.edge_volumes_nl[id.index()]));
        }
    }

    #[test]
    fn near_least_count_transfer_can_round_into_underflow() {
        // A 1:2999 mix underflows before rounding: 100 nl / 3000 =
        // 0.0333 nl rounds to 0.0, a recorded underflow.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 2999)], 0).unwrap();
        d.add_output("o", m);
        let machine = Machine::paper_default();
        let sol = dagsolve::solve(&d, &machine).unwrap();
        assert!(sol.underflow.is_some());
        let rounded = round_assignment(&d, &machine, &sol);
        assert_eq!(rounded.underflows.len(), 1);
        // The underflowed transfer is clamped up to exactly one least
        // count — never emitted as a sub-least-count (unmeterable)
        // volume, never silently dropped to zero.
        let e = rounded.underflows[0];
        assert_eq!(rounded.edge_volumes_nl[e], machine.least_count_nl());
        // The clamp is reflected in the mix node's total...
        let mix_total = rounded.node_volumes_nl[m.index()];
        let b_edge: Ratio = d
            .in_edges(m)
            .iter()
            .map(|&ed| rounded.edge_volumes_nl[ed.index()])
            .sum();
        assert_eq!(mix_total, b_edge);
        // ...and in the ratio error: the raw rounding drops the
        // transfer entirely (a 100% error on its mix), far beyond the
        // paper's 2% — the hierarchy must not ship this plan.
        assert!(!rounded.within_paper_tolerance());
        assert!(rounded.max_ratio_error > r(1, 2));
    }

    #[test]
    fn regression_1_to_1999_mix_rounds_to_one_count_and_breaks_tolerance() {
        // Regression for the span-limit case from dagsolve: a 1:1999 mix
        // at 100 nl capacity wants 0.05 nl of A — half a least count.
        // Half-away-from-zero rounding lands it at exactly one count
        // (0.1 nl), doubling A's share. The result must be a meterable
        // table (no sub-least-count transfers) whose ratio error
        // honestly reports the ~100% distortion so the hierarchy
        // escalates instead of shipping the broken mix.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1999)], 0).unwrap();
        d.add_output("o", m);
        let machine = Machine::paper_default();
        let sol = dagsolve::solve(&d, &machine).unwrap();
        // The rational solution already flags the underflow...
        assert!(sol.underflow.is_some());
        let rounded = round_assignment(&d, &machine, &sol);
        // ...and after rounding every live transfer is a least-count
        // multiple of at least one count.
        for e in d.edge_ids() {
            let v = rounded.edge_volumes_nl[e.index()];
            assert!(machine.is_least_count_multiple(v));
            assert!(
                v >= machine.least_count_nl(),
                "edge {e} emitted sub-least-count volume {v}"
            );
        }
        // 0.1 / 100.1 against a spec of 1/2000 is ~2x: flagged.
        assert!(!rounded.within_paper_tolerance());
        assert!(rounded.max_ratio_error > r(9, 10));
        assert!(rounded.max_ratio_error < r(11, 10));
    }

    #[test]
    fn lp_edge_rounding_clamps_and_ignores_float_noise() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1)], 0).unwrap();
        d.add_output("o", m);
        let machine = Machine::paper_default();
        // Edge order: a->m, b->m, m->o. Give A solver noise (treated as
        // zero, not clamped) and B a real sub-count volume (clamped).
        let edge_nl = vec![1e-12, 0.04, 50.0];
        let ra = round_lp_edges(&d, &machine, &edge_nl);
        assert_eq!(ra.edge_volumes_nl[0], Ratio::ZERO);
        assert_eq!(ra.edge_volumes_nl[1], machine.least_count_nl());
        assert_eq!(ra.underflows, vec![1]);
        assert_eq!(ra.edge_volumes_nl[2], Ratio::from_int(50));
    }

    #[test]
    fn zero_error_when_volumes_divide_exactly() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1)], 0).unwrap();
        d.add_output("o", m);
        let machine = Machine::paper_default();
        let sol = dagsolve::solve(&d, &machine).unwrap();
        let rounded = round_assignment(&d, &machine, &sol);
        assert!(rounded.max_ratio_error.is_zero());
        assert!(rounded.mean_ratio_error.is_zero());
    }
}

/// The paper defers "more sophisticated rounding techniques to the
/// future" (§3.2); this is one such technique: **apportioned rounding**.
///
/// Instead of rounding each transfer independently (which lets a node's
/// uses drift away from both its production and the specified mix
/// ratios), each node's total input is rounded once and the least-count
/// units are apportioned among its in-edges by the largest-remainder
/// method. This guarantees per-node conservation (the rounded parts sum
/// exactly to the rounded total) and minimizes the worst ratio error
/// for that total.
///
/// Returns the same structure as [`round_assignment`] so the two
/// schemes can be compared head to head (see the `rounding_ablation`
/// bench binary).
pub fn round_apportioned(
    dag: &Dag,
    machine: &Machine,
    assignment: &VolumeAssignment,
) -> RoundedAssignment {
    let lc = machine.least_count_nl();
    let mut edge_volumes_nl = vec![Ratio::ZERO; dag.num_edges()];
    let mut underflows = Vec::new();

    for id in dag.node_ids() {
        let ins = dag.in_edges(id);
        if ins.is_empty() {
            continue;
        }
        // Total counts for this node's input, rounded once.
        let exact_total =
            Ratio::checked_sum(ins.iter().map(|&e| assignment.edge_volumes_nl[e.index()]))
                .unwrap_or(Ratio::ZERO);
        let total_counts = (exact_total / lc).round().max(0);
        // Quotas per edge; floor first, then hand out the remaining
        // counts by largest fractional remainder.
        let mut floors: Vec<i128> = Vec::with_capacity(ins.len());
        let mut remainders: Vec<(usize, Ratio)> = Vec::with_capacity(ins.len());
        let mut used = 0i128;
        for (i, &e) in ins.iter().enumerate() {
            let quota = assignment.edge_volumes_nl[e.index()] / lc;
            let fl = quota.floor().max(0);
            floors.push(fl);
            used += fl;
            let rem = quota - Ratio::from_int(quota.floor());
            remainders.push((i, rem));
        }
        let mut leftover = total_counts - used;
        remainders.sort_by_key(|&(_, rem)| std::cmp::Reverse(rem));
        for (i, _) in remainders {
            if leftover <= 0 {
                break;
            }
            floors[i] += 1;
            leftover -= 1;
        }
        for (i, &e) in ins.iter().enumerate() {
            let v = Ratio::from_int(floors[i]) * lc;
            edge_volumes_nl[e.index()] = v;
            let is_excess = dag.node(dag.edge(e).dst).kind == NodeKind::Excess;
            if v < lc && !is_excess {
                underflows.push(e.index());
            }
        }
    }

    // Node totals and error metrics, with no clamping.
    let node_volumes_nl = node_totals(dag, &edge_volumes_nl);
    let (max_ratio_error, mean_ratio_error) = ratio_errors(dag, &edge_volumes_nl);
    RoundedAssignment {
        edge_volumes_nl,
        node_volumes_nl,
        max_ratio_error,
        mean_ratio_error,
        underflows,
    }
}

/// Per-node production for an edge table: the sum of a node's in-edge
/// volumes (sources keep their total out-edge demand).
fn node_totals(dag: &Dag, edge_volumes_nl: &[Ratio]) -> Vec<Ratio> {
    let mut node_volumes_nl = vec![Ratio::ZERO; dag.num_nodes()];
    for id in dag.node_ids() {
        let ins = dag.in_edges(id);
        node_volumes_nl[id.index()] = if ins.is_empty() {
            Ratio::checked_sum(
                dag.out_edges(id)
                    .iter()
                    .map(|&e| edge_volumes_nl[e.index()]),
            )
            .unwrap_or(Ratio::ZERO)
        } else {
            Ratio::checked_sum(ins.iter().map(|&e| edge_volumes_nl[e.index()]))
                .unwrap_or(Ratio::ZERO)
        };
    }
    node_volumes_nl
}

/// The error recorded for a mix input whose exact relative error does
/// not fit in `i128`: above every error that does, so the assignment
/// counts as beyond the paper's tolerance.
const UNREPRESENTABLE_ERROR: Ratio = Ratio::from_int(i128::MAX);

/// (max, mean) relative mix-ratio error across all mix-node inputs of
/// an edge table — the §4.2 metric. An input whose error does not fit
/// in `i128` counts as [`UNREPRESENTABLE_ERROR`]; a sum of errors that
/// overflows saturates the mean at the max, which it never exceeds.
fn ratio_errors(dag: &Dag, edge_volumes_nl: &[Ratio]) -> (Ratio, Ratio) {
    let node_volumes_nl = node_totals(dag, edge_volumes_nl);
    let mut max_err = Ratio::ZERO;
    let mut total_err = Some(Ratio::ZERO);
    let mut samples: i128 = 0;
    for id in dag.node_ids() {
        if !matches!(dag.node(id).kind, NodeKind::Mix { .. }) {
            continue;
        }
        let total = node_volumes_nl[id.index()];
        if !total.is_positive() {
            continue;
        }
        for &e in dag.in_edges(id) {
            let spec = dag.edge(e).fraction;
            let err = edge_volumes_nl[e.index()]
                .checked_div(total)
                .and_then(|got| got.checked_sub(spec))
                .and_then(|diff| diff.abs().checked_div(spec))
                .unwrap_or(UNREPRESENTABLE_ERROR);
            max_err = max_err.max(err);
            total_err = total_err.and_then(|t| t.checked_add(err).ok());
            samples += 1;
        }
    }
    let mean = match total_err {
        _ if samples == 0 => Ratio::ZERO,
        Some(total) => total
            .checked_div(Ratio::from_int(samples))
            .unwrap_or(max_err),
        None => max_err,
    };
    (max_err, mean)
}

#[cfg(test)]
mod apportion_tests {
    use super::*;
    use crate::dagsolve;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    #[test]
    fn apportioned_rounding_conserves_per_node_totals() {
        // A 1:1:1 three-way split of 100 nl cannot round each part to
        // 33.3 AND keep the total at 100.0 under independent rounding;
        // apportionment must.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let c = d.add_input("C");
        let m = d.add_mix("m", &[(a, 1), (b, 1), (c, 1)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let machine = Machine::paper_default();
        let sol = dagsolve::solve(&d, &machine).unwrap();
        let ap = round_apportioned(&d, &machine, &sol);
        let total: Ratio = d
            .in_edges(m)
            .iter()
            .map(|&e| ap.edge_volumes_nl[e.index()])
            .sum();
        assert!(machine.is_least_count_multiple(total));
        assert_eq!(total, machine.round_to_least_count(sol.node_nl(m)));
    }

    #[test]
    fn apportioned_never_beats_half_count_per_edge_by_much() {
        // Apportionment moves each edge at most one least count away
        // from its independent rounding.
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("m", &[(a, 3), (b, 7)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let machine = Machine::paper_default();
        let sol = dagsolve::solve(&d, &machine).unwrap();
        let indep = round_assignment(&d, &machine, &sol);
        let ap = round_apportioned(&d, &machine, &sol);
        for e in d.edge_ids() {
            let delta = (indep.edge_volumes_nl[e.index()] - ap.edge_volumes_nl[e.index()]).abs();
            assert!(delta <= machine.least_count_nl(), "edge {e} delta {delta}");
        }
    }

    #[test]
    fn apportioned_error_is_at_most_independent_error_on_enzyme_style_mixes() {
        // The regime the paper cares about: skewed ratios at small
        // volumes. Mean error under apportionment must not exceed the
        // independent scheme's.
        let machine = Machine::paper_default();
        let mut d = Dag::new();
        let stock = d.add_input("stock");
        let dil = d.add_input("dil");
        for (i, parts) in [(1u64, 9u64), (1, 99), (3, 7), (2, 5)].iter().enumerate() {
            let m = d
                .add_mix(format!("m{i}"), &[(stock, parts.0), (dil, parts.1)], 0)
                .unwrap();
            d.add_process(format!("s{i}"), "sense.OD", m);
        }
        let sol = dagsolve::solve(&d, &machine).unwrap();
        let indep = round_assignment(&d, &machine, &sol);
        let ap = round_apportioned(&d, &machine, &sol);
        assert!(
            ap.mean_ratio_error <= indep.mean_ratio_error + r(1, 1000),
            "apportioned {} vs independent {}",
            ap.mean_ratio_error,
            indep.mean_ratio_error
        );
    }
}
