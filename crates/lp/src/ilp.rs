//! Branch-and-bound integer programming over the simplex relaxation.
//!
//! The paper used LP_Solve 5.5's MILP mode to attack IVol directly and
//! found that it "ran for hours without generating a solution" on the
//! enzyme assay. To make that observation reproducible (rather than
//! literally re-running for hours), this solver takes explicit node and
//! wall-clock budgets and reports a [`IlpStatus::BudgetExhausted`]
//! outcome carrying the best incumbent found so far, if any.
//!
//! The search is sequential and deterministic: nodes are expanded
//! best-first with ties broken by creation order, and branching picks
//! the most fractional variable with ties broken by smallest variable
//! index. Each node's relaxation is its bound-tightened model, solved
//! from scratch by [`crate::solve`].

use std::time::{Duration, Instant};

use crate::model::{Model, Sense};
use crate::simplex::{solve, Status};
use crate::solution::Solution;

/// A value within this distance of an integer counts as integral.
const INT_TOL: f64 = 1e-6;

/// Budgets for [`solve_ilp`].
#[derive(Debug, Clone)]
pub struct IlpConfig {
    /// Maximum branch-and-bound nodes to expand.
    pub max_nodes: u64,
    /// Wall-clock budget, checked before each node.
    pub time_budget: Duration,
}

impl Default for IlpConfig {
    fn default() -> IlpConfig {
        IlpConfig {
            max_nodes: 100_000,
            time_budget: Duration::from_secs(60),
        }
    }
}

/// Statistics from a branch-and-bound run.
#[derive(Debug, Clone, Default)]
pub struct IlpStats {
    /// Nodes whose relaxation was solved.
    pub nodes: u64,
    /// Total simplex iterations across all nodes.
    pub simplex_iterations: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Terminal status of an ILP solve.
#[derive(Debug, Clone)]
pub enum IlpStatus {
    /// Proven-optimal integer solution.
    Optimal(Solution),
    /// The relaxation (and hence the ILP) is infeasible.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
    /// A budget ran out; `incumbent` is the best integer solution found
    /// (possibly none).
    BudgetExhausted {
        /// Best integer-feasible solution discovered before the budget
        /// ran out, if any.
        incumbent: Option<Solution>,
    },
}

/// Status plus statistics from [`solve_ilp`].
#[derive(Debug, Clone)]
pub struct IlpOutcome {
    /// Terminal status.
    pub status: IlpStatus,
    /// Search statistics.
    pub stats: IlpStats,
}

/// Solves the model as an ILP: variables added with
/// [`Model::add_int_var`] (or marked via [`Model::set_integer`]) must
/// take integer values.
///
/// # Examples
///
/// ```
/// use aqua_lp::{solve_ilp, IlpConfig, IlpStatus, Model, Sense};
///
/// // maximize x + y s.t. 2x + y <= 4, x + 2y <= 5 (integers)
/// let mut m = Model::new(Sense::Maximize);
/// let x = m.add_int_var("x", 0.0, f64::INFINITY);
/// let y = m.add_int_var("y", 0.0, f64::INFINITY);
/// m.set_objective([(x, 1.0), (y, 1.0)]);
/// m.add_le("c1", [(x, 2.0), (y, 1.0)], 4.0);
/// m.add_le("c2", [(x, 1.0), (y, 2.0)], 5.0);
/// let out = solve_ilp(&m, &IlpConfig::default());
/// match out.status {
///     IlpStatus::Optimal(s) => assert!((s.objective - 3.0).abs() < 1e-6),
///     other => panic!("unexpected: {other:?}"),
/// }
/// ```
pub fn solve_ilp(model: &Model, config: &IlpConfig) -> IlpOutcome {
    let start = Instant::now();
    let mut stats = IlpStats::default();
    let int_vars = model.integer_vars();

    // Each open node is a set of tightened bounds plus the parent's
    // relaxation bound (best-first ordering) and a creation sequence
    // number (deterministic tie-breaking).
    struct Node {
        bounds: Vec<(usize, f64, f64)>, // (var index, lb, ub)
        bound: f64,                     // relaxation objective (internal min)
        seq: u64,                       // creation order, unique
    }
    // Internally minimize: for Maximize, compare negated objectives.
    let to_internal = |obj: f64| match model.sense() {
        Sense::Minimize => obj,
        Sense::Maximize => -obj,
    };

    let mut open: Vec<Node> = vec![Node {
        bounds: Vec::new(),
        bound: f64::NEG_INFINITY,
        seq: 0,
    }];
    let mut next_seq: u64 = 1;
    let mut incumbent: Option<Solution> = None;
    let mut incumbent_internal = f64::INFINITY;
    let mut saw_budget_stop = false;

    // Best-first: take the open node with the lowest relaxation bound;
    // equal bounds break by creation order, making the search order (and
    // hence any tie among equally-good incumbents) deterministic
    // regardless of how `open` is stored. Nodes the incumbent already
    // dominates are discarded on the way (they can never revive — the
    // incumbent only improves).
    let pop_best = |open: &mut Vec<Node>, incumbent_internal: f64| -> Option<Node> {
        loop {
            let pos = open
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.bound.total_cmp(&b.bound).then(a.seq.cmp(&b.seq)))
                .map(|(i, _)| i)?;
            let node = open.swap_remove(pos);
            if node.bound < incumbent_internal - 1e-9 {
                return Some(node);
            }
        }
    };

    while !open.is_empty() {
        if stats.nodes >= config.max_nodes || start.elapsed() >= config.time_budget {
            saw_budget_stop = true;
            break;
        }
        let Some(node) = pop_best(&mut open, incumbent_internal) else {
            break;
        };
        let mut sub = model.clone();
        for &(vi, lb, ub) in &node.bounds {
            sub.tighten_bounds(crate::model::VarId(vi), lb, ub);
        }
        let out = solve(&sub);
        stats.nodes += 1;
        stats.simplex_iterations += out.stats.iterations;
        let sol = match out.status {
            Status::Optimal(s) => s,
            Status::Infeasible => continue,
            Status::Unbounded => {
                // Root unbounded => ILP unbounded (or ill-posed);
                // child unbounded cannot happen if root was bounded.
                if stats.nodes == 1 {
                    stats.elapsed = start.elapsed();
                    return IlpOutcome {
                        status: IlpStatus::Unbounded,
                        stats,
                    };
                }
                continue;
            }
            Status::IterationLimit => continue,
        };
        let internal_obj = to_internal(sol.objective);
        if internal_obj >= incumbent_internal - 1e-9 {
            continue; // cannot beat the incumbent
        }
        // Branch on the most fractional integer variable; the strict
        // `>` keeps the smallest variable index on exact fractionality
        // ties.
        let mut branch: Option<(usize, f64)> = None;
        let mut best_frac = INT_TOL;
        for v in &int_vars {
            let val = sol.values[v.index()];
            let frac = (val - val.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch = Some((v.index(), val));
            }
        }
        match branch {
            None => {
                // Integer feasible: new incumbent.
                incumbent_internal = internal_obj;
                incumbent = Some(sol);
            }
            Some((vi, val)) => {
                open.push(Node {
                    bounds: with_bound(&node.bounds, vi, f64::NEG_INFINITY, val.floor()),
                    bound: internal_obj,
                    seq: next_seq,
                });
                open.push(Node {
                    bounds: with_bound(&node.bounds, vi, val.ceil(), f64::INFINITY),
                    bound: internal_obj,
                    seq: next_seq + 1,
                });
                next_seq += 2;
            }
        }
    }

    stats.elapsed = start.elapsed();
    let status = if saw_budget_stop {
        IlpStatus::BudgetExhausted { incumbent }
    } else if let Some(s) = incumbent {
        IlpStatus::Optimal(s)
    } else {
        IlpStatus::Infeasible
    };
    IlpOutcome { status, stats }
}

fn with_bound(bounds: &[(usize, f64, f64)], vi: usize, lb: f64, ub: f64) -> Vec<(usize, f64, f64)> {
    let mut out = bounds.to_vec();
    out.push((vi, lb, ub));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn knapsack_like_ilp() {
        // maximize 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d <= 14, binary.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_int_var("a", 0.0, 1.0);
        let b = m.add_int_var("b", 0.0, 1.0);
        let c = m.add_int_var("c", 0.0, 1.0);
        let d = m.add_int_var("d", 0.0, 1.0);
        m.set_objective([(a, 8.0), (b, 11.0), (c, 6.0), (d, 4.0)]);
        m.add_le("w", [(a, 5.0), (b, 7.0), (c, 4.0), (d, 3.0)], 14.0);
        let out = solve_ilp(&m, &IlpConfig::default());
        match out.status {
            IlpStatus::Optimal(s) => {
                assert!((s.objective - 21.0).abs() < 1e-6, "obj={}", s.objective);
                // b + c + d (weight 14, value 21) beats a + b (19).
                assert!(s.value(b) > 0.5 && s.value(c) > 0.5 && s.value(d) > 0.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn relaxation_differs_from_ilp() {
        // LP relaxation gives fractional x; ILP must round down.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, f64::INFINITY);
        m.set_objective([(x, 1.0)]);
        m.add_le("c", [(x, 2.0)], 7.0); // x <= 3.5
        let out = solve_ilp(&m, &IlpConfig::default());
        match out.status {
            IlpStatus::Optimal(s) => assert!((s.value(x) - 3.0).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_ilp() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, 1.0);
        m.add_ge("lo", [(x, 1.0)], 2.0);
        let out = solve_ilp(&m, &IlpConfig::default());
        assert!(matches!(out.status, IlpStatus::Infeasible));
    }

    #[test]
    fn budget_exhaustion_reports_incumbent() {
        // A model easy enough to find *an* incumbent at the root's first
        // dives, but with a node budget of 1 we stop immediately after.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, 10.0);
        let y = m.add_int_var("y", 0.0, 10.0);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_le("c", [(x, 3.0), (y, 5.0)], 22.3);
        let cfg = IlpConfig {
            max_nodes: 1,
            ..IlpConfig::default()
        };
        let out = solve_ilp(&m, &cfg);
        assert!(matches!(out.status, IlpStatus::BudgetExhausted { .. }));
        assert!(out.stats.nodes <= 1);
    }

    #[test]
    fn mixed_integer_continuous() {
        // x integer, y continuous: maximize x + y, x + y <= 3.7, x <= 2.2.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_le("sum", [(x, 1.0), (y, 1.0)], 3.7);
        m.add_le("xcap", [(x, 1.0)], 2.2);
        let out = solve_ilp(&m, &IlpConfig::default());
        match out.status {
            IlpStatus::Optimal(s) => {
                assert!((s.value(x) - s.value(x).round()).abs() < 1e-6);
                assert!((s.objective - 3.7).abs() < 1e-6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn search_is_deterministic_and_matches_brute_force() {
        // A model with plenty of ties to exercise the tie-breaking rules.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_int_var(format!("x{i}"), 0.0, 4.0))
            .collect();
        m.set_objective(vars.iter().map(|&v| (v, 1.0)));
        m.add_le("caps", vars.iter().map(|&v| (v, 2.0)), 13.0);
        m.add_le(
            "odd",
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 2) as f64)),
            9.5,
        );

        let a = solve_ilp(&m, &IlpConfig::default());
        let b = solve_ilp(&m, &IlpConfig::default());
        // Same node count, iteration count, and solution on repeat runs.
        assert_eq!(a.stats.nodes, b.stats.nodes);
        assert_eq!(a.stats.simplex_iterations, b.stats.simplex_iterations);
        let (sa, sb) = match (&a.status, &b.status) {
            (IlpStatus::Optimal(sa), IlpStatus::Optimal(sb)) => (sa, sb),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(sa.values, sb.values);
        assert!(sa.is_feasible_for(&m, 1e-6));

        // Oracle independent of the simplex: enumerate all 5^6 integer
        // points, keep the feasible ones, take the best objective.
        let mut best = f64::NEG_INFINITY;
        let mut point = [0.0f64; 6];
        for code in 0..5usize.pow(6) {
            let mut rest = code;
            for x in point.iter_mut() {
                *x = (rest % 5) as f64;
                rest /= 5;
            }
            let caps: f64 = point.iter().map(|x| 2.0 * x).sum();
            let odd: f64 = point
                .iter()
                .enumerate()
                .map(|(i, x)| (1.0 + (i % 2) as f64) * x)
                .sum();
            if caps <= 13.0 && odd <= 9.5 {
                best = best.max(point.iter().sum());
            }
        }
        assert!(
            (sa.objective - best).abs() < 1e-6,
            "B&B {} vs enumeration {best}",
            sa.objective
        );
    }

    /// A maximize model with many integer variables, deliberate ties,
    /// and a non-trivial search tree.
    fn bushy_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_int_var(format!("x{i}"), 0.0, 5.0))
            .collect();
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 3.0 + (i % 3) as f64)),
        );
        m.add_le("caps", vars.iter().map(|&v| (v, 2.0)), 17.0);
        m.add_le(
            "odd",
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 2) as f64)),
            11.5,
        );
        m.add_ge("floor", vars.iter().map(|&v| (v, 1.0)), 2.5);
        m
    }

    /// The whole search is pinned: node and iteration counts, the
    /// objective and every incumbent value, bit for bit. A change to
    /// node selection, branching, pruning or the relaxation solves
    /// moves one of these.
    #[test]
    fn bushy_search_is_pinned() {
        let out = solve_ilp(
            &bushy_model(),
            &IlpConfig {
                max_nodes: 200,
                time_budget: Duration::from_secs(3600),
            },
        );
        assert_eq!(out.stats.nodes, 65);
        assert_eq!(out.stats.simplex_iterations, 205);
        let s = match &out.status {
            IlpStatus::Optimal(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(s.objective.to_bits(), 40f64.to_bits());
        let values: Vec<u64> = s.values.iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u64> = [0.0, 0.0, 5.0, 0.0, 0.0, 3.0, 0.0, 0.0]
            .iter()
            .map(|v: &f64| v.to_bits())
            .collect();
        assert_eq!(values, expect);
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer vars: behaves exactly like the LP.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 4.0);
        m.set_objective([(x, 2.0)]);
        let out = solve_ilp(&m, &IlpConfig::default());
        match out.status {
            IlpStatus::Optimal(s) => assert!((s.objective - 8.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(out.stats.nodes, 1);
    }
}
