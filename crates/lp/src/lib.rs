//! A from-scratch linear-programming substrate for the AquaCore
//! volume-management reproduction.
//!
//! The paper solves its RVol formulation with Matlab's `linprog` (LIPSOL)
//! and its IVol formulation with LP_Solve 5.5. Neither is available here,
//! so this crate provides the substitute substrate:
//!
//! * [`Model`] — an LP/ILP model builder (variables with bounds,
//!   `<=`/`>=`/`=` constraints, maximize/minimize objective);
//! * [`solve`] — a two-phase primal simplex with bounded variables,
//!   Bland's anti-cycling rule, and single-variable-row presolve, run as
//!   a sparse *revised* simplex (CSC storage + product-form eta basis).
//!   The original dense tableau stays behind [`solve_dense`] as the
//!   differential-testing oracle;
//! * [`solve_ilp`] — sequential best-first branch-and-bound integer
//!   programming on top of the relaxation, with node- and time-budgets
//!   (the paper's ILP "ran for hours"; budgets turn that into a
//!   reportable outcome). Every node's relaxation is a cold [`solve`]
//!   of its bound-tightened model;
//! * [`batch`] — an index-ordered parallel map over independent tasks
//!   (one compile per queued request, one Vnorm table per partition).
//!
//! # Examples
//!
//! ```
//! use aqua_lp::{Model, Sense, solve, Status};
//!
//! // maximize x + 2y  s.t.  x + y <= 4,  y <= 3,  x, y >= 0
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY);
//! let y = m.add_var("y", 0.0, 3.0);
//! m.set_objective([(x, 1.0), (y, 2.0)]);
//! m.add_le("cap", [(x, 1.0), (y, 1.0)], 4.0);
//! let out = solve(&m);
//! let sol = match out.status { Status::Optimal(s) => s, _ => unreachable!() };
//! assert!((sol.objective - 7.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
// Lib targets must not panic on `unwrap()`: reachable failure paths
// carry typed errors, invariants use `expect` with a justification.
// Test code (cfg(test)) is exempt — asserting via unwrap is idiomatic.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod basis;
pub mod batch;
mod expr;
mod ilp;
mod model;
mod simplex;
mod solution;
mod sparse;

pub use expr::LinExpr;
pub use ilp::{solve_ilp, IlpConfig, IlpOutcome, IlpStats, IlpStatus};
pub use model::{Constraint, ConstraintSense, Model, ModelError, Sense, VarId};
pub use simplex::{
    solve, solve_dense, solve_with, PricingRule, SimplexConfig, SolveOutput, SolveStats, Status,
};
pub use solution::Solution;
