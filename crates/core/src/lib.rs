//! Automatic fluid volume management — the paper's primary contribution.
//!
//! Given an assay DAG (from [`aqua_dag`]) and a machine description
//! ([`Machine`]), this crate assigns an absolute volume to every fluid
//! transfer such that:
//!
//! 1. assay mix ratios are honored exactly,
//! 2. every metered transfer is at least the hardware least count
//!    (no *underflow*),
//! 3. no unit's capacity is exceeded (no *overflow*),
//! 4. no fluid runs out before its last use (*non-deficit*).
//!
//! Three solvers are provided, forming the paper's volume-management
//! hierarchy (Figure 6, driven by [`hierarchy::manage_volumes`]):
//!
//! * [`dagsolve`] — the paper's linear-time algorithm: a backward
//!   `Vnorm` pass followed by a forward dispensing pass, over-constrained
//!   with flow conservation and equalized outputs;
//! * [`lpform`] — the LP/ILP formulation of Figure 3, solved with
//!   [`aqua_lp`]; slower but strictly more general;
//! * the DAG rewrites [`cascade`] (extreme mix ratios, §3.4.1) and
//!   [`replicate`] (numerous uses, §3.4.2) that rescue assays neither
//!   solver can satisfy directly.
//!
//! Statically-unknown volumes (separations measured at run time, §3.5)
//! are handled by [`unknown`]: the DAG is partitioned at compile time
//! and dispensing is deferred to run time per partition.
//!
//! # Examples
//!
//! Solving the paper's running example (Figure 2/5):
//!
//! ```
//! use aqua_dag::Dag;
//! use aqua_volume::{dagsolve, Machine};
//!
//! let mut dag = Dag::new();
//! let a = dag.add_input("A");
//! let b = dag.add_input("B");
//! let c = dag.add_input("C");
//! let k = dag.add_mix("K", &[(a, 1), (b, 4)], 0)?;
//! let l = dag.add_mix("L", &[(b, 2), (c, 1)], 0)?;
//! let m = dag.add_mix("M", &[(k, 2), (l, 1)], 0)?;
//! let n = dag.add_mix("N", &[(l, 2), (c, 3)], 0)?;
//! dag.add_output("M_out", m);
//! dag.add_output("N_out", n);
//!
//! let machine = Machine::paper_default();
//! let solution = dagsolve::solve(&dag, &machine)?;
//! assert!(solution.underflow.is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Lib targets must not panic on `unwrap()`: reachable failure paths
// carry typed errors, invariants use `expect` with a justification.
// Test code (cfg(test)) is exempt — asserting via unwrap is idiomatic.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bitmix;
pub mod cascade;
pub mod dagsolve;
pub mod feascheck;
pub mod hierarchy;
pub mod incr;
pub mod lpform;
pub mod machine;
pub mod replicate;
pub mod round;
pub mod unknown;
pub mod vnorm;

/// The claim-counter pool, re-exported so crates above the volume
/// layer (the simulator's batch executor) share it without a direct
/// dependency on `aqua-lp`.
pub use aqua_lp::batch;
pub use dagsolve::{DagSolveError, VolumeAssignment};
pub use hierarchy::{
    manage_volumes, replan_with_observations, ManagedOutcome, Method, VolumeManagerOptions,
};
pub use incr::{compile_with_trace, Divergence, IncrEdit, IncrSolver, Recording, ReplayOutcome};
pub use machine::Machine;
pub use vnorm::VnormTable;
