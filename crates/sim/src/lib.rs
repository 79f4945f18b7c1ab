//! AquaCore PLoC simulator.
//!
//! Executes compiled AIS programs against a software model of the
//! AquaCore wet datapath: reservoirs, a mixer, a heater, separators
//! (with matrix/pusher/out ports), sensors, and I/O ports — each with
//! the machine's capacity limit, and every metered transfer subject to
//! the least-count resolution.
//!
//! Three layers:
//!
//! * [`state::ChipState`] — fluid contents (volume + composition) per
//!   wet location, with overflow detection;
//! * [`exec`] — the instruction executor, resolving each `move`'s
//!   volume from the compiler's [`aqua_compiler::VolumePlan`]
//!   (including §3.5 run-time dispensing for partitioned assays) and
//!   reporting violations (underflow, deficit, overflow) instead of
//!   crashing;
//! * [`regen`] — the Biostream-style *reactive regeneration* baseline:
//!   a DAG-level executor with no volume management that re-executes
//!   backward slices whenever a fluid runs out, counting regenerations
//!   (the right-most column of Table 2);
//! * [`fault`] — deterministic, seeded hardware-fault injection
//!   ([`fault::FaultPlan`]): metering error, transient dispense
//!   failures, stuck valves, and noisy volume sensors. With
//!   [`exec::ExecConfig::recover`] on, the executor walks the paper's
//!   Fig. 6 hierarchy *at run time* — re-dispense, regenerate the
//!   starved backward slice, re-solve with observed volumes — and
//!   reports what it did in [`exec::ExecReport::recovery`];
//! * [`sched`] / [`alloc`] — the chip-as-CPU plan scheduler: takes the
//!   dependency DAG a compiled plan carries ([`InstrDag`]), renames
//!   virtual unit episodes onto the machine's physical slot inventory
//!   (RegisterPool-style free lists), and produces a deterministic
//!   cycle-accurate schedule with a makespan objective. The scheduled
//!   executor ([`exec::Executor::run_scheduled`]) replays instructions
//!   in program order under the renames, so sense sets, faults, and
//!   recovery stay bit-identical to sequential execution;
//! * [`batch_exec`] — interleaves many assay instances on one
//!   simulated chip, sharing each plan's DAG across its instances and
//!   executing on worker threads with bit-identical results at any
//!   thread count.
//!
//! # Examples
//!
//! ```
//! use aqua_compiler::compile;
//! use aqua_sim::exec::{ExecConfig, Executor};
//! use aqua_volume::Machine;
//!
//! let src = "
//! ASSAY demo START
//! fluid A, B;
//! MIX A AND B IN RATIOS 1 : 4 FOR 10;
//! SENSE OPTICAL it INTO R;
//! END";
//! let machine = Machine::paper_default();
//! let out = compile(src, &machine, &Default::default())?;
//! let report = Executor::new(&machine, ExecConfig::default()).run(&out)?;
//! assert!(report.violations.is_empty());
//! assert_eq!(report.sense_results.len(), 1);
//! // The sensed mixture is 1:4 A:B by volume. A reading is keyed by
//! // fluid id; the run's fluid table names it.
//! let s = &report.sense_results[0];
//! let composition = report.final_state.named(&s.composition);
//! let (a, b) = (composition["A"], composition["B"]);
//! assert!((b / a - 4.0).abs() < 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Lib targets must not panic on `unwrap()`: reachable failure paths
// carry typed errors, invariants use `expect` with a justification.
// Test code (cfg(test)) is exempt — asserting via unwrap is idiomatic.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod alloc;
pub mod batch_exec;
pub mod exec;
pub mod fault;
pub mod regen;
pub mod replay;
pub mod sched;
pub mod state;
pub mod trace;

pub use alloc::{ClassPool, SlotGrant, SlotPool};
pub use batch_exec::{run_batch, BatchJob, BatchOptions, BatchReport};
pub use exec::{ExecConfig, ExecError, ExecReport, Executor, SenseResult, Violation};
pub use fault::{
    FaultCounters, FaultKind, FaultPlan, RecoveryCounters, RecoveryTier, ScriptedFault,
    ScriptedKind,
};
pub use regen::{count_regenerations, ProductionPolicy, RegenConfig, RegenReport};
pub use sched::{InstrDag, SchedOptions, Schedule};
