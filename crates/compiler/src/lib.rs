//! The assay compiler: source text → assay DAG → volume management →
//! AquaCore (AIS) code with a metered volume plan.
//!
//! The pipeline mirrors the paper's toolchain (§4.1): "the usual steps
//! of parsing, intermediate representation, register allocation, and
//! code generation are similar to those of a conventional compiler",
//! plus the volume-management stages this paper adds:
//!
//! 1. [`aqua_lang`] parses and unrolls the assay;
//! 2. [`lower::lower_to_dag`] builds the assay DAG (Figure 2);
//! 3. [`aqua_volume::manage_volumes`] runs the DAGSolve/LP hierarchy
//!    (possibly rewriting the DAG via cascading/replication), or — when
//!    separations have statically-unknown yields —
//!    [`aqua_volume::unknown::partition`] defers dispensing to run time;
//! 4. [`codegen`] allocates reservoirs (register allocation) and emits
//!    AIS, attaching a [`codegen::VolumePlan`] that gives every metered
//!    `move` its absolute volume (or its run-time lookup key).
//!
//! A compiled plan also carries its scheduling analysis, built on first
//! use and kept ([`CompileOutput::instr_dag`]).
//!
//! # Examples
//!
//! ```
//! use aqua_compiler::compile;
//! use aqua_volume::Machine;
//!
//! let src = "
//! ASSAY demo START
//! fluid A, B;
//! MIX A AND B IN RATIOS 1 : 4 FOR 10;
//! SENSE OPTICAL it INTO R;
//! END";
//! let out = compile(src, &Machine::paper_default(), &Default::default())?;
//! assert_eq!(out.program.name(), "demo");
//! assert!(out.program.len_wet() > 0);
//! # Ok::<(), aqua_compiler::CompileError>(())
//! ```

#![warn(missing_docs)]
// Lib targets must not panic on `unwrap()`: reachable failure paths
// carry typed errors, invariants use `expect` with a justification.
// Test code (cfg(test)) is exempt — asserting via unwrap is idiomatic.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod codegen;
pub mod error;
pub mod instr_dag;
pub mod lower;

use std::sync::OnceLock;

use aqua_ais::Program;
use aqua_dag::Dag;
use aqua_lang::FlatAssay;
use aqua_volume::hierarchy::{ManagedOutcome, VolumeManagerOptions};
use aqua_volume::unknown::{self, PartitionPlan};
use aqua_volume::Machine;

use crate::instr_dag::InstrDag;

pub use codegen::{PlannedVolume, VolumePlan};
pub use error::CompileError;
pub use lower::{lower_to_dag, DagMap};

/// Compiler options.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Options forwarded to the volume-management hierarchy.
    pub volume: VolumeManagerOptions,
    /// Skip volume management entirely (emit relative volumes only);
    /// used to reproduce the paper's "no volume management" baseline.
    pub skip_volume_management: bool,
}

/// How volumes were resolved for this compilation.
///
/// Carries the full outcome/plan by value — one per compilation, owned
/// by the caller (see `ManagedOutcome`).
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum VolumeResolution {
    /// A static assignment (DAGSolve or LP, possibly after rewrites).
    Static(ManagedOutcome),
    /// Deferred to run time via partitioned dispensing (§3.5).
    Partitioned(PartitionPlan),
    /// Volume management skipped (baseline mode): execution relies on
    /// regeneration.
    None,
}

/// Everything the compiler produces.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The unrolled assay.
    pub flat: FlatAssay,
    /// The final assay DAG (after any volume-management rewrites).
    pub dag: Dag,
    /// Mapping between flat fluids and DAG nodes (pre-rewrite ids
    /// remain valid: rewrites only add nodes).
    pub dag_map: DagMap,
    /// The emitted AIS program.
    pub program: Program,
    /// Per-instruction volume annotations.
    pub volume_plan: VolumePlan,
    /// How volumes were resolved.
    pub resolution: VolumeResolution,
    /// See [`CompileOutput::instr_dag`].
    instr_dag: OnceLock<InstrDag>,
}

impl CompileOutput {
    /// The plan's scheduling analysis ([`InstrDag::build`]), built on
    /// the first call and kept for every later one, from any thread. It
    /// describes `program` and `volume_plan` as compiled: code that
    /// replaces either must build its own.
    pub fn instr_dag(&self) -> &InstrDag {
        let dag = self.instr_dag.get_or_init(|| InstrDag::build(self));
        debug_assert_eq!(dag.len, self.program.instrs().len(), "stale analysis");
        dag
    }
}

/// Compiles assay source to AIS with automatic volume management.
///
/// # Errors
///
/// Returns [`CompileError`] for language errors, malformed DAGs,
/// exceeded machine resources, or code-generation failures. An assay
/// that merely *underflows* (needs regeneration at run time) still
/// compiles; the condition is reported in [`VolumeResolution`].
pub fn compile(
    src: &str,
    machine: &Machine,
    opts: &CompileOptions,
) -> Result<CompileOutput, CompileError> {
    // The hierarchy's obs handle doubles as the compiler's: one handle
    // covers the whole pipeline.
    let flat = {
        let _span = opts.volume.obs.span("compile.parse");
        aqua_lang::compile_to_flat(src)?
    };
    compile_flat(flat, machine, opts)
}

/// Compiles an already-flattened assay. See [`compile`].
///
/// # Errors
///
/// See [`compile`].
pub fn compile_flat(
    flat: FlatAssay,
    machine: &Machine,
    opts: &CompileOptions,
) -> Result<CompileOutput, CompileError> {
    let obs = opts.volume.obs.clone();
    let (dag, dag_map) = {
        let _span = obs.span("compile.lower");
        let (dag, dag_map) = lower::lower_to_dag(&flat)?;
        dag.validate().map_err(CompileError::Dag)?;
        (dag, dag_map)
    };

    // --- Volume management ---
    let vol_span = obs.span("compile.volumes");
    let (final_dag, resolution) = if opts.skip_volume_management {
        (dag, VolumeResolution::None)
    } else if unknown::has_unknown_volumes(&dag) {
        let plan = unknown::partition(&dag, machine).map_err(CompileError::Partition)?;
        // Partitioning computes one compile-time Vnorm table per
        // partition; report them on the same counter the hierarchy uses.
        obs.add("vol.vnorm_passes", plan.partitions.len() as u64);
        obs.add("vol.partitions", plan.partitions.len() as u64);
        (dag, VolumeResolution::Partitioned(plan))
    } else {
        // Thread explicit OUTPUT weights into the hierarchy.
        let mut vol_opts = opts.volume.clone();
        for (&node, &w) in &dag_map.output_weights {
            vol_opts
                .output_weights
                .insert(node, aqua_rational::Ratio::from_int(w as i128));
        }
        let outcome = aqua_volume::manage_volumes(&dag, machine, &vol_opts);
        match outcome {
            ManagedOutcome::ResourcesExceeded { reason, .. } => {
                return Err(CompileError::ResourcesExceeded(reason));
            }
            ManagedOutcome::Solved { ref dag, .. }
            | ManagedOutcome::NeedsRegeneration { ref dag, .. } => {
                let d = dag.clone();
                (d, VolumeResolution::Static(outcome))
            }
        }
    };

    vol_span.end();

    // --- Code generation ---
    let (program, volume_plan) = {
        let _span = obs.span("compile.codegen");
        codegen::emit(&flat.name, &final_dag, &dag_map, machine, &resolution)?
    };

    Ok(CompileOutput {
        flat,
        dag: final_dag,
        dag_map,
        program,
        volume_plan,
        resolution,
        instr_dag: OnceLock::new(),
    })
}
