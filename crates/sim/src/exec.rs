//! The AIS instruction executor.
//!
//! Runs a compiled program against [`crate::state::ChipState`],
//! resolving every transfer volume from the compiler's plan. For
//! partitioned (unknown-volume) assays, the executor lazily dispenses
//! each partition the first time one of its volumes is needed, feeding
//! separation measurements recorded during execution back into the
//! run-time dispenser (§3.5) — the work that runs on the fast
//! electronic controller on real hardware.
//!
//! The executor can also inject hardware faults from a seeded
//! [`crate::fault::FaultPlan`] and, with [`ExecConfig::recover`] on,
//! walk the Fig. 6 hierarchy *at run time* to close the resulting
//! shortfalls: re-dispense from source slack, regenerate the starved
//! fluid's backward slice, and re-solve volumes with the observed
//! availability as constraints.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use aqua_ais::{DryReg, Instr, Picoliters, SepPort, WetLoc};
use aqua_compiler::{CompileOutput, PlannedVolume, VolumeResolution};
use aqua_dag::{EdgeId, NodeId, Ratio};
use aqua_volume::dagsolve::VolumeAssignment;
use aqua_volume::unknown::PartitionError;
use aqua_volume::{Machine, ManagedOutcome};

use crate::fault::{
    FaultCounters, FaultKind, FaultPlan, FaultState, RecoveryCounters, RecoveryTier,
};
use crate::sched::{rename_loc, JobSchedule, Rename, Schedule};
use crate::state::{ChipState, Contents, FluidId};
use crate::trace::{TraceEvent, TraceKind};

/// Configuration of one execution.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Yield model for unknown-volume separations: the fraction of the
    /// input that comes out as effluent (default 1/2).
    pub unknown_separation_yield: f64,
    /// Shortfall tolerance in least counts: a metered move finding
    /// slightly less fluid than planned (rounding drift) is clamped
    /// rather than flagged (default 1 least count).
    pub deficit_tolerance_lc: u64,
    /// Record a per-instruction [`crate::trace::TraceEvent`] stream in
    /// the report (off by default; traces of large assays are big).
    pub record_trace: bool,
    /// Hardware faults to inject, drawn from a seeded PRNG stream
    /// (none by default — the default config is bit-identical to the
    /// pre-fault executor).
    pub faults: FaultPlan,
    /// Walk the run-time recovery ladder (re-dispense → regenerate →
    /// re-solve) on shortfalls and overflows instead of only reporting
    /// violations. Off by default: the unmanaged baseline and the
    /// violation-reporting tests rely on failures staying visible.
    pub recover: bool,
    /// Tier-1 budget: top-up dispenses attempted per shortfall before
    /// escalating (default 2).
    pub max_redispense: u32,
    /// Observability handle: the `sim.run` span, per-instruction
    /// `sim.instr_ns` histogram, and `sim.instructions` / `sim.faults` /
    /// `sim.recover.*` counters flow through here. The default
    /// [`aqua_obs::Obs::off`] handle reduces every probe to one branch.
    pub obs: aqua_obs::Obs,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            unknown_separation_yield: 0.5,
            deficit_tolerance_lc: 1,
            record_trace: false,
            faults: FaultPlan::none(),
            recover: false,
            max_redispense: 2,
            obs: aqua_obs::Obs::off(),
        }
    }
}

/// One recorded sensor reading.
#[derive(Debug, Clone)]
pub struct SenseResult {
    /// The result-slot label (`Result[3]`).
    pub target: String,
    /// Volume sensed, in picoliters.
    pub volume_pl: Picoliters,
    /// Composition of the sensed fluid: picoliters per input fluid,
    /// sorted by id in the run's fluid table. Name it through the
    /// report's [`ExecReport::final_state`]
    /// ([`ChipState::named`], [`ChipState::fluid_name`]).
    pub composition: Vec<(FluidId, f64)>,
    #[cfg(test)]
    model: HashMap<String, f64>,
}

/// A constraint violation observed during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A metered transfer below the least count.
    MeterUnderflow {
        /// Instruction index.
        instr: usize,
        /// Requested volume (pl).
        requested_pl: Picoliters,
    },
    /// A location exceeded the machine capacity.
    Overflow {
        /// Instruction index.
        instr: usize,
        /// The overfull location.
        loc: WetLoc,
        /// Volume after the transfer (pl).
        volume_pl: Picoliters,
    },
    /// A transfer found materially less fluid than planned — the
    /// condition that forces regeneration at run time.
    Deficit {
        /// Instruction index.
        instr: usize,
        /// The drained location.
        loc: WetLoc,
        /// Requested volume (pl).
        requested_pl: Picoliters,
        /// Actually available volume (pl).
        available_pl: Picoliters,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MeterUnderflow {
                instr,
                requested_pl,
            } => write!(
                f,
                "instruction {instr}: metered transfer of {requested_pl} pl is below the \
                 least count"
            ),
            Violation::Overflow {
                instr,
                loc,
                volume_pl,
            } => write!(f, "instruction {instr}: {loc} overflows at {volume_pl} pl"),
            Violation::Deficit {
                instr,
                loc,
                requested_pl,
                available_pl,
            } => write!(
                f,
                "instruction {instr}: {loc} holds {available_pl} pl but {requested_pl} pl \
                 were requested (regeneration needed)"
            ),
        }
    }
}

/// Execution report.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Sensor readings in program order.
    pub sense_results: Vec<SenseResult>,
    /// All violations (empty = clean run).
    pub violations: Vec<Violation>,
    /// Wet instructions executed.
    pub wet_instructions: u64,
    /// Fluid collected at output ports (pl per port).
    pub collected_pl: HashMap<u32, Picoliters>,
    /// The chip's contents when the program finished (parked products,
    /// unused leftovers), and the run's fluid table.
    pub final_state: ChipState,
    /// Dry (controller) registers after execution. `sense` writes the
    /// reading into its destination register (modeled as the sensed
    /// volume in picoliters); `dry-*` ALU ops compute over them.
    pub dry_registers: HashMap<String, i64>,
    /// Total wall time of the wet datapath in seconds (mix/incubate/
    /// separate/concentrate durations; transfers are counted as 1 s
    /// each) — the denominator of the paper's "run-time volume
    /// computation is negligible" argument.
    pub wet_seconds: u64,
    /// Per-instruction trace (only when [`ExecConfig::record_trace`]).
    pub trace: Vec<crate::trace::TraceEvent>,
    /// Faults injected during the run, by kind.
    pub faults: FaultCounters,
    /// Recovery actions taken, by ladder tier.
    pub recovery: RecoveryCounters,
    /// Total fluid drawn onto the chip through input ports, in pl (the
    /// fault-overhead numerator; with `extra_volume_pl` it closes the
    /// conservation identity against outputs + sensed + flushed +
    /// on-chip + residue).
    pub input_pl: Picoliters,
    /// Matrix/pusher volume flushed through separator columns, in pl.
    pub flushed_pl: Picoliters,
    /// Extra wet seconds spent on recovery, per instruction index:
    /// one second per top-up dispense and per overflow trim, the
    /// backward-slice step count per regeneration, zero for electronic
    /// re-solves. [`crate::sched::Schedule::splice`] consumes this map
    /// to re-time a schedule around observed repairs.
    pub repair_s: HashMap<usize, u64>,
}

/// Result of a scheduled execution ([`Executor::run_scheduled`]).
#[derive(Debug)]
pub struct ScheduledRun {
    /// The replay's report — bit-identical to sequential execution.
    pub report: ExecReport,
    /// The schedule's fault-free makespan, seconds.
    pub makespan_s: u64,
    /// Makespan after splicing the observed repairs back in, seconds.
    pub realized_makespan_s: u64,
    /// Instructions whose start time moved in the splice — faults
    /// quiesce only their dependence/occupancy cone.
    pub shifted_instrs: u64,
}

/// Execution error (structural problems; constraint violations are
/// reported in [`ExecReport::violations`] instead).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ExecError {
    /// The program references state the plan cannot resolve (compiler
    /// bug or hand-built program).
    Structural(String),
    /// The §3.5 run-time dispenser could not solve a partition's
    /// volumes (typed so the recovery engine and tests can match on
    /// the underlying [`PartitionError`]).
    RuntimeDispense {
        /// Instruction whose volume resolution triggered dispensing.
        instr: usize,
        /// The partition that failed.
        partition: usize,
        /// Why dispensing failed.
        error: PartitionError,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Structural(msg) => write!(f, "execution failed: {msg}"),
            ExecError::RuntimeDispense {
                instr,
                partition,
                error,
            } => write!(
                f,
                "instruction {instr}: run-time dispensing of partition {partition} \
                 failed: {error}"
            ),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Structural(_) => None,
            ExecError::RuntimeDispense { error, .. } => Some(error),
        }
    }
}

/// All mutable state of one run, bundled so the executor's helpers can
/// borrow its fields disjointly.
struct RunState<'a> {
    out: &'a CompileOutput,
    chip: ChipState,
    report: ExecReport,
    /// Dry registers, borrowed from the program; copied into the
    /// report at the end. Register names come from the assay text, so
    /// they keep the default (flooding-resistant) hasher.
    registers: HashMap<&'a DryReg, i64>,
    /// Lazy per-partition dispensing state (§3.5).
    dispensed: Vec<Option<VolumeAssignment>>,
    measurements: HashMap<(usize, NodeId), Ratio>,
    faults: FaultState,
    /// Edge volumes installed by a tier-3 whole-DAG replan, in pl.
    replanned_edges: HashMap<EdgeId, Picoliters>,
    /// Cumulative unrecovered shortfall per starved source node, in pl
    /// (the tier-3 observation map).
    node_shortfall_pl: HashMap<NodeId, Picoliters>,
    /// Regenerations per source node (tier-3 escalation trigger).
    node_regens: HashMap<NodeId, u64>,
    lc_pl: Picoliters,
    cap_pl: Picoliters,
}

/// The AIS executor. Create one per run.
#[derive(Debug)]
pub struct Executor {
    machine: Machine,
    config: ExecConfig,
}

impl Executor {
    /// Creates an executor for a machine.
    pub fn new(machine: &Machine, config: ExecConfig) -> Executor {
        Executor {
            machine: machine.clone(),
            config,
        }
    }

    /// Runs a compiled assay to completion.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program references volumes the plan
    /// cannot resolve (compiler bug) — never for fluidic constraint
    /// violations, which are collected in the report.
    pub fn run(&self, out: &CompileOutput) -> Result<ExecReport, ExecError> {
        self.run_with(out, None)
    }

    /// Runs a compiled assay under a plan schedule: the replay order is
    /// still original program order (so faults, recovery, sense sets,
    /// and conservation are bit-identical to [`Executor::run`]), but
    /// every instruction executes at its renamed physical location and
    /// scheduled storage spills relocate parked products. Afterwards,
    /// the repairs observed during the replay are spliced back into the
    /// schedule to re-time it.
    ///
    /// Uses the schedule's first job — for multi-instance schedules,
    /// replay each instance with [`Executor::run_job`].
    ///
    /// # Errors
    ///
    /// As [`Executor::run`].
    pub fn run_scheduled(
        &self,
        out: &CompileOutput,
        schedule: &Schedule,
    ) -> Result<ScheduledRun, ExecError> {
        let report = self.run_with(out, schedule.jobs.first())?;
        let splice = schedule.splice(&[&report.repair_s]);
        Ok(ScheduledRun {
            report,
            makespan_s: schedule.makespan_s,
            realized_makespan_s: splice.makespan_s,
            shifted_instrs: splice.shifted,
        })
    }

    /// Replays one job (assay instance) of a multi-instance schedule.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`].
    pub fn run_job(&self, out: &CompileOutput, job: &JobSchedule) -> Result<ExecReport, ExecError> {
        self.run_with(out, Some(job))
    }

    /// The state a run of `out` starts from: an empty chip, no faults
    /// drawn yet.
    fn start<'a>(&self, out: &'a CompileOutput) -> RunState<'a> {
        RunState {
            out,
            chip: ChipState::new(),
            report: ExecReport::default(),
            registers: HashMap::new(),
            dispensed: match &out.resolution {
                VolumeResolution::Partitioned(plan) => vec![None; plan.partitions.len()],
                _ => Vec::new(),
            },
            measurements: HashMap::new(),
            faults: FaultState::new(&self.config.faults),
            replanned_edges: HashMap::new(),
            node_shortfall_pl: HashMap::new(),
            node_regens: HashMap::new(),
            lc_pl: (self.machine.least_count_nl() * Ratio::from_int(1000)).round() as u64,
            cap_pl: (self.machine.max_capacity_nl() * Ratio::from_int(1000)).round() as u64,
        }
    }

    fn run_with(
        &self,
        out: &CompileOutput,
        sched: Option<&JobSchedule>,
    ) -> Result<ExecReport, ExecError> {
        let _run_span = self.config.obs.span("sim.run");
        let mut st = self.start(out);

        let mut spill_ptr = 0usize;
        for (idx, instr) in out.program.instrs().iter().enumerate() {
            // Scheduled relocations due before this instruction (stall
            // spills and leftover carries): unmetered moves of parked
            // fluid (no fault draw — the seeded per-dispense PRNG
            // stream stays untouched). Carries are zero-volume no-ops
            // unless a fault left a remainder at a metered full drain.
            if let Some(js) = sched {
                while let Some(sp) = js.spills.get(spill_ptr) {
                    if sp.before_instr as usize != idx {
                        break;
                    }
                    let parked = st.chip.take_all(sp.from);
                    st.chip.deposit(sp.to, parked);
                    spill_ptr += 1;
                }
            }
            // Operands execute at their scheduled physical homes.
            let renames: &[Rename] = sched.map_or(&[], |js| &js.renames[idx]);
            let at = |loc: WetLoc| rename_loc(renames, loc);
            // Controller-side (simulation) time per instruction — only
            // sampled when a sink is attached.
            let instr_start = self.config.obs.enabled().then(std::time::Instant::now);
            if instr.is_wet() {
                st.report.wet_instructions += 1;
                st.report.wet_seconds += instr.wet_duration_s();
            }
            match instr {
                Instr::Comment(_) => {}
                Instr::Dry { op, dst, src } => {
                    let rhs = match src {
                        aqua_ais::DrySrc::Imm(v) => *v,
                        aqua_ais::DrySrc::Reg(r) => st.registers.get(r).copied().unwrap_or(0),
                    };
                    let cur = st.registers.get(dst).copied().unwrap_or(0);
                    let value = match op {
                        aqua_ais::DryOp::Mov => rhs,
                        aqua_ais::DryOp::Add => cur.wrapping_add(rhs),
                        aqua_ais::DryOp::Sub => cur.wrapping_sub(rhs),
                        aqua_ais::DryOp::Mul => cur.wrapping_mul(rhs),
                    };
                    st.registers.insert(dst, value);
                }
                Instr::Input { dst, port } => {
                    self.exec_input(&mut st, idx, at(*dst), *port)?;
                }
                Instr::Output { port, src } => {
                    let port_idx = match port {
                        WetLoc::OutputPort(p) => *p,
                        other => {
                            return Err(ExecError::Structural(format!("bad output port {other}")))
                        }
                    };
                    let src = at(*src);
                    let portion = self.metered_take(&mut st, idx, src, None)?;
                    *st.report.collected_pl.entry(port_idx).or_insert(0) += portion.volume_pl;
                    st.chip.clear_residue(src, st.lc_pl);
                }
                Instr::Move { dst, src, .. } | Instr::MoveAbs { dst, src, .. } => {
                    // `move-abs` carries its volume inline; it wins over
                    // the (usually absent) plan entry.
                    let inline = match instr {
                        Instr::MoveAbs { vol, .. } => Some(*vol),
                        _ => None,
                    };
                    let (src, dst) = (at(*src), at(*dst));
                    let portion = self.metered_take(&mut st, idx, src, inline)?;
                    if self.config.record_trace {
                        st.report.trace.push(TraceEvent {
                            instr: idx,
                            what: TraceKind::Transfer {
                                from: src,
                                to: dst,
                                volume_pl: portion.volume_pl,
                            },
                        });
                    }
                    self.deposit_checked(&mut st, idx, dst, portion);
                    st.chip.clear_residue(src, st.lc_pl);
                }
                Instr::Mix { unit, .. }
                | Instr::Incubate { unit, .. }
                | Instr::Concentrate { unit, .. }
                | Instr::Separate { unit, .. } => {
                    let unit = at(*unit);
                    if self.config.record_trace {
                        st.report.trace.push(TraceEvent {
                            instr: idx,
                            what: TraceKind::Operate {
                                unit,
                                volume_pl: st.chip.volume(unit),
                            },
                        });
                    }
                    // Mixing, incubating and concentrating are
                    // volume-neutral; a separation splits its input.
                    if matches!(instr, Instr::Separate { .. }) {
                        self.separate(&mut st, idx, unit)?;
                    }
                }
                Instr::Sense { unit, dst, .. } => {
                    let contents = st.chip.take_all(at(*unit));
                    // The "reading" written to the controller register is
                    // modeled as the sensed volume in picoliters.
                    st.registers.insert(dst, contents.volume_pl as i64);
                    st.report.sense_results.push(SenseResult {
                        target: dst.0.clone(),
                        volume_pl: contents.volume_pl,
                        composition: contents.composition,
                        #[cfg(test)]
                        model: contents.model,
                    });
                }
            }
            if let Some(t0) = instr_start {
                self.config.obs.add("sim.instructions", 1);
                self.config
                    .obs
                    .record("sim.instr_ns", t0.elapsed().as_nanos() as u64);
            }
        }
        st.report.faults = st.faults.counters;
        st.report.dry_registers = (st.registers.into_iter())
            .map(|(reg, v)| (reg.0.clone(), v))
            .collect();
        st.report.final_state = st.chip;
        self.fold_obs_counters(&st.report);
        Ok(st.report)
    }

    /// Folds the run's fault and per-tier recovery totals into the
    /// observability sink (no-op when no sink is attached).
    fn fold_obs_counters(&self, report: &ExecReport) {
        let obs = &self.config.obs;
        if !obs.enabled() {
            return;
        }
        obs.add("sim.faults", report.faults.total());
        let rec = &report.recovery;
        obs.add("sim.recover.redispense", rec.redispense);
        obs.add("sim.recover.regenerate", rec.regenerate);
        obs.add("sim.recover.replan", rec.replan);
        obs.add("sim.recover.overflow_trims", rec.overflow_trims);
        obs.add("sim.recover.failures", rec.failures);
    }

    /// Executes an `input` load: the port supplies unlimited fluid, but
    /// the dispenser metering it onto the chip is fallible.
    fn exec_input(
        &self,
        st: &mut RunState,
        idx: usize,
        dst: WetLoc,
        port: WetLoc,
    ) -> Result<(), ExecError> {
        let WetLoc::InputPort(port_idx) = port else {
            return Err(ExecError::Structural(format!("bad input port {port}")));
        };
        let planned = match self.resolve(st, idx)? {
            Some(v) => v.min(st.cap_pl),
            None => st.cap_pl, // load to capacity
        };
        let (nominal, fault) = st.faults.on_dispense(planned, st.lc_pl);
        let mut amount = nominal.min(st.cap_pl);
        if let Some(kind) = fault {
            self.trace_fault(st, idx, kind, planned, amount);
            if self.config.recover {
                // Tier 1 for inputs: the port never runs dry, so top-ups
                // alone close the gap (unless they keep faulting too).
                let mut attempts = 0u32;
                while amount < planned && attempts < self.config.max_redispense {
                    attempts += 1;
                    let missing = planned - amount;
                    let (got, refault) = st.faults.on_dispense(missing, st.lc_pl);
                    let got = got.min(missing);
                    if let Some(kind) = refault {
                        self.trace_fault(st, idx, kind, missing, got);
                    }
                    if got > 0 {
                        amount += got;
                        st.report.recovery.redispense += 1;
                        self.add_repair(st, idx, 1);
                        self.trace_recovery(
                            st,
                            idx,
                            RecoveryTier::Redispense,
                            dst,
                            got,
                            amount >= planned,
                        );
                    }
                }
            }
        }
        st.report.input_pl += amount;
        let load = match st.out.volume_plan.port_fluids.get(&port_idx) {
            Some(name) => st.chip.load(name, amount),
            None => st.chip.load(&format!("ip{port_idx}"), amount),
        };
        self.deposit_checked(st, idx, dst, load);
        Ok(())
    }

    /// Splits the input at separator `unit` into its effluent (`out1`)
    /// and waste (`out2`) streams. The matrix and pusher loads are
    /// flushed through the column (they join neither stream in our
    /// volume model).
    fn separate(&self, st: &mut RunState, idx: usize, unit: WetLoc) -> Result<(), ExecError> {
        let WetLoc::Separator(n, _) = unit else {
            return Err(ExecError::Structural(format!("bad separator {unit}")));
        };
        let mut input = st.chip.take_all(unit);
        let matrix = st.chip.take_all(WetLoc::Separator(n, SepPort::Matrix));
        let pusher = st.chip.take_all(WetLoc::Separator(n, SepPort::Pusher));
        st.report.flushed_pl += matrix.volume_pl + pusher.volume_pl;
        let plan = &st.out.volume_plan;
        let fraction = (plan.separation_fractions.get(&idx).copied())
            .unwrap_or(self.config.unknown_separation_yield);
        let out_vol = ((input.volume_pl as f64) * fraction).round() as Picoliters;
        let effluent = input.split(out_vol.min(input.volume_pl));
        // Record the measurement for run-time dispensing — through the
        // (possibly noisy) volume sensor.
        if let Some(&key) = plan.unknown_separations.get(&idx) {
            let nl = Ratio::new(effluent.volume_pl as i128, 1000).unwrap_or(Ratio::ZERO);
            let (nl, fault) = st.faults.on_measurement(nl);
            if let Some(kind) = fault {
                let reading = (nl * Ratio::from_int(1000)).round().max(0) as u64;
                self.trace_fault(st, idx, kind, effluent.volume_pl, reading);
            }
            st.measurements.insert(key, nl);
        }
        st.chip
            .deposit(WetLoc::Separator(n, SepPort::Out1), effluent);
        st.chip.deposit(WetLoc::Separator(n, SepPort::Out2), input);
        Ok(())
    }

    /// Deposits at `dst`, handling capacity overflow: with recovery on,
    /// the excess is trimmed to the waste port (output port 1) instead
    /// of reported as a violation.
    fn deposit_checked(&self, st: &mut RunState, idx: usize, dst: WetLoc, portion: Contents) {
        let vol = st.chip.deposit(dst, portion);
        if vol <= st.cap_pl {
            return;
        }
        if self.config.recover {
            let excess = vol - st.cap_pl;
            let trimmed = st.chip.take(dst, excess);
            *st.report.collected_pl.entry(1).or_insert(0) += trimmed.volume_pl;
            st.report.recovery.overflow_trims += 1;
            self.add_repair(st, idx, 1);
            self.trace_recovery(st, idx, RecoveryTier::OverflowTrim, dst, excess, true);
        } else {
            st.report.violations.push(Violation::Overflow {
                instr: idx,
                loc: dst,
                volume_pl: vol,
            });
        }
    }

    /// Resolves the planned volume for an instruction (in pl).
    /// `None` = move everything.
    fn resolve(&self, st: &mut RunState, idx: usize) -> Result<Option<Picoliters>, ExecError> {
        let out = st.out;
        match out.volume_plan.get(idx) {
            None | Some(PlannedVolume::All) => Ok(None),
            Some(PlannedVolume::Static(v)) => {
                // A tier-3 replan overrides the compile-time volume.
                if !st.replanned_edges.is_empty() {
                    if let Some(edge) = out.volume_plan.instr_edges.get(&idx) {
                        if let Some(&pl) = st.replanned_edges.get(edge) {
                            return Ok(Some(pl));
                        }
                    }
                }
                Ok(Some(*v))
            }
            Some(PlannedVolume::Runtime { partition, edge }) => {
                let plan = match &out.resolution {
                    VolumeResolution::Partitioned(p) => p,
                    _ => {
                        return Err(ExecError::Structural(
                            "runtime volume without a partition plan".into(),
                        ))
                    }
                };
                if st.dispensed[*partition].is_none() {
                    // Dispense partitions up to this one: their runtime
                    // bindings refer to earlier partitions whose
                    // measurements/dispensations exist by program order.
                    let measurements = &st.measurements;
                    let results = plan
                        .dispense_upto(*partition, &self.machine, |pi, node| {
                            measurements.get(&(pi, node)).copied()
                        })
                        .map_err(|e| ExecError::RuntimeDispense {
                            instr: idx,
                            partition: *partition,
                            error: e,
                        })?;
                    for (i, r) in results.into_iter().enumerate() {
                        if st.dispensed[i].is_none() {
                            st.dispensed[i] = Some(r);
                        }
                    }
                }
                let assignment = st.dispensed[*partition]
                    .as_ref()
                    .ok_or_else(|| ExecError::Structural("partition not dispensed".into()))?;
                let nl = assignment.edge_volumes_nl[edge.index()];
                let lc = self.machine.least_count_nl();
                let rounded = Ratio::from_int((nl / lc).round()) * lc;
                let pl = (rounded * Ratio::from_int(1000)).round().max(0);
                Ok(Some(pl as Picoliters))
            }
        }
    }

    /// Pulls the planned amount (or everything) from `src`, injecting
    /// dispenser faults and — with [`ExecConfig::recover`] — walking
    /// the recovery ladder on a shortfall.
    fn metered_take(
        &self,
        st: &mut RunState,
        idx: usize,
        src: WetLoc,
        inline: Option<Picoliters>,
    ) -> Result<Contents, ExecError> {
        let resolved = match inline {
            Some(v) => Some(v),
            None => self.resolve(st, idx)?,
        };
        let Some(requested) = resolved else {
            return Ok(st.chip.take_all(src));
        };
        if requested < st.lc_pl {
            st.report.violations.push(Violation::MeterUnderflow {
                instr: idx,
                requested_pl: requested,
            });
        }
        // The dispenser hardware meters `nominal`, clamped to what the
        // source actually holds (over-metering drains the source's
        // slack; under-metering/transients leave fluid behind).
        let available = st.chip.volume(src);
        let (nominal, fault) = st.faults.on_dispense(requested, st.lc_pl);
        if let Some(kind) = fault {
            self.trace_fault(st, idx, kind, requested, nominal.min(available));
        }
        let take_now = nominal.min(available);
        let gathered = if take_now > 0 {
            st.chip.take(src, take_now)
        } else {
            Contents::default()
        };
        let tolerance = self.config.deficit_tolerance_lc.saturating_mul(st.lc_pl);
        let shortfall = requested.saturating_sub(gathered.volume_pl);
        if shortfall == 0 || (shortfall <= tolerance && fault.is_none()) {
            return Ok(gathered);
        }
        if !self.config.recover {
            if shortfall > tolerance {
                st.report.violations.push(Violation::Deficit {
                    instr: idx,
                    loc: src,
                    requested_pl: requested,
                    available_pl: gathered.volume_pl,
                });
            }
            return Ok(gathered);
        }
        self.recover_shortfall(st, idx, src, requested, gathered)
    }

    /// The run-time Fig. 6 ladder: tier 1 re-dispenses from the slack
    /// still at the source; tier 2 regenerates the starved fluid's
    /// backward slice; tier 3 re-solves volumes with the observed
    /// availability as constraints (partition rescale for §3.5 plans,
    /// whole-DAG capped DAGSolve for static plans).
    fn recover_shortfall(
        &self,
        st: &mut RunState,
        idx: usize,
        src: WetLoc,
        requested: Picoliters,
        mut gathered: Contents,
    ) -> Result<Contents, ExecError> {
        let tolerance = self.config.deficit_tolerance_lc.saturating_mul(st.lc_pl);
        // --- Tier 1: re-dispense what the source still holds. ---
        let mut attempts = 0u32;
        while requested > gathered.volume_pl && attempts < self.config.max_redispense {
            attempts += 1;
            let missing = requested - gathered.volume_pl;
            let held = st.chip.volume(src);
            if held == 0 {
                break;
            }
            let (nominal, refault) = st.faults.on_dispense(missing, st.lc_pl);
            if let Some(kind) = refault {
                self.trace_fault(st, idx, kind, missing, nominal.min(held));
            }
            let take = nominal.min(held).min(missing);
            if take == 0 {
                continue;
            }
            gathered.merge(st.chip.take(src, take));
            st.report.recovery.redispense += 1;
            self.add_repair(st, idx, 1);
            self.trace_recovery(
                st,
                idx,
                RecoveryTier::Redispense,
                src,
                take,
                requested.saturating_sub(gathered.volume_pl) <= tolerance,
            );
        }
        if requested.saturating_sub(gathered.volume_pl) <= tolerance {
            return Ok(gathered);
        }
        // --- Tier 3 for §3.5 run-time plans: the partition's solved
        // volumes overestimate availability — rescale the assignment to
        // what was actually delivered, so every future draw from this
        // partition keeps its ratios against the shrunk reality. ---
        if let Some(PlannedVolume::Runtime { partition, .. }) = st.out.volume_plan.get(idx) {
            let partition = *partition;
            let out = st.out;
            if let VolumeResolution::Partitioned(pplan) = &out.resolution {
                if gathered.volume_pl > 0 {
                    if let Some(old) = st.dispensed[partition].take() {
                        let factor = Ratio::new(gathered.volume_pl as i128, requested as i128)
                            .unwrap_or(Ratio::ONE);
                        let part = &pplan.partitions[partition];
                        st.dispensed[partition] =
                            Some(old.rescaled(&part.dag, &self.machine, factor));
                        st.report.recovery.replan += 1;
                        self.trace_recovery(
                            st,
                            idx,
                            RecoveryTier::Replan,
                            src,
                            gathered.volume_pl,
                            true,
                        );
                        return Ok(gathered);
                    }
                }
            }
        }
        // --- Tier 2: regenerate the starved fluid (re-execute its
        // backward slice; modeled as synthesizing the missing volume
        // with the product's composition). ---
        let out = st.out;
        if let Some(&node) = out.volume_plan.instr_sources.get(&idx) {
            let missing = requested - gathered.volume_pl;
            *st.node_shortfall_pl.entry(node).or_insert(0) += missing;
            // Regeneration produces metered amounts: round up to a
            // least-count multiple.
            let step = st.lc_pl.max(1);
            let amount = missing.div_ceil(step) * step;
            let (comp, slice_steps) =
                crate::regen::slice_makeup(&out.dag, node, |name| st.chip.fluid(name));
            let refill = if comp.is_empty() {
                st.chip.load(&out.dag.node(node).name, amount)
            } else {
                st.chip.mixture(comp, amount)
            };
            st.chip.deposit(src, refill);
            st.report.recovery.regenerate += 1;
            st.report.recovery.regen_steps += slice_steps;
            // Re-executing the backward slice costs wet time in
            // proportion to its length.
            self.add_repair(st, idx, slice_steps);
            st.report.recovery.extra_volume_pl += amount;
            let regens = {
                let r = st.node_regens.entry(node).or_insert(0);
                *r += 1;
                *r
            };
            self.trace_recovery(st, idx, RecoveryTier::Regenerate, src, amount, true);
            let refill_take = (requested - gathered.volume_pl).min(st.chip.volume(src));
            if refill_take > 0 {
                gathered.merge(st.chip.take(src, refill_take));
            }
            // --- Tier 3 for static plans: repeated starvation of the
            // same fluid means the compile-time plan overestimates what
            // the faulty hardware delivers. Re-solve the whole DAG with
            // the observed availability as production caps and shrink
            // every future draw proportionally. ---
            if regens >= 2 && st.replanned_edges.is_empty() {
                self.replan_static(st, idx, src);
            }
        }
        let final_short = requested.saturating_sub(gathered.volume_pl);
        if final_short > tolerance {
            st.report.recovery.failures += 1;
            st.report.violations.push(Violation::Deficit {
                instr: idx,
                loc: src,
                requested_pl: requested,
                available_pl: gathered.volume_pl,
            });
            self.trace_recovery(st, idx, RecoveryTier::Regenerate, src, 0, false);
        }
        Ok(gathered)
    }

    /// Tier-3 re-entry for static plans: capped DAGSolve under the
    /// plan's output weights, with the observed node availability
    /// (planned production minus cumulative shortfall) as constraints. On success, installs replacement
    /// volumes for every edge; future [`Executor::resolve`] calls use
    /// them via the plan's `instr_edges` map.
    fn replan_static(&self, st: &mut RunState, idx: usize, src: WetLoc) {
        let out = st.out;
        let VolumeResolution::Static(ManagedOutcome::Solved { volumes, .. }) = &out.resolution
        else {
            return;
        };
        if out.volume_plan.instr_edges.is_empty() {
            return;
        }
        let mut observed: HashMap<NodeId, Ratio> = HashMap::new();
        for (&node, &short_pl) in &st.node_shortfall_pl {
            let planned = volumes
                .node_volumes_nl
                .get(node.index())
                .copied()
                .unwrap_or(Ratio::ZERO);
            let short_nl = Ratio::new(short_pl as i128, 1000).unwrap_or(Ratio::ZERO);
            observed.insert(node, (planned - short_nl).max(Ratio::ZERO));
        }
        let weights: HashMap<NodeId, Ratio> = out
            .dag_map
            .output_weights
            .iter()
            .map(|(&node, &w)| (node, Ratio::from_int(w as i128)))
            .collect();
        let outcome =
            aqua_volume::replan_with_observations(&out.dag, &self.machine, &weights, &observed);
        if let ManagedOutcome::Solved { volumes: v, .. } = outcome {
            let lc = self.machine.least_count_nl();
            st.replanned_edges = out
                .dag
                .edge_ids()
                .map(|e| {
                    let nl = v.edge_volumes_nl[e.index()];
                    let rounded = Ratio::from_int((nl / lc).round()) * lc;
                    (
                        e,
                        (rounded * Ratio::from_int(1000)).round().max(0) as Picoliters,
                    )
                })
                .collect();
            st.report.recovery.replan += 1;
            self.trace_recovery(st, idx, RecoveryTier::Replan, src, 0, true);
        }
    }

    /// Charges `seconds` of wet repair time to an instruction — the
    /// currency [`crate::sched::Schedule::splice`] re-times with.
    fn add_repair(&self, st: &mut RunState, idx: usize, seconds: u64) {
        if seconds == 0 {
            return;
        }
        *st.report.repair_s.entry(idx).or_insert(0) += seconds;
        st.report.recovery.repair_s += seconds;
    }

    fn trace_fault(
        &self,
        st: &mut RunState,
        idx: usize,
        kind: FaultKind,
        requested_pl: Picoliters,
        delivered_pl: Picoliters,
    ) {
        if self.config.record_trace {
            st.report.trace.push(TraceEvent {
                instr: idx,
                what: TraceKind::Fault {
                    kind,
                    requested_pl,
                    delivered_pl,
                },
            });
        }
    }

    fn trace_recovery(
        &self,
        st: &mut RunState,
        idx: usize,
        tier: RecoveryTier,
        loc: WetLoc,
        volume_pl: Picoliters,
        ok: bool,
    ) {
        if self.config.record_trace {
            st.report.trace.push(TraceEvent {
                instr: idx,
                what: TraceKind::Recovery {
                    tier,
                    loc,
                    volume_pl,
                    ok,
                },
            });
        }
    }
}

impl ExecReport {
    /// The exact conservation identity: fluid in (inputs + regenerated
    /// extra) minus fluid accounted for (collected + sensed + flushed +
    /// still on chip + channel residue). Zero for every run — faulty or
    /// not — because every picoliter is tracked as an integer.
    pub fn conservation_delta_pl(&self) -> i128 {
        let inflow = self.input_pl as i128 + self.recovery.extra_volume_pl as i128;
        let collected: i128 = self.collected_pl.values().map(|&v| v as i128).sum();
        let sensed: i128 = self.sense_results.iter().map(|s| s.volume_pl as i128).sum();
        let outflow = collected
            + sensed
            + self.flushed_pl as i128
            + self.final_state.total_volume_pl() as i128
            + self.final_state.residue_pl as i128;
        inflow - outflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_compiler::{compile, CompileOptions};

    fn run(src: &str) -> ExecReport {
        let machine = Machine::paper_default();
        let out = compile(src, &machine, &CompileOptions::default()).unwrap();
        Executor::new(&machine, ExecConfig::default())
            .run(&out)
            .unwrap()
    }

    #[test]
    fn simple_mix_senses_correct_ratio() {
        let report = run("
ASSAY t START
fluid A, B;
MIX A AND B IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO R;
END");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let comp = report
            .final_state
            .named(&report.sense_results[0].composition);
        let ratio = comp["B"] / comp["A"];
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn glucose_executes_cleanly_with_dagsolve_volumes() {
        let report = run("
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
END");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.sense_results.len(), 5);
        // Each sensed mixture hits its specified ratio within rounding
        // (instructions execute in topological, not source, order — find
        // readings by their result slot).
        for (slot, want) in [(1, 1.0), (2, 2.0), (3, 4.0), (4, 8.0)] {
            let s = report
                .sense_results
                .iter()
                .find(|s| s.target == format!("Result[{slot}]"))
                .expect("slot sensed");
            let comp = report.final_state.named(&s.composition);
            let r = comp["Reagent"] / comp["Glucose"];
            assert!((r - want).abs() / want < 0.02, "ratio {r} vs {want}");
        }
    }

    #[test]
    fn chained_incubate_preserves_volume() {
        let report = run("
ASSAY t START
fluid A, B;
MIX A AND B FOR 10;
INCUBATE it AT 37 FOR 300;
SENSE OPTICAL it INTO R;
END");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.sense_results[0].volume_pl > 0);
    }

    #[test]
    fn known_fraction_separation_scales_volume() {
        let report = run("
ASSAY t START
fluid A, B, s, m, buf, eff, waste;
s = MIX A AND B FOR 30;
LCSEPARATE s MATRIX m USING buf FOR 30 INTO eff AND waste YIELD 1/4;
SENSE OPTICAL eff INTO R;
END");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // The separator input occupies up to 100 nl; effluent is 1/4.
        let sensed = report.sense_results[0].volume_pl;
        assert!(sensed > 0);
        // Input was driven to the capacity 100 nl => effluent 25 nl.
        assert_eq!(sensed, 25_000);
    }

    #[test]
    fn unknown_separation_flows_through_runtime_dispenser() {
        let report = run("
ASSAY t START
fluid A, B, s, m, buf, eff, waste;
s = MIX A AND B FOR 30;
SEPARATE s MATRIX m USING buf FOR 30 INTO eff AND waste;
MIX eff AND A IN RATIOS 1 : 1 FOR 30;
SENSE OPTICAL it INTO R;
END");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let s = &report.sense_results[0];
        assert!(s.volume_pl > 0);
        // The final 1:1 mix: half direct A, half effluent (itself 1/2 A
        // + 1/2 B) => A:B = 3:1.
        let comp = report.final_state.named(&s.composition);
        let r = comp["A"] / comp["B"];
        assert!((r - 3.0).abs() < 0.05, "A:B = {r}");
    }

    #[test]
    fn no_volume_management_runs_out_of_fluid() {
        // Baseline mode: every use takes everything, so the second use
        // of A finds an empty reservoir -> deficit/empty sense.
        let machine = Machine::paper_default();
        let out = compile(
            "
ASSAY t START
fluid A, B, C;
MIX A AND B FOR 10;
SENSE OPTICAL it INTO R1;
MIX A AND C FOR 10;
SENSE OPTICAL it INTO R2;
END",
            &machine,
            &CompileOptions {
                skip_volume_management: true,
                ..Default::default()
            },
        )
        .unwrap();
        let report = Executor::new(&machine, ExecConfig::default())
            .run(&out)
            .unwrap();
        // The second mixture is missing its A component entirely.
        let second = report
            .final_state
            .named(&report.sense_results[1].composition);
        let a_part = second.get("A").copied().unwrap_or(0.0);
        assert!(a_part < 1e-9, "A unexpectedly present: {a_part}");
    }

    #[test]
    fn runtime_dispense_failure_is_typed() {
        // Sever the sensor feed of an unknown-volume assay: the lazy
        // dispenser must fail with a typed, matchable error — not a
        // panic and not a formatted string.
        let machine = Machine::paper_default();
        let mut out = compile(
            "
ASSAY t START
fluid A, B, s, m, buf, eff, waste;
s = MIX A AND B FOR 30;
SEPARATE s MATRIX m USING buf FOR 30 INTO eff AND waste;
MIX eff AND A IN RATIOS 1 : 1 FOR 30;
SENSE OPTICAL it INTO R;
END",
            &machine,
            &CompileOptions::default(),
        )
        .unwrap();
        out.volume_plan.unknown_separations.clear();
        let err = Executor::new(&machine, ExecConfig::default())
            .run(&out)
            .unwrap_err();
        match err {
            ExecError::RuntimeDispense {
                error: PartitionError::MissingMeasurement { .. },
                ..
            } => {}
            other => panic!("expected typed runtime-dispense error, got {other}"),
        }
    }

    #[test]
    fn clean_runs_conserve_volume_exactly() {
        for src in [
            "
ASSAY t START
fluid A, B;
MIX A AND B IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO R;
END",
            "
ASSAY t START
fluid A, B, s, m, buf, eff, waste;
s = MIX A AND B FOR 30;
LCSEPARATE s MATRIX m USING buf FOR 30 INTO eff AND waste YIELD 1/4;
SENSE OPTICAL eff INTO R;
END",
        ] {
            let report = run(src);
            assert_eq!(report.conservation_delta_pl(), 0, "assay: {src}");
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{ScriptedFault, ScriptedKind};
    use aqua_compiler::{compile, CompileOptions};

    const TWO_USES: &str = "
ASSAY t START
fluid A, B, premix;
premix = MIX A AND B FOR 5;
MIX premix AND A IN RATIOS 1 : 1 FOR 5;
SENSE OPTICAL it INTO R1;
MIX premix AND B IN RATIOS 1 : 2 FOR 5;
SENSE OPTICAL it INTO R2;
END";

    fn run_with(src: &str, config: ExecConfig) -> ExecReport {
        let machine = Machine::paper_default();
        let out = compile(src, &machine, &CompileOptions::default()).unwrap();
        Executor::new(&machine, config).run(&out).unwrap()
    }

    #[test]
    fn transient_fault_recovers_at_tier_one() {
        // A transient failure leaves the fluid at the source, so one
        // top-up closes the shortfall with no extra volume consumed.
        let config = ExecConfig {
            faults: FaultPlan::script(ScriptedFault {
                at: 3,
                kind: ScriptedKind::Transient,
            }),
            recover: true,
            ..ExecConfig::default()
        };
        let report = run_with(TWO_USES, config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.faults.transient, 1);
        assert!(report.recovery.redispense >= 1);
        assert_eq!(report.recovery.extra_volume_pl, 0);
        assert_eq!(report.conservation_delta_pl(), 0);
    }

    #[test]
    fn unrecovered_fault_reports_deficit() {
        // Same fault, recovery off: the shortfall surfaces as a typed
        // Deficit violation (never a silent wrong volume).
        let config = ExecConfig {
            faults: FaultPlan::script(ScriptedFault {
                at: 3,
                kind: ScriptedKind::Transient,
            }),
            recover: false,
            ..ExecConfig::default()
        };
        let report = run_with(TWO_USES, config);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Deficit { .. })),
            "{:?}",
            report.violations
        );
        assert_eq!(report.recovery.redispense, 0);
    }

    #[test]
    fn exhausted_source_regenerates_at_tier_two() {
        // Over-meter the shared premix's first draw hard enough to
        // drain its slack: the second draw finds too little, tier 1
        // cannot refill from an empty source, tier 2 synthesizes the
        // missing premix (counted as extra volume).
        let machine = Machine::paper_default();
        let out = compile(TWO_USES, &machine, &CompileOptions::default()).unwrap();
        // Find the premix draws: metered moves out of a reservoir after
        // the first mix. Scripting by dispense index: indices follow
        // execution order of metered dispenses (inputs + moves).
        let mut recovered = false;
        for at in 0..12u64 {
            let config = ExecConfig {
                faults: FaultPlan::script(ScriptedFault {
                    at,
                    kind: ScriptedKind::Meter { delta_lc: 40 },
                }),
                recover: true,
                ..ExecConfig::default()
            };
            let report = Executor::new(&machine, config).run(&out).unwrap();
            assert_eq!(report.conservation_delta_pl(), 0, "at={at}");
            if report.recovery.regenerate > 0 {
                recovered = true;
                assert!(report.recovery.regen_steps > 0);
                assert!(report.recovery.extra_volume_pl > 0);
                assert!(
                    report.violations.is_empty(),
                    "at={at}: {:?}",
                    report.violations
                );
            }
        }
        assert!(
            recovered,
            "no scripted over-meter ever forced a tier-2 regen"
        );
    }

    /// Tier 3 re-solves a static plan under the plan's own output
    /// weights: on a weighted assay, the replanned edge volumes are a
    /// capped DAGSolve under those weights, rounded to the least count,
    /// and differ from the unweighted solve.
    #[test]
    fn static_replan_keeps_the_plans_output_weights() {
        let machine = Machine::paper_default();
        let src = "
ASSAY w START
fluid A, B, C, heavy, light;
heavy = MIX A AND B IN RATIOS 1 : 2 FOR 10;
light = MIX A AND C IN RATIOS 1 : 3 FOR 10;
OUTPUT heavy WEIGHT 3;
OUTPUT light;
END";
        let out = compile(src, &machine, &CompileOptions::default()).unwrap();
        let VolumeResolution::Static(ManagedOutcome::Solved { volumes, .. }) = &out.resolution
        else {
            panic!("expected a static plan: {:?}", out.resolution);
        };
        let a = out.dag.find_node("A").unwrap();
        let executor = Executor::new(&machine, ExecConfig::default());
        let mut st = executor.start(&out);
        st.node_shortfall_pl.insert(a, 20_000);
        executor.replan_static(&mut st, 0, WetLoc::Reservoir(1));
        assert_eq!(st.report.recovery.replan, 1);

        let observed =
            HashMap::from([(a, volumes.node_volumes_nl[a.index()] - Ratio::from_int(20))]);
        let lc = machine.least_count_nl();
        let capped = |weights: &HashMap<NodeId, Ratio>| -> HashMap<EdgeId, Picoliters> {
            let sol = aqua_volume::dagsolve::solve_capped(&out.dag, &machine, weights, &observed)
                .unwrap();
            out.dag
                .edge_ids()
                .map(|e| {
                    let rounded =
                        Ratio::from_int((sol.edge_volumes_nl[e.index()] / lc).round()) * lc;
                    (e, (rounded * Ratio::from_int(1000)).round() as Picoliters)
                })
                .collect()
        };
        let weights: HashMap<NodeId, Ratio> = out
            .dag_map
            .output_weights
            .iter()
            .map(|(&node, &w)| (node, Ratio::from_int(w as i128)))
            .collect();
        assert!(weights.values().any(|&w| w == Ratio::from_int(3)));
        assert_eq!(st.replanned_edges, capped(&weights));
        assert_ne!(st.replanned_edges, capped(&HashMap::new()));
    }

    #[test]
    fn same_seed_reproduces_the_same_run() {
        let mk = || {
            run_with(
                TWO_USES,
                ExecConfig {
                    faults: FaultPlan::uniform(7, 0.15),
                    recover: true,
                    record_trace: true,
                    ..ExecConfig::default()
                },
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.violations, b.violations);
        let va: Vec<_> = a.sense_results.iter().map(|s| s.volume_pl).collect();
        let vb: Vec<_> = b.sense_results.iter().map(|s| s.volume_pl).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn fault_free_plan_is_identical_to_legacy_behavior() {
        // An inactive fault plan with recovery on must not change a
        // clean run at all (recovery only acts on shortfalls).
        let base = run_with(TWO_USES, ExecConfig::default());
        let rec = run_with(
            TWO_USES,
            ExecConfig {
                recover: true,
                ..ExecConfig::default()
            },
        );
        assert_eq!(base.violations, rec.violations);
        assert_eq!(base.faults.total(), 0);
        assert_eq!(rec.recovery.total_recovered(), 0);
        let va: Vec<_> = base.sense_results.iter().map(|s| s.volume_pl).collect();
        let vb: Vec<_> = rec.sense_results.iter().map(|s| s.volume_pl).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn sensor_fault_skews_runtime_dispensing_but_stays_typed() {
        // Perturb the §3.5 volume measurement: the run-time dispenser
        // plans against a wrong reading. The run must still complete
        // (possibly with recoveries), and the fault must be counted.
        let src = "
ASSAY t START
fluid A, B, s, m, buf, eff, waste;
s = MIX A AND B FOR 30;
SEPARATE s MATRIX m USING buf FOR 30 INTO eff AND waste;
MIX eff AND A IN RATIOS 1 : 1 FOR 30;
SENSE OPTICAL it INTO R;
END";
        let config = ExecConfig {
            faults: FaultPlan::script(ScriptedFault {
                at: 0,
                kind: ScriptedKind::Sensor { per_mille: 1500 },
            }),
            recover: true,
            ..ExecConfig::default()
        };
        let report = run_with(src, config);
        assert_eq!(report.faults.sensor, 1);
        assert_eq!(report.sense_results.len(), 1);
        assert_eq!(report.conservation_delta_pl(), 0);
    }

    /// Every reading of the six plans of the `exec` benchmark workload,
    /// fault free and at seeded 1% and 5% fault rates with recovery,
    /// sequential and under `plan_jobs`, named through its report's
    /// fluid table, equals the name-keyed model the test build carries
    /// through the same loads, splits and merges (`state::Contents`).
    #[test]
    fn readings_named_through_the_fluid_table_match_a_name_keyed_model() {
        use crate::sched::{plan_jobs, InstrDag, SchedOptions};
        use aqua_assays::{enzyme, figure2, glucose, glycomics};
        let paper = Machine::paper_default();
        let big = paper.clone().with_reservoirs(128).with_input_ports(64);
        let plans = [
            (figure2::SOURCE.to_owned(), &paper),
            (glucose::SOURCE.to_owned(), &paper),
            (glycomics::SOURCE.to_owned(), &paper),
            (enzyme::source_n(4), &paper),
            (enzyme::source_n(4), &big),
            (enzyme::source_n(6), &big),
        ];
        let mut rng = aqua_rational::rng::XorShift64Star::new(23);
        let mut readings = 0;
        for (src, machine) in plans {
            let out = compile(&src, machine, &CompileOptions::default()).unwrap();
            let dag = InstrDag::build(&out);
            let schedule = plan_jobs(&[&dag], machine, &SchedOptions::default());
            for rate in [0.0, 0.01, 0.05] {
                for _ in 0..3 {
                    let faults = if rate > 0.0 {
                        FaultPlan::uniform(rng.next_u64(), rate)
                    } else {
                        FaultPlan::none()
                    };
                    let exec = Executor::new(
                        machine,
                        ExecConfig {
                            faults,
                            recover: true,
                            ..ExecConfig::default()
                        },
                    );
                    let runs = [
                        exec.run(&out).unwrap(),
                        exec.run_job(&out, &schedule.jobs[0]).unwrap(),
                    ];
                    for report in &runs {
                        for s in &report.sense_results {
                            let named = report.final_state.named(&s.composition);
                            assert_eq!(named.len(), s.model.len(), "{}", s.target);
                            for (fluid, pl) in &s.model {
                                assert_eq!(named[fluid].to_bits(), pl.to_bits(), "{fluid}");
                            }
                            readings += 1;
                        }
                    }
                }
            }
        }
        assert!(readings > 2_000, "{readings} readings");
    }
}

#[cfg(test)]
mod dry_tests {
    use super::*;
    use aqua_ais::{DryOp, DrySrc, Instr};

    #[test]
    fn dry_alu_executes_on_the_controller() {
        // Hand-build a program with dry arithmetic (the enzyme codegen
        // style) and execute it directly.
        let machine = Machine::paper_default();
        let src = "
ASSAY t START
fluid A, B;
MIX A AND B FOR 10;
SENSE OPTICAL it INTO R0;
END";
        let mut out = aqua_compiler::compile(src, &machine, &Default::default()).unwrap();
        // Append: temp = 1; temp *= 10; temp -= 1  => 9.
        for (op, src_op) in [
            (DryOp::Mov, DrySrc::Imm(1)),
            (DryOp::Mul, DrySrc::Imm(10)),
            (DryOp::Sub, DrySrc::Imm(1)),
        ] {
            out.program.push(Instr::Dry {
                op,
                dst: "temp".into(),
                src: src_op,
            });
            out.volume_plan.entries.push(None);
        }
        out.program.push(Instr::Dry {
            op: DryOp::Mov,
            dst: "copy".into(),
            src: DrySrc::Reg("temp".into()),
        });
        out.volume_plan.entries.push(None);

        let report = Executor::new(&machine, ExecConfig::default())
            .run(&out)
            .unwrap();
        assert_eq!(report.dry_registers.get("temp"), Some(&9));
        assert_eq!(report.dry_registers.get("copy"), Some(&9));
        // Sense wrote its reading register too.
        assert!(report.dry_registers.contains_key("R0"));
        // Wet time dominates: the 10 s mix plus transfer seconds.
        assert!(report.wet_seconds >= 10);
    }
}

#[cfg(test)]
mod move_abs_tests {
    use super::*;
    use aqua_ais::Instr;

    #[test]
    fn move_abs_meters_its_inline_volume() {
        let machine = Machine::paper_default();
        let mut out = aqua_compiler::compile(
            "
ASSAY t START
fluid A, B;
MIX A AND B FOR 10;
SENSE OPTICAL it INTO R;
END",
            &machine,
            &Default::default(),
        )
        .unwrap();
        // Append: load C via input? Simpler: move-abs a slice of the
        // leftover A reservoir (inputs load exactly what is used, so
        // move from an input port-backed reservoir may be empty; use
        // the sensed path instead). Build a standalone program:
        let mut p = aqua_ais::Program::new("abs");
        p.push(Instr::Input {
            dst: aqua_ais::WetLoc::Reservoir(1),
            port: aqua_ais::WetLoc::InputPort(1),
        });
        p.push(Instr::MoveAbs {
            dst: aqua_ais::WetLoc::Reservoir(2),
            src: aqua_ais::WetLoc::Reservoir(1),
            vol: 12_300,
        });
        out.program = p;
        out.volume_plan.entries = vec![Some(aqua_compiler::PlannedVolume::All), None];
        out.volume_plan.port_fluids.insert(1, "A".into());
        let report = Executor::new(&machine, ExecConfig::default())
            .run(&out)
            .unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(
            report.final_state.volume(aqua_ais::WetLoc::Reservoir(2)),
            12_300
        );
        assert_eq!(
            report.final_state.volume(aqua_ais::WetLoc::Reservoir(1)),
            100_000 - 12_300
        );
    }
}
