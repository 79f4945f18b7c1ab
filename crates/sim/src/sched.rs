//! The chip-as-CPU plan scheduler: dependency-DAG list scheduling with
//! resource renaming.
//!
//! Codegen serializes every assay onto one virtual unit per class
//! (`mixer1`, `heater1`, `sensor2`, …), so an AIS program as emitted has
//! no instruction-level parallelism at all — exactly like scalar code
//! before register renaming. This module lifts a compiled program into
//! a dependency DAG, renames virtual unit *episodes* (occupancy
//! lifetimes) onto the machine's physical slot inventory
//! ([`crate::alloc::SlotPool`]), and list-schedules the result with
//! critical-path priorities and a makespan objective.
//!
//! # Determinism and differential safety
//!
//! The scheduled executor does **not** reorder execution: it replays
//! instructions in original program order with renamed locations, while
//! the cycle-accurate timing (starts, slot assignments, makespan) is
//! computed statically here and validated against the dependence and
//! occupancy constraints. Program-order replay keeps the seeded fault
//! stream ([`crate::fault::FaultState`] draws one PRNG event per
//! dispense in execution order), the recovery ladder, sense sets, and
//! the conservation identity *bit-identical* to the sequential
//! executor — the schedule proves the parallel makespan, the replay
//! proves the chemistry. Scheduling itself is single-threaded and
//! fully tie-broken (priority desc, job asc, instruction asc; lowest
//! free slot id), so the same input always yields the same schedule,
//! regardless of how many worker threads later execute it.
//!
//! # Episodes
//!
//! An episode of a virtual location starts at its first write and ends
//! at a *source-emptying* operation: a sense, a move/output whose plan
//! entry drains everything (`take_all`), or a source-level
//! "move everything" whose planned volume is metered. The metered case
//! can leave a faulted remainder behind; in sequential execution that
//! remainder would merge into the unit's next fluid, so the scheduler
//! gives every such unit a dedicated *carry home* reservoir and emits a
//! carry pair per handoff: the remainder moves out to the carry home
//! right after the closing drain and back into the next episode's
//! physical slot right before its first touch — both in program order,
//! reproducing the sequential merge exactly. On a fault-free run every
//! carry moves zero fluid, so the schedule's timing (which gives carry
//! pairs no edges) is exact for the fault-free plan; under faults the
//! splice re-times the affected cone. A mixer/heater/sensor episode the
//! program *abandons* (no emptying op ever follows — e.g. a partial
//! metered drain and then nothing) is closed at its final touch the
//! same metered way: holding the slot to the end of the schedule would
//! wall off the whole class once every physical unit hosts one such
//! episode. Separator episodes never close (the waste stream keeps the
//! unit occupied). When a unit's product merely waits for its consumer
//! (a *parked* episode), the scheduler may spill it to a free reservoir
//! slot to release the unit.

use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

use aqua_ais::{DryReg, DrySrc, Instr, ResourceClass, SepPort, WetLoc};
use aqua_compiler::{CompileOutput, PlannedVolume};
use aqua_volume::Machine;

use crate::alloc::{ClassPool, SlotPool, POOLED_CLASSES};
use crate::state::FastMap;

/// Options for schedule construction.
#[derive(Debug, Clone, Default)]
pub struct SchedOptions {
    /// Observability handle: `sim.sched.*` counters and the makespan /
    /// speedup / utilization histograms flow through here.
    pub obs: aqua_obs::Obs,
}

/// One occupancy lifetime of a virtual location.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Resource class of the location.
    pub class: ResourceClass,
    /// Virtual unit index in the program text.
    pub virt: u32,
    /// Program indices touching this episode, ascending.
    pub touches: Vec<u32>,
    /// Ended by a definitely-emptying op (closed episodes release
    /// their slot; open ones hold it to the end of the schedule).
    pub closed: bool,
    /// Closed by a *metered* full drain: the executor moves the planned
    /// volume, so a faulted remainder can stay behind and must be
    /// carried to the unit's next episode.
    pub metered_close: bool,
    /// The unit's immediately preceding episode, if any.
    pub prev: Option<u32>,
    /// Ordinal among same-class episodes, in first-touch order. The
    /// scheduler opens a class's episodes strictly in this order —
    /// out-of-order slot acquisition can deadlock against serialized
    /// episode chains (a later block holding the last slot while an
    /// earlier block, which the chain forces to run first, waits).
    pub class_ord: u32,
    /// Position in `touches` where a pure-drain suffix begins: from
    /// here on the episode is only ever a transfer source, so between
    /// `touches[spill_from - 1]` completing and `touches[spill_from]`
    /// issuing the fluid is parked and may be spilled to storage.
    pub spill_from: Option<usize>,
}

/// The dependency DAG of one compiled program, with everything the
/// list scheduler needs: durations, critical-path priorities, and the
/// episode structure. Building it is pure analysis — it can be shared
/// across any number of isomorphic assay instances.
#[derive(Debug, Clone)]
pub struct InstrDag {
    /// Instruction count (all instructions, wet and dry).
    pub len: usize,
    /// Dependence predecessors per instruction (deduplicated).
    pub preds: Csr<u32>,
    /// Dependence successors per instruction.
    pub succs: Csr<u32>,
    /// Simulated duration per instruction, seconds.
    pub dur_s: Vec<u64>,
    /// Critical-path-to-sink priority (includes own duration).
    pub priority: Vec<u64>,
    /// All episodes, in order of first touch.
    pub episodes: Vec<Episode>,
    /// Episodes touched per instruction (deduplicated, operand order).
    pub instr_eps: Csr<u32>,
    /// Units with at least one metered-close episode: each needs a
    /// dedicated carry-home reservoir so faulted leftovers survive the
    /// episode handoff (and so every closed episode leaves its slot
    /// replay-empty for reuse). Sorted.
    pub carry_units: Vec<(ResourceClass, u32)>,
    /// Sum of wet durations — the sequential executor's `wet_seconds`.
    pub sequential_s: u64,
    /// Longest dependence chain — the schedule's lower bound.
    pub critical_path_s: u64,
}

/// Per-node lists stored flat: node `i`'s items are
/// `items[head[i]..head[i + 1]]`, one allocation for every node.
#[derive(Debug, Clone, Default)]
pub struct Csr<T> {
    head: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Groups `(node, item)` pairs over `n` nodes, keeping each node's
    /// items in input order.
    fn grouped(n: usize, pairs: impl Iterator<Item = (u32, T)> + Clone) -> Csr<T> {
        let mut head = vec![0u32; n + 1];
        for (node, _) in pairs.clone() {
            head[node as usize + 1] += 1;
        }
        for i in 0..n {
            head[i + 1] += head[i];
        }
        let mut fill = head.clone();
        let mut items = vec![T::default(); head[n] as usize];
        for (node, item) in pairs {
            items[fill[node as usize] as usize] = item;
            fill[node as usize] += 1;
        }
        Csr { head, items }
    }
}

impl<T> std::ops::Index<usize> for Csr<T> {
    type Output = [T];
    fn index(&self, i: usize) -> &[T] {
        &self.items[self.head[i] as usize..self.head[i + 1] as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Effect {
    Write,
    Read,
    Operate,
    /// The source is done after this touch. `leftover: true` marks a
    /// metered full drain (planned volume), which can leave a faulted
    /// remainder behind; `false` marks an unmetered `take_all` that is
    /// guaranteed to empty the location.
    Empty {
        leftover: bool,
    },
}

/// The wet operands an instruction touches (a source, then a
/// destination), with what it does to each.
fn effects(instr: &Instr, plan: Option<&PlannedVolume>) -> [Option<(WetLoc, Effect)>; 2] {
    // The executor drains a source with an unmetered `take_all` only
    // when the plan says so (entry absent or `All`); a planned volume
    // is metered and can leave a faulted remainder. A source-level
    // "move everything" (no relative volume, or an output) still ends
    // the occupancy either way — any remainder is handed to the next
    // episode of the unit by a carry move (see the module docs).
    let drained = |src_all: bool| match plan {
        None | Some(PlannedVolume::All) => Effect::Empty { leftover: false },
        _ if src_all => Effect::Empty { leftover: true },
        _ => Effect::Read,
    };
    let pair = |a: (WetLoc, Effect), b: (WetLoc, Effect)| [Some(a), Some(b)];
    match instr {
        Instr::Input { dst, port } => pair((*port, Effect::Read), (*dst, Effect::Write)),
        Instr::Output { port, src } => pair((*src, drained(true)), (*port, Effect::Write)),
        Instr::Move { dst, src, rel_vol } => {
            pair((*src, drained(rel_vol.is_none())), (*dst, Effect::Write))
        }
        Instr::MoveAbs { dst, src, .. } => pair((*src, Effect::Read), (*dst, Effect::Write)),
        Instr::Mix { unit, .. }
        | Instr::Incubate { unit, .. }
        | Instr::Concentrate { unit, .. }
        | Instr::Separate { unit, .. } => [Some((*unit, Effect::Operate)), None],
        Instr::Sense { unit, .. } => [Some((*unit, Effect::Empty { leftover: false })), None],
        Instr::Dry { .. } | Instr::Comment(_) => [None, None],
    }
}

impl InstrDag {
    /// Analyzes a compiled program: episodes, dependence edges,
    /// durations, and critical-path priorities. Linear but for sorting
    /// the dependence edges (packed `pred << 32 | succ`) once.
    pub fn build(out: &CompileOutput) -> InstrDag {
        const NONE: u32 = u32::MAX;
        let instrs = out.program.instrs();
        let n = instrs.len();
        let plan = &out.volume_plan;

        // Each (class, virtual unit) gets a dense index on first touch;
        // `units[index]` holds its open and its latest episode.
        let mut unit_ix: FastMap<(ResourceClass, u32), usize> = FastMap::default();
        let mut units: Vec<(u32, u32)> = Vec::new();
        let mut carry_units: Vec<(ResourceClass, u32)> = Vec::new();
        let mut class_counts = [0u32; 7];

        let mut episodes: Vec<Episode> = Vec::new();
        // Per episode: where its pure-drain suffix of touches begins.
        let mut drain_from: Vec<usize> = Vec::new();
        let mut instr_eps: Vec<(u32, u32)> = Vec::new();
        let mut edges: Vec<u64> = Vec::new();
        let edge = |a: u32, b: u32| u64::from(a) << 32 | u64::from(b);
        // Register names come from the assay text: default hasher.
        let mut reg_last: HashMap<&DryReg, u32> = HashMap::new();
        let mut seps: Vec<usize> = plan.unknown_separations.keys().copied().collect();
        seps.sort_unstable();
        let mut dur_s = vec![0u64; n];

        for (i, instr) in instrs.iter().enumerate() {
            let idx = i as u32;
            if instr.is_wet() {
                dur_s[i] = instr.wet_duration_s();
            }
            // Dry-register chains (sense writes a reading; dry ALU ops
            // read and write registers): serialize touches per name.
            let regs = match instr {
                Instr::Dry { dst, src, .. } => match src {
                    DrySrc::Reg(r) => [Some(r), Some(dst)],
                    DrySrc::Imm(_) => [None, Some(dst)],
                },
                Instr::Sense { dst, .. } => [None, Some(dst)],
                _ => [None, None],
            };
            for name in regs.into_iter().flatten() {
                if let Some(last) = reg_last.insert(name, idx) {
                    if last != idx {
                        edges.push(edge(last, idx));
                    }
                }
            }
            // Run-time dispensing (§3.5) solves against the volume
            // measurements of earlier separations: conservatively
            // depend on every separation emitted before this point.
            if let Some(PlannedVolume::Runtime { .. }) = plan.get(i) {
                let before = seps.partition_point(|&sep| sep < i);
                edges.extend(seps[..before].iter().map(|&sep| edge(sep as u32, idx)));
            }
            for (loc, mut effect) in effects(instr, plan.get(i)).into_iter().flatten() {
                let class = loc.class();
                let fresh = units.len();
                let unit = *unit_ix.entry((class, loc.unit_index())).or_insert(fresh);
                if unit == fresh {
                    units.push((NONE, NONE));
                }
                // A separator stays occupied by its waste stream even
                // after an output port is drained: never close it.
                if class == ResourceClass::Separator && matches!(effect, Effect::Empty { .. }) {
                    effect = Effect::Read;
                }
                // Ports hold no chip fluid; their episodes only model
                // exclusivity and chain concurrent uses.
                if matches!(class, ResourceClass::InputPort | ResourceClass::OutputPort) {
                    effect = Effect::Read;
                }
                let (open, latest) = &mut units[unit];
                if *open == NONE {
                    let ord = &mut class_counts[class as usize];
                    episodes.push(Episode {
                        class,
                        virt: loc.unit_index(),
                        touches: Vec::new(),
                        closed: false,
                        metered_close: false,
                        prev: (*latest != NONE).then_some(*latest),
                        class_ord: *ord,
                        spill_from: None,
                    });
                    *ord += 1;
                    drain_from.push(0);
                    *open = episodes.len() as u32 - 1;
                    *latest = *open;
                }
                let ep = *open;
                let epi = ep as usize;
                let touches = &mut episodes[epi].touches;
                if touches.last() != Some(&idx) {
                    if let Some(&prev) = touches.last() {
                        edges.push(edge(prev, idx));
                    }
                    touches.push(idx);
                    if !matches!(effect, Effect::Read | Effect::Empty { .. }) {
                        drain_from[epi] = touches.len();
                    }
                    instr_eps.push((idx, ep));
                }
                if let Effect::Empty { leftover } = effect {
                    episodes[epi].closed = true;
                    episodes[epi].metered_close = leftover;
                    if leftover {
                        carry_units.push((class, loc.unit_index()));
                    }
                    units[unit].0 = NONE;
                }
            }
        }

        // Port episodes release after their last touch (nothing is
        // stored at a port); spill windows exist only for units whose
        // parked product is purely waiting to drain.
        for (ep, &p) in episodes.iter_mut().zip(&drain_from) {
            if matches!(
                ep.class,
                ResourceClass::InputPort | ResourceClass::OutputPort
            ) {
                ep.closed = true;
            }
            // A unit episode the program abandons (its last touch is a
            // metered drain or it simply stops being used) would hold
            // its slot to the end of the schedule — with a one-unit
            // inventory that wall deadlocks every later consumer of
            // the class. Close it at its final touch as a metered
            // close: the carry-out sweeps whatever is left to the
            // unit's carry-home reservoir, so the slot is replay-empty
            // for reuse. Sequential execution leaves the abandoned
            // leftover in the unit instead, but no report aggregate
            // depends on where residue sits. Separators keep their
            // waste stream on-column and never close.
            if !ep.closed
                && matches!(
                    ep.class,
                    ResourceClass::Mixer | ResourceClass::Heater | ResourceClass::Sensor
                )
            {
                ep.closed = true;
                ep.metered_close = true;
                carry_units.push((ep.class, ep.virt));
            }
            if matches!(ep.class, ResourceClass::Mixer | ResourceClass::Heater)
                && p >= 1
                && p < ep.touches.len()
            {
                ep.spill_from = Some(p);
            }
        }

        edges.sort_unstable();
        edges.dedup();
        carry_units.sort_unstable();
        carry_units.dedup();
        let pairs = edges.iter().map(|&e| ((e >> 32) as u32, e as u32));
        debug_assert!(pairs.clone().all(|(a, b)| a < b), "edges run forward");
        let preds = Csr::grouped(n, pairs.clone().map(|(a, b)| (b, a)));
        let succs = Csr::grouped(n, pairs);
        let mut priority = vec![0u64; n];
        for i in (0..n).rev() {
            let down = succs[i].iter().map(|&s| priority[s as usize]).max();
            priority[i] = dur_s[i] + down.unwrap_or(0);
        }
        let sequential_s = dur_s.iter().sum();
        let critical_path_s = priority.iter().copied().max().unwrap_or(0);
        InstrDag {
            len: n,
            preds,
            succs,
            dur_s,
            priority,
            episodes,
            instr_eps: Csr::grouped(n, instr_eps.into_iter()),
            carry_units,
            sequential_s,
            critical_path_s,
        }
    }
}

/// One renaming directive: occurrences of the `(class, virt)` unit in
/// this instruction execute at `to` instead (sub-ports preserved).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rename {
    /// Class of the virtual unit being renamed.
    pub class: ResourceClass,
    /// Virtual unit index.
    pub virt: u32,
    /// Physical home — usually the same class, but a spilled episode's
    /// home is a reservoir.
    pub to: WetLoc,
}

/// Applies a rename list to one operand location. Port operands always
/// pass through untouched: no rename entry is ever recorded for a port
/// class, so `input`/`output` keep their virtual port indices
/// (port-fluid bindings and collection accounting are keyed by them).
pub fn rename_loc(renames: &[Rename], loc: WetLoc) -> WetLoc {
    for r in renames {
        if loc.class() == r.class && loc.unit_index() == r.virt {
            return if r.to.class() == r.class {
                loc.with_unit_index(r.to.unit_index())
            } else {
                r.to
            };
        }
    }
    loc
}

/// What a scheduled relocation is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelocKind {
    /// A parked product vacates its unit into a reservoir (stall
    /// relief).
    Spill,
    /// A closing episode's faulted remainder parks in the unit's carry
    /// home. Zero volume on a fault-free run.
    CarryOut,
    /// A parked remainder rejoins the unit's next episode at its new
    /// physical slot, reproducing the sequential merge exactly.
    CarryIn,
}

/// A scheduled storage move: just before `before_instr` executes, the
/// contents at `from` relocate to `to` (an unmetered `take_all` +
/// deposit — no fault draw, so the PRNG stream is untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpillMove {
    /// Program index the relocation precedes.
    pub before_instr: u32,
    /// The location being vacated.
    pub from: WetLoc,
    /// The location taking the fluid.
    pub to: WetLoc,
    /// Schedule time of the transfer.
    pub start_s: u64,
    /// Why the fluid moves.
    pub kind: RelocKind,
}

/// Cycle-accurate timing of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Entry {
    /// Start time, seconds.
    pub start_s: u64,
    /// Duration, seconds.
    pub dur_s: u64,
}

/// The per-job (per assay instance) slice of a schedule — everything
/// the executor needs to replay this instance.
#[derive(Debug, Clone, Default)]
pub struct JobSchedule {
    /// Timing per instruction.
    pub entries: Vec<Entry>,
    /// Renames per instruction (ports are accounted in the schedule
    /// but never renamed at execution; they carry no chip fluid).
    pub renames: Vec<Vec<Rename>>,
    /// Storage relocations (stall spills and leftover carries), sorted
    /// by `before_instr` with carry-ins last among ties.
    pub spills: Vec<SpillMove>,
}

/// Occupancy of one physical slot (for validation and utilization).
#[derive(Debug, Clone, Copy)]
pub struct Hold {
    /// Resource class.
    pub class: ResourceClass,
    /// Physical slot id.
    pub slot: u32,
    /// Occupied from.
    pub t0: u64,
    /// Occupied until (`None` = end of schedule).
    pub t1: Option<u64>,
}

/// Per-class slot usage summary.
#[derive(Debug, Clone, Copy)]
pub struct ClassUtil {
    /// Resource class.
    pub class: ResourceClass,
    /// Inventory size.
    pub slots: u32,
    /// Peak concurrently-occupied slots.
    pub peak: u32,
    /// Total slot-seconds occupied.
    pub busy_slot_s: u64,
    /// `busy / (slots * makespan)`, in permille.
    pub util_permille: u64,
}

/// Scheduler statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Scheduled nodes (instructions across all jobs).
    pub nodes: u64,
    /// Episodes renamed.
    pub episodes: u64,
    /// Parked products spilled to storage.
    pub spills: u64,
    /// Carry pairs emitted for episode handoffs (each moves a faulted
    /// remainder out to a carry home and back in; zero-volume no-ops
    /// on fault-free runs).
    pub carries: u64,
    /// Stalls resolved by spilling.
    pub stalls: u64,
    /// True when list scheduling was infeasible for this inventory and
    /// the schedule degenerated to the sequential order.
    pub fallback: bool,
}

/// Why list scheduling gave up (callers fall back to sequential).
#[derive(Debug, Clone)]
pub enum SchedError {
    /// No runnable instruction and no spillable episode: the inventory
    /// cannot host the program's live set.
    Stall {
        /// Schedule time of the stall.
        at_s: u64,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Stall { at_s } => write!(
                f,
                "schedule stalled at t={at_s}s: no runnable instruction and no \
                 spillable episode for this inventory"
            ),
        }
    }
}

impl Error for SchedError {}

/// The outcome of re-timing a schedule against observed repairs.
#[derive(Debug, Clone, Copy)]
pub struct Splice {
    /// Makespan after splicing the repairs in, seconds.
    pub makespan_s: u64,
    /// Instructions whose start time moved — the quiesced slice. A
    /// fault only delays its dependence/occupancy cone; everything
    /// else keeps its original slot times.
    pub shifted: u64,
}

/// A deterministic cycle-accurate schedule for one or more assay
/// instances on one chip.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Per-instance schedules.
    pub jobs: Vec<JobSchedule>,
    /// End-to-end wet time of the schedule, seconds.
    pub makespan_s: u64,
    /// Sum of sequential wet times across instances — the baseline.
    pub sequential_s: u64,
    /// Longest dependence chain across instances — the lower bound.
    pub critical_path_s: u64,
    /// Per-class utilization.
    pub utilization: Vec<ClassUtil>,
    /// Scheduler statistics.
    pub stats: SchedStats,
    /// All timing constraints (dependences, slot succession, spill
    /// latency) as `(from, to, extra_s)` over global node ids (each
    /// job's instructions in order, after the previous job's):
    /// `start[to] >= finish[from] + extra_s`.
    edges: Vec<(u32, u32, u64)>,
    /// Issue order — a topological order of the constraint graph.
    order: Vec<u32>,
    /// Slot occupancy windows.
    holds: Vec<Hold>,
}

impl Schedule {
    /// Checks the schedule against its own constraints: every timing
    /// edge respected, no slot double-booked.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let entries: Vec<Entry> = (self.jobs.iter()).flat_map(|j| j.entries.clone()).collect();
        for &(a, b, w) in &self.edges {
            let (ea, eb) = (entries[a as usize], entries[b as usize]);
            if eb.start_s < ea.start_s + ea.dur_s + w {
                return Err(format!(
                    "edge {a}->{b} violated: {} < {} + {} + {w}",
                    eb.start_s, ea.start_s, ea.dur_s
                ));
            }
        }
        // Holds sorted by slot, then time: a double booking shows up
        // as two neighbours on one slot that overlap.
        let mut spans: Vec<_> = (self.holds.iter())
            .map(|h| (h.class, h.slot, h.t0, h.t1.unwrap_or(self.makespan_s)))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            let ((class, slot, t0, t1), (next_class, next_slot, u0, u1)) = (w[0], w[1]);
            if (class, slot) == (next_class, next_slot) && u0 < t1 {
                return Err(format!(
                    "{class} slot {slot} double-booked: [{t0}, {t1}) overlaps [{u0}, {u1})"
                ));
            }
        }
        let max_finish = self
            .jobs
            .iter()
            .flat_map(|j| j.entries.iter().map(|e| e.start_s + e.dur_s))
            .max()
            .unwrap_or(0);
        if max_finish > self.makespan_s {
            return Err(format!(
                "makespan {} shorter than the last finish {max_finish}",
                self.makespan_s
            ));
        }
        Ok(())
    }

    /// Splices observed per-instruction repair seconds back into the
    /// schedule: start times are recomputed over the dependence and
    /// occupancy edges, so only the affected cone shifts. No node ever
    /// moves *earlier* than its planned slot — re-timing around a live
    /// run can only delay (resources were committed at planned times,
    /// and some planned waits are scheduler policy not expressed as
    /// edges) — so with no repairs the schedule is returned unchanged.
    /// `repairs[job]` maps program index → extra seconds.
    pub fn splice(&self, repairs: &[&HashMap<usize, u64>]) -> Splice {
        // Planned start and repaired duration per node.
        let mut timing: Vec<(u64, u64)> = Vec::with_capacity(self.order.len());
        for (j, job) in self.jobs.iter().enumerate() {
            let base = timing.len();
            timing.extend(job.entries.iter().map(|e| (e.start_s, e.dur_s)));
            for (&i, &extra) in repairs.get(j).into_iter().flat_map(|m| m.iter()) {
                if i < job.entries.len() {
                    timing[base + i].1 += extra;
                }
            }
        }
        let n = timing.len();
        let ins = Csr::grouped(n, self.edges.iter().map(|&(a, b, w)| (b, (a, w))));
        let mut finish = vec![0u64; n];
        let mut shifted = 0u64;
        let mut makespan = self.makespan_s;
        for &gid in &self.order {
            let g = gid as usize;
            let (planned, dur) = timing[g];
            let s = ins[g]
                .iter()
                .map(|&(a, w)| finish[a as usize] + w)
                .max()
                .unwrap_or(0)
                .max(planned);
            finish[g] = s + dur;
            makespan = makespan.max(s + dur);
            if s != planned {
                shifted += 1;
            }
        }
        Splice {
            makespan_s: makespan,
            shifted,
        }
    }

    /// The degenerate schedule: all instances back to back, original
    /// order, identity renames. Always feasible (it is exactly what
    /// the sequential executor does), used when list scheduling stalls.
    pub fn sequential(dags: &[&InstrDag], machine: &Machine) -> Schedule {
        let mut jobs = Vec::with_capacity(dags.len());
        let mut edges = Vec::new();
        let mut order = Vec::new();
        let mut t = 0u64;
        let mut gid = 0u32;
        for dag in dags {
            let mut entries = Vec::with_capacity(dag.len);
            for i in 0..dag.len {
                if gid > 0 {
                    edges.push((gid - 1, gid, 0));
                }
                order.push(gid);
                entries.push(Entry {
                    start_s: t,
                    dur_s: dag.dur_s[i],
                });
                t += dag.dur_s[i];
                gid += 1;
            }
            jobs.push(JobSchedule {
                entries,
                renames: vec![Vec::new(); dag.len],
                spills: Vec::new(),
            });
        }
        let pool = SlotPool::from_machine(machine);
        let utilization = pool
            .iter()
            .map(|p| ClassPool::util_entry(p, 0, t))
            .collect();
        Schedule {
            jobs,
            makespan_s: t,
            sequential_s: t,
            critical_path_s: dags.iter().map(|d| d.critical_path_s).max().unwrap_or(0),
            utilization,
            stats: SchedStats {
                nodes: gid as u64,
                episodes: dags.iter().map(|d| d.episodes.len() as u64).sum(),
                fallback: true,
                ..SchedStats::default()
            },
            edges,
            order,
            holds: Vec::new(),
        }
    }
}

impl ClassPool {
    fn util_entry(pool: &ClassPool, busy_slot_s: u64, makespan_s: u64) -> ClassUtil {
        let denom = u64::from(pool.total()) * makespan_s;
        ClassUtil {
            class: pool.class(),
            slots: pool.total(),
            peak: pool.peak_in_use,
            busy_slot_s,
            util_permille: (busy_slot_s * 1000).checked_div(denom).unwrap_or(0),
        }
    }
}

/// Builds the schedule for one compiled program, falling back to the
/// sequential order if the inventory cannot host the live set.
pub fn plan(out: &CompileOutput, machine: &Machine, opts: &SchedOptions) -> Schedule {
    let dag = InstrDag::build(out);
    plan_jobs(&[&dag], machine, opts)
}

/// Builds the schedule for a fleet of instances (one [`InstrDag`] per
/// instance; isomorphic instances may share one), falling back to the
/// sequential concatenation on a stall.
pub fn plan_jobs(dags: &[&InstrDag], machine: &Machine, opts: &SchedOptions) -> Schedule {
    let sched = match list_schedule(dags, machine) {
        Ok(s) => s,
        Err(SchedError::Stall { .. }) => Schedule::sequential(dags, machine),
    };
    let obs = &opts.obs;
    if obs.enabled() {
        obs.add("sim.sched.nodes", sched.stats.nodes);
        obs.add("sim.sched.episodes", sched.stats.episodes);
        obs.add("sim.sched.spills", sched.stats.spills);
        obs.add("sim.sched.carries", sched.stats.carries);
        obs.add("sim.sched.stalls", sched.stats.stalls);
        if sched.stats.fallback {
            obs.add("sim.sched.fallbacks", 1);
        }
        obs.record("sim.sched.makespan_s", sched.makespan_s);
        if let Some(speedup) = (sched.sequential_s * 1000).checked_div(sched.makespan_s) {
            obs.record("sim.sched.speedup_permille", speedup);
        }
        for u in &sched.utilization {
            obs.record("sim.sched.util_permille", u.util_permille);
        }
    }
    sched
}

/// Per-episode run state inside the engine.
struct EpRun {
    home: Option<WetLoc>,
    slot: u32,
    done_upto: usize,
    spilled: bool,
    hold_ix: usize,
}

const EV_FINISH: u8 = 0;
const EV_WAKE: u8 = 1;

/// The list-scheduling engine. Deterministic: single-threaded, total
/// tie-break order everywhere.
fn list_schedule(dags: &[&InstrDag], machine: &Machine) -> Result<Schedule, SchedError> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut job_offsets = Vec::with_capacity(dags.len());
    let mut total = 0u32;
    for dag in dags {
        job_offsets.push(total);
        total += dag.len as u32;
    }
    let n = total as usize;

    let mut pool = SlotPool::from_machine(machine);
    let mut eps: Vec<Vec<EpRun>> = dags
        .iter()
        .map(|d| {
            d.episodes
                .iter()
                .map(|_| EpRun {
                    home: None,
                    slot: 0,
                    done_upto: 0,
                    spilled: false,
                    hold_ix: usize::MAX,
                })
                .collect()
        })
        .collect();
    let mut indeg: Vec<Vec<u32>> = dags
        .iter()
        .map(|d| (0..d.len).map(|i| d.preds[i].len() as u32).collect())
        .collect();
    let mut entries: Vec<Vec<Entry>> = dags.iter().map(|d| vec![Entry::default(); d.len]).collect();
    let mut renames: Vec<Vec<Vec<Rename>>> = dags.iter().map(|d| vec![Vec::new(); d.len]).collect();
    let mut spills: Vec<Vec<SpillMove>> = dags.iter().map(|_| Vec::new()).collect();
    let mut holds: Vec<Hold> = Vec::new();
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut min_start: HashMap<u32, u64> = HashMap::new();
    // Episodes opened so far per (job, class): openings must follow
    // first-touch order within a class (see `Episode::class_ord`).
    let mut opened: HashMap<(usize, ResourceClass), u32> = HashMap::new();
    let mut stats = SchedStats {
        nodes: n as u64,
        episodes: dags.iter().map(|d| d.episodes.len() as u64).sum(),
        ..SchedStats::default()
    };

    // Dependence edges, globalized.
    for (j, dag) in dags.iter().enumerate() {
        let off = job_offsets[j];
        for b in 0..dag.len {
            for &a in &dag.preds[b] {
                edges.push((off + a, off + b as u32, 0));
            }
        }
    }

    // Dedicated carry homes: one reservoir per unit whose metered-close
    // remainders must survive an episode handoff. Held for the whole
    // schedule.
    let mut carry_home: HashMap<(usize, ResourceClass, u32), WetLoc> = HashMap::new();
    for (j, dag) in dags.iter().enumerate() {
        for &(class, virt) in &dag.carry_units {
            let rp = pool
                .class_mut(ResourceClass::Reservoir)
                .expect("reservoir pool");
            let Some(grant) = rp.alloc(j as u32, (0, u32::MAX), 0, None) else {
                return Err(SchedError::Stall { at_s: 0 });
            };
            carry_home.insert((j, class, virt), WetLoc::Reservoir(grant.slot));
            holds.push(Hold {
                class: ResourceClass::Reservoir,
                slot: grant.slot,
                t0: 0,
                t1: None,
            });
        }
    }

    // Ready order: priority desc, job asc, instr asc.
    let key = |j: usize, i: usize| (u64::MAX - dags[j].priority[i], j as u32, i as u32);
    let mut ready: BTreeSet<(u64, u32, u32)> = BTreeSet::new();
    for (j, dag) in dags.iter().enumerate() {
        for i in 0..dag.len {
            if dag.preds[i].is_empty() {
                ready.insert(key(j, i));
            }
        }
    }

    let mut heap: BinaryHeap<Reverse<(u64, u8, u32)>> = BinaryHeap::new();
    let mut pending = n;
    let mut t = 0u64;
    let mut max_time = 0u64;

    // Completion: free episodes, unlock successors.
    macro_rules! complete {
        ($gid:expr, $f:expr) => {{
            let gid: u32 = $gid;
            let f: u64 = $f;
            let j = match job_offsets.binary_search(&gid) {
                Ok(x) => x,
                Err(x) => x - 1,
            };
            let i = (gid - job_offsets[j]) as usize;
            let dag = dags[j];
            for &ep in &dag.instr_eps[i] {
                let epi = ep as usize;
                let info = &dag.episodes[epi];
                let run = &mut eps[j][epi];
                if info.touches.get(run.done_upto) == Some(&(i as u32)) {
                    run.done_upto += 1;
                    if run.done_upto == info.touches.len() && info.closed {
                        if let Some(home) = run.home.take() {
                            let span = (info.touches[0], i as u32);
                            if let Some(p) = pool.class_mut(home.class()) {
                                p.release(run.slot, f, j as u32, span, gid, 0);
                            }
                            holds[run.hold_ix].t1 = Some(f);
                            // A metered close can leave a faulted
                            // remainder: park it in the unit's carry
                            // home so the slot is replay-empty for its
                            // next occupant (and the remainder rejoins
                            // the unit's next episode, if any).
                            if info.metered_close {
                                let home_loc = carry_home[&(j, info.class, info.virt)];
                                spills[j].push(SpillMove {
                                    before_instr: i as u32 + 1,
                                    from: home,
                                    to: home_loc,
                                    start_s: f,
                                    kind: RelocKind::CarryOut,
                                });
                                stats.carries += 1;
                            }
                        }
                    }
                }
            }
            for &s in &dag.succs[i] {
                indeg[j][s as usize] -= 1;
                if indeg[j][s as usize] == 0 {
                    ready.insert(key(j, s as usize));
                }
            }
            pending -= 1;
        }};
    }

    loop {
        // Drain all events due now.
        while let Some(&Reverse((f, kind, gid))) = heap.peek() {
            if f > t {
                break;
            }
            heap.pop();
            if kind == EV_FINISH {
                complete!(gid, f);
            }
        }

        // Issue every runnable ready node at time t, in priority order.
        let mut issued = 0usize;
        let mut dry: BTreeSet<ResourceClass> = BTreeSet::new();
        let snapshot: Vec<(u64, u32, u32)> = ready.iter().copied().collect();
        'nodes: for k in snapshot {
            let (j, i) = (k.1 as usize, k.2 as usize);
            let gid = job_offsets[j] + i as u32;
            if min_start.get(&gid).is_some_and(|&m| m > t) {
                continue;
            }
            let dag = dags[j];
            // An episode's program-order span for the allocator fence:
            // first touch to last touch, unbounded while it never
            // closes.
            let ep_span = |info: &Episode| -> (u32, u32) {
                let last = if info.closed {
                    info.touches.last().copied().unwrap_or(u32::MAX)
                } else {
                    u32::MAX
                };
                (info.touches.first().copied().unwrap_or(0), last)
            };
            // New-episode allocations this instruction needs.
            let mut needed: Vec<u32> = Vec::new();
            let mut counts: HashMap<ResourceClass, (usize, u32)> = HashMap::new();
            for &ep in &dag.instr_eps[i] {
                let info = &dag.episodes[ep as usize];
                if info.class == ResourceClass::OutputPort {
                    continue;
                }
                if eps[j][ep as usize].home.is_none() {
                    if dry.contains(&info.class) {
                        continue 'nodes;
                    }
                    let e = counts.entry(info.class).or_insert((0, 0));
                    let next_ord = opened.get(&(j, info.class)).copied().unwrap_or(0) + e.0 as u32;
                    if info.class_ord != next_ord {
                        continue 'nodes;
                    }
                    needed.push(ep);
                    e.0 += 1;
                    e.1 = e.1.max(ep_span(info).1);
                }
            }
            for (&class, &(cnt, max_last)) in &counts {
                let p = pool.class(class).expect("pooled class");
                if p.free_count() == 0 {
                    dry.insert(class);
                    continue 'nodes;
                }
                // Feasibility against the widest span needed here: a
                // slot valid for the enclosing span is valid for each
                // episode's narrower one.
                if p.valid_count(j as u32, (i as u32, max_last), t) < cnt {
                    continue 'nodes;
                }
            }
            let mut start = t;
            for &ep in &needed {
                let info = &dag.episodes[ep as usize];
                let p = pool.class_mut(info.class).expect("pooled class");
                let grant = p
                    .alloc(j as u32, ep_span(info), t, Some(info.virt))
                    .expect("validated above");
                if let Some((node, extra)) = grant.after {
                    edges.push((node, gid, extra));
                }
                *opened.entry((j, info.class)).or_insert(0) += 1;
                let new_home = loc_for(info.class, grant.slot);
                let run = &mut eps[j][ep as usize];
                run.slot = grant.slot;
                run.home = Some(new_home);
                run.hold_ix = holds.len();
                holds.push(Hold {
                    class: info.class,
                    slot: grant.slot,
                    t0: t,
                    t1: None,
                });
                // A predecessor episode closed by a metered drain may
                // have parked a remainder: bring it back in just before
                // this episode's first touch.
                if info
                    .prev
                    .is_some_and(|a| dag.episodes[a as usize].metered_close)
                {
                    let home_loc = carry_home[&(j, info.class, info.virt)];
                    spills[j].push(SpillMove {
                        before_instr: i as u32,
                        from: home_loc,
                        to: new_home,
                        start_s: t,
                        kind: RelocKind::CarryIn,
                    });
                }
            }
            // Record renames for every touched unit (ports excluded:
            // execution keeps virtual port operands).
            for &ep in &dag.instr_eps[i] {
                let info = &dag.episodes[ep as usize];
                if matches!(
                    info.class,
                    ResourceClass::InputPort | ResourceClass::OutputPort
                ) {
                    continue;
                }
                if let Some(home) = eps[j][ep as usize].home {
                    renames[j][i].push(Rename {
                        class: info.class,
                        virt: info.virt,
                        to: home,
                    });
                }
            }
            if let Some(&m) = min_start.get(&gid) {
                start = start.max(m);
            }
            let dur = dag.dur_s[i];
            entries[j][i] = Entry {
                start_s: start,
                dur_s: dur,
            };
            order.push(gid);
            max_time = max_time.max(start + dur);
            heap.push(Reverse((start + dur, EV_FINISH, gid)));
            ready.remove(&k);
            issued += 1;
        }
        if issued > 0 {
            continue;
        }
        if let Some(&Reverse((f, _, _))) = heap.peek() {
            t = f;
            continue;
        }
        if pending == 0 {
            break;
        }
        // Stall: nothing running, nothing issuable. Spill a parked
        // product to storage to free its unit, or give up.
        stats.stalls += 1;
        if spill_one(
            dags,
            &mut eps,
            &mut pool,
            &job_offsets,
            t,
            &mut holds,
            &mut edges,
            &mut spills,
            &mut renames,
            &mut min_start,
            &mut heap,
            &mut stats,
        ) {
            continue;
        }
        return Err(SchedError::Stall { at_s: t });
    }

    // Close utilization accounting.
    let makespan = max_time;
    let mut busy: HashMap<ResourceClass, u64> = HashMap::new();
    for h in &holds {
        *busy.entry(h.class).or_insert(0) += h.t1.unwrap_or(makespan).saturating_sub(h.t0);
    }
    let utilization = POOLED_CLASSES
        .iter()
        .map(|&c| {
            let p = pool.class(c).expect("pooled class");
            ClassPool::util_entry(p, busy.get(&c).copied().unwrap_or(0), makespan)
        })
        .collect();
    // Stable by emission within ties; carry-ins last so a handoff whose
    // out and in land on the same instruction parks before it rejoins.
    for js in &mut spills {
        js.sort_by_key(|s| (s.before_instr, u8::from(s.kind == RelocKind::CarryIn)));
    }
    let jobs = entries
        .into_iter()
        .zip(renames)
        .zip(spills)
        .map(|((entries, renames), spills)| JobSchedule {
            entries,
            renames,
            spills,
        })
        .collect();
    Ok(Schedule {
        jobs,
        makespan_s: makespan,
        sequential_s: dags.iter().map(|d| d.sequential_s).sum(),
        critical_path_s: dags.iter().map(|d| d.critical_path_s).max().unwrap_or(0),
        utilization,
        stats,
        edges,
        order,
        holds,
    })
}

fn loc_for(class: ResourceClass, slot: u32) -> WetLoc {
    match class {
        ResourceClass::Reservoir => WetLoc::Reservoir(slot),
        ResourceClass::Mixer => WetLoc::Mixer(slot),
        ResourceClass::Heater => WetLoc::Heater(slot),
        ResourceClass::Separator => WetLoc::Separator(slot, SepPort::Main),
        ResourceClass::Sensor => WetLoc::Sensor(slot),
        ResourceClass::InputPort => WetLoc::InputPort(slot),
        ResourceClass::OutputPort => WetLoc::OutputPort(slot),
    }
}

/// Spills the first parked, pure-drain episode to a free reservoir
/// slot: a one-second storage transfer that vacates the unit. Returns
/// false when nothing is spillable (the caller then falls back).
#[allow(clippy::too_many_arguments)]
fn spill_one(
    dags: &[&InstrDag],
    eps: &mut [Vec<EpRun>],
    pool: &mut SlotPool,
    job_offsets: &[u32],
    t: u64,
    holds: &mut Vec<Hold>,
    edges: &mut Vec<(u32, u32, u64)>,
    spills: &mut [Vec<SpillMove>],
    renames: &mut [Vec<Vec<Rename>>],
    min_start: &mut HashMap<u32, u64>,
    heap: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, u8, u32)>>,
    stats: &mut SchedStats,
) -> bool {
    for (j, dag) in dags.iter().enumerate() {
        for (epi, info) in dag.episodes.iter().enumerate() {
            let Some(p) = info.spill_from else { continue };
            let run = &eps[j][epi];
            if run.home.is_none() || run.spilled || run.done_upto != p {
                continue;
            }
            let next_touch = info.touches[p];
            let last_touch = if info.closed {
                info.touches.last().copied().unwrap_or(u32::MAX)
            } else {
                u32::MAX
            };
            let grant = {
                let rp = pool
                    .class_mut(ResourceClass::Reservoir)
                    .expect("reservoir pool");
                match rp.alloc(j as u32, (next_touch, last_touch), t, None) {
                    Some(g) => g,
                    None => continue,
                }
            };
            let old_home = eps[j][epi].home.expect("checked above");
            let old_slot = eps[j][epi].slot;
            let new_home = WetLoc::Reservoir(grant.slot);
            let prev_node = job_offsets[j] + info.touches[p - 1];
            let next_node = job_offsets[j] + next_touch;
            // The vacated unit is busy for the transfer second; its
            // next same-job occupant must postdate the spill point in
            // program order.
            if let Some(up) = pool.class_mut(old_home.class()) {
                up.release(
                    old_slot,
                    t + 1,
                    j as u32,
                    (info.touches[0], next_touch.saturating_sub(1)),
                    prev_node,
                    1,
                );
            }
            holds[eps[j][epi].hold_ix].t1 = Some(t + 1);
            // The new reservoir hold runs until the episode closes.
            let hold_ix = holds.len();
            holds.push(Hold {
                class: ResourceClass::Reservoir,
                slot: grant.slot,
                t0: t,
                t1: None,
            });
            if let Some((node, extra)) = grant.after {
                edges.push((node, next_node, extra));
            }
            // Timing: the drain cannot start before the transfer ends.
            edges.push((prev_node, next_node, 1));
            let e = min_start.entry(next_node).or_insert(0);
            *e = (*e).max(t + 1);
            heap.push(std::cmp::Reverse((t + 1, EV_WAKE, next_node)));
            spills[j].push(SpillMove {
                before_instr: next_touch,
                from: old_home,
                to: new_home,
                start_s: t,
                kind: RelocKind::Spill,
            });
            // Remaining touches of the episode drain from the new home.
            let run = &mut eps[j][epi];
            run.home = Some(new_home);
            run.slot = grant.slot;
            run.hold_ix = hold_ix;
            run.spilled = true;
            // Renames already recorded for issued touches stay valid;
            // unissued touches pick up the new home at their issue.
            let _ = renames;
            stats.spills += 1;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::paper_default()
            .with_reservoirs(128)
            .with_input_ports(64)
    }

    fn compiled(src: &str, machine: &Machine) -> CompileOutput {
        aqua_compiler::compile(src, machine, &aqua_compiler::CompileOptions::default())
            .expect("test program compiles")
    }

    #[test]
    fn enzyme_episodes_close_and_carry() {
        let m = machine();
        let out = compiled(&aqua_assays::Benchmark::Enzyme.source(), &m);
        let dag = InstrDag::build(&out);
        // Every mixer/heater/sensor episode closes (no unit holds its
        // slot to the end of the schedule), and the Static-planned
        // textual-all drains are metered closes, so both hot units get
        // a carry home.
        for ep in &dag.episodes {
            if matches!(
                ep.class,
                ResourceClass::Mixer | ResourceClass::Heater | ResourceClass::Sensor
            ) {
                assert!(ep.closed, "{:?}#{} left open", ep.class, ep.virt);
            }
        }
        assert!(dag.carry_units.contains(&(ResourceClass::Mixer, 1)));
        assert!(dag.carry_units.contains(&(ResourceClass::Heater, 1)));
        // Sense empties the sensor outright: closed, not metered.
        let sensed = dag
            .episodes
            .iter()
            .filter(|e| e.class == ResourceClass::Sensor && !e.metered_close)
            .count();
        assert!(sensed > 0, "sense should close sensor episodes unmetered");
    }

    #[test]
    fn separator_episodes_never_close() {
        let m = machine();
        let out = compiled(&aqua_assays::Benchmark::Glycomics.source(), &m);
        let dag = InstrDag::build(&out);
        let seps: Vec<_> = dag
            .episodes
            .iter()
            .filter(|e| e.class == ResourceClass::Separator)
            .collect();
        assert!(!seps.is_empty(), "glycomics uses a separator");
        for ep in &seps {
            assert!(!ep.closed, "the waste stream keeps the column occupied");
        }
        assert!(!dag
            .carry_units
            .iter()
            .any(|&(c, _)| c == ResourceClass::Separator));
    }

    #[test]
    fn class_ord_follows_first_touch_order() {
        let m = machine();
        let out = compiled(&aqua_assays::Benchmark::EnzymeN(4).source(), &m);
        let dag = InstrDag::build(&out);
        let mut last_first: HashMap<ResourceClass, (u32, u32)> = HashMap::new();
        for ep in &dag.episodes {
            let first = *ep.touches.first().expect("episodes are touched");
            if let Some(&(prev_ord, prev_first)) = last_first.get(&ep.class) {
                assert_eq!(ep.class_ord, prev_ord + 1, "ordinals are dense");
                assert!(prev_first <= first, "ordinals follow first touches");
            } else {
                assert_eq!(ep.class_ord, 0);
            }
            last_first.insert(ep.class, (ep.class_ord, first));
        }
    }

    #[test]
    fn carry_relocations_pair_up_in_program_order() {
        let m = machine();
        let out = compiled(&aqua_assays::Benchmark::EnzymeN(4).source(), &m);
        let sched = plan(&out, &m, &SchedOptions::default());
        assert!(!sched.stats.fallback);
        assert!(sched.stats.carries > 0, "enzyme handoffs emit carries");
        let spills = &sched.jobs[0].spills;
        // Sorted by program point, carry-ins after carry-outs at ties:
        // a slot is swept before the next episode's remainder arrives.
        for w in spills.windows(2) {
            let ka = (w[0].before_instr, u8::from(w[0].kind == RelocKind::CarryIn));
            let kb = (w[1].before_instr, u8::from(w[1].kind == RelocKind::CarryIn));
            assert!(ka <= kb, "relocations out of order: {w:?}");
        }
        // Every carry-in is fed by an earlier carry-out of the same
        // carry home (the `to` of an out is the `from` of an in).
        for ci in spills.iter().filter(|s| s.kind == RelocKind::CarryIn) {
            assert!(
                spills.iter().any(|co| co.kind == RelocKind::CarryOut
                    && co.to == ci.from
                    && co.before_instr <= ci.before_instr),
                "carry-in without a feeding carry-out: {ci:?}"
            );
        }
    }

    #[test]
    fn splice_without_repairs_is_the_schedule() {
        let m = machine();
        let out = compiled(&aqua_assays::Benchmark::EnzymeN(4).source(), &m);
        let sched = plan(&out, &m, &SchedOptions::default());
        let s = sched.splice(&[&HashMap::new()]);
        assert_eq!(s.makespan_s, sched.makespan_s);
        assert_eq!(s.shifted, 0);
    }

    #[test]
    fn splice_repair_only_delays() {
        let m = machine();
        let out = compiled(&aqua_assays::Benchmark::EnzymeN(4).source(), &m);
        let sched = plan(&out, &m, &SchedOptions::default());
        let n = sched.jobs[0].entries.len();
        for i in [0usize, n / 2, n - 1] {
            let repairs: HashMap<usize, u64> = [(i, 7u64)].into_iter().collect();
            let s = sched.splice(&[&repairs]);
            assert!(s.makespan_s >= sched.makespan_s, "instr {i}: shrank");
            assert!(
                s.makespan_s <= sched.makespan_s + 7,
                "instr {i}: one 7s repair grew the makespan by more"
            );
        }
    }

    #[test]
    fn infeasible_inventory_falls_back_to_a_valid_sequential_schedule() {
        // Four reservoirs cannot host figure2's renamed episodes plus
        // carry homes: the planner must degrade, not fail.
        let m = Machine::paper_default()
            .with_reservoirs(4)
            .with_input_ports(8);
        let out = compiled(aqua_assays::figure2::SOURCE, &m);
        let sched = plan(&out, &m, &SchedOptions::default());
        assert!(sched.stats.fallback);
        assert_eq!(sched.makespan_s, sched.sequential_s);
        sched.validate().expect("fallback schedule is valid");
    }
}
