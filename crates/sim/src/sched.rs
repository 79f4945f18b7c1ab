//! The chip-as-CPU plan scheduler: dependency-DAG list scheduling with
//! resource renaming.
//!
//! Codegen serializes every assay onto one virtual unit per class
//! (`mixer1`, `heater1`, `sensor2`, …), so an AIS program as emitted has
//! no instruction-level parallelism at all — exactly like scalar code
//! before register renaming. This module takes a compiled plan's
//! dependency DAG ([`InstrDag`], which the plan builds once and keeps:
//! [`CompileOutput::instr_dag`]), renames its virtual unit *episodes*
//! (occupancy lifetimes) onto the machine's physical slot inventory
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

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use aqua_ais::{ResourceClass, SepPort, WetLoc};
use aqua_compiler::CompileOutput;
use aqua_volume::Machine;

use crate::alloc::{ClassPool, SlotPool, POOLED_CLASSES};

pub use aqua_compiler::instr_dag::{Csr, Episode, InstrDag};

/// Options for schedule construction.
#[derive(Debug, Clone, Default)]
pub struct SchedOptions {
    /// Observability handle: `sim.sched.*` counters and the makespan /
    /// speedup / utilization histograms flow through here.
    pub obs: aqua_obs::Obs,
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
#[derive(Debug, Clone)]
pub struct JobSchedule {
    /// Timing per instruction.
    pub entries: Vec<Entry>,
    /// Renames per instruction, `renames[i]` (ports are accounted in
    /// the schedule but never renamed at execution; they carry no chip
    /// fluid).
    pub renames: Csr<Rename>,
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
    /// latency) grouped by target: `(from, extra_s)` in row `to`, over
    /// global node ids (each job's instructions in order, after the
    /// previous job's), means `start[to] >= finish[from] + extra_s`.
    ins: Csr<(u32, u64)>,
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
        for (b, eb) in entries.iter().enumerate() {
            for &(a, w) in &self.ins[b] {
                let ea = entries[a as usize];
                if eb.start_s < ea.start_s + ea.dur_s + w {
                    return Err(format!(
                        "edge {a}->{b} violated: {} < {} + {} + {w}",
                        eb.start_s, ea.start_s, ea.dur_s
                    ));
                }
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
        // Planned start and repaired duration per node. Nodes are
        // visited in issue order, a topological order of the
        // constraints, and a visited node's finish replaces its
        // duration.
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
        let mut shifted = 0u64;
        let mut makespan = self.makespan_s;
        for &gid in &self.order {
            let g = gid as usize;
            let (planned, dur) = timing[g];
            let s = self.ins[g]
                .iter()
                .map(|&(a, w)| timing[a as usize].1 + w)
                .max()
                .unwrap_or(0)
                .max(planned);
            timing[g].1 = s + dur;
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
        let mut t = 0u64;
        for dag in dags {
            let entries = (dag.dur_s.iter())
                .map(|&dur_s| {
                    t += dur_s;
                    Entry {
                        start_s: t - dur_s,
                        dur_s,
                    }
                })
                .collect();
            jobs.push(JobSchedule {
                entries,
                renames: Csr::from_parts(vec![0; dag.len + 1], Vec::new()),
                spills: Vec::new(),
            });
        }
        // One chain: every node waits for the one before it.
        let n: u32 = dags.iter().map(|d| d.len as u32).sum();
        let ins = Csr::from_parts(
            (0..=n).map(|g| g.saturating_sub(1)).collect(),
            (1..n).map(|g| (g - 1, 0)).collect(),
        );
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
                nodes: u64::from(n),
                episodes: dags.iter().map(|d| d.episodes.len() as u64).sum(),
                fallback: true,
                ..SchedStats::default()
            },
            ins,
            order: (0..n).collect(),
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

/// Builds the schedule for one compiled program from its carried
/// analysis ([`CompileOutput::instr_dag`]), falling back to the
/// sequential order if the inventory cannot host the live set.
pub fn plan(out: &CompileOutput, machine: &Machine, opts: &SchedOptions) -> Schedule {
    plan_jobs(&[out.instr_dag()], machine, opts)
}

/// Builds the schedule for a fleet of instances (one [`InstrDag`] per
/// instance; instances of one plan share its analysis), falling back
/// to the sequential concatenation on a stall.
pub fn plan_jobs(dags: &[&InstrDag], machine: &Machine, opts: &SchedOptions) -> Schedule {
    let sched = list_schedule(dags, machine).unwrap_or_else(|| Schedule::sequential(dags, machine));
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
#[derive(Clone, Copy, Default)]
struct EpRun {
    /// Holds a slot: opened and not yet closed.
    live: bool,
    /// Moved to a reservoir by a spill (at most once).
    spilled: bool,
    /// The slot the episode opened on, in its own class.
    slot: u32,
    /// The reservoir slot a spill moved it to.
    spill_slot: u32,
    /// Touches completed so far.
    done_upto: usize,
    /// Its current hold in `Engine::holds`.
    hold_ix: usize,
}

const EV_FINISH: u8 = 0;
const EV_WAKE: u8 = 1;

/// A ready node's place in the issue order: priority desc, job asc,
/// instruction asc.
type ReadyKey = (u64, u32, u32);

/// The list-scheduling engine's state. Deterministic: single-threaded,
/// total tie-break order everywhere.
struct Engine<'a> {
    dags: &'a [&'a InstrDag],
    /// First global node id of each job.
    job_offsets: Vec<u32>,
    /// First `eps` index of each job.
    ep_offsets: Vec<usize>,
    pool: SlotPool,
    /// Reservoir slot of each carry home, job by job in
    /// `carry_units` order, from `carry_offsets[job]` on.
    carry: Vec<u32>,
    carry_offsets: Vec<usize>,
    eps: Vec<EpRun>,
    /// Episodes opened so far per job and class: openings follow
    /// first-touch order within a class (see `Episode::class_ord`).
    opened: Vec<[u32; 7]>,
    /// Completed predecessors per node.
    done_preds: Vec<u32>,
    /// Per node, the earliest start a spill allows until it issues,
    /// then its start.
    start: Vec<u64>,
    ready: BTreeSet<ReadyKey>,
    heap: BinaryHeap<Reverse<(u64, u8, u32)>>,
    pending: usize,
    max_time: u64,
    order: Vec<u32>,
    holds: Vec<Hold>,
    /// Constraints found while scheduling (slot succession, spill
    /// latency) as `(to, from, extra_s)`, in the order found.
    found: Vec<(u32, u32, u64)>,
    spills: Vec<Vec<SpillMove>>,
    stats: SchedStats,
}

/// The list-scheduling engine: reserves the carry homes, then issues
/// ready nodes round by round until every node has run. `None` when the
/// inventory cannot host the live set: no carry home is left, or
/// nothing is runnable and no episode is spillable.
fn list_schedule(dags: &[&InstrDag], machine: &Machine) -> Option<Schedule> {
    // Dedicated carry homes first, the cheapest way to fail: one
    // reservoir per unit whose metered-close remainders must survive
    // an episode handoff, held for the whole schedule.
    let mut pool = SlotPool::from_machine(machine);
    let rp = pool
        .class_mut(ResourceClass::Reservoir)
        .expect("reservoir pool");
    let mut carry = Vec::new();
    let mut carry_offsets = Vec::with_capacity(dags.len());
    for (j, dag) in dags.iter().enumerate() {
        carry_offsets.push(carry.len());
        for _ in &dag.carry_units {
            carry.push(rp.alloc(j as u32, (0, u32::MAX), 0, None)?.slot);
        }
    }
    let holds = (carry.iter())
        .map(|&slot| Hold {
            class: ResourceClass::Reservoir,
            slot,
            t0: 0,
            t1: None,
        })
        .collect();

    let mut job_offsets = Vec::with_capacity(dags.len());
    let mut ep_offsets = Vec::with_capacity(dags.len());
    let (mut n, mut n_eps) = (0usize, 0usize);
    for dag in dags {
        job_offsets.push(n as u32);
        ep_offsets.push(n_eps);
        n += dag.len;
        n_eps += dag.episodes.len();
    }
    let mut engine = Engine {
        dags,
        job_offsets,
        ep_offsets,
        pool,
        carry,
        carry_offsets,
        eps: vec![EpRun::default(); n_eps],
        opened: vec![[0; 7]; dags.len()],
        done_preds: vec![0; n],
        start: vec![0; n],
        ready: BTreeSet::new(),
        heap: BinaryHeap::new(),
        pending: n,
        max_time: 0,
        order: Vec::with_capacity(n),
        holds,
        found: Vec::new(),
        spills: vec![Vec::new(); dags.len()],
        stats: SchedStats {
            nodes: n as u64,
            episodes: n_eps as u64,
            ..SchedStats::default()
        },
    };
    for (j, dag) in dags.iter().enumerate() {
        for i in 0..dag.len {
            if dag.preds[i].is_empty() {
                engine.ready.insert(engine.key(j, i));
            }
        }
    }

    let mut t = 0u64;
    let mut round: Vec<ReadyKey> = Vec::new();
    loop {
        // Drain all events due now.
        while let Some(&Reverse((f, kind, gid))) = engine.heap.peek() {
            if f > t {
                break;
            }
            engine.heap.pop();
            if kind == EV_FINISH {
                engine.complete(gid, f);
            }
        }

        // Issue every runnable ready node at time t, in priority order.
        // A class found without a free slot stays dry for the round:
        // slots are only released between rounds.
        let mut issued = 0usize;
        let mut dry = 0u8;
        round.clear();
        round.extend(engine.ready.iter().copied());
        for &k in &round {
            if engine.issue(k, t, &mut dry) {
                engine.ready.remove(&k);
                issued += 1;
            }
        }
        if issued > 0 {
            continue;
        }
        if let Some(&Reverse((f, _, _))) = engine.heap.peek() {
            t = f;
            continue;
        }
        if engine.pending == 0 {
            break;
        }
        // Stall: nothing running, nothing issuable. Spill a parked
        // product to storage to free its unit, or give up.
        engine.stats.stalls += 1;
        if !engine.spill_one(t) {
            return None;
        }
    }
    Some(engine.finish())
}

impl Engine<'_> {
    fn key(&self, j: usize, i: usize) -> ReadyKey {
        (u64::MAX - self.dags[j].priority[i], j as u32, i as u32)
    }

    /// The carry home of a job's unit.
    fn carry_home(&self, j: usize, class: ResourceClass, virt: u32) -> WetLoc {
        let k = self.dags[j]
            .carry_units
            .binary_search(&(class, virt))
            .expect("the unit has a carry home");
        WetLoc::Reservoir(self.carry[self.carry_offsets[j] + k])
    }

    /// Issues ready node `k` at time `t` if its new episodes can open
    /// now, opening them.
    fn issue(&mut self, k: ReadyKey, t: u64, dry: &mut u8) -> bool {
        let (j, i) = (k.1 as usize, k.2 as usize);
        let gid = self.job_offsets[j] + i as u32;
        if self.start[gid as usize] > t {
            return false;
        }
        let dag = self.dags[j];
        let eo = self.ep_offsets[j];
        // New-episode allocations this instruction needs (it touches
        // at most two episodes), and per class their count and widest
        // last touch.
        let mut needed = [0u32; 2];
        let mut n_needed = 0;
        let mut counts = [(0u32, 0u32); 7];
        for &ep in &dag.instr_eps[i] {
            let info = &dag.episodes[ep as usize];
            if info.class == ResourceClass::OutputPort || self.eps[eo + ep as usize].live {
                continue;
            }
            let c = info.class as usize;
            if *dry & 1 << c != 0 || info.class_ord != self.opened[j][c] + counts[c].0 {
                return false;
            }
            needed[n_needed] = ep;
            n_needed += 1;
            counts[c].0 += 1;
            counts[c].1 = counts[c].1.max(dag.span(ep).1);
        }
        for &ep in &needed[..n_needed] {
            let class = dag.episodes[ep as usize].class;
            let (cnt, max_last) = counts[class as usize];
            let p = self.pool.class(class).expect("pooled class");
            if p.free_count() == 0 {
                *dry |= 1 << class as usize;
                return false;
            }
            // Feasibility against the widest span needed here: a slot
            // valid for the enclosing span is valid for each episode's
            // narrower one.
            if !p.has_valid(j as u32, (i as u32, max_last), t, cnt as usize) {
                return false;
            }
        }
        for &ep in &needed[..n_needed] {
            let info = &dag.episodes[ep as usize];
            let p = self.pool.class_mut(info.class).expect("pooled class");
            let grant = p
                .alloc(j as u32, dag.span(ep), t, Some(info.virt))
                .expect("validated above");
            if let Some((node, extra)) = grant.after {
                self.found.push((gid, node, extra));
            }
            self.opened[j][info.class as usize] += 1;
            let run = &mut self.eps[eo + ep as usize];
            run.live = true;
            run.slot = grant.slot;
            run.hold_ix = self.holds.len();
            self.holds.push(Hold {
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
                let from = self.carry_home(j, info.class, info.virt);
                self.spills[j].push(SpillMove {
                    before_instr: i as u32,
                    from,
                    to: loc_for(info.class, grant.slot),
                    start_s: t,
                    kind: RelocKind::CarryIn,
                });
            }
        }
        let start = self.start[gid as usize].max(t);
        let end = start + dag.dur_s[i];
        self.start[gid as usize] = start;
        self.order.push(gid);
        self.max_time = self.max_time.max(end);
        self.heap.push(Reverse((end, EV_FINISH, gid)));
        true
    }

    /// Completion at time `f`: frees closing episodes, unlocks
    /// successors.
    fn complete(&mut self, gid: u32, f: u64) {
        let j = match self.job_offsets.binary_search(&gid) {
            Ok(x) => x,
            Err(x) => x - 1,
        };
        let i = gid - self.job_offsets[j];
        let dag = self.dags[j];
        let eo = self.ep_offsets[j];
        for &ep in &dag.instr_eps[i as usize] {
            let info = &dag.episodes[ep as usize];
            let touches = &dag.touches[ep as usize];
            let run = &mut self.eps[eo + ep as usize];
            if touches.get(run.done_upto) != Some(&i) {
                continue;
            }
            run.done_upto += 1;
            if run.done_upto < touches.len() || !info.closed || !run.live {
                continue;
            }
            run.live = false;
            let (class, slot) = if run.spilled {
                (ResourceClass::Reservoir, run.spill_slot)
            } else {
                (info.class, run.slot)
            };
            let hold_ix = run.hold_ix;
            if let Some(p) = self.pool.class_mut(class) {
                p.release(slot, f, j as u32, (touches[0], i), gid, 0);
            }
            self.holds[hold_ix].t1 = Some(f);
            // A metered close can leave a faulted remainder: park it in
            // the unit's carry home so the slot is replay-empty for its
            // next occupant (and the remainder rejoins the unit's next
            // episode, if any).
            if info.metered_close {
                let to = self.carry_home(j, info.class, info.virt);
                self.spills[j].push(SpillMove {
                    before_instr: i + 1,
                    from: loc_for(class, slot),
                    to,
                    start_s: f,
                    kind: RelocKind::CarryOut,
                });
                self.stats.carries += 1;
            }
        }
        let off = gid - i;
        for &s in &dag.succs[i as usize] {
            let done = &mut self.done_preds[(off + s) as usize];
            *done += 1;
            if *done as usize == dag.preds[s as usize].len() {
                let k = self.key(j, s as usize);
                self.ready.insert(k);
            }
        }
        self.pending -= 1;
    }

    /// Spills the first parked, pure-drain episode to a free reservoir
    /// slot: a one-second storage transfer that vacates the unit.
    /// Returns false when nothing is spillable (the caller then falls
    /// back).
    fn spill_one(&mut self, t: u64) -> bool {
        for (j, dag) in self.dags.iter().enumerate() {
            for (epi, info) in dag.episodes.iter().enumerate() {
                let Some(p) = info.spill_from else { continue };
                let run = self.eps[self.ep_offsets[j] + epi];
                if !run.live || run.spilled || run.done_upto != p {
                    continue;
                }
                let touches = &dag.touches[epi];
                let next_touch = touches[p];
                let span = (next_touch, dag.span(epi as u32).1);
                let rp = (self.pool)
                    .class_mut(ResourceClass::Reservoir)
                    .expect("reservoir pool");
                let Some(grant) = rp.alloc(j as u32, span, t, None) else {
                    continue;
                };
                let prev_node = self.job_offsets[j] + touches[p - 1];
                let next_node = self.job_offsets[j] + next_touch;
                // The vacated unit is busy for the transfer second; its
                // next same-job occupant must postdate the spill point
                // in program order.
                if let Some(up) = self.pool.class_mut(info.class) {
                    let fenced = (touches[0], next_touch.saturating_sub(1));
                    up.release(run.slot, t + 1, j as u32, fenced, prev_node, 1);
                }
                self.holds[run.hold_ix].t1 = Some(t + 1);
                // The new reservoir hold runs until the episode closes.
                let hold_ix = self.holds.len();
                self.holds.push(Hold {
                    class: ResourceClass::Reservoir,
                    slot: grant.slot,
                    t0: t,
                    t1: None,
                });
                if let Some((node, extra)) = grant.after {
                    self.found.push((next_node, node, extra));
                }
                // Timing: the drain cannot start before the transfer
                // ends.
                self.found.push((next_node, prev_node, 1));
                let earliest = &mut self.start[next_node as usize];
                *earliest = (*earliest).max(t + 1);
                self.heap.push(Reverse((t + 1, EV_WAKE, next_node)));
                self.spills[j].push(SpillMove {
                    before_instr: next_touch,
                    from: loc_for(info.class, run.slot),
                    to: WetLoc::Reservoir(grant.slot),
                    start_s: t,
                    kind: RelocKind::Spill,
                });
                // Remaining touches of the episode drain from the new
                // home (see `renames`).
                let run = &mut self.eps[self.ep_offsets[j] + epi];
                run.spill_slot = grant.slot;
                run.hold_ix = hold_ix;
                run.spilled = true;
                self.stats.spills += 1;
                return true;
            }
        }
        false
    }

    /// Job `j`'s renames: every touched unit (ports excluded: execution
    /// keeps virtual port operands) runs at the home its episode had
    /// when the touch issued — the slot it opened on, or from the
    /// spill point on, the reservoir it was spilled to.
    fn renames(&self, j: usize) -> Csr<Rename> {
        let dag = self.dags[j];
        let eo = self.ep_offsets[j];
        let mut renames = Csr::with_capacity(dag.len, dag.instr_eps.item_count());
        for i in 0..dag.len {
            for &ep in &dag.instr_eps[i] {
                let info = &dag.episodes[ep as usize];
                if matches!(
                    info.class,
                    ResourceClass::InputPort | ResourceClass::OutputPort
                ) {
                    continue;
                }
                let run = &self.eps[eo + ep as usize];
                let spilled = run.spilled
                    && info
                        .spill_from
                        .is_some_and(|p| i as u32 >= dag.touches[ep as usize][p]);
                renames.push(Rename {
                    class: info.class,
                    virt: info.virt,
                    to: if spilled {
                        WetLoc::Reservoir(run.spill_slot)
                    } else {
                        loc_for(info.class, run.slot)
                    },
                });
            }
            renames.close_row();
        }
        renames
    }

    /// The schedule, once every node has run.
    fn finish(mut self) -> Schedule {
        let makespan = self.max_time;
        let mut busy = [0u64; 7];
        for h in &self.holds {
            busy[h.class as usize] += h.t1.unwrap_or(makespan).saturating_sub(h.t0);
        }
        let utilization = POOLED_CLASSES
            .iter()
            .map(|&c| {
                let p = self.pool.class(c).expect("pooled class");
                ClassPool::util_entry(p, busy[c as usize], makespan)
            })
            .collect();
        // Constraints grouped by target: each node's dependences, then
        // what the schedule added, in the order found.
        self.found.sort_by_key(|&(to, _, _)| to);
        let n = self.start.len();
        let deps: usize = self.dags.iter().map(|d| d.preds.item_count()).sum();
        let mut ins = Csr::with_capacity(n, deps + self.found.len());
        let mut found = self.found.iter().peekable();
        let mut jobs = Vec::with_capacity(self.dags.len());
        for (j, dag) in self.dags.iter().enumerate() {
            let off = self.job_offsets[j];
            for i in 0..dag.len {
                let gid = off + i as u32;
                for &a in &dag.preds[i] {
                    ins.push((off + a, 0));
                }
                while let Some(&(_, from, extra)) = found.next_if(|e| e.0 == gid) {
                    ins.push((from, extra));
                }
                ins.close_row();
            }
            let starts = &self.start[off as usize..off as usize + dag.len];
            // Stable by emission within ties; carry-ins last so a
            // handoff whose out and in land on the same instruction
            // parks before it rejoins.
            let mut spills = std::mem::take(&mut self.spills[j]);
            spills.sort_by_key(|s| (s.before_instr, u8::from(s.kind == RelocKind::CarryIn)));
            jobs.push(JobSchedule {
                entries: (starts.iter().zip(&dag.dur_s))
                    .map(|(&start_s, &dur_s)| Entry { start_s, dur_s })
                    .collect(),
                renames: self.renames(j),
                spills,
            });
        }
        Schedule {
            jobs,
            makespan_s: makespan,
            sequential_s: self.dags.iter().map(|d| d.sequential_s).sum(),
            critical_path_s: (self.dags.iter().map(|d| d.critical_path_s))
                .max()
                .unwrap_or(0),
            utilization,
            stats: self.stats,
            ins,
            order: self.order,
            holds: self.holds,
        }
    }
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
