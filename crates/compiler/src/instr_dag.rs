//! The scheduling analysis of a compiled plan: the dependence DAG of
//! its AIS program, with durations, critical-path priorities and the
//! episodes (occupancy lifetimes) of every virtual unit. It depends on
//! the program and volume plan alone, so a [`CompileOutput`] builds it
//! once, on first use ([`CompileOutput::instr_dag`]). `aqua_sim::sched`
//! schedules from it; its docs explain episodes and carry homes.

use std::collections::HashMap;

use aqua_ais::{DryReg, DrySrc, Instr, ResourceClass, WetLoc};

use crate::{CompileOutput, PlannedVolume};

/// One occupancy lifetime of a virtual location. Its touches are
/// [`InstrDag::touches`]`[episode]`.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Resource class of the location.
    pub class: ResourceClass,
    /// Virtual unit index in the program text.
    pub virt: u32,
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
    /// Position in the episode's touches where a pure-drain suffix
    /// begins: from here on the episode is only ever a transfer
    /// source, so between `touches[spill_from - 1]` completing and
    /// `touches[spill_from]` issuing the fluid is parked and may be
    /// spilled to storage.
    pub spill_from: Option<usize>,
}

/// The dependency DAG of one compiled program, with everything the
/// list scheduler needs: durations, critical-path priorities, and the
/// episode structure. Building it is pure analysis, so every instance
/// of the plan, in any batch, can share one (see
/// [`CompileOutput::instr_dag`]).
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
    /// Program indices touching each episode, ascending: the transpose
    /// of `instr_eps`.
    pub touches: Csr<u32>,
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

/// Per-row lists stored flat: row `i`'s items are
/// `items[head[i]..head[i + 1]]`, one allocation for every row.
#[derive(Debug, Clone)]
pub struct Csr<T> {
    head: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// No rows yet, room for `rows` rows of `items` items in all; rows
    /// are filled in order by pushing items and closing each row.
    pub fn with_capacity(rows: usize, items: usize) -> Csr<T> {
        let mut head = Vec::with_capacity(rows + 1);
        head.push(0);
        Csr {
            head,
            items: Vec::with_capacity(items),
        }
    }

    /// Rows given whole: row `i` is `items[head[i]..head[i + 1]]`.
    pub fn from_parts(head: Vec<u32>, items: Vec<T>) -> Csr<T> {
        debug_assert_eq!(head.first(), Some(&0));
        debug_assert_eq!(head.last().copied(), Some(items.len() as u32));
        Csr { head, items }
    }

    /// Adds an item to the row being filled.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Ends the row being filled.
    pub fn close_row(&mut self) {
        self.head.push(self.items.len() as u32);
    }

    /// Items in all rows.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }
}

impl Csr<u32> {
    /// The transpose over `m` rows: row `r` lists, ascending, every row
    /// of `self` that holds `r`.
    fn transpose(&self, m: usize) -> Csr<u32> {
        let mut head = vec![0u32; m + 1];
        for &r in &self.items {
            head[r as usize + 1] += 1;
        }
        for k in 0..m {
            head[k + 1] += head[k];
        }
        let mut fill = head[..m].to_vec();
        let mut items = vec![0u32; self.items.len()];
        for row in 0..self.head.len().saturating_sub(1) {
            for &r in &self[row] {
                items[fill[r as usize] as usize] = row as u32;
                fill[r as usize] += 1;
            }
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
    /// each instruction's few dependence sources.
    pub fn build(out: &CompileOutput) -> InstrDag {
        const NONE: u32 = u32::MAX;
        let instrs = out.program.instrs();
        let n = instrs.len();
        let plan = &out.volume_plan;

        // Per class and virtual unit: its open and its latest episode.
        let mut units: [Vec<(u32, u32)>; 7] = Default::default();
        let mut carry_units: Vec<(ResourceClass, u32)> = Vec::new();
        let mut class_counts = [0u32; 7];

        let mut episodes: Vec<Episode> = Vec::new();
        // Per episode: its latest touch, its touch count, and where its
        // pure-drain suffix of touches begins.
        let mut ep_touch: Vec<(u32, usize, usize)> = Vec::new();
        let mut instr_eps: Csr<u32> = Csr::with_capacity(n, 2 * n);
        // Every dependence edge found at an instruction ends there, so
        // its sources, sorted and deduplicated, are its predecessors.
        let mut preds: Csr<u32> = Csr::with_capacity(n, 2 * n);
        let mut sources: Vec<u32> = Vec::new();
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
                        sources.push(last);
                    }
                }
            }
            // Run-time dispensing (§3.5) solves against the volume
            // measurements of earlier separations: conservatively
            // depend on every separation emitted before this point.
            if let Some(PlannedVolume::Runtime { .. }) = plan.get(i) {
                let before = seps.partition_point(|&sep| sep < i);
                sources.extend(seps[..before].iter().map(|&sep| sep as u32));
            }
            for (loc, mut effect) in effects(instr, plan.get(i)).into_iter().flatten() {
                let class = loc.class();
                let units = &mut units[class as usize];
                let unit = loc.unit_index() as usize;
                if unit >= units.len() {
                    units.resize(unit + 1, (NONE, NONE));
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
                        closed: false,
                        metered_close: false,
                        prev: (*latest != NONE).then_some(*latest),
                        class_ord: *ord,
                        spill_from: None,
                    });
                    *ord += 1;
                    ep_touch.push((NONE, 0, 0));
                    *open = episodes.len() as u32 - 1;
                    *latest = *open;
                }
                let ep = *open;
                let epi = ep as usize;
                let (last, count, drain_from) = &mut ep_touch[epi];
                if *last != idx {
                    if *last != NONE {
                        sources.push(*last);
                    }
                    *last = idx;
                    *count += 1;
                    if !matches!(effect, Effect::Read | Effect::Empty { .. }) {
                        *drain_from = *count;
                    }
                    instr_eps.push(ep);
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
            instr_eps.close_row();
            sources.sort_unstable();
            sources.dedup();
            debug_assert!(sources.iter().all(|&a| a < idx), "edges run forward");
            preds.items.append(&mut sources);
            preds.close_row();
        }

        // Port episodes release after their last touch (nothing is
        // stored at a port); spill windows exist only for units whose
        // parked product is purely waiting to drain.
        for (ep, &(_, touches, p)) in episodes.iter_mut().zip(&ep_touch) {
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
                && p < touches
            {
                ep.spill_from = Some(p);
            }
        }

        carry_units.sort_unstable();
        carry_units.dedup();
        let succs = preds.transpose(n);
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
            touches: instr_eps.transpose(episodes.len()),
            episodes,
            instr_eps,
            carry_units,
            sequential_s,
            critical_path_s,
        }
    }

    /// An episode's program-order span for the allocator fence: first
    /// touch to last touch, unbounded while it never closes.
    pub fn span(&self, ep: u32) -> (u32, u32) {
        let touches = &self.touches[ep as usize];
        let last = if self.episodes[ep as usize].closed {
            touches[touches.len() - 1]
        } else {
            u32::MAX
        };
        (touches[0], last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_volume::Machine;

    fn compiled(src: &str) -> CompileOutput {
        let machine = Machine::paper_default()
            .with_reservoirs(128)
            .with_input_ports(64);
        crate::compile(src, &machine, &crate::CompileOptions::default())
            .expect("test program compiles")
    }

    #[test]
    fn enzyme_episodes_close_and_carry() {
        let out = compiled(&aqua_assays::Benchmark::Enzyme.source());
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
        let out = compiled(&aqua_assays::Benchmark::Glycomics.source());
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
        let out = compiled(&aqua_assays::Benchmark::EnzymeN(4).source());
        let dag = InstrDag::build(&out);
        let mut last_first: HashMap<ResourceClass, (u32, u32)> = HashMap::new();
        for (e, ep) in dag.episodes.iter().enumerate() {
            let first = *dag.touches[e].first().expect("episodes are touched");
            if let Some(&(prev_ord, prev_first)) = last_first.get(&ep.class) {
                assert_eq!(ep.class_ord, prev_ord + 1, "ordinals are dense");
                assert!(prev_first <= first, "ordinals follow first touches");
            } else {
                assert_eq!(ep.class_ord, 0);
            }
            last_first.insert(ep.class, (ep.class_ord, first));
        }
    }

    /// The carried analysis is built once, on first use, and equals a
    /// fresh build.
    #[test]
    fn the_carried_analysis_is_built_once() {
        let out = compiled(&aqua_assays::Benchmark::EnzymeN(4).source());
        let first = out.instr_dag();
        assert!(std::ptr::eq(first, out.instr_dag()), "no rebuild");
        assert_eq!(format!("{first:?}"), format!("{:?}", InstrDag::build(&out)));
    }
}
