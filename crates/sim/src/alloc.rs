//! Chip resource allocation: RegisterPool-style free lists.
//!
//! The scheduler treats every interchangeable location class — mixers,
//! heaters, separators, sensors, reservoirs, input ports — as a pool of
//! allocatable *slots*, exactly like a CPU backend's register classes.
//! A program's virtual unit indices (codegen emits `mixer1` for every
//! mix) are renamed onto physical slots at schedule time; the pool
//! hands out slots with deterministic tie-breaks (prefer the virtual
//! index, else the lowest free slot id) so the same input always
//! produces the same schedule.
//!
//! # The program-order fence
//!
//! The scheduled executor replays instructions in *original program
//! order* with renamed locations (see `crate::sched` for why). Two
//! episodes of the **same job** may therefore share a physical slot
//! only if their program-order touch ranges are disjoint — otherwise
//! the sequential replay would interleave two unrelated fluids at the
//! shared location even though their schedule-time windows are
//! disjoint. (The scheduler guarantees every closed episode leaves its
//! slot replay-empty: `take_all` closes drain it, metered closes are
//! swept by a carry-out — so disjointness in either direction is safe.)
//! Each pool records the occupied program-order spans per slot and
//! rejects overlapping same-job allocations; episodes of *different*
//! jobs never conflict (each assay instance replays independently).

use aqua_ais::ResourceClass;
use aqua_volume::Machine;

use crate::state::FastMap;

/// Identifies the assay instance an episode belongs to. Slot reuse
/// across different jobs carries no program-order hazard.
pub type JobId = u32;

/// A released slot plus its physical-availability time and the release
/// edge left by its previous occupant (`None` = never occupied).
#[derive(Debug, Clone, Copy)]
struct FreeSlot {
    slot: u32,
    /// Schedule time at which the slot is physically empty again (a
    /// spill keeps the old slot busy for the transfer second).
    free_at: u64,
    /// `(release_node, release_extra_s)` of the previous occupant:
    /// the global schedule node whose completion freed the slot (for
    /// resource-serialization edges), delayed by `release_extra_s`.
    after: Option<(u32, u64)>,
}

/// The free list of one resource class.
#[derive(Debug)]
pub struct ClassPool {
    class: ResourceClass,
    /// Free slots, kept sorted by slot id (deterministic picks).
    free: Vec<FreeSlot>,
    /// Program-order spans `(first_touch, last_touch)` every past
    /// occupant of a slot covered, per job — the fence data. Sorted by
    /// `first_touch` (same-job spans are pairwise disjoint).
    spans: FastMap<(u32, JobId), Vec<(u32, u32)>>,
    total: u32,
    in_use: u32,
    /// High-water mark of concurrently allocated slots.
    pub peak_in_use: u32,
    /// Total allocations served.
    pub allocs: u64,
    /// Allocation attempts that found no (valid) free slot.
    pub misses: u64,
}

/// The serialization constraint a successful allocation inherits from
/// the slot's previous occupant: the new episode's first instruction
/// may not start before the releasing node finished (plus any spill
/// latency).
#[derive(Debug, Clone, Copy)]
pub struct SlotGrant {
    /// The physical slot index (1-based, as in AIS syntax).
    pub slot: u32,
    /// `(release_node, extra_s)` of the previous occupant, if any.
    pub after: Option<(u32, u64)>,
}

impl ClassPool {
    /// A pool with slots `1..=total`, all free.
    pub fn new(class: ResourceClass, total: u32) -> ClassPool {
        ClassPool {
            class,
            free: (1..=total)
                .map(|slot| FreeSlot {
                    slot,
                    free_at: 0,
                    after: None,
                })
                .collect(),
            spans: FastMap::default(),
            total,
            in_use: 0,
            peak_in_use: 0,
            allocs: 0,
            misses: 0,
        }
    }

    /// The class this pool serves.
    pub fn class(&self) -> ResourceClass {
        self.class
    }

    /// Total slots in the inventory.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Free slots right now (ignoring fences).
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    fn valid(&self, f: &FreeSlot, job: JobId, span: (u32, u32), now: u64) -> bool {
        if f.free_at > now {
            return false;
        }
        let Some(spans) = self.spans.get(&(f.slot, job)) else {
            return true;
        };
        // Same-job spans are disjoint and sorted by first touch, so
        // only the last span starting at or before `span.1` can
        // overlap `[span.0, span.1]`.
        let p = spans.partition_point(|s| s.0 <= span.1);
        p == 0 || spans[p - 1].1 < span.0
    }

    /// Whether at least `cnt` free slots could legally take a `job`
    /// episode covering program-order `span = (first_touch,
    /// last_touch)` at schedule time `now` (fence-aware feasibility
    /// check); stops at the `cnt`-th.
    pub(crate) fn has_valid(&self, job: JobId, span: (u32, u32), now: u64, cnt: usize) -> bool {
        (self.free.iter())
            .filter(|f| self.valid(f, job, span, now))
            .take(cnt)
            .count()
            == cnt
    }

    /// Allocates a slot for an episode of `job` covering program-order
    /// `span = (first_touch, last_touch)` — pass `u32::MAX` as the last
    /// touch for an episode that never closes — at schedule time `now`.
    /// Prefers `preferred` (the virtual index — keeping renames close
    /// to identity keeps fences moot), else the lowest valid slot id.
    /// Returns `None` when no valid slot is free.
    pub fn alloc(
        &mut self,
        job: JobId,
        span: (u32, u32),
        now: u64,
        preferred: Option<u32>,
    ) -> Option<SlotGrant> {
        let pick = preferred
            .and_then(|p| {
                self.free
                    .iter()
                    .position(|f| f.slot == p && self.valid(f, job, span, now))
            })
            .or_else(|| self.free.iter().position(|f| self.valid(f, job, span, now)));
        let Some(i) = pick else {
            self.misses += 1;
            return None;
        };
        let f = self.free.remove(i);
        self.in_use += 1;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        self.allocs += 1;
        Some(SlotGrant {
            slot: f.slot,
            after: f.after,
        })
    }

    /// Returns a slot to the free list, recording when it is physically
    /// empty again, the program-order span its occupant covered, and
    /// the schedule node whose completion released it.
    pub fn release(
        &mut self,
        slot: u32,
        free_at: u64,
        job: JobId,
        span: (u32, u32),
        release_node: u32,
        extra_s: u64,
    ) {
        let pos = self
            .free
            .binary_search_by_key(&slot, |f| f.slot)
            .unwrap_or_else(|p| p);
        self.free.insert(
            pos,
            FreeSlot {
                slot,
                free_at,
                after: Some((release_node, extra_s)),
            },
        );
        let spans = self.spans.entry((slot, job)).or_default();
        let at = spans.partition_point(|s| s.0 <= span.0);
        spans.insert(at, span);
        self.in_use = self.in_use.saturating_sub(1);
    }
}

/// All allocatable pools of one chip, sized from the [`Machine`]
/// inventory. Output ports are deliberately unpooled: they are
/// collection vessels off the wet datapath and never exclusive.
#[derive(Debug)]
pub struct SlotPool {
    pools: Vec<ClassPool>,
}

/// The allocatable classes, in pool order.
pub const POOLED_CLASSES: [ResourceClass; 6] = [
    ResourceClass::Reservoir,
    ResourceClass::Mixer,
    ResourceClass::Heater,
    ResourceClass::Separator,
    ResourceClass::Sensor,
    ResourceClass::InputPort,
];

impl SlotPool {
    /// Builds the pools from a machine's inventory.
    pub fn from_machine(machine: &Machine) -> SlotPool {
        let count = |c: ResourceClass| -> u32 {
            (match c {
                ResourceClass::Reservoir => machine.reservoirs,
                ResourceClass::Mixer => machine.mixers,
                ResourceClass::Heater => machine.heaters,
                ResourceClass::Separator => machine.separators,
                ResourceClass::Sensor => machine.sensors,
                ResourceClass::InputPort => machine.input_ports,
                ResourceClass::OutputPort => 0,
            }) as u32
        };
        SlotPool {
            pools: POOLED_CLASSES
                .iter()
                .map(|&c| ClassPool::new(c, count(c)))
                .collect(),
        }
    }

    /// The pool for a class (`None` for output ports).
    pub fn class(&self, class: ResourceClass) -> Option<&ClassPool> {
        POOLED_CLASSES
            .iter()
            .position(|&c| c == class)
            .map(|i| &self.pools[i])
    }

    /// Mutable access to a class pool (`None` for output ports).
    pub fn class_mut(&mut self, class: ResourceClass) -> Option<&mut ClassPool> {
        POOLED_CLASSES
            .iter()
            .position(|&c| c == class)
            .map(|i| &mut self.pools[i])
    }

    /// Iterates the pools in canonical class order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassPool> {
        self.pools.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_prefers_virtual_identity_then_lowest() {
        let mut p = ClassPool::new(ResourceClass::Mixer, 3);
        assert_eq!(p.alloc(0, (5, 5), 0, Some(2)).unwrap().slot, 2);
        // Preferred slot taken: falls back to the lowest free id.
        assert_eq!(p.alloc(0, (6, 6), 0, Some(2)).unwrap().slot, 1);
        assert_eq!(p.alloc(0, (7, 7), 0, None).unwrap().slot, 3);
        assert!(p.alloc(0, (8, 8), 0, None).is_none());
        assert_eq!(p.peak_in_use, 3);
        assert_eq!(p.misses, 1);
    }

    #[test]
    fn program_order_fence_blocks_same_job_overlap() {
        let mut p = ClassPool::new(ResourceClass::Reservoir, 1);
        let g = p.alloc(0, (10, 50), 0, None).unwrap();
        assert_eq!(g.slot, 1);
        // Released at t=60 by an episode spanning program order 10..50.
        p.release(1, 60, 0, (10, 50), 7, 0);
        // Not physically free before t=60.
        assert!(!p.has_valid(0, (51, 60), 59, 1));
        // A same-job episode overlapping 10..50 in program order is
        // rejected even after t=60.
        assert!(p.alloc(0, (20, 55), 60, None).is_none());
        assert!(!p.has_valid(0, (20, 55), 60, 1));
        assert!(p.alloc(0, (5, 10), 60, None).is_none());
        // A different job, or a program-order-disjoint same-job
        // episode (either side), is fine — and inherits the
        // serialization edge against the releasing node.
        assert!(p.has_valid(1, (20, 55), 60, 1));
        assert!(p.has_valid(0, (51, 60), 60, 1));
        assert!(p.has_valid(0, (2, 9), 60, 1));
        let g = p.alloc(1, (20, 55), 60, None).unwrap();
        assert_eq!(g.after, Some((7, 0)));
        p.release(1, 80, 1, (20, 55), 9, 1);
        let g = p.alloc(0, (51, 60), 80, None).unwrap();
        assert_eq!(g.after, Some((9, 1)));
        // Both spans are now fenced: 10..50 (job 0) and 20..55 (job 1).
        p.release(1, 90, 0, (51, 60), 11, 0);
        assert!(p.has_valid(0, (2, 9), 90, 1));
        assert!(p.has_valid(0, (61, 70), 90, 1));
        assert!(!p.has_valid(0, (9, 10), 90, 1));
        assert!(!p.has_valid(1, (55, 70), 90, 1));
    }

    #[test]
    fn machine_inventory_sizes_the_pools() {
        let m = Machine::paper_default().with_mixers(5).with_reservoirs(7);
        let pool = SlotPool::from_machine(&m);
        assert_eq!(pool.class(ResourceClass::Mixer).unwrap().total(), 5);
        assert_eq!(pool.class(ResourceClass::Reservoir).unwrap().total(), 7);
        assert!(pool.class(ResourceClass::OutputPort).is_none());
    }
}
