//! The host's speed at the moment, read from a fixed reference kernel.
//!
//! On a shared host the speed of memory-heavy code drifts by up to 1.7x
//! over seconds to minutes while the program does not change: a whole
//! run can land in a fast or a slow spell. Each workload therefore runs
//! this kernel at fixed points of its timed phase, between operations,
//! and scales every time it reports by `REFERENCE_MS / median kernel
//! time`, so a time reads as it would on a host where the kernel takes
//! [`REFERENCE_MS`]. The raw wall-clock figures are reported beside the
//! scaled ones.
//!
//! The kernel runs no program code and allocates nothing after it is
//! built, so a change to the program moves it only through the cache
//! state the kernel finds. Its mix of
//! pointer chasing, sorting and hashing over about 2 MiB resembles the
//! program's own work, and its median over a run tracks the run's
//! speed: over ten 30-second runs of each workload in a turbulent
//! spell, the spread (IQR/median) of the latency metric fell from 0.06
//! wall to 0.03 scaled on `cold`, 0.10 to 0.04 on `serve` and 0.19 to
//! 0.07 on `exec`.

use std::time::Instant;

/// Only a scale: about the kernel's time on a 2-vCPU Xeon (Sapphire
/// Rapids) KVM guest in a fast spell, where scaled times then read
/// close to wall times.
pub const REFERENCE_MS: f64 = 4.0;

/// Kernel passes per second of timed phase (each takes 4-7 ms).
pub const PER_SECOND: u64 = 4;

const TREE_KEYS: usize = 16 * 1024;
const SORT_KEYS: usize = 64 * 1024;
const HASH_SLOTS: usize = 128 * 1024;
const HASH_KEYS: usize = 60 * 1024;

/// xorshift64: the kernel's own generator, so that it shares no code
/// with the program.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The reference kernel and its timings so far.
pub struct RefSpeed {
    rng: XorShift,
    /// Unbalanced binary search tree: (key, left, right), 0 = none.
    tree: Vec<(u64, u32, u32)>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
    /// Wall time of each kernel pass, in ms.
    pub samples_ms: Vec<f64>,
}

impl RefSpeed {
    pub fn new() -> RefSpeed {
        let mut rng = XorShift(0x005E_ED0F_5EED);
        let keys = (0..SORT_KEYS).map(|_| rng.next_u64()).collect();
        RefSpeed {
            rng,
            tree: Vec::with_capacity(TREE_KEYS + 1),
            keys,
            sorted: vec![0; SORT_KEYS],
            table: vec![0; HASH_SLOTS],
            samples_ms: Vec::new(),
        }
    }

    /// Runs the kernel once and records its wall time.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let sink = self.tree_inserts() ^ self.sort() ^ self.hash_inserts();
        std::hint::black_box(sink);
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Median kernel time in ms (the reference time if never sampled).
    pub fn median_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            REFERENCE_MS
        } else {
            crate::report::median(&self.samples_ms)
        }
    }

    /// Multiplier that turns a wall time of this run into a time at the
    /// reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }

    fn tree_inserts(&mut self) -> u64 {
        self.tree.clear();
        self.tree.push((0, 0, 0));
        for _ in 0..TREE_KEYS {
            let key = self.rng.next_u64();
            let new = self.tree.len() as u32;
            self.tree.push((key, 0, 0));
            if new == 1 {
                continue;
            }
            let mut at = 1usize;
            loop {
                let (k, l, r) = self.tree[at];
                let next = if key < k { l } else { r };
                if next == 0 {
                    if key < k {
                        self.tree[at].1 = new;
                    } else {
                        self.tree[at].2 = new;
                    }
                    break;
                }
                at = next as usize;
            }
        }
        self.tree[self.tree.len() / 2].0
    }

    fn sort(&mut self) -> u64 {
        let salt = self.rng.next_u64();
        for (s, k) in self.sorted.iter_mut().zip(&self.keys) {
            *s = k ^ salt;
        }
        self.sorted.sort_unstable();
        self.sorted[SORT_KEYS / 2]
    }

    fn hash_inserts(&mut self) -> u64 {
        self.table.fill(0);
        let mask = HASH_SLOTS - 1;
        let mut repeats = 0;
        for _ in 0..HASH_KEYS {
            let key = self.rng.next_u64() | 1;
            let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
            loop {
                if self.table[at] == 0 {
                    self.table[at] = key;
                    break;
                }
                if self.table[at] == key {
                    repeats += 1;
                    break;
                }
                at = (at + 1) & mask;
            }
        }
        repeats
    }
}
