//! Fluid contents of the wet datapath.
//!
//! Compositions are per run: the chip's fluid table names each input
//! fluid once ([`ChipState::fluid`]), and a location holds a short
//! vector of `(fluid id, picoliters)` sorted by id. A transfer then
//! moves plain numbers — no name is cloned or hashed — while each fluid
//! sees exactly the `f64` operations a map keyed by name would do:
//! `taken = v * share; v -= taken` on a split, `0.0 + v` for a new
//! constituent and `acc + v` for a present one on a merge. A sense
//! reading keeps the id-keyed vector; readers name it through the
//! run's table ([`ChipState::fluid_name`], [`ChipState::named`]).
//!
//! Test builds also carry every portion keyed by name, through the
//! same splits and merges, as a model to check readings against.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use aqua_ais::{Picoliters, WetLoc};

/// A fluid's index in its chip's fluid table.
pub type FluidId = u32;

/// A multiply-rotate hasher for keys the compiler and scheduler
/// generate (chip locations, units, DAG nodes), never text from an
/// assay, so SipHash's flooding resistance buys nothing there.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let mixed = self.0.rotate_left(5) ^ u64::from_le_bytes(word);
            self.0 = mixed.wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// The contents of one location: total volume plus composition by
/// original input fluid. Volumes are picoliters; composition uses `f64`
/// because ratio splits need not be integral per component.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Contents {
    /// Total volume in picoliters.
    pub volume_pl: Picoliters,
    /// Volume per constituent input fluid (picoliters, fractional),
    /// sorted by fluid id. A constituent stays listed once merged in,
    /// even after its share drains to zero.
    pub composition: Vec<(FluidId, f64)>,
    #[cfg(test)]
    pub(crate) model: HashMap<String, f64>,
}

impl Contents {
    /// Splits off `amount` picoliters, preserving composition
    /// proportions. Callers must check availability first.
    ///
    /// # Panics
    ///
    /// Panics if `amount > self.volume_pl`.
    pub fn split(&mut self, amount: Picoliters) -> Contents {
        assert!(amount <= self.volume_pl, "split exceeds contents");
        if self.volume_pl == 0 {
            return Contents::default();
        }
        let share = amount as f64 / self.volume_pl as f64;
        let composition = self
            .composition
            .iter_mut()
            .map(|(fluid, v)| {
                let taken = *v * share;
                *v -= taken;
                (*fluid, taken)
            })
            .collect();
        self.volume_pl -= amount;
        Contents {
            volume_pl: amount,
            composition,
            #[cfg(test)]
            model: (self.model.iter_mut())
                .map(|(name, v)| {
                    let taken = *v * share;
                    *v -= taken;
                    (name.clone(), taken)
                })
                .collect(),
        }
    }

    /// Merges another portion into this location.
    pub fn merge(&mut self, other: Contents) {
        #[cfg(test)]
        for (name, v) in other.model {
            *self.model.entry(name).or_insert(0.0) += v;
        }
        self.volume_pl += other.volume_pl;
        if self.composition.is_empty() {
            self.composition = other.composition;
            // `v + 0.0` is `0.0 + v`, a fresh constituent's sum.
            for (_, v) in &mut self.composition {
                *v += 0.0;
            }
            return;
        }
        for (fluid, v) in other.composition {
            match self.composition.binary_search_by_key(&fluid, |&(f, _)| f) {
                Ok(i) => self.composition[i].1 += v,
                Err(i) => self.composition.insert(i, (fluid, 0.0 + v)),
            }
        }
    }
}

/// All wet locations of the chip, and the run's fluid table.
#[derive(Debug, Clone, Default)]
pub struct ChipState {
    fluids: Vec<String>,
    contents: FastMap<WetLoc, Contents>,
    /// Sub-least-count residue lost in the channels (accumulated by
    /// [`ChipState::clear_residue`]), so the conservation identity
    /// `inputs = outputs + sensed + flushed + on-chip + residue` holds
    /// exactly.
    pub residue_pl: Picoliters,
}

impl ChipState {
    /// Creates an empty chip.
    pub fn new() -> ChipState {
        ChipState::default()
    }

    /// The id of the named fluid, adding it to the table on first use.
    pub fn fluid(&mut self, name: &str) -> FluidId {
        let id = match self.fluids.iter().position(|f| f == name) {
            Some(i) => i,
            None => {
                self.fluids.push(name.to_owned());
                self.fluids.len() - 1
            }
        };
        id as FluidId
    }

    /// The name of a fluid in the table (panics on an id it never
    /// gave out).
    pub fn fluid_name(&self, fluid: FluidId) -> &str {
        &self.fluids[fluid as usize]
    }

    /// A composition keyed by fluid name.
    pub fn named(&self, composition: &[(FluidId, f64)]) -> HashMap<String, f64> {
        (composition.iter())
            .map(|&(fluid, v)| (self.fluid_name(fluid).to_owned(), v))
            .collect()
    }

    /// A pure volume of the named fluid, which joins the table on
    /// first use.
    pub fn load(&mut self, name: &str, volume_pl: Picoliters) -> Contents {
        let fluid = self.fluid(name);
        Contents {
            volume_pl,
            composition: vec![(fluid, volume_pl as f64)],
            #[cfg(test)]
            model: HashMap::from([(name.to_owned(), volume_pl as f64)]),
        }
    }

    /// `volume_pl` of a mixture, from each fluid's share of it (sorted
    /// by fluid id).
    pub fn mixture(&self, shares: Vec<(FluidId, f64)>, volume_pl: Picoliters) -> Contents {
        let scale = |(fluid, share): (FluidId, f64)| (fluid, share * volume_pl as f64);
        Contents {
            volume_pl,
            #[cfg(test)]
            model: self.named(&shares.iter().copied().map(scale).collect::<Vec<_>>()),
            composition: shares.into_iter().map(scale).collect(),
        }
    }

    /// The composition at a location, keyed by fluid name (empty if
    /// untouched).
    pub fn composition(&self, loc: WetLoc) -> HashMap<String, f64> {
        self.contents
            .get(&loc)
            .map_or_else(HashMap::new, |c| self.named(&c.composition))
    }

    /// Volume at a location.
    pub fn volume(&self, loc: WetLoc) -> Picoliters {
        self.contents.get(&loc).map_or(0, |c| c.volume_pl)
    }

    /// Takes everything at a location.
    pub fn take_all(&mut self, loc: WetLoc) -> Contents {
        self.contents.remove(&loc).unwrap_or_default()
    }

    /// Takes `amount` from a location (caller checked availability).
    ///
    /// # Panics
    ///
    /// Panics if more than available is requested.
    pub fn take(&mut self, loc: WetLoc, amount: Picoliters) -> Contents {
        let Some(c) = self.contents.get_mut(&loc) else {
            return Contents::default().split(amount);
        };
        let out = c.split(amount);
        if c.volume_pl == 0 {
            self.contents.remove(&loc);
        }
        out
    }

    /// Deposits a portion at a location, returning the new volume.
    pub fn deposit(&mut self, loc: WetLoc, portion: Contents) -> Picoliters {
        let c = self.contents.entry(loc).or_default();
        c.merge(portion);
        c.volume_pl
    }

    /// Drops sub-least-count residue at a location (dead volume lost in
    /// the channels); keeps the state clean for reuse. The dropped
    /// volume is accumulated in [`ChipState::residue_pl`].
    pub fn clear_residue(&mut self, loc: WetLoc, least_count_pl: Picoliters) {
        if let Some(c) = self.contents.get(&loc) {
            if c.volume_pl < least_count_pl {
                self.residue_pl += c.volume_pl;
                self.contents.remove(&loc);
            }
        }
    }

    /// Total fluid currently on the chip (all locations), in pl.
    pub fn total_volume_pl(&self) -> Picoliters {
        self.contents.values().map(|c| c.volume_pl).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_preserves_proportions() {
        let mut chip = ChipState::new();
        let mut c = chip.load("A", 600);
        c.merge(chip.load("B", 400));
        let taken = c.split(500);
        assert_eq!(taken.volume_pl, 500);
        assert!((taken.composition[0].1 - 300.0).abs() < 1e-9);
        assert!((taken.composition[1].1 - 200.0).abs() < 1e-9);
        assert_eq!(c.volume_pl, 500);
    }

    #[test]
    fn fluid_table_names_compositions() {
        let mut chip = ChipState::new();
        let (b, a) = (chip.fluid("B"), chip.fluid("A"));
        assert_eq!((b, a, chip.fluid("B")), (0, 1, 0));
        let (a_load, b_load) = (chip.load("A", 100), chip.load("B", 300));
        assert_eq!((a_load.composition[0].0, b_load.composition[0].0), (a, b));
        chip.deposit(WetLoc::Mixer(1), a_load);
        chip.deposit(WetLoc::Mixer(1), b_load);
        let comp = chip.composition(WetLoc::Mixer(1));
        assert_eq!((comp["A"], comp["B"]), (100.0, 300.0));
        assert_eq!((chip.fluid_name(a), chip.fluid_name(b)), ("A", "B"));
        assert!(chip.composition(WetLoc::Mixer(2)).is_empty());
    }

    /// Random transfers among a few locations, replayed on a model that
    /// keys compositions by name: every fluid's value is bit-identical.
    #[test]
    fn transfers_match_a_name_keyed_model() {
        type Model = HashMap<String, f64>;
        fn split(m: &mut (u64, Model), amount: u64) -> (u64, Model) {
            if m.0 == 0 {
                return (0, Model::new());
            }
            let share = amount as f64 / m.0 as f64;
            let mut out = Model::new();
            for (k, v) in m.1.iter_mut() {
                let taken = *v * share;
                *v -= taken;
                out.insert(k.clone(), taken);
            }
            m.0 -= amount;
            (amount, out)
        }
        fn merge(m: &mut (u64, Model), other: (u64, Model)) {
            m.0 += other.0;
            for (k, v) in other.1 {
                *m.1.entry(k).or_insert(0.0) += v;
            }
        }
        let names = ["water", "A", "enzyme", "B", "buffer"];
        let mut rng = aqua_rational::rng::XorShift64Star::new(7);
        let mut chip = ChipState::new();
        let mut model: Vec<(u64, Model)> = vec![(0, Model::new()); 4];
        for _ in 0..2_000 {
            let to = rng.index(4);
            if rng.index(3) == 0 {
                let name = names[rng.index(names.len())];
                let pl = rng.range_u64(1, 50_000);
                let portion = chip.load(name, pl);
                chip.deposit(WetLoc::Reservoir(to as u32), portion);
                merge(&mut model[to], (pl, [(name.to_owned(), pl as f64)].into()));
            } else {
                let from = rng.index(4);
                let held = chip.volume(WetLoc::Reservoir(from as u32));
                let amount = rng.range_u64(0, held);
                let portion = chip.take(WetLoc::Reservoir(from as u32), amount);
                chip.deposit(WetLoc::Reservoir(to as u32), portion);
                let portion = split(&mut model[from], amount);
                merge(&mut model[to], portion);
            }
        }
        for (i, (volume, comp)) in model.iter().enumerate() {
            let loc = WetLoc::Reservoir(i as u32);
            assert_eq!(chip.volume(loc), *volume);
            let got = chip.composition(loc);
            if *volume == 0 {
                continue;
            }
            assert_eq!(got.len(), comp.len(), "{loc}");
            for (k, v) in comp {
                assert_eq!(got[k].to_bits(), v.to_bits(), "{loc} {k}");
            }
        }
    }

    #[test]
    fn take_and_deposit_roundtrip() {
        let mut chip = ChipState::new();
        let portion = chip.load("A", 1000);
        chip.deposit(WetLoc::Reservoir(1), portion);
        let portion = chip.take(WetLoc::Reservoir(1), 300);
        chip.deposit(WetLoc::Mixer(1), portion);
        assert_eq!(chip.volume(WetLoc::Reservoir(1)), 700);
        assert_eq!(chip.volume(WetLoc::Mixer(1)), 300);
    }

    #[test]
    fn take_all_empties() {
        let mut chip = ChipState::new();
        let portion = chip.load("A", 123);
        chip.deposit(WetLoc::Mixer(1), portion);
        let c = chip.take_all(WetLoc::Mixer(1));
        assert_eq!(c.volume_pl, 123);
        assert_eq!(chip.volume(WetLoc::Mixer(1)), 0);
    }

    #[test]
    fn residue_is_cleared_below_least_count() {
        let mut chip = ChipState::new();
        let portion = chip.load("A", 40);
        chip.deposit(WetLoc::Reservoir(2), portion);
        chip.clear_residue(WetLoc::Reservoir(2), 100);
        assert_eq!(chip.volume(WetLoc::Reservoir(2)), 0);
        // Dead volume is accounted, not silently lost.
        assert_eq!(chip.residue_pl, 40);
        let portion = chip.load("A", 140);
        chip.deposit(WetLoc::Reservoir(2), portion);
        chip.clear_residue(WetLoc::Reservoir(2), 100);
        assert_eq!(chip.volume(WetLoc::Reservoir(2)), 140);
        assert_eq!(chip.residue_pl, 40);
    }

    #[test]
    fn total_volume_sums_all_locations() {
        let mut chip = ChipState::new();
        let portion = chip.load("A", 300);
        chip.deposit(WetLoc::Reservoir(1), portion);
        let portion = chip.load("B", 200);
        chip.deposit(WetLoc::Mixer(1), portion);
        assert_eq!(chip.total_volume_pl(), 500);
    }

    #[test]
    #[should_panic(expected = "split exceeds contents")]
    fn overdraw_panics() {
        let mut c = ChipState::new().load("A", 10);
        let _ = c.split(11);
    }
}
