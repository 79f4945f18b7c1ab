//! Rows, machines and the seeded assay variants every workload draws from.
//!
//! A *row* is one (assay, machine) pair. Variants keep each assay's
//! shape and redraw only its ratios: the enzyme rows redraw the dilution
//! factor of each of their three series, the other rows redraw their mix
//! parts. Draws are without replacement and exclude the unperturbed
//! ratios, so no two requests of a run share a cache key.

use std::collections::HashSet;

use aqua_rational::rng::XorShift64Star;
use aqua_volume::Machine;

/// The chip a row compiles for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chip {
    /// `Machine::paper_default()`: 32 reservoirs.
    Paper,
    /// The paper machine with 128 reservoirs and 64 input ports.
    Big,
}

impl Chip {
    pub fn machine(self) -> Machine {
        match self {
            Chip::Paper => Machine::paper_default(),
            Chip::Big => Machine::paper_default()
                .with_reservoirs(128)
                .with_input_ports(64),
        }
    }

    /// The request's `machine` member, or "" for the service default.
    pub fn wire(self) -> &'static str {
        match self {
            Chip::Paper => "",
            Chip::Big => ",\"machine\":{\"reservoirs\":128,\"input_ports\":64}",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Chip::Paper => "paper",
            Chip::Big => "big",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assay {
    Fig2,
    Glucose,
    Glycomics,
    /// The enzyme assay with `n` dilutions per series.
    Enzyme(u32),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    pub assay: Assay,
    pub chip: Chip,
}

pub const fn row(assay: Assay, chip: Chip) -> Row {
    Row { assay, chip }
}

impl Row {
    pub fn name(self) -> String {
        let assay = match self.assay {
            Assay::Fig2 => "fig2".to_owned(),
            Assay::Glucose => "glucose".to_owned(),
            Assay::Glycomics => "glycomics".to_owned(),
            Assay::Enzyme(n) => format!("enzyme{n}"),
        };
        format!("{assay}/{}", self.chip.name())
    }

    pub fn is_enzyme(self) -> bool {
        matches!(self.assay, Assay::Enzyme(_))
    }

    /// The unperturbed source text, as the repository's assays define it.
    pub fn source(self) -> String {
        base_source(self.assay)
    }
}

/// The seven front-door rows of `cold` (and the warm rows of `serve`).
pub const FRONT_DOOR_ROWS: [Row; 7] = [
    row(Assay::Fig2, Chip::Paper),
    row(Assay::Glucose, Chip::Paper),
    row(Assay::Glycomics, Chip::Paper),
    row(Assay::Enzyme(4), Chip::Paper),
    row(Assay::Enzyme(10), Chip::Paper),
    row(Assay::Enzyme(8), Chip::Big),
    row(Assay::Enzyme(10), Chip::Big),
];

/// The hand-written status table every run checks: the plan status of
/// each unperturbed (assay, machine) pair, with the solve method of the
/// solved ones.
pub const STATUS_TABLE: [(Row, &str); 14] = [
    (row(Assay::Fig2, Chip::Paper), "solved/DAGSolve"),
    (row(Assay::Glucose, Chip::Paper), "solved/DAGSolve"),
    (row(Assay::Glycomics, Chip::Paper), "partitioned"),
    (
        row(Assay::Enzyme(4), Chip::Paper),
        "solved/LP (after rewrites)",
    ),
    (row(Assay::Enzyme(6), Chip::Paper), "resources_exceeded"),
    (row(Assay::Enzyme(8), Chip::Paper), "resources_exceeded"),
    (row(Assay::Enzyme(10), Chip::Paper), "resources_exceeded"),
    (row(Assay::Fig2, Chip::Big), "solved/DAGSolve"),
    (row(Assay::Glucose, Chip::Big), "solved/DAGSolve"),
    (row(Assay::Glycomics, Chip::Big), "partitioned"),
    (
        row(Assay::Enzyme(4), Chip::Big),
        "solved/LP (after rewrites)",
    ),
    (
        row(Assay::Enzyme(6), Chip::Big),
        "solved/LP (after rewrites)",
    ),
    (row(Assay::Enzyme(8), Chip::Big), "needs_regeneration"),
    (row(Assay::Enzyme(10), Chip::Big), "needs_regeneration"),
];

/// The expected status of an unperturbed row.
pub fn expected_status(r: Row) -> &'static str {
    STATUS_TABLE
        .iter()
        .find(|(t, _)| *t == r)
        .map(|(_, s)| *s)
        .expect("row is in the status table")
}

/// Dilution factors the enzyme rows draw from (the paper's is 10).
const ENZYME_FACTORS: std::ops::RangeInclusive<u32> = 6..=13;

/// Size of the enzyme variant space: sorted triples of
/// [`ENZYME_FACTORS`], less the paper's.
pub const ENZYME_VARIANTS: usize = 119;

/// One assay's ratios, in source order: `(part, part, ...)` per mix
/// statement, or `(factor)` per dilution series of an enzyme assay.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Variant(Vec<Vec<u32>>);

impl Variant {
    /// The paper's ratios.
    pub fn base(assay: Assay) -> Variant {
        Variant(match assay {
            Assay::Fig2 => vec![vec![1, 4], vec![2, 1], vec![2, 1], vec![2, 3]],
            Assay::Glucose => vec![vec![1, 1], vec![1, 2], vec![1, 4], vec![1, 8], vec![1, 1]],
            Assay::Glycomics => vec![
                vec![1, 1],
                vec![1, 1],
                vec![1, 10],
                vec![1, 100, 1],
                vec![1, 1],
                vec![1, 1],
            ],
            Assay::Enzyme(_) => vec![vec![10]; 3],
        })
    }

    /// Every enzyme variant: sorted factor triples from 6..=13 (the
    /// three series are interchangeable, so a permutation would be the
    /// same canonical request), the paper's 10:10:10 excluded.
    fn enzyme_space() -> Vec<Variant> {
        let mut out = Vec::new();
        for a in ENZYME_FACTORS {
            for b in a..=*ENZYME_FACTORS.end() {
                for c in b..=*ENZYME_FACTORS.end() {
                    if [a, b, c] != [10, 10, 10] {
                        out.push(Variant(vec![vec![a], vec![b], vec![c]]));
                    }
                }
            }
        }
        out
    }

    /// Draws a variant of a non-enzyme assay. Glucose's four
    /// Glucose:Reagent mixes are interchangeable, so they are sorted.
    fn draw(assay: Assay, rng: &mut XorShift64Star) -> Variant {
        let pair = |rng: &mut XorShift64Star, a: u64, b: u64| loop {
            let p = rng.range_u64(1, a) as u32;
            let q = rng.range_u64(1, b) as u32;
            if gcd(p, q) == 1 {
                return vec![p, q];
            }
        };
        Variant(match assay {
            Assay::Fig2 => (0..4).map(|_| pair(rng, 4, 9)).collect(),
            Assay::Glucose => {
                let mut mixes: Vec<Vec<u32>> = (0..4).map(|_| pair(rng, 4, 9)).collect();
                mixes.sort();
                mixes.push(pair(rng, 4, 9));
                mixes
            }
            Assay::Glycomics => vec![
                pair(rng, 3, 3),
                pair(rng, 3, 3),
                pair(rng, 3, 15),
                vec![1, rng.range_u64(50, 150) as u32, 1],
                pair(rng, 3, 3),
                pair(rng, 3, 3),
            ],
            Assay::Enzyme(_) => unreachable!("enzyme variants are dealt from their space"),
        })
    }

    /// `count` distinct variants of `assay`, none equal to the base.
    /// Enzyme variants are a seeded deal from their whole space, so a
    /// `count` of [`ENZYME_VARIANTS`] uses every one of them.
    ///
    /// # Panics
    ///
    /// If `count` exceeds [`ENZYME_VARIANTS`] for an enzyme assay.
    pub fn draw_distinct(assay: Assay, count: usize, rng: &mut XorShift64Star) -> Vec<Variant> {
        if let Assay::Enzyme(_) = assay {
            let mut space = Variant::enzyme_space();
            assert!(count <= space.len(), "only {} enzyme variants", space.len());
            shuffle(&mut space, rng);
            space.truncate(count);
            return space;
        }
        let mut seen = HashSet::new();
        seen.insert(Variant::base(assay));
        let mut out = Vec::with_capacity(count);
        let mut tries = 0usize;
        while out.len() < count {
            tries += 1;
            assert!(
                tries < 1000 * (count + 10),
                "variant space of {assay:?} exhausted"
            );
            let v = Variant::draw(assay, rng);
            if seen.insert(v.clone()) {
                out.push(v);
            }
        }
        out
    }

    /// Renders the variant as assay source text: the repository's
    /// source of `assay` with its ratios replaced by the variant's.
    ///
    /// # Panics
    ///
    /// If the source has a different number of ratios than the variant,
    /// which means the repository's assay changed shape.
    pub fn source(&self, assay: Assay) -> String {
        let base = base_source(assay);
        let mut out = String::with_capacity(base.len() + 64);
        let mut ratios = self.0.iter();
        for line in base.split_inclusive('\n') {
            match assay {
                Assay::Enzyme(_) if line.contains("temp = temp * 10;") => {
                    let f = ratios.next().expect("a factor per series")[0];
                    out.push_str(&line.replace("temp * 10;", &format!("temp * {f};")));
                }
                Assay::Fig2 | Assay::Glucose | Assay::Glycomics if is_mix(line) => {
                    out.push_str(&with_ratio(line, ratios.next().expect("parts per mix")));
                }
                _ => out.push_str(line),
            }
        }
        assert!(
            ratios.next().is_none(),
            "{assay:?} has fewer ratios than its variant"
        );
        out
    }
}

/// The repository's source of an assay, with the paper's ratios.
fn base_source(assay: Assay) -> String {
    match assay {
        Assay::Fig2 => aqua_assays::figure2::SOURCE.to_owned(),
        Assay::Glucose => aqua_assays::glucose::SOURCE.to_owned(),
        Assay::Glycomics => aqua_assays::glycomics::SOURCE.to_owned(),
        Assay::Enzyme(n) => aqua_assays::enzyme::source_n(n),
    }
}

/// A `MIX` statement: `MIX ...` or `x = MIX ...`.
fn is_mix(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("MIX ") || t.contains("= MIX ")
}

/// A mix statement with its `IN RATIOS` clause set to `parts` (added
/// before `FOR` where the statement has none: such a mix is 1:1).
fn with_ratio(line: &str, parts: &[u32]) -> String {
    let ratio = parts
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(" : ");
    let at_for = line.find(" FOR ").expect("a mix states its duration");
    match line.find(" IN RATIOS ") {
        Some(at) => format!("{} IN RATIOS {ratio}{}", &line[..at], &line[at_for..]),
        None => format!("{} IN RATIOS {ratio}{}", &line[..at_for], &line[at_for..]),
    }
}

/// Checks that the paper's ratios, rendered as a variant, give the
/// request the repository's own assay gives: the same cache key.
pub fn check_base_variants(errors: &mut Vec<String>) {
    let machine = Chip::Paper.machine();
    let mut assays: Vec<Assay> = Vec::new();
    for (r, _) in STATUS_TABLE {
        if !assays.contains(&r.assay) {
            assays.push(r.assay);
        }
    }
    for a in assays {
        let key = |src: &str| {
            aqua_serve::Service::canon_src(src, &machine)
                .map(|c| c.key)
                .ok()
        };
        let repo = key(&base_source(a));
        if repo.is_none() || repo != key(&Variant::base(a).source(a)) {
            errors.push(format!(
                "inputs: the paper's ratios rendered as a {a:?} variant do not give the repository's assay"
            ));
        }
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A workload's generator: the run seed mixed with a per-use tag, so
/// workloads and their sub-lists draw independent streams.
pub fn rng(seed: u64, tag: u64) -> XorShift64Star {
    XorShift64Star::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShift64Star) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}
