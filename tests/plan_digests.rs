//! Golden plan digests.
//!
//! Pins the FNV-1a 64 digest of the plan document `compile_plan`
//! renders for every row of the paper's status table (figure 2,
//! glucose, glycomics and the enzyme assay at 4/6/8/10 dilutions, on the
//! paper machine and on a 128-reservoir / 64-port machine) and for a
//! seeded sample of enzyme variants whose three dilution series use
//! other factors than the paper's 10. A plan carries the rewritten DAG,
//! the exact volumes and the hierarchy's solve log, so any change to the
//! Fig. 6 loop that moves a single byte of any plan fails here.

use aqua_obs::Obs;
use aqua_rational::rng::XorShift64Star;
use aqua_serve::{compile_plan, Service};
use aqua_volume::Machine;

fn machine(chip: &str) -> Machine {
    match chip {
        "paper" => Machine::paper_default(),
        "big" => Machine::paper_default()
            .with_reservoirs(128)
            .with_input_ports(64),
        other => panic!("unknown machine {other}"),
    }
}

fn source(assay: &str) -> String {
    match assay {
        "fig2" => aqua_assays::figure2::SOURCE.to_owned(),
        "glucose" => aqua_assays::glucose::SOURCE.to_owned(),
        "glycomics" => aqua_assays::glycomics::SOURCE.to_owned(),
        enzyme => {
            let n = enzyme
                .strip_prefix("enzyme")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("unknown assay {enzyme}"));
            aqua_assays::enzyme::source_n(n)
        }
    }
}

/// The enzyme assay with `n` dilutions per series, its three series
/// diluted by `factors` instead of 10.
fn enzyme_variant(n: u32, factors: [u32; 3]) -> String {
    let base = aqua_assays::enzyme::source_n(n);
    let mut factors = factors.iter();
    let mut out = String::with_capacity(base.len());
    for line in base.split_inclusive('\n') {
        if line.contains("temp = temp * 10;") {
            let f = factors.next().expect("three dilution series");
            out.push_str(&line.replace("temp * 10;", &format!("temp * {f};")));
        } else {
            out.push_str(line);
        }
    }
    assert!(factors.next().is_none(), "enzyme source has three series");
    out
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The plan's status member (`solved`, `partitioned`, ...).
fn status(plan: &str) -> &str {
    let rest = plan
        .strip_prefix("{\"status\":\"")
        .expect("plans open with their status");
    &rest[..rest.find('"').expect("closed status string")]
}

fn plan(src: &str, chip: &str) -> String {
    let machine = machine(chip);
    let canon = Service::canon_src(src, &machine).expect("assay compiles");
    compile_plan(&canon, &machine, &Obs::off())
}

/// `(assay, machine, status, digest)` for the unperturbed assays.
const STATUS_ROWS: [(&str, &str, &str, u64); 14] = [
    ("fig2", "paper", "solved", 0x9e5e19e02b5af8cf),
    ("glucose", "paper", "solved", 0x4e5773e4be4d15c6),
    ("glycomics", "paper", "partitioned", 0x146cf7e15ac42c9e),
    ("enzyme4", "paper", "solved", 0x8f4cc1d74ea80837),
    ("enzyme6", "paper", "resources_exceeded", 0x58560dfe7d4c168c),
    ("enzyme8", "paper", "resources_exceeded", 0xeafd92598ee59d7a),
    (
        "enzyme10",
        "paper",
        "resources_exceeded",
        0x36d4a5179c80b6e8,
    ),
    ("fig2", "big", "solved", 0x9e5e19e02b5af8cf),
    ("glucose", "big", "solved", 0x4e5773e4be4d15c6),
    ("glycomics", "big", "partitioned", 0x146cf7e15ac42c9e),
    ("enzyme4", "big", "solved", 0x8f4cc1d74ea80837),
    ("enzyme6", "big", "solved", 0x0ff0dc40c380c2e6),
    ("enzyme8", "big", "needs_regeneration", 0x48aa793dacc2a0b4),
    ("enzyme10", "big", "needs_regeneration", 0x8af2b5b3b635d8e9),
];

#[test]
fn status_table_plans_are_pinned() {
    let mut wrong = Vec::new();
    for (assay, chip, want_status, want) in STATUS_ROWS {
        let p = plan(&source(assay), chip);
        let got = fnv64(p.as_bytes());
        if status(&p) != want_status || got != want {
            wrong.push(format!(
                "{assay}/{chip}: {} {got:#018x}, pinned {want_status} {want:#018x}",
                status(&p)
            ));
        }
    }
    assert!(wrong.is_empty(), "plans moved:\n{}", wrong.join("\n"));
}

/// Seed of the enzyme variant sample below.
const VARIANT_SEED: u64 = 0x00E1_2A7E;

/// The seeded variant sample, in draw order, with each plan's status and
/// digest. Dilution factors are drawn from 6..=13 (the paper's 10:10:10
/// excluded), assay sizes from {4, 6, 8, 10} dilutions, machines from
/// {paper, big}.
const VARIANTS: [(u32, &str, [u32; 3], &str, u64); 18] = [
    (
        8,
        "big",
        [13, 12, 7],
        "needs_regeneration",
        0x2a62b5b927161d66,
    ),
    (6, "big", [6, 10, 9], "solved", 0xe292d3201b7500d5),
    (4, "big", [13, 8, 12], "solved", 0xbc3ef0addd68de10),
    (6, "big", [13, 6, 10], "solved", 0x2e1030f0011fab2c),
    (
        8,
        "big",
        [8, 6, 10],
        "needs_regeneration",
        0x9d58902f5569961b,
    ),
    (
        6,
        "paper",
        [10, 9, 12],
        "resources_exceeded",
        0x5002e6a8cab205db,
    ),
    (
        6,
        "paper",
        [6, 12, 12],
        "resources_exceeded",
        0x4cb8f3e941a85764,
    ),
    (
        10,
        "paper",
        [13, 7, 12],
        "resources_exceeded",
        0xced22108f7d77153,
    ),
    (
        8,
        "big",
        [9, 12, 10],
        "needs_regeneration",
        0x4797856805cd58ff,
    ),
    (4, "paper", [10, 6, 11], "solved", 0x87f70d1c428fcafc),
    (6, "big", [6, 6, 6], "solved", 0xe060fdca888fe59b),
    (4, "big", [11, 11, 7], "solved", 0x919d55042a1abe3c),
    (
        10,
        "big",
        [9, 12, 12],
        "needs_regeneration",
        0xf12f40fcebae6ad8,
    ),
    (4, "big", [13, 13, 13], "solved", 0x39fb036d1d9a3891),
    (
        10,
        "big",
        [11, 7, 8],
        "needs_regeneration",
        0xa148ccc789c4317c,
    ),
    (
        10,
        "paper",
        [11, 11, 11],
        "resources_exceeded",
        0x0fbc246dc306da5b,
    ),
    (
        10,
        "big",
        [10, 11, 13],
        "needs_regeneration",
        0x4100546b3a92422b,
    ),
    (
        10,
        "big",
        [8, 13, 7],
        "needs_regeneration",
        0x7a81ec8896738c24,
    ),
];

fn draw_variants(count: usize) -> Vec<(u32, &'static str, [u32; 3])> {
    let mut rng = XorShift64Star::new(VARIANT_SEED);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let n = [4, 6, 8, 10][rng.index(4)];
        let chip = ["paper", "big"][rng.index(2)];
        let mut f = || rng.range_u64(6, 13) as u32;
        let factors = [f(), f(), f()];
        if factors != [10, 10, 10] {
            out.push((n, chip, factors));
        }
    }
    out
}

#[test]
fn enzyme_variant_plans_are_pinned() {
    let drawn = draw_variants(VARIANTS.len());
    let mut wrong = Vec::new();
    for ((n, chip, factors), (pn, pchip, pfactors, want_status, want)) in
        drawn.into_iter().zip(VARIANTS)
    {
        assert_eq!(
            (n, chip, factors),
            (pn, pchip, pfactors),
            "the seeded draw moved"
        );
        let p = plan(&enzyme_variant(n, factors), chip);
        let got = fnv64(p.as_bytes());
        if status(&p) != want_status || got != want {
            wrong.push(format!(
                "enzyme{n}/{chip} x{factors:?}: {} {got:#018x}, pinned {want_status} {want:#018x}",
                status(&p)
            ));
        }
    }
    assert!(wrong.is_empty(), "plans moved:\n{}", wrong.join("\n"));
}
