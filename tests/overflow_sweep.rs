//! The Fig. 6 hierarchy on seeded random mix DAGs with skewed ratios
//! must never panic: exact arithmetic that leaves `i128` becomes a
//! typed outcome (an escalation or a DAGSolve error in the log), not a
//! crash in the caller's thread.
//!
//! Each seed builds 2–4 inputs, then 2–5 layers of 1–4 two-input mixes
//! over distinct earlier nodes with parts `1..=40 : 1..=997`, and gives
//! every unconsumed mix a `sense.OD` sink. Every seed runs on the paper
//! machine and on the 128-reservoir, 64-port machine.
//!
//! Before the overflow-tolerant rounding and verdict, 502 of these 4,000
//! runs panicked (listed in [`PANICKED_BEFORE`]). Every other run's
//! outcome kind and solve log are pinned by one FNV-1a digest, so the
//! fix provably leaves every input that did not overflow untouched.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aqua_dag::{Dag, NodeId};
use aqua_rational::rng::XorShift64Star;
use aqua_volume::{manage_volumes, Machine, ManagedOutcome, VolumeManagerOptions};

const SEEDS: u64 = 2000;

fn machines() -> [Machine; 2] {
    [
        Machine::paper_default(),
        Machine::paper_default()
            .with_reservoirs(128)
            .with_input_ports(64),
    ]
}

fn random_dag(seed: u64) -> Dag {
    let mut rng = XorShift64Star::new(seed);
    let mut dag = Dag::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut consumed: Vec<bool> = Vec::new();
    let inputs = rng.range_u64(2, 4);
    for i in 0..inputs {
        nodes.push(dag.add_input(format!("in{i}")));
        consumed.push(true);
    }
    let mut mixes = 0;
    for _ in 0..rng.range_u64(2, 5) {
        // A layer mixes only nodes from earlier layers.
        let earlier = nodes.len();
        for _ in 0..rng.range_u64(1, 4) {
            let a = rng.index(earlier);
            let b = loop {
                let b = rng.index(earlier);
                if b != a {
                    break b;
                }
            };
            let p = rng.range_u64(1, 40);
            let q = rng.range_u64(1, 997);
            let m = dag
                .add_mix(format!("m{mixes}"), &[(nodes[a], p), (nodes[b], q)], 10)
                .expect("two distinct sources with positive parts");
            mixes += 1;
            consumed[a] = true;
            consumed[b] = true;
            nodes.push(m);
            consumed.push(false);
        }
    }
    for (i, (&n, &used)) in nodes.iter().zip(&consumed).enumerate() {
        if !used {
            dag.add_process(format!("s{i}"), "sense.OD", n);
        }
    }
    dag
}

/// The outcome's kind and solve log as one line per entry.
fn describe(outcome: &ManagedOutcome) -> Vec<String> {
    let (kind, log) = match outcome {
        ManagedOutcome::Solved { volumes, log, .. } => (format!("solved/{}", volumes.method), log),
        ManagedOutcome::NeedsRegeneration { log, .. } => ("needs_regeneration".to_owned(), log),
        ManagedOutcome::ResourcesExceeded { log, .. } => ("resources_exceeded".to_owned(), log),
    };
    std::iter::once(kind).chain(log.iter().cloned()).collect()
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Seeds whose runs panicked on `i128` overflow before the fix, on
/// both machines alike. Of those 502 runs, 384 panicked in the
/// rounding's error sum, 116 in its mean and 2 in the final verdict's
/// best-effort volumes.
const PANICKED_BEFORE: &[u64] = &[
    29, 42, 47, 50, 54, 58, 74, 75, 92, 98, 113, 123, 132, 145, 168, 180, 187, 198, 200, 209, 219,
    231, 271, 282, 287, 291, 311, 316, 327, 351, 352, 356, 385, 387, 389, 390, 394, 397, 398, 417,
    419, 430, 435, 438, 466, 480, 488, 489, 492, 517, 523, 529, 548, 551, 557, 562, 574, 576, 588,
    589, 592, 598, 602, 629, 647, 648, 651, 655, 671, 673, 687, 689, 697, 699, 700, 703, 716, 720,
    727, 741, 746, 747, 759, 782, 783, 785, 805, 807, 825, 836, 839, 844, 857, 858, 866, 867, 879,
    897, 906, 909, 917, 923, 926, 944, 949, 951, 954, 956, 968, 971, 979, 993, 1003, 1011, 1019,
    1021, 1022, 1029, 1033, 1045, 1050, 1061, 1075, 1096, 1098, 1099, 1108, 1110, 1112, 1140, 1145,
    1153, 1168, 1185, 1186, 1187, 1194, 1203, 1209, 1214, 1231, 1240, 1247, 1248, 1250, 1253, 1262,
    1276, 1282, 1307, 1309, 1313, 1321, 1329, 1343, 1367, 1372, 1374, 1376, 1377, 1379, 1385, 1392,
    1398, 1408, 1414, 1417, 1422, 1433, 1440, 1446, 1448, 1450, 1451, 1452, 1459, 1461, 1469, 1470,
    1477, 1483, 1489, 1493, 1495, 1504, 1518, 1527, 1534, 1547, 1553, 1571, 1581, 1607, 1611, 1637,
    1638, 1646, 1661, 1664, 1665, 1670, 1672, 1676, 1685, 1688, 1699, 1701, 1702, 1707, 1726, 1731,
    1744, 1748, 1759, 1775, 1787, 1790, 1793, 1799, 1803, 1809, 1810, 1818, 1824, 1835, 1839, 1848,
    1850, 1851, 1853, 1862, 1863, 1874, 1876, 1886, 1895, 1904, 1912, 1915, 1933, 1934, 1959, 1964,
    1970, 1982, 1983, 1986, 1988, 1989, 1992, 2000,
];

/// FNV-1a 64 over `machine, seed, kind, log...` of every run not in
/// [`PANICKED_BEFORE`], in machine-then-seed order, as recorded before
/// the fix.
const OUTCOME_DIGEST: u64 = 0xe3b1_c1a1_c098_134a;

#[test]
fn random_skewed_dags_never_panic_the_hierarchy() {
    let opts = VolumeManagerOptions::default();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut panicked = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (mi, machine) in machines().iter().enumerate() {
        for seed in 1..=SEEDS {
            let dag = random_dag(seed);
            let run = catch_unwind(AssertUnwindSafe(|| manage_volumes(&dag, machine, &opts)));
            match run {
                Err(_) => panicked.push((mi, seed)),
                Ok(outcome) => {
                    if PANICKED_BEFORE.contains(&seed) {
                        continue;
                    }
                    fnv(&mut digest, format!("{mi} {seed}\n").as_bytes());
                    for line in describe(&outcome) {
                        fnv(&mut digest, line.as_bytes());
                        fnv(&mut digest, b"\n");
                    }
                }
            }
        }
    }
    std::panic::set_hook(hook);
    assert!(
        panicked.is_empty(),
        "{} runs panicked: {panicked:?}",
        panicked.len()
    );
    assert_eq!(
        digest, OUTCOME_DIGEST,
        "an input that never overflowed changed outcome"
    );
}
