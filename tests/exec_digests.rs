//! Golden executor digests.
//!
//! Pins what the run-time half of the system does with the plans of
//! the `exec` benchmark workload (figure 2, glucose, glycomics and the
//! enzyme assay at 4 dilutions on the paper machine; the enzyme assay
//! at 4 and 6 dilutions on a 128-reservoir / 64-port machine), fault
//! free and at 1% and 5% uniform fault rates with the recovery ladder
//! on. Every run goes through the sequential `Executor::run` and
//! through `Executor::run_job` under the `plan_jobs` schedule, and each
//! report is hashed whole: `run_digest`, the volume and composition bits
//! of every location of the final chip state (fluids sorted by name),
//! the collected volumes, the dry registers, the per-instruction repair
//! seconds, the violations and the recorded trace.
//!
//! A fixed list of 16-instance `run_batch` batches is pinned too: the
//! batch digest, the schedule's makespans and every instance's report
//! digest, at one and at two threads.
//!
//! Schedules are built from a fresh `InstrDag::build` and from the
//! analysis each compiled plan carries (`CompileOutput::instr_dag`),
//! and both must hit the same pins.
//!
//! Whole `plan_jobs` schedules are pinned for fleets that list-schedule
//! (identical instances, a mixed paper batch, one that spills), one
//! that runs out of carry homes and one that stalls in the issue sweep:
//! every job's entries, renames and spills, the makespans, the stats
//! and utilization, and the splice with no repairs and with a seeded
//! repair map.
//!
//! The values were recorded before the executor's state moved from
//! string-keyed maps to per-run fluid tables, so a change to the
//! executor, the scheduler or the splice that moves one bit of a run
//! fails here. `sched_differential` and `replay_differential` compare
//! runs of one build only.

use aqua_ais::{SepPort, WetLoc};
use aqua_compiler::CompileOutput;
use aqua_rational::rng::XorShift64Star;
use aqua_sim::exec::{ExecConfig, ExecReport, Executor};
use aqua_sim::fault::FaultPlan;
use aqua_sim::replay::run_digest;
use aqua_sim::sched::{plan_jobs, InstrDag, SchedOptions, Schedule};
use aqua_sim::state::ChipState;
use aqua_sim::{run_batch, BatchJob, BatchOptions};
use aqua_volume::Machine;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn machine(chip: &str) -> Machine {
    match chip {
        "paper" => Machine::paper_default(),
        "big" => Machine::paper_default()
            .with_reservoirs(128)
            .with_input_ports(64),
        // One mixer and one heater: glycomics parks a product there.
        "lean" => machine("big").with_mixers(1).with_heaters(1),
        other => panic!("unknown machine {other}"),
    }
}

fn source(assay: &str) -> String {
    match assay {
        "fig2" => aqua_assays::figure2::SOURCE.to_owned(),
        "glucose" => aqua_assays::glucose::SOURCE.to_owned(),
        "glycomics" => aqua_assays::glycomics::SOURCE.to_owned(),
        "enzyme4" => aqua_assays::enzyme::source_n(4),
        "enzyme6" => aqua_assays::enzyme::source_n(6),
        other => panic!("unknown assay {other}"),
    }
}

fn compiled(assay: &str, chip: &str) -> CompileOutput {
    aqua_compiler::compile(&source(assay), &machine(chip), &Default::default())
        .unwrap_or_else(|e| panic!("{assay}/{chip} compiles: {e}"))
}

/// The volume and the composition (sorted by fluid name, value bits)
/// at one location of a final chip state.
fn location(state: &ChipState, loc: WetLoc) -> (u64, Vec<(String, u64)>) {
    let mut comp: Vec<(String, u64)> = state
        .composition(loc)
        .into_iter()
        .map(|(fluid, pl)| (fluid, pl.to_bits()))
        .collect();
    comp.sort_unstable();
    (state.volume(loc), comp)
}

/// Hashes every occupied location of a final chip state, and checks
/// the enumeration saw all the fluid on the chip.
fn final_state_digest(h: &mut u64, state: &ChipState, m: &Machine) {
    let units = |n: usize| 0..(n as u32 + 8);
    let mut locs: Vec<WetLoc> = Vec::new();
    locs.extend(units(m.reservoirs).map(WetLoc::Reservoir));
    locs.extend(units(m.mixers).map(WetLoc::Mixer));
    locs.extend(units(m.heaters).map(WetLoc::Heater));
    locs.extend(units(m.sensors).map(WetLoc::Sensor));
    for n in units(m.separators) {
        for port in [
            SepPort::Main,
            SepPort::Matrix,
            SepPort::Pusher,
            SepPort::Out1,
            SepPort::Out2,
        ] {
            locs.push(WetLoc::Separator(n, port));
        }
    }
    let mut seen = 0;
    for loc in locs {
        let (volume, comp) = location(state, loc);
        if volume == 0 && comp.is_empty() {
            continue;
        }
        seen += volume;
        fnv(h, loc.to_string().as_bytes());
        fnv_u64(h, volume);
        for (fluid, bits) in comp {
            fnv(h, fluid.as_bytes());
            fnv_u64(h, bits);
        }
    }
    assert_eq!(
        seen,
        state.total_volume_pl(),
        "every occupied location seen"
    );
    fnv_u64(h, state.residue_pl);
}

/// One report, hashed whole.
fn report_digest(r: &ExecReport, m: &Machine) -> u64 {
    let mut h = BASIS;
    fnv_u64(&mut h, run_digest(r));
    final_state_digest(&mut h, &r.final_state, m);
    let mut ports: Vec<_> = r.collected_pl.iter().collect();
    ports.sort_unstable();
    for (port, pl) in ports {
        fnv_u64(&mut h, u64::from(*port));
        fnv_u64(&mut h, *pl);
    }
    let mut regs: Vec<_> = r.dry_registers.iter().collect();
    regs.sort_unstable();
    for (reg, value) in regs {
        fnv(&mut h, reg.as_bytes());
        fnv_u64(&mut h, *value as u64);
    }
    let mut repairs: Vec<_> = r.repair_s.iter().collect();
    repairs.sort_unstable();
    for (instr, s) in repairs {
        fnv_u64(&mut h, *instr as u64);
        fnv_u64(&mut h, *s);
    }
    for s in &r.sense_results {
        fnv(&mut h, s.target.as_bytes());
    }
    for v in &r.violations {
        fnv(&mut h, format!("{v:?}").as_bytes());
    }
    for e in &r.trace {
        fnv(&mut h, format!("{e:?}").as_bytes());
    }
    fnv_u64(&mut h, r.trace.len() as u64);
    h
}

const RATES: [f64; 3] = [0.0, 0.01, 0.05];
const SEEDS: [u64; 3] = [11, 12, 13];

fn config(rate: f64, seed: u64, record_trace: bool) -> ExecConfig {
    ExecConfig {
        faults: if rate > 0.0 {
            FaultPlan::uniform(seed, rate)
        } else {
            FaultPlan::none()
        },
        recover: true,
        record_trace,
        ..ExecConfig::default()
    }
}

/// `(assay, machine, [digest per fault rate])`: each digest folds the
/// sequential and the scheduled run of every seed at that rate (one run
/// per mode when fault free).
const RUNS: [(&str, &str, [u64; 3]); 6] = [
    (
        "fig2",
        "paper",
        [0x85f3b007344204d6, 0x2ebdba84d264df30, 0xd41aaf381b080d07],
    ),
    (
        "glucose",
        "paper",
        [0xa02bc5dc06cda3f3, 0xffec0801fbb447c1, 0x20cef74091cdc90c],
    ),
    (
        "glycomics",
        "paper",
        [0x5627152978f33fdb, 0x9dcfb6deb6bc18f2, 0xb3fb82f74c8defcf],
    ),
    (
        "enzyme4",
        "paper",
        [0x5f56ee6aa2fe40f0, 0x7cdd47e8cd442369, 0x05b99554b7b78e01],
    ),
    (
        "enzyme4",
        "big",
        [0x5f56ee6aa2fe40f0, 0x7cdd47e8cd442369, 0x05b99554b7b78e01],
    ),
    (
        "enzyme6",
        "big",
        [0x7b0c2d2d0ddf18c8, 0x913c72803a5b5dd3, 0x6c406bb7114dcbb4],
    ),
];

#[test]
fn executor_runs_are_pinned() {
    let mut mismatches = Vec::new();
    for (assay, chip, want) in RUNS {
        let m = machine(chip);
        let out = compiled(assay, chip);
        let built = plan_jobs(&[&InstrDag::build(&out)], &m, &SchedOptions::default());
        let carried = plan_jobs(&[out.instr_dag()], &m, &SchedOptions::default());
        for (r, &rate) in RATES.iter().enumerate() {
            let seeds: &[u64] = if rate > 0.0 { &SEEDS } else { &SEEDS[..1] };
            let mut h = [BASIS; 2];
            for &seed in seeds {
                let seq = Executor::new(&m, config(rate, seed, true))
                    .run(&out)
                    .expect("sequential run");
                for (h, schedule) in h.iter_mut().zip([&built, &carried]) {
                    let job = Executor::new(&m, config(rate, seed, true))
                        .run_job(&out, &schedule.jobs[0])
                        .expect("scheduled run");
                    fnv_u64(h, report_digest(&seq, &m));
                    fnv_u64(h, report_digest(&job, &m));
                }
            }
            for (h, dag) in h.iter().zip(["built", "carried"]) {
                if *h != want[r] {
                    mismatches.push(format!("{assay}/{chip} at rate {rate} ({dag}): {h:#018x}"));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "moved runs:\n{}",
        mismatches.join("\n")
    );
}

/// `(machine, digest)` for each batch of the fixed list.
const BATCHES: [(&str, u64); 4] = [
    ("paper", 0xcfe168959f2aa191),
    ("big", 0x5daa0e4ed79bb228),
    ("paper", 0x46915428709576fb),
    ("big", 0x6a024fb569c59c1f),
];

#[test]
fn batches_are_pinned_at_one_and_two_threads() {
    let plans: Vec<(&str, &str, CompileOutput)> = RUNS
        .iter()
        .map(|&(assay, chip, _)| (assay, chip, compiled(assay, chip)))
        .collect();
    let mut rng = XorShift64Star::new(0xE1EC);
    let mut mismatches = Vec::new();
    for (b, &(chip, want)) in BATCHES.iter().enumerate() {
        let m = machine(chip);
        let mine: Vec<usize> = (0..plans.len()).filter(|&p| plans[p].1 == chip).collect();
        let instances: Vec<(usize, usize, u64)> = (0..16)
            .map(|_| {
                (
                    mine[rng.index(mine.len())],
                    rng.index(RATES.len()),
                    rng.next_u64(),
                )
            })
            .collect();
        let jobs: Vec<BatchJob> = instances
            .iter()
            .map(|&(p, rate, seed)| BatchJob {
                out: &plans[p].2,
                key: p as u128,
                config: config(RATES[rate], seed, false),
            })
            .collect();
        let mut digests = Vec::new();
        for threads in [1, 2] {
            let opts = BatchOptions {
                threads,
                ..BatchOptions::default()
            };
            let report = run_batch(&m, &jobs, &opts).expect("batch runs");
            let mut h = BASIS;
            fnv_u64(&mut h, report.digest);
            fnv_u64(&mut h, report.makespan_s);
            fnv_u64(&mut h, report.sequential_s);
            fnv_u64(&mut h, report.realized_makespan_s);
            fnv_u64(&mut h, report.shifted_instrs);
            for r in &report.reports {
                fnv_u64(&mut h, report_digest(r, &m));
            }
            digests.push(h);
        }
        assert_eq!(digests[0], digests[1], "batch {b}: 1 and 2 threads differ");
        if digests[0] != want {
            mismatches.push(format!("batch {b} ({chip}): {:#018x}", digests[0]));
        }
    }
    assert!(
        mismatches.is_empty(),
        "moved batches:\n{}",
        mismatches.join("\n")
    );
}

/// A whole schedule, hashed: every job's entries, renames and spills,
/// the makespans, stats and utilization, and the splice with no
/// repairs and with a repair map drawn from `seed`. Checks `validate`.
fn schedule_digest(s: &Schedule, seed: u64) -> u64 {
    s.validate().expect("the schedule is valid");
    let mut h = BASIS;
    for js in &s.jobs {
        fnv_u64(&mut h, js.entries.len() as u64);
        for (i, e) in js.entries.iter().enumerate() {
            fnv_u64(&mut h, e.start_s);
            fnv_u64(&mut h, e.dur_s);
            for r in js.renames[i].iter() {
                fnv(&mut h, format!("{r:?}").as_bytes());
            }
            fnv_u64(&mut h, js.renames[i].len() as u64);
        }
        for sp in &js.spills {
            fnv(&mut h, format!("{sp:?}").as_bytes());
        }
        fnv_u64(&mut h, js.spills.len() as u64);
    }
    for v in [s.makespan_s, s.sequential_s, s.critical_path_s] {
        fnv_u64(&mut h, v);
    }
    fnv(&mut h, format!("{:?}", s.stats).as_bytes());
    fnv(&mut h, format!("{:?}", s.utilization).as_bytes());
    let none = std::collections::HashMap::new();
    let splice = s.splice(&vec![&none; s.jobs.len()]);
    assert_eq!(splice.makespan_s, s.makespan_s, "no repairs, no change");
    assert_eq!(splice.shifted, 0);
    let mut rng = XorShift64Star::new(seed);
    let repairs: Vec<std::collections::HashMap<usize, u64>> = (s.jobs.iter())
        .map(|js| {
            (0..3)
                .map(|_| (rng.index(js.entries.len()), 1 + rng.index(30) as u64))
                .collect()
        })
        .collect();
    let splice = s.splice(&repairs.iter().collect::<Vec<_>>());
    fnv_u64(&mut h, splice.makespan_s);
    fnv_u64(&mut h, splice.shifted);
    h
}

/// A fleet: `(assay, instances)` runs, in job order.
type Fleet = &'static [(&'static str, usize)];

/// `(chip, fleet, fallback, digest)`. The first six
/// list-schedule (the lean chip's glycomics pair spills once); the
/// enzyme4 batch reserves more carry homes than the paper chip has
/// reservoirs, and the figure 2 batch stalls in the issue sweep.
const SCHEDULES: [(&str, Fleet, bool, u64); 8] = [
    ("paper", &[("fig2", 4)], false, 0x3dae1aa311ab5e2b),
    ("paper", &[("glucose", 8)], false, 0x6143d865db31e9d2),
    ("big", &[("enzyme4", 4)], false, 0x3d580d5c02b93b3d),
    ("big", &[("enzyme6", 1)], false, 0x309bd285f0d99a8f),
    (
        "paper",
        &[("fig2", 1), ("glucose", 2), ("glycomics", 1), ("fig2", 1)],
        false,
        0xc60b030929711c6a,
    ),
    ("lean", &[("glycomics", 2)], false, 0x3dbf67eff81b0670),
    ("paper", &[("enzyme4", 6)], true, 0x1ba505f7af87fd02),
    ("paper", &[("fig2", 8)], true, 0x002bab9b6d0b3636),
];

#[test]
fn list_schedules_are_pinned() {
    let mut mismatches = Vec::new();
    for (case, &(chip, fleet, fallback, want)) in SCHEDULES.iter().enumerate() {
        let m = machine(chip);
        let plans: Vec<(CompileOutput, InstrDag, usize)> = (fleet.iter())
            .map(|&(assay, n)| {
                let out = aqua_compiler::compile(&source(assay), &m, &Default::default())
                    .unwrap_or_else(|e| panic!("{assay}/{chip} compiles: {e}"));
                let dag = InstrDag::build(&out);
                (out, dag, n)
            })
            .collect();
        let built: Vec<&InstrDag> = (plans.iter())
            .flat_map(|(_, dag, n)| std::iter::repeat_n(dag, *n))
            .collect();
        let carried: Vec<&InstrDag> = (plans.iter())
            .flat_map(|(out, _, n)| std::iter::repeat_n(out.instr_dag(), *n))
            .collect();
        let carry_homes: usize = built.iter().map(|d| d.carry_units.len()).sum();
        // Only the enzyme4 batch asks for more carry homes than the
        // chip has reservoirs.
        assert_eq!(carry_homes > m.reservoirs, case == 6, "case {case}");
        for (refs, dag) in [(&built, "built"), (&carried, "carried")] {
            let s = plan_jobs(refs, &m, &SchedOptions::default());
            assert_eq!(s.stats.fallback, fallback, "case {case} ({dag}): fallback");
            if chip == "lean" {
                assert!(s.stats.spills > 0, "case {case} ({dag}): spills");
            }
            let h = schedule_digest(&s, 0x5EED ^ case as u64);
            if h != want {
                mismatches.push(format!("case {case} ({chip}, {dag}): {h:#018x}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "moved schedules:\n{}",
        mismatches.join("\n")
    );
}

/// `run_batch` schedules from each plan's carried analysis: a second
/// call over the same plans rebuilds none of them and returns the
/// same digest and schedule, and clones of the plans, taken before and
/// after the analyses were built, schedule exactly as the originals.
#[test]
fn repeated_batches_reuse_each_plans_analysis() {
    let m = machine("paper");
    let plans: Vec<CompileOutput> = (RUNS.iter())
        .filter(|&&(_, chip, _)| chip == "paper")
        .map(|&(assay, chip, _)| compiled(assay, chip))
        .collect();
    let early = plans.clone();
    let analyses: Vec<&InstrDag> = plans.iter().map(CompileOutput::instr_dag).collect();
    let batch = |plans: &[CompileOutput]| {
        let jobs: Vec<BatchJob> = (0..12)
            .map(|i| BatchJob {
                out: &plans[i % plans.len()],
                key: 0,
                config: config(RATES[i % RATES.len()], SEEDS[i % SEEDS.len()], false),
            })
            .collect();
        let report = run_batch(&m, &jobs, &BatchOptions::default()).expect("batch runs");
        (report.digest, schedule_digest(&report.schedule, 0x5EED))
    };
    let first = batch(&plans);
    assert_eq!(batch(&plans), first, "a second call");
    for (p, (out, &dag)) in plans.iter().zip(&analyses).enumerate() {
        assert!(std::ptr::eq(out.instr_dag(), dag), "plan {p} was rebuilt");
    }
    let late = plans.clone();
    assert_eq!(batch(&early), first, "clones taken before the analyses");
    assert_eq!(batch(&late), first, "clones taken after the analyses");
}
