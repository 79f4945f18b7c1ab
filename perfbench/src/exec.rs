//! `exec`: scheduled chip batches.
//!
//! Setup compiles the statically resolved plans with
//! `aqua_compiler::compile`. The timed phase runs a seeded list of
//! 16-instance batches, each drawn from one machine's plans, through
//! `aqua_sim::run_batch` at two threads; every instance runs with a
//! fault rate of 0, 1% or 5% and recovery on. Scheduling and
//! fault-recovering execution do all the work and no lang, volumes or
//! serve code runs, so a compile-side change should not move it.
//! `needs_regeneration` plans are left out: they run with expected
//! violations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use aqua_compiler::{CompileOptions, CompileOutput};
use aqua_obs::Obs;
use aqua_sim::sched::{plan_jobs, SchedOptions};
use aqua_sim::{
    run_batch, BatchJob, BatchOptions, ExecConfig, ExecReport, Executor, FaultPlan, InstrDag,
};
use aqua_volume::VolumeManagerOptions;

use crate::cold::fnv;
use crate::inputs::{self, row, Assay, Chip, Row};
use crate::plans::{self, PlanInfo};
use crate::refspeed::{self, RefSpeed};
use crate::report::{gmean, metric, Cell};
use crate::trace::{self, Layers, Prediction};
use crate::{timed, Args, Outcome, SetupReps, Timed};

/// Batches per second of `--seconds`.
const BATCHES_PER_SECOND: u64 = 90;
const INSTANCES: usize = 16;
const THREADS: usize = 2;
const FAULT_RATES: [f64; 3] = [0.0, 0.01, 0.05];

const PLANS: [Row; 6] = [
    row(Assay::Fig2, Chip::Paper),
    row(Assay::Glucose, Chip::Paper),
    row(Assay::Glycomics, Chip::Paper),
    row(Assay::Enzyme(4), Chip::Paper),
    row(Assay::Enzyme(4), Chip::Big),
    row(Assay::Enzyme(6), Chip::Big),
];
const CHIPS: [Chip; 2] = [Chip::Paper, Chip::Big];

struct Batch {
    chip: usize,
    /// (plan index, fault rate index, fault seed) per instance.
    instances: Vec<(usize, usize, u64)>,
}

/// Batches alternate between the machines; each instance draws its plan
/// from that machine's plans, its fault rate and its fault seed.
fn batches(seed: u64, n: usize) -> Vec<Batch> {
    let mut rng = inputs::rng(seed, 0xE1EC);
    (0..n)
        .map(|b| {
            let chip = b % CHIPS.len();
            let mine: Vec<usize> = (0..PLANS.len())
                .filter(|&p| PLANS[p].chip == CHIPS[chip])
                .collect();
            let instances = (0..INSTANCES)
                .map(|_| {
                    (
                        mine[rng.index(mine.len())],
                        rng.index(FAULT_RATES.len()),
                        rng.next_u64(),
                    )
                })
                .collect();
            Batch { chip, instances }
        })
        .collect()
}

fn config(rate: usize, fault_seed: u64, obs: &Obs) -> ExecConfig {
    ExecConfig {
        faults: if FAULT_RATES[rate] > 0.0 {
            FaultPlan::uniform(fault_seed, FAULT_RATES[rate])
        } else {
            FaultPlan::none()
        },
        recover: true,
        obs: obs.clone(),
        ..ExecConfig::default()
    }
}

fn compile_all(obs: &Obs) -> Vec<Result<CompileOutput, String>> {
    crate::on_one_cpu(|| {
        PLANS
            .iter()
            .map(|r| {
                let opts = CompileOptions {
                    volume: VolumeManagerOptions {
                        obs: obs.clone(),
                        ..VolumeManagerOptions::default()
                    },
                    ..CompileOptions::default()
                };
                aqua_compiler::compile(&r.source(), &r.chip.machine(), &opts)
                    .map_err(|e| e.to_string())
            })
            .collect()
    })
}

/// Tallies of one pass over the batch list.
struct Tally {
    cells: Vec<Cell>,
    t: Timed,
    makespan_s: u64,
    faults: u64,
    recovered: u64,
    digest: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            cells: CHIPS
                .iter()
                .map(|c| Cell::new(c.name().to_owned(), "batch"))
                .collect(),
            t: Timed::default(),
            makespan_s: 0,
            faults: 0,
            recovered: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Takes one batch's reports; an instance fails unless it closes its
    /// conservation identity with no violation and no unrecovered fault.
    fn batch(
        &mut self,
        b: &Batch,
        ms: f64,
        realized_makespan_s: u64,
        reports: &[ExecReport],
        infos: &[PlanInfo],
        errors: &mut Vec<String>,
    ) {
        let cell = &mut self.cells[b.chip];
        cell.lat_ms.push(ms);
        self.makespan_s += realized_makespan_s;
        fnv(&mut self.digest, &realized_makespan_s.to_le_bytes());
        for (&(p, _, _), r) in b.instances.iter().zip(reports) {
            self.t.attempted += 1;
            self.t.planned += 1;
            self.t.usable += u64::from(infos[p].usable());
            self.faults += r.faults.total();
            self.recovered += r.recovery.total_recovered();
            for s in &r.sense_results {
                fnv(&mut self.digest, &s.volume_pl.to_le_bytes());
            }
            let delta = r.conservation_delta_pl();
            let clean = delta == 0 && r.violations.is_empty() && r.recovery.failures == 0;
            *cell
                .statuses
                .entry(if clean { "clean" } else { "failed" }.into())
                .or_default() += 1;
            if !clean {
                self.t.failed += 1;
                errors.push(format!(
                    "exec: {} instance: conservation delta {delta} pl, {} violation(s), {} unrecovered fault(s)",
                    PLANS[p].name(),
                    r.violations.len(),
                    r.recovery.failures
                ));
            }
        }
    }

    fn finish(mut self, busy_s: f64, infos: &[PlanInfo]) -> Timed {
        self.t.busy_s = busy_s;
        self.t.ratio_err_max = infos
            .iter()
            .filter_map(|i| i.quality.map(|q| q.max_err))
            .fold(0.0, f64::max);
        self.t.own = vec![
            metric("makespan_s", self.makespan_s as f64, "sim_s"),
            metric("faults_injected", self.faults as f64, "count"),
            metric(
                "batch_p50_ms",
                gmean(&self.cells.iter().map(Cell::p50).collect::<Vec<_>>()),
                "ms",
            ),
        ];
        self.t.exact = vec![
            ("makespan_s".into(), self.makespan_s.to_string()),
            ("faults".into(), self.faults.to_string()),
            ("recovered".into(), self.recovered.to_string()),
            ("failed".into(), self.t.failed.to_string()),
            ("digest".into(), format!("{:016x}", self.digest)),
        ];
        self.t.tmean_cells = (0..self.cells.len()).collect();
        self.t.p90_cells = (0..self.cells.len()).collect();
        self.t.cells = self.cells;
        self.t
    }
}

pub fn run(args: &Args) -> Outcome {
    let list = batches(args.seed, (BATCHES_PER_SECOND * args.seconds) as usize);
    let mut errors = Vec::new();
    let (compiled, first_setup_s) = timed(|| compile_all(&Obs::off()));
    let mut outs = Vec::new();
    let mut infos = Vec::new();
    for (r, out) in PLANS.iter().zip(compiled) {
        match out {
            Ok(out) => {
                let info = plans::of_compiled(&out, r.chip.machine().max_capacity_nl());
                if info.status != inputs::expected_status(*r) {
                    errors.push(format!(
                        "status table: {} compiled to {}, expected {}",
                        r.name(),
                        info.status,
                        inputs::expected_status(*r)
                    ));
                }
                infos.push(info);
                outs.push(out);
            }
            Err(e) => {
                errors.push(format!("exec: {} does not compile: {e}", r.name()));
                return Outcome {
                    errors,
                    first_setup_s,
                    setup_s: Vec::new(),
                    speed: RefSpeed::new(),
                    timed: Timed::default(),
                    traced: None,
                };
            }
        }
    }
    crate::check_status_table(&mut errors, &PLANS);

    let off = Obs::off();
    let jobs_of = |b: &Batch| -> Vec<BatchJob<'_>> {
        b.instances
            .iter()
            .map(|&(p, rate, fseed)| BatchJob {
                out: &outs[p],
                key: p as u128,
                config: config(rate, fseed, &off),
            })
            .collect()
    };
    let mut reps = SetupReps::new(list.len());
    let mut speed = RefSpeed::new();
    let mut tally = Tally::new();
    let mut busy_s = 0.0;
    let mut digests = Vec::new();
    for (i, b) in list.iter().enumerate() {
        reps.before(i, |_| compile_all(&Obs::off()));
        if (i as u64).is_multiple_of(BATCHES_PER_SECOND / refspeed::PER_SECOND) {
            speed.sample();
        }
        let jobs = jobs_of(b);
        let machine = CHIPS[b.chip].machine();
        let t0 = Instant::now();
        let report = run_batch(
            &machine,
            &jobs,
            &BatchOptions {
                threads: THREADS,
                obs: off.clone(),
            },
        );
        let dt = t0.elapsed().as_secs_f64();
        busy_s += dt;
        match report {
            Ok(rep) => {
                if digests.len() < 2 {
                    digests.push(rep.digest);
                }
                tally.batch(
                    b,
                    dt * 1e3,
                    rep.realized_makespan_s,
                    &rep.reports,
                    &infos,
                    &mut errors,
                );
            }
            Err(e) => {
                tally.t.attempted += b.instances.len() as u64;
                tally.t.failed += b.instances.len() as u64;
                errors.push(format!("exec: batch failed: {e}"));
            }
        }
    }
    // The batch digest does not depend on the thread count.
    for (b, want) in list.iter().zip(&digests) {
        let one = run_batch(
            &CHIPS[b.chip].machine(),
            &jobs_of(b),
            &BatchOptions::default(),
        );
        if one.map(|r| r.digest).ok() != Some(*want) {
            errors.push("exec: batch digest differs between 1 and 2 threads".into());
        }
    }
    let timed = tally.finish(busy_s, &infos);
    let traced = args.trace.then(|| traced_run(&list, &infos, &mut errors));
    Outcome {
        errors,
        first_setup_s,
        setup_s: reps.secs,
        speed,
        timed,
        traced,
    }
}

/// One traced instance's run time (ms) and outcome.
type Slot = Mutex<Option<(f64, Result<ExecReport, String>)>>;

/// Reruns the list as `InstrDag::build`, `sched::plan_jobs` and one
/// `Executor::run_job` per instance, with every probe recording.
fn traced_run(list: &[Batch], infos: &[PlanInfo], errors: &mut Vec<String>) -> trace::Traced {
    let (obs, sink) = trace::recording();
    let mut layers = Layers::default();
    let before = sink.snapshot();
    let outs: Vec<CompileOutput> = compile_all(&obs)
        .into_iter()
        .map(|o| o.expect("plans compiled untraced"))
        .collect();
    let setup = sink.snapshot().since(&before);
    let codegen = setup.spans("compile.codegen").max(1) as f64;
    layers.set("codegen.ms", setup.ms("compile.codegen") / codegen);
    layers.set(
        "codegen.instrs",
        outs.iter().map(|o| o.program.instrs().len()).sum::<usize>() as f64 / outs.len() as f64,
    );

    let mut tally = Tally::new();
    let mut busy_s = 0.0;
    let base = sink.snapshot();
    for b in list {
        let machine = CHIPS[b.chip].machine();
        let t0 = Instant::now();
        let mut dag_of: Vec<Option<usize>> = vec![None; PLANS.len()];
        let mut dags = Vec::new();
        for &(p, _, _) in &b.instances {
            if dag_of[p].is_none() {
                dag_of[p] = Some(dags.len());
                dags.push(InstrDag::build(&outs[p]));
            }
        }
        let refs: Vec<&InstrDag> = b
            .instances
            .iter()
            .map(|&(p, _, _)| &dags[dag_of[p].expect("built above")])
            .collect();
        let schedule = plan_jobs(&refs, &machine, &SchedOptions { obs: obs.clone() });
        let t1 = Instant::now();
        let next = AtomicUsize::new(0);
        let slots: Vec<Slot> = b.instances.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(p, rate, fseed)) = b.instances.get(i) else {
                        break;
                    };
                    let start = Instant::now();
                    let result = Executor::new(&machine, config(rate, fseed, &obs))
                        .run_job(&outs[p], &schedule.jobs[i])
                        .map_err(|e| e.to_string());
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    *slots[i].lock().expect("slot lock") = Some((ms, result));
                });
            }
        });
        let mut reports = Vec::with_capacity(slots.len());
        let mut run_ms = 0.0;
        for slot in slots {
            match slot.into_inner().expect("slot lock") {
                Some((ms, Ok(r))) => {
                    run_ms += ms;
                    layers.add("exec.run_ms", ms);
                    layers.add("exec.instructions", r.wet_instructions as f64);
                    layers.add("exec.faults", r.faults.total() as f64);
                    layers.add("exec.failures", r.recovery.failures as f64);
                    reports.push(r);
                }
                _ => errors.push("exec (traced): an instance failed to run".into()),
            }
        }
        let repairs: Vec<_> = reports.iter().map(|r| &r.repair_s).collect();
        let t2 = Instant::now();
        let realized = schedule.splice(&repairs).makespan_s;
        let t3 = Instant::now();
        let dt = (t3 - t0).as_secs_f64();
        busy_s += dt;
        let sched_ms = ((t1 - t0) + (t3 - t2)).as_secs_f64() * 1e3;
        // The instances' run time, spread over the pool's threads; the
        // rest of the batch (starting and joining the pool, a thread
        // idling while the other finishes) is no layer's.
        let exec_ms = run_ms / THREADS as f64;
        layers.begin(CHIPS[b.chip].name(), b.instances.len() as u64);
        layers.add("sched.ms", sched_ms);
        layers.add(
            "sched.speedup",
            schedule.sequential_s as f64 / schedule.makespan_s.max(1) as f64,
        );
        layers.add("sched.spills", schedule.stats.spills as f64);
        layers.add(
            "sched.fallback_share",
            f64::from(u8::from(schedule.stats.fallback)),
        );
        let util: Vec<f64> = schedule
            .utilization
            .iter()
            .map(|u| u.util_permille as f64 / 1000.0)
            .collect();
        layers.add(
            "sched.util",
            util.iter().sum::<f64>() / util.len().max(1) as f64,
        );
        layers.charge("sched", sched_ms);
        layers.charge("exec", exec_ms);
        layers.charge("other", dt * 1e3 - sched_ms - exec_ms);
        if reports.len() == b.instances.len() {
            tally.batch(b, dt * 1e3, realized, &reports, infos, errors);
        }
    }
    let total = sink.snapshot().since(&base);
    let faults = total.counter("sim.faults");
    if faults > 0 {
        let recovered: u64 = [
            "sim.recover.redispense",
            "sim.recover.regenerate",
            "sim.recover.replan",
            "sim.recover.overflow_trims",
        ]
        .iter()
        .map(|c| total.counter(c))
        .sum();
        layers.set("exec.recovered_share", recovered as f64 / faults as f64);
    }
    let t = tally.finish(busy_s, infos);
    let predictions = vec![(
        Prediction {
            what: "exec: sched+exec share of batch time",
            layers: &["sched", "exec"],
            lo: 0.9,
            hi: 1.0,
        },
        layers.clone(),
    )];
    (t, layers, predictions)
}
