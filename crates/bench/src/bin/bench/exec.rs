//! The chip-as-CPU scheduler: scheduled (parallel) execution against
//! the sequential baseline, and a 32-instance batch fleet.
//!
//! * Enzyme10 on `big` (paper unit counts; storage sized for renaming).
//!   Rows `enzyme10/big/sched` (list scheduling) and
//!   `enzyme10/big/exec-scheduled` (running the schedule). Its speedup
//!   is simulated sequential wet time over scheduled makespan; an
//!   eight-unit chip (`enzyme10_speedup_8u`) shows inventory scaling.
//! * A fleet of 32 instances (8 each of fig2, glucose, glycomics and
//!   enzyme4) union-scheduled on the `fleet` chip; isomorphic instances
//!   share one DAG analysis through their canonical plan keys. Row
//!   `batch32/fleet/plan+exec` (8 threads). The batch runs again at 1,
//!   2 and 8 threads, and once at a 5% uniform fault rate with
//!   recovery on.
//!
//! Makespans are simulated wet seconds, so the speedups are exact and
//! host-independent. Gates: `makespan_floor` (every scheduled makespan
//! at most its sequential one), `threads_agree` (equal batch digests
//! at 1, 2 and 8 threads), `faulted_fleet_recovered` (faults injected,
//! none left unrecovered), and in full mode `enzyme10_speedup` and
//! `batch_speedup` ≥ 2.

use std::collections::HashMap;

use aqua_bench::harness::sample;
use aqua_compiler::CompileOutput;
use aqua_serve::canon;
use aqua_sim::batch_exec::{run_batch, BatchJob, BatchOptions, BatchReport};
use aqua_sim::exec::{ExecConfig, Executor};
use aqua_sim::fault::FaultPlan;
use aqua_sim::sched::{plan, SchedOptions};

use crate::{status_on, Bench};

/// Fleet members (row names) and instances of each.
const FLEET: [&str; 4] = ["fig2", "glucose", "glycomics", "enzyme4"];
const PER_CASE: usize = 8;

pub(crate) fn run(b: &mut Bench) {
    let (warmup, iters) = if b.quick() { (0, 1) } else { (1, 5) };
    let obs = b.obs.clone();
    // Every executor reports to the harness sink, so an `--obs` trace
    // holds one `sim.run` span per run.
    let exec_config = || ExecConfig {
        obs: obs.clone(),
        ..ExecConfig::default()
    };
    let speedup = |seq: u64, sched: u64| {
        if sched == 0 {
            0.0
        } else {
            seq as f64 / sched as f64
        }
    };

    // ---- enzyme10, scheduled against sequential ----
    let machine = aqua_bench::machine("big").expect("known machine");
    let src = aqua_bench::assay_source("enzyme10").expect("known assay");
    let compile = |machine: &aqua_volume::Machine| {
        aqua_compiler::compile(&src, machine, &Default::default()).expect("enzyme10 compiles")
    };
    let out = compile(&machine);
    let opts = SchedOptions { obs: obs.clone() };
    let status = status_on("enzyme10", "big");
    let samples = sample(warmup, iters, || plan(&out, &machine, &opts));
    b.report.row("enzyme10/big/sched".into(), &status, &samples);
    let sched = plan(&out, &machine, &opts);
    sched
        .validate()
        .unwrap_or_else(|e| panic!("enzyme10 schedule invalid: {e}"));
    let run = || {
        Executor::new(&machine, exec_config())
            .run_scheduled(&out, &sched)
            .expect("enzyme10 runs its schedule")
    };
    let samples = sample(warmup, iters, run);
    b.report
        .row("enzyme10/big/exec-scheduled".into(), &status, &samples);
    assert_eq!(
        run().report.conservation_delta_pl(),
        0,
        "conservation holds under renaming"
    );
    let machine8 = machine
        .clone()
        .with_mixers(8)
        .with_heaters(8)
        .with_sensors(8);
    let sched8 = plan(&compile(&machine8), &machine8, &opts);
    b.report.figure(
        "enzyme10_speedup_8u",
        speedup(sched8.sequential_s, sched8.makespan_s),
    );

    // ---- the 32-instance batch fleet ----
    let fleet = aqua_bench::machine("fleet").expect("known machine");
    let cases: Vec<(CompileOutput, u128)> = FLEET
        .iter()
        .map(|assay| {
            let src = aqua_bench::assay_source(assay).expect("known assay");
            let out = aqua_compiler::compile(&src, &fleet, &Default::default())
                .unwrap_or_else(|e| panic!("{assay} does not compile: {e}"));
            let key = canon::canonicalize(&out.dag, &HashMap::new(), &fleet)
                .unwrap_or_else(|e| panic!("{assay} does not canonicalize: {e}"))
                .key;
            (out, key)
        })
        .collect();
    let jobs = |config: &dyn Fn(usize) -> ExecConfig| -> Vec<BatchJob> {
        (0..cases.len() * PER_CASE)
            .map(|i| BatchJob {
                out: &cases[i / PER_CASE].0,
                key: cases[i / PER_CASE].1,
                config: config(i),
            })
            .collect()
    };
    let run_fleet = |threads: usize| -> BatchReport {
        let options = BatchOptions {
            threads,
            obs: obs.clone(),
        };
        run_batch(&fleet, &jobs(&|_| exec_config()), &options).expect("batch executes")
    };
    let statuses: Vec<String> = FLEET.iter().map(|a| status_on(a, "fleet")).collect();
    let samples = sample(warmup, iters, || run_fleet(8));
    b.report.row(
        "batch32/fleet/plan+exec".into(),
        &statuses.join(","),
        &samples,
    );
    let batch = run_fleet(1);
    batch
        .schedule
        .validate()
        .unwrap_or_else(|e| panic!("batch schedule invalid: {e}"));
    for r in &batch.reports {
        assert_eq!(r.conservation_delta_pl(), 0, "batch conservation");
    }
    let threads_agree = [2, 8].iter().all(|&t| run_fleet(t).digest == batch.digest);

    // ---- the fleet under faults, recovery on ----
    let fault_jobs = jobs(&|i| ExecConfig {
        faults: FaultPlan::uniform(0xBEEF ^ i as u64, 0.05),
        recover: true,
        ..exec_config()
    });
    let options = BatchOptions {
        threads: 8,
        obs: obs.clone(),
    };
    let faulted = run_batch(&fleet, &fault_jobs, &options).expect("faulted batch executes");
    let faults: u64 = faulted.reports.iter().map(|r| r.faults.total()).sum();
    let failures: u64 = faulted.reports.iter().map(|r| r.recovery.failures).sum();

    b.report.holds(
        "makespan_floor",
        sched.makespan_s <= sched.sequential_s && batch.makespan_s <= batch.sequential_s,
    );
    b.report.holds("threads_agree", threads_agree);
    b.report
        .holds("faulted_fleet_recovered", failures == 0 && faults > 0);
    b.report.at_least_in_full(
        "enzyme10_speedup",
        speedup(sched.sequential_s, sched.makespan_s),
        2.0,
    );
    b.report.at_least_in_full(
        "batch_speedup",
        speedup(batch.sequential_s, batch.makespan_s),
        2.0,
    );
}
