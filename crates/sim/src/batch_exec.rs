//! The batch assay executor: many instances, one chip.
//!
//! Interleaves a fleet of compiled assay instances on one simulated
//! chip. Each instance's dependency DAG is its plan's carried analysis
//! ([`CompileOutput::instr_dag`]), built by the plan's first batch and
//! shared by every instance of it, in this batch and every later one;
//! the scheduler then renames all instances' episodes onto the shared
//! slot inventory in a single union schedule.
//!
//! Execution runs each instance's program-order replay on the shared
//! claim-counter pool (`aqua_volume::batch`, one worker on the calling
//! thread), beside one more task that hashes the schedule's half of the
//! batch digest. Replays are independent (each instance owns its
//! chip-state view — the union schedule proves their physical slot
//! windows are disjoint), and results land in per-task slots, so the
//! batch report is **bit-identical at any thread count**: 1, 2, and 8
//! workers produce the same digest.

use std::collections::HashMap;
use std::sync::OnceLock;

use aqua_compiler::CompileOutput;
use aqua_volume::Machine;

use crate::exec::{ExecConfig, ExecError, ExecReport, Executor};
use crate::replay::fnv1a;
use crate::sched::{plan_jobs, InstrDag, SchedOptions, Schedule};

/// One assay instance in a batch.
#[derive(Debug)]
pub struct BatchJob<'a> {
    /// The compiled program this instance runs.
    pub out: &'a CompileOutput,
    /// Unused: [`run_batch`] ignores it, since instances of one plan
    /// share the plan's carried analysis. It stays only because the
    /// repository benchmark builds `BatchJob` with struct literals;
    /// the next benchmark change removes it (ROADMAP item 1).
    pub key: u128,
    /// Per-instance execution config (fault seed, recovery, …).
    pub config: ExecConfig,
}

/// Batch execution options.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads for the replay phase (0 = 1). Thread count
    /// affects wall time only, never results.
    pub threads: usize,
    /// Observability handle for `sim.batch.*` counters.
    pub obs: aqua_obs::Obs,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            threads: 1,
            obs: aqua_obs::Obs::off(),
        }
    }
}

/// The outcome of a batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// The union schedule across all instances.
    pub schedule: Schedule,
    /// Per-instance execution reports, in job order.
    pub reports: Vec<ExecReport>,
    /// Fault-free makespan of the batch, seconds.
    pub makespan_s: u64,
    /// Back-to-back sequential baseline, seconds.
    pub sequential_s: u64,
    /// Makespan after splicing every instance's observed repairs back
    /// into the schedule, seconds.
    pub realized_makespan_s: u64,
    /// Instructions whose start time the splice moved.
    pub shifted_instrs: u64,
    /// The thread-invariance witness: one FNV-1a chain over every
    /// job's schedule entries (start, duration) and spills (instruction,
    /// start), then every report's sense volumes, recovered count and
    /// conservation delta, in job order.
    pub digest: u64,
}

/// Runs a fleet of assay instances as one scheduled batch.
///
/// # Errors
///
/// Returns the first instance's [`ExecError`] (by job index) if any
/// replay fails structurally.
pub fn run_batch(
    machine: &Machine,
    jobs: &[BatchJob<'_>],
    opts: &BatchOptions,
) -> Result<BatchReport, ExecError> {
    let dags: Vec<&InstrDag> = jobs.iter().map(|job| job.out.instr_dag()).collect();
    let schedule = plan_jobs(
        &dags,
        machine,
        &SchedOptions {
            obs: opts.obs.clone(),
        },
    );

    // Replay every instance on the claim-counter pool. Task 0, claimed
    // first, hashes the schedule's half of the digest, which depends on
    // the schedule alone. Each result lands in its own slot — no
    // cross-thread data dependence, so the outcome is independent of
    // thread count.
    let n = jobs.len();
    let schedule_half = OnceLock::new();
    let reports = aqua_volume::batch::run_parallel_threads(n + 1, opts.threads, |i| {
        let Some(j) = i.checked_sub(1) else {
            schedule_half.get_or_init(|| schedule_digest(&schedule));
            return None;
        };
        Some(Executor::new(machine, jobs[j].config.clone()).run_job(jobs[j].out, &schedule.jobs[j]))
    })
    .into_iter()
    .flatten()
    .collect::<Result<Vec<ExecReport>, ExecError>>()?;

    // Splice all observed repairs back into the union schedule.
    let repairs: Vec<&HashMap<usize, u64>> = reports.iter().map(|r| &r.repair_s).collect();
    let splice = schedule.splice(&repairs);

    // The chain goes on from the schedule's half through the chemistry.
    let mut digest = *schedule_half.get().expect("task 0 hashed the schedule");
    for r in &reports {
        for s in &r.sense_results {
            fnv1a(&mut digest, s.volume_pl);
        }
        fnv1a(&mut digest, r.recovery.total_recovered());
        fnv1a(&mut digest, r.conservation_delta_pl() as u64);
    }

    let obs = &opts.obs;
    if obs.enabled() {
        obs.add("sim.batch.instances", n as u64);
    }
    Ok(BatchReport {
        makespan_s: schedule.makespan_s,
        sequential_s: schedule.sequential_s,
        realized_makespan_s: splice.makespan_s,
        shifted_instrs: splice.shifted,
        digest,
        schedule,
        reports,
    })
}

/// The schedule's half of [`BatchReport::digest`]: FNV-1a over every
/// job's entries and spills.
fn schedule_digest(schedule: &Schedule) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for js in &schedule.jobs {
        for e in &js.entries {
            fnv1a(&mut digest, e.start_s);
            fnv1a(&mut digest, e.dur_s);
        }
        for sp in &js.spills {
            fnv1a(&mut digest, u64::from(sp.before_instr));
            fnv1a(&mut digest, sp.start_s);
        }
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_compiler::{compile, CompileOptions};

    fn compiled(src: &str, machine: &Machine) -> CompileOutput {
        compile(src, machine, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn batch_shares_dags_and_matches_sequential_chemistry() {
        let machine = Machine::paper_default();
        let out = compiled(
            "
ASSAY t START
fluid A, B;
MIX A AND B IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO R;
END",
            &machine,
        );
        let jobs: Vec<BatchJob> = (0..4)
            .map(|_| BatchJob {
                out: &out,
                key: 7,
                config: ExecConfig::default(),
            })
            .collect();
        let report = run_batch(&machine, &jobs, &BatchOptions::default()).unwrap();
        assert_eq!(report.reports.len(), 4);
        let seq = Executor::new(&machine, ExecConfig::default())
            .run(&out)
            .unwrap();
        for r in &report.reports {
            assert_eq!(r.sense_results.len(), seq.sense_results.len());
            assert_eq!(r.sense_results[0].volume_pl, seq.sense_results[0].volume_pl);
            assert_eq!(r.conservation_delta_pl(), 0);
        }
        assert!(report.makespan_s <= report.sequential_s);
        report.schedule.validate().unwrap();
    }

    #[test]
    fn digest_is_thread_invariant() {
        let machine = Machine::paper_default();
        let out = compiled(
            "
ASSAY t START
fluid A, B, C;
fluid x, y;
x = MIX A AND B IN RATIOS 1 : 2 FOR 10;
y = MIX x AND C IN RATIOS 1 : 1 FOR 10;
SENSE OPTICAL it INTO R;
END",
            &machine,
        );
        let make_jobs = || -> Vec<BatchJob> {
            (0..6)
                .map(|_| BatchJob {
                    out: &out,
                    key: 1,
                    config: ExecConfig::default(),
                })
                .collect()
        };
        let digests: Vec<u64> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let opts = BatchOptions {
                    threads,
                    ..BatchOptions::default()
                };
                run_batch(&machine, &make_jobs(), &opts).unwrap().digest
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    /// `BatchReport::digest` is one FNV-1a chain over the returned
    /// schedule's entries and spills, then every report, whichever task
    /// hashed the schedule's half.
    #[test]
    fn digest_is_the_serial_chain_over_schedule_and_reports() {
        fn fold(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        let machine = Machine::paper_default();
        let outs: Vec<CompileOutput> = [
            aqua_assays::figure2::SOURCE,
            aqua_assays::glucose::SOURCE,
            aqua_assays::glycomics::SOURCE,
        ]
        .iter()
        .map(|src| compiled(src, &machine))
        .collect();
        let jobs: Vec<BatchJob> = (0..12)
            .map(|i| BatchJob {
                out: &outs[i % 3],
                key: (i % 3) as u128,
                config: ExecConfig {
                    faults: crate::fault::FaultPlan::uniform(i as u64, 0.05),
                    recover: true,
                    ..ExecConfig::default()
                },
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let opts = BatchOptions {
                threads,
                ..BatchOptions::default()
            };
            let report = run_batch(&machine, &jobs, &opts).unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for js in &report.schedule.jobs {
                for e in &js.entries {
                    fold(&mut h, e.start_s);
                    fold(&mut h, e.dur_s);
                }
                for sp in &js.spills {
                    fold(&mut h, u64::from(sp.before_instr));
                    fold(&mut h, sp.start_s);
                }
            }
            for r in &report.reports {
                for s in &r.sense_results {
                    fold(&mut h, s.volume_pl);
                }
                fold(&mut h, r.recovery.total_recovered());
                fold(&mut h, r.conservation_delta_pl() as u64);
            }
            assert_eq!(report.digest, h, "{threads} threads");
        }
    }
}
