//! The deterministic replay soak over the descriptor log, in four
//! phases:
//!
//! * **record** — the recorded-run cost: a genuine compile plus one
//!   execution per descriptor, sampled per assay (rows
//!   `{assay}/{machine}/record`) and weighted by the fleet mix. This is
//!   what each original run cost before its descriptor landed in the
//!   log.
//! * **log** — appends the fleet to a CRC-guarded descriptor log in a
//!   temp directory, reopens it, and compares the recovered fleet with
//!   what was appended, record for record.
//! * **soak** — replays the recovered fleet from cached plans (no
//!   recompilation) until the run floor: 2,000 runs with `--quick`,
//!   1,000,000 in full. The first passes run at 1, 2 and 8 threads and
//!   compare per-run digests pairwise; later passes alternate thread
//!   counts and must reproduce the order-invariant aggregate digest.
//!   Per-run obs stream into one lock-sharded `FleetSink`. Row
//!   `soak/mixed/replay` samples the per-run cost of each pass.
//! * **wire** — serves `obs.snapshot` over the NDJSON wire from the
//!   soak's sink and compares it with the local rendering byte for byte.
//!
//! The fleet mixes fig2, glucose and glycomics, fault-free and faulted;
//! full mode adds six fault-free enzyme10 runs on `r128`. Gates:
//! `log_intact`, `replay_runs` ≥ the floor, `conservation_violations`,
//! `unrecovered_faults` and `digest_mismatches` ≤ 0, `obs_wire_equal`,
//! and in full mode `replay_over_record` ≥ 50 (recorded-run cost over
//! replayed-run cost).

use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use aqua_bench::harness::sample;
use aqua_compiler::{compile, CompileOptions};
use aqua_obs::fleet::FleetSink;
use aqua_obs::Obs;
use aqua_serve::server::serve_lines;
use aqua_serve::{Service, ServiceConfig};
use aqua_sim::replay::{replay, run_one, DescriptorLog, PlanSet, ReplayOptions, RunDescriptor};

use crate::{status_on, Bench};

/// One assay in the fleet mix.
struct Spec {
    assay: &'static str,
    machine: &'static str,
    /// Fault-free descriptors per pass.
    fault_free: usize,
    /// Faulted descriptors per (rate in ppm, seeds) pair.
    faulted: &'static [(u32, usize)],
    /// Record-phase samples (genuine compile + run each).
    record_samples: usize,
}

fn fleet_spec(quick: bool) -> Vec<Spec> {
    let spec = |assay, fault_free, faulted, record_samples| Spec {
        assay,
        machine: "paper",
        fault_free,
        faulted,
        record_samples,
    };
    let (small, glycomics, record) = if quick { (8, 8, 2) } else { (2_400, 1_200, 10) };
    let mut specs = vec![
        spec("fig2", small, &[(1_000, 4), (5_000, 4)], record),
        spec("glucose", small, &[(1_000, 4), (5_000, 4)], record),
        spec("glycomics", glycomics, &[(1_000, 4)], record),
    ];
    if !quick {
        // Enzyme10's descriptors exist to prove replays skip its
        // compile, not to stress the recovery ladder: fault-free only.
        specs.push(Spec {
            machine: "r128",
            ..spec("enzyme10", 6, &[], 2)
        });
    }
    specs
}

pub(crate) fn run(b: &mut Bench) {
    let run_floor: u64 = if b.quick() { 2_000 } else { 1_000_000 };
    let specs = fleet_spec(b.quick());

    // ---- record ----
    let mut plans = PlanSet::new();
    let (mut record_runs, mut record_ns) = (0u128, 0u128);
    let mut statuses = Vec::new();
    for spec in &specs {
        let machine = aqua_bench::machine(spec.machine).expect("known machine");
        let src = aqua_bench::assay_source(spec.assay).expect("known assay");
        let mut seed = 0;
        let mut last = None;
        let samples = sample(0, spec.record_samples, || {
            let out =
                compile(&src, &machine, &CompileOptions::default()).expect("fleet assay compiles");
            // Run against a one-plan set: the record phase compiles
            // fresh, so it cannot borrow a shared `PlanSet`.
            let mut one = PlanSet::new();
            one.insert(spec.assay, machine.clone(), out.clone());
            let d = RunDescriptor::new(spec.assay, seed);
            seed += 1;
            let (_, digest) = run_one(&one, &d, Obs::off()).expect("recorded run succeeds");
            last = Some(out);
            digest
        });
        plans.insert(spec.assay, machine, last.expect("sampled"));
        let status = status_on(spec.assay, spec.machine);
        b.report.row(
            format!("{}/{}/record", spec.assay, spec.machine),
            &status,
            &samples,
        );
        statuses.push(status);
        let per_pass = spec.fault_free + spec.faulted.iter().map(|&(_, s)| s).sum::<usize>();
        let mean = samples.iter().sum::<u128>() / samples.len() as u128;
        record_runs += per_pass as u128;
        record_ns += per_pass as u128 * mean;
    }
    let record_ns_per_run = record_ns / record_runs.max(1);
    let mut fleet = Vec::new();
    for spec in &specs {
        for seed in 0..spec.fault_free as u64 {
            fleet.push(RunDescriptor::new(spec.assay, seed));
        }
        for &(rate_ppm, seeds) in spec.faulted {
            for seed in 0..seeds as u64 {
                fleet.push(RunDescriptor::faulted(spec.assay, 1_000 + seed, rate_ppm));
            }
        }
    }

    // ---- log ----
    let dir = std::env::temp_dir().join(format!("aqua-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut log, existing, _) =
            DescriptorLog::open(DescriptorLog::config(&dir)).expect("open descriptor log");
        assert!(existing.is_empty());
        for d in &fleet {
            log.append(d).expect("append descriptor");
        }
    }
    let (_log, recovered, _) =
        DescriptorLog::open(DescriptorLog::config(&dir)).expect("reopen descriptor log");
    let _ = std::fs::remove_dir_all(&dir);
    b.report.holds("log_intact", recovered == fleet);

    // ---- soak ----
    let sink = Arc::new(FleetSink::new());
    let thread_plan = [1, 2, 8];
    let mut mismatches = 0u64;
    let (mut runs, mut violations, mut unrecovered) = (0u64, 0u64, 0u64);
    let mut reference: Option<(u64, Vec<u64>)> = None;
    let (mut wall_ns, mut per_run_ns) = (0u128, Vec::new());
    while runs < run_floor {
        let passes = per_run_ns.len();
        let threads = thread_plan[passes % thread_plan.len()];
        let keep = passes < thread_plan.len();
        let opts = ReplayOptions {
            threads,
            obs: Obs::with_sink(sink.clone()),
            keep_digests: keep,
        };
        let start = Instant::now();
        let pass = replay(&plans, &recovered, &opts).expect("replay pass");
        let ns = start.elapsed().as_nanos();
        wall_ns += ns;
        per_run_ns.push(ns / u128::from(pass.runs.max(1)));
        match &reference {
            None => reference = Some((pass.aggregate_digest, pass.digests.clone())),
            Some((agg, digests)) => {
                mismatches += u64::from(pass.aggregate_digest != *agg);
                if keep {
                    mismatches += pass
                        .digests
                        .iter()
                        .zip(digests)
                        .filter(|(a, b)| a != b)
                        .count() as u64;
                }
            }
        }
        runs += pass.runs;
        violations += pass.conservation_violations;
        unrecovered += pass.unrecovered_faults;
    }
    per_run_ns.sort_unstable();
    b.report
        .row("soak/mixed/replay".into(), &statuses.join(","), &per_run_ns);
    let replay_ns_per_run = wall_ns / u128::from(runs.max(1));
    let snapshot = sink.snapshot();
    b.report
        .figure("record_ns_per_run", record_ns_per_run as f64);
    b.report
        .figure("replay_ns_per_run", replay_ns_per_run as f64);
    b.report.figure(
        "p999_instr_ns",
        snapshot
            .hist("sim.instr_ns")
            .map_or(0.0, |h| h.quantile_permille(999) as f64),
    );
    b.report
        .at_least("replay_runs", runs as f64, run_floor as f64);
    b.report
        .at_most("conservation_violations", violations as f64, 0.0);
    b.report
        .at_most("unrecovered_faults", unrecovered as f64, 0.0);
    b.report
        .at_most("digest_mismatches", mismatches as f64, 0.0);

    // ---- wire ----
    let service = Service::new(ServiceConfig {
        fleet: Some(sink.clone()),
        ..ServiceConfig::default()
    });
    let mut out = Vec::new();
    serve_lines(
        &service,
        Cursor::new(b"{\"id\":1,\"cmd\":\"obs.snapshot\"}\n".to_vec()),
        &mut out,
    )
    .expect("serve obs.snapshot");
    let wire = String::from_utf8(out).expect("utf8 response");
    let local = format!("{{\"id\":1,\"ok\":true,\"obs\":{}}}", snapshot.to_json());
    b.report.holds("obs_wire_equal", wire.trim_end() == local);
    b.report.at_least_in_full(
        "replay_over_record",
        record_ns_per_run as f64 / replay_ns_per_run.max(1) as f64,
        50.0,
    );
}
