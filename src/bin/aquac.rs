//! `aquac` — the AquaCore assay compiler driver.
//!
//! ```text
//! aquac compile <assay-file> [--emit ais|dot|volumes|log] [--machine CAP,LC]
//! aquac run     <assay-file> [--machine CAP,LC] [--yield FRACTION]
//! aquac check   <assay-file>
//! aquac exec    <assay-file> [--machine CAP,LC] [--yield FRACTION]
//!               [--parallel] [--instances N] [--threads N]
//! aquac serve   [--tcp ADDR] [--machine CAP,LC] [--cache-cap N]
//!               [--queue-cap N] [--deadline-ms N]
//!               [--max-deadline-ms N] [--max-line-bytes N]
//!               [--store DIR] [--tenant-inflight N]
//!               [--tenant-queue N] [--tenant-sessions N] [--obs]
//! aquac replay  record <assay-file> --log DIR [--name NAME]
//!               [--machine CAP,LC] [--runs N] [--seed-base S]
//!               [--fault-rate-ppm P]
//! aquac replay  run --log DIR --assay NAME=FILE [--assay ...]
//!               [--machine CAP,LC] [--threads N] [--obs]
//! ```
//!
//! * `compile` prints the requested artifact (default: AIS assembly);
//! * `run` compiles and executes on the simulated chip, reporting
//!   sensor readings and any constraint violations;
//! * `check` parses, lowers, and runs volume management, reporting how
//!   volumes were resolved (exit code 1 on compile errors);
//! * `exec` reports simulated wet time: sequentially by default, or
//!   under the plan schedule with `--parallel` (the chip gets extra
//!   storage for renaming; results are bit-identical to sequential).
//!   `--instances N` interleaves N copies of the assay on one chip
//!   (`--threads` workers replay them; thread count never changes
//!   results);
//! * `serve` starts the plan-compilation service: one JSON request per
//!   stdin line, one JSON response per stdout line (and the same
//!   protocol on `--tcp ADDR`), with content-addressed plan caching of
//!   up to `--cache-cap` plans and one compiler thread per core.
//!   `--store DIR` persists every compiled plan to a segment-log store
//!   and rehydrates the cache on restart; `--tenant-inflight` /
//!   `--tenant-queue` bound each tenant's share of the service;
//!   `--max-deadline-ms` and `--max-line-bytes` cap hostile requests.
//!   `--obs` attaches a lock-sharded fleet aggregator: the wire gains
//!   live `{"cmd":"obs.snapshot"}` / `{"cmd":"obs.reset"}` endpoints
//!   (the snapshot is deterministic, byte-stable JSON), and the final
//!   roll-up is printed at EOF;
//! * `replay record` compiles an assay once, executes `--runs` seeded
//!   runs (the recorded originals), and appends one compact run
//!   descriptor per run to the CRC-guarded descriptor log in `--log
//!   DIR`. `replay run` re-opens the log, recovers the intact
//!   descriptor prefix, and replays the whole fleet from cached plans
//!   — no recompilation — printing the order-invariant aggregate
//!   digest, which must equal the recorded one at any `--threads`.
//!
//! `--machine CAP,LC` sets capacity and least count in nanoliters
//! (default `100,0.1` — the paper's hardware).

use std::process::ExitCode;

use aqua_compiler::{compile, CompileOptions, PlannedVolume, VolumeResolution};
use aqua_rational::Ratio;
use aqua_sim::exec::{ExecConfig, Executor};
use aqua_volume::hierarchy::ManagedOutcome;
use aqua_volume::Machine;

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("aquac: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or_else(usage)?;
    if cmd == "serve" {
        // `serve` takes no assay file; it reads requests from stdin.
        return serve_main(rest);
    }
    if cmd == "exec" {
        return exec_main(rest);
    }
    if cmd == "replay" {
        return replay_main(rest);
    }
    let mut file = None;
    let mut emit = "ais".to_owned();
    let mut machine_spec = "100,0.1".to_owned();
    let mut yield_frac = 0.5f64;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--emit" => emit = it.next().ok_or("--emit needs a value")?.clone(),
            "--machine" => machine_spec = it.next().ok_or("--machine needs a value")?.clone(),
            "--yield" => {
                yield_frac = it
                    .next()
                    .ok_or("--yield needs a value")?
                    .parse()
                    .map_err(|_| "--yield must be a number in (0,1]")?
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let file = file.ok_or_else(usage)?;
    let src = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let machine = parse_machine(&machine_spec)?;

    let out = compile(&src, &machine, &CompileOptions::default()).map_err(|e| e.to_string())?;

    match cmd.as_str() {
        "compile" => match emit.as_str() {
            "ais" => print!("{}", out.program),
            "dot" => print!("{}", out.dag.to_dot(out.program.name())),
            "volumes" => {
                for (i, instr) in out.program.instrs().iter().enumerate() {
                    let note = match out.volume_plan.get(i) {
                        Some(PlannedVolume::Static(pl)) => {
                            format!("{:.1} nl", *pl as f64 / 1000.0)
                        }
                        Some(PlannedVolume::Runtime { partition, .. }) => {
                            format!("run-time (partition {partition})")
                        }
                        Some(PlannedVolume::All) => "all".to_owned(),
                        None => String::new(),
                    };
                    println!("{:<40} {note}", instr.to_string());
                }
            }
            "log" => match &out.resolution {
                VolumeResolution::Static(
                    ManagedOutcome::Solved { log, .. }
                    | ManagedOutcome::NeedsRegeneration { log, .. }
                    | ManagedOutcome::ResourcesExceeded { log, .. },
                ) => {
                    for line in log {
                        println!("{line}");
                    }
                }
                VolumeResolution::Partitioned(plan) => {
                    println!("partitioned into {} run-time stages", plan.partitions.len());
                }
                VolumeResolution::None => println!("volume management skipped"),
            },
            other => return Err(format!("unknown --emit `{other}`")),
        },
        "check" => {
            let how = match &out.resolution {
                VolumeResolution::Static(ManagedOutcome::Solved { volumes, .. }) => {
                    format!("solved statically via {}", volumes.method)
                }
                VolumeResolution::Static(ManagedOutcome::NeedsRegeneration { .. }) => {
                    "compiles, but relies on run-time regeneration".to_owned()
                }
                VolumeResolution::Static(ManagedOutcome::ResourcesExceeded { reason, .. }) => {
                    format!("resources exceeded: {reason}")
                }
                VolumeResolution::Partitioned(plan) => format!(
                    "volumes resolved at run time over {} partitions",
                    plan.partitions.len()
                ),
                VolumeResolution::None => "volume management skipped".to_owned(),
            };
            println!(
                "{}: {} instructions, {} DAG nodes — {how}",
                out.program.name(),
                out.program.len_executable(),
                out.dag.num_nodes()
            );
        }
        "run" => {
            let config = ExecConfig {
                unknown_separation_yield: yield_frac,
                ..ExecConfig::default()
            };
            let report = Executor::new(&machine, config)
                .run(&out)
                .map_err(|e| e.to_string())?;
            for s in &report.sense_results {
                let mut parts: Vec<String> = (s.composition.iter())
                    .map(|&(fluid, v)| {
                        let name = report.final_state.fluid_name(fluid);
                        format!("{name} {:.2} nl", v / 1000.0)
                    })
                    .collect();
                parts.sort();
                println!(
                    "{}: {:.2} nl [{}]",
                    s.target,
                    s.volume_pl as f64 / 1000.0,
                    parts.join(", ")
                );
            }
            if report.violations.is_empty() {
                println!("ok: no underflow, no overflow, no deficits");
            } else {
                for v in &report.violations {
                    eprintln!("violation: {v}");
                }
                return Err(format!("{} violations", report.violations.len()));
            }
        }
        other => return Err(format!("unknown command `{other}`\n{}", usage())),
    }
    Ok(())
}

/// Runs `aquac exec`: simulated wet-time reporting, sequential or
/// under the plan schedule (`--parallel`), optionally as a batch of
/// identical instances (`--instances N` on `--threads` workers).
fn exec_main(rest: &[String]) -> Result<(), String> {
    use aqua_sim::batch_exec::{run_batch, BatchJob, BatchOptions};
    use aqua_sim::sched::{plan, SchedOptions};

    let mut file = None;
    let mut machine_spec = "100,0.1".to_owned();
    let mut yield_frac = 0.5f64;
    let mut parallel = false;
    let mut instances = 1usize;
    let mut threads = 1usize;
    let mut it = rest.iter();
    let next_usize = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<usize, String> {
        it.next()
            .ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} must be a positive integer"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => machine_spec = it.next().ok_or("--machine needs a value")?.clone(),
            "--yield" => {
                yield_frac = it
                    .next()
                    .ok_or("--yield needs a value")?
                    .parse()
                    .map_err(|_| "--yield must be a number in (0,1]")?
            }
            "--parallel" => parallel = true,
            "--instances" => instances = next_usize(&mut it, "--instances")?.max(1),
            "--threads" => threads = next_usize(&mut it, "--threads")?.max(1),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let file = file.ok_or_else(usage)?;
    let src = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    // Renaming needs storage headroom: physical units stay at the
    // machine's counts, but reservoirs/ports are scaled so episodes of
    // the one virtual unit per class can live side by side.
    let machine = if parallel || instances > 1 {
        parse_machine(&machine_spec)?
            .with_reservoirs(128.max(32 * instances))
            .with_input_ports(64.max(8 * instances))
    } else {
        parse_machine(&machine_spec)?
    };
    let out = compile(&src, &machine, &CompileOptions::default()).map_err(|e| e.to_string())?;
    let config = ExecConfig {
        unknown_separation_yield: yield_frac,
        ..ExecConfig::default()
    };

    if instances > 1 {
        let jobs: Vec<BatchJob> = (0..instances)
            .map(|_| BatchJob {
                out: &out,
                key: 0,
                config: config.clone(),
            })
            .collect();
        let batch = run_batch(
            &machine,
            &jobs,
            &BatchOptions {
                threads,
                ..BatchOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let violations: usize = batch.reports.iter().map(|r| r.violations.len()).sum();
        println!(
            "{} x{instances}: sequential {}s, scheduled {}s ({:.2}x) on {threads} thread(s)",
            out.program.name(),
            batch.sequential_s,
            batch.makespan_s,
            batch.sequential_s as f64 / batch.makespan_s.max(1) as f64,
        );
        println!(
            "schedule: {} spills, {} carries, digest {:016x}{}",
            batch.schedule.stats.spills,
            batch.schedule.stats.carries,
            batch.digest,
            if batch.schedule.stats.fallback {
                " (sequential fallback)"
            } else {
                ""
            }
        );
        if violations > 0 {
            return Err(format!("{violations} violations across instances"));
        }
        println!("ok: {instances} instances, no violations");
        return Ok(());
    }

    if parallel {
        let sched = plan(&out, &machine, &SchedOptions::default());
        let run = Executor::new(&machine, config)
            .run_scheduled(&out, &sched)
            .map_err(|e| e.to_string())?;
        println!(
            "{}: sequential {}s, scheduled {}s ({:.2}x), critical path {}s{}",
            out.program.name(),
            sched.sequential_s,
            sched.makespan_s,
            sched.sequential_s as f64 / sched.makespan_s.max(1) as f64,
            sched.critical_path_s,
            if sched.stats.fallback {
                " (sequential fallback)"
            } else {
                ""
            }
        );
        for u in &sched.utilization {
            if u.slots > 0 && u.busy_slot_s > 0 {
                println!(
                    "  {}: {}/{} slots peak, {:.1}% busy",
                    u.class,
                    u.peak,
                    u.slots,
                    u.util_permille as f64 / 10.0
                );
            }
        }
        report_exec(&run.report)
    } else {
        let report = Executor::new(&machine, config)
            .run(&out)
            .map_err(|e| e.to_string())?;
        println!("{}: {}s wet time", out.program.name(), report.wet_seconds);
        report_exec(&report)
    }
}

/// Prints an execution report's sense set and violation status.
fn report_exec(report: &aqua_sim::exec::ExecReport) -> Result<(), String> {
    for s in &report.sense_results {
        println!("{}: {:.2} nl", s.target, s.volume_pl as f64 / 1000.0);
    }
    if report.violations.is_empty() {
        println!("ok: no underflow, no overflow, no deficits");
        Ok(())
    } else {
        for v in &report.violations {
            eprintln!("violation: {v}");
        }
        Err(format!("{} violations", report.violations.len()))
    }
}

/// Runs `aquac serve`: NDJSON plan service on stdin (+ optional TCP).
fn serve_main(rest: &[String]) -> Result<(), String> {
    use aqua_serve::{serve_stdin, spawn_tcp, Service, ServiceConfig};

    let mut config = ServiceConfig::default();
    let mut tcp_addr: Option<String> = None;
    let mut with_obs = false;
    let mut it = rest.iter();
    let next_usize = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<usize, String> {
        it.next()
            .ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tcp" => tcp_addr = Some(it.next().ok_or("--tcp needs an address")?.clone()),
            "--machine" => {
                config.machine = parse_machine(it.next().ok_or("--machine needs a value")?)?;
            }
            "--cache-cap" => config.cache_capacity = next_usize(&mut it, "--cache-cap")?,
            "--queue-cap" => config.queue_capacity = next_usize(&mut it, "--queue-cap")?,
            "--deadline-ms" => {
                config.default_deadline_ms = next_usize(&mut it, "--deadline-ms")? as u64;
            }
            "--max-deadline-ms" => {
                config.max_deadline_ms = next_usize(&mut it, "--max-deadline-ms")? as u64;
            }
            "--max-line-bytes" => {
                config.max_line_bytes = next_usize(&mut it, "--max-line-bytes")?;
            }
            "--store" => {
                let dir = it.next().ok_or("--store needs a directory")?;
                config.store = Some(aqua_serve::StoreConfig::at(dir));
            }
            "--tenant-inflight" => {
                config.tenant_max_inflight = next_usize(&mut it, "--tenant-inflight")?;
            }
            "--tenant-queue" => {
                config.tenant_max_queued = next_usize(&mut it, "--tenant-queue")?;
            }
            "--tenant-sessions" => {
                config.tenant_max_sessions = next_usize(&mut it, "--tenant-sessions")?;
            }
            "--obs" => with_obs = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    // `--obs` attaches one lock-sharded fleet aggregator as both the
    // service's recording sink and its live wire endpoint, so
    // `obs.snapshot` over NDJSON and the EOF roll-up render the same
    // byte-stable JSON.
    let fleet_sink = if with_obs {
        let sink = std::sync::Arc::new(aqua_obs::fleet::FleetSink::new());
        config.obs = aqua_obs::Obs::with_sink(sink.clone());
        config.fleet = Some(sink.clone());
        Some(sink)
    } else {
        None
    };

    let service = std::sync::Arc::new(Service::try_new(config).map_err(|e| e.to_string())?);
    if let Some(addr) = tcp_addr {
        let (local, _accept) =
            spawn_tcp(std::sync::Arc::clone(&service), &addr).map_err(|e| e.to_string())?;
        eprintln!("aquac serve: listening on {local}");
    }
    serve_stdin(&service).map_err(|e| e.to_string())?;
    if let Some(sink) = fleet_sink {
        eprintln!("{}", sink.snapshot().to_json());
    }
    Ok(())
}

/// Runs `aquac replay record|run`: the fleet-scale deterministic
/// replay front end over the CRC-guarded descriptor log.
fn replay_main(rest: &[String]) -> Result<(), String> {
    use aqua_sim::replay::{replay, run_one, DescriptorLog, PlanSet, ReplayOptions, RunDescriptor};

    let (mode, rest) = rest
        .split_first()
        .ok_or("replay needs a mode: record or run")?;
    let next_u64 = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<u64, String> {
        it.next()
            .ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    match mode.as_str() {
        "record" => {
            let mut file = None;
            let mut log_dir = None;
            let mut name = None;
            let mut machine_spec = "100,0.1".to_owned();
            let mut runs = 100u64;
            let mut seed_base = 1u64;
            let mut fault_rate_ppm = 0u64;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--log" => log_dir = Some(it.next().ok_or("--log needs a directory")?.clone()),
                    "--name" => name = Some(it.next().ok_or("--name needs a value")?.clone()),
                    "--machine" => {
                        machine_spec = it.next().ok_or("--machine needs a value")?.clone()
                    }
                    "--runs" => runs = next_u64(&mut it, "--runs")?.max(1),
                    "--seed-base" => seed_base = next_u64(&mut it, "--seed-base")?,
                    "--fault-rate-ppm" => {
                        fault_rate_ppm = next_u64(&mut it, "--fault-rate-ppm")?;
                        if fault_rate_ppm > 1_000_000 {
                            return Err("--fault-rate-ppm must be at most 1000000".into());
                        }
                    }
                    other if !other.starts_with('-') && file.is_none() => {
                        file = Some(other.to_owned())
                    }
                    other => return Err(format!("unknown argument `{other}`\n{}", usage())),
                }
            }
            let file = file.ok_or_else(usage)?;
            let log_dir = log_dir.ok_or("replay record needs --log DIR")?;
            let name = name.unwrap_or_else(|| {
                std::path::Path::new(&file)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| file.clone())
            });
            let machine = parse_machine(&machine_spec)?;
            let src =
                std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let out =
                compile(&src, &machine, &CompileOptions::default()).map_err(|e| e.to_string())?;
            let mut plans = PlanSet::new();
            plans.insert(name.clone(), machine, out);

            let (mut log, existing, _) = DescriptorLog::open(DescriptorLog::config(&log_dir))
                .map_err(|e| format!("cannot open descriptor log: {e}"))?;
            let mut aggregate = 0u64;
            for i in 0..runs {
                let d = if fault_rate_ppm == 0 {
                    RunDescriptor::new(name.clone(), seed_base + i)
                } else {
                    RunDescriptor::faulted(name.clone(), seed_base + i, fault_rate_ppm as u32)
                };
                let (_, digest) = run_one(&plans, &d, aqua_obs::Obs::off())
                    .map_err(|e| format!("recorded run {i} failed: {e}"))?;
                aggregate = aggregate.wrapping_add(digest);
                log.append(&d)
                    .map_err(|e| format!("cannot append descriptor: {e}"))?;
            }
            println!(
                "recorded {runs} run(s) of {name} into {log_dir} ({} total descriptors), \
                 digest sum {aggregate:016x}",
                existing.len() as u64 + runs
            );
            Ok(())
        }
        "run" => {
            let mut log_dir = None;
            let mut machine_spec = "100,0.1".to_owned();
            let mut threads = 1usize;
            let mut with_obs = false;
            let mut bindings: Vec<(String, String)> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--log" => log_dir = Some(it.next().ok_or("--log needs a directory")?.clone()),
                    "--machine" => {
                        machine_spec = it.next().ok_or("--machine needs a value")?.clone()
                    }
                    "--threads" => threads = next_u64(&mut it, "--threads")?.max(1) as usize,
                    "--obs" => with_obs = true,
                    "--assay" => {
                        let spec = it.next().ok_or("--assay needs NAME=FILE")?;
                        let (n, f) = spec.split_once('=').ok_or("--assay expects NAME=FILE")?;
                        bindings.push((n.to_owned(), f.to_owned()));
                    }
                    other => return Err(format!("unknown argument `{other}`\n{}", usage())),
                }
            }
            let log_dir = log_dir.ok_or("replay run needs --log DIR")?;
            let machine = parse_machine(&machine_spec)?;
            let mut plans = PlanSet::new();
            for (n, f) in &bindings {
                let src =
                    std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
                let out = compile(&src, &machine, &CompileOptions::default())
                    .map_err(|e| format!("{n}: {e}"))?;
                plans.insert(n.clone(), machine.clone(), out);
            }
            let (_log, descriptors, report) = DescriptorLog::open(DescriptorLog::config(&log_dir))
                .map_err(|e| format!("cannot open descriptor log: {e}"))?;
            if report.torn_records > 0 || report.truncated_bytes > 0 {
                eprintln!(
                    "aquac replay: recovered {} descriptor(s); dropped {} torn record(s), \
                     truncated {} byte(s)",
                    report.records, report.torn_records, report.truncated_bytes
                );
            }
            let fleet_sink =
                with_obs.then(|| std::sync::Arc::new(aqua_obs::fleet::FleetSink::new()));
            let options = ReplayOptions {
                threads,
                obs: fleet_sink
                    .as_ref()
                    .map(|s| aqua_obs::Obs::with_sink(s.clone() as _))
                    .unwrap_or_default(),
                keep_digests: false,
            };
            let fleet = replay(&plans, &descriptors, &options).map_err(|e| e.to_string())?;
            println!(
                "replayed {} run(s) on {threads} thread(s): aggregate digest {:016x}",
                fleet.runs, fleet.aggregate_digest
            );
            println!(
                "conservation violations {}, unrecovered {}, residual violations {}, \
                 faults {}, recovery [redispense {}, regenerate {}, replan {}, trims {}]",
                fleet.conservation_violations,
                fleet.unrecovered_faults,
                fleet.residual_violations,
                fleet.faults_injected,
                fleet.recovery.redispense,
                fleet.recovery.regenerate,
                fleet.recovery.replan,
                fleet.recovery.overflow_trims,
            );
            if let Some(sink) = fleet_sink {
                println!("{}", sink.snapshot().to_json());
            }
            if fleet.conservation_violations > 0 || fleet.unrecovered_faults > 0 {
                return Err("replay surfaced conservation violations or unrecovered faults".into());
            }
            Ok(())
        }
        other => Err(format!("unknown replay mode `{other}`\n{}", usage())),
    }
}

fn parse_machine(spec: &str) -> Result<Machine, String> {
    let (cap, lc) = spec
        .split_once(',')
        .ok_or("--machine expects CAP,LC in nanoliters")?;
    let cap: Ratio = cap
        .trim()
        .parse()
        .map_err(|e| format!("bad capacity: {e}"))?;
    let lc: Ratio = lc
        .trim()
        .parse()
        .map_err(|e| format!("bad least count: {e}"))?;
    Machine::new(cap, lc).map_err(|e| e.to_string())
}

fn usage() -> String {
    "usage: aquac <compile|run|check> <assay-file> \
     [--emit ais|dot|volumes|log] [--machine CAP,LC] [--yield F]\n   \
     or: aquac exec <assay-file> [--machine CAP,LC] [--yield F] \
     [--parallel] [--instances N] [--threads N]\n   \
     or: aquac serve [--tcp ADDR] [--machine CAP,LC] [--cache-cap N] \
     [--queue-cap N] [--deadline-ms N] [--max-deadline-ms N] \
     [--max-line-bytes N] [--store DIR] [--tenant-inflight N] \
     [--tenant-queue N] [--tenant-sessions N] [--obs]\n   \
     or: aquac replay record <assay-file> --log DIR [--name NAME] \
     [--machine CAP,LC] [--runs N] [--seed-base S] [--fault-rate-ppm P]\n   \
     or: aquac replay run --log DIR --assay NAME=FILE [--assay ...] \
     [--machine CAP,LC] [--threads N] [--obs]"
        .to_owned()
}
