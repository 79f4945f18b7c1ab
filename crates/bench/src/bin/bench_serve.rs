//! Times the plan-compilation service's cold, warm-src, and warm-key
//! paths on the four paper assays, drives a million-request mixed
//! multi-tenant traffic phase through the sharded tier, proves
//! warm-equals-cold byte-identity survives a kill-and-restart through
//! the persistent plan store, and writes everything to
//! `BENCH_serve.json` at the repo root.
//!
//! Usage: `cargo run --release --bin bench_serve [--quick] [--out PATH]
//! [--obs TRACE_PATH]`
//!
//! Three paths are measured per assay (Table 2 suite: Glucose,
//! Glycomics, Enzyme, Enzyme10):
//!
//! * `cold` — the cache is cleared before every request, so each one
//!   canonicalizes, queues, solves, and renders from scratch;
//! * `warm-src` — the cache stays hot and requests arrive as assay
//!   source (canonicalize + hash + hit);
//! * `warm-key` — the cache stays hot and requests arrive as a bare
//!   content key (hash probe + Arc clone, the steady-state hot path).
//!
//! Then two service-level phases:
//!
//! * **traffic** — 8 client threads fire ~85% warm-key / ~14% warm-src
//!   / ~1% cold-unique requests (1M total; 20k with `--quick`) across
//!   five tenants, one of which is a quota-starved "noisy" tenant whose
//!   cold misses get shed; reports `traffic_p50/p99/p999_ns` and
//!   `traffic_shed_rate`;
//! * **restart** — a store-backed service cold-compiles the suite, is
//!   dropped (the "kill"), reopened on the same directory, and must
//!   serve every plan byte-identical to the cold reference *without a
//!   single recompile* (`restart_equals_cold`, `restart_no_recompiles`);
//!   rehydrated warm p50 must stay within 10x of in-memory warm p50.
//!
//! Warm responses are checked byte-identical to cold compiles before
//! anything is timed; the binary exits nonzero on a mismatch, if the
//! headline `warm_over_cold` (cold median / warm-key median, pooled
//! over the suite) drops below 10x, or if a restart gate fails.
//!
//! `--quick` drops iteration counts to a smoke-test level for CI; use
//! the default mode to regenerate the committed `BENCH_serve.json`.

use aqua_bench::harness::{self, Extra, Measurement};
use aqua_bench::Benchmark;
use aqua_dag::Dag;
use aqua_obs::Obs;
use aqua_rational::rng::XorShift64Star;
use aqua_serve::store::StoreConfig;
use aqua_serve::{canonicalize, ServeError, Served, Service, ServiceConfig};
use aqua_volume::Machine;
use std::collections::HashMap;
use std::time::Instant;

/// A named request generator for one timing mode.
type Mode<'a> = (&'a str, Box<dyn FnMut() -> Served + 'a>);

/// The acceptance floor for the headline speedup.
const MIN_WARM_OVER_COLD: f64 = 10.0;

struct Case {
    name: String,
    src: String,
    /// Content key, from the pre-timing cold compile.
    key: u128,
    /// Cold plan bytes, the byte-identity reference.
    plan: std::sync::Arc<str>,
}

/// Times `iters` runs of `f`, returning the sorted per-request samples
/// in nanoseconds (the harness `time` helper keeps only aggregates; the
/// service bench also reports p50/p99, so it keeps the samples).
fn sample(warmup: usize, iters: usize, mut f: impl FnMut() -> Served) -> Vec<u128> {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples_ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        samples_ns.push(start.elapsed().as_nanos());
    }
    samples_ns.sort_unstable();
    samples_ns
}

/// Nearest-rank percentile (q in `[0,1]`) of sorted samples.
fn percentile(sorted_ns: &[u128], q: f64) -> u128 {
    let idx = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx]
}

fn measurement(name: &str, sorted_ns: &[u128]) -> Measurement {
    let iters = sorted_ns.len();
    Measurement {
        name: name.to_owned(),
        iters,
        min_ns: sorted_ns[0],
        mean_ns: sorted_ns.iter().sum::<u128>() / iters as u128,
        median_ns: percentile(sorted_ns, 0.50),
        p95_ns: percentile(sorted_ns, 0.95),
    }
}

/// Client threads in the traffic phase.
const TRAFFIC_THREADS: usize = 8;
/// Acceptance ceiling: rehydrated warm p50 over in-memory warm p50.
const MAX_RESTART_OVER_WARM: f64 = 10.0;

/// A unique tiny assay per `n`: distinct mix ratios → distinct key, so
/// the traffic phase's cold slice never hits the cache.
fn unique_assay(n: u64) -> Dag {
    let mut d = Dag::new();
    let a = d.add_input("A");
    let b = d.add_input("B");
    let m = d
        .add_mix("m", &[(a, 1), (b, n + 2)], 10)
        .expect("valid mix");
    d.add_process("s", "sense.OD", m);
    d
}

struct TrafficOutcome {
    /// Sorted latencies of successful requests, ns.
    latencies_ns: Vec<u128>,
    total: usize,
    sheds: usize,
    rejects: usize,
    cold_unique: usize,
    wall_ns: u128,
    identical: bool,
}

/// Mixed hot/cold multi-tenant traffic against a quota-bounded sharded
/// service: ~85% warm-key, ~14% warm-src (across four steady tenants),
/// ~1% cold-unique compiles from a quota-starved "noisy" tenant whose
/// misses shed under burst.
fn run_traffic(cases: &[Case], machine: &Machine, total: usize) -> TrafficOutcome {
    let service = Service::new(ServiceConfig {
        cache_capacity: 4096,
        worker_shards: 4,
        queue_capacity: 512,
        tenant_max_inflight: 2,
        tenant_max_queued: 2,
        ..ServiceConfig::default()
    });
    let mut identical = true;
    for case in cases {
        let warm = service
            .submit_src(&case.src, machine, None)
            .expect("traffic warm-up");
        identical &= warm.plan == case.plan;
    }
    let weights: HashMap<aqua_dag::NodeId, u64> = HashMap::new();
    let per_thread = total / TRAFFIC_THREADS;
    let start = Instant::now();
    let per_thread_results: Vec<(Vec<u128>, usize, usize, usize, bool)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..TRAFFIC_THREADS)
                .map(|t| {
                    let service = &service;
                    let weights = &weights;
                    scope.spawn(move || {
                        let mut rng = XorShift64Star::new(0xBEEF + t as u64 * 0x9E37_79B9);
                        let mut lat: Vec<u128> = Vec::with_capacity(per_thread);
                        let (mut sheds, mut rejects, mut colds) = (0usize, 0usize, 0usize);
                        let mut ok = true;
                        let tenant = format!("tenant-{}", t % 4);
                        for i in 0..per_thread {
                            let dice = rng.range_u64(0, 99);
                            let begin = Instant::now();
                            if dice == 0 {
                                // Cold-unique compile from the noisy tenant.
                                colds += 1;
                                let n = (t * per_thread + i) as u64;
                                let canon = canonicalize(&unique_assay(n), weights, machine)
                                    .expect("canon");
                                match service.submit_canon_tenant(
                                    canon,
                                    machine.clone(),
                                    None,
                                    "noisy",
                                ) {
                                    Ok(_) => lat.push(begin.elapsed().as_nanos()),
                                    Err(ServeError::Shedding) => sheds += 1,
                                    Err(ServeError::Overloaded | ServeError::Timeout) => {
                                        rejects += 1
                                    }
                                    Err(e) => panic!("unexpected traffic error: {e}"),
                                }
                            } else if dice < 15 {
                                // Warm by source, under this thread's tenant.
                                let case = &cases[rng.index(cases.len())];
                                let canon =
                                    Service::canon_src(&case.src, machine).expect("canon src");
                                let served = service
                                    .submit_canon_tenant(canon, machine.clone(), None, &tenant)
                                    .expect("warm src");
                                lat.push(begin.elapsed().as_nanos());
                                ok &= served.plan == case.plan;
                            } else {
                                // Warm by key: the steady-state hot path.
                                let case = &cases[rng.index(cases.len())];
                                let served = service.submit_key(case.key).expect("warm key");
                                lat.push(begin.elapsed().as_nanos());
                                ok &= served.plan == case.plan;
                            }
                        }
                        (lat, sheds, rejects, colds, ok)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traffic thread"))
                .collect()
        });
    let wall_ns = start.elapsed().as_nanos();
    let mut latencies_ns = Vec::with_capacity(total);
    let (mut sheds, mut rejects, mut cold_unique) = (0, 0, 0);
    for (lat, s, r, c, ok) in per_thread_results {
        latencies_ns.extend(lat);
        sheds += s;
        rejects += r;
        cold_unique += c;
        identical &= ok;
    }
    latencies_ns.sort_unstable();
    TrafficOutcome {
        latencies_ns,
        total: per_thread * TRAFFIC_THREADS,
        sheds,
        rejects,
        cold_unique,
        wall_ns,
        identical,
    }
}

struct RestartOutcome {
    /// Sorted warm-src latencies on the rehydrated service, ns.
    samples_ns: Vec<u128>,
    equals_cold: bool,
    no_recompiles: bool,
}

/// Kill-and-restart: a store-backed service cold-compiles the suite, is
/// dropped, and a new process-equivalent (fresh `Service`, same
/// directory) must serve every plan byte-identical to the cold
/// reference without recompiling anything.
fn run_restart(cases: &[Case], machine: &Machine, iters: usize, warmup: usize) -> RestartOutcome {
    let dir = std::env::temp_dir().join(format!("aqua-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let svc = Service::new(ServiceConfig {
            store: Some(StoreConfig::at(&dir)),
            ..ServiceConfig::default()
        });
        for case in cases {
            svc.submit_src(&case.src, machine, None)
                .expect("cold compile into store");
        }
        // svc dropped here: the "kill".
    }
    let (obs, sink) = Obs::recording();
    let svc = Service::try_new(ServiceConfig {
        store: Some(StoreConfig::at(&dir)),
        obs,
        ..ServiceConfig::default()
    })
    .expect("reopen plan store");
    let mut equals_cold = true;
    for case in cases {
        let warm = svc
            .submit_src(&case.src, machine, None)
            .expect("rehydrated warm hit");
        equals_cold &= warm.key == case.key && warm.plan == case.plan;
        equals_cold &= svc
            .submit_key(case.key)
            .map(|s| s.plan == case.plan)
            .unwrap_or(false);
    }
    let mut samples_ns: Vec<u128> = Vec::new();
    for case in cases {
        samples_ns.extend(sample(warmup, iters, || {
            svc.submit_src(&case.src, machine, None)
                .expect("warm after restart")
        }));
    }
    samples_ns.sort_unstable();
    let no_recompiles = sink.snapshot().counter("serve.plan.compiles") == 0;
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    RestartOutcome {
        samples_ns,
        equals_cold,
        no_recompiles,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(pos) => args.get(pos + 1).cloned().unwrap_or_else(|| {
            // Refuse to fall back silently: the default path is the
            // committed BENCH_serve.json, which a typo'd --out would
            // clobber.
            eprintln!("error: --out requires a path");
            std::process::exit(2);
        }),
        None => concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_owned(),
    };
    let (obs, obs_out) = harness::obs_from_args(&args);

    let machine = Machine::paper_default();
    let service = Service::new(ServiceConfig {
        obs,
        ..ServiceConfig::default()
    });

    // Pre-timing pass: cold-compile every assay on a fresh service and
    // check the shared service's warm responses are byte-identical.
    let mut cases: Vec<Case> = Vec::new();
    for bench in Benchmark::table2_suite() {
        let src = bench.source();
        let fresh = Service::new(ServiceConfig::default());
        let cold = fresh
            .submit_src(&src, &machine, None)
            .expect("paper assay compiles");
        let first = service
            .submit_src(&src, &machine, None)
            .expect("paper assay compiles");
        let warm = service
            .submit_src(&src, &machine, None)
            .expect("warm hit succeeds");
        if first.plan != cold.plan || warm.plan != first.plan {
            eprintln!(
                "error: {} warm plan differs from cold compile",
                bench.name()
            );
            std::process::exit(1);
        }
        cases.push(Case {
            name: bench.name().to_lowercase(),
            src,
            key: cold.key,
            plan: cold.plan,
        });
    }

    println!(
        "bench_serve: cold vs warm plan service ({} mode)\n",
        if quick { "quick" } else { "full" }
    );

    let (cold_iters, warm_iters) = if quick { (2, 20) } else { (15, 400) };
    let mut measurements: Vec<Measurement> = Vec::new();
    let mut extras: Vec<(String, Extra)> = vec![("quick".into(), Extra::Bool(quick))];
    // Pooled samples across the suite drive the headline numbers.
    let mut pooled: [Vec<u128>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut identical = true;

    for case in &cases {
        let modes: [Mode; 3] = [
            (
                "cold",
                Box::new(|| {
                    service.clear_cache();
                    service
                        .submit_src(&case.src, &machine, None)
                        .expect("cold compile")
                }),
            ),
            (
                "warm-src",
                Box::new(|| {
                    service
                        .submit_src(&case.src, &machine, None)
                        .expect("warm src hit")
                }),
            ),
            (
                "warm-key",
                Box::new(|| service.submit_key(case.key).expect("warm key hit")),
            ),
        ];
        // Re-warm after the cold mode left the cache empty.
        let rewarm = service
            .submit_src(&case.src, &machine, None)
            .expect("re-warm");
        identical &= rewarm.plan == case.plan;

        for (i, (mode, mut f)) in modes.into_iter().enumerate() {
            let iters = if mode == "cold" {
                cold_iters
            } else {
                warm_iters
            };
            let warmup = if quick { 0 } else { 2 };
            if mode != "cold" {
                // Make sure the entry is resident before timing hits.
                let warm = service
                    .submit_src(&case.src, &machine, None)
                    .expect("warm-up");
                identical &= warm.plan == case.plan;
            }
            let samples = sample(warmup, iters, &mut f);
            let label = format!("{}/{}", case.name, mode);
            let m = measurement(&label, &samples);
            harness::report(&m);
            extras.push((
                format!("{}_{}_p50_ns", case.name, mode.replace('-', "_")),
                Extra::Num(percentile(&samples, 0.50).to_string()),
            ));
            extras.push((
                format!("{}_{}_p99_ns", case.name, mode.replace('-', "_")),
                Extra::Num(percentile(&samples, 0.99).to_string()),
            ));
            pooled[i].extend_from_slice(&samples);
            measurements.push(m);
        }
        println!();
    }

    for p in &mut pooled {
        p.sort_unstable();
    }
    let [cold_pool, warm_src_pool, warm_key_pool] = &pooled;
    let rps = |sorted: &[u128]| {
        let mean = sorted.iter().sum::<u128>() as f64 / sorted.len() as f64;
        1e9 / mean
    };
    let cold_p50 = percentile(cold_pool, 0.50);
    let warm_src_p50 = percentile(warm_src_pool, 0.50);
    let warm_key_p50 = percentile(warm_key_pool, 0.50);
    let warm_over_cold = cold_p50 as f64 / warm_key_p50.max(1) as f64;
    let warm_src_over_cold = cold_p50 as f64 / warm_src_p50.max(1) as f64;

    println!(
        "pooled: cold p50 {}  warm-src p50 {}  warm-key p50 {}",
        harness::fmt_ns(cold_p50),
        harness::fmt_ns(warm_src_p50),
        harness::fmt_ns(warm_key_p50)
    );
    println!(
        "throughput: cold {:.0} rps, warm-src {:.0} rps, warm-key {:.0} rps",
        rps(cold_pool),
        rps(warm_src_pool),
        rps(warm_key_pool)
    );
    println!("headline warm_over_cold (key path): {warm_over_cold:.1}x");

    extras.push((
        "cold_rps".into(),
        Extra::Num(format!("{:.1}", rps(cold_pool))),
    ));
    extras.push((
        "warm_src_rps".into(),
        Extra::Num(format!("{:.1}", rps(warm_src_pool))),
    ));
    extras.push((
        "warm_key_rps".into(),
        Extra::Num(format!("{:.1}", rps(warm_key_pool))),
    ));
    extras.push((
        "warm_over_cold".into(),
        Extra::Num(format!("{warm_over_cold:.2}")),
    ));
    extras.push((
        "warm_src_over_cold".into(),
        Extra::Num(format!("{warm_src_over_cold:.2}")),
    ));
    // ---- traffic phase: mixed hot/cold multi-tenant load ----
    let traffic_total = if quick { 20_000 } else { 1_000_000 };
    println!("\ntraffic: {traffic_total} mixed multi-tenant requests on {TRAFFIC_THREADS} threads");
    let traffic = run_traffic(&cases, &machine, traffic_total);
    identical &= traffic.identical;
    let m = measurement("traffic/mixed", &traffic.latencies_ns);
    harness::report(&m);
    measurements.push(m);
    let traffic_p50 = percentile(&traffic.latencies_ns, 0.50);
    let traffic_p99 = percentile(&traffic.latencies_ns, 0.99);
    let traffic_p999 = percentile(&traffic.latencies_ns, 0.999);
    let shed_rate = traffic.sheds as f64 / traffic.total as f64;
    let traffic_rps = traffic.total as f64 / (traffic.wall_ns as f64 / 1e9);
    println!(
        "traffic: p50 {}  p99 {}  p999 {}  shed rate {:.4} ({} shed, {} rejected, {} cold-unique)  {:.0} rps",
        harness::fmt_ns(traffic_p50),
        harness::fmt_ns(traffic_p99),
        harness::fmt_ns(traffic_p999),
        shed_rate,
        traffic.sheds,
        traffic.rejects,
        traffic.cold_unique,
        traffic_rps
    );
    extras.push((
        "traffic_requests".into(),
        Extra::Num(traffic.total.to_string()),
    ));
    extras.push((
        "traffic_threads".into(),
        Extra::Num(TRAFFIC_THREADS.to_string()),
    ));
    extras.push(("traffic_p50_ns".into(), Extra::Num(traffic_p50.to_string())));
    extras.push(("traffic_p99_ns".into(), Extra::Num(traffic_p99.to_string())));
    extras.push((
        "traffic_p999_ns".into(),
        Extra::Num(traffic_p999.to_string()),
    ));
    extras.push((
        "traffic_shed_rate".into(),
        Extra::Num(format!("{shed_rate:.6}")),
    ));
    extras.push((
        "traffic_sheds".into(),
        Extra::Num(traffic.sheds.to_string()),
    ));
    extras.push((
        "traffic_rejects".into(),
        Extra::Num(traffic.rejects.to_string()),
    ));
    extras.push((
        "traffic_cold_unique".into(),
        Extra::Num(traffic.cold_unique.to_string()),
    ));
    extras.push((
        "traffic_rps".into(),
        Extra::Num(format!("{traffic_rps:.1}")),
    ));

    // ---- restart phase: durability through a kill ----
    println!("\nrestart: kill-and-restart rehydration through the plan store");
    let (restart_iters, restart_warmup) = if quick { (20, 0) } else { (200, 2) };
    let restart = run_restart(&cases, &machine, restart_iters, restart_warmup);
    let m = measurement("restart/warm-src", &restart.samples_ns);
    harness::report(&m);
    measurements.push(m);
    let restart_warm_p50 = percentile(&restart.samples_ns, 0.50);
    let restart_over_warm = restart_warm_p50 as f64 / warm_src_p50.max(1) as f64;
    println!(
        "restart: warm p50 {}  ({:.2}x in-memory warm-src p50)  byte-identical: {}  recompiles: {}",
        harness::fmt_ns(restart_warm_p50),
        restart_over_warm,
        restart.equals_cold,
        if restart.no_recompiles {
            "none"
        } else {
            "SOME"
        }
    );
    extras.push((
        "restart_equals_cold".into(),
        Extra::Bool(restart.equals_cold),
    ));
    extras.push((
        "restart_no_recompiles".into(),
        Extra::Bool(restart.no_recompiles),
    ));
    extras.push((
        "restart_warm_p50_ns".into(),
        Extra::Num(restart_warm_p50.to_string()),
    ));
    extras.push((
        "restart_over_warm".into(),
        Extra::Num(format!("{restart_over_warm:.2}")),
    ));

    extras.push(("warm_equals_cold".into(), Extra::Bool(identical)));
    harness::push_host_extras(&mut extras, &[]);

    let json = harness::to_json("bench_serve/v2", &measurements, &extras);
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");
    if let Some((path, sink)) = obs_out {
        harness::write_obs_trace(&path, &sink);
    }
    if !identical {
        eprintln!("error: a warm plan differed from its cold compile");
        std::process::exit(1);
    }
    if warm_over_cold < MIN_WARM_OVER_COLD {
        eprintln!(
            "error: warm_over_cold {warm_over_cold:.2} < {MIN_WARM_OVER_COLD} acceptance floor"
        );
        std::process::exit(1);
    }
    if !restart.equals_cold {
        eprintln!("error: a rehydrated plan differed from its cold compile");
        std::process::exit(1);
    }
    if !restart.no_recompiles {
        eprintln!("error: the rehydrated service recompiled a stored plan");
        std::process::exit(1);
    }
    if restart_over_warm > MAX_RESTART_OVER_WARM {
        eprintln!(
            "error: restart_over_warm {restart_over_warm:.2} > {MAX_RESTART_OVER_WARM} acceptance ceiling"
        );
        std::process::exit(1);
    }
}
