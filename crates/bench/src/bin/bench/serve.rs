//! The plan service on the Table 2 suite (glucose, glycomics, enzyme4,
//! enzyme10) on the paper chip, in four phases:
//!
//! * **front door** — rows `{assay}/paper/cold` (the cache cleared
//!   before every `submit_src`, so each request parses, lowers,
//!   canonicalizes, queues, solves and renders), `warm-src` (cache hot,
//!   request as source: canonicalize, hash, hit) and `warm-key` (cache
//!   hot, request as a bare content key: hash probe and `Arc` clone).
//!   Warm bytes are checked against a fresh service's cold compile.
//! * **traffic** — 8 client threads send 20,000 (`--quick`) or
//!   1,000,000 requests: ~85% warm-key, ~14% warm-src over four tenants,
//!   ~1% cold compiles of never-seen assays from a quota-starved "noisy"
//!   tenant whose misses shed. Row `mixed/paper/traffic`.
//! * **restart** — a store-backed service cold-compiles the suite and
//!   is dropped (the "kill"); a fresh one over the same directory must
//!   serve every plan byte-identical without a single compile. Rows
//!   `{assay}/paper/restart-warm-src`.
//! * **session edits** — `session.edit` requests of four kinds, each
//!   kind on its own session registered fresh on the paper chip (so no
//!   kind inherits another's toggled state, such as the `machine`
//!   kind's 150-nl capacity), each toggling its value so every request
//!   is a real change: `ratio` (one mix's ratio; dirty-slice replay),
//!   `weight` (an output volume; replayed), `machine` (capacity; a
//!   typed full recompile) and `struct` (add/remove a node; full
//!   recompile). Each of these edits starts from a shared cache cleared
//!   untimed: a toggle returns to the state of two edits before, and a
//!   fallback pins its state's cached plan instead of compiling, so the
//!   enzyme4 and glycomics rows (no replay trace: every edit falls back)
//!   would otherwise time a cache hit; replayed edits never read the
//!   cache. A fifth kind, `revisit`, run after `weight`, toggles the
//!   ratio with the cache kept: it times the reuse on enzyme4 and
//!   glycomics and the replay on glucose and enzyme10. Before timing, a
//!   ratio and a weight edit per assay are checked byte-identical to a
//!   cold compile of the edited DAG. Rows `{assay}/paper/edit-{kind}`
//!   carry the edited plan's status.
//!
//! Gates: `warm_equals_cold` (every warm, traffic and cold byte equal),
//! `warm_over_cold` ≥ 10 (the smallest per-assay ratio of the `cold`
//! row's p50 to the `warm-key` row's), `restart_equals_cold`,
//! `restart_recompiles` ≤ 0, `restart_over_warm` ≤ 10 (the largest
//! per-assay ratio of the `restart-warm-src` row's p50 to the
//! `warm-src` row's), `incr_divergences` ≤ 0, and `incr_over_cold` ≥ 10
//! (enzyme10's cold
//! row over its ratio edit; enzyme10 compiles to `resources_exceeded`
//! on this chip, so `incr_over_cold_feasible`, the same ratio for the
//! `solved` enzyme4, whose ratio edits compile in full, is reported
//! beside it, ungated). Each ratio divides one assay's rows: the
//! assays' rows differ by orders of magnitude, so a p50 pooled over
//! them would be a tail sample of one assay. `warm_src_over_cold`, the
//! smallest per-assay cold to `warm-src` ratio, is reported ungated.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use aqua_bench::harness::{percentile, sample, sample_reset};
use aqua_bench::status_of;
use aqua_dag::{Dag, NodeId, NodeKind};
use aqua_obs::Obs;
use aqua_rational::rng::XorShift64Star;
use aqua_serve::json::quote;
use aqua_serve::store::StoreConfig;
use aqua_serve::{apply_delta, canonicalize, compile_plan, ServeError, Service, ServiceConfig};
use aqua_volume::Machine;

use crate::Bench;

/// Client threads in the traffic phase.
const TRAFFIC_THREADS: usize = 8;

struct Case {
    assay: &'static str,
    src: String,
    /// Content key and plan bytes of the cold compile: the reference.
    key: u128,
    plan: Arc<str>,
    /// The mix ratio edits target (name, in-edge source names) and the
    /// output weight edits target.
    mix: String,
    mix_inputs: Vec<String>,
    output: String,
}

impl Case {
    fn key(&self, path: &str) -> String {
        format!("{}/paper/{path}", self.assay)
    }
}

pub(crate) fn run(b: &mut Bench) {
    let machine = Machine::paper_default();
    let quick = b.quick();
    let service = Service::new(ServiceConfig::default());

    // Untimed: cold-compile every assay on a fresh service and check the
    // shared service's first and warm responses against it.
    let mut identical = true;
    let mut cases = Vec::new();
    for assay in ["glucose", "glycomics", "enzyme4", "enzyme10"] {
        let src = aqua_bench::assay_source(assay).expect("known assay");
        let cold = Service::new(ServiceConfig::default())
            .submit_src(&src, &machine, None)
            .expect("paper assay compiles");
        for _ in 0..2 {
            let warm = service.submit_src(&src, &machine, None).expect("served");
            identical &= warm.plan == cold.plan;
        }
        let flat = aqua_lang::compile_to_flat(&src).expect("assay parses");
        let (dag, _) = aqua_compiler::lower_to_dag(&flat).expect("assay lowers");
        let (mix, mix_inputs, output) = probe_targets(&dag);
        cases.push(Case {
            assay,
            src,
            key: cold.key,
            plan: cold.plan,
            mix,
            mix_inputs,
            output,
        });
    }
    let statuses: Vec<&str> = cases.iter().map(|c| status_of(&c.plan)).collect();

    // ---- front door ----
    let (cold_iters, warm_iters, warmup) = if quick { (3, 20, 0) } else { (15, 400, 2) };
    let (mut cold_p50, mut warm_src_p50, mut warm_key_p50) = (Vec::new(), Vec::new(), Vec::new());
    for (case, status) in cases.iter().zip(&statuses) {
        let cold = sample(warmup, cold_iters, || {
            service.clear_cache();
            service
                .submit_src(&case.src, &machine, None)
                .expect("cold compile")
        });
        cold_p50.push(b.report.row(case.key("cold"), status, &cold));
        let rewarm = service
            .submit_src(&case.src, &machine, None)
            .expect("re-warm");
        identical &= rewarm.plan == case.plan;
        let warm_src = sample(warmup, warm_iters, || {
            service
                .submit_src(&case.src, &machine, None)
                .expect("warm src hit")
        });
        warm_src_p50.push(b.report.row(case.key("warm-src"), status, &warm_src));
        let warm_key = sample(warmup, warm_iters, || {
            service.submit_key(case.key).expect("warm key hit")
        });
        warm_key_p50.push(b.report.row(case.key("warm-key"), status, &warm_key));
    }
    let smallest = per_assay(&cold_p50, &warm_key_p50).fold(f64::INFINITY, f64::min);
    b.report.at_least("warm_over_cold", smallest, 10.0);
    let smallest = per_assay(&cold_p50, &warm_src_p50).fold(f64::INFINITY, f64::min);
    b.report.figure("warm_src_over_cold", smallest);

    // ---- traffic ----
    let total = if quick { 20_000 } else { 1_000_000 };
    let traffic = run_traffic(&cases, &machine, total);
    identical &= traffic.identical;
    b.report.row(
        "mixed/paper/traffic".into(),
        &statuses.join(","),
        &traffic.latencies_ns,
    );
    b.report.figure(
        "traffic_p999_ns",
        percentile(&traffic.latencies_ns, 0.999) as f64,
    );
    b.report
        .figure("traffic_shed_rate", traffic.sheds as f64 / total as f64);
    b.report
        .figure("traffic_rps", total as f64 / (traffic.wall_ns as f64 / 1e9));
    b.report.holds("warm_equals_cold", identical);

    // ---- restart ----
    let restart_iters = if quick { 20 } else { 200 };
    let (restart_p50, equals_cold, recompiles) =
        run_restart(b, &cases, &statuses, &machine, restart_iters, warmup);
    b.report.holds("restart_equals_cold", equals_cold);
    b.report
        .at_most("restart_recompiles", recompiles as f64, 0.0);
    let largest = per_assay(&restart_p50, &warm_src_p50).fold(0.0, f64::max);
    b.report.at_most("restart_over_warm", largest, 10.0);

    // ---- session edits ----
    let divergences: usize = cases.iter().map(|c| verify_edits(c, &machine)).sum();
    let incr_iters = if quick { 30 } else { 300 };
    let mut ratio_p50 = Vec::new();
    for case in &cases {
        let svc = Service::new(ServiceConfig::default());
        for kind in ["ratio", "weight", "revisit", "machine", "struct"] {
            let (sid, _) = register(&svc, &case.src);
            let mut n = 0usize;
            let mut line = String::new();
            let reset = || {
                if kind != "revisit" {
                    svc.clear_cache();
                }
            };
            let wire_kind = if kind == "revisit" { "ratio" } else { kind };
            // Structural toggles must start from the "absent" state and
            // alternate strictly, so both counts are even.
            let samples = sample_reset(warmup, incr_iters, reset, || {
                n += 1;
                line = svc.handle_line(&edit(case, &sid, n + 1, wire_kind, n % 2 == 1));
                assert!(line.contains("\"ok\":true"), "{kind} edit failed: {line}");
            });
            // The edited plan is published under the response's key.
            let key = aqua_serve::json::parse(&line)
                .ok()
                .and_then(|v| v.get("key")?.as_str().and_then(aqua_serve::parse_key_hex))
                .expect("edit response carries a key");
            let plan = svc.submit_key(key).expect("edited plan is cached").plan;
            let p50 = b.report.row(
                case.key(&format!("edit-{kind}")),
                status_of(&plan),
                &samples,
            );
            if kind == "ratio" {
                ratio_p50.push(p50 as f64);
            }
        }
    }
    b.report
        .at_most("incr_divergences", divergences as f64, 0.0);
    let over = |assay: &str| {
        let i = cases
            .iter()
            .position(|c| c.assay == assay)
            .expect("in suite");
        cold_p50[i] as f64 / ratio_p50[i].max(1.0)
    };
    b.report.at_least("incr_over_cold", over("enzyme10"), 10.0);
    b.report.figure("incr_over_cold_feasible", over("enzyme4"));
}

/// Each assay's p50 in `num` over its p50 in `den`.
fn per_assay<'a>(num: &'a [u128], den: &'a [u128]) -> impl Iterator<Item = f64> + 'a {
    num.iter()
        .zip(den)
        .map(|(&n, &d)| n as f64 / (d as f64).max(1.0))
}

struct Traffic {
    /// Sorted latencies of served requests, ns.
    latencies_ns: Vec<u128>,
    sheds: usize,
    wall_ns: u128,
    identical: bool,
}

/// A unique tiny assay per `n`: distinct mix ratios, so the traffic
/// phase's cold slice never hits the cache.
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

/// Mixed hot/cold multi-tenant traffic against a quota-bounded service.
fn run_traffic(cases: &[Case], machine: &Machine, total: usize) -> Traffic {
    let service = Service::new(ServiceConfig {
        cache_capacity: 4096,
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
    let weights: HashMap<NodeId, u64> = HashMap::new();
    let per_thread = total / TRAFFIC_THREADS;
    let start = Instant::now();
    let results: Vec<(Vec<u128>, usize, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TRAFFIC_THREADS)
            .map(|t| {
                let (service, weights) = (&service, &weights);
                scope.spawn(move || {
                    let mut rng = XorShift64Star::new(0xBEEF + t as u64 * 0x9E37_79B9);
                    let mut lat: Vec<u128> = Vec::with_capacity(per_thread);
                    let (mut sheds, mut ok) = (0usize, true);
                    let tenant = format!("tenant-{}", t % 4);
                    for i in 0..per_thread {
                        let dice = rng.range_u64(0, 99);
                        let begin = Instant::now();
                        if dice == 0 {
                            // Cold-unique compile from the noisy tenant.
                            let n = (t * per_thread + i) as u64;
                            let canon =
                                canonicalize(&unique_assay(n), weights, machine).expect("canon");
                            match service.submit_canon_tenant(canon, machine.clone(), None, "noisy")
                            {
                                Ok(_) => lat.push(begin.elapsed().as_nanos()),
                                Err(ServeError::Shedding) => sheds += 1,
                                Err(ServeError::Overloaded | ServeError::Timeout) => {}
                                Err(e) => panic!("unexpected traffic error: {e}"),
                            }
                        } else if dice < 15 {
                            // Warm by source, under this thread's tenant.
                            let case = &cases[rng.index(cases.len())];
                            let canon = Service::canon_src(&case.src, machine).expect("canon src");
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
                    (lat, sheds, ok)
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
    let mut sheds = 0;
    for (lat, s, ok) in results {
        latencies_ns.extend(lat);
        sheds += s;
        identical &= ok;
    }
    latencies_ns.sort_unstable();
    Traffic {
        latencies_ns,
        sheds,
        wall_ns,
        identical,
    }
}

/// Kill-and-restart through the plan store. Returns each assay's
/// warm-src p50 after the restart, whether every plan came back
/// byte-identical, and how many plans the restarted service compiled.
fn run_restart(
    b: &mut Bench,
    cases: &[Case],
    statuses: &[&str],
    machine: &Machine,
    iters: usize,
    warmup: usize,
) -> (Vec<u128>, bool, u64) {
    let dir = std::env::temp_dir().join(format!("aqua-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = || Some(StoreConfig::at(&dir));
    {
        let svc = Service::new(ServiceConfig {
            store: store(),
            ..ServiceConfig::default()
        });
        for case in cases {
            svc.submit_src(&case.src, machine, None)
                .expect("cold compile into store");
        }
    }
    let (obs, sink) = Obs::recording();
    let svc = Service::try_new(ServiceConfig {
        store: store(),
        obs,
        ..ServiceConfig::default()
    })
    .expect("reopen plan store");
    let mut equals_cold = true;
    let mut p50s = Vec::new();
    for (case, status) in cases.iter().zip(statuses) {
        let warm = svc
            .submit_src(&case.src, machine, None)
            .expect("rehydrated warm hit");
        equals_cold &= warm.key == case.key && warm.plan == case.plan;
        equals_cold &= svc.submit_key(case.key).is_ok_and(|s| s.plan == case.plan);
        let samples = sample(warmup, iters, || {
            svc.submit_src(&case.src, machine, None)
                .expect("warm after restart")
        });
        p50s.push(b.report.row(case.key("restart-warm-src"), status, &samples));
    }
    let recompiles = sink.snapshot().counter("serve.plan.compiles");
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    (p50s, equals_cold, recompiles)
}

/// Extracts the raw bytes of a response's *last* JSON member.
fn last_member<'a>(line: &'a str, name: &str) -> &'a str {
    let marker = format!(",\"{name}\":");
    let at = line
        .find(&marker)
        .unwrap_or_else(|| panic!("response has no `{name}` member: {line}"));
    &line[at + marker.len()..line.len() - 1]
}

/// Picks, deterministically, the first mix whose in-edge sources have
/// pairwise-distinct names (the wire addresses ratio parts by name)
/// and the first output node.
fn probe_targets(dag: &Dag) -> (String, Vec<String>, String) {
    let source_names = |n: NodeId| -> Vec<String> {
        dag.in_edges(n)
            .iter()
            .map(|&e| dag.node(dag.edge(e).src).name.clone())
            .collect()
    };
    let mix = dag
        .node_ids()
        .find(|&n| {
            let names = source_names(n);
            matches!(dag.node(n).kind, NodeKind::Mix { .. })
                && names.len() >= 2
                && names.iter().collect::<HashSet<_>>().len() == names.len()
        })
        .expect("assay has an editable mix");
    let output = dag
        .node_ids()
        .find(|&n| dag.out_edges(n).is_empty())
        .expect("assay has a sink");
    (
        dag.node(mix).name.clone(),
        source_names(mix),
        dag.node(output).name.clone(),
    )
}

/// The ratio edit's parts for toggle state `flip`: the first part
/// toggles 1↔2, the rest are fixed at `k + 1`.
fn ratio_parts(case: &Case, flip: bool) -> impl Iterator<Item = (&str, u64)> {
    case.mix_inputs.iter().enumerate().map(move |(k, name)| {
        let count = if k == 0 && flip { 2 } else { k as u64 + 1 };
        (name.as_str(), count)
    })
}

/// Renders the `session.edit` request of one kind in toggle state `flip`.
fn edit(case: &Case, sid: &str, id: usize, kind: &str, flip: bool) -> String {
    let edit = match kind {
        "ratio" => {
            let parts: Vec<String> = ratio_parts(case, flip)
                .map(|(name, count)| format!("[{},{count}]", quote(name)))
                .collect();
            format!(
                "{{\"set_ratio\":{{\"node\":{},\"parts\":[{}]}}}}",
                quote(&case.mix),
                parts.join(",")
            )
        }
        "weight" => format!(
            "{{\"set_output_volume\":{{\"node\":{},\"weight\":{}}}}}",
            quote(&case.output),
            if flip { 3 } else { 2 }
        ),
        "machine" => format!(
            "{{\"set_machine\":{{\"max_capacity_nl\":{}}}}}",
            if flip { 200 } else { 150 }
        ),
        _ if flip => format!(
            "{{\"add_node\":{{\"name\":\"bench_probe\",\"process\":{{\"op\":\"sense.OD\",\"from\":{}}}}}}}",
            quote(&case.mix)
        ),
        _ => "{\"remove_node\":{\"node\":\"bench_probe\"}}".to_owned(),
    };
    format!("{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\"edit\":{edit}}}")
}

fn register(svc: &Service, src: &str) -> (String, String) {
    let line = svc.handle_line(&format!(
        "{{\"id\":1,\"cmd\":\"session.register\",\"src\":{}}}",
        quote(src)
    ));
    assert!(line.contains("\"ok\":true"), "register failed: {line}");
    let v = aqua_serve::json::parse(&line).expect("register line parses");
    let sid = v
        .get("session")
        .and_then(|s| s.as_str())
        .expect("session id")
        .to_owned();
    (sid, last_member(&line, "plan").to_owned())
}

/// Drives one ratio and one weight edit through a fresh session and
/// compares the delta-chained plans to cold compiles of the identically
/// edited DAG. Returns the number of divergences (0 on a correct build).
fn verify_edits(case: &Case, machine: &Machine) -> usize {
    let svc = Service::new(ServiceConfig::default());
    let (sid, mut plan) = register(&svc, &case.src);
    let flat = aqua_lang::compile_to_flat(&case.src).expect("assay parses");
    let (mut dag, map) = aqua_compiler::lower_to_dag(&flat).expect("assay lowers");
    let mut weights: HashMap<NodeId, u64> = map.output_weights;
    let mut divergences = 0;
    for (id, kind) in [(2, "ratio"), (3, "weight")] {
        let line = svc.handle_line(&edit(case, &sid, id, kind, true));
        assert!(line.contains("\"ok\":true"), "{line}");
        plan = apply_delta(&plan, last_member(&line, "delta")).expect("delta applies");
        if kind == "ratio" {
            let mix = dag.find_node(&case.mix).expect("mix resolves");
            let parts: Vec<(NodeId, u64)> = ratio_parts(case, true)
                .map(|(name, count)| (dag.find_node(name).expect("mix input resolves"), count))
                .collect();
            aqua_dag::set_mix_ratio(&mut dag, mix, &parts).expect("ratio edit is valid");
        } else {
            weights.insert(dag.find_node(&case.output).expect("output resolves"), 3);
        }
        let canon = canonicalize(&dag, &weights, machine).expect("edited DAG canonicalizes");
        if plan != compile_plan(&canon, machine, &Obs::off()) {
            eprintln!("divergence: {} {kind} edit != cold compile", case.assay);
            divergences += 1;
        }
    }
    divergences
}
