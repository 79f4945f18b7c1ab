//! Differential fuzz of the push-mode session layer (DESIGN.md §8.6).
//!
//! Random edit scripts — ratio changes and output-volume changes over
//! the paper assays and synthetic layered DAGs — are pushed through
//! `session.edit`, the returned deltas are chained onto the registered
//! plan, and after *every* step the reconstructed plan must be
//! byte-identical to a cold compile of the identically-edited DAG.
//! A second suite drives many sessions concurrently and checks the
//! final plans are independent of the thread count (1/2/8). Randomness
//! comes from the in-repo seeded PRNG, and every assertion message
//! carries the seed, so a failure replays from that one seed.

use std::collections::HashMap;
use std::sync::Arc;

use aqua_dag::{Dag, NodeId, NodeKind};
use aqua_rational::rng::XorShift64Star;
use aqua_serve::{apply_delta, compile_plan, Service, ServiceConfig};
use aqua_volume::Machine;

mod common;
use common::render;

const TINY: &str = "
ASSAY tiny START
fluid A, B, m;
VAR Result[1];
m = MIX A AND B IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO Result[1];
END
";

/// Extracts the raw bytes of a response's *last* JSON member (`plan`
/// or `delta` — both are rendered last on their respective lines).
fn last_member<'a>(line: &'a str, name: &str) -> &'a str {
    let marker = format!(",\"{name}\":");
    let at = line.find(&marker).unwrap_or_else(|| {
        panic!("response has no `{name}` member: {line}");
    });
    &line[at + marker.len()..line.len() - 1]
}

fn lower(src: &str) -> (Dag, HashMap<NodeId, u64>) {
    let flat = aqua_lang::compile_to_flat(src).expect("fuzz assay parses");
    let (dag, map) = aqua_compiler::lower_to_dag(&flat).expect("fuzz assay lowers");
    (dag, map.output_weights)
}

/// One scripted edit, held in *client* DAG space so the same value can
/// be rendered onto the wire and mirrored onto the oracle DAG.
enum Edit {
    Ratio {
        node: NodeId,
        parts: Vec<(NodeId, u64)>,
    },
    Weight {
        node: NodeId,
        weight: u64,
    },
}

/// Mix nodes whose in-edge sources are pairwise distinct *by name* —
/// the wire protocol addresses ratio parts by fluid name, so a mix fed
/// twice by one fluid would be ambiguous on the wire.
fn editable_mixes(dag: &Dag) -> Vec<NodeId> {
    dag.node_ids()
        .filter(|&n| matches!(dag.node(n).kind, NodeKind::Mix { .. }))
        .filter(|&n| {
            let names: std::collections::HashSet<&str> = dag
                .in_edges(n)
                .iter()
                .map(|&e| dag.node(dag.edge(e).src).name.as_str())
                .collect();
            dag.in_edges(n).len() >= 2 && names.len() == dag.in_edges(n).len()
        })
        .collect()
}

fn random_edit(rng: &mut XorShift64Star, dag: &Dag) -> Option<Edit> {
    let mixes = editable_mixes(dag);
    // Weight edits target sinks: `set_output_volume` scales the Vnorm
    // of whatever terminal node carries the weight, `Output`-kind or a
    // terminal sense step (the paper assays lower to the latter).
    let outputs: Vec<NodeId> = dag
        .node_ids()
        .filter(|&n| dag.out_edges(n).is_empty())
        .collect();
    let want_ratio = !mixes.is_empty() && (outputs.is_empty() || rng.next_u64() % 10 < 7);
    if want_ratio {
        let node = mixes[rng.range_u64(0, mixes.len() as u64 - 1) as usize];
        let parts = dag
            .in_edges(node)
            .iter()
            .map(|&e| (dag.edge(e).src, rng.range_u64(1, 9)))
            .collect();
        Some(Edit::Ratio { node, parts })
    } else if !outputs.is_empty() {
        let node = outputs[rng.range_u64(0, outputs.len() as u64 - 1) as usize];
        Some(Edit::Weight {
            node,
            weight: rng.range_u64(1, 4),
        })
    } else {
        None
    }
}

/// A revisit-heavy edit: the first or second editable mix, or the first
/// sink, set to one of two values, so a script keeps coming back to
/// states it has already been in.
fn toggle_edit(rng: &mut XorShift64Star, dag: &Dag) -> Option<Edit> {
    let mixes = editable_mixes(dag);
    let value = rng.range_u64(1, 2);
    let pick = rng.index(3);
    if let Some(&node) = mixes.get(pick) {
        let parts = dag
            .in_edges(node)
            .iter()
            .enumerate()
            .map(|(i, &e)| (dag.edge(e).src, if i == 0 { value } else { 1 }))
            .collect();
        return Some(Edit::Ratio { node, parts });
    }
    let node = dag.node_ids().find(|&n| dag.out_edges(n).is_empty())?;
    Some(Edit::Weight {
        node,
        weight: value,
    })
}

/// Renders an edit as the `"edit"` member of a `session.edit` request.
fn wire_edit(dag: &Dag, edit: &Edit) -> String {
    match edit {
        Edit::Ratio { node, parts } => {
            let pairs: Vec<String> = parts
                .iter()
                .map(|&(src, k)| format!("[{},{k}]", aqua_serve::json::quote(&dag.node(src).name)))
                .collect();
            format!(
                "{{\"set_ratio\":{{\"node\":{},\"parts\":[{}]}}}}",
                aqua_serve::json::quote(&dag.node(*node).name),
                pairs.join(",")
            )
        }
        Edit::Weight { node, weight } => format!(
            "{{\"set_output_volume\":{{\"node\":{},\"weight\":{weight}}}}}",
            aqua_serve::json::quote(&dag.node(*node).name)
        ),
    }
}

/// Mirrors an edit onto the oracle DAG + weight map.
fn apply_mirror(dag: &mut Dag, weights: &mut HashMap<NodeId, u64>, edit: &Edit) {
    match edit {
        Edit::Ratio { node, parts } => {
            aqua_dag::set_mix_ratio(dag, *node, parts).expect("scripted ratio edit is valid");
        }
        Edit::Weight { node, weight } => {
            weights.insert(*node, *weight);
        }
    }
}

/// Draws one scripted edit against the current DAG.
type EditGen = fn(&mut XorShift64Star, &Dag) -> Option<Edit>;

/// Registers `src` as a session, drives `steps` seeded edits from `gen`
/// through the wire, chains every returned delta, and (when
/// `check_cold`) asserts the chained plan equals a cold compile after
/// each step. Returns the final chained plan.
fn run_script(
    svc: &Service,
    tenant: &str,
    src: &str,
    (seed, gen): (u64, EditGen),
    steps: usize,
    check_cold: bool,
) -> String {
    let machine = Machine::paper_default();
    let reg = svc.handle_line(&format!(
        "{{\"id\":1,\"cmd\":\"session.register\",\"tenant\":{},\"src\":{}}}",
        aqua_serve::json::quote(tenant),
        aqua_serve::json::quote(src)
    ));
    assert!(
        reg.contains("\"ok\":true"),
        "seed {seed}: register failed: {reg}"
    );
    let v = aqua_serve::json::parse(&reg).expect("register line parses");
    let sid = v
        .get("session")
        .and_then(|s| s.as_str())
        .expect("register carries a session id")
        .to_owned();
    let mut plan = last_member(&reg, "plan").to_owned();

    let (mut dag, mut weights) = lower(src);
    let mut rng = XorShift64Star::new(seed);
    for step in 0..steps {
        let Some(edit) = gen(&mut rng, &dag) else {
            break;
        };
        let line = svc.handle_line(&format!(
            "{{\"id\":{},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\"tenant\":{},\"edit\":{}}}",
            step + 2,
            aqua_serve::json::quote(tenant),
            wire_edit(&dag, &edit)
        ));
        assert!(
            line.contains("\"ok\":true"),
            "seed {seed} step {step}: edit failed: {line}"
        );
        let delta = last_member(&line, "delta");
        plan = apply_delta(&plan, delta)
            .unwrap_or_else(|| panic!("seed {seed} step {step}: delta does not apply: {delta}"));

        apply_mirror(&mut dag, &mut weights, &edit);
        if check_cold {
            let canon = aqua_serve::canonicalize(&dag, &weights, &machine)
                .expect("edited DAG canonicalizes");
            let cold = compile_plan(&canon, &machine, &aqua_obs::Obs::off());
            assert_eq!(
                plan, cold,
                "seed {seed} step {step}: incremental plan diverged from cold compile"
            );
        }
    }
    plan
}

fn fuzz_assay(src: &str, seeds: std::ops::Range<u64>, steps: usize) {
    for seed in seeds {
        let svc = Service::new(ServiceConfig::default());
        run_script(&svc, "fuzz", src, (seed, random_edit), steps, true);
    }
}

#[test]
fn paper_assays_incremental_matches_cold_at_every_step() {
    fuzz_assay(TINY, 0..4, 10);
    fuzz_assay(aqua_assays::glucose::SOURCE, 10..13, 8);
    fuzz_assay(aqua_assays::glycomics::SOURCE, 20..23, 8);
    fuzz_assay(&aqua_assays::enzyme::source_n(4), 30..33, 8);
}

/// Scripts that keep revisiting states on assays that leave no replay
/// trace (enzyme4 is solved by LP after rewrites, glycomics is
/// partitioned): their fallbacks pin plans the session published
/// earlier instead of compiling, and every step still equals a cold
/// compile.
#[test]
fn revisited_fallbacks_match_cold_at_every_step() {
    let (obs, sink) = aqua_obs::Obs::recording();
    for (src, seeds) in [
        (aqua_assays::enzyme::source_n(4), 60..63u64),
        (aqua_assays::glycomics::SOURCE.to_owned(), 70..73),
    ] {
        for seed in seeds {
            let svc = Service::new(ServiceConfig {
                obs: obs.clone(),
                ..ServiceConfig::default()
            });
            run_script(&svc, "fuzz", &src, (seed, toggle_edit), 12, true);
        }
    }
    let snap = sink.snapshot();
    assert!(
        snap.counter("incr.plan_reuse") > 0,
        "no fallback reused a plan ({} compiled)",
        snap.counter("incr.full_recompile")
    );
}

#[test]
fn blocked_enzyme10_incremental_matches_cold_at_every_step() {
    // enzyme10 is replication-blocked under the paper machine, so the
    // replay path exercises the blocked (Shape B) trace throughout.
    fuzz_assay(&aqua_assays::enzyme::source_n(10), 40..43, 6);
}

#[test]
fn synthetic_dags_incremental_matches_cold_at_every_step() {
    for seed in 50..56u64 {
        let mut rng = XorShift64Star::new(seed);
        let config = aqua_assays::synthetic::LayeredConfig {
            inputs: rng.range_u64(2, 5) as usize,
            layers: rng.range_u64(1, 3) as usize,
            width: rng.range_u64(2, 4) as usize,
            fanin: 2,
            max_part: 9,
        };
        let dag = aqua_assays::synthetic::layered_dag(seed, &config);
        let src = render(&dag);
        let svc = Service::new(ServiceConfig::default());
        run_script(&svc, "fuzz", &src, (seed, random_edit), 8, true);
    }
}

/// Drives 8 scripted sessions over a shared service with `threads`
/// worker threads and returns the final plan of each script.
fn concurrent_final_plans(threads: usize) -> Vec<String> {
    const WORKERS: usize = 8;
    let svc = Arc::new(Service::new(ServiceConfig {
        tenant_max_sessions: 2,
        ..ServiceConfig::default()
    }));
    let sources: Arc<Vec<String>> = Arc::new(vec![
        TINY.to_owned(),
        aqua_assays::glucose::SOURCE.to_owned(),
        aqua_assays::glycomics::SOURCE.to_owned(),
        aqua_assays::enzyme::source_n(4),
        aqua_assays::enzyme::source_n(10),
        aqua_assays::glucose::SOURCE.to_owned(),
        TINY.to_owned(),
        aqua_assays::enzyme::source_n(4),
    ]);
    let mut handles = Vec::new();
    for t in 0..threads {
        let svc = Arc::clone(&svc);
        let sources = Arc::clone(&sources);
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut w = t;
            while w < WORKERS {
                let tenant = format!("t{w}");
                let plan = run_script(
                    &svc,
                    &tenant,
                    &sources[w],
                    (900 + w as u64, random_edit),
                    6,
                    false,
                );
                out.push((w, plan));
                w += threads;
            }
            out
        }));
    }
    let mut plans = vec![String::new(); WORKERS];
    for h in handles {
        for (w, plan) in h.join().expect("worker thread panicked") {
            plans[w] = plan;
        }
    }
    plans
}

#[test]
fn concurrent_sessions_are_deterministic_across_thread_counts() {
    let one = concurrent_final_plans(1);
    let two = concurrent_final_plans(2);
    let eight = concurrent_final_plans(8);
    assert_eq!(one, two, "2-thread run diverged from serial");
    assert_eq!(one, eight, "8-thread run diverged from serial");
}
