//! Compiling a canonical request into a deterministic plan document.
//!
//! The plan is rendered as one JSON object with a fixed member order, so
//! byte-identity of responses is meaningful: two requests that
//! canonicalize to the same [`Canon`] always produce the same bytes,
//! whether they were compiled cold or served from the cache. That is the
//! cache-equivalence property the differential tests pin — it holds *by
//! construction* because plans are compiled from the canonical DAG
//! (names interned to `f0..fN`), never from the request's surface form.
//!
//! Plan statuses mirror the Fig. 6 hierarchy plus §3.5:
//!
//! * `"solved"` — an underflow-free assignment (method, exact volumes).
//! * `"partitioned"` — the DAG has unknown-volume separations; the plan
//!   carries the compile-time partitions and their run-time bindings.
//! * `"needs_regeneration"` — no static assignment within budget.
//! * `"resources_exceeded"` / `"invalid"` — compilation failures.

use std::collections::HashMap;
use std::fmt::Write as _;

use aqua_dag::{Dag, NodeId, NodeKind};
use aqua_obs::Obs;
use aqua_rational::Ratio;
use aqua_volume::unknown::{self, Binding};
use aqua_volume::{
    compile_with_trace, IncrSolver, Machine, ManagedOutcome, Recording, VolumeManagerOptions,
};

use crate::canon::Canon;
use crate::json::{push_quoted, push_ratio, push_ratio_digits, push_u64, quote};

/// Appends a node's kind as a JSON string: `"input"`, `"mix:30"`,
/// `"process:incubate"`, `"separate:1/2"`, `"separate:?"`, ...
fn push_kind(out: &mut String, kind: &NodeKind) {
    match kind {
        NodeKind::Input => out.push_str("\"input\""),
        NodeKind::Mix { seconds } => {
            out.push_str("\"mix:");
            push_u64(out, *seconds);
            out.push('"');
        }
        NodeKind::Process { op } => {
            out.push_str("\"process:");
            // The label is escaped inside the kind's one string: drop
            // the opening quote `push_quoted` writes.
            let open = out.len();
            push_quoted(out, op);
            out.remove(open);
        }
        NodeKind::Separate { fraction: None } => out.push_str("\"separate:?\""),
        NodeKind::Separate { fraction: Some(f) } => {
            out.push_str("\"separate:");
            push_ratio_digits(out, *f);
            out.push('"');
        }
        NodeKind::Output => out.push_str("\"output\""),
        NodeKind::Excess => out.push_str("\"excess\""),
        NodeKind::ConstrainedInput => out.push_str("\"constrained_input\""),
    }
}

/// Renders the node list of `dag` as a JSON array (canonical ids are the
/// positions, so only kinds are emitted).
fn push_nodes(out: &mut String, dag: &Dag) {
    out.push('[');
    for (i, id) in dag.node_ids().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_kind(out, &dag.node(id).kind);
    }
    out.push(']');
}

/// Renders the live edges of `dag` as `[src,dst,"fraction"]` triples,
/// with per-edge volumes appended when `vols` is provided.
fn push_edges(out: &mut String, dag: &Dag, vols: Option<&[Ratio]>) {
    out.push('[');
    let mut first = true;
    for e in dag.edge_ids() {
        if !dag.edge_is_live(e) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let edge = dag.edge(e);
        out.push('[');
        push_u64(out, edge.src.index() as u64);
        out.push(',');
        push_u64(out, edge.dst.index() as u64);
        out.push(',');
        push_ratio(out, edge.fraction);
        if let Some(v) = vols {
            out.push(',');
            push_ratio(out, v[e.index()]);
        }
        out.push(']');
    }
    out.push(']');
}

/// Renders `vols`, each mapped through `f`, as a JSON array of ratio
/// strings.
fn push_ratio_vec(out: &mut String, vols: &[Ratio], f: impl Fn(Ratio) -> Ratio) {
    out.push('[');
    for (i, &v) in vols.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_ratio(out, f(v));
    }
    out.push(']');
}

fn push_log(out: &mut String, log: &[String]) {
    out.push('[');
    for (i, line) in log.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_quoted(out, line);
    }
    out.push(']');
}

/// Compiles one canonical request into its plan document: the bytes a
/// compiler thread renders for it, for the bench harness and tests. The
/// result is deterministic: the hierarchy is a pure function of
/// `(canon, machine)` and the JSON member order is fixed.
pub fn compile_plan(canon: &Canon, machine: &Machine, obs: &Obs) -> String {
    compile_plan_traced(&canon.dag, &canon.weights, machine, obs, Recording::off()).0
}

/// The plan of the canonical DAG `dag` with canonical output `weights`,
/// as [`compile_plan`] renders it, with `rec` observing the hierarchy
/// ([`aqua_volume::compile_with_trace`]): the replay solver comes back
/// when `rec` is on and the outcome is replayable (see
/// [`aqua_volume::incr`]). The service's one compile site: the compiler
/// threads run every job through it, a session's with a recording on,
/// so its edits can be replanned incrementally.
pub(crate) fn compile_plan_traced(
    dag: &Dag,
    weights: &HashMap<NodeId, u64>,
    machine: &Machine,
    obs: &Obs,
    rec: Recording,
) -> (String, Option<IncrSolver>) {
    let _span = obs.span("serve.plan.compile");
    obs.add("serve.plan.compiles", 1);

    // §3.5: statically-unknown volumes go down the partition path — the
    // final dispensing step is deferred to run time, so the "plan" is
    // the partition table with its bindings.
    if unknown::has_unknown_volumes(dag) {
        let rendered = match unknown::partition(dag, machine) {
            Ok(plan) => {
                let mut out = String::from("{\"status\":\"partitioned\",\"partitions\":[");
                for (pi, part) in plan.partitions.iter().enumerate() {
                    if pi > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"nodes\":");
                    push_nodes(&mut out, &part.dag);
                    out.push_str(",\"edges\":");
                    push_edges(&mut out, &part.dag, None);
                    // Bindings sorted by local node id for determinism
                    // (HashMap iteration order must never leak).
                    let mut bindings: Vec<_> = part.bindings.iter().collect();
                    bindings.sort_by_key(|(id, _)| id.index());
                    out.push_str(",\"constrained_inputs\":[");
                    for (bi, (id, binding)) in bindings.iter().enumerate() {
                        if bi > 0 {
                            out.push(',');
                        }
                        match binding {
                            Binding::Static { volume_nl } => {
                                let _ = write!(
                                    out,
                                    "{{\"node\":{},\"binding\":\"static\",\"volume_nl\":{}}}",
                                    id.index(),
                                    quote(&volume_nl.to_string())
                                );
                            }
                            Binding::Runtime {
                                partition,
                                source,
                                share,
                            } => {
                                let _ = write!(
                                    out,
                                    "{{\"node\":{},\"binding\":\"runtime\",\"partition\":{},\
                                     \"source\":{},\"share\":{}}}",
                                    id.index(),
                                    partition,
                                    source.index(),
                                    quote(&share.to_string())
                                );
                            }
                        }
                    }
                    out.push_str("]}");
                }
                out.push_str("]}");
                out
            }
            Err(e) => format!(
                "{{\"status\":\"invalid\",\"error\":{}}}",
                quote(&e.to_string())
            ),
        };
        return (rendered, None);
    }

    let opts = VolumeManagerOptions {
        obs: obs.clone(),
        output_weights: weights
            .iter()
            .map(|(&id, &w)| (id, Ratio::from_int(w as i128)))
            .collect(),
        ..VolumeManagerOptions::default()
    };
    let (outcome, solver) = compile_with_trace(dag, machine, &opts, rec);
    (render_outcome(&outcome, machine), solver)
}

/// A first guess at a rendered plan's length, so the output string does
/// not regrow a dozen times on large assays: about 40 bytes per edge
/// triple with its volume and 40 per node (kind, volume, IVol).
fn plan_capacity(dag: &Dag) -> usize {
    40 * (dag.num_nodes() + dag.num_edges()) + 256
}

/// Whether a rendered plan may have come with a replayable trace.
/// [`aqua_volume::incr`] records only two shapes: a round-0 DAGSolve,
/// rendered `solved` with method `"DAGSolve"`, and the blocked ladder,
/// rendered `resources_exceeded` ([`render_outcome`] writes both
/// members first). A compile of any other plan leaves a session no
/// solver, so a session may pin that plan from the shared cache instead
/// of compiling it.
pub(crate) fn may_replay(plan: &str) -> bool {
    plan.starts_with("{\"status\":\"resources_exceeded\",")
        || plan.starts_with("{\"status\":\"solved\",\"method\":\"DAGSolve\",")
}

/// Renders a hierarchy outcome as plan JSON. This is the *only* place
/// solved/needs-regeneration/resources-exceeded plans are rendered —
/// cold compiles and incremental session replays both come through
/// here, so their bytes can never diverge.
pub(crate) fn render_outcome(outcome: &ManagedOutcome, machine: &Machine) -> String {
    match outcome {
        ManagedOutcome::Solved { dag, volumes, log } => {
            // The hierarchy may have rewritten the DAG (cascades,
            // replicas); volumes index into the rewritten graph, so the
            // plan carries that graph, not the request's.
            let mut out = String::with_capacity(plan_capacity(dag));
            out.push_str("{\"status\":\"solved\",\"method\":");
            out.push_str(&quote(&volumes.method.to_string()));
            out.push_str(",\"nodes\":");
            push_nodes(&mut out, dag);
            out.push_str(",\"edges\":");
            push_edges(&mut out, dag, Some(&volumes.edge_volumes_nl));
            out.push_str(",\"node_volumes_nl\":");
            push_ratio_vec(&mut out, &volumes.node_volumes_nl, |v| v);
            // IVol: the loads quantized to the machine's least count —
            // what the dispensing hardware is actually told to meter.
            out.push_str(",\"ivol_nl\":");
            push_ratio_vec(&mut out, &volumes.node_volumes_nl, |v| {
                machine.round_to_least_count(v)
            });
            out.push_str(",\"log\":");
            push_log(&mut out, log);
            out.push('}');
            out
        }
        ManagedOutcome::NeedsRegeneration {
            dag,
            best_effort,
            log,
        } => {
            let mut out = String::with_capacity(plan_capacity(dag));
            out.push_str("{\"status\":\"needs_regeneration\"");
            if let Some(sol) = best_effort {
                out.push_str(",\"best_effort\":{\"nodes\":");
                push_nodes(&mut out, dag);
                out.push_str(",\"edges\":");
                push_edges(&mut out, dag, Some(&sol.edge_volumes_nl));
                out.push_str(",\"node_volumes_nl\":");
                push_ratio_vec(&mut out, &sol.node_volumes_nl, |v| v);
                if let Some(under) = &sol.underflow {
                    let _ = write!(
                        out,
                        ",\"underflow\":{{\"edge\":{},\"volume_nl\":{},\"least_count_nl\":{}}}",
                        under.edge.index(),
                        quote(&under.volume_nl.to_string()),
                        quote(&under.least_count_nl.to_string())
                    );
                }
                out.push('}');
            }
            out.push_str(",\"log\":");
            push_log(&mut out, log);
            out.push('}');
            out
        }
        ManagedOutcome::ResourcesExceeded { reason, log } => {
            let mut out = String::from("{\"status\":\"resources_exceeded\",\"reason\":");
            out.push_str(&quote(reason));
            out.push_str(",\"log\":");
            push_log(&mut out, log);
            out.push('}');
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonicalize;
    use aqua_dag::Dag;
    use std::collections::HashMap;

    fn canon_of(dag: &Dag, machine: &Machine) -> Canon {
        canonicalize(dag, &HashMap::new(), machine).expect("canonicalizes")
    }

    #[test]
    fn solved_plan_is_valid_fixed_order_json() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 4)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let machine = Machine::paper_default();
        let plan = compile_plan(&canon_of(&d, &machine), &machine, &Obs::off());
        let v = crate::json::parse(&plan).expect("plan is valid JSON");
        assert_eq!(v.get("status").unwrap().as_str(), Some("solved"));
        assert!(v.get("nodes").is_some());
        assert!(v.get("ivol_nl").is_some());
    }

    #[test]
    fn compile_is_deterministic() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1999)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let machine = Machine::paper_default();
        let canon = canon_of(&d, &machine);
        let p1 = compile_plan(&canon, &machine, &Obs::off());
        let p2 = compile_plan(&canon, &machine, &Obs::off());
        assert_eq!(p1, p2);
    }

    #[test]
    fn unknown_separations_take_the_partition_path() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("m1", &[(a, 1), (b, 1)], 30).unwrap();
        let sep = d.add_separate("sep", m, None);
        let c = d.add_input("C");
        let m2 = d.add_mix("m2", &[(sep, 1), (c, 1)], 30).unwrap();
        d.add_process("s", "sense.OD", m2);
        let machine = Machine::paper_default();
        let plan = compile_plan(&canon_of(&d, &machine), &machine, &Obs::off());
        let v = crate::json::parse(&plan).expect("plan is valid JSON");
        assert_eq!(v.get("status").unwrap().as_str(), Some("partitioned"));
        match v.get("partitions").unwrap() {
            crate::json::Value::Arr(parts) => assert_eq!(parts.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    /// Whenever a compile keeps a replay trace, [`may_replay`] says the
    /// plan may replay, so a session that pins a cached plan the guard
    /// clears never drops a trace a compile would have kept.
    #[test]
    fn every_traced_plan_may_replay() {
        use aqua_assays::{figure2, Benchmark};
        use aqua_dag::NodeId;
        use aqua_rational::rng::XorShift64Star;

        let lowered = |src: &str| {
            let flat = aqua_lang::compile_to_flat(src).expect("assay parses");
            let (dag, map) = aqua_compiler::lower_to_dag(&flat).expect("assay lowers");
            (dag, map.output_weights)
        };
        let mut cases: Vec<(Dag, HashMap<NodeId, u64>)> = [
            figure2::SOURCE.to_owned(),
            Benchmark::Glucose.source(),
            Benchmark::Glycomics.source(),
            Benchmark::Enzyme.source(),
            Benchmark::EnzymeN(10).source(),
        ]
        .iter()
        .map(|src| lowered(src))
        .collect();
        // Seeded ratio variants: one mix with distinct sources re-split.
        let mut rng = XorShift64Star::new(22);
        for n in [4, 6, 8] {
            for _ in 0..3 {
                let (mut dag, weights) = lowered(&Benchmark::EnzymeN(n).source());
                let mixes: Vec<NodeId> = dag
                    .node_ids()
                    .filter(|&m| {
                        let ins = dag.in_edges(m);
                        matches!(dag.node(m).kind, NodeKind::Mix { .. })
                            && ins.len() == 2
                            && dag.edge(ins[0]).src != dag.edge(ins[1]).src
                    })
                    .collect();
                let mix = mixes[rng.index(mixes.len())];
                let parts: Vec<(NodeId, u64)> = dag
                    .in_edges(mix)
                    .iter()
                    .map(|&e| (dag.edge(e).src, rng.range_u64(1, 9)))
                    .collect();
                aqua_dag::set_mix_ratio(&mut dag, mix, &parts).expect("valid ratio");
                cases.push((dag, weights));
            }
        }
        let machines = [
            Machine::paper_default(),
            Machine::paper_default()
                .with_reservoirs(128)
                .with_input_ports(64),
        ];
        let (mut traced, mut cleared) = (0, 0);
        for (dag, weights) in &cases {
            for machine in &machines {
                let canon = canonicalize(dag, weights, machine).expect("canonicalizes");
                let (plan, solver) = compile_plan_traced(
                    &canon.dag,
                    &canon.weights,
                    machine,
                    &Obs::off(),
                    Recording::on(),
                );
                if solver.is_some() {
                    traced += 1;
                    assert!(may_replay(&plan), "traced plan not flagged: {plan:.120}");
                }
                cleared += usize::from(!may_replay(&plan));
            }
        }
        assert!(
            traced > 0 && cleared > 0,
            "{traced} traced, {cleared} cleared"
        );
    }

    #[test]
    fn compiles_counter_is_bumped() {
        let (obs, sink) = Obs::recording();
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("mx", &[(a, 1), (b, 1)], 0).unwrap();
        d.add_process("s", "sense.OD", m);
        let machine = Machine::paper_default();
        compile_plan(&canon_of(&d, &machine), &machine, &obs);
        assert_eq!(sink.snapshot().counter("serve.plan.compiles"), 1);
    }
}
