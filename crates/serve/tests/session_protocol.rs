//! Push-mode session protocol: register / edit / close over
//! `handle_line`, with the incremental plans checked byte-for-byte
//! against cold compiles of the edited assay.

use std::collections::HashMap;

use aqua_serve::{apply_delta, compile_plan, Service, ServiceConfig};
use aqua_volume::Machine;

const TINY: &str = "
ASSAY tiny START
fluid A, B, m;
VAR Result[1];
m = MIX A AND B IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO Result[1];
END
";

const TINY_EDITED: &str = "
ASSAY tiny START
fluid A, B, m;
VAR Result[1];
m = MIX A AND B IN RATIOS 1 : 9 FOR 10;
SENSE OPTICAL it INTO Result[1];
END
";

fn service() -> Service {
    Service::new(ServiceConfig::default())
}

/// Extracts the raw bytes of a response's *last* JSON member (`plan`
/// or `delta` — both are rendered last on their respective lines).
fn last_member<'a>(line: &'a str, name: &str) -> &'a str {
    let marker = format!(",\"{name}\":");
    let at = line.find(&marker).unwrap_or_else(|| {
        panic!("response has no `{name}` member: {line}");
    });
    &line[at + marker.len()..line.len() - 1]
}

fn register(svc: &Service, src: &str) -> (String, String) {
    let line = svc.handle_line(&format!(
        "{{\"id\":1,\"cmd\":\"session.register\",\"src\":{}}}",
        aqua_serve::json::quote(src)
    ));
    assert!(line.contains("\"ok\":true"), "register failed: {line}");
    let v = aqua_serve::json::parse(&line).unwrap();
    let sid = v.get("session").unwrap().as_str().unwrap().to_owned();
    let plan = last_member(&line, "plan").to_owned();
    (sid, plan)
}

fn cold_plan(src: &str, machine_json: &str) -> String {
    let svc = service();
    let line = svc.handle_line(&format!(
        "{{\"id\":9,\"src\":{}{machine_json}}}",
        aqua_serve::json::quote(src)
    ));
    assert!(line.contains("\"ok\":true"), "cold compile failed: {line}");
    last_member(&line, "plan").to_owned()
}

#[test]
fn ratio_edit_is_incremental_and_matches_cold_compile() {
    let svc = service();
    let (sid, plan) = register(&svc, TINY);

    let line = svc.handle_line(&format!(
        "{{\"id\":2,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",9]]}}}}}}"
    ));
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("\"incremental\":true"), "{line}");
    let delta = last_member(&line, "delta");
    let incremental = apply_delta(&plan, delta).expect("delta applies");
    assert_eq!(incremental, cold_plan(TINY_EDITED, ""));

    // The edited plan was also published under its content key.
    let v = aqua_serve::json::parse(&line).unwrap();
    let key = v.get("key").unwrap().as_str().unwrap().to_owned();
    let by_key = svc.handle_line(&format!("{{\"id\":3,\"key\":\"{key}\"}}"));
    assert_eq!(last_member(&by_key, "plan"), incremental);
}

#[test]
fn noop_edit_returns_empty_delta_and_same_key() {
    let svc = service();
    let (sid, _) = register(&svc, TINY);
    let line = svc.handle_line(&format!(
        "{{\"id\":2,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",4]]}}}}}}"
    ));
    assert!(line.contains("\"incremental\":true"), "{line}");
    assert_eq!(last_member(&line, "delta"), "{\"replace\":{}}");
}

/// Ratio edits are applied to the session's DAG in place, and
/// `set_mix_ratio` validates before it writes: an edit it rejects (a
/// zero part, a repeated input, parts whose sum overflows) leaves
/// nothing behind. Re-sending the registered ratio is still a no-op
/// under the registered key, and the next valid edit still patches the
/// registered plan into the cold compile. (An edit whose replan fails
/// or unwinds is taken back by `replan_or_undo`; its unit test covers
/// that path.)
#[test]
fn failed_edit_leaves_the_session_untouched() {
    let svc = service();
    let (sid, plan) = register(&svc, TINY);
    let edit = |id: u32, parts: &str| {
        svc.handle_line(&format!(
            "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
             \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":{parts}}}}}}}"
        ))
    };
    let key = |line: &str| {
        let v = aqua_serve::json::parse(line).unwrap();
        v.get("key").unwrap().as_str().unwrap().to_owned()
    };
    let registered = key(&edit(2, "[[\"A\",1],[\"B\",4]]"));
    for (id, bad) in [
        (3, "[[\"A\",1],[\"B\",0]]"),
        (4, "[[\"A\",1],[\"A\",9]]"),
        (5, "[[\"A\",18446744073709551615],[\"B\",9]]"),
    ] {
        let line = edit(id, bad);
        assert!(line.contains("\"ok\":false"), "{bad}: {line}");
        let again = edit(id + 10, "[[\"A\",1],[\"B\",4]]");
        assert_eq!(
            last_member(&again, "delta"),
            "{\"replace\":{}}",
            "after {bad}"
        );
        assert_eq!(key(&again), registered, "after {bad}");
    }
    let line = edit(20, "[[\"A\",1],[\"B\",9]]");
    assert!(line.contains("\"ok\":true"), "{line}");
    let edited = apply_delta(&plan, last_member(&line, "delta")).expect("delta applies");
    assert_eq!(edited, cold_plan(TINY_EDITED, ""));
}

#[test]
fn machine_edit_is_a_typed_full_recompile() {
    let svc = service();
    let (sid, _) = register(&svc, TINY);
    let line = svc.handle_line(&format!(
        "{{\"id\":2,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_machine\":{{\"max_capacity_nl\":200}}}}}}"
    ));
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("\"incremental\":false"), "{line}");
    assert!(line.contains("\"cause\":\"machine_parameter\""), "{line}");
    let delta = last_member(&line, "delta");
    let fresh = delta
        .strip_prefix("{\"full\":")
        .and_then(|d| d.strip_suffix('}'))
        .expect("full recompile carries the fresh plan");
    assert_eq!(
        fresh,
        cold_plan(TINY, ",\"machine\":{\"max_capacity_nl\":200}")
    );

    // The session keeps working (and keeps the new machine): a ratio
    // edit replays against the freshly retained trace.
    let line = svc.handle_line(&format!(
        "{{\"id\":3,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",9]]}}}}}}"
    ));
    assert!(line.contains("\"incremental\":true"), "{line}");
    let edited = apply_delta(fresh, last_member(&line, "delta")).unwrap();
    assert_eq!(
        edited,
        cold_plan(TINY_EDITED, ",\"machine\":{\"max_capacity_nl\":200}")
    );
}

#[test]
fn cache_eviction_never_degrades_a_session() {
    // Satellite regression: the session pins its own canonical form,
    // plan, and trace — evicting its plan from the (tiny) shared LRU
    // must not force the edit down the full-recompile path.
    let config = ServiceConfig {
        cache_capacity: 1,
        ..ServiceConfig::default()
    };
    let svc = Service::new(config);
    let (sid, plan) = register(&svc, TINY);
    let key = aqua_serve::key_hex(
        Service::canon_src(TINY, &Machine::paper_default())
            .unwrap()
            .key,
    );

    // Thrash the single-slot cache with other canonical forms.
    for parts in [7, 11, 13, 17] {
        let other = format!(
            "
ASSAY other START
fluid A, B, m;
VAR Result[1];
m = MIX A AND B IN RATIOS 1 : {parts} FOR 10;
SENSE OPTICAL it INTO Result[1];
END
"
        );
        let line = svc.handle_line(&format!(
            "{{\"id\":5,\"src\":{}}}",
            aqua_serve::json::quote(&other)
        ));
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    // The thrash really evicted the session's plan.
    let line = svc.handle_line(&format!("{{\"id\":5,\"key\":\"{key}\"}}"));
    assert!(line.contains("\"error\":\"unknown_key\""), "{line}");

    let line = svc.handle_line(&format!(
        "{{\"id\":6,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",9]]}}}}}}"
    ));
    assert!(
        line.contains("\"incremental\":true"),
        "eviction forced a recompile: {line}"
    );
    let edited = apply_delta(&plan, last_member(&line, "delta")).unwrap();
    assert_eq!(edited, cold_plan(TINY_EDITED, ""));
}

#[test]
fn weight_edit_matches_direct_compile() {
    let svc = service();
    let (sid, plan) = register(&svc, TINY);
    let line = svc.handle_line(&format!(
        "{{\"id\":2,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_output_volume\":{{\"node\":\"Result[1]\",\"weight\":3}}}}}}"
    ));
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("\"incremental\":true"), "{line}");
    let edited = apply_delta(&plan, last_member(&line, "delta")).unwrap();
    assert_eq!(edited, weighted_cold_plan(TINY, "Result[1]", 3));
}

/// Oracle for weight edits: a cold compile of `src`'s lowered DAG
/// with `node`'s output weight set directly.
fn weighted_cold_plan(src: &str, node: &str, weight: u64) -> String {
    let machine = Machine::paper_default();
    let flat = aqua_lang::compile_to_flat(src).unwrap();
    let (dag, map) = aqua_compiler::lower_to_dag(&flat).unwrap();
    let mut weights: HashMap<_, _> = map.output_weights.clone();
    weights.insert(dag.find_node(node).unwrap(), weight);
    let canon = aqua_serve::canonicalize(&dag, &weights, &machine).unwrap();
    compile_plan(&canon, &machine, &aqua_obs::Obs::off())
}

/// Canonicalization used to encode an absent weight as 0 while the
/// compile reads it as 1, and edits accepted a weight of 0 that the
/// language refuses. So the zero-weight edit below published a
/// divergent LP plan under glucose's own key, and glucose's next `src`
/// request was served that plan. A zero weight is now refused, and the
/// session stays on its last good state.
#[test]
fn zero_weight_edit_is_refused_and_leaves_the_cache_alone() {
    let svc = service();
    let glucose = aqua_assays::glucose::SOURCE;
    let src = format!("{{\"id\":1,\"src\":{}}}", aqua_serve::json::quote(glucose));
    let cold = svc.handle_line(&src);
    let (sid, mut plan) = register(&svc, glucose);
    let weigh = |id: u32, weight: u64| {
        svc.handle_line(&format!(
            "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
             \"edit\":{{\"set_output_volume\":{{\"node\":\"Result[1]\",\"weight\":{weight}}}}}}}"
        ))
    };
    let two = weigh(2, 2);
    assert!(two.contains("\"ok\":true"), "{two}");
    plan = apply_delta(&plan, last_member(&two, "delta")).unwrap();
    let zero = weigh(3, 0);
    assert!(zero.contains("\"error\":\"bad_request\""), "{zero}");
    assert_eq!(svc.handle_line(&src), cold);
    let three = weigh(4, 3);
    assert!(three.contains("\"ok\":true"), "{three}");
    plan = apply_delta(&plan, last_member(&three, "delta")).unwrap();
    assert_eq!(plan, weighted_cold_plan(glucose, "Result[1]", 3));
}

/// A zero weight is refused where the edit is parsed, so the answer
/// does not depend on the output's history: on TINY's unweighted
/// output it used to answer `ok` with an empty delta (the no-op check
/// read an absent weight as 0), and after a weight-2 edit
/// `bad_request` from canonicalization.
#[test]
fn zero_weight_is_refused_whatever_the_outputs_history() {
    let svc = service();
    let (sid, _) = register(&svc, TINY);
    let weigh = |id: u32, weight: u64| {
        svc.handle_line(&format!(
            "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
             \"edit\":{{\"set_output_volume\":{{\"node\":\"Result[1]\",\"weight\":{weight}}}}}}}"
        ))
    };
    let refused = |id: u32| {
        format!(
            "{{\"id\":{id},\"ok\":false,\"error\":\"bad_request\",\
             \"message\":\"bad request: `set_output_volume.weight` must be positive\"}}"
        )
    };
    assert_eq!(weigh(2, 0), refused(2), "unweighted");
    assert!(weigh(3, 2).contains("\"ok\":true"));
    assert_eq!(weigh(4, 0), refused(4), "after a weight-2 edit");
}

/// The `key` member of a response line.
fn key_of(line: &str) -> String {
    let v = aqua_serve::json::parse(line).unwrap();
    v.get("key").unwrap().as_str().unwrap().to_owned()
}

/// An edit the session applies to `sid` with request id `id`.
fn edit(svc: &Service, sid: &str, id: u32, edit: &str) -> String {
    let line = svc.handle_line(&format!(
        "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\"edit\":{edit}}}"
    ));
    assert!(line.contains("\"ok\":true"), "{line}");
    line
}

fn weigh(svc: &Service, sid: &str, id: u32, weight: u64) -> String {
    edit(
        svc,
        sid,
        id,
        &format!("{{\"set_output_volume\":{{\"node\":\"Result[1]\",\"weight\":{weight}}}}}"),
    )
}

/// The compile reads an absent weight as 1, so a weight of 1 on TINY's
/// unweighted sense sink is no edit: it answers the registered key with
/// an empty delta. It used to store the 1, and the encoding, which
/// writes an absent weight as 0, moved the session to a second key for
/// the same plan.
#[test]
fn a_unit_weight_on_an_unweighted_sink_is_a_noop() {
    let svc = service();
    let (sid, _) = register(&svc, TINY);
    let registered = key_of(&svc.handle_line(&format!(
        "{{\"id\":9,\"src\":{}}}",
        aqua_serve::json::quote(TINY)
    )));
    let line = weigh(&svc, &sid, 2, 1);
    assert_eq!(key_of(&line), registered, "{line}");
    assert_eq!(last_member(&line, "delta"), "{\"replace\":{}}");
}

/// Weight 2 and then 1 on a sense sink returns the session to its
/// registered state: the registered key and plan bytes.
#[test]
fn weight_two_then_one_returns_to_the_registered_key_and_plan() {
    let svc = service();
    let (sid, registered_plan) = register(&svc, TINY);
    let registered = key_of(&svc.handle_line(&format!(
        "{{\"id\":9,\"src\":{}}}",
        aqua_serve::json::quote(TINY)
    )));
    let two = weigh(&svc, &sid, 2, 2);
    assert_ne!(key_of(&two), registered);
    let mut plan = apply_delta(&registered_plan, last_member(&two, "delta")).unwrap();
    let one = weigh(&svc, &sid, 3, 1);
    assert_eq!(key_of(&one), registered, "{one}");
    plan = apply_delta(&plan, last_member(&one, "delta")).unwrap();
    assert_eq!(plan, registered_plan);
}

/// An OUTPUT node always carries a weight, 1 by default, as lowering
/// gives it: an `add_node` output without a weight answers the key of
/// the same edit with `"weight":1`.
#[test]
fn an_added_output_without_a_weight_weighs_one() {
    let svc = service();
    let add = |weight: &str| {
        let (sid, _) = register(&svc, TINY);
        let line = edit(
            &svc,
            &sid,
            2,
            &format!("{{\"add_node\":{{\"name\":\"o\",\"output\":{{\"from\":\"m\"{weight}}}}}}}"),
        );
        key_of(&line)
    };
    assert_eq!(add(""), add(",\"weight\":1"));
}

#[test]
fn structural_edits_recompile_cold() {
    let svc = service();
    let (sid, _) = register(&svc, TINY);

    // Add a second sensing step off the mix.
    let line = svc.handle_line(&format!(
        "{{\"id\":2,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"add_node\":{{\"name\":\"s2\",\
         \"process\":{{\"op\":\"sense.OD\",\"from\":\"m\"}}}}}}}}"
    ));
    assert!(line.contains("\"incremental\":false"), "{line}");
    assert!(line.contains("\"cause\":\"structural\""), "{line}");
    let delta = last_member(&line, "delta");
    let added = delta
        .strip_prefix("{\"full\":")
        .and_then(|d| d.strip_suffix('}'))
        .unwrap();

    let machine = Machine::paper_default();
    let flat = aqua_lang::compile_to_flat(TINY).unwrap();
    let (mut dag, map) = aqua_compiler::lower_to_dag(&flat).unwrap();
    let m = dag.find_node("m").unwrap();
    dag.add_process("s2", "sense.OD", m);
    let canon = aqua_serve::canonicalize(&dag, &map.output_weights, &machine).unwrap();
    let cold = compile_plan(&canon, &machine, &aqua_obs::Obs::off());
    assert_eq!(added, cold);

    // Remove it again: back to the original canonical form.
    let line = svc.handle_line(&format!(
        "{{\"id\":3,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"remove_node\":{{\"node\":\"s2\"}}}}}}"
    ));
    assert!(line.contains("\"cause\":\"structural\""), "{line}");
    let removed = last_member(&line, "delta")
        .strip_prefix("{\"full\":")
        .and_then(|d| d.strip_suffix('}'))
        .unwrap()
        .to_owned();
    assert_eq!(removed, cold_plan(TINY, ""));

    // Removing a node with consumers is rejected, session intact.
    let line = svc.handle_line(&format!(
        "{{\"id\":4,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"remove_node\":{{\"node\":\"m\"}}}}}}"
    ));
    assert!(line.contains("\"error\":\"bad_request\""), "{line}");
    let line = svc.handle_line(&format!(
        "{{\"id\":5,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",9]]}}}}}}"
    ));
    assert!(line.contains("\"incremental\":true"), "{line}");
}

#[test]
fn session_quota_and_lifecycle() {
    let config = ServiceConfig {
        tenant_max_sessions: 1,
        ..ServiceConfig::default()
    };
    let svc = Service::new(config);
    let (sid, _) = register(&svc, TINY);
    assert_eq!(svc.session_count(), 1);

    let line = svc.handle_line(&format!(
        "{{\"id\":2,\"cmd\":\"session.register\",\"src\":{}}}",
        aqua_serve::json::quote(TINY)
    ));
    assert!(line.contains("\"error\":\"session_quota\""), "{line}");

    // A different tenant has its own quota.
    let line = svc.handle_line(&format!(
        "{{\"id\":3,\"cmd\":\"session.register\",\"tenant\":\"other\",\"src\":{}}}",
        aqua_serve::json::quote(TINY)
    ));
    assert!(line.contains("\"ok\":true"), "{line}");

    // Tenants cannot touch each other's sessions.
    let line = svc.handle_line(&format!(
        "{{\"id\":4,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\"tenant\":\"other\",\
         \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",9]]}}}}}}"
    ));
    assert!(line.contains("\"error\":\"unknown_session\""), "{line}");

    let line = svc.handle_line(&format!(
        "{{\"id\":5,\"cmd\":\"session.close\",\"session\":\"{sid}\"}}"
    ));
    assert_eq!(
        line,
        format!("{{\"id\":5,\"ok\":true,\"closed\":\"{sid}\"}}")
    );
    let line = svc.handle_line(&format!(
        "{{\"id\":6,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",9]]}}}}}}"
    ));
    assert!(line.contains("\"error\":\"unknown_session\""), "{line}");

    // The freed slot can be re-registered.
    let line = svc.handle_line(&format!(
        "{{\"id\":7,\"cmd\":\"session.register\",\"src\":{}}}",
        aqua_serve::json::quote(TINY)
    ));
    assert!(line.contains("\"ok\":true"), "{line}");
}

#[test]
fn blocked_assays_replay_too() {
    // Enzyme10 exhausts reservoirs under the paper machine (Shape B):
    // a ratio edit on a mild dilution must still replay incrementally
    // and match the cold compile of the edited assay byte-for-byte.
    let src = aqua_assays::enzyme::source_n(10);
    let svc = service();
    let (sid, plan) = register(&svc, &src);
    assert!(plan.contains("\"status\":\"resources_exceeded\""), "{plan}");

    let line = svc.handle_line(&format!(
        "{{\"id\":2,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_ratio\":{{\"node\":\"Diluted_Inhibitor[1]\",\
         \"parts\":[[\"inhibitor\",1],[\"diluent\",2]]}}}}}}"
    ));
    assert!(line.contains("\"incremental\":true"), "{line}");
    let edited = apply_delta(&plan, last_member(&line, "delta")).unwrap();

    let cold = {
        let machine = Machine::paper_default();
        let flat = aqua_lang::compile_to_flat(&src).unwrap();
        let (mut dag, map) = aqua_compiler::lower_to_dag(&flat).unwrap();
        let node = dag.find_node("Diluted_Inhibitor[1]").unwrap();
        let inhibitor = dag.find_node("inhibitor").unwrap();
        let diluent = dag.find_node("diluent").unwrap();
        aqua_dag::set_mix_ratio(&mut dag, node, &[(inhibitor, 1), (diluent, 2)]).unwrap();
        let canon = aqua_serve::canonicalize(&dag, &map.output_weights, &machine).unwrap();
        compile_plan(&canon, &machine, &aqua_obs::Obs::off())
    };
    assert_eq!(edited, cold);
}

#[test]
fn wire_errors_are_typed() {
    let svc = service();
    let line = svc.handle_line(
        "{\"id\":1,\"cmd\":\"session.edit\",\"session\":\"s99\",\
         \"edit\":{\"set_ratio\":{\"node\":\"m\",\"parts\":[[\"A\",1]]}}}",
    );
    assert!(line.contains("\"error\":\"unknown_session\""), "{line}");
    let line = svc.handle_line("{\"id\":2,\"cmd\":\"session.register\"}");
    assert!(line.contains("\"error\":\"bad_request\""), "{line}");
    let line = svc.handle_line("{\"id\":3,\"cmd\":\"session.edit\",\"session\":\"s1\"}");
    assert!(line.contains("\"error\":\"bad_request\""), "{line}");
}

/// The first two-input mix whose inputs have distinct names, as
/// `(mix, [input, input], registered parts)`.
fn toggle_target(src: &str) -> (String, [String; 2], [i128; 2]) {
    let flat = aqua_lang::compile_to_flat(src).unwrap();
    let (dag, _) = aqua_compiler::lower_to_dag(&flat).unwrap();
    let mix = dag
        .node_ids()
        .find(|&n| {
            let ins = dag.in_edges(n);
            ins.len() == 2
                && dag.node(dag.edge(ins[0]).src).name != dag.node(dag.edge(ins[1]).src).name
        })
        .expect("assay has a two-input mix");
    let [a, b] = [0, 1].map(|i| dag.edge(dag.in_edges(mix)[i]));
    let name = |e: &aqua_dag::Edge| dag.node(e.src).name.clone();
    let (fa, fb) = (a.fraction, b.fraction);
    (
        dag.node(mix).name.clone(),
        [name(a), name(b)],
        [fa.numer() * fb.denom(), fb.numer() * fa.denom()],
    )
}

/// Registers `src` on a fresh service and sends `edits` in order,
/// clearing the shared cache before each edit when `clear`. Returns the
/// response lines and `serve.plan.compiles` after each edit.
fn drive(src: &str, edits: &[String], clear: bool) -> (Vec<String>, Vec<u64>) {
    let (obs, sink) = aqua_obs::Obs::recording();
    let svc = Service::new(ServiceConfig {
        obs,
        ..ServiceConfig::default()
    });
    let (sid, _) = register(&svc, src);
    let mut compiles = Vec::new();
    let lines = edits
        .iter()
        .enumerate()
        .map(|(i, edit)| {
            if clear {
                svc.clear_cache();
            }
            let line = svc.handle_line(&format!(
                "{{\"id\":{},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\"edit\":{edit}}}",
                i + 2
            ));
            assert!(line.contains("\"ok\":true"), "{line}");
            compiles.push(sink.snapshot().counter("serve.plan.compiles"));
            line
        })
        .collect();
    (lines, compiles)
}

/// enzyme4 (solved by LP after rewrites) and glycomics (partitioned)
/// leave no replay trace, so every edit falls back. A revisited state
/// pins the plan the session published for it earlier: the answer is
/// byte-for-byte the one a cleared cache gets by compiling, and only
/// first visits compile. The script toggles a ratio A→B→A→B, moves the
/// machine away and back, and adds and removes a node.
#[test]
fn revisited_states_reuse_the_cached_plan_byte_for_byte() {
    let cap = Machine::paper_default().max_capacity_nl();
    for src in [
        aqua_assays::enzyme::source_n(4),
        aqua_assays::glycomics::SOURCE.to_owned(),
    ] {
        let (mix, [a, b], [pa, pb]) = toggle_target(&src);
        let ratio = |second: i128| {
            format!(
                "{{\"set_ratio\":{{\"node\":\"{mix}\",\"parts\":[[\"{a}\",{pa}],[\"{b}\",{second}]]}}}}"
            )
        };
        let machine = |cap: &str| format!("{{\"set_machine\":{{\"max_capacity_nl\":{cap}}}}}");
        let edits = [
            ratio(pb + 1),
            ratio(pb),
            ratio(pb + 1),
            ratio(pb),
            machine("200"),
            machine(&format!("\"{}/{}\"", cap.numer(), cap.denom())),
            format!(
                "{{\"add_node\":{{\"name\":\"probe\",\"process\":{{\"op\":\"sense.OD\",\"from\":\"{mix}\"}}}}}}"
            ),
            "{\"remove_node\":{\"node\":\"probe\"}}".to_owned(),
        ];
        let (warm, compiles) = drive(&src, &edits, false);
        let (cold, cold_compiles) = drive(&src, &edits, true);
        assert_eq!(warm, cold);
        // Registering compiled once; then only B, the 200 nl machine and
        // the added node are first visits.
        assert_eq!(compiles, [2, 2, 2, 2, 3, 3, 4, 4], "{}", &warm[0]);
        assert_eq!(cold_compiles, [2, 3, 4, 5, 6, 7, 8, 9]);
        for line in &warm {
            assert!(line.contains("\"incremental\":false"), "{line}");
        }
    }
}

/// A session whose plan replays (TINY: `solved` by DAGSolve) never
/// swaps its trace for a cached plan: its revisits stay incremental.
#[test]
fn replayed_sessions_still_replay_their_revisits() {
    let edits: Vec<String> = [9, 4, 9, 4]
        .iter()
        .map(|b| format!("{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",{b}]]}}}}"))
        .collect();
    let (lines, compiles) = drive(TINY, &edits, false);
    for line in &lines {
        assert!(line.contains("\"incremental\":true"), "{line}");
    }
    assert_eq!(compiles, [1, 1, 1, 1]);
}

/// An edit whose replay diverges falls back as `divergence` and pins a
/// plan that keeps no trace (TINY at 1:9999 is `solved`, but not by a
/// round-0 DAGSolve). The edit back to 1:4 is then `no_trace`; the
/// cached 1:4 plan may replay, so it is compiled again, this time with a
/// trace, and the next edit replays.
#[test]
fn a_diverged_session_recompiles_and_replays_again() {
    let (obs, sink) = aqua_obs::Obs::recording();
    let svc = Service::new(ServiceConfig {
        obs,
        ..ServiceConfig::default()
    });
    let (sid, mut plan) = register(&svc, TINY);
    let mut compiles = Vec::new();
    for (id, b, answer) in [
        (2, 9999, "\"incremental\":false,\"cause\":\"divergence\""),
        (3, 4, "\"incremental\":false,\"cause\":\"no_trace\""),
        (4, 9, "\"incremental\":true,\"slice\":3"),
    ] {
        let line = svc.handle_line(&format!(
            "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
             \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",{b}]]}}}}}}"
        ));
        assert!(line.contains(answer), "{line}");
        plan = apply_delta(&plan, last_member(&line, "delta")).expect("delta applies");
        let edited = TINY.replace("1 : 4", &format!("1 : {b}"));
        assert_eq!(plan, cold_plan(&edited, ""), "1:{b}");
        compiles.push(sink.snapshot().counter("serve.plan.compiles"));
    }
    assert_eq!(compiles, [2, 3, 3]);
    let counters = sink.snapshot();
    for (name, n) in [
        ("incr.divergence_fallback", 1),
        ("incr.full_recompile", 2),
        ("incr.fast_path", 1),
    ] {
        assert_eq!(counters.counter(name), n, "{name}");
    }
}

/// The error tag of a response line, or `None` for a success.
fn error_tag(line: &str) -> Option<String> {
    let v = aqua_serve::json::parse(line).expect("response is JSON");
    v.get("error").and_then(|e| e.as_str()).map(str::to_owned)
}

/// A session compile is a miss like any other: it is charged to the
/// service's queue and its tenant's quota, so a register that would
/// compile answers `overloaded` on a zero-slot queue and `shedding`
/// past its tenant's in-flight quota, and no session is left behind.
#[test]
fn session_compiles_are_admitted_like_source_misses() {
    for (config, error) in [
        (
            ServiceConfig {
                queue_capacity: 0,
                ..ServiceConfig::default()
            },
            "overloaded",
        ),
        (
            ServiceConfig {
                tenant_max_inflight: 0,
                ..ServiceConfig::default()
            },
            "shedding",
        ),
    ] {
        let svc = Service::new(config);
        let line = svc.handle_line(&format!(
            "{{\"id\":1,\"cmd\":\"session.register\",\"src\":{}}}",
            aqua_serve::json::quote(TINY)
        ));
        assert_eq!(error_tag(&line).as_deref(), Some(error), "{line}");
        assert_eq!(svc.session_count(), 0);
    }
}

/// Session commands read `deadline_ms` as `src` requests do: a negative
/// value is a bad request, one above the service cap is refused, and an
/// expired deadline times out the compile a register would lead.
#[test]
fn session_commands_honour_deadline_ms() {
    let svc = service();
    let register_by = |id: u32, deadline: &str| {
        svc.handle_line(&format!(
            "{{\"id\":{id},\"cmd\":\"session.register\",\"src\":{},\"deadline_ms\":{deadline}}}",
            aqua_serve::json::quote(TINY)
        ))
    };
    let too_large = (ServiceConfig::default().max_deadline_ms + 1).to_string();
    for (id, deadline, error) in [
        (1, "-1", "bad_request"),
        (2, too_large.as_str(), "deadline_too_large"),
        (3, "0", "timeout"),
    ] {
        let line = register_by(id, deadline);
        assert_eq!(error_tag(&line).as_deref(), Some(error), "{line}");
    }
    assert_eq!(svc.session_count(), 0);

    let (sid, _) = register(&svc, TINY);
    for (id, deadline, error) in [
        (4, "-1", "bad_request"),
        (5, &*too_large, "deadline_too_large"),
    ] {
        let line = svc.handle_line(&format!(
            "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\"deadline_ms\":{deadline},\
             \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",9]]}}}}}}"
        ));
        assert_eq!(error_tag(&line).as_deref(), Some(error), "{line}");
    }
}

/// A machine edit whose compile cannot meet its deadline answers
/// `timeout` and leaves the session as it was: the same key and plan,
/// the same machine and the same canonical-mapping memo, and a trace its
/// next ratio edits still replay.
#[test]
fn a_timed_out_machine_edit_leaves_the_session_as_it_was() {
    let (obs, sink) = aqua_obs::Obs::recording();
    let svc = Service::new(ServiceConfig {
        obs,
        ..ServiceConfig::default()
    });
    let (sid, mut plan) = register(&svc, TINY);
    let edit = |id: u32, edit: &str, extra: &str| {
        svc.handle_line(&format!(
            "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"{sid}\"{extra},\"edit\":{edit}}}"
        ))
    };
    let ratio =
        |b: u32| format!("{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",{b}]]}}}}");
    let key = |line: &str| {
        let v = aqua_serve::json::parse(line).unwrap();
        v.get("key").unwrap().as_str().unwrap().to_owned()
    };

    let nine = edit(2, &ratio(9), "");
    assert!(nine.contains("\"incremental\":true"), "{nine}");
    plan = apply_delta(&plan, last_member(&nine, "delta")).unwrap();
    let machine = "{\"set_machine\":{\"max_capacity_nl\":200}}";
    let timed_out = edit(3, machine, ",\"deadline_ms\":0");
    assert_eq!(
        error_tag(&timed_out).as_deref(),
        Some("timeout"),
        "{timed_out}"
    );

    // The same key and plan: re-sending the current ratio is a no-op.
    let noop = edit(4, &ratio(9), "");
    assert_eq!(key(&noop), key(&nine));
    assert_eq!(last_member(&noop, "delta"), "{\"replace\":{}}");

    // The same machine and memo: both earlier states replay and map
    // from the memo, and the plans are the paper machine's.
    let hits = sink.snapshot().counter("incr.canon.hit");
    for (id, b) in [(5, 4), (6, 9)] {
        let line = edit(id, &ratio(b), "");
        assert!(line.contains("\"incremental\":true"), "{line}");
        plan = apply_delta(&plan, last_member(&line, "delta")).unwrap();
        assert_eq!(
            plan,
            cold_plan(&TINY.replace("1 : 4", &format!("1 : {b}")), "")
        );
    }
    assert_eq!(sink.snapshot().counter("incr.canon.hit"), hits + 2);
}
