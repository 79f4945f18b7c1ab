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
        worker_shards: 1,
        ..ServiceConfig::default()
    };
    let svc = Service::new(config);
    let (sid, plan) = register(&svc, TINY);

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

    // Oracle: compile the lowered DAG with the weight applied directly.
    let machine = Machine::paper_default();
    let flat = aqua_lang::compile_to_flat(TINY).unwrap();
    let (dag, map) = aqua_compiler::lower_to_dag(&flat).unwrap();
    let mut weights: HashMap<_, _> = map.output_weights.clone();
    weights.insert(dag.find_node("Result[1]").unwrap(), 3);
    let canon = aqua_serve::canonicalize(&dag, &weights, &machine).unwrap();
    let cold = compile_plan(&canon, &machine, &aqua_obs::Obs::off());
    assert_eq!(edited, cold);
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
