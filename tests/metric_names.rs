//! The metric names are a closed list: every span, counter and
//! histogram name one recording sink sees across the compiler, the
//! plan service, sessions, the scheduler and the batch executor must
//! be a row of the table in DESIGN.md §7.2, with the same kind; and
//! every row's name must still be written somewhere in non-test source.

use std::collections::BTreeMap;
use std::path::Path;

use aqua_assays::{figure2, Benchmark};
use aqua_compiler::CompileOptions;
use aqua_obs::Obs;
use aqua_serve::json::{self, quote};
use aqua_serve::{Service, ServiceConfig};
use aqua_sim::{run_batch, BatchJob, BatchOptions, ExecConfig, Executor, FaultPlan, SchedOptions};
use aqua_volume::{Machine, VolumeManagerOptions};

/// The §7.2 table: name -> kind.
fn documented() -> BTreeMap<String, String> {
    let design = include_str!("../DESIGN.md");
    let start = design.find("### 7.2 ").expect("DESIGN.md has a §7.2");
    let section = &design[start..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            let cols: Vec<&str> = l.split('|').map(str::trim).collect();
            (cols[1].trim_matches('`').to_owned(), cols[2].to_owned())
        })
        .collect()
}

fn ok(line: &str) -> json::Value {
    let v = json::parse(line).expect("response is JSON");
    assert_eq!(v.get("ok"), Some(&json::Value::Bool(true)), "{line}");
    v
}

#[test]
fn every_emitted_name_is_in_the_design_table() {
    let (obs, sink) = Obs::recording();
    let machine = Machine::paper_default();
    let opts = CompileOptions {
        volume: VolumeManagerOptions {
            obs: obs.clone(),
            ..VolumeManagerOptions::default()
        },
        ..CompileOptions::default()
    };

    // The compiler and the Fig. 6 hierarchy.
    let sources = [
        figure2::SOURCE.to_owned(),
        Benchmark::Glucose.source(),
        Benchmark::Glycomics.source(),
        Benchmark::EnzymeN(4).source(),
    ];
    let outs: Vec<_> = sources
        .iter()
        .map(|src| aqua_compiler::compile(src, &machine, &opts).expect("paper assay compiles"))
        .collect();

    // The plan service: a source read, a key read, a session and both
    // edit kinds (a ratio edit replays, a machine edit recompiles), then
    // a glycomics session (partitioned, so no replay trace) whose machine
    // goes away and back: the way back reuses the registered plan.
    let svc = Service::new(ServiceConfig {
        obs: obs.clone(),
        ..ServiceConfig::default()
    });
    let glucose = quote(aqua_assays::glucose::SOURCE);
    let served = ok(&svc.handle_line(&format!("{{\"id\":1,\"src\":{glucose}}}")));
    let key = served
        .get("key")
        .and_then(json::Value::as_str)
        .expect("key");
    ok(&svc.handle_line(&format!("{{\"id\":2,\"key\":\"{key}\"}}")));
    let reg = ok(&svc.handle_line(&format!(
        "{{\"id\":3,\"cmd\":\"session.register\",\"src\":{glucose}}}"
    )));
    let sid = reg
        .get("session")
        .and_then(json::Value::as_str)
        .expect("sid");
    ok(&svc.handle_line(&format!(
        "{{\"id\":4,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_ratio\":{{\"node\":\"a\",\"parts\":[[\"Glucose\",1],[\"Reagent\",3]]}}}}}}"
    )));
    ok(&svc.handle_line(&format!(
        "{{\"id\":5,\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
         \"edit\":{{\"set_machine\":{{\"max_capacity_nl\":200}}}}}}"
    )));
    ok(&svc.handle_line(&format!(
        "{{\"id\":6,\"cmd\":\"session.close\",\"session\":\"{sid}\"}}"
    )));
    let reg = ok(&svc.handle_line(&format!(
        "{{\"id\":7,\"cmd\":\"session.register\",\"src\":{}}}",
        quote(aqua_assays::glycomics::SOURCE)
    )));
    let sid = reg
        .get("session")
        .and_then(json::Value::as_str)
        .expect("sid");
    for (id, cap) in [(8, 200), (9, 100)] {
        ok(&svc.handle_line(&format!(
            "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"{sid}\",\
             \"edit\":{{\"set_machine\":{{\"max_capacity_nl\":{cap}}}}}}}"
        )));
    }
    drop(svc);

    // A faulted scheduled execution and a small batch.
    let glucose_out = &outs[1];
    let schedule = aqua_sim::sched::plan(glucose_out, &machine, &SchedOptions { obs: obs.clone() });
    let faulted = ExecConfig {
        faults: FaultPlan::uniform(3, 0.10),
        recover: true,
        obs: obs.clone(),
        ..ExecConfig::default()
    };
    Executor::new(&machine, faulted.clone())
        .run_scheduled(glucose_out, &schedule)
        .expect("faulted scheduled run");
    let jobs: Vec<BatchJob> = (0..4)
        .map(|i| BatchJob {
            out: glucose_out,
            key: 1,
            config: ExecConfig {
                faults: FaultPlan::uniform(i + 1, 0.10),
                ..faulted.clone()
            },
        })
        .collect();
    let big = machine.clone().with_reservoirs(128).with_input_ports(64);
    run_batch(
        &big,
        &jobs,
        &BatchOptions {
            threads: 2,
            obs: obs.clone(),
        },
    )
    .expect("batch runs");

    let snap = sink.snapshot();
    let table = documented();
    let emitted = snap
        .counters
        .keys()
        .map(|n| (n, "counter"))
        .chain(snap.spans.keys().map(|n| (n, "span")))
        .chain(snap.hists.keys().map(|n| (n, "histogram")));
    let mut missing = Vec::new();
    for (name, kind) in emitted {
        if table.get(*name).map(String::as_str) != Some(kind) {
            missing.push(format!("{name} ({kind})"));
        }
    }
    assert!(
        missing.is_empty(),
        "emitted but not in DESIGN.md §7.2 with that kind: {missing:?}"
    );

    // The counters that show each engine actually ran.
    for name in [
        "lp.pivots",
        "lp.backend_chosen.sparse",
        "vol.vnorm_passes",
        "sim.instructions",
        "incr.plan_reuse",
    ] {
        assert!(snap.counter(name) > 0, "{name} is zero");
    }
}

/// Appends the non-test part of every `.rs` file under `dir`: each file
/// up to its first line starting with `#[cfg(test)]`, the part
/// `scripts/loc.sh` counts.
fn non_test_source(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            non_test_source(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            for line in text.lines() {
                if line.starts_with("#[cfg(test)]") {
                    break;
                }
                out.push_str(line);
                out.push('\n');
            }
        }
    }
}

#[test]
fn every_design_row_is_named_in_non_test_source() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut source = String::new();
    non_test_source(&root.join("src"), &mut source);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            non_test_source(&src, &mut source);
        }
    }
    let stale: Vec<String> = documented()
        .into_keys()
        .filter(|name| !source.contains(&format!("\"{name}\"")))
        .collect();
    assert!(
        stale.is_empty(),
        "DESIGN.md §7.2 rows no non-test source names: {stale:?}"
    );
}
