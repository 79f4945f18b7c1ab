//! The committed `BENCH.json` states the outcome every row timed. This
//! recompiles the (assay, machine) pair of each compile-path row through
//! the service's `compile_plan` and fails when the plan's status differs
//! from the row's, so a committed row cannot keep calling a rejection
//! `solved` (or the reverse) after the compiler changes. Regenerate the
//! file with `cargo run --release -p aqua-bench --bin bench`.

use std::collections::HashMap;

use aqua_serve::json::{parse, Value};

/// Paths whose rows time the unedited (assay, machine) compile; edit
/// rows carry the edited plan's status and LP rows the LP status.
fn is_compile_path(path: &str) -> bool {
    [
        "cold",
        "warm-src",
        "warm-key",
        "restart-warm-src",
        "sched",
        "exec-scheduled",
        "record",
    ]
    .contains(&path)
        || path.starts_with("fault-")
}

#[test]
fn committed_row_statuses_match_a_fresh_compile() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH.json");
    let text = std::fs::read_to_string(path).expect("BENCH.json is committed");
    let doc = parse(&text).expect("BENCH.json parses");
    let Some(Value::Arr(rows)) = doc.get("rows") else {
        panic!("BENCH.json has no rows array");
    };
    let mut fresh: HashMap<(String, String), String> = HashMap::new();
    let mut checked = 0;
    for row in rows {
        let key = row.get("key").and_then(Value::as_str).expect("row key");
        let status = row
            .get("status")
            .and_then(Value::as_str)
            .expect("row status");
        let [assay, machine, path] = key.split('/').collect::<Vec<_>>()[..] else {
            panic!("row key {key} is not {{assay}}/{{machine}}/{{path}}");
        };
        if !is_compile_path(path) {
            continue;
        }
        let expected = fresh
            .entry((assay.to_owned(), machine.to_owned()))
            .or_insert_with(|| {
                let src = aqua_bench::assay_source(assay)
                    .unwrap_or_else(|| panic!("{key}: unknown assay {assay}"));
                let chip = aqua_bench::machine(machine)
                    .unwrap_or_else(|| panic!("{key}: unknown machine {machine}"));
                aqua_bench::plan_status(&src, &chip)
            });
        assert_eq!(
            status, expected,
            "{key}: BENCH.json says {status:?}, a fresh compile says {expected:?}"
        );
        checked += 1;
    }
    assert!(checked > 0, "BENCH.json holds no compile-path rows");
}
