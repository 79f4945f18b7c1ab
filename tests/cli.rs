//! Smoke tests for the `aquac` command-line driver.

use std::io::Write;
use std::process::Command;

fn write_assay(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(body.as_bytes()).expect("write");
    path
}

fn aquac(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_aquac"))
        .args(args)
        .output()
        .expect("aquac runs")
}

const DEMO: &str = "
ASSAY demo START
fluid A, B;
VAR R[2];
MIX A AND B IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO R[1];
MIX A AND B IN RATIOS 2 : 1 FOR 10;
SENSE OPTICAL it INTO R[2];
END
";

#[test]
fn check_reports_resolution() {
    let path = write_assay("aquac_check.assay", DEMO);
    let out = aquac(&["check", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("solved statically via DAGSolve"), "{text}");
}

#[test]
fn compile_emits_parseable_ais() {
    let path = write_assay("aquac_compile.assay", DEMO);
    let out = aquac(&["compile", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let prog: aqua_ais::Program = text.parse().expect("emitted AIS parses");
    assert_eq!(prog.name(), "demo");
}

#[test]
fn compile_emits_dot() {
    let path = write_assay("aquac_dot.assay", DEMO);
    let out = aquac(&["compile", path.to_str().unwrap(), "--emit", "dot"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"));
}

#[test]
fn run_executes_cleanly() {
    let path = write_assay("aquac_run.assay", DEMO);
    let out = aquac(&["run", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ok: no underflow"));
    assert!(text.contains("R[1]"));
}

#[test]
fn custom_machine_changes_volumes() {
    let path = write_assay("aquac_machine.assay", DEMO);
    let out = aquac(&[
        "compile",
        path.to_str().unwrap(),
        "--machine",
        "20,0.5",
        "--emit",
        "volumes",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Capacity 20 nl: no transfer may exceed it.
    assert!(!text.contains("100.0 nl"), "{text}");
}

#[test]
fn bad_input_fails_with_message() {
    let path = write_assay("aquac_bad.assay", "ASSAY broken START\nBOGUS;\nEND");
    let out = aquac(&["check", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line"), "{err}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = aquac(&["check", "/nonexistent/nope.assay"]);
    assert!(!out.status.success());
}

#[test]
fn serve_answers_a_source_its_key_and_stats() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_aquac"))
        .args(["serve", "--cache-cap", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("aquac serve starts");
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut ask = |line: String| {
        writeln!(stdin, "{line}").expect("request written");
        let mut answer = String::new();
        stdout.read_line(&mut answer).expect("answer read");
        let v = aqua_serve::json::parse(&answer).expect("answer is JSON");
        assert_eq!(
            v.get("ok"),
            Some(&aqua_serve::json::Value::Bool(true)),
            "{answer}"
        );
        v
    };
    let compiled = ask(format!(
        "{{\"id\":1,\"src\":{}}}",
        aqua_serve::json::quote(DEMO)
    ));
    let key = compiled.get("key").and_then(|k| k.as_str()).expect("key");
    let read = ask(format!("{{\"id\":2,\"key\":\"{key}\"}}"));
    assert_eq!(read.get("plan"), compiled.get("plan"));
    let stats = ask("{\"id\":3,\"cmd\":\"stats\"}".to_owned());
    let stats = stats.get("stats").expect("stats member");
    assert_eq!(stats.get("cached_plans").and_then(|n| n.as_int()), Some(1));
    assert_eq!(stats.get("hits").and_then(|n| n.as_int()), Some(1));
    drop(stdin);
    assert!(child.wait().expect("aquac serve exits").success());
}

/// An uncached `session.register` compiles through the service's queue
/// and tenant quota, as a `src` miss does: `--queue-cap 0` answers it
/// `overloaded`, `--tenant-inflight 0` answers it `shedding`, and the
/// `stats` line behind it is answered.
#[test]
fn serve_admits_session_compiles_like_source_misses() {
    use std::process::Stdio;

    for (flag, error) in [
        ("--queue-cap", "overloaded"),
        ("--tenant-inflight", "shedding"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_aquac"))
            .args(["serve", flag, "0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("aquac serve starts");
        let mut stdin = child.stdin.take().expect("stdin is piped");
        writeln!(
            stdin,
            "{{\"id\":1,\"cmd\":\"session.register\",\"src\":{}}}\n{{\"id\":2,\"cmd\":\"stats\"}}",
            aqua_serve::json::quote(DEMO)
        )
        .expect("requests written");
        drop(stdin);
        let out = child.wait_with_output().expect("aquac serve exits");
        assert!(out.status.success(), "{flag}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{flag}: {text}");
        assert!(
            lines[0].starts_with(&format!("{{\"id\":1,\"ok\":false,\"error\":\"{error}\"")),
            "{flag}: {}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"id\":2,\"ok\":true,\"stats\":"),
            "{flag}: {}",
            lines[1]
        );
    }
}

#[test]
fn serve_rejects_the_removed_sharding_flags() {
    for flag in ["--worker-shards", "--shards", "--workers", "--max-batch"] {
        let out = aquac(&["serve", flag, "2"]);
        assert!(!out.status.success(), "{flag} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown argument"), "{flag}: {err}");
    }
}

#[test]
fn exec_parallel_prints_the_speedup() {
    let path = write_assay("aquac_exec_parallel.assay", aqua_assays::glucose::SOURCE);
    let out = aquac(&["exec", path.to_str().unwrap(), "--parallel"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with("glucose: sequential 68s, scheduled 40s (1.70x), critical path 19s\n"),
        "{text}"
    );
    assert!(text.contains("ok: no underflow"), "{text}");
}

#[test]
fn exec_batch_digest_does_not_depend_on_threads() {
    let path = write_assay("aquac_exec_batch.assay", aqua_assays::glucose::SOURCE);
    let digests: Vec<String> = ["1", "2"]
        .iter()
        .map(|threads| {
            let args = ["exec", path.to_str().unwrap(), "--instances", "4"];
            let out = aquac(&[&args[..], &["--threads", threads]].concat());
            assert!(out.status.success(), "{threads} thread(s): {out:?}");
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(
                text.contains("ok: 4 instances, no violations"),
                "{threads} thread(s): {text}"
            );
            let digest = text.split("digest ").nth(1).expect("a digest");
            digest.split_whitespace().next().unwrap().to_owned()
        })
        .collect();
    assert_eq!(digests[0], digests[1]);
}
