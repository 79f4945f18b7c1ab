//! Times every path the repository gates and writes one `bench/v1`
//! document, `BENCH.json` at the repo root.
//!
//! Usage: `cargo run --release -p aqua-bench --bin bench [--quick]
//! [--out PATH] [--obs TRACE_PATH]`
//!
//! Five sections run in order, each adding rows keyed
//! `{assay}/{machine}/{path}` (names as `aqua_bench::assay_source` and
//! `aqua_bench::machine` resolve them) and named gates:
//!
//! * [`lp`] — the sparse revised simplex against the dense tableau
//!   oracle on the paper's LP formulations;
//! * [`fault`] — executions under injected hardware faults with the
//!   run-time recovery ladder on;
//! * [`serve`] — the plan service's front door (cold, warm-src,
//!   warm-key), a mixed multi-tenant traffic phase, a kill-and-restart
//!   through the plan store, and push-mode session edits;
//! * [`exec`] — scheduled against sequential execution, and a
//!   32-instance batch fleet at 1, 2 and 8 threads;
//! * [`replay`] — the descriptor-log replay soak.
//!
//! Every row carries the outcome it timed (`status`: the plan's status
//! member, or the LP status on LP rows), so a fast rejection never
//! reads as a fast compile. `--quick` drops iteration counts and inputs
//! to a smoke-test level for CI; gates that only full-size inputs can
//! meet are then reported as ungated figures. The binary writes the
//! document first and then exits 1 if any gate failed.
//!
//! `--obs` attaches a recording observability sink to the LP solves and
//! to every executor of the fault and exec sections, and writes a Chrome
//! trace-event JSON plus a text summary at exit. The serve and replay
//! sections run without it: their timing gates are measured with probes
//! off, and the replay soak records into a sink of its own.

mod exec;
mod fault;
mod lp;
mod replay;
mod serve;

use aqua_bench::harness::{self, Report};
use aqua_obs::Obs;

/// Shared state of one run.
struct Bench {
    report: Report,
    /// The `--obs` handle (off without the flag).
    obs: Obs,
}

impl Bench {
    fn quick(&self) -> bool {
        self.report.quick
    }
}

/// The plan status of `assay` on `machine` (row names).
fn status_on(assay: &str, machine: &str) -> String {
    let src = aqua_bench::assay_source(assay).expect("known assay");
    let machine = aqua_bench::machine(machine).expect("known machine");
    aqua_bench::plan_status(&src, &machine)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A mistyped `--quick` must not start a full run over BENCH.json.
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => {}
            "--out" | "--obs" => {
                rest.next();
            }
            other => {
                eprintln!(
                    "error: unknown argument {other} (takes --quick, --out PATH, --obs PATH)"
                );
                std::process::exit(2);
            }
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    // Without --out the run regenerates the committed BENCH.json.
    let out_path = harness::path_arg(&args, "--out")
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json").to_owned());
    let (obs, obs_out) = harness::obs_from_args(&args);
    println!("bench: {} mode\n", if quick { "quick" } else { "full" });

    let mut b = Bench {
        report: Report::new(quick),
        obs,
    };
    lp::run(&mut b);
    fault::run(&mut b);
    serve::run(&mut b);
    exec::run(&mut b);
    replay::run(&mut b);

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = b.report.to_json(&git_rev(), host_cpus);
    std::fs::write(&out_path, &json).expect("write the bench document");
    println!("\nwrote {out_path}");
    if let Some((path, sink)) = obs_out {
        harness::write_obs_trace(&path, &sink);
    }
    let failed: Vec<&str> = b.report.failed().map(|g| g.name.as_str()).collect();
    if !failed.is_empty() {
        eprintln!("error: failed gates: {}", failed.join(", "));
        std::process::exit(1);
    }
}

/// The commit the rows were measured at (`-dirty` when the working tree
/// differs from it), or `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}
