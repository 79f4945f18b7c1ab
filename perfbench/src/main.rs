//! `aqua-perfbench`: the repository benchmark.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold|serve|exec --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload turns the seed into a fixed list of operations whose
//! length is set by `--seconds` (sized so the list takes about that
//! long), so counts, statuses and simulated times repeat exactly for a
//! seed and only wall-clock figures carry noise:
//!
//! * `cold` — one closed-loop client sends compile requests through
//!   `Service::handle_line` to a service with its plan store on; every
//!   request is a distinct variant of one of seven rows, so every one
//!   misses the cache.
//! * `serve` — one closed-loop client mixes key lookups, cache-hitting
//!   source resubmissions and `session.edit`s against a warm,
//!   memory-only service.
//! * `exec` — 16-instance batches of precompiled plans, some with
//!   injected faults and recovery on, through `aqua_sim::run_batch` at
//!   two threads.
//!
//! The last line of standard output is the result: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
//! rerun of the same list (see [`trace`]). The line before it is the full
//! report: provenance, the workload's own metrics, the per-row table and
//! the correctness findings. Any failed check sets `"correct":false`,
//! is printed to standard error and makes the exit status 1.

mod cold;
mod exec;
mod inputs;
mod plans;
mod refspeed;
mod report;
mod serve;
mod trace;

use std::time::Instant;

use report::{metric, Cell, Metric};

/// Throwaway setups per run, spread evenly through the timed phase;
/// `setup_s` is the median of their wall times. The host's speed for
/// memory-heavy code drifts over seconds, so setups taken across the
/// whole run sample the same host as the timed operations do, instead
/// of one moment of it. The run's own setup, before the timed phase, is
/// reported beside them but not counted: it alone pays for the fresh
/// process's first heap growth.
pub const SETUP_REPS: usize = 10;

/// A run that has not finished by then has hung; it fails loudly
/// instead of running into the caller's time limit.
const WATCHDOG_S: u64 = 170;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(int()?),
            "--seconds" => seconds = Some(int()?.clamp(1, 60)),
            "--trace" => trace = Some(int()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold", "serve", "exec"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (cold, serve, exec)"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload's timed phase produced.
#[derive(Default)]
pub struct Timed {
    pub attempted: u64,
    pub failed: u64,
    /// Time spent waiting on the program: the sum of operation times.
    pub busy_s: f64,
    /// Per-row latency cells; `tmean_ms` is the geometric mean of the
    /// trimmed means of `tmean_cells`, `p90_ms` of the p90s of `p90_cells`.
    pub cells: Vec<Cell>,
    pub tmean_cells: Vec<usize>,
    pub p90_cells: Vec<usize>,
    /// Operations whose plan is solved or partitioned.
    pub usable: u64,
    /// Operations that returned or ran a plan.
    pub planned: u64,
    pub ratio_err_max: f64,
    /// Workload-specific metrics, reported by name beside the generic ones.
    pub own: Vec<Metric>,
    /// Values that must repeat exactly for a seed.
    pub exact: Vec<(String, String)>,
}

impl Timed {
    pub fn tmean_ms(&self) -> f64 {
        report::gmean(
            &self
                .tmean_cells
                .iter()
                .map(|&i| self.cells[i].tmean())
                .collect::<Vec<_>>(),
        )
    }

    pub fn p90_ms(&self) -> f64 {
        report::gmean(
            &self
                .p90_cells
                .iter()
                .map(|&i| self.cells[i].p90())
                .collect::<Vec<_>>(),
        )
    }

    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.busy_s.max(1e-9)
    }
}

/// A workload's findings and results.
pub struct Outcome {
    pub errors: Vec<String>,
    /// Wall time of the run's own setup, before the timed phase.
    pub first_setup_s: f64,
    /// Wall time of each throwaway setup (see [`SETUP_REPS`]).
    pub setup_s: Vec<f64>,
    /// The reference kernel's timings, taken through the timed phase.
    pub speed: refspeed::RefSpeed,
    pub timed: Timed,
    /// The traced rerun, with `--trace 1`.
    pub traced: Option<trace::Traced>,
}

/// Runs `setup` and returns its result with its wall time in seconds.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let made = setup();
    (made, start.elapsed().as_secs_f64())
}

/// The throwaway setups of a timed phase of `ops` operations: rep `k`
/// runs just before operation `k * ops / SETUP_REPS`.
pub struct SetupReps {
    ops: usize,
    pub secs: Vec<f64>,
}

impl SetupReps {
    pub fn new(ops: usize) -> SetupReps {
        SetupReps {
            ops,
            secs: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Runs every rep due before operation `i`, timing each; `setup`
    /// gets the rep's number, and what it builds is dropped untimed.
    pub fn before<T>(&mut self, i: usize, mut setup: impl FnMut(usize) -> T) {
        while self.secs.len() < SETUP_REPS && self.secs.len() * self.ops / SETUP_REPS <= i {
            let rep = self.secs.len();
            let (made, secs) = timed(|| setup(rep));
            drop(made);
            self.secs.push(secs);
        }
    }
}

/// A Linux `cpu_set_t`: 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Runs `f` with the calling thread pinned to one CPU; threads `f`
/// spawns (a service's batchers) keep that pin for their lifetime.
///
/// `cold` and `serve` run whole on one CPU: one closed-loop client
/// drives them, so nothing runs in parallel anyway, and the client and
/// the batcher it hands each request to always share a CPU instead of
/// meeting on the same or on different CPUs from run to run.
///
/// The pin also makes `std::thread::available_parallelism` report 1,
/// so `aqua_lp::batch::run_parallel`, which partitioned compiles call,
/// runs its tasks inline. With two or more workers that pool can
/// deadlock: a worker keeps its own deque locked while it locks
/// another's to steal, and two workers stealing at once wait on each
/// other forever. So every compile the benchmark starts runs pinned.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let mut saved = CpuSet([0; 16]);
    // SAFETY: `saved` is a writable `cpu_set_t`-sized buffer and the
    // size passed is its size; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut saved) } == 0;
    let first = saved.0.iter().enumerate().find(|(_, w)| **w != 0);
    let pinned = match (got, first) {
        (true, Some((word, bits))) => {
            let mut one = CpuSet([0; 16]);
            one.0[word] = 1 << bits.trailing_zeros();
            // SAFETY: `one` is a valid `cpu_set_t` naming one CPU the
            // thread may already run on.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
        }
        _ => false,
    };
    let out = f();
    if pinned {
        // SAFETY: `saved` holds the mask read above.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &saved) };
    }
    out
}

/// Checks an unperturbed row's plan against the status table.
pub fn check_plan_status(errors: &mut Vec<String>, r: inputs::Row, plan: Option<&str>) {
    let want = inputs::expected_status(r);
    match plan.map(|p| plans::read(p, r.chip.machine().max_capacity_nl())) {
        Some(Ok(info)) if info.status == want => {}
        Some(Ok(info)) => errors.push(format!(
            "status table: {} compiled to {}, expected {want}",
            r.name(),
            info.status
        )),
        Some(Err(e)) => errors.push(format!("status table: {} plan unreadable: {e}", r.name())),
        None => errors.push(format!("status table: {} did not compile", r.name())),
    }
}

/// Compiles every row of the status table the run has not already
/// checked and checks it, and checks that the variants are rendered
/// from the repository's assays.
pub fn check_status_table(errors: &mut Vec<String>, checked: &[inputs::Row]) {
    inputs::check_base_variants(errors);
    for (r, _) in inputs::STATUS_TABLE {
        if checked.contains(&r) {
            continue;
        }
        let machine = r.chip.machine();
        let plan = on_one_cpu(|| {
            aqua_serve::Service::canon_src(&r.source(), &machine)
                .ok()
                .map(|canon| aqua_serve::compile_plan(&canon, &machine, &aqua_obs::Obs::off()))
        });
        check_plan_status(errors, r, plan.as_deref());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cold|serve|exec --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_S));
        eprintln!("perfbench: CHECK FAILED: the run did not finish within {WATCHDOG_S} s");
        std::process::exit(1);
    });
    let outcome = match args.workload.as_str() {
        "cold" => on_one_cpu(|| cold::run(&args)),
        "serve" => on_one_cpu(|| serve::run(&args)),
        _ => exec::run(&args),
    };
    let mut errors = outcome.errors;
    let t = &outcome.timed;

    // Every time is reported at the reference speed (see `refspeed`);
    // the wall-clock figures go in the report line beside them.
    let scale = outcome.speed.scale();
    let setup_s = report::median(&outcome.setup_s);
    let e2e = vec![
        metric("tmean_ms", t.tmean_ms() * scale, "ms"),
        metric("p90_ms", t.p90_ms() * scale, "ms"),
        metric("ops_per_s", t.ops_per_s() / scale, "1/s"),
        metric("setup_s", setup_s * scale, "s"),
        metric("peak_rss_mb", report::peak_rss_mb(), "MiB"),
        metric(
            "solved_share",
            t.usable as f64 / t.planned.max(1) as f64,
            "ratio",
        ),
        metric("ratio_err_max", t.ratio_err_max, "ratio"),
    ];
    let wall = vec![
        metric("tmean_ms", t.tmean_ms(), "ms"),
        metric("p90_ms", t.p90_ms(), "ms"),
        metric("ops_per_s", t.ops_per_s(), "1/s"),
        metric("setup_s", setup_s, "s"),
        metric("ref_kernel_ms", outcome.speed.median_ms(), "ms"),
    ];
    let mut own = t.own.clone();
    own.push(metric(
        "failed_share",
        t.failed as f64 / t.attempted.max(1) as f64,
        "ratio",
    ));

    let mut layer_metrics = Vec::new();
    let mut shares = String::from("[]");
    let mut row_layers = String::from("{}");
    let (mut attempted, mut failed) = (t.attempted, t.failed);
    if let Some((traced, layers, predictions)) = &outcome.traced {
        for ((k, a), (_, b)) in t.exact.iter().zip(&traced.exact) {
            if a != b {
                errors.push(format!(
                    "determinism: `{k}` differs between two runs of seed {}: {a} vs {b}",
                    args.seed
                ));
            }
        }
        if t.exact.len() != traced.exact.len() {
            errors.push("determinism: exact summaries differ in length".into());
        }
        layer_metrics = layers.metrics();
        row_layers = layers.rows_json();
        let (json, misses) = trace::check_shares(predictions);
        shares = json;
        layer_metrics.push(metric(
            "trace.overhead",
            t.ops_per_s() / traced.ops_per_s().max(1e-9),
            "ratio",
        ));
        layer_metrics.push(metric("trace.share_misses", misses as f64, "count"));
        attempted = traced.attempted;
        failed = traced.failed;
    }

    let correct = errors.is_empty();
    for e in &errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let quoted_errors: Vec<String> = errors.iter().map(|e| aqua_serve::json::quote(e)).collect();
    let cells: Vec<String> = t.cells.iter().map(Cell::json).collect();
    let exact: Vec<String> = t
        .exact
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{}",
                aqua_serve::json::quote(k),
                aqua_serve::json::quote(v)
            )
        })
        .collect();
    println!(
        "{{\"benchmark\":\"aqua-perfbench/v1\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
         \"mode\":\"{}\",\"git_rev\":{},\"host_cpus\":{},\"correct\":{correct},\"first_setup_s\":{},\"setup_reps_s\":{:?},\
         \"errors\":[{}],\"end_to_end\":{},\"wall\":{},\"workload_metrics\":{},\"per_layer\":{},\
         \"trace_shares\":{shares},\"row_layers_ms\":{row_layers},\"exact\":{{{}}},\"rows\":[{}]}}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        aqua_serve::json::quote(&report::git_rev()),
        report::host_cpus(),
        report::num(outcome.first_setup_s),
        outcome.setup_s,
        quoted_errors.join(","),
        report::metrics_json(&e2e),
        report::metrics_json(&wall),
        report::metrics_json(&own),
        report::metrics_json(&layer_metrics),
        exact.join(","),
        cells.join(","),
    );
    let result = if args.trace { &layer_metrics } else { &e2e };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        report::metrics_json(result)
    );
    if !correct {
        std::process::exit(1);
    }
}
