//! A dependency-free timing harness.
//!
//! `criterion` cannot be fetched in the offline build, so the `bench`
//! binary uses this instead: one sampler ([`sample`]: warmup calls,
//! then timed calls, sorted), one row type (`Row`, keyed
//! `{assay}/{machine}/{path}` and carrying the outcome it timed), one
//! list of named gates ([`Gate`]) and the `bench/v1` document
//! ([`Report::to_json`]) the binary writes to `BENCH.json`.
//!
//! The schema is documented in EXPERIMENTS.md; it is one row or gate
//! per line on purpose, so `jq`-free scripts can grep it.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use aqua_obs::export::quote;
use aqua_obs::fleet::FleetSink;

/// Runs `warmup` untimed then `iters` timed calls of `f` and returns the
/// per-call wall times in nanoseconds, sorted ascending.
///
/// The closure's return value is passed through [`std::hint::black_box`]
/// so the optimizer cannot elide the work.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn sample<T>(warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> Vec<u128> {
    assert!(iters > 0, "need at least one timed iteration");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples_ns: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        samples_ns.push(start.elapsed().as_nanos());
    }
    samples_ns.sort_unstable();
    samples_ns
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of sorted samples.
///
/// # Panics
///
/// Panics if `sorted_ns` is empty.
pub fn percentile(sorted_ns: &[u128], q: f64) -> u128 {
    let idx = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx]
}

/// One timed row of the matrix.
#[derive(Debug, Clone)]
struct Row {
    /// `{assay}/{machine}/{path}`, e.g. `enzyme10/paper/cold`.
    key: String,
    /// The outcome the row timed: the plan's `status` member on compile
    /// paths, the LP status on LP paths.
    status: String,
    /// Timed samples.
    iters: usize,
    /// Median in nanoseconds.
    p50_ns: u128,
    /// 95th percentile in nanoseconds (nearest rank).
    p95_ns: u128,
    /// 99th percentile in nanoseconds (nearest rank).
    p99_ns: u128,
}

/// One named check: `ok` says whether `value` kept its `bound`.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Gate name, e.g. `warm_over_cold`.
    pub name: String,
    /// Measured value, rendered as JSON (a number or a boolean).
    pub value: String,
    /// The bound it is held to, rendered as JSON.
    pub bound: String,
    /// Whether the value kept the bound.
    pub ok: bool,
}

/// Everything one run of the `bench` binary measured: rows, ungated
/// figures and gates, printed as they arrive.
#[derive(Debug)]
pub struct Report {
    /// Smoke-test iteration counts (`--quick`); full-mode-only gates
    /// are reported as figures instead.
    pub quick: bool,
    /// Timed rows, in run order.
    rows: Vec<Row>,
    /// Derived numbers that gate nothing (`name`, value).
    figures: Vec<(String, f64)>,
    /// Named gates, in run order.
    gates: Vec<Gate>,
}

impl Report {
    /// An empty report for the given mode.
    pub fn new(quick: bool) -> Report {
        Report {
            quick,
            rows: Vec::new(),
            figures: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Adds (and prints) the row for `sorted_ns`, returning its median.
    pub fn row(&mut self, key: String, status: &str, sorted_ns: &[u128]) -> u128 {
        let row = Row {
            key,
            status: status.to_owned(),
            iters: sorted_ns.len(),
            p50_ns: percentile(sorted_ns, 0.50),
            p95_ns: percentile(sorted_ns, 0.95),
            p99_ns: percentile(sorted_ns, 0.99),
        };
        println!(
            "{:<36} {:<22} {:>7} iters  p50 {:>11}  p95 {:>11}",
            row.key,
            row.status,
            row.iters,
            fmt_ns(row.p50_ns),
            fmt_ns(row.p95_ns)
        );
        let p50 = row.p50_ns;
        self.rows.push(row);
        p50
    }

    /// Adds (and prints) a derived number that gates nothing.
    pub fn figure(&mut self, name: &str, value: f64) {
        println!("{name} = {}", num(value));
        self.figures.push((name.to_owned(), value));
    }

    fn gate(&mut self, name: &str, value: String, bound: String, ok: bool) {
        println!(
            "gate {name}: {value} (bound {bound}) {}",
            if ok { "ok" } else { "FAILED" }
        );
        self.gates.push(Gate {
            name: name.to_owned(),
            value,
            bound,
            ok,
        });
    }

    /// Gates `value >= bound`.
    pub fn at_least(&mut self, name: &str, value: f64, bound: f64) {
        self.gate(name, num(value), num(bound), value >= bound);
    }

    /// Gates `value <= bound`.
    pub fn at_most(&mut self, name: &str, value: f64, bound: f64) {
        self.gate(name, num(value), num(bound), value <= bound);
    }

    /// Gates a property that must hold.
    pub fn holds(&mut self, name: &str, value: bool) {
        self.gate(name, value.to_string(), "true".to_owned(), value);
    }

    /// [`Report::at_least`] in full mode; a [`Report::figure`] with
    /// `--quick`, whose smaller inputs cannot show the speedup.
    pub fn at_least_in_full(&mut self, name: &str, value: f64, bound: f64) {
        if self.quick {
            self.figure(name, value);
        } else {
            self.at_least(name, value, bound);
        }
    }

    /// The gates that failed.
    pub fn failed(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(|g| !g.ok)
    }

    /// Renders the `bench/v1` document. Hand-rolled: the offline build
    /// has no serde.
    pub fn to_json(&self, git_rev: &str, host_cpus: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"schema\": \"bench/v1\",");
        let mode = if self.quick { "quick" } else { "full" };
        let _ = writeln!(out, "  \"mode\": \"{mode}\",");
        let _ = writeln!(out, "  \"git_rev\": {},", quote(git_rev));
        let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"key\": {}, \"status\": {}, \"iters\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                quote(&r.key),
                quote(&r.status),
                r.iters,
                r.p50_ns,
                r.p95_ns,
                r.p99_ns
            );
            out.push_str(separator(i, self.rows.len()));
        }
        out.push_str("  ],\n  \"figures\": [\n");
        for (i, (name, value)) in self.figures.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"value\": {}}}",
                quote(name),
                num(*value)
            );
            out.push_str(separator(i, self.figures.len()));
        }
        out.push_str("  ],\n  \"gates\": [\n");
        for (i, g) in self.gates.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"value\": {}, \"bound\": {}, \"ok\": {}}}",
                quote(&g.name),
                g.value,
                g.bound,
                g.ok
            );
            out.push_str(separator(i, self.gates.len()));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn separator(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ",\n"
    } else {
        "\n"
    }
}

/// A JSON number: integers bare, two decimals from 1 up, six below.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.6}")
    }
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Parses `FLAG PATH` from argv. A flag without a path is a hard error
/// (exit 2): a typo must not silently drop a trace or fall back to the
/// committed output file.
pub fn path_arg(args: &[String], flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    match args.get(pos + 1) {
        Some(p) if !p.starts_with("--") => Some(p.clone()),
        _ => {
            eprintln!("error: {flag} requires a path");
            std::process::exit(2);
        }
    }
}

/// Builds a recording observability handle when `--obs` was given, or
/// the no-op handle otherwise. Returns the sink alongside so the caller
/// can export it with [`write_obs_trace`] at exit.
pub fn obs_from_args(args: &[String]) -> (aqua_obs::Obs, Option<(String, Arc<FleetSink>)>) {
    match path_arg(args, "--obs") {
        Some(path) => {
            let (obs, sink) = aqua_obs::Obs::recording();
            (obs, Some((path, sink)))
        }
        None => (aqua_obs::Obs::off(), None),
    }
}

/// Writes the Chrome trace-event JSON for a recorded run and prints the
/// compact text summary to stdout.
///
/// # Panics
///
/// Panics if the trace file cannot be written (benchmark binaries treat
/// that as fatal, like their `--out` writes).
pub fn write_obs_trace(path: &str, sink: &FleetSink) {
    let trace = aqua_obs::export::chrome_trace(sink);
    std::fs::write(path, &trace).expect("write obs trace");
    println!("\n{}", aqua_obs::export::text_summary(&sink.snapshot()));
    println!("wrote obs trace to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_collects_the_requested_iterations() {
        let mut runs = 0usize;
        let s = sample(2, 5, || runs += 1);
        assert_eq!(runs, 7, "2 warmup + 5 timed");
        assert_eq!(s.len(), 5);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u128> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.95), 95);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut r = Report::new(true);
        r.row("a/paper/cold".into(), "solved", &[1, 2, 3]);
        r.figure("ratio", 2.5);
        r.figure("rate", 0.000226);
        r.at_least("floor", 12.0, 10.0);
        r.at_most("ceiling", 12.0, 10.0);
        r.holds("equal", true);
        r.at_least_in_full("full_only", 1.0, 50.0);
        let json = r.to_json("abc \"rev\"", 2);
        assert!(json.contains("\"schema\": \"bench/v1\""));
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\\\"rev\\\""));
        assert!(json.contains("\"key\": \"a/paper/cold\", \"status\": \"solved\", \"iters\": 3"));
        assert!(json.contains("{\"name\": \"ratio\", \"value\": 2.50}"));
        assert!(json.contains("{\"name\": \"rate\", \"value\": 0.000226}"));
        assert!(json.contains("{\"name\": \"floor\", \"value\": 12, \"bound\": 10, \"ok\": true}"));
        assert!(json.contains("\"ceiling\", \"value\": 12, \"bound\": 10, \"ok\": false"));
        assert!(json.contains("\"equal\", \"value\": true, \"bound\": true, \"ok\": true"));
        assert!(json.contains("{\"name\": \"full_only\", \"value\": 1}"));
        assert_eq!(r.failed().count(), 1);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.50 us");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
