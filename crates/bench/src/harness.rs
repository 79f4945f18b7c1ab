//! A dependency-free timing harness.
//!
//! `criterion` cannot be fetched in the offline build, so benchmark
//! binaries use this instead: a fixed number of warmup iterations
//! followed by `iters` timed iterations, reported as min / mean /
//! median / p95 wall times. Results can be serialized to a small
//! hand-rolled JSON file (`BENCH_lp.json` at the repo root) so the
//! performance trajectory is tracked across PRs.
//!
//! The JSON schema (`bench_lp/v1`) is documented in EXPERIMENTS.md; it
//! is flat on purpose so `jq`-free scripts can grep it.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use aqua_obs::export::quote;
use aqua_obs::fleet::FleetSink;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Case name, e.g. `enzyme10/sparse`.
    pub name: String,
    /// Timed iterations (after warmup).
    pub iters: usize,
    /// Minimum observed wall time in nanoseconds.
    pub min_ns: u128,
    /// Arithmetic mean in nanoseconds.
    pub mean_ns: u128,
    /// Median in nanoseconds.
    pub median_ns: u128,
    /// 95th percentile in nanoseconds (nearest-rank).
    pub p95_ns: u128,
}

impl Measurement {
    /// Median as seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }
}

/// Runs `warmup` untimed then `iters` timed iterations of `f`.
///
/// The closure's return value is passed through [`std::hint::black_box`]
/// so the optimizer cannot elide the work.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn time<T>(name: &str, warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> Measurement {
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
    let min_ns = samples_ns[0];
    let mean_ns = samples_ns.iter().sum::<u128>() / iters as u128;
    let median_ns = samples_ns[iters / 2];
    // Nearest-rank p95 (ceil(0.95 n) th order statistic, 1-based).
    let p95_idx = ((iters as f64 * 0.95).ceil() as usize).clamp(1, iters) - 1;
    let p95_ns = samples_ns[p95_idx];
    Measurement {
        name: name.to_owned(),
        iters,
        min_ns,
        mean_ns,
        median_ns,
        p95_ns,
    }
}

/// Prints a measurement in a fixed-width human-readable row.
pub fn report(m: &Measurement) {
    println!(
        "{:<28} {:>6} iters  min {:>12}  median {:>12}  p95 {:>12}",
        m.name,
        m.iters,
        fmt_ns(m.min_ns),
        fmt_ns(m.median_ns),
        fmt_ns(m.p95_ns)
    );
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

/// Appends the standard host-context extras every BENCH file carries:
/// `host_cpus` (hardware parallelism of the machine that produced the
/// numbers — wall-clock rows are incomparable across hosts without it)
/// and, when the benchmark itself ran worker threads, `*_threads`
/// entries naming each thread count used.
pub fn push_host_extras(extras: &mut Vec<(String, Extra)>, threads: &[(&str, usize)]) {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    extras.push(("host_cpus".into(), Extra::Num(host_cpus.to_string())));
    for &(name, n) in threads {
        extras.push((format!("{name}_threads"), Extra::Num(n.to_string())));
    }
}

/// A `name -> JSON value` pair for [`to_json`] extras.
#[derive(Debug, Clone)]
pub enum Extra {
    /// A JSON number (already rendered, e.g. `"2.5"`).
    Num(String),
    /// A JSON string (escaped by the serializer).
    Str(String),
    /// A JSON boolean.
    Bool(bool),
}

/// Renders measurements (+ scalar extras) as a `bench_lp/v1` JSON
/// document. Hand-rolled: the offline build has no serde.
pub fn to_json(schema: &str, measurements: &[Measurement], extras: &[(String, Extra)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", quote(schema));
    for (k, v) in extras {
        match v {
            Extra::Num(n) => {
                let _ = writeln!(out, "  {}: {},", quote(k), n);
            }
            Extra::Str(s) => {
                let _ = writeln!(out, "  {}: {},", quote(k), quote(s));
            }
            Extra::Bool(b) => {
                let _ = writeln!(out, "  {}: {},", quote(k), b);
            }
        }
    }
    out.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"iters\": {}, \"min_ns\": {}, \"mean_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}}}",
            quote(&m.name),
            m.iters,
            m.min_ns,
            m.mean_ns,
            m.median_ns,
            m.p95_ns
        );
        out.push_str(if i + 1 < measurements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses `--obs PATH` from argv. Like `--out`, a flag without a path
/// is a hard error (exit 2) — a typo must not silently drop the trace.
pub fn obs_path_from_args(args: &[String]) -> Option<String> {
    let pos = args.iter().position(|a| a == "--obs")?;
    match args.get(pos + 1) {
        Some(p) if !p.starts_with("--") => Some(p.clone()),
        _ => {
            eprintln!("error: --obs requires a path");
            std::process::exit(2);
        }
    }
}

/// Builds a recording observability handle when `--obs` was given, or
/// the no-op handle otherwise. Returns the sink alongside so the caller
/// can export it with [`write_obs_trace`] at exit.
pub fn obs_from_args(args: &[String]) -> (aqua_obs::Obs, Option<(String, Arc<FleetSink>)>) {
    match obs_path_from_args(args) {
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
    fn time_collects_the_requested_iterations() {
        let mut runs = 0usize;
        let m = time("noop", 2, 5, || runs += 1);
        assert_eq!(runs, 7, "2 warmup + 5 timed");
        assert_eq!(m.iters, 5);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.p95_ns);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let m = time("case", 0, 3, || 1 + 1);
        let json = to_json(
            "bench_lp/v1",
            &[m],
            &[
                ("quick".into(), Extra::Bool(true)),
                ("speedup".into(), Extra::Num("2.50".into())),
                ("note".into(), Extra::Str("a \"quoted\" note".into())),
            ],
        );
        assert!(json.contains("\"schema\": \"bench_lp/v1\""));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"speedup\": 2.50"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"name\": \"case\""));
        // Balanced braces/brackets.
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
