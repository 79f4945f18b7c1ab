//! The traced run: an aggregating `aqua_obs` sink passed in through the
//! program's existing hooks, and the per-layer metrics built from it and
//! from the benchmark's own timing of its calls into each layer.
//!
//! Layer metrics are means over the operations that reached the layer
//! (a volumes figure is per compile that ran the hierarchy, a session
//! figure per edit, `sched.ms` per batch). `<layer>.self_ms` is instead
//! averaged over every operation of the workload, so the self times add
//! up to the mean traced operation time and divide into layer shares.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use aqua_obs::{Obs, Sink};
use aqua_serve::{Served, Service};
use aqua_volume::Machine;

use crate::report::{metric, Metric};

/// Every per-layer metric, with its unit, in output order. A metric a
/// workload never reaches reads zero.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("lang.flat_ops", "count"),
    ("lower.ms", "ms"),
    ("lower.dag_nodes", "count"),
    ("canon.ms", "ms"),
    ("volumes.ms", "ms"),
    ("volumes.dagsolve_ms", "ms"),
    ("volumes.precheck_ms", "ms"),
    ("volumes.lp_ms", "ms"),
    ("volumes.rounds", "count"),
    ("volumes.cascades", "count"),
    ("volumes.replications", "count"),
    ("volumes.lp_fallbacks", "count"),
    ("volumes.lp_skipped_share", "ratio"),
    ("volumes.round.mixes_over_2pct", "count"),
    ("volumes.round.overdrawn_nodes", "count"),
    ("volumes.round.over_capacity_nodes", "count"),
    ("lp.ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.solves.sparse", "count"),
    ("lp.solves.dense", "count"),
    ("render.ms", "ms"),
    ("render.plan_kb", "KiB"),
    ("serve.wait_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.hit_share", "ratio"),
    ("serve.lookup_us", "us"),
    ("serve.failed", "count"),
    ("store.appends", "count"),
    ("store.append_kb", "KiB"),
    ("session.fast_share", "ratio"),
    ("session.full_recompiles", "count"),
    ("session.divergences", "count"),
    ("session.canon_hit_share", "ratio"),
    ("session.slice_nodes", "count"),
    ("session.replay_ms", "ms"),
    ("session.canon_ms", "ms"),
    ("session.solve_ms", "ms"),
    ("session.render_ms", "ms"),
    ("session.delta_kb", "KiB"),
    ("codegen.ms", "ms"),
    ("codegen.instrs", "count"),
    ("sched.ms", "ms"),
    ("sched.speedup", "ratio"),
    ("sched.spills", "count"),
    ("sched.util", "ratio"),
    ("sched.fallback_share", "ratio"),
    ("exec.run_ms", "ms"),
    ("exec.instructions", "count"),
    ("exec.faults", "count"),
    ("exec.recovered_share", "ratio"),
    ("exec.failures", "count"),
];

/// The layers self time is split into, in output order. `other` is
/// traced time no layer accounts for: in `exec`, starting and joining
/// the batch's thread pool and a thread idling while the other ends.
pub const LAYERS: &[&str] = &[
    "lang", "lower", "canon", "volumes", "lp", "render", "serve", "store", "session", "codegen",
    "sched", "exec", "other",
];

/// Totals of every span, counter and histogram seen so far.
#[derive(Clone, Default)]
pub struct Totals {
    spans: BTreeMap<&'static str, (u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, (u64, u64)>,
}

impl Totals {
    /// Total duration of spans named `name`, in ms.
    pub fn ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.1 as f64 / 1e6)
    }

    /// How many spans named `name` closed.
    pub fn spans(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `(observations, sum)` of the histogram `name`.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.hists.get(name).copied().unwrap_or((0, 0))
    }

    /// What happened after `earlier` was taken.
    pub fn since(&self, earlier: &Totals) -> Totals {
        fn diff<V: Copy>(
            now: &BTreeMap<&'static str, V>,
            then: &BTreeMap<&'static str, V>,
            sub: impl Fn(V, V) -> V,
            zero: V,
        ) -> BTreeMap<&'static str, V> {
            now.iter()
                .map(|(k, v)| (*k, sub(*v, then.get(k).copied().unwrap_or(zero))))
                .collect()
        }
        let pair = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        Totals {
            spans: diff(&self.spans, &earlier.spans, pair, (0, 0)),
            counters: diff(&self.counters, &earlier.counters, |a, b| a - b, 0),
            hists: diff(&self.hists, &earlier.hists, pair, (0, 0)),
        }
    }
}

/// A sink that keeps running totals instead of every event.
#[derive(Default)]
pub struct AggSink(Mutex<Totals>);

impl AggSink {
    pub fn snapshot(&self) -> Totals {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Sink for AggSink {
    fn span(&self, name: &'static str, _start_ns: u64, dur_ns: u64, _tid: u64) {
        let mut t = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let s = t.spans.entry(name).or_default();
        s.0 += 1;
        s.1 += dur_ns;
    }

    fn add(&self, name: &'static str, delta: u64) {
        *self
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters
            .entry(name)
            .or_default() += delta;
    }

    fn record(&self, name: &'static str, value: u64) {
        let mut t = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let h = t.hists.entry(name).or_default();
        h.0 += 1;
        h.1 += value;
    }
}

/// A recording handle and the sink behind it.
pub fn recording() -> (Obs, Arc<AggSink>) {
    let sink = Arc::new(AggSink::default());
    (Obs::with_sink(sink.clone()), sink)
}

/// Accumulates per-layer values over a traced operation list.
#[derive(Clone, Default)]
pub struct Layers {
    /// metric -> (sum, operations that reached the layer)
    means: BTreeMap<&'static str, (f64, f64)>,
    /// metric -> value set once for the whole list
    fixed: BTreeMap<&'static str, f64>,
    /// layer -> total self time (ms)
    self_ms: BTreeMap<&'static str, f64>,
    /// row -> (operations, layer -> self time (ms))
    rows: BTreeMap<String, (u64, BTreeMap<&'static str, f64>)>,
    /// the row [`Layers::charge`] books to
    current: String,
    /// operations in the list
    ops: u64,
}

impl Layers {
    /// Starts `ops` operations on `row`; self time charged until the
    /// next call is booked to that row too.
    pub fn begin(&mut self, row: &str, ops: u64) {
        self.ops += ops;
        self.rows.entry(row.to_owned()).or_default().0 += ops;
        row.clone_into(&mut self.current);
    }

    /// Adds one operation's value of a per-operation mean.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let m = self.means.entry(name).or_default();
        m.0 += value;
        m.1 += 1.0;
    }

    /// Sets a metric computed over the whole list (shares, ratios).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.fixed.insert(name, value);
    }

    /// Charges `ms` of self time to `layer`.
    pub fn charge(&mut self, layer: &'static str, ms: f64) {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        *self.self_ms.entry(layer).or_default() += ms.max(0.0);
        if let Some((_, row)) = self.rows.get_mut(&self.current) {
            *row.entry(layer).or_default() += ms.max(0.0);
        }
    }

    /// Per-row self time of every layer that row reached, per operation:
    /// `{"row":{"n":ops,"lang":ms,...},...}`.
    pub fn rows_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(row, (n, layers))| {
                let per_op: String = layers
                    .iter()
                    .map(|(l, ms)| {
                        format!(",\"{l}\":{}", crate::report::num(ms / (*n).max(1) as f64))
                    })
                    .collect();
                format!("{}:{{\"n\":{n}{per_op}}}", aqua_serve::json::quote(row))
            })
            .collect();
        format!("{{{}}}", rows.join(","))
    }

    /// Share of the traced time spent in `layers`, or `None` if no time
    /// was traced.
    pub fn share(&self, layers: &[&str]) -> Option<f64> {
        let total: f64 = self.self_ms.values().sum();
        (total > 0.0).then(|| {
            layers
                .iter()
                .map(|l| self.self_ms.get(l).copied().unwrap_or(0.0))
                .sum::<f64>()
                / total
        })
    }

    /// Every per-layer metric and every layer's self time; metrics the
    /// list never reached read zero.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = self.fixed.get(name).copied().unwrap_or_else(|| {
                    self.means
                        .get(name)
                        .map_or(0.0, |&(sum, n)| if n > 0.0 { sum / n } else { 0.0 })
                });
                metric(name, value, unit)
            })
            .collect();
        let ops = self.ops.max(1) as f64;
        for layer in LAYERS {
            out.push(Metric {
                name: format!("{layer}.self_ms"),
                value: self.self_ms.get(layer).copied().unwrap_or(0.0) / ops,
                unit: "ms",
            });
        }
        out
    }
}

/// Books one operation's plan compile, from its probe deltas, to the
/// volumes, LP and render layers. Returns the whole compile time (the
/// `serve.plan.compile` span; 0 when the operation compiled nothing).
pub fn charge_compile(layers: &mut Layers, d: &Totals) -> f64 {
    let compile_ms = d.ms("serve.plan.compile");
    let manage_ms = d.ms("vol.manage");
    let lp_ms = d.ms("lp.solve");
    if d.spans("vol.manage") > 0 {
        layers.add("volumes.ms", manage_ms);
        layers.add("volumes.dagsolve_ms", d.ms("vol.dagsolve"));
        layers.add("volumes.precheck_ms", d.ms("vol.precheck"));
        layers.add("volumes.lp_ms", d.ms("vol.lp") - d.ms("vol.precheck"));
        layers.add("volumes.rounds", d.spans("vol.dagsolve") as f64);
        layers.add("volumes.cascades", d.counter("vol.cascade_rewrites") as f64);
        layers.add(
            "volumes.replications",
            d.counter("vol.replicate_rewrites") as f64,
        );
        layers.add("volumes.lp_fallbacks", d.counter("vol.lp_fallbacks") as f64);
        layers.add("lp.ms", lp_ms);
        layers.add("lp.pivots", d.counter("lp.pivots") as f64);
        layers.add(
            "lp.solves.sparse",
            d.counter("lp.backend_chosen.sparse") as f64,
        );
        layers.add(
            "lp.solves.dense",
            d.counter("lp.backend_chosen.dense") as f64,
        );
    }
    layers.charge("volumes", manage_ms - lp_ms);
    layers.charge("lp", lp_ms);
    let render_ms = compile_ms - manage_ms;
    if d.spans("serve.plan.compile") > 0 {
        layers.add("render.ms", render_ms);
    }
    layers.charge("render", render_ms);
    compile_ms
}

/// A source request issued stage by stage: `aqua_lang::compile_to_flat`,
/// `aqua_compiler::lower_to_dag`, `aqua_serve::canonicalize`, then
/// `Service::submit_canon`.
pub struct Staged {
    flat_ops: usize,
    dag_nodes: usize,
    /// lang, lower, canon and submit times, ms.
    stage_ms: [f64; 4],
    pub served: Served,
}

impl Staged {
    pub fn submit(svc: &Service, src: &str, machine: &Machine) -> Result<Staged, String> {
        let t0 = Instant::now();
        let flat = aqua_lang::compile_to_flat(src).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let (dag, map) = aqua_compiler::lower_to_dag(&flat).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let canon = aqua_serve::canonicalize(&dag, &map.output_weights, machine)
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let served = svc
            .submit_canon(canon, machine.clone(), None)
            .map_err(|e| e.to_string())?;
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        Ok(Staged {
            flat_ops: flat.ops.len(),
            dag_nodes: dag.num_nodes(),
            stage_ms: [ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, Instant::now())],
            served,
        })
    }

    /// Books the front-end stages, and the compile (from its probe
    /// deltas `d`) if the submit ran one, to their layers; the rest of
    /// the submit is serve self time, which this returns.
    pub fn charge(&self, l: &mut Layers, d: &Totals) -> f64 {
        let [lang, lower, canon, submit] = self.stage_ms;
        l.add("lang.parse_ms", lang);
        l.add("lang.flat_ops", self.flat_ops as f64);
        l.add("lower.ms", lower);
        l.add("lower.dag_nodes", self.dag_nodes as f64);
        l.add("canon.ms", canon);
        l.charge("lang", lang);
        l.charge("lower", lower);
        l.charge("canon", canon);
        let serve_ms = submit - charge_compile(l, d);
        l.charge("serve", serve_ms);
        serve_ms
    }
}

/// Whole-list ratios of the volumes layer, from the list's probe totals.
pub fn set_volume_shares(layers: &mut Layers, total: &Totals) {
    let fallbacks = total.counter("vol.lp_fallbacks");
    if fallbacks > 0 {
        layers.set(
            "volumes.lp_skipped_share",
            total.counter("vol.precheck_infeasible") as f64 / fallbacks as f64,
        );
    }
}

/// A traced rerun: its tallies, its layer metrics, and the predicted
/// shares to check with the layers each prediction covers.
pub type Traced = (crate::Timed, Layers, Vec<(Prediction, Layers)>);

/// A predicted range for the share of traced time some layers take.
pub struct Prediction {
    pub what: &'static str,
    pub layers: &'static [&'static str],
    pub lo: f64,
    pub hi: f64,
}

/// Checks each prediction against `layers`; returns `(report, misses)`.
pub fn check_shares(predictions: &[(Prediction, Layers)]) -> (String, u64) {
    let mut misses = 0;
    let mut out = String::from("[");
    for (i, (p, layers)) in predictions.iter().enumerate() {
        let got = layers.share(p.layers).unwrap_or(0.0);
        let ok = (p.lo..=p.hi).contains(&got);
        if !ok {
            misses += 1;
            eprintln!(
                "perfbench: predicted share missed: {} = {got:.3}, predicted {}..{}",
                p.what, p.lo, p.hi
            );
        }
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"what\":{},\"share\":{},\"lo\":{},\"hi\":{},\"ok\":{ok}}}",
            aqua_serve::json::quote(p.what),
            crate::report::num(got),
            p.lo,
            p.hi
        ));
    }
    out.push(']');
    (out, misses)
}
