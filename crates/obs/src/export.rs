//! Exporters for a recorded [`MemorySink`]: Chrome trace-event JSON,
//! a compact text summary, and the aggregated [`ObsReport`].
//!
//! The Chrome format is the Trace Event Format consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array of complete (`"ph": "X"`) events with
//! microsecond timestamps, plus one counter (`"ph": "C"`) event per
//! recorded counter so operation totals ride along in the same file.
//! Output is deterministic for a deterministic recording: events are
//! sorted by (start, thread, name) and numbers are formatted with a
//! fixed precision.

use std::fmt::Write as _;

use crate::{HistogramSummary, MemorySink, SpanEvent};

/// Renders the sink as Chrome trace-event JSON.
///
/// # Examples
///
/// ```
/// use aqua_obs::{export, FakeClock, MemorySink, Obs};
/// use std::sync::Arc;
///
/// let sink = Arc::new(MemorySink::new());
/// let obs = Obs::with_sink_and_clock(sink.clone(), Arc::new(FakeClock::new(1_000)));
/// obs.span("lp.solve").end();
/// let json = export::chrome_trace(&sink);
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"lp.solve\""));
/// ```
pub fn chrome_trace(sink: &MemorySink) -> String {
    let mut spans = sink.spans();
    spans.sort_by(|a, b| (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name)));
    let counters = sink.counters();

    let mut out = String::with_capacity(256 + spans.len() * 96 + counters.len() * 96);
    out.push_str("{\"traceEvents\": [");
    let mut first = true;
    let mut last_end_us = 0.0f64;
    for s in &spans {
        if !first {
            out.push(',');
        }
        first = false;
        let ts = ns_to_us(s.start_ns);
        let dur = ns_to_us(s.dur_ns);
        last_end_us = last_end_us.max(ts + dur);
        out.push_str(&format!(
            "\n  {{\"name\": {}, \"cat\": \"aqua\", \"ph\": \"X\", \
             \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
            quote(s.name),
            fmt_us(ts),
            fmt_us(dur),
            s.tid
        ));
    }
    // Counters appear once, at the end of the timeline, as Chrome "C"
    // events so the totals are visible in the same trace.
    for (name, value) in &counters {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n  {{\"name\": {}, \"cat\": \"aqua\", \"ph\": \"C\", \
             \"ts\": {}, \"pid\": 1, \"tid\": 1, \"args\": {{\"value\": {}}}}}",
            quote(name),
            fmt_us(last_end_us),
            value
        ));
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Per-span-name aggregate used by [`ObsReport`] and the text summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total wall time across them, in ns.
    pub total_ns: u64,
}

/// Aggregated view of one recording: per-phase wall time, operation
/// counters, and histogram summaries — the structure the bench
/// binaries serialize into `BENCH_obs.json`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Per-phase aggregates, sorted by name.
    pub phases: Vec<PhaseSummary>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl ObsReport {
    /// Aggregates a sink into a report. An empty sink yields an empty
    /// report (no phantom entries).
    pub fn from_sink(sink: &MemorySink) -> ObsReport {
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for s in sink.spans() {
            let entry = by_name.entry(s.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.saturating_add(s.dur_ns);
        }
        ObsReport {
            phases: by_name
                .into_iter()
                .map(|(name, (count, total_ns))| PhaseSummary {
                    name: name.to_owned(),
                    count,
                    total_ns,
                })
                .collect(),
            counters: sink
                .counters()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            histograms: sink
                .histograms()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        }
    }

    /// Whether the report carries no data at all.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the report as one JSON object (no trailing newline),
    /// suitable for embedding as a value inside a larger document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"phases\": {");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"count\": {}, \"total_ns\": {}}}",
                quote(&p.name),
                p.count,
                p.total_ns
            ));
        }
        out.push_str("}, \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", quote(name), value));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}}}",
                quote(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Renders the sink as a compact human-readable summary: one line per
/// phase (count, total time), then counters, then histograms.
pub fn text_summary(sink: &MemorySink) -> String {
    let report = ObsReport::from_sink(sink);
    let mut out = String::new();
    if !report.phases.is_empty() {
        out.push_str("phases:\n");
        for p in &report.phases {
            out.push_str(&format!(
                "  {:<28} x{:<6} {}\n",
                p.name,
                p.count,
                fmt_ns(p.total_ns)
            ));
        }
    }
    if !report.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &report.counters {
            out.push_str(&format!("  {name:<28} {value}\n"));
        }
    }
    if !report.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &report.histograms {
            out.push_str(&format!(
                "  {:<28} n={} mean={} min={} max={}\n",
                name,
                h.count,
                fmt_ns(h.mean()),
                fmt_ns(h.min),
                fmt_ns(h.max)
            ));
        }
    }
    if out.is_empty() {
        out.push_str("(no observability data recorded)\n");
    }
    out
}

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Microseconds with fixed 3-decimal precision (ns resolution), so a
/// deterministic recording formats identically everywhere.
fn fmt_us(us: f64) -> String {
    format!("{us:.3}")
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Renders a string as a JSON string literal, quotes included: `"` and
/// `\` are backslash-escaped, `\n` `\r` `\t` use their short forms,
/// every other C0 control becomes `\u00XX`, and everything else
/// (DEL and non-ASCII included) is written as is. The one JSON string
/// writer of the workspace; `aqua-serve` re-exports it as
/// `aqua_serve::json::quote`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Exposed for the sorted-event invariant; see golden tests.
#[doc(hidden)]
pub fn sorted_spans(sink: &MemorySink) -> Vec<SpanEvent> {
    let mut spans = sink.spans();
    spans.sort_by(|a, b| (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name)));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FakeClock, Obs};
    use std::sync::Arc;

    #[test]
    fn empty_sink_exports_an_empty_but_valid_trace() {
        let sink = MemorySink::new();
        let json = chrome_trace(&sink);
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\": \"ms\"}"));
        assert!(ObsReport::from_sink(&sink).is_empty());
        assert_eq!(text_summary(&sink), "(no observability data recorded)\n");
    }

    #[test]
    fn report_aggregates_spans_by_name() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_sink_and_clock(sink.clone(), Arc::new(FakeClock::new(10)));
        obs.span("a").end();
        obs.span("a").end();
        obs.span("b").end();
        let report = ObsReport::from_sink(&sink);
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].name, "a");
        assert_eq!(report.phases[0].count, 2);
        assert_eq!(report.phases[0].total_ns, 20);
        assert_eq!(report.phases[1].name, "b");
        assert_eq!(report.phases[1].count, 1);
    }

    /// Each row: input, exact literal. Covers the two backslash
    /// escapes, the three short control forms, the `\u00XX` form at
    /// both ends of the C0 range, DEL (0x7f, not a JSON control), and
    /// multi-byte UTF-8 passed through untouched.
    #[test]
    fn quote_table() {
        let table: &[(&str, &str)] = &[
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("a\"b", r#""a\"b""#),
            ("back\\slash", r#""back\\slash""#),
            ("line\nfeed", r#""line\nfeed""#),
            ("carriage\rreturn", r#""carriage\rreturn""#),
            ("tab\there", r#""tab\there""#),
            ("\u{0}", r#""\u0000""#),
            ("\u{1}\u{8}\u{b}\u{c}", r#""\u0001\u0008\u000b\u000c""#),
            ("\u{1f}", r#""\u001f""#),
            (" ", r#"" ""#),
            ("\u{7f}", "\"\u{7f}\""),
            (
                "\u{e9}t\u{e9} \u{6f22}\u{5b57} \u{1f980}",
                "\"\u{e9}t\u{e9} \u{6f22}\u{5b57} \u{1f980}\"",
            ),
        ];
        for (input, expect) in table {
            assert_eq!(quote(input), *expect, "input {input:?}");
        }
    }
}
