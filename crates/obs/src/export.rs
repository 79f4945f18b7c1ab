//! Exporters for a [`FleetSink`]: Chrome trace-event JSON from its
//! span ring, and a compact text summary of a [`FleetSnapshot`].
//!
//! The Chrome format is the Trace Event Format consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array of complete (`"ph": "X"`) events with
//! microsecond timestamps, plus one counter (`"ph": "C"`) event per
//! recorded counter so operation totals ride along in the same file.
//! Output is deterministic for a deterministic recording: events are
//! sorted by (start, thread, name), thread ids are renumbered densely
//! from 1 in order of first appearance, and numbers are formatted with
//! a fixed precision.

use std::fmt::Write as _;

use crate::fleet::{FleetSink, FleetSnapshot};

/// Renders the sink's span ring and counters as Chrome trace-event
/// JSON. Span events the full ring turned away are reported as one
/// more counter, `obs.spans_dropped`, present only when nonzero.
///
/// # Examples
///
/// ```
/// use aqua_obs::fleet::FleetSink;
/// use aqua_obs::{export, FakeClock, Obs};
/// use std::sync::Arc;
///
/// let sink = Arc::new(FleetSink::new());
/// let obs = Obs::with_sink_and_clock(sink.clone(), Arc::new(FakeClock::new(1_000)));
/// obs.span("lp.solve").end();
/// let json = export::chrome_trace(&sink);
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"lp.solve\""));
/// ```
pub fn chrome_trace(sink: &FleetSink) -> String {
    let (spans, dropped) = sink.span_events();
    let mut counters: Vec<(&str, u64)> = sink.snapshot().counters.into_iter().collect();
    if dropped > 0 {
        counters.push(("obs.spans_dropped", dropped));
    }

    let mut out = String::with_capacity(256 + spans.len() * 96 + counters.len() * 96);
    out.push_str("{\"traceEvents\": [");
    let mut first = true;
    let mut last_end_us = 0.0f64;
    // Recording threads, in order of first appearance: dense id - 1.
    let mut threads: Vec<u64> = Vec::new();
    for s in &spans {
        if !first {
            out.push(',');
        }
        first = false;
        let tid = match threads.iter().position(|&t| t == s.tid) {
            Some(i) => i + 1,
            None => {
                threads.push(s.tid);
                threads.len()
            }
        };
        let ts = ns_to_us(s.start_ns);
        let dur = ns_to_us(s.dur_ns);
        last_end_us = last_end_us.max(ts + dur);
        out.push_str(&format!(
            "\n  {{\"name\": {}, \"cat\": \"aqua\", \"ph\": \"X\", \
             \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
            quote(s.name),
            fmt_us(ts),
            fmt_us(dur),
            tid
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

/// Renders a snapshot as a compact human-readable summary: one line
/// per span name (count, total time), then counters, then histograms
/// (count, mean, p50, p99, max in the histogram's own unit).
pub fn text_summary(snap: &FleetSnapshot) -> String {
    let mut out = String::new();
    if !snap.spans.is_empty() {
        out.push_str("phases:\n");
        for (name, s) in &snap.spans {
            let _ = writeln!(out, "  {name:<28} x{:<6} {}", s.count, fmt_ns(s.total_ns));
        }
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
    }
    if !snap.hists.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snap.hists {
            let _ = writeln!(
                out,
                "  {name:<28} n={} mean={} p50={} p99={} max={}",
                h.count(),
                h.mean(),
                h.quantile_permille(500),
                h.quantile_permille(990),
                h.max()
            );
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
    push_quoted(&mut out, s);
    out
}

/// Appends `s` to `out` as the JSON string literal [`quote`] renders,
/// with no temporary: unescaped runs are copied whole. Every byte that
/// needs an escape is ASCII, so it never splits a UTF-8 sequence.
pub fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::SPAN_RING;
    use crate::{FakeClock, Obs, Sink};
    use std::sync::Arc;

    #[test]
    fn empty_sink_exports_an_empty_but_valid_trace() {
        let sink = FleetSink::new();
        let json = chrome_trace(&sink);
        assert_eq!(
            json,
            "{\"traceEvents\": [\n], \"displayTimeUnit\": \"ms\"}\n"
        );
        assert_eq!(
            text_summary(&sink.snapshot()),
            "(no observability data recorded)\n"
        );
    }

    #[test]
    fn summary_aggregates_spans_by_name() {
        let sink = Arc::new(FleetSink::new());
        let obs = Obs::with_sink_and_clock(sink.clone(), Arc::new(FakeClock::new(10)));
        obs.span("a").end();
        obs.span("a").end();
        obs.span("b").end();
        obs.record("h", 7);
        assert_eq!(
            text_summary(&sink.snapshot()),
            "phases:\n  a                            x2      20 ns\n  \
             b                            x1      10 ns\nhistograms:\n  \
             h                            n=1 mean=7 p50=7 p99=7 max=7\n"
        );
    }

    #[test]
    fn threads_are_numbered_densely_in_order_of_first_appearance() {
        let sink = Arc::new(FleetSink::new());
        let obs = Obs::with_sink_and_clock(sink.clone(), Arc::new(FakeClock::new(1_000)));
        obs.span("main").end(); // 0..1 us on this thread
        let worker = obs.clone();
        std::thread::spawn(move || worker.span("worker").end()) // 2..3 us
            .join()
            .unwrap();
        obs.span("main").end(); // 4..5 us
        let json = chrome_trace(&sink);
        let tids: Vec<&str> = json.matches("\"tid\": 2").collect();
        assert_eq!(tids.len(), 1, "{json}");
        assert!(json.contains("\"name\": \"worker\", \"cat\": \"aqua\", \"ph\": \"X\", \"ts\": 2.000, \"dur\": 1.000, \"pid\": 1, \"tid\": 2}"));
    }

    #[test]
    fn a_full_ring_counts_what_it_turns_away() {
        let sink = FleetSink::new();
        for i in 0..SPAN_RING as u64 + 3 {
            sink.span("s", i, 1, 1);
        }
        let (events, dropped) = sink.span_events();
        assert_eq!((events.len(), dropped), (SPAN_RING, 3));
        assert_eq!(sink.snapshot().spans["s"].count, SPAN_RING as u64 + 3);
        assert!(chrome_trace(&sink).contains("{\"name\": \"obs.spans_dropped\", \"cat\": \"aqua\", \"ph\": \"C\", \"ts\": 65.536, \"pid\": 1, \"tid\": 1, \"args\": {\"value\": 3}}"));
        sink.reset();
        assert_eq!(sink.span_events().1, 0);
        assert!(sink.span_events().0.is_empty());
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
            let mut appended = String::from("[");
            push_quoted(&mut appended, input);
            assert_eq!(appended, format!("[{expect}"), "input {input:?}");
        }
    }
}
