//! Golden tests: the Chrome-trace exporter must emit byte-stable
//! output for a deterministic recording (fake clock, single thread),
//! and the no-op sink path must record nothing.

use std::sync::Arc;

use aqua_obs::export::{chrome_trace, text_summary};
use aqua_obs::fleet::FleetSink;
use aqua_obs::{FakeClock, Obs};

/// A fixed single-threaded recording: nested solve spans plus two
/// counters, driven by a 1 µs-step fake clock.
fn deterministic_recording() -> Arc<FleetSink> {
    let sink = Arc::new(FleetSink::new());
    let obs = Obs::with_sink_and_clock(sink.clone(), Arc::new(FakeClock::new(1_000)));
    {
        let _manage = obs.span("vol.manage"); // starts at 0 ns
        {
            let _dagsolve = obs.span("vol.dagsolve"); // starts at 1000 ns
        } // ends at 2000 ns
        {
            let _lp = obs.span("lp.solve"); // starts at 3000 ns
            obs.add("lp.pivots", 12);
        } // ends at 4000 ns
    } // ends at 5000 ns
    obs.add("lp.eta_refactors", 3);
    sink
}

#[test]
fn chrome_trace_is_byte_stable_under_a_fake_clock() {
    let golden = "\
{\"traceEvents\": [
  {\"name\": \"vol.manage\", \"cat\": \"aqua\", \"ph\": \"X\", \"ts\": 0.000, \"dur\": 5.000, \"pid\": 1, \"tid\": 1},
  {\"name\": \"vol.dagsolve\", \"cat\": \"aqua\", \"ph\": \"X\", \"ts\": 1.000, \"dur\": 1.000, \"pid\": 1, \"tid\": 1},
  {\"name\": \"lp.solve\", \"cat\": \"aqua\", \"ph\": \"X\", \"ts\": 3.000, \"dur\": 1.000, \"pid\": 1, \"tid\": 1},
  {\"name\": \"lp.eta_refactors\", \"cat\": \"aqua\", \"ph\": \"C\", \"ts\": 5.000, \"pid\": 1, \"tid\": 1, \"args\": {\"value\": 3}},
  {\"name\": \"lp.pivots\", \"cat\": \"aqua\", \"ph\": \"C\", \"ts\": 5.000, \"pid\": 1, \"tid\": 1, \"args\": {\"value\": 12}}
], \"displayTimeUnit\": \"ms\"}
";
    let sink = deterministic_recording();
    assert_eq!(chrome_trace(&sink), golden);
    // And it stays stable across repeated identical recordings.
    let again = deterministic_recording();
    assert_eq!(chrome_trace(&again), golden);
}

#[test]
fn no_op_sink_records_nothing() {
    let sink = Arc::new(FleetSink::new());
    // Drive a full instrumentation workload through an OFF handle while
    // the sink exists: nothing may reach it.
    let off = Obs::off();
    for _ in 0..100 {
        let _s = off.span("lp.solve");
        off.add("lp.pivots", 1);
        off.record("sim.instr_ns", 42);
    }
    assert_eq!(
        text_summary(&sink.snapshot()),
        "(no observability data recorded)\n"
    );
    assert_eq!(
        chrome_trace(&sink),
        "{\"traceEvents\": [\n], \"displayTimeUnit\": \"ms\"}\n"
    );
}
