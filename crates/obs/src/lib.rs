//! Dependency-free observability: spans, counters, and histograms
//! behind a pluggable [`Sink`].
//!
//! Every solver and runtime crate in the workspace threads an [`Obs`]
//! handle through its configuration struct. The default handle is
//! *off*: it holds no sink, every instrumentation call reduces to one
//! branch on a `None`, and the guard types are zero-field wrappers —
//! an un-instrumented run pays nothing measurable. Turning recording
//! on is a caller-side decision (`Obs::recording()`), never a library
//! default, so benchmarks compare identical code paths.
//!
//! Three primitives cover the paper's measurement needs:
//!
//! * **spans** — wall-clock phases ([`Obs::span`] returns a guard that
//!   reports on drop; spans nest naturally across call frames);
//! * **counters** — monotonically accumulated operation counts
//!   ([`Obs::add`]): simplex pivots, eta refactors, B&B nodes, vnorm
//!   passes, recovery-ladder tiers;
//! * **histograms** — value distributions ([`Obs::record`]), e.g.
//!   per-instruction execution latency.
//!
//! Time comes from a pluggable [`Clock`] so exporter output can be made
//! bit-stable in tests ([`FakeClock`]); production uses a monotonic
//! [`std::time::Instant`] anchor.
//!
//! One sink records: [`FleetSink`] keeps lock-sharded aggregates
//! (counters, span totals, quantile histograms) plus a bounded ring of
//! span events. The [`export`] module renders its ring as Chrome
//! trace-event JSON (load it in `chrome://tracing` or Perfetto) and its
//! [`FleetSnapshot`](fleet::FleetSnapshot) as a compact text summary.
//!
//! # Examples
//!
//! ```
//! use aqua_obs::Obs;
//!
//! let (obs, sink) = Obs::recording();
//! {
//!     let _solve = obs.span("lp.solve");
//!     obs.add("lp.pivots", 42);
//! }
//! let snap = sink.snapshot();
//! assert_eq!(snap.counter("lp.pivots"), 42);
//! assert_eq!(snap.spans["lp.solve"].count, 1);
//!
//! // The default handle is off: nothing is recorded, nothing is kept.
//! let off = Obs::default();
//! assert!(!off.enabled());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod export;
pub mod fleet;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::fleet::FleetSink;

/// A source of monotonic nanosecond timestamps.
///
/// Implementations must be monotone non-decreasing per thread; the
/// absolute origin is arbitrary (exporters only use differences and
/// offsets from the earliest event).
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: a monotonic [`Instant`] anchored at creation.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock anchored at "now".
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of process uptime.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic test clock: every reading advances by a fixed step.
///
/// With `step_ns = 1000`, the first reading is 0, the next 1000, and so
/// on — so a span opened and closed with no intervening readings always
/// has duration 1000 ns, making exporter output byte-stable for golden
/// tests.
pub struct FakeClock {
    next: AtomicU64,
    step_ns: u64,
}

impl FakeClock {
    /// A clock starting at 0 that advances `step_ns` per reading.
    pub fn new(step_ns: u64) -> FakeClock {
        FakeClock {
            next: AtomicU64::new(0),
            step_ns,
        }
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.next.fetch_add(self.step_ns, Ordering::Relaxed)
    }
}

/// Receiver for instrumentation events.
///
/// Implementations must be cheap and thread-safe: solver hot loops call
/// [`Sink::add`] while holding no other locks, and the batch pool emits
/// spans from many worker threads at once.
pub trait Sink: Send + Sync {
    /// A completed span: `name` ran from `start_ns` for `dur_ns` on
    /// the thread whose process-wide sequence number is `tid` (1 for
    /// the first thread that recorded, 2 for the next, …).
    fn span(&self, name: &'static str, start_ns: u64, dur_ns: u64, tid: u64);
    /// Adds `delta` to the counter `name`.
    fn add(&self, name: &'static str, delta: u64);
    /// Records one observation of `value` in the histogram `name`.
    fn record(&self, name: &'static str, value: u64);
}

struct Inner {
    sink: Arc<dyn Sink>,
    clock: Arc<dyn Clock>,
}

/// The calling thread's process-wide sequence number: 1 for the first
/// thread that asks, 2 for the next, and so on. Read from a
/// thread-local, so span drops and [`FleetSink`] shard picks take no
/// process-wide lock.
pub(crate) fn thread_seq() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static SEQ: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    SEQ.with(|seq| *seq)
}

/// The instrumentation handle threaded through configuration structs.
///
/// Cloning is cheap (an `Option<Arc>`); the [`Default`] handle is off.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Obs(recording)"
        } else {
            "Obs(off)"
        })
    }
}

impl Obs {
    /// The no-op handle (same as [`Default`]): records nothing.
    pub fn off() -> Obs {
        Obs { inner: None }
    }

    /// A recording handle backed by a fresh [`FleetSink`] and the
    /// monotonic production clock. Returns the handle and the sink to
    /// read results from.
    pub fn recording() -> (Obs, Arc<FleetSink>) {
        let sink = Arc::new(FleetSink::new());
        (Obs::with_sink(sink.clone()), sink)
    }

    /// A recording handle with an explicit sink and the monotonic
    /// production clock.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Obs {
        Obs::with_sink_and_clock(sink, Arc::new(MonotonicClock::new()))
    }

    /// A recording handle with explicit sink *and* clock (tests pass a
    /// [`FakeClock`] here for deterministic trace output).
    pub fn with_sink_and_clock(sink: Arc<dyn Sink>, clock: Arc<dyn Clock>) -> Obs {
        Obs {
            inner: Some(Arc::new(Inner { sink, clock })),
        }
    }

    /// Whether instrumentation is live. Callers may branch on this to
    /// skip building expensive event payloads.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; it reports to the sink when the guard drops.
    /// On an off handle this returns an empty guard and does no work.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            state: self
                .inner
                .as_ref()
                .map(|inner| (inner.clone(), name, inner.clock.now_ns())),
        }
    }

    /// Adds `delta` to the counter `name` (no-op when off).
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.sink.add(name, delta);
        }
    }

    /// Records one histogram observation (no-op when off).
    #[inline]
    pub fn record(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.sink.record(name, value);
        }
    }
}

/// RAII guard for an open span; reports on drop. Obtain via
/// [`Obs::span`]. Guards may nest freely (each captures its own start
/// time) and may be moved across function boundaries.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    state: Option<(Arc<Inner>, &'static str, u64)>,
}

impl SpanGuard {
    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, name, start_ns)) = self.state.take() {
            let end_ns = inner.clock.now_ns();
            inner.sink.span(
                name,
                start_ns,
                end_ns.saturating_sub(start_ns),
                thread_seq(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Keeps every span event, in completion order.
    #[derive(Default)]
    struct Log(Mutex<Vec<(&'static str, u64, u64, u64)>>);

    impl Sink for Log {
        fn span(&self, name: &'static str, start_ns: u64, dur_ns: u64, tid: u64) {
            self.0.lock().unwrap().push((name, start_ns, dur_ns, tid));
        }
        fn add(&self, _: &'static str, _: u64) {}
        fn record(&self, _: &'static str, _: u64) {}
    }

    #[test]
    fn off_handle_records_nothing() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        // None of these can reach a sink; they must simply not panic.
        let guard = obs.span("lp.solve");
        obs.add("lp.pivots", 7);
        obs.record("sim.instr_ns", 1234);
        drop(guard);
    }

    #[test]
    fn no_op_default_leaves_a_fresh_sink_untouched() {
        // The no-op path and a live sink must be fully independent:
        // instrument through an off handle while a sink exists, and the
        // sink stays empty (nothing leaks through globals).
        let sink = Arc::new(FleetSink::new());
        let off = Obs::default();
        {
            let _s = off.span("vol.manage");
            off.add("lp.eta_refactors", 3);
            off.record("h", 9);
        }
        let snap = sink.snapshot();
        assert!(snap.counters.is_empty() && snap.spans.is_empty() && snap.hists.is_empty());
        assert_eq!(
            export::chrome_trace(&sink),
            export::chrome_trace(&FleetSink::new())
        );
    }

    #[test]
    fn spans_nest_and_report_in_completion_order() {
        let sink = Arc::new(Log::default());
        let obs = Obs::with_sink_and_clock(sink.clone(), Arc::new(FakeClock::new(100)));
        {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
            }
        }
        // Inner closes first. FakeClock(100): outer starts at 0, inner
        // at 100, inner ends at 200, outer at 300.
        let tid = thread_seq();
        assert_eq!(
            *sink.0.lock().unwrap(),
            [("inner", 100, 100, tid), ("outer", 0, 300, tid)]
        );
    }

    #[test]
    fn counters_accumulate_and_histograms_summarize() {
        let (obs, sink) = Obs::recording();
        obs.add("lp.pivots", 3);
        obs.add("lp.pivots", 4);
        obs.record("lat", 10);
        obs.record("lat", 30);
        let snap = sink.snapshot();
        assert_eq!(snap.counter("lp.pivots"), 7);
        assert_eq!(snap.hists.len(), 1);
        let h = snap.hist("lat").expect("recorded");
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max(), h.mean()),
            (2, 40, 10, 30, 20)
        );
    }

    #[test]
    fn thread_seqs_are_stable_per_thread_and_distinct_across_threads() {
        let here = thread_seq();
        assert_eq!(here, thread_seq());
        let there = std::thread::spawn(thread_seq).join().unwrap();
        assert_ne!(here, there);
    }
}
