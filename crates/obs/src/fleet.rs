//! The workspace's one recording [`Sink`]: lock-sharded aggregates of
//! counters, span totals and mergeable log-bucketed histograms, plus a
//! bounded ring of span events for Chrome traces.
//!
//! [`FleetSink`] shards its state across independent mutexes, one per
//! thread sequence number modulo 16, so worker threads almost never
//! contend:
//!
//! * **counters** — summed per name;
//! * **spans** — collapsed to `(count, total_ns)` per name, and the
//!   first [`SPAN_RING`] span events kept whole for
//!   [`export::chrome_trace`](crate::export::chrome_trace); later
//!   events are counted as dropped, not stored;
//! * **histograms** — [`BucketHistogram`]: log-bucketed (8 sub-buckets
//!   per octave, ≤ 12.5 % relative bucket width), count/sum-exact, and
//!   **mergeable** — merging shard histograms is associative and
//!   commutative, so the rolled-up quantiles are independent of thread
//!   count and arrival order.
//!
//! [`FleetSink::snapshot`] merges the shards into a [`FleetSnapshot`]
//! whose [`to_json`](FleetSnapshot::to_json) rendering is byte-stable:
//! `BTreeMap` ordering, integers only, no floats, no timestamps. Two
//! snapshots of equal aggregate state render identical bytes — the
//! property the serve tier's `obs.snapshot` wire test pins.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::{thread_seq, Sink};

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power of two, so any
/// recorded value lands in a bucket whose width is at most 1/8 of the
/// value (12.5 % worst-case quantile error).
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Exact buckets 0..8, then 8 sub-buckets for each octave up to 2^63.
const BUCKETS: usize = SUBS * (65 - SUB_BITS as usize);

fn bucket_of(value: u64) -> usize {
    if value < SUBS as u64 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((value >> shift) & (SUBS as u64 - 1)) as usize;
        ((msb - SUB_BITS + 1) as usize) * SUBS + sub
    }
}

/// Largest value that lands in bucket `index` (quantiles report this
/// upper bound, so they never under-estimate).
fn bucket_upper(index: usize) -> u64 {
    if index < SUBS {
        index as u64
    } else {
        let octave = (index / SUBS - 1) as u32 + SUB_BITS;
        let sub = (index % SUBS) as u64;
        let shift = octave - SUB_BITS;
        (((1u64 << SUB_BITS) + sub) << shift) | ((1u64 << shift).wrapping_sub(1))
    }
}

/// A mergeable log-bucketed histogram.
///
/// `count`, `sum`, `min`, and `max` are exact; quantiles are read from
/// the log buckets with ≤ 12.5 % relative error (reported as the
/// bucket's upper bound, so they never under-estimate). Merging is
/// associative, commutative, and count/sum-exact.
#[derive(Clone)]
pub struct BucketHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for BucketHistogram {
    fn default() -> BucketHistogram {
        BucketHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for BucketHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl BucketHistogram {
    /// An empty histogram.
    pub fn new() -> BucketHistogram {
        BucketHistogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.counts[bucket_of(value)] += 1;
    }

    /// Folds `other` into `self`. Count- and sum-exact; associative and
    /// commutative, so shard merge order never changes the result.
    pub fn merge(&mut self, other: &BucketHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in per-mille (`500` = p50, `999` =
    /// p999), reported as the covering bucket's upper bound — but never
    /// beyond the exact observed `max`. Returns 0 when empty.
    pub fn quantile_permille(&self, q: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, ceiling — p999 of
        // 1000 observations is the 999th smallest.
        let rank = ((self.count as u128 * q as u128).div_ceil(1000) as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

/// Aggregated span statistics: how many times a span closed and the
/// total wall-clock it covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans under this name.
    pub count: u64,
    /// Summed duration across them, in ns (saturating).
    pub total_ns: u64,
}

/// One span event kept in the ring. Field order is the trace's sort
/// order: start, then thread, then name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SpanEvent {
    pub(crate) start_ns: u64,
    pub(crate) tid: u64,
    pub(crate) name: &'static str,
    pub(crate) dur_ns: u64,
}

#[derive(Default)]
struct Shard {
    counters: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, SpanStats>,
    hists: BTreeMap<&'static str, BucketHistogram>,
    /// This shard's part of the span ring.
    events: Vec<SpanEvent>,
    /// Span events this shard saw after the ring filled.
    dropped: u64,
}

impl Shard {
    fn merge_into(&self, snap: &mut FleetSnapshot) {
        for (&name, &v) in &self.counters {
            *snap.counters.entry(name).or_insert(0) += v;
        }
        for (&name, &s) in &self.spans {
            let slot = snap.spans.entry(name).or_default();
            slot.count += s.count;
            slot.total_ns = slot.total_ns.saturating_add(s.total_ns);
        }
        for (&name, h) in &self.hists {
            snap.hists.entry(name).or_default().merge(h);
        }
    }
}

/// Number of independently locked shards. Replay pools are capped well
/// below this, so each worker thread effectively owns a shard.
const SHARDS: usize = 16;

/// Span events the ring keeps per sink (about 2.5 MiB when full). It
/// holds every `--obs` run of the `bench` binary; the largest, a full
/// `bench --obs`, records about 52,600.
pub const SPAN_RING: usize = 1 << 16;

/// The lock-sharded [`Sink`]: aggregates for `obs.snapshot` and fleet
/// replay, and a bounded span ring for Chrome traces.
///
/// Each calling thread maps, by its sequence number, to one of 16
/// independently locked shards; [`FleetSink::snapshot`] merges them.
/// Because the histogram merge is order-invariant and counters are
/// sums, a snapshot taken after N runs is identical regardless of how
/// many threads executed them or in what order.
pub struct FleetSink {
    shards: [Mutex<Shard>; SHARDS],
    /// Ring slots claimed so far, across shards. `Relaxed` suffices:
    /// the count publishes no data, each event is written under its
    /// shard's lock.
    claimed: AtomicUsize,
}

impl Default for FleetSink {
    fn default() -> FleetSink {
        FleetSink {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            claimed: AtomicUsize::new(0),
        }
    }
}

impl FleetSink {
    /// An empty fleet aggregator.
    pub fn new() -> FleetSink {
        FleetSink::default()
    }

    fn shard(&self) -> &Mutex<Shard> {
        &self.shards[(thread_seq() % SHARDS as u64) as usize]
    }

    /// The ring's span events in trace order, and how many span events
    /// arrived after it filled.
    pub(crate) fn span_events(&self) -> (Vec<SpanEvent>, u64) {
        let mut events = Vec::new();
        let mut dropped = 0;
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            events.extend_from_slice(&shard.events);
            dropped += shard.dropped;
        }
        events.sort_unstable();
        (events, dropped)
    }

    /// Merges every shard into one deterministic snapshot. The live
    /// shards are left untouched; recording may continue concurrently
    /// (the snapshot then reflects some consistent-enough prefix).
    pub fn snapshot(&self) -> FleetSnapshot {
        let mut snap = FleetSnapshot::default();
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .merge_into(&mut snap);
        }
        snap
    }

    /// Clears every shard, the span ring included, back to empty.
    pub fn reset(&self) {
        for shard in &self.shards {
            *shard.lock().unwrap_or_else(PoisonError::into_inner) = Shard::default();
        }
        self.claimed.store(0, Ordering::Relaxed);
    }
}

impl Sink for FleetSink {
    fn span(&self, name: &'static str, start_ns: u64, dur_ns: u64, tid: u64) {
        let mut shard = self.shard().lock().unwrap_or_else(PoisonError::into_inner);
        let slot = shard.spans.entry(name).or_default();
        slot.count += 1;
        slot.total_ns = slot.total_ns.saturating_add(dur_ns);
        // Once the ring is full the load alone answers, so recording
        // threads stop writing the shared claim counter.
        if self.claimed.load(Ordering::Relaxed) < SPAN_RING
            && self.claimed.fetch_add(1, Ordering::Relaxed) < SPAN_RING
        {
            shard.events.push(SpanEvent {
                start_ns,
                tid,
                name,
                dur_ns,
            });
        } else {
            shard.dropped += 1;
        }
    }

    fn add(&self, name: &'static str, delta: u64) {
        *self
            .shard()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters
            .entry(name)
            .or_insert(0) += delta;
    }

    fn record(&self, name: &'static str, value: u64) {
        self.shard()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .hists
            .entry(name)
            .or_default()
            .observe(value);
    }
}

/// The merged roll-up of a [`FleetSink`]: every counter, span total,
/// and histogram across all shards, in deterministic (sorted) order.
#[derive(Default, Clone)]
pub struct FleetSnapshot {
    /// Counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Span totals by name.
    pub spans: BTreeMap<&'static str, SpanStats>,
    /// Merged histograms by name.
    pub hists: BTreeMap<&'static str, BucketHistogram>,
}

impl FleetSnapshot {
    /// One counter's value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// One histogram, if any observation was recorded under `name`.
    pub fn hist(&self, name: &str) -> Option<&BucketHistogram> {
        self.hists.get(name)
    }

    /// Renders the snapshot as deterministic, byte-stable JSON:
    /// sorted keys, integers only. Two snapshots with equal aggregate
    /// state produce identical bytes, so the serve tier's
    /// `obs.snapshot` endpoint can be compared byte-for-byte against a
    /// locally rendered roll-up.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"spans\":{");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"total_ns\":{}}}",
                s.count, s.total_ns
            ));
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile_permille(500),
                h.quantile_permille(990),
                h.quantile_permille(999),
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;
    use std::sync::Arc;

    #[test]
    fn buckets_tile_the_u64_line() {
        // Every value maps into range, and bucket_upper is consistent:
        // v <= bucket_upper(bucket_of(v)), and the upper bound is in
        // the same bucket.
        for v in (0..4096u64).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 12345]) {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "value {v} escaped to bucket {b}");
            assert!(v <= bucket_upper(b), "upper bound below member {v}");
            assert_eq!(bucket_of(bucket_upper(b)), b, "upper bound left its bucket");
        }
        // Small values are exact.
        for v in 0..SUBS as u64 {
            assert_eq!(bucket_upper(bucket_of(v)), v);
        }
    }

    #[test]
    fn quantiles_never_underestimate_and_stay_close() {
        let mut h = BucketHistogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.quantile_permille(500);
        let p999 = h.quantile_permille(999);
        assert!((500..=563).contains(&p50), "p50 = {p50}");
        assert!((999..=1000).contains(&p999), "p999 = {p999}");
        assert!(h.quantile_permille(1000) <= h.max());
    }

    #[test]
    fn merge_is_count_and_sum_exact() {
        let mut a = BucketHistogram::new();
        let mut b = BucketHistogram::new();
        let mut reference = BucketHistogram::new();
        for v in [3u64, 17, 99, 1_000_000] {
            a.observe(v);
            reference.observe(v);
        }
        for v in [0u64, 8, 250_000] {
            b.observe(v);
            reference.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), reference.count());
        assert_eq!(a.sum(), reference.sum());
        assert_eq!(a.min(), reference.min());
        assert_eq!(a.max(), reference.max());
        for q in [500, 990, 999] {
            assert_eq!(a.quantile_permille(q), reference.quantile_permille(q));
        }
    }

    #[test]
    fn fleet_sink_aggregates_and_snapshot_is_stable() {
        let sink = Arc::new(FleetSink::new());
        let obs = Obs::with_sink(sink.clone());
        obs.add("fleet.runs", 2);
        obs.add("fleet.runs", 3);
        obs.record("fleet.lat", 10);
        obs.record("fleet.lat", 20);
        {
            let _s = obs.span("fleet.pass");
        }
        let snap = sink.snapshot();
        assert_eq!(snap.counter("fleet.runs"), 5);
        let h = snap.hist("fleet.lat").expect("histogram recorded");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30);
        assert_eq!(snap.spans["fleet.pass"].count, 1);
        // Byte-stability: rendering twice is identical.
        assert_eq!(snap.to_json(), sink.snapshot().to_json());
        sink.reset();
        assert_eq!(
            sink.snapshot().to_json(),
            FleetSnapshot::default().to_json()
        );
    }

    #[test]
    fn snapshot_is_thread_count_invariant() {
        // The same 400 observations recorded from 1 thread and from 4
        // threads must roll up to byte-identical snapshots.
        let values: Vec<u64> = (0..400u64).map(|i| i * i % 10_007).collect();
        let single = Arc::new(FleetSink::new());
        for &v in &values {
            single.record("lat", v);
            single.add("n", 1);
        }
        let sharded = Arc::new(FleetSink::new());
        std::thread::scope(|s| {
            for chunk in values.chunks(100) {
                let sharded = sharded.clone();
                s.spawn(move || {
                    for &v in chunk {
                        sharded.record("lat", v);
                        sharded.add("n", 1);
                    }
                });
            }
        });
        assert_eq!(single.snapshot().to_json(), sharded.snapshot().to_json());
    }
}
