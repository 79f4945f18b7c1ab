//! `cold`: front-door misses.
//!
//! One closed-loop client sends compile requests through
//! `Service::handle_line` to a service whose plan store is on, in a
//! fresh directory. Rows are taken round-robin; each request is a
//! distinct variant of its row, so none may hit the cache. Volume
//! management dominates the enzyme rows; the front end and the batcher
//! handoff dominate the small ones. Sessions, warm lookups and the
//! simulator do no work here.
//!
//! Each response is read as it arrives and dropped: the run keeps only
//! a digest per request and the few plans its warm = cold check
//! resubmits, so its memory is the service's own.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use aqua_obs::Obs;
use aqua_serve::{Service, ServiceConfig, StoreConfig};

use crate::inputs::{self, Row, Variant, FRONT_DOOR_ROWS};
use crate::plans::{self, PlanInfo};
use crate::refspeed::RefSpeed;
use crate::report::{gmean, metric, Cell};
use crate::trace::{self, Layers, Prediction, Staged};
use crate::{timed, Args, Outcome, SetupReps, Timed};

/// Requests per row per second of `--seconds` (the enzyme rows cost
/// 20-130 ms, so a row round takes about a quarter second), up to the
/// whole enzyme variant space: from 30 s on, every run compiles the
/// same variants in its own seeded order.
const PER_ROW_PER_SECOND: u64 = 4;

/// Requests resubmitted after the timed phase to check warm = cold,
/// drawn from the last `WARM_WINDOW` (older plans may have left the LRU).
const WARM_SAMPLE: usize = 8;
const WARM_WINDOW: usize = 64;

struct Request {
    row: usize,
    src: String,
    line: String,
}

fn src_line(id: usize, src: &str, row: Row) -> String {
    format!(
        "{{\"id\":{id},\"src\":{}{}}}",
        aqua_serve::json::quote(src),
        row.chip.wire()
    )
}

/// The seeded request list: `per_row` distinct variants of every row,
/// interleaved round-robin.
fn requests(seed: u64, per_row: usize) -> Vec<Request> {
    let mut variants: Vec<_> = FRONT_DOOR_ROWS
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Variant::draw_distinct(r.assay, per_row, &mut inputs::rng(seed, 0xC01D + i as u64))
                .into_iter()
        })
        .collect();
    let mut out = Vec::with_capacity(per_row * FRONT_DOOR_ROWS.len());
    for _ in 0..per_row {
        for (i, (r, drawn)) in FRONT_DOOR_ROWS.iter().zip(&mut variants).enumerate() {
            let src = drawn
                .next()
                .expect("per_row variants drawn")
                .source(r.assay);
            let line = src_line(out.len() + 1, &src, *r);
            out.push(Request { row: i, src, line });
        }
    }
    out
}

/// The `"plan"` member of a response line.
pub fn plan_of(line: &str) -> Option<&str> {
    let at = line.find(",\"plan\":")?;
    line.get(at + 8..line.len() - 1)
}

/// The plan of an `"ok":true` response line.
fn ok_plan(line: &str) -> Option<&str> {
    plan_of(line).filter(|_| line.contains("\"ok\":true"))
}

/// Cache hits so far, from the service's own counters.
pub fn cache_hits(svc: &Service) -> u64 {
    let v = aqua_serve::json::parse(&svc.stats_json()).expect("stats are JSON");
    v.get("hits").and_then(|x| x.as_u64()).unwrap_or(0)
}

fn store_dir(tag: &str) -> PathBuf {
    PathBuf::from(format!(
        ".bench_build/perfbench/cold-store-{}-{tag}",
        std::process::id()
    ))
}

/// A fresh service with its store in a fresh directory, warmed with
/// one compile of each unperturbed row (their keys never recur).
///
/// Auto-compaction is off: the store compacts whenever it holds more
/// than `compact_segments` segments, and a live set larger than that
/// many segments (this list stores 100+ MiB of distinct plans) makes
/// every append rewrite the whole store, hundreds of ms per request.
fn setup(dir: &PathBuf, obs: Obs) -> (Service, Vec<String>) {
    let _ = std::fs::remove_dir_all(dir);
    let svc = Service::try_new(ServiceConfig {
        store: Some(StoreConfig {
            compact_segments: 0,
            ..StoreConfig::at(dir)
        }),
        obs,
        ..ServiceConfig::default()
    })
    .expect("service starts with a fresh store");
    let warm = FRONT_DOOR_ROWS
        .iter()
        .enumerate()
        .map(|(i, r)| svc.handle_line(&src_line(i, &r.source(), *r)))
        .collect();
    (svc, warm)
}

pub fn run(args: &Args) -> Outcome {
    let per_row = ((PER_ROW_PER_SECOND * args.seconds) as usize).min(inputs::ENZYME_VARIANTS);
    let list = requests(args.seed, per_row);
    let mut errors = Vec::new();

    // Warm = cold on a seeded sample: which requests to resubmit is
    // fixed before the run, so only their plans are kept.
    let mut rng = inputs::rng(args.seed, 0x3A3A);
    let window = WARM_WINDOW.min(list.len());
    let mut sample: BTreeMap<usize, String> = (0..WARM_SAMPLE.min(window))
        .map(|_| (list.len() - window + rng.index(window), String::new()))
        .collect();

    let mut dirs = Vec::new();
    let mut fresh = |tag: String| {
        let dir = store_dir(&tag);
        dirs.push(dir.clone());
        setup(&dir, Obs::off())
    };
    let ((svc, warm), first_setup_s) = timed(|| fresh("run".into()));
    for (r, line) in FRONT_DOOR_ROWS.iter().zip(&warm) {
        check_status(&mut errors, *r, line);
    }
    let hits0 = cache_hits(&svc);
    let mut reps = SetupReps::new(list.len());
    let mut speed = RefSpeed::new();
    let mut tally = Tally::new(list.len());
    for (i, req) in list.iter().enumerate() {
        reps.before(i, |rep| fresh(rep.to_string()));
        // Once a round (a quarter second), before its costliest row,
        // whose 100 ms compile masks the cache the kernel displaced.
        if req.row == FRONT_DOOR_ROWS.len() - 1 {
            speed.sample();
        }
        let t = Instant::now();
        let resp = svc.handle_line(&req.line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let plan = ok_plan(&resp);
        tally.request(req.row, ms, plan, &mut errors);
        if let (Some(kept), Some(plan)) = (sample.get_mut(&i), plan) {
            plan.clone_into(kept);
        }
    }
    let hits1 = cache_hits(&svc);
    if hits1 != hits0 {
        errors.push(format!(
            "cold: {} cache hit(s) among distinct requests",
            hits1 - hits0
        ));
    }
    // Resubmissions hit and return the bytes the cold compile returned.
    for (&i, cold) in &sample {
        let h0 = cache_hits(&svc);
        let warm = svc.handle_line(&list[i].line);
        let h1 = cache_hits(&svc);
        if h1 != h0 + 1 || ok_plan(&warm) != Some(cold.as_str()) {
            errors.push(format!(
                "cold: warm resubmission of request {i} differs or missed"
            ));
        }
    }
    drop(svc);
    crate::check_status_table(&mut errors, &FRONT_DOOR_ROWS);

    let untraced_fnv = tally.plan_fnv.clone();
    let timed = tally.finish();
    let traced = args.trace.then(|| {
        let dir = store_dir("traced");
        dirs.push(dir.clone());
        traced_run(&list, &dir, &untraced_fnv, &mut errors)
    });
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    Outcome {
        errors,
        first_setup_s,
        setup_s: reps.secs,
        speed,
        timed,
        traced,
    }
}

/// Checks a response for an unperturbed row against the status table.
pub fn check_status(errors: &mut Vec<String>, r: Row, line: &str) {
    crate::check_plan_status(errors, r, ok_plan(line));
}

/// Tallies of one pass over the list, taken one response at a time.
struct Tally {
    cells: Vec<Cell>,
    t: Timed,
    digest: u64,
    /// FNV of each request's plan, 0 for a failed request.
    plan_fnv: Vec<u64>,
}

impl Tally {
    fn new(requests: usize) -> Tally {
        Tally {
            cells: FRONT_DOOR_ROWS
                .iter()
                .map(|r| Cell::new(r.name(), "compile"))
                .collect(),
            t: Timed::default(),
            digest: 0xcbf2_9ce4_8422_2325,
            plan_fnv: Vec::with_capacity(requests),
        }
    }

    /// Takes one request's latency and returned plan (`None` if it
    /// failed); returns what the plan says.
    fn request(
        &mut self,
        row: usize,
        ms: f64,
        plan: Option<&str>,
        errors: &mut Vec<String>,
    ) -> Option<PlanInfo> {
        let r = FRONT_DOOR_ROWS[row];
        let cell = &mut self.cells[row];
        self.t.attempted += 1;
        self.t.busy_s += ms / 1e3;
        cell.lat_ms.push(ms);
        let read = plan.map(|p| (p, plans::read(p, r.chip.machine().max_capacity_nl())));
        let Some((plan, Ok(info))) = read else {
            self.plan_fnv.push(0);
            self.t.failed += 1;
            *cell.statuses.entry("failed".into()).or_default() += 1;
            errors.push(format!("cold: request for {} failed", r.name()));
            return None;
        };
        let mut h = 0xcbf2_9ce4_8422_2325;
        fnv(&mut h, plan.as_bytes());
        self.plan_fnv.push(h);
        fnv(&mut self.digest, &h.to_le_bytes());
        self.t.planned += 1;
        self.t.usable += u64::from(info.usable());
        if let Some(q) = info.quality {
            self.t.ratio_err_max = self.t.ratio_err_max.max(q.max_err);
        }
        *cell.statuses.entry(info.status.clone()).or_default() += 1;
        Some(info)
    }

    fn finish(mut self) -> Timed {
        let t = &mut self.t;
        t.tmean_cells = (0..self.cells.len()).collect();
        t.p90_cells = (0..self.cells.len())
            .filter(|&i| FRONT_DOOR_ROWS[i].is_enzyme())
            .collect();
        let p50: Vec<f64> = self.cells.iter().map(Cell::p50).collect();
        let p90: Vec<f64> = t.p90_cells.iter().map(|&i| self.cells[i].p90()).collect();
        t.own = vec![
            metric("compile_p50_ms", gmean(&p50), "ms"),
            metric("compile_p90_ms", gmean(&p90), "ms"),
        ];
        for c in &self.cells {
            let statuses: Vec<String> =
                c.statuses.iter().map(|(s, n)| format!("{s}={n}")).collect();
            t.exact
                .push((format!("status:{}", c.row), statuses.join(";")));
        }
        t.exact
            .push(("solved_share".into(), format!("{}/{}", t.usable, t.planned)));
        t.exact
            .push(("ratio_err_max".into(), format!("{}", t.ratio_err_max)));
        t.exact
            .push(("plan_digest".into(), format!("{:016x}", self.digest)));
        self.t.cells = self.cells;
        self.t
    }
}

pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Reruns the list stage by stage against a traced service.
fn traced_run(
    list: &[Request],
    dir: &PathBuf,
    untraced_fnv: &[u64],
    errors: &mut Vec<String>,
) -> trace::Traced {
    let (obs, sink) = trace::recording();
    let (svc, _) = setup(dir, obs);
    let mut layers = Layers::default();
    let mut enzyme = Layers::default();
    let mut small = Layers::default();
    let mut tally = Tally::new(list.len());
    let base = sink.snapshot();
    for req in list {
        let row = FRONT_DOOR_ROWS[req.row];
        let machine = row.chip.machine();
        let before = sink.snapshot();
        let t0 = Instant::now();
        let staged = Staged::submit(&svc, &req.src, &machine);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let staged = match staged {
            Ok(x) => x,
            Err(e) => {
                tally.request(req.row, ms, None, errors);
                errors.push(format!("cold (traced): {} failed: {e}", row.name()));
                continue;
            }
        };
        let served = &staged.served;
        let info = tally.request(req.row, ms, Some(&served.plan), errors);
        let i = tally.plan_fnv.len() - 1;
        if tally.plan_fnv[i] != untraced_fnv[i] {
            errors.push(format!(
                "cold (traced): plan for {} differs from the untraced run",
                row.name()
            ));
        }
        let d = sink.snapshot().since(&before);
        let group = if row.is_enzyme() {
            &mut enzyme
        } else {
            &mut small
        };
        for l in [&mut layers, group] {
            l.begin(&row.name(), 1);
            let wait_ms = staged.charge(l, &d);
            l.add("serve.wait_ms", wait_ms);
            l.add("render.plan_kb", served.plan.len() as f64 / 1024.0);
            let appended = d.counter("serve.store.appends");
            l.add("store.appends", appended as f64);
            l.add(
                "store.append_kb",
                if appended > 0 {
                    served.plan.len() as f64 / 1024.0
                } else {
                    0.0
                },
            );
            if d.spans("vol.manage") > 0 {
                let q = info.as_ref().and_then(|i| i.quality).unwrap_or_default();
                l.add("volumes.round.mixes_over_2pct", q.over_2pct as f64);
                l.add("volumes.round.overdrawn_nodes", q.overdrawn as f64);
                l.add("volumes.round.over_capacity_nodes", q.over_capacity as f64);
            }
        }
    }
    let total = sink.snapshot().since(&base);
    trace::set_volume_shares(&mut layers, &total);
    let (batches, jobs) = total.hist("serve.batch.size");
    if batches > 0 {
        layers.set("serve.batch_size", jobs as f64 / batches as f64);
    }
    let hits = cache_hits(&svc);
    layers.set("serve.hit_share", hits as f64 / list.len().max(1) as f64);
    let t = tally.finish();
    layers.set("serve.failed", t.failed as f64);
    let predictions = vec![
        (
            Prediction {
                what: "cold: volumes+lp share of enzyme-row time",
                layers: &["volumes", "lp"],
                lo: 0.6,
                hi: 0.98,
            },
            enzyme,
        ),
        (
            Prediction {
                what: "cold: lang+lower+canon+serve share of small-row time",
                layers: &["lang", "lower", "canon", "serve"],
                lo: 0.5,
                hi: 1.0,
            },
            small,
        ),
    ];
    (t, layers, predictions)
}
