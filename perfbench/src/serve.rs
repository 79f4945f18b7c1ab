//! `serve`: warm reads beside session edits.
//!
//! One closed-loop client against a memory-only service warmed with the
//! seven unperturbed front-door rows, with push-mode sessions on
//! glucose/paper, enzyme4/paper, enzyme10/paper and enzyme8/big. The
//! seeded mix is 40% `{"key":…}` lookups, 40% source resubmissions that
//! hit the cache and 20% `session.edit`s. Edit values come from a small
//! set, so some edits revisit earlier states. A warm source read spends
//! its time in lang, lower and canon; a key read in the cache and the
//! response copy; edits take the dirty-slice replay (glucose,
//! enzyme10/paper) or a full recompile (`"cause":"no_trace"`).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use aqua_dag::{Dag, NodeId, NodeKind};
use aqua_obs::Obs;
use aqua_serve::json::quote;
use aqua_serve::{Service, ServiceConfig};

use crate::cold::{cache_hits, fnv, plan_of};
use crate::inputs::{self, row, Assay, Chip, Row, FRONT_DOOR_ROWS};
use crate::plans::{self, PlanInfo};
use crate::refspeed::{self, RefSpeed};
use crate::report::{gmean, metric, Cell};
use crate::trace::{self, Layers, Prediction, Staged};
use crate::{timed, Args, Outcome, SetupReps, Timed};

/// Operations per second of `--seconds`.
const OPS_PER_SECOND: u64 = 160;

/// Edits per session checked against a cold compile of the edited assay.
const CHECKED_EDITS: usize = 4;

const SESSION_ROWS: [Row; 4] = [
    row(Assay::Glucose, Chip::Paper),
    row(Assay::Enzyme(4), Chip::Paper),
    row(Assay::Enzyme(10), Chip::Paper),
    row(Assay::Enzyme(8), Chip::Big),
];

/// Values an edit may set: the edited mix's second part, and the edited
/// output's weight.
const RATIO_PARTS: [u64; 3] = [1, 2, 3];
const WEIGHTS: [u64; 3] = [1, 2, 3];

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct EditState {
    part: u64,
    /// `None` until the first weight edit (the session's own default).
    weight: Option<u64>,
}

#[derive(Clone, Copy)]
enum Op {
    Key(usize),
    Src(usize),
    /// Session index and the state the edit moves it to.
    Edit(usize, EditState),
}

/// What an edit addresses in one session's assay.
struct Target {
    mix: String,
    inputs: [String; 2],
    output: String,
}

/// The first two-input mix with distinctly named inputs (the wire
/// addresses parts by name) and the first sink.
fn target(r: Row) -> Target {
    let (dag, _) = lowered(r);
    let mix = dag
        .node_ids()
        .find(|&n| {
            let ins = dag.in_edges(n);
            matches!(dag.node(n).kind, NodeKind::Mix { .. })
                && ins.len() == 2
                && dag.node(dag.edge(ins[0]).src).name != dag.node(dag.edge(ins[1]).src).name
        })
        .expect("assay has an editable mix");
    let name = |e: usize| dag.node(dag.edge(dag.in_edges(mix)[e]).src).name.clone();
    let output = dag
        .node_ids()
        .find(|&n| dag.out_edges(n).is_empty())
        .expect("assay has a sink");
    Target {
        mix: dag.node(mix).name.clone(),
        inputs: [name(0), name(1)],
        output: dag.node(output).name.clone(),
    }
}

fn lowered(r: Row) -> (Dag, HashMap<NodeId, u64>) {
    let flat = aqua_lang::compile_to_flat(&r.source()).expect("row parses");
    let (dag, map) = aqua_compiler::lower_to_dag(&flat).expect("row lowers");
    (dag, map.output_weights)
}

/// The seeded operation list and its revisit share: per block of ten,
/// four key lookups, four source resubmissions and two edits in seeded
/// order; rows and sessions are dealt from reshuffled decks so every
/// row gets the same number of each kind.
fn operations(seed: u64, n: usize) -> (Vec<Op>, f64) {
    let mut rng = inputs::rng(seed, 0x5E4E);
    let mut states: Vec<EditState> = vec![
        EditState {
            part: RATIO_PARTS[0],
            weight: None,
        };
        SESSION_ROWS.len()
    ];
    let mut seen: Vec<HashSet<EditState>> = states.iter().map(|s| HashSet::from([*s])).collect();
    let (mut revisits, mut edits) = (0u64, 0u64);
    let deal = |deck: &mut Vec<usize>, size: usize, rng: &mut _| {
        if deck.is_empty() {
            *deck = (0..size).collect();
            inputs::shuffle(deck, rng);
        }
        deck.pop().expect("deck refilled")
    };
    let (mut keys, mut srcs, mut sessions) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let mut block = [0u8, 0, 0, 0, 1, 1, 1, 1, 2, 2];
        inputs::shuffle(&mut block, &mut rng);
        for kind in block {
            ops.push(match kind {
                0 => Op::Key(deal(&mut keys, FRONT_DOOR_ROWS.len(), &mut rng)),
                1 => Op::Src(deal(&mut srcs, FRONT_DOOR_ROWS.len(), &mut rng)),
                _ => {
                    let s = deal(&mut sessions, SESSION_ROWS.len(), &mut rng);
                    let cur = states[s];
                    let next = if rng.index(2) == 0 {
                        let choices: Vec<u64> =
                            RATIO_PARTS.into_iter().filter(|&p| p != cur.part).collect();
                        EditState {
                            part: choices[rng.index(choices.len())],
                            ..cur
                        }
                    } else {
                        let choices: Vec<u64> = WEIGHTS
                            .into_iter()
                            .filter(|&w| Some(w) != cur.weight)
                            .collect();
                        EditState {
                            weight: Some(choices[rng.index(choices.len())]),
                            ..cur
                        }
                    };
                    edits += 1;
                    revisits += u64::from(!seen[s].insert(next));
                    states[s] = next;
                    Op::Edit(s, next)
                }
            });
        }
    }
    ops.truncate(n);
    (ops, revisits as f64 / edits.max(1) as f64)
}

/// Renders the edit that moves session `s` from `from` to `to`.
fn edit_line(id: usize, sid: &str, t: &Target, from: EditState, to: EditState) -> String {
    let edit = if to.part != from.part {
        format!(
            "{{\"set_ratio\":{{\"node\":{},\"parts\":[[{},1],[{},{}]]}}}}",
            quote(&t.mix),
            quote(&t.inputs[0]),
            quote(&t.inputs[1]),
            to.part
        )
    } else {
        format!(
            "{{\"set_output_volume\":{{\"node\":{},\"weight\":{}}}}}",
            quote(&t.output),
            to.weight.expect("weight edits set a weight")
        )
    };
    format!(
        "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":{},\"edit\":{edit}}}",
        quote(sid)
    )
}

/// The raw value of a response line's last member, `name`.
fn last_member<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let at = line.rfind(&format!(",\"{name}\":"))?;
    line.get(at + name.len() + 4..line.len() - 1)
}

fn str_member<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let marker = format!("\"{name}\":\"");
    let at = line.find(&marker)? + marker.len();
    line.get(at..at + line[at..].find('"')?)
}

struct Warm {
    key: String,
    line: String,
    plan: String,
    info: PlanInfo,
}

struct Session {
    id: String,
    plan: String,
    state: EditState,
}

struct State {
    svc: Service,
    warm: Vec<Warm>,
    sessions: Vec<Session>,
}

fn setup(obs: Obs, errors: Option<&mut Vec<String>>) -> State {
    let svc = Service::new(ServiceConfig {
        obs,
        ..ServiceConfig::default()
    });
    let mut found = Vec::new();
    let mut warm = Vec::new();
    for (i, r) in FRONT_DOOR_ROWS.iter().enumerate() {
        let line = format!(
            "{{\"id\":{i},\"src\":{}{}}}",
            quote(&r.source()),
            r.chip.wire()
        );
        let resp = svc.handle_line(&line);
        crate::cold::check_status(&mut found, *r, &resp);
        let plan = plan_of(&resp).unwrap_or_default().to_owned();
        let info = plans::read(&plan, r.chip.machine().max_capacity_nl()).unwrap_or(PlanInfo {
            status: "unreadable".into(),
            quality: None,
        });
        warm.push(Warm {
            key: str_member(&resp, "key").unwrap_or_default().to_owned(),
            line,
            plan,
            info,
        });
    }
    let mut sessions = Vec::new();
    for (i, r) in SESSION_ROWS.iter().enumerate() {
        let resp = svc.handle_line(&format!(
            "{{\"id\":{i},\"cmd\":\"session.register\",\"src\":{}{}}}",
            quote(&r.source()),
            r.chip.wire()
        ));
        if !resp.contains("\"ok\":true") {
            found.push(format!(
                "serve: session.register on {} failed: {resp:.200}",
                r.name()
            ));
        }
        sessions.push(Session {
            id: str_member(&resp, "session").unwrap_or_default().to_owned(),
            plan: plan_of(&resp).unwrap_or_default().to_owned(),
            state: EditState {
                part: RATIO_PARTS[0],
                weight: None,
            },
        });
    }
    if let Some(errors) = errors {
        errors.extend(found);
    }
    State {
        svc,
        warm,
        sessions,
    }
}

/// A cold compile of session `s`'s assay in `state`.
fn cold_plan(s: usize, t: &Target, state: EditState) -> String {
    let r = SESSION_ROWS[s];
    let (mut dag, mut weights) = lowered(r);
    let node = |dag: &Dag, name: &str| dag.find_node(name).expect("target resolves");
    let parts = [
        (node(&dag, &t.inputs[0]), 1),
        (node(&dag, &t.inputs[1]), state.part),
    ];
    let mix = node(&dag, &t.mix);
    aqua_dag::set_mix_ratio(&mut dag, mix, &parts).expect("ratio edit is valid");
    if let Some(w) = state.weight {
        weights.insert(node(&dag, &t.output), w);
    }
    let machine = r.chip.machine();
    let canon =
        aqua_serve::canonicalize(&dag, &weights, &machine).expect("edited DAG canonicalizes");
    aqua_serve::compile_plan(&canon, &machine, &Obs::off())
}

/// Per-run tallies shared by the untraced and traced passes.
struct Tally {
    cells: Vec<Cell>,
    t: Timed,
    fast: u64,
    edits: u64,
    causes: HashMap<String, u64>,
    digest: u64,
    quality: HashMap<(usize, EditState), PlanInfo>,
    checked: HashSet<(usize, EditState)>,
    to_check: HashSet<usize>,
}

impl Tally {
    fn new(ops: &[Op], seed: u64) -> Tally {
        let mut cells: Vec<Cell> = Vec::new();
        for r in FRONT_DOOR_ROWS {
            cells.push(Cell::new(r.name(), "warm_src"));
        }
        for r in FRONT_DOOR_ROWS {
            cells.push(Cell::new(r.name(), "warm_key"));
        }
        for r in SESSION_ROWS {
            cells.push(Cell::new(r.name(), "edit"));
        }
        let mut rng = inputs::rng(seed, 0xC4EC);
        let edits: Vec<usize> = (0..ops.len())
            .filter(|&i| matches!(ops[i], Op::Edit(..)))
            .collect();
        let to_check = (0..CHECKED_EDITS * SESSION_ROWS.len())
            .filter(|_| !edits.is_empty())
            .map(|_| edits[rng.index(edits.len())])
            .collect();
        Tally {
            cells,
            t: Timed::default(),
            fast: 0,
            edits: 0,
            causes: HashMap::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            quality: HashMap::new(),
            checked: HashSet::new(),
            to_check,
        }
    }

    fn served(&mut self, cell: usize, ms: f64, info: &PlanInfo) {
        self.t.attempted += 1;
        self.t.planned += 1;
        self.t.usable += u64::from(info.usable());
        if let Some(q) = info.quality {
            self.t.ratio_err_max = self.t.ratio_err_max.max(q.max_err);
        }
        let c = &mut self.cells[cell];
        c.lat_ms.push(ms);
        *c.statuses.entry(info.status.clone()).or_default() += 1;
    }

    fn failed(&mut self, cell: usize, ms: f64, errors: &mut Vec<String>, what: String) {
        self.t.attempted += 1;
        self.t.failed += 1;
        self.cells[cell].lat_ms.push(ms);
        *self.cells[cell]
            .statuses
            .entry("failed".into())
            .or_default() += 1;
        errors.push(what);
    }

    /// Takes one edit response: chains its delta onto the session plan
    /// and, for sampled edits, checks the result against a cold compile.
    #[allow(clippy::too_many_arguments)]
    fn edit(
        &mut self,
        index: usize,
        s: usize,
        next: EditState,
        ms: f64,
        resp: &str,
        session: &mut Session,
        targets: &[Target],
        errors: &mut Vec<String>,
    ) {
        let cell = 2 * FRONT_DOOR_ROWS.len() + s;
        let name = SESSION_ROWS[s].name();
        let chained = last_member(resp, "delta")
            .filter(|_| resp.contains("\"ok\":true"))
            .and_then(|d| aqua_serve::apply_delta(&session.plan, d));
        let Some(chained) = chained else {
            self.failed(
                cell,
                ms,
                errors,
                format!("serve: edit on {name} failed: {resp:.200}"),
            );
            return;
        };
        fnv(&mut self.digest, resp.as_bytes());
        self.edits += 1;
        if resp.contains("\"incremental\":true") {
            self.fast += 1;
        } else {
            let cause = str_member(resp, "cause").unwrap_or("none").to_owned();
            *self.causes.entry(cause).or_default() += 1;
        }
        session.plan = chained;
        session.state = next;
        if self.to_check.contains(&index) && self.checked.insert((s, next)) {
            let want = cold_plan(s, &targets[s], next);
            if want != session.plan {
                errors.push(format!(
                    "serve: delta-chained plan of {name} in {next:?} differs from a cold compile"
                ));
            }
        }
        let capacity = SESSION_ROWS[s].chip.machine().max_capacity_nl();
        let info = self
            .quality
            .entry((s, next))
            .or_insert_with(|| {
                plans::read(&session.plan, capacity).unwrap_or(PlanInfo {
                    status: "unreadable".into(),
                    quality: None,
                })
            })
            .clone();
        self.served(cell, ms, &info);
    }

    fn finish(mut self, busy_s: f64, revisit: f64, cache_hits: u64) -> Timed {
        let n = FRONT_DOOR_ROWS.len();
        let p50 = |range: std::ops::Range<usize>, cells: &[Cell]| {
            gmean(&range.map(|i| cells[i].p50()).collect::<Vec<_>>())
        };
        let edit_p90 = gmean(
            &(2 * n..2 * n + SESSION_ROWS.len())
                .map(|i| self.cells[i].p90())
                .collect::<Vec<_>>(),
        );
        let fast_share = self.fast as f64 / self.edits.max(1) as f64;
        self.t.own = vec![
            metric("warm_src_p50_us", p50(0..n, &self.cells) * 1e3, "us"),
            metric("warm_key_p50_us", p50(n..2 * n, &self.cells) * 1e3, "us"),
            metric(
                "edit_p50_ms",
                p50(2 * n..2 * n + SESSION_ROWS.len(), &self.cells),
                "ms",
            ),
            metric("edit_p90_ms", edit_p90, "ms"),
            metric("session_fast_share", fast_share, "ratio"),
            metric("edit_revisit_share", revisit, "ratio"),
            metric("cache_hits", cache_hits as f64, "count"),
        ];
        for c in &self.cells {
            let statuses: Vec<String> =
                c.statuses.iter().map(|(s, k)| format!("{s}={k}")).collect();
            self.t
                .exact
                .push((format!("status:{}:{}", c.class, c.row), statuses.join(";")));
        }
        let mut causes: Vec<String> = self
            .causes
            .iter()
            .map(|(c, k)| format!("{c}={k}"))
            .collect();
        causes.sort();
        self.t.exact.extend([
            (
                "solved_share".into(),
                format!("{}/{}", self.t.usable, self.t.planned),
            ),
            ("ratio_err_max".into(), format!("{}", self.t.ratio_err_max)),
            (
                "session.fast_share".into(),
                format!("{}/{}", self.fast, self.edits),
            ),
            ("edit_causes".into(), causes.join(";")),
            ("edit_digest".into(), format!("{:016x}", self.digest)),
        ]);
        self.t.busy_s = busy_s;
        self.t.tmean_cells = (0..self.cells.len()).collect();
        self.t.p90_cells = (2 * n..2 * n + SESSION_ROWS.len()).collect();
        self.t.cells = self.cells;
        self.t
    }
}

pub fn run(args: &Args) -> Outcome {
    let n = (OPS_PER_SECOND * args.seconds) as usize;
    let (ops, revisit) = operations(args.seed, n);
    let targets: Vec<Target> = SESSION_ROWS.iter().map(|r| target(*r)).collect();
    let mut errors = Vec::new();
    let (mut st, first_setup_s) = timed(|| setup(Obs::off(), Some(&mut errors)));
    let lines = render(&ops, &st, &targets);
    crate::check_status_table(&mut errors, &FRONT_DOOR_ROWS);

    let mut reps = SetupReps::new(ops.len());
    let mut speed = RefSpeed::new();
    let mut tally = Tally::new(&ops, args.seed);
    let mut busy_s = 0.0;
    for (i, (op, line)) in ops.iter().zip(&lines).enumerate() {
        reps.before(i, |_| setup(Obs::off(), None));
        if (i as u64).is_multiple_of(OPS_PER_SECOND / refspeed::PER_SECOND) {
            speed.sample();
        }
        let t0 = Instant::now();
        let resp = st.svc.handle_line(line);
        let dt = t0.elapsed().as_secs_f64();
        busy_s += dt;
        let ms = dt * 1e3;
        match *op {
            Op::Key(r) | Op::Src(r) => {
                let cell = if matches!(op, Op::Src(_)) {
                    r
                } else {
                    FRONT_DOOR_ROWS.len() + r
                };
                let w = &st.warm[r];
                if resp.contains("\"ok\":true") && plan_of(&resp) == Some(w.plan.as_str()) {
                    tally.served(cell, ms, &w.info);
                } else {
                    let what = format!(
                        "serve: warm read of {} failed or differs from its cold bytes",
                        FRONT_DOOR_ROWS[r].name()
                    );
                    tally.failed(cell, ms, &mut errors, what);
                }
            }
            Op::Edit(s, next) => tally.edit(
                i,
                s,
                next,
                ms,
                &resp,
                &mut st.sessions[s],
                &targets,
                &mut errors,
            ),
        }
    }
    let hits = cache_hits(&st.svc);
    let timed = tally.finish(busy_s, revisit, hits);
    let session_ids: Vec<String> = st.sessions.iter().map(|s| s.id.clone()).collect();
    drop(st);
    let traced = args.trace.then(|| {
        traced_run(
            &ops,
            &lines,
            &session_ids,
            revisit,
            &targets,
            args.seed,
            &mut errors,
        )
    });
    Outcome {
        errors,
        first_setup_s,
        setup_s: reps.secs,
        speed,
        timed,
        traced,
    }
}

/// The request line of every operation, against `st`'s keys and
/// session ids (a fresh setup yields the same ones).
fn render(ops: &[Op], st: &State, targets: &[Target]) -> Vec<String> {
    let mut states: Vec<EditState> = st.sessions.iter().map(|s| s.state).collect();
    ops.iter()
        .enumerate()
        .map(|(i, op)| match *op {
            Op::Key(r) => format!("{{\"id\":{i},\"key\":\"{}\"}}", st.warm[r].key),
            Op::Src(r) => st.warm[r].line.clone(),
            Op::Edit(s, next) => {
                let line = edit_line(i, &st.sessions[s].id, &targets[s], states[s], next);
                states[s] = next;
                line
            }
        })
        .collect()
}

/// Reruns the list against a traced service: source reads stage by
/// stage, key reads through `Service::submit_key`, edits on the wire.
fn traced_run(
    ops: &[Op],
    lines: &[String],
    session_ids: &[String],
    revisit: f64,
    targets: &[Target],
    seed: u64,
    errors: &mut Vec<String>,
) -> trace::Traced {
    let (obs, sink) = trace::recording();
    let mut st = setup(obs, Some(&mut *errors));
    if st.sessions.iter().map(|s| &s.id).ne(session_ids) {
        errors.push("serve (traced): a fresh service named its sessions differently".into());
    }
    let mut layers = Layers::default();
    let mut src_layers = Layers::default();
    let mut tally = Tally::new(ops, seed);
    let base = sink.snapshot();
    let mut busy_s = 0.0;
    for (i, (op, line)) in ops.iter().zip(lines).enumerate() {
        let before = sink.snapshot();
        let t0 = Instant::now();
        match *op {
            Op::Src(r) => {
                let row = FRONT_DOOR_ROWS[r];
                let machine = row.chip.machine();
                let staged = Staged::submit(&st.svc, &row.source(), &machine);
                let dt = t0.elapsed().as_secs_f64();
                busy_s += dt;
                match staged {
                    Ok(staged) if *staged.served.plan == st.warm[r].plan => {
                        let d = sink.snapshot().since(&before);
                        for l in [&mut layers, &mut src_layers] {
                            l.begin(&format!("warm_src:{}", row.name()), 1);
                            staged.charge(l, &d);
                        }
                        tally.served(r, dt * 1e3, &st.warm[r].info);
                    }
                    _ => tally.failed(
                        r,
                        dt * 1e3,
                        errors,
                        format!("serve (traced): source read of {} failed", row.name()),
                    ),
                }
            }
            Op::Key(r) => {
                let key = aqua_serve::parse_key_hex(&st.warm[r].key);
                let served = key.map(|k| st.svc.submit_key(k));
                let dt = t0.elapsed().as_secs_f64();
                busy_s += dt;
                let cell = FRONT_DOOR_ROWS.len() + r;
                match served {
                    Some(Ok(s)) if *s.plan == st.warm[r].plan => {
                        layers.begin(&format!("warm_key:{}", FRONT_DOOR_ROWS[r].name()), 1);
                        layers.add("serve.lookup_us", dt * 1e6);
                        layers.charge("serve", dt * 1e3);
                        tally.served(cell, dt * 1e3, &st.warm[r].info);
                    }
                    _ => tally.failed(
                        cell,
                        dt * 1e3,
                        errors,
                        format!(
                            "serve (traced): key read of {} failed",
                            FRONT_DOOR_ROWS[r].name()
                        ),
                    ),
                }
            }
            Op::Edit(s, next) => {
                let resp = st.svc.handle_line(line);
                let dt = t0.elapsed().as_secs_f64();
                busy_s += dt;
                let d = sink.snapshot().since(&before);
                layers.begin(&format!("edit:{}", SESSION_ROWS[s].name()), 1);
                let compile_ms = trace::charge_compile(&mut layers, &d);
                layers.charge("session", dt * 1e3 - compile_ms);
                let fast = d.counter("incr.fast_path") as f64;
                layers.add("session.fast_share", fast);
                layers.add(
                    "session.full_recompiles",
                    d.counter("incr.full_recompile") as f64,
                );
                layers.add(
                    "session.divergences",
                    d.counter("incr.divergence_fallback") as f64,
                );
                layers.add("session.replay_ms", d.ms("incr.replay"));
                layers.add("session.canon_ms", d.ms("incr.canon"));
                layers.add("session.solve_ms", d.ms("incr.solve"));
                layers.add("session.render_ms", d.ms("incr.render"));
                layers.add(
                    "session.delta_kb",
                    last_member(&resp, "delta").map_or(0, str::len) as f64 / 1024.0,
                );
                tally.edit(
                    i,
                    s,
                    next,
                    dt * 1e3,
                    &resp,
                    &mut st.sessions[s],
                    targets,
                    errors,
                );
                if d.spans("vol.manage") > 0 {
                    let q = tally
                        .quality
                        .get(&(s, next))
                        .and_then(|info| info.quality)
                        .unwrap_or_default();
                    layers.add("volumes.round.mixes_over_2pct", q.over_2pct as f64);
                    layers.add("volumes.round.overdrawn_nodes", q.overdrawn as f64);
                    layers.add("volumes.round.over_capacity_nodes", q.over_capacity as f64);
                }
            }
        }
    }
    let total = sink.snapshot().since(&base);
    trace::set_volume_shares(&mut layers, &total);
    let (hits, misses) = (
        total.counter("incr.canon.hit"),
        total.counter("incr.canon.miss"),
    );
    if hits + misses > 0 {
        layers.set(
            "session.canon_hit_share",
            hits as f64 / (hits + misses) as f64,
        );
    }
    let (n, sum) = total.hist("incr.slice_nodes");
    if n > 0 {
        layers.set("session.slice_nodes", sum as f64 / n as f64);
    }
    let (hits, misses) = (
        total.counter("serve.cache.hit"),
        total.counter("serve.cache.miss"),
    );
    if hits + misses > 0 {
        layers.set("serve.hit_share", hits as f64 / (hits + misses) as f64);
    }
    let t = tally.finish(busy_s, revisit, hits);
    layers.set("serve.failed", t.failed as f64);
    let predictions = vec![(
        Prediction {
            what: "serve: lang+lower+canon share of warm source-read time",
            layers: &["lang", "lower", "canon"],
            lo: 0.7,
            hi: 1.0,
        },
        src_layers,
    )];
    (t, layers, predictions)
}
