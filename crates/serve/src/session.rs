//! Push-mode sessions: register a DAG once, then push edits and get
//! plan deltas back.
//!
//! The cold front door recompiles from scratch on every request. A
//! *session* instead retains the client's DAG, the canonical mapping of
//! its state, the compiled plan bytes, and (when the solve was
//! replayable) the hierarchy's round trace ([`aqua_volume::incr`]).
//! Pushing an edit then costs a dirty-slice replay plus a mapped
//! re-canonicalization instead of a full compile — and the resulting
//! plan is **byte-identical to a cold compile of the edited DAG**,
//! because replays render through the same `plan::render_outcome`
//! path on the same canonical DAG a cold compile would build.
//!
//! Edits that cannot be replayed (machine-parameter changes, node
//! add/remove, replay divergences, non-replayable traces) fall back to
//! a cold compile *inside the session* and say so with a typed
//! `"cause"`; the client still gets a correct plan either way.
//!
//! Every session compile (a register or a fallback) runs through one
//! function, `pin`, which submits the state's canonical key and
//! encoding to the service's one compile path: cache probe, tenant
//! admission, single-flight, the bounded queue, the request's deadline
//! and a compiler thread. A cached plan, or one a compile in flight
//! gives, that cannot have come with a replayable trace
//! (`plan::may_replay`) is pinned as is: a compile would produce the
//! same bytes and leave the session no solver either, so editors
//! revisiting a state skip the Fig. 6 hierarchy entirely. Otherwise the
//! session leads its own traced compile, and the compiler thread hands
//! the replay solver back to it alone.
//!
//! Session state is pinned here, not in the plan LRU: cache pressure
//! from other tenants can evict a session's plan bytes from the shared
//! cache without ever forcing the session down the full-recompile path.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use aqua_dag::{set_mix_ratio, Dag, EdgeId, NodeId};
use aqua_obs::Obs;
use aqua_rational::Ratio;
use aqua_volume::hierarchy::ManagedVolumes;
use aqua_volume::{IncrEdit, IncrSolver, Machine, ManagedOutcome, Method, ReplayOutcome};

use crate::canon::{self, Mapping};
use crate::json::{quote, Value};
use crate::plan;
use crate::service::{Got, ServeError, Submitter};

/// One registered session: the client's DAG in its own node numbering,
/// the pinned plan of its current state with that state's canonical
/// mapping, and the replay state when the last compile left a
/// replayable trace.
pub(crate) struct Session {
    machine: Machine,
    /// The client's DAG, current (edits are applied here first).
    dag: Dag,
    /// Client-space output weights.
    weights: HashMap<NodeId, u64>,
    /// Pinned plan bytes for the session's current DAG.
    plan: Arc<str>,
    /// Canonical mapping of the current state: the key and encoding the
    /// pinned plan is published under.
    mapping: Arc<Mapping>,
    /// Replay state; `None` when the last compile left no replayable
    /// trace, or the session pinned a cached plan instead.
    replay: Option<Replay>,
    /// Memoized canonical mappings for this topology (see [`CanonMemo`]).
    memo: CanonMemo,
}

/// What a replayable compile leaves a session: the solver that owns its
/// trace, and the mapping of the state the trace was recorded on. That
/// state's canonical DAG is the trace's base, and it numbers canonical
/// node `i` as `NodeId` `i` and edge `i` as `EdgeId` `i`, so the mapping
/// addresses the base directly.
struct Replay {
    base: Arc<Mapping>,
    solver: Box<IncrSolver>,
}

impl Session {
    /// A session pinned on the plan of `(dag, weights)` under `machine`,
    /// whose mapping is `cur` ([`pin`]). The memo is primed with that
    /// state, so the first edit away and back (the undo case) already
    /// hits.
    fn new(
        dag: Dag,
        weights: HashMap<NodeId, u64>,
        machine: Machine,
        cur: Arc<Mapping>,
        cause: Option<&'static str>,
        via: &Submitter,
        obs: &Obs,
    ) -> Result<Session, ServeError> {
        let (plan, replay) = pin(&dag, &weights, &machine, &cur, cause, via, obs)?;
        let memo = CanonMemo::primed(CanonState::of(&dag, &weights), Arc::clone(&cur));
        Ok(Session {
            machine,
            dag,
            weights,
            plan,
            mapping: cur,
            replay,
            memo,
        })
    }
}

/// The exact client-DAG state a memoized canonical mapping was
/// computed from: every edge's fraction (in edge-id order) plus the
/// sorted output weights.
#[derive(PartialEq)]
struct CanonState {
    fractions: Vec<(i128, i128)>,
    weights: Vec<(usize, u64)>,
}

impl CanonState {
    fn of(dag: &Dag, weights: &HashMap<NodeId, u64>) -> CanonState {
        let fractions = dag
            .edge_ids()
            .map(|e| {
                let f = dag.edge(e).fraction;
                (f.numer(), f.denom())
            })
            .collect();
        let mut w: Vec<(usize, u64)> = weights.iter().map(|(&n, &v)| (n.index(), v)).collect();
        w.sort_unstable();
        CanonState {
            fractions,
            weights: w,
        }
    }
}

/// Exact memo of canonical mappings for the session's fixed topology.
///
/// Between structural and machine edits, the canonical mapping (node
/// and edge permutations, key, encoding) is a pure function of the
/// client DAG's edge fractions and output weights — topology, node
/// kinds, and machine are all frozen. Interactive editors revisit
/// states constantly (parameter wiggling, undo/redo), and mapped
/// re-canonicalization of a multi-thousand-node DAG is the dominant
/// cost of the replay path, so a tiny exact-match memo pays for itself
/// on the first revisit. Entries are compared by *value* — every
/// fraction and weight — never by hash, so a hit cannot alias a
/// different state and byte-identity is preserved unconditionally.
struct CanonMemo {
    entries: Vec<(CanonState, Arc<Mapping>)>,
}

/// Distinct recent states a session retains mappings for. Editors flip
/// between a handful of candidate values; the memo only needs to cover
/// that working set, and each entry holds two permutation vectors of
/// the DAG's size, so small is right.
const CANON_MEMO_CAPACITY: usize = 4;

impl CanonMemo {
    /// A memo holding one state's mapping.
    fn primed(state: CanonState, canon: Arc<Mapping>) -> CanonMemo {
        CanonMemo {
            entries: vec![(state, canon)],
        }
    }

    /// Exact-match lookup; a hit moves the entry to the front.
    fn lookup(&mut self, state: &CanonState) -> Option<Arc<Mapping>> {
        let at = self.entries.iter().position(|(s, _)| s == state)?;
        let hit = self.entries.remove(at);
        let canon = Arc::clone(&hit.1);
        self.entries.insert(0, hit);
        Some(canon)
    }

    fn insert(&mut self, state: CanonState, canon: Arc<Mapping>) {
        self.entries.insert(0, (state, canon));
        self.entries.truncate(CANON_MEMO_CAPACITY);
    }
}

/// A parsed `session.edit` request, client-space.
enum SessionEdit {
    SetRatio {
        node: NodeId,
        parts: Vec<(NodeId, u64)>,
    },
    SetOutputVolume {
        node: NodeId,
        weight: u64,
    },
    SetMachine(Machine),
    AddNode(NewNode),
    RemoveNode {
        node: NodeId,
    },
}

/// Payload of an `add_node` edit.
enum NewNode {
    Input {
        name: String,
    },
    Mix {
        name: String,
        parts: Vec<(NodeId, u64)>,
        seconds: u64,
    },
    Process {
        name: String,
        op: String,
        from: NodeId,
    },
    Output {
        name: String,
        from: NodeId,
        weight: u64,
    },
}

/// What `session.register` hands back to the wire layer.
pub(crate) struct Registered {
    /// The new session's id (`"s1"`, `"s2"`, ...).
    pub id: String,
    /// Content key of the compiled plan.
    pub key: u128,
    /// The compiled plan bytes.
    pub plan: Arc<str>,
    /// Canonical node index → the request's own fluid name.
    pub names: Vec<String>,
}

/// What `session.edit` hands back to the wire layer.
pub(crate) struct Edited {
    /// Content key of the session's plan after the edit.
    pub key: u128,
    /// Encoding behind `key` (for a replayed plan's publication).
    pub encoding: Arc<[u8]>,
    /// The full plan bytes after the edit (pinned; also the delta base
    /// for the next edit).
    pub plan: Arc<str>,
    /// Rendered delta document: `{"replace":{...}}` or `{"full":...}`.
    pub delta: String,
    /// Whether the dirty-slice replay produced the plan.
    pub incremental: bool,
    /// Why the session fell back to a cold compile (when it did).
    pub cause: Option<&'static str>,
    /// Dirty-slice size in nodes (0 on the full-recompile path).
    pub slice: usize,
    /// Whether a replay rendered a new plan, which no compiler thread
    /// published (a fallback's plan came from the compile path, and a
    /// no-op edit's is the session's own).
    pub replayed: bool,
}

/// Registry slot: owning tenant + the session behind its own lock.
type SessionSlot = (String, Arc<Mutex<Session>>);

/// The session registry: id → session, with per-tenant quotas.
///
/// The registry lock is held only for lookup/insert/remove; each
/// session carries its own lock for the (milliseconds-long) edit work,
/// so concurrent sessions never serialize on one mutex.
pub(crate) struct SessionStore {
    sessions: Mutex<HashMap<String, SessionSlot>>,
    next: AtomicU64,
    /// Live sessions one tenant may hold.
    max_per_tenant: usize,
}

impl SessionStore {
    pub(crate) fn new(max_per_tenant: usize) -> SessionStore {
        SessionStore {
            sessions: Mutex::new(HashMap::new()),
            next: AtomicU64::new(0),
            max_per_tenant,
        }
    }

    /// Number of live sessions (all tenants).
    pub(crate) fn len(&self) -> usize {
        self.sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Registers `dag` (+ client-space `weights`) under `tenant` and pins
    /// the plan `via` gives it ([`pin`]), retaining the trace when
    /// replayable.
    pub(crate) fn register(
        &self,
        tenant: &str,
        dag: Dag,
        weights: HashMap<NodeId, u64>,
        machine: Machine,
        via: &Submitter,
        obs: &Obs,
    ) -> Result<Registered, ServeError> {
        let max_per_tenant = self.max_per_tenant;
        {
            let sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            let held = sessions.values().filter(|(t, _)| t == tenant).count();
            if held >= max_per_tenant {
                obs.add("serve.session.quota_rejects", 1);
                return Err(ServeError::SessionQuota {
                    max: max_per_tenant,
                });
            }
        }
        let pass = canon::key_pass(&dag, &weights, &machine)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let names = pass
            .order
            .iter()
            .map(|&n| dag.node(n).name.clone())
            .collect();
        let session = Session::new(dag, weights, machine, Arc::new(pass.into()), None, via, obs)?;
        let key = session.mapping.key;
        let plan = Arc::clone(&session.plan);
        let id = format!("s{}", self.next.fetch_add(1, Ordering::Relaxed) + 1);
        {
            // Re-check under the lock: two racing registers both passed
            // the early check while neither was inserted yet.
            let mut sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            let held = sessions.values().filter(|(t, _)| t == tenant).count();
            if held >= max_per_tenant {
                obs.add("serve.session.quota_rejects", 1);
                return Err(ServeError::SessionQuota {
                    max: max_per_tenant,
                });
            }
            sessions.insert(
                id.clone(),
                (tenant.to_owned(), Arc::new(Mutex::new(session))),
            );
        }
        obs.add("serve.session.registers", 1);
        Ok(Registered {
            id,
            key,
            plan,
            names,
        })
    }

    /// Applies one edit to session `id`, replanning incrementally when
    /// the retained trace allows it; a fallback pins the plan `via` gives
    /// the edited state ([`pin`]). The session's lock is held throughout,
    /// also while a fallback waits on its compile.
    pub(crate) fn edit(
        &self,
        id: &str,
        tenant: &str,
        edit: &Value,
        via: &Submitter,
        obs: &Obs,
    ) -> Result<Edited, ServeError> {
        let session = self.lookup(id, tenant)?;
        let mut session = session.lock().unwrap_or_else(PoisonError::into_inner);
        obs.add("serve.session.edits", 1);
        let parsed =
            parse_edit(&session.dag, &session.machine, edit).map_err(ServeError::BadRequest)?;
        apply_edit(&mut session, parsed, via, obs)
    }

    /// Closes session `id`, dropping its pinned state.
    pub(crate) fn close(&self, id: &str, tenant: &str, obs: &Obs) -> Result<(), ServeError> {
        let mut sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        match sessions.get(id) {
            Some((t, _)) if t == tenant => {
                sessions.remove(id);
                obs.add("serve.session.closes", 1);
                Ok(())
            }
            _ => Err(ServeError::UnknownSession),
        }
    }

    pub(crate) fn lookup(&self, id: &str, tenant: &str) -> Result<Arc<Mutex<Session>>, ServeError> {
        let sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        match sessions.get(id) {
            Some((t, s)) if t == tenant => Ok(Arc::clone(s)),
            _ => Err(ServeError::UnknownSession),
        }
    }
}

/// Pins the plan of the state `(dag, weights)` under `machine`, whose
/// canonical mapping is `cur`, and returns it with the replay state it
/// leaves. Every session compile runs here: a register, and a fallback
/// edit, whose `cause` is `Some`. The state goes through the service's
/// compile path (`via`) as a traced request. A plan from the cache or
/// from another request's compile is pinned when [`plan::may_replay`]
/// clears it, as no compile would have left a replay trace for it
/// (counted as `incr.plan_reuse`); a shared plan the guard flags sends
/// the state through again, to lead its own compile. Only a compile the
/// session leads completes the mapping into the canonical DAG, and only
/// it leaves a replay solver (a fallback's compile counts as
/// `incr.full_recompile`).
///
/// # Errors
///
/// What the compile path answers: `overloaded`, `shedding`, `timeout`,
/// or `internal` when the compile panicked.
fn pin(
    dag: &Dag,
    weights: &HashMap<NodeId, u64>,
    machine: &Machine,
    cur: &Arc<Mapping>,
    cause: Option<&'static str>,
    via: &Submitter,
    obs: &Obs,
) -> Result<(Arc<str>, Option<Replay>), ServeError> {
    loop {
        match via.submit(cur, dag, weights, machine)? {
            (served, Got::Led(solver)) => {
                if cause.is_some() {
                    obs.add("incr.full_recompile", 1);
                }
                let replay = solver.map(|solver| Replay {
                    base: Arc::clone(cur),
                    solver,
                });
                return Ok((served.plan, replay));
            }
            (served, Got::Shared(_)) if !plan::may_replay(&served.plan) => {
                obs.add("incr.plan_reuse", 1);
                return Ok((served.plan, None));
            }
            (_, Got::Shared(_)) => {}
        }
    }
}

/// Parses the wire `edit` object against the session's current DAG
/// (nodes are addressed by the client's own fluid names).
fn parse_edit(dag: &Dag, machine: &Machine, edit: &Value) -> Result<SessionEdit, String> {
    if !matches!(edit, Value::Obj(_)) {
        return Err("`edit` must be an object".to_owned());
    }
    if let Some(v) = edit.get("set_ratio") {
        let node = node_field(dag, v, "node")?;
        let parts = parts_field(dag, v.get("parts"), "set_ratio.parts")?;
        return Ok(SessionEdit::SetRatio { node, parts });
    }
    if let Some(v) = edit.get("set_output_volume") {
        let node = node_field(dag, v, "node")?;
        let weight = u64_field(v.get("weight"), "set_output_volume.weight")?;
        if weight == 0 {
            return Err("`set_output_volume.weight` must be positive".to_owned());
        }
        return Ok(SessionEdit::SetOutputVolume { node, weight });
    }
    if let Some(v) = edit.get("set_machine") {
        let machine = crate::service::machine_with_overrides(machine, v)?;
        return Ok(SessionEdit::SetMachine(machine));
    }
    if let Some(v) = edit.get("add_node") {
        return Ok(SessionEdit::AddNode(parse_new_node(dag, v)?));
    }
    if let Some(v) = edit.get("remove_node") {
        let node = node_field(dag, v, "node")?;
        return Ok(SessionEdit::RemoveNode { node });
    }
    Err(
        "`edit` needs one of `set_ratio`, `set_output_volume`, `set_machine`, \
         `add_node`, `remove_node`"
            .to_owned(),
    )
}

fn parse_new_node(dag: &Dag, v: &Value) -> Result<NewNode, String> {
    let name = match v.get("name").and_then(Value::as_str) {
        Some(n) if !n.is_empty() => n.to_owned(),
        _ => return Err("add_node.name must be a non-empty string".to_owned()),
    };
    if dag.find_node(&name).is_some() {
        return Err(format!("add_node: fluid `{name}` already exists"));
    }
    if let Some(m) = v.get("mix") {
        let parts = parts_field(dag, m.get("parts"), "add_node.mix.parts")?;
        let seconds = match m.get("seconds") {
            None => 0,
            Some(s) => u64_field(Some(s), "add_node.mix.seconds")?,
        };
        return Ok(NewNode::Mix {
            name,
            parts,
            seconds,
        });
    }
    if let Some(p) = v.get("process") {
        let op = match p.get("op").and_then(Value::as_str) {
            Some(op) if !op.is_empty() => op.to_owned(),
            _ => return Err("add_node.process.op must be a non-empty string".to_owned()),
        };
        let from = node_field(dag, p, "from")?;
        return Ok(NewNode::Process { name, op, from });
    }
    if let Some(o) = v.get("output") {
        let from = node_field(dag, o, "from")?;
        let weight = match o.get("weight") {
            None => 1,
            Some(w) => u64_field(Some(w), "add_node.output.weight")?,
        };
        return Ok(NewNode::Output { name, from, weight });
    }
    if v.get("input").is_some() {
        return Ok(NewNode::Input { name });
    }
    Err("add_node needs one of `mix`, `process`, `output`, `input`".to_owned())
}

fn node_field(dag: &Dag, v: &Value, what: &str) -> Result<NodeId, String> {
    let name = v
        .get(what)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("`{what}` must be a fluid name"))?;
    dag.find_node(name)
        .ok_or_else(|| format!("unknown fluid `{name}`"))
}

fn u64_field(v: Option<&Value>, what: &str) -> Result<u64, String> {
    v.and_then(Value::as_u64)
        .ok_or_else(|| format!("`{what}` must be a non-negative integer"))
}

fn parts_field(dag: &Dag, v: Option<&Value>, what: &str) -> Result<Vec<(NodeId, u64)>, String> {
    let items = match v {
        Some(Value::Arr(items)) if !items.is_empty() => items,
        _ => return Err(format!("`{what}` must be a non-empty array")),
    };
    let mut parts = Vec::with_capacity(items.len());
    for item in items {
        let pair = match item {
            Value::Arr(pair) if pair.len() == 2 => pair,
            _ => return Err(format!("`{what}` entries must be [name, parts] pairs")),
        };
        let name = pair[0]
            .as_str()
            .ok_or_else(|| format!("`{what}` entries must name a fluid"))?;
        let node = dag
            .find_node(name)
            .ok_or_else(|| format!("unknown fluid `{name}`"))?;
        let count = pair[1]
            .as_u64()
            .ok_or_else(|| format!("`{what}` parts must be non-negative integers"))?;
        parts.push((node, count));
    }
    Ok(parts)
}

/// The wire error for an edit the session cannot take.
fn bad(e: impl ToString) -> ServeError {
    ServeError::BadRequest(e.to_string())
}

/// Applies one parsed edit, preferring the dirty-slice replay and
/// falling back (with a typed cause) when the edit — or the trace —
/// cannot support it; a fallback pins its state's plan ([`pin`]).
/// Session state is only committed on success: ratio and output-volume
/// edits are applied to the session's DAG and weights in place, and
/// [`replan_or_undo`] takes them back if the replan does not succeed.
fn apply_edit(
    s: &mut Session,
    edit: SessionEdit,
    via: &Submitter,
    obs: &Obs,
) -> Result<Edited, ServeError> {
    let (dag, weights) = match edit {
        SessionEdit::SetRatio { node, parts } => {
            let before: Vec<(EdgeId, Ratio)> = s
                .dag
                .in_edges(node)
                .iter()
                .map(|&e| (e, s.dag.edge(e).fraction))
                .collect();
            // Validates before it writes: an error leaves the DAG as is.
            let changed = set_mix_ratio(&mut s.dag, node, &parts).map_err(bad)?;
            if changed.is_empty() {
                return Ok(noop_response(s));
            }
            return replan_or_undo(s, Prior::Fractions(before), |s| {
                // Lift the client-space edge edits into the base
                // canonical namespace the trace was recorded in.
                let lift = |base: &Mapping| IncrEdit::Fractions {
                    node: NodeId::from_index(base.node_perm[node.index()]),
                    changes: changed
                        .iter()
                        .map(|&(e, f)| (EdgeId::from_index(base.edge_perm[e.index()]), f))
                        .collect(),
                };
                replay_or_recompile(s, lift, via, obs)
            });
        }
        SessionEdit::SetOutputVolume { node, weight } => {
            if s.weights.get(&node).copied().unwrap_or(1) == weight {
                return Ok(noop_response(s));
            }
            let before = if canon::keeps_weight(&s.dag, node, weight) {
                s.weights.insert(node, weight)
            } else {
                s.weights.remove(&node)
            };
            return replan_or_undo(s, Prior::Weight(node, before), |s| {
                let lift = |base: &Mapping| IncrEdit::Weight {
                    node: NodeId::from_index(base.node_perm[node.index()]),
                    weight: Ratio::from_int(weight as i128),
                };
                replay_or_recompile(s, lift, via, obs)
            });
        }
        SessionEdit::SetMachine(machine) => {
            // Machine parameters shape every recorded decision (least
            // count, capacity, unit inventory): always a typed full
            // recompile (the paper's feasibility checks are not
            // machine-monotone, so no slice is sound). The topology
            // stays, so only the mapping is recomputed.
            let cur = canon::canonicalize_mapped(&s.dag, &s.weights, &machine).map_err(bad)?;
            let cur = Arc::new(cur);
            return fall_back(s, cur, Some(machine), "machine_parameter", via, obs);
        }
        SessionEdit::AddNode(new_node) => {
            let mut dag = s.dag.clone();
            let mut weights = s.weights.clone();
            match new_node {
                NewNode::Input { name } => {
                    dag.add_input(name);
                }
                NewNode::Mix {
                    name,
                    parts,
                    seconds,
                } => {
                    dag.add_mix(name, &parts, seconds).map_err(bad)?;
                }
                NewNode::Process { name, op, from } => {
                    dag.add_process(name, op, from);
                }
                NewNode::Output { name, from, weight } => {
                    let id = dag.add_output(name, from);
                    weights.insert(id, weight);
                }
            }
            (dag, weights)
        }
        SessionEdit::RemoveNode { node } => {
            let (dag, remap) = aqua_dag::rebuild_without(&s.dag, node).map_err(bad)?;
            let mut weights = HashMap::with_capacity(s.weights.len());
            for (&id, &w) in &s.weights {
                if let Some(new_id) = remap[id.index()] {
                    weights.insert(new_id, w);
                }
            }
            (dag, weights)
        }
    };
    // A structural edit canonicalizes the new DAG in full and re-pins
    // the whole session on its plan.
    let cur = canon::key_pass(&dag, &weights, &s.machine).map_err(bad)?;
    let machine = s.machine.clone();
    let cur = Arc::new(cur.into());
    *s = Session::new(dag, weights, machine, cur, Some("structural"), via, obs)?;
    Ok(full_edit(s, "structural"))
}

/// The response for an edit that changed nothing.
fn noop_response(s: &Session) -> Edited {
    Edited {
        key: s.mapping.key,
        encoding: Arc::clone(&s.mapping.encoding),
        plan: Arc::clone(&s.plan),
        delta: "{\"replace\":{}}".to_owned(),
        incremental: true,
        cause: None,
        slice: 0,
        replayed: false,
    }
}

/// What an in-place edit overwrote: the in-edge fractions of a mix, or
/// an output's weight (`None`: it had none).
enum Prior {
    Fractions(Vec<(EdgeId, Ratio)>),
    Weight(NodeId, Option<u64>),
}

/// Replans a session whose DAG or weights already carry an edit, and
/// puts `prior` back unless `replan` returns `Ok`. That holds on unwind
/// too, where the replay solver is also dropped, since a replay can
/// unwind halfway through rewriting its stored rounds: the session lock
/// recovers from poisoning, so a session outlives a panicking edit, and
/// its DAG, weights and trace must still describe its plan and key.
fn replan_or_undo(
    s: &mut Session,
    prior: Prior,
    replan: impl FnOnce(&mut Session) -> Result<Edited, ServeError>,
) -> Result<Edited, ServeError> {
    struct Undo<'a>(&'a mut Session, Option<Prior>);
    impl Drop for Undo<'_> {
        fn drop(&mut self) {
            let s = &mut *self.0;
            match self.1.take() {
                None => return,
                Some(Prior::Fractions(fractions)) => {
                    for (e, f) in fractions {
                        s.dag.set_edge_fraction(e, f);
                    }
                }
                Some(Prior::Weight(node, Some(w))) => {
                    s.weights.insert(node, w);
                }
                Some(Prior::Weight(node, None)) => {
                    s.weights.remove(&node);
                }
            }
            if std::thread::panicking() {
                s.replay = None;
            }
        }
    }
    let mut undo = Undo(s, Some(prior));
    let edited = replan(undo.0);
    if edited.is_ok() {
        undo.1 = None;
    }
    edited
}

/// Tries the dirty-slice replay for the edit `lift` expresses against
/// the replay's base mapping; on divergence — or with no retained trace
/// — falls back ([`fall_back`]). The session's DAG and weights already
/// carry the edit; everything else still describes the state before it.
fn replay_or_recompile(
    s: &mut Session,
    lift: impl FnOnce(&Mapping) -> IncrEdit,
    via: &Submitter,
    obs: &Obs,
) -> Result<Edited, ServeError> {
    #[cfg(test)]
    crate::service::tests::panic_once_at("session.edit");
    let Some(base) = s.replay.as_ref().map(|replay| Arc::clone(&replay.base)) else {
        let cur = mapping(s, obs)?;
        return fall_back(s, cur, None, "no_trace", via, obs);
    };
    let edit = lift(&base);
    let _span = obs.span("incr.replay");
    let cur = mapping(s, obs)?;
    let solver = &mut s.replay.as_mut().expect("checked above").solver;
    let mut base_to_cur = vec![0usize; solver.base_nodes()];
    for (client, &b) in base.node_perm.iter().enumerate() {
        base_to_cur[b] = cur.node_perm[client];
    }
    let solve_span = obs.span("incr.solve");
    let replayed = solver.replay_edit(&edit, &base_to_cur);
    solve_span.end();
    match replayed {
        Ok((outcome, slice)) => {
            obs.add("incr.fast_path", 1);
            obs.record("incr.slice_nodes", slice as u64);
            let render_span = obs.span("incr.render");
            let rendered = render_replay(s, &base, &cur, outcome);
            let plan: Arc<str> = Arc::from(rendered);
            let delta = render_delta(&s.plan, &plan);
            render_span.end();
            s.plan = Arc::clone(&plan);
            let edited = Edited {
                key: cur.key,
                encoding: Arc::clone(&cur.encoding),
                plan,
                delta,
                incremental: true,
                cause: None,
                slice,
                replayed: true,
            };
            s.mapping = cur;
            Ok(edited)
        }
        Err(divergence) => {
            obs.add("incr.divergence_fallback", 1);
            obs.add(
                match divergence.0 {
                    "underflow-flipped" => "incr.diverge.underflow",
                    "extreme-flipped" | "shape-mismatch" => "incr.diverge.shape",
                    _ => "incr.diverge.other",
                },
                1,
            );
            // The solver mutated its stored rounds before diverging;
            // it is poisoned by contract.
            s.replay = None;
            fall_back(s, cur, None, "divergence", via, obs)
        }
    }
}

/// The canonical mapping (permutations, key, encoding) of the session's
/// edited state. Fractions and weights participate in canonical
/// ordering, so node ranks can move under an edit even though the
/// topology is fixed. The memo short-circuits the mapped
/// re-canonicalization when the state was seen before (exact value
/// compare, so the bytes cannot differ).
fn mapping(s: &mut Session, obs: &Obs) -> Result<Arc<Mapping>, ServeError> {
    let state = CanonState::of(&s.dag, &s.weights);
    if let Some(hit) = s.memo.lookup(&state) {
        obs.add("incr.canon.hit", 1);
        return Ok(hit);
    }
    obs.add("incr.canon.miss", 1);
    let _span = obs.span("incr.canon");
    let cur = canon::canonicalize_mapped(&s.dag, &s.weights, &s.machine).map_err(bad)?;
    let cur = Arc::new(cur);
    s.memo.insert(state, Arc::clone(&cur));
    Ok(cur)
}

/// Renders a successful replay outcome as plan bytes, byte-identical
/// to a cold compile of the session's (edited) DAG: the replay's
/// volumes, indexed by the canonical ids of the `base` mapping, are
/// permuted into the `cur` mapping's and pushed through the shared
/// [`plan::render_outcome`] path.
fn render_replay(s: &Session, base: &Mapping, cur: &Mapping, outcome: ReplayOutcome) -> String {
    let dag = &s.dag;
    match outcome {
        ReplayOutcome::Blocked { reason, log } => {
            let outcome = ManagedOutcome::ResourcesExceeded { reason, log };
            plan::render_outcome(&outcome, &s.machine)
        }
        ReplayOutcome::Solved {
            node_volumes_nl,
            edge_volumes_nl,
        } => {
            let (order, edges) = canon::canonical_order(dag, &cur.node_perm, &cur.edge_perm);
            let cur_dag = canon::build_canonical_dag(dag, &order, &cur.node_perm, edges);
            let n = dag.num_nodes();
            let zero = Ratio::from_int(0);
            let mut node_vols = vec![zero; n];
            for client in 0..n {
                node_vols[cur.node_perm[client]] = node_volumes_nl[base.node_perm[client]];
            }
            let mut edge_vols = vec![zero; cur_dag.num_edges()];
            for (&cur_idx, &base_idx) in cur.edge_perm.iter().zip(&base.edge_perm) {
                edge_vols[cur_idx] = edge_volumes_nl[base_idx];
            }
            let outcome = ManagedOutcome::Solved {
                dag: cur_dag,
                volumes: ManagedVolumes {
                    edge_volumes_nl: edge_vols,
                    node_volumes_nl: node_vols,
                    method: Method::DagSolve,
                },
                log: vec!["round 0: DAGSolve succeeded".to_owned()],
            };
            plan::render_outcome(&outcome, &s.machine)
        }
    }
}

/// Falls back for an edit that kept the topology: pins the plan of the
/// edited state ([`pin`]), whose mapping is `cur`, under `machine`
/// (`Some` for a machine edit, else the session's own). The memo stays
/// unless the machine changed; a failed pin changes nothing.
fn fall_back(
    s: &mut Session,
    cur: Arc<Mapping>,
    machine: Option<Machine>,
    cause: &'static str,
    via: &Submitter,
    obs: &Obs,
) -> Result<Edited, ServeError> {
    let on = machine.as_ref().unwrap_or(&s.machine);
    let (plan, replay) = pin(&s.dag, &s.weights, on, &cur, Some(cause), via, obs)?;
    if let Some(machine) = machine {
        s.memo = CanonMemo::primed(CanonState::of(&s.dag, &s.weights), Arc::clone(&cur));
        s.machine = machine;
    }
    s.plan = plan;
    s.mapping = cur;
    s.replay = replay;
    Ok(full_edit(s, cause))
}

/// Answers a fallback edit with the session's newly pinned plan whole:
/// the client may be resynchronizing after a structural or machine
/// change, and a member-wise patch against its old plan buys nothing.
fn full_edit(s: &Session, cause: &'static str) -> Edited {
    Edited {
        key: s.mapping.key,
        encoding: Arc::clone(&s.mapping.encoding),
        delta: format!("{{\"full\":{}}}", s.plan),
        plan: Arc::clone(&s.plan),
        incremental: false,
        cause: Some(cause),
        slice: 0,
        replayed: false,
    }
}

/// Renders the member-level difference between two plan documents.
///
/// Plans are JSON objects with a fixed member order, so the delta is a
/// `{"replace":{member: value, ...}}` carrying only the members whose
/// bytes changed. When the two documents do not share a member layout
/// (e.g. the status flipped), the delta degrades to `{"full": plan}`.
pub(crate) fn render_delta(old: &str, new: &str) -> String {
    let (Some(old_members), Some(new_members)) = (top_level_members(old), top_level_members(new))
    else {
        return format!("{{\"full\":{new}}}");
    };
    if old_members.len() != new_members.len()
        || old_members
            .iter()
            .zip(&new_members)
            .any(|((ka, _), (kb, _))| ka != kb)
    {
        return format!("{{\"full\":{new}}}");
    }
    let mut out = String::from("{\"replace\":{");
    let mut first = true;
    for ((name, old_raw), (_, new_raw)) in old_members.iter().zip(&new_members) {
        if old_raw == new_raw {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{new_raw}", quote(name));
    }
    out.push_str("}}");
    out
}

/// Applies a delta produced by `render_delta` to `old`, returning the
/// reconstructed plan document. Returns `None` on a malformed pair.
pub fn apply_delta(old: &str, delta: &str) -> Option<String> {
    let members = top_level_members(delta)?;
    match members.as_slice() {
        [("full", plan)] => Some((*plan).to_owned()),
        [("replace", patch)] => {
            let patch: HashMap<&str, &str> = top_level_members(patch)?.into_iter().collect();
            let old_members = top_level_members(old)?;
            let mut out = String::with_capacity(old.len());
            out.push('{');
            for (i, (name, raw)) in old_members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{}:{}",
                    quote(name),
                    patch.get(name).copied().unwrap_or(raw)
                );
            }
            out.push('}');
            Some(out)
        }
        _ => None,
    }
}

/// Splits a compact JSON object (as this crate renders them: no
/// inter-token whitespace) into `(member name, raw value bytes)` pairs.
fn top_level_members(s: &str) -> Option<Vec<(&str, &str)>> {
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let bytes = inner.as_bytes();
    let mut members = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Member name.
        if bytes[i] != b'"' {
            return None;
        }
        let name_end = scan_string(bytes, i)?;
        let name = &inner[i + 1..name_end - 1];
        if bytes.get(name_end) != Some(&b':') {
            return None;
        }
        // Member value: scan to the next top-level comma.
        let start = name_end + 1;
        let mut j = start;
        let mut depth = 0usize;
        while j < bytes.len() {
            match bytes[j] {
                b'"' => j = scan_string(bytes, j)? - 1,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth = depth.checked_sub(1)?,
                b',' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j == start {
            return None;
        }
        members.push((name, &inner[start..j]));
        i = j + 1;
    }
    Some(members)
}

/// Returns the index one past a JSON string's closing quote.
fn scan_string(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Service, ServiceConfig, DEFAULT_TENANT};

    #[test]
    fn top_level_members_splits_compact_objects() {
        let s = r#"{"a":1,"b":"x,\"y}","c":[1,{"d":2}],"e":{"f":[3]}}"#;
        let members = top_level_members(s).unwrap();
        assert_eq!(
            members,
            vec![
                ("a", "1"),
                ("b", r#""x,\"y}""#),
                ("c", r#"[1,{"d":2}]"#),
                ("e", r#"{"f":[3]}"#),
            ]
        );
    }

    #[test]
    fn delta_roundtrips_member_replacement() {
        let old = r#"{"status":"solved","edges":[1,2],"log":["a"]}"#;
        let new = r#"{"status":"solved","edges":[1,3],"log":["a"]}"#;
        let delta = render_delta(old, new);
        assert_eq!(delta, r#"{"replace":{"edges":[1,3]}}"#);
        assert_eq!(apply_delta(old, &delta).unwrap(), new);
    }

    #[test]
    fn delta_degrades_to_full_on_layout_change() {
        let old = r#"{"status":"solved","edges":[1,2]}"#;
        let new = r#"{"status":"resources_exceeded","reason":"x"}"#;
        let delta = render_delta(old, new);
        assert_eq!(delta, format!("{{\"full\":{new}}}"));
        assert_eq!(apply_delta(old, &delta).unwrap(), new);
    }

    /// `f` on the compile path of a fresh service, which caches nothing.
    fn on_fresh_service<T>(f: impl FnOnce(&Submitter) -> T) -> T {
        let svc = Service::new(ServiceConfig::default());
        let no_fields = crate::json::parse("{}").unwrap();
        f(&svc.submitter(DEFAULT_TENANT, &no_fields).unwrap())
    }

    /// A session registered on `(dag, weights, machine)` with nothing
    /// cached.
    fn pinned(dag: Dag, weights: HashMap<NodeId, u64>, machine: Machine) -> Session {
        let cur = Arc::new(canon::key_pass(&dag, &weights, &machine).unwrap().into());
        on_fresh_service(|via| {
            Session::new(dag, weights, machine, cur, None, via, &Obs::off()).unwrap()
        })
    }

    /// A session over `m = MIX A AND B IN RATIOS 1 : 4`.
    fn tiny_session() -> Session {
        let src = "ASSAY tiny START\nfluid A, B, m;\nVAR Result[1];\n\
                   m = MIX A AND B IN RATIOS 1 : 4 FOR 10;\n\
                   SENSE OPTICAL it INTO Result[1];\nEND\n";
        let flat = aqua_lang::compile_to_flat(src).unwrap();
        let (dag, map) = aqua_compiler::lower_to_dag(&flat).unwrap();
        pinned(dag, map.output_weights, Machine::paper_default())
    }

    #[test]
    fn an_edit_whose_replan_fails_or_unwinds_is_taken_back() {
        let mut s = tiny_session();
        let fractions = |s: &Session| -> Vec<Ratio> {
            s.dag.edge_ids().map(|e| s.dag.edge(e).fraction).collect()
        };
        let registered = (fractions(&s), s.weights.clone(), Arc::clone(&s.plan));
        let [a, b, m] = ["A", "B", "m"].map(|n| s.dag.find_node(n).unwrap());
        let before: Vec<(EdgeId, Ratio)> = s
            .dag
            .in_edges(m)
            .iter()
            .map(|&e| (e, s.dag.edge(e).fraction))
            .collect();
        let parts = [(a, 1), (b, 9)];

        set_mix_ratio(&mut s.dag, m, &parts).unwrap();
        let failed = replan_or_undo(&mut s, Prior::Fractions(before.clone()), |_| {
            Err(bad("replan failed"))
        });
        assert!(failed.is_err());
        assert_eq!(fractions(&s), registered.0);
        assert!(s.replay.is_some(), "an error keeps the trace");

        // A weight edit on a node without a weight, then on one with.
        for had in [None, Some(3)] {
            if let Some(w) = had {
                s.weights.insert(m, w);
            }
            let expected = s.weights.clone();
            let old = s.weights.insert(m, 7);
            let failed =
                replan_or_undo(&mut s, Prior::Weight(m, old), |_| Err(bad("replan failed")));
            assert!(failed.is_err());
            assert_eq!(s.weights, expected);
        }
        s.weights.remove(&m);
        assert_eq!(s.weights, registered.1);

        set_mix_ratio(&mut s.dag, m, &parts).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replan_or_undo(&mut s, Prior::Fractions(before), |_| {
                panic!("replan unwinds")
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(fractions(&s), registered.0);
        assert!(s.replay.is_none(), "an unwind drops the trace");
        assert_eq!(s.plan, registered.2);

        // The session still plans its next edit as a cold compile does.
        let edit = SessionEdit::SetRatio {
            node: m,
            parts: parts.to_vec(),
        };
        let edited = on_fresh_service(|via| apply_edit(&mut s, edit, via, &Obs::off())).unwrap();
        assert_eq!(edited.cause, Some("no_trace"));
        let cold = pinned(s.dag.clone(), s.weights.clone(), s.machine.clone());
        assert_eq!(edited.plan, cold.plan);
    }

    #[test]
    fn identical_plans_produce_empty_replace() {
        let plan = r#"{"status":"solved","edges":[1,2]}"#;
        let delta = render_delta(plan, plan);
        assert_eq!(delta, r#"{"replace":{}}"#);
        assert_eq!(apply_delta(plan, &delta).unwrap(), plan);
    }
}
