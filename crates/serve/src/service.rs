//! The plan-compilation service: admission, single-flight, compiler
//! threads, durability.
//!
//! Request lifecycle (every stage is spanned through `aqua-obs`):
//!
//! 1. **Key pass** — the request's DAG, output weights, and machine
//!    are validated and folded into a content key and the canonical
//!    encoding it hashes (steps 1–4 of [`crate::canon`]). A request
//!    that arrives canonicalized ([`Service::submit_canon`]) has both,
//!    and so does a session's register or fallback, which enters at
//!    stage 2 with its state's mapping as a *traced* request: it takes
//!    no plan that `plan::may_replay` flags from the cache, its compile
//!    keeps the hierarchy's trace, and the compiler thread hands the
//!    replay solver to it alone.
//! 2. **Cache probe** — the service's one LRU (lock-striped, see
//!    [`crate::cache`]) is probed; a hit (with encoding verification)
//!    returns the cached plan bytes immediately. A `src` hit builds no
//!    canonical DAG: its response reads `names` from its own lowered
//!    DAG. Hits bypass tenant admission: they cost nanoseconds and
//!    shedding them would punish warm tenants for cold ones.
//! 3. **Tenant admission** — a miss is charged against its tenant's
//!    concurrency quota, and a leader enqueue against the tenant's
//!    queue quota; exceeding either sheds the request with the typed
//!    [`ServeError::Shedding`] rejection (`serve.tenant.*` counters).
//! 4. **Single-flight admission** — concurrent misses for the *same*
//!    key coalesce onto one in-flight compile; only the first becomes a
//!    queued job, the rest wait on its in-flight entry. A miss that
//!    finds no compile of its key in flight completes its canonical
//!    form (step 5 of [`crate::canon`]) outside the in-flight lock, so
//!    only a leader ever builds the canonical DAG its job compiles.
//!    Distinct misses enter the service's bounded queue of
//!    [`ServiceConfig::queue_capacity`] jobs; a full queue rejects with
//!    [`ServeError::Overloaded`] instead of building unbounded backlog.
//! 5. **Compile** — one compiler thread per available core (counted
//!    once, at start) takes the oldest queued job, compiles it, appends
//!    the plan to the persistent plan store (when configured), then
//!    publishes it cache-first so later requests hit before the
//!    in-flight entry is retired, and wakes that job's waiters. No
//!    waiter waits for another job's compile.
//! 6. **Deadlines** — every request, session commands included, carries
//!    a deadline, clamped to [`ServiceConfig::max_deadline_ms`] (a
//!    hostile `deadline_ms` can therefore never overflow
//!    `Instant + Duration`); waiting past it
//!    returns [`ServeError::Timeout`]. A request admitted with an
//!    already-expired deadline times out deterministically *before*
//!    enqueueing, which the golden protocol tests rely on.
//!
//! With a [`StoreConfig`] set, the service rehydrates every durable
//! plan into the cache at startup, so warm-equals-cold byte-identity
//! survives a process restart (proven end-to-end by the `bench`
//! binary's kill-and-restart phase).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aqua_dag::{Dag, NodeId};
use aqua_obs::fleet::FleetSink;
use aqua_obs::Obs;
use aqua_rational::Ratio;
use aqua_volume::{IncrSolver, Machine, Recording};

use crate::cache::ShardedLru;
use crate::canon::{self, Canon, KeyPass, Mapping};
use crate::json::{self, push_quoted, quote, Value};
use crate::plan::{compile_plan_traced, may_replay};
use crate::session::SessionStore;
use crate::store::{PlanStore, StoreConfig};

/// The tenant misses are charged to when a request names none.
pub const DEFAULT_TENANT: &str = "default";

/// Longest accepted tenant name on the wire (the tenant table is
/// bounded by live requests, but a multi-megabyte tenant string would
/// still be copied around).
const MAX_TENANT_BYTES: usize = 128;

/// Service tuning knobs. [`Default`] matches the paper machine and
/// production-ish queue/cache sizes; tests shrink them to force the
/// Overloaded/Timeout/Shedding/eviction paths deterministically.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Machine plans are compiled for unless the request overrides it.
    pub machine: Machine,
    /// Most plans the cache holds (at least 1).
    pub cache_capacity: usize,
    /// Bound on queued (admitted, not yet compiling) jobs. `0` rejects
    /// every miss with `Overloaded` (used by the golden tests).
    pub queue_capacity: usize,
    /// Deadline applied to requests that don't carry one, in ms.
    pub default_deadline_ms: u64,
    /// Hard cap on any request deadline, in ms. Wire requests above it
    /// are rejected with [`ServeError::DeadlineTooLarge`]; programmatic
    /// deadlines are clamped. Keeps a hostile `deadline_ms` from
    /// overflowing `Instant + Duration` (which panics).
    pub max_deadline_ms: u64,
    /// Longest accepted NDJSON request line, in bytes; longer lines get
    /// the typed [`ServeError::TooLarge`] response (see
    /// [`crate::server::serve_lines`]).
    pub max_line_bytes: usize,
    /// Per-tenant cap on concurrent miss-path requests (compiles being
    /// waited on). Exceeding it sheds with [`ServeError::Shedding`].
    pub tenant_max_inflight: usize,
    /// Per-tenant cap on queued (leader) compile jobs.
    pub tenant_max_queued: usize,
    /// Per-tenant cap on live push-mode sessions (each session pins its
    /// DAG, canonical form, plan bytes, and solve trace in memory).
    /// Exceeding it rejects `session.register` with
    /// [`ServeError::SessionQuota`].
    pub tenant_max_sessions: usize,
    /// Persistent plan store; `None` keeps the service memory-only.
    pub store: Option<StoreConfig>,
    /// Observability handle threaded through admission → cache → solve.
    pub obs: Obs,
    /// Fleet roll-up served live over the wire: when set, the
    /// `obs.snapshot` command renders this aggregator's merged
    /// [`aqua_obs::fleet::FleetSnapshot`] and `obs.reset` clears it.
    /// Callers typically also route `obs` (or a replay fleet's obs
    /// handle) into the same sink so the roll-up is byte-comparable to
    /// a locally rendered snapshot.
    pub fleet: Option<Arc<FleetSink>>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            machine: Machine::paper_default(),
            cache_capacity: 1024,
            queue_capacity: 256,
            default_deadline_ms: 30_000,
            max_deadline_ms: 600_000,
            max_line_bytes: 1 << 20,
            tenant_max_inflight: 64,
            tenant_max_queued: 32,
            tenant_max_sessions: 8,
            store: None,
            obs: Obs::off(),
            fleet: None,
        }
    }
}

/// Typed request rejections (the wire `error` field is the lowercase
/// tag in `error_line`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request could not be parsed, lowered, or canonicalized.
    BadRequest(String),
    /// The admission queue was full.
    Overloaded,
    /// The deadline expired before the plan was ready.
    Timeout,
    /// A key-addressed lookup missed the cache.
    UnknownKey,
    /// The tenant exceeded its concurrency or queue quota; the request
    /// was shed to protect other tenants.
    Shedding,
    /// The request's `deadline_ms` exceeded the service cap.
    DeadlineTooLarge {
        /// The configured [`ServiceConfig::max_deadline_ms`].
        max_ms: u64,
    },
    /// The request line exceeded the configured byte cap.
    TooLarge {
        /// The configured [`ServiceConfig::max_line_bytes`].
        max_bytes: usize,
    },
    /// The persistent plan store failed to open (startup only; never a
    /// wire response).
    Store(String),
    /// A `session.edit`/`session.close` named a session that does not
    /// exist (or belongs to another tenant).
    UnknownSession,
    /// The tenant already holds [`ServiceConfig::tenant_max_sessions`]
    /// live sessions.
    SessionQuota {
        /// The configured per-tenant session cap.
        max: usize,
    },
    /// The work behind this request panicked (its compile on a compiler
    /// thread, or its parse, lowering, canonicalization or session
    /// replay on the request thread); the service went on serving
    /// (`serve.panics`).
    Internal,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Overloaded => write!(f, "admission queue is full"),
            ServeError::Timeout => write!(f, "deadline expired before the plan was ready"),
            ServeError::UnknownKey => write!(f, "no cached plan under this key"),
            ServeError::Shedding => write!(f, "tenant quota exceeded; request shed"),
            ServeError::DeadlineTooLarge { max_ms } => {
                write!(f, "`deadline_ms` exceeds the service cap of {max_ms} ms")
            }
            ServeError::TooLarge { max_bytes } => {
                write!(f, "request line exceeds {max_bytes} bytes")
            }
            ServeError::Store(m) => write!(f, "plan store: {m}"),
            ServeError::UnknownSession => write!(f, "no such session for this tenant"),
            ServeError::SessionQuota { max } => {
                write!(f, "tenant already holds {max} live session(s)")
            }
            ServeError::Internal => write!(f, "internal error while compiling the plan"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served plan: the content key plus the rendered plan bytes (shared,
/// so cache hits never copy the document).
#[derive(Debug, Clone)]
pub struct Served {
    /// Content-addressed cache key.
    pub key: u128,
    /// The plan document (JSON object, fixed member order).
    pub plan: Arc<str>,
}

/// One in-flight compile that any number of deduplicated waiters block
/// on.
struct Flight {
    done: Mutex<Option<Result<Served, ServeError>>>,
    /// The replay solver a traced compile left, for its leader alone.
    solver: Mutex<Option<Box<IncrSolver>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            done: Mutex::new(None),
            solver: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Served, ServeError>, solver: Option<Box<IncrSolver>>) {
        *self.solver.lock().unwrap_or_else(PoisonError::into_inner) = solver;
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        *done = Some(result);
        self.cv.notify_all();
    }
}

/// Waits on `flight` until its compile finishes or `deadline_at` passes.
fn wait(inner: &Inner, flight: &Flight, deadline_at: Instant) -> Result<Served, ServeError> {
    let mut done = flight.done.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if let Some(result) = done.clone() {
            return result;
        }
        let now = Instant::now();
        if now >= deadline_at {
            inner.timeouts.fetch_add(1, Ordering::Relaxed);
            inner.config.obs.add("serve.timeout", 1);
            return Err(ServeError::Timeout);
        }
        let (guard, _) = flight
            .cv
            .wait_timeout(done, deadline_at - now)
            .unwrap_or_else(PoisonError::into_inner);
        done = guard;
    }
}

/// What a compile reads besides its key and machine: the canonical DAG,
/// its output weights, and the encoding its plan is published under.
type Canonical = (Dag, HashMap<NodeId, u64>, Arc<[u8]>);

/// The part of a canonical form that its compile reads.
fn canonical(canon: Canon) -> Canonical {
    (canon.dag, canon.weights, canon.encoding)
}

/// A queued compile and the flight its waiters block on.
struct Job {
    key: u128,
    canonical: Canonical,
    machine: Machine,
    /// Compile with a recording on and leave the replay solver in the
    /// flight for its leader: a session's compile.
    trace: bool,
    tenant: String,
    flight: Arc<Flight>,
}

/// Where a submitted request's plan came from.
pub(crate) enum Got<R> {
    /// The cache, or a compile another request leads. The request comes
    /// back unless it was completed first (it then found that compile
    /// begun in between).
    Shared(Option<R>),
    /// A compile this request leads, with the replay solver a traced
    /// compile left.
    Led(Option<Box<IncrSolver>>),
}

/// What the cache is probed with: a request's content key and the
/// canonical encoding a hit must match byte for byte.
trait Probe {
    fn probe(&self) -> (u128, &[u8]);
}

impl Probe for Canon {
    fn probe(&self) -> (u128, &[u8]) {
        (self.key, &self.encoding)
    }
}

impl Probe for KeyPass {
    fn probe(&self) -> (u128, &[u8]) {
        (self.key, &self.encoding)
    }
}

impl Probe for &Mapping {
    fn probe(&self) -> (u128, &[u8]) {
        (self.key, &self.encoding)
    }
}

/// A session command's way onto the service's one compile path: the
/// tenant its compiles are charged to, and its deadline.
pub(crate) struct Submitter<'a> {
    service: &'a Service,
    tenant: &'a str,
    deadline_at: Instant,
}

impl Submitter<'_> {
    /// Submits the session state `(dag, weights)` under `machine`, whose
    /// mapping is `cur`, as a traced request: a leader completes the
    /// mapping into the canonical DAG its job compiles.
    pub(crate) fn submit<'m>(
        &self,
        cur: &'m Mapping,
        dag: &Dag,
        weights: &HashMap<NodeId, u64>,
        machine: &Machine,
    ) -> Result<(Served, Got<&'m Mapping>), ServeError> {
        let lead = |cur: &'m Mapping| {
            let (dag, weights) = cur.complete(dag, weights);
            (dag, weights, Arc::clone(&cur.encoding))
        };
        let (service, tenant) = (self.service, self.tenant);
        service.submit(cur, lead, machine.clone(), self.deadline_at, tenant, true)
    }
}

/// A lowered `src` request past its key pass.
struct Lowered {
    dag: Dag,
    weights: HashMap<NodeId, u64>,
    pass: KeyPass,
}

impl Probe for Lowered {
    fn probe(&self) -> (u128, &[u8]) {
        (self.pass.key, &self.pass.encoding)
    }
}

/// Where a `src` response's `names` come from.
enum Names {
    /// A hit's or a follower's own lowered DAG, read in the canonical
    /// node order of its key pass.
    Lowered(Dag, Vec<NodeId>),
    /// A leader's names, moved out of its lowered DAG in canonical order.
    Moved(Vec<String>),
}

/// Parses and lowers assay source text: the front half of every `src`
/// request.
fn lower_src(src: &str) -> Result<(Dag, HashMap<NodeId, u64>), ServeError> {
    let flat =
        aqua_lang::compile_to_flat(src).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    let (dag, map) =
        aqua_compiler::lower_to_dag(&flat).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    #[cfg(test)]
    tests::panic_once_at("src");
    Ok((dag, map.output_weights))
}

fn bad_canon(e: canon::CanonError) -> ServeError {
    ServeError::BadRequest(e.to_string())
}

#[derive(Default)]
struct TenantState {
    inflight: usize,
    queued: usize,
}

struct Inner {
    config: ServiceConfig,
    cache: ShardedLru,
    /// Single-flight table: the compile each queued or compiling key's
    /// waiters block on.
    inflight: Mutex<HashMap<u128, Arc<Flight>>>,
    /// Admitted jobs, oldest first; the compiler threads drain it.
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    sessions: SessionStore,
    store: Option<Mutex<PlanStore>>,
    tenants: Mutex<HashMap<String, TenantState>>,
    shutdown: AtomicBool,
    dedups: AtomicU64,
    timeouts: AtomicU64,
    overloads: AtomicU64,
    sheds: AtomicU64,
}

/// Decrements a tenant's inflight count when a miss-path request
/// leaves the service (any path: served, timed out, overloaded).
struct TenantGuard<'a> {
    inner: &'a Inner,
    tenant: &'a str,
}

impl Drop for TenantGuard<'_> {
    fn drop(&mut self) {
        let mut tenants = self
            .inner
            .tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(state) = tenants.get_mut(self.tenant) {
            state.inflight = state.inflight.saturating_sub(1);
            if state.inflight == 0 && state.queued == 0 {
                tenants.remove(self.tenant);
            }
        }
    }
}

/// The multi-threaded plan-compilation service. Cheap to share behind
/// an [`Arc`]; dropping the last handle shuts the compiler threads down
/// after they drain the queue.
pub struct Service {
    inner: Arc<Inner>,
    compilers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts a service (and its compiler threads, one per available
    /// core) with the given config.
    ///
    /// # Panics
    ///
    /// If a persistent store is configured and fails to open; use
    /// [`Service::try_new`] to handle that case.
    pub fn new(config: ServiceConfig) -> Service {
        Service::try_new(config).expect("service init")
    }

    /// Starts a service, opening (and rehydrating from) the persistent
    /// plan store when one is configured.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] if the store directory cannot be opened
    /// or recovered. A memory-only config never fails.
    pub fn try_new(config: ServiceConfig) -> Result<Service, ServeError> {
        let cache = ShardedLru::new(config.cache_capacity, config.obs.clone());

        // Open the store and rehydrate the cache before any request can
        // race the warm state.
        let mut store = None;
        if let Some(store_config) = config.store.clone() {
            let (opened, records, report) =
                PlanStore::open(store_config).map_err(|e| ServeError::Store(e.to_string()))?;
            for record in records {
                cache.insert(
                    record.key,
                    record.encoding,
                    Served {
                        key: record.key,
                        plan: record.plan,
                    },
                );
            }
            config
                .obs
                .add("serve.store.rehydrated", report.records as u64);
            if report.truncated_bytes > 0 || report.torn_records > 0 {
                config
                    .obs
                    .add("serve.store.torn_records", report.torn_records as u64);
                eprintln!(
                    "aqua-serve: store recovery dropped {} torn record(s), truncated {} byte(s)",
                    report.torn_records, report.truncated_bytes
                );
            }
            store = Some(Mutex::new(opened));
        }

        let inner = Arc::new(Inner {
            cache,
            inflight: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            sessions: SessionStore::new(config.tenant_max_sessions),
            store,
            tenants: Mutex::new(HashMap::new()),
            config,
            shutdown: AtomicBool::new(false),
            dedups: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            overloads: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        });
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let compilers = (0..cores)
            .map(|c| {
                let compiler_inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("aqua-serve-compile-{c}"))
                    .spawn(move || compile_loop(&compiler_inner))
                    .expect("spawn compiler thread")
            })
            .collect();
        Ok(Service { inner, compilers })
    }

    /// Canonicalizes assay source text against `machine` without
    /// submitting it (used by the bench harness and tests to learn a
    /// request's key up front).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on parse/lower/canonicalization
    /// failures.
    pub fn canon_src(src: &str, machine: &Machine) -> Result<Canon, ServeError> {
        let (dag, weights) = lower_src(src)?;
        canon::canonicalize(&dag, &weights, machine).map_err(bad_canon)
    }

    /// Compiles (or serves from cache) a plan for assay source text.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; see the module docs for the lifecycle.
    pub fn submit_src(
        &self,
        src: &str,
        machine: &Machine,
        deadline: Option<Duration>,
    ) -> Result<Served, ServeError> {
        let (dag, weights) = lower_src(src)?;
        let (served, _) =
            self.submit_lowered(dag, weights, machine.clone(), deadline, DEFAULT_TENANT)?;
        Ok(served)
    }

    /// Compiles (or serves from cache) a plan for an explicit DAG and
    /// output-weight map.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; see the module docs for the lifecycle.
    pub fn submit_dag(
        &self,
        dag: &Dag,
        weights: &HashMap<NodeId, u64>,
        machine: &Machine,
        deadline: Option<Duration>,
    ) -> Result<Served, ServeError> {
        let pass = canon::key_pass(dag, weights, machine).map_err(bad_canon)?;
        let lead = |pass: KeyPass| canonical(pass.complete(dag, weights));
        let (machine, deadline_at) = (machine.clone(), self.inner.deadline_at(deadline));
        let (served, _) = self.submit(pass, lead, machine, deadline_at, DEFAULT_TENANT, false)?;
        Ok(served)
    }

    /// A lowered `src` request from its key pass on: a hit or a request
    /// that joins its key's compile answers with the lowered DAG, which
    /// its `names` are read from; a leader moves the names out of the DAG
    /// and drops it before it waits.
    fn submit_lowered(
        &self,
        dag: Dag,
        weights: HashMap<NodeId, u64>,
        machine: Machine,
        deadline: Option<Duration>,
        tenant: &str,
    ) -> Result<(Served, Names), ServeError> {
        let pass = canon::key_pass(&dag, &weights, &machine).map_err(bad_canon)?;
        let mut moved = Vec::new();
        let lead = |mut lowered: Lowered| {
            moved = lowered.dag.take_names(&lowered.pass.order);
            canonical(lowered.pass.complete(&lowered.dag, &lowered.weights))
        };
        let request = Lowered { dag, weights, pass };
        let deadline_at = self.inner.deadline_at(deadline);
        let (served, got) = self.submit(request, lead, machine, deadline_at, tenant, false)?;
        let names = match got {
            Got::Shared(Some(lowered)) => Names::Lowered(lowered.dag, lowered.pass.order),
            _ => Names::Moved(moved),
        };
        Ok((served, names))
    }

    /// Key-addressed lookup: serves a previously compiled plan without
    /// re-running the front end. Never compiles.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownKey`] if the key is not cached.
    pub fn submit_key(&self, key: u128) -> Result<Served, ServeError> {
        self.inner
            .cache
            .get_by_key(key)
            .ok_or(ServeError::UnknownKey)
    }

    /// Submits an already-canonicalized request under the default
    /// tenant.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; see the module docs for the lifecycle.
    pub fn submit_canon(
        &self,
        canon: Canon,
        machine: Machine,
        deadline: Option<Duration>,
    ) -> Result<Served, ServeError> {
        self.submit_canon_tenant(canon, machine, deadline, DEFAULT_TENANT)
    }

    /// Submits an already-canonicalized request, charging any miss to
    /// `tenant`'s admission quotas.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; see the module docs for the lifecycle.
    pub fn submit_canon_tenant(
        &self,
        canon: Canon,
        machine: Machine,
        deadline: Option<Duration>,
        tenant: &str,
    ) -> Result<Served, ServeError> {
        let deadline_at = self.inner.deadline_at(deadline);
        let (served, _) = self.submit(canon, canonical, machine, deadline_at, tenant, false)?;
        Ok(served)
    }

    /// Stages 2–6 of the lifecycle (see the module docs) for a request
    /// probed by its key and encoding, compiled on `machine` and charged
    /// to `tenant`. Only the leader of a miss calls `lead` for what its
    /// job compiles: after its first probe misses and it finds no compile
    /// of the key in flight, and outside the in-flight lock (one that then
    /// finds a flight begun in between joins it). A `traced` request (a
    /// session's) takes no cached plan that [`may_replay`], since only its
    /// own compile can leave it that plan's replay solver, and its probe
    /// counts such a plan as a miss; it may still join a flight, and its
    /// caller decides what a shared plan is worth.
    fn submit<R: Probe>(
        &self,
        request: R,
        lead: impl FnOnce(R) -> Canonical,
        machine: Machine,
        deadline_at: Instant,
        tenant: &str,
        traced: bool,
    ) -> Result<(Served, Got<R>), ServeError> {
        let inner = &*self.inner;
        let obs = &inner.config.obs;
        let _span = obs.span("serve.submit");
        let key = request.probe().0;
        let pinnable = |hit: &Served| !traced || !may_replay(&hit.plan);

        if let Some(hit) = inner.cache.get(key, request.probe().1, pinnable) {
            return Ok((hit, Got::Shared(Some(request))));
        }

        // Miss path: charge the tenant's concurrency quota for the
        // whole wait (the guard releases it on every exit path).
        let _tenant_guard = inner.admit_tenant(tenant)?;

        // Join the key's compile if one is in flight; only a request that
        // finds none completes its canonical form.
        let joined = {
            let inflight = inner
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match inflight.get(&key) {
                None => None,
                Some(flight) => {
                    if let Some(hit) = inner.cache.get(key, request.probe().1, pinnable) {
                        return Ok((hit, Got::Shared(Some(request))));
                    }
                    Some(inner.follow(flight))
                }
            }
        };
        if let Some(flight) = joined {
            let served = wait(inner, &flight, deadline_at)?;
            return Ok((served, Got::Shared(Some(request))));
        }
        let canonical = lead(request);

        let (flight, led) = {
            let mut inflight = inner
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Re-probe under the lock: a compiler thread publishes
            // cache-first, so a just-finished compile is visible here.
            if let Some(hit) = inner.cache.get(key, &canonical.2, pinnable) {
                return Ok((hit, Got::Shared(None)));
            }
            if let Some(flight) = inflight.get(&key) {
                (inner.follow(flight), false)
            } else {
                // The leader for this key. An already-expired deadline
                // cannot wait for any compile: reject before admitting.
                if Instant::now() >= deadline_at {
                    inner.timeouts.fetch_add(1, Ordering::Relaxed);
                    obs.add("serve.timeout", 1);
                    return Err(ServeError::Timeout);
                }
                // A leader also holds a slot in the tenant's queue
                // quota until a compiler thread takes its job.
                inner.charge_tenant_queue(tenant)?;
                let flight = Arc::new(Flight::new());
                {
                    let mut queue = inner.queue.lock().unwrap_or_else(PoisonError::into_inner);
                    if queue.len() >= inner.config.queue_capacity {
                        drop(queue);
                        inner.release_tenant_queue(tenant);
                        inner.overloads.fetch_add(1, Ordering::Relaxed);
                        obs.add("serve.overloaded", 1);
                        return Err(ServeError::Overloaded);
                    }
                    queue.push_back(Job {
                        key,
                        canonical,
                        machine,
                        trace: traced,
                        tenant: tenant.to_owned(),
                        flight: Arc::clone(&flight),
                    });
                }
                inner.queue_cv.notify_one();
                inflight.insert(key, Arc::clone(&flight));
                (flight, true)
            }
        };
        let served = wait(inner, &flight, deadline_at)?;
        if !led {
            return Ok((served, Got::Shared(None)));
        }
        let mut solver = flight.solver.lock().unwrap_or_else(PoisonError::into_inner);
        Ok((served, Got::Led(solver.take())))
    }

    /// Handles one NDJSON request line and renders the response line
    /// (no trailing newline). Never panics: malformed input gets a typed
    /// error, and a panic in the work the request thread does itself
    /// (parse, lower, canonicalization, session commands) answers
    /// [`ServeError::Internal`] and counts `serve.panics`, so every front
    /// end goes on serving.
    pub fn handle_line(&self, line: &str) -> String {
        let mut id = String::new();
        std::panic::catch_unwind(AssertUnwindSafe(|| self.respond(line, &mut id))).unwrap_or_else(
            |_| {
                self.obs().add("serve.panics", 1);
                let id = if id.is_empty() { "null" } else { &id };
                error_line(id, &ServeError::Internal)
            },
        )
    }

    /// [`Service::handle_line`] inside its panic boundary; `id` receives
    /// the rendered request id as soon as it is known.
    fn respond(&self, line: &str, id: &mut String) -> String {
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return error_line(
                    "null",
                    &ServeError::BadRequest(format!("invalid JSON: {e}")),
                )
            }
        };
        *id = parsed
            .get("id")
            .map(render_value)
            .unwrap_or_else(|| "null".to_owned());
        let id = id.as_str();

        if let Some(cmd) = parsed.get("cmd").and_then(Value::as_str) {
            let answered = match cmd {
                "stats" => Ok(format!(
                    "{{\"id\":{id},\"ok\":true,\"stats\":{}}}",
                    self.stats_json()
                )),
                "clear_cache" => {
                    self.clear_cache();
                    Ok(format!("{{\"id\":{id},\"ok\":true}}"))
                }
                "obs.snapshot" | "obs.reset" => match &self.inner.config.fleet {
                    None => Err(ServeError::BadRequest(
                        "no fleet aggregator attached (start with --obs)".to_owned(),
                    )),
                    Some(fleet) if cmd == "obs.reset" => {
                        fleet.reset();
                        Ok(format!("{{\"id\":{id},\"ok\":true}}"))
                    }
                    Some(fleet) => Ok(format!(
                        "{{\"id\":{id},\"ok\":true,\"obs\":{}}}",
                        fleet.snapshot().to_json()
                    )),
                },
                "session.register" => self.session_register(id, &parsed),
                "session.edit" => self.session_edit(id, &parsed),
                "session.close" => self.session_close(id, &parsed),
                other => Err(ServeError::BadRequest(format!("unknown command `{other}`"))),
            };
            return answered.unwrap_or_else(|e| error_line(id, &e));
        }

        if let Some(key_field) = parsed.get("key") {
            let result = match key_field.as_str().and_then(canon::parse_key_hex) {
                None => Err(ServeError::BadRequest(
                    "`key` must be a 32-hex-digit string".to_owned(),
                )),
                Some(key) => self.submit_key(key),
            };
            return match result {
                Ok(served) => success_line(id, &served),
                Err(e) => error_line(id, &e),
            };
        }

        let Some(src) = parsed.get("src").and_then(Value::as_str) else {
            return error_line(
                id,
                &ServeError::BadRequest("request needs `src`, `key`, or `cmd`".to_owned()),
            );
        };
        let machine = match self.machine_field(&parsed) {
            Ok(m) => m,
            Err(e) => return error_line(id, &e),
        };
        let deadline = match self.deadline_field(&parsed) {
            Ok(d) => d,
            Err(e) => return error_line(id, &e),
        };
        let tenant = match tenant_field(&parsed) {
            Ok(t) => t,
            Err(e) => return error_line(id, &e),
        };
        let result = lower_src(src).and_then(|(dag, weights)| {
            self.submit_lowered(dag, weights, machine, deadline, tenant)
        });
        match result {
            Ok((served, Names::Lowered(dag, order))) => {
                let names = order.iter().map(|&n| dag.node(n).name.as_str());
                success_line_named(id, &served, names)
            }
            Ok((served, Names::Moved(names))) => {
                success_line_named(id, &served, names.iter().map(String::as_str))
            }
            Err(e) => error_line(id, &e),
        }
    }

    /// Handles `session.register`: parse + lower the source and pin the
    /// session on its plan, which the service's compile path gives it
    /// (a traced compile unless the cache or a flight holds a plan that
    /// leaves no replay trace).
    fn session_register(&self, id: &str, parsed: &Value) -> Result<String, ServeError> {
        let tenant = tenant_field(parsed)?;
        let src = parsed.get("src").and_then(Value::as_str);
        let src = needs(src, "session.register", "src")?;
        let machine = self.machine_field(parsed)?;
        let via = self.submitter(tenant, parsed)?;
        let (dag, weights) = lower_src(src)?;
        let sessions = &self.inner.sessions;
        let reg = sessions.register(tenant, dag, weights, machine, &via, self.obs())?;
        let mut names = String::new();
        push_names(&mut names, reg.names.iter().map(String::as_str));
        Ok(format!(
            "{{\"id\":{id},\"ok\":true,\"session\":{},\"key\":\"{}\",\
             \"names\":{names},\"plan\":{}}}",
            quote(&reg.id),
            canon::key_hex(reg.key),
            reg.plan
        ))
    }

    /// Handles `session.edit`: replan the session's DAG under one edit
    /// (dirty-slice replay when possible, typed cold fallback
    /// otherwise) and answer with a plan delta. A replayed plan is
    /// published here; a compiled one was published by its compiler
    /// thread.
    fn session_edit(&self, id: &str, parsed: &Value) -> Result<String, ServeError> {
        let tenant = tenant_field(parsed)?;
        let sid = needs(
            parsed.get("session").and_then(Value::as_str),
            "session.edit",
            "session",
        )?;
        let edit = needs(parsed.get("edit"), "session.edit", "edit")?;
        let via = self.submitter(tenant, parsed)?;
        let ed = self
            .inner
            .sessions
            .edit(sid, tenant, edit, &via, self.obs())?;
        if ed.replayed {
            self.inner
                .publish(ed.key, &ed.encoding, Arc::clone(&ed.plan));
        }
        let mut out = format!(
            "{{\"id\":{id},\"ok\":true,\"session\":{},\"key\":\"{}\",\"incremental\":{}",
            quote(sid),
            canon::key_hex(ed.key),
            ed.incremental
        );
        if ed.incremental {
            let _ = write!(out, ",\"slice\":{}", ed.slice);
        } else if let Some(cause) = ed.cause {
            let _ = write!(out, ",\"cause\":\"{cause}\"");
        }
        let _ = write!(out, ",\"delta\":{}", ed.delta);
        out.push('}');
        Ok(out)
    }

    /// Handles `session.close`: drop the session's pinned state.
    fn session_close(&self, id: &str, parsed: &Value) -> Result<String, ServeError> {
        let tenant = tenant_field(parsed)?;
        let sid = needs(
            parsed.get("session").and_then(Value::as_str),
            "session.close",
            "session",
        )?;
        self.inner.sessions.close(sid, tenant, self.obs())?;
        Ok(format!(
            "{{\"id\":{id},\"ok\":true,\"closed\":{}}}",
            quote(sid)
        ))
    }

    /// The request's machine: the configured one, with the request's
    /// `machine` overrides applied.
    fn machine_field(&self, parsed: &Value) -> Result<Machine, ServeError> {
        let base = &self.inner.config.machine;
        match parsed.get("machine") {
            None => Ok(base.clone()),
            Some(overrides) => {
                machine_with_overrides(base, overrides).map_err(ServeError::BadRequest)
            }
        }
    }

    /// The request's `deadline_ms`, if it carries one: a non-negative
    /// integer no larger than [`ServiceConfig::max_deadline_ms`].
    fn deadline_field(&self, parsed: &Value) -> Result<Option<Duration>, ServeError> {
        let max_ms = self.inner.config.max_deadline_ms;
        match parsed.get("deadline_ms").map(Value::as_u64) {
            None => Ok(None),
            Some(None) => Err(ServeError::BadRequest(
                "`deadline_ms` must be a non-negative integer".to_owned(),
            )),
            Some(Some(ms)) if ms > max_ms => Err(ServeError::DeadlineTooLarge { max_ms }),
            Some(Some(ms)) => Ok(Some(Duration::from_millis(ms))),
        }
    }

    /// A session command's way onto the compile path, charged to
    /// `tenant` and bound by the request's `deadline_ms`, which runs from
    /// here.
    pub(crate) fn submitter<'a>(
        &'a self,
        tenant: &'a str,
        parsed: &Value,
    ) -> Result<Submitter<'a>, ServeError> {
        Ok(Submitter {
            service: self,
            tenant,
            deadline_at: self.inner.deadline_at(self.deadline_field(parsed)?),
        })
    }

    /// Number of live push-mode sessions across all tenants.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.len()
    }

    /// Drops every cached plan from memory (bench cold path; counters
    /// and the persistent store survive — a restart would rehydrate).
    pub fn clear_cache(&self) {
        self.inner.cache.clear();
    }

    /// Current counters as a JSON object (fixed member order).
    pub fn stats_json(&self) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let cache = &self.inner.cache;
        format!(
            "{{\"cached_plans\":{},\"hits\":{},\"misses\":{},\"inserts\":{},\
             \"evictions\":{},\"collisions\":{},\"singleflight_dedups\":{},\
             \"timeouts\":{},\"overloads\":{},\"sheds\":{}}}",
            cache.len(),
            load(&cache.stats.hits),
            load(&cache.stats.misses),
            load(&cache.stats.inserts),
            load(&cache.stats.evictions),
            load(&cache.stats.collisions),
            load(&self.inner.dedups),
            load(&self.inner.timeouts),
            load(&self.inner.overloads),
            load(&self.inner.sheds),
        )
    }

    /// Number of single-flight deduplications so far.
    pub fn dedup_count(&self) -> u64 {
        self.inner.dedups.load(Ordering::Relaxed)
    }

    /// Number of requests shed by tenant admission so far.
    pub fn shed_count(&self) -> u64 {
        self.inner.sheds.load(Ordering::Relaxed)
    }

    /// The configured request-line byte cap (used by the transports).
    pub fn max_line_bytes(&self) -> usize {
        self.inner.config.max_line_bytes
    }

    pub(crate) fn obs(&self) -> &Obs {
        &self.inner.config.obs
    }
}

impl Inner {
    /// When a request with `deadline` must be answered by. The deadline
    /// is clamped to [`ServiceConfig::max_deadline_ms`] before the
    /// `Instant` addition, which panics on overflow, and a wire client
    /// controls `deadline_ms`.
    fn deadline_at(&self, deadline: Option<Duration>) -> Instant {
        let deadline_ms = deadline
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(self.config.default_deadline_ms)
            .min(self.config.max_deadline_ms);
        Instant::now()
            .checked_add(Duration::from_millis(deadline_ms))
            .unwrap_or_else(Instant::now)
    }

    /// Joins the compile `flight` of a key in flight as one more waiter.
    fn follow(&self, flight: &Arc<Flight>) -> Arc<Flight> {
        self.dedups.fetch_add(1, Ordering::Relaxed);
        self.config.obs.add("serve.singleflight.dedup", 1);
        Arc::clone(flight)
    }

    /// Appends a plan to the persistent store (when configured), then
    /// inserts it into the cache, so key-addressed requests for the same
    /// canonical form hit without recompiling. Compiler threads publish
    /// every plan they compile, and `session.edit` every plan a replay
    /// renders, though a session's own state is pinned in the registry,
    /// so evicting its plan never degrades the session.
    fn publish(&self, key: u128, encoding: &Arc<[u8]>, plan: Arc<str>) -> Served {
        let obs = &self.config.obs;
        if let Some(store) = &self.store {
            let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
            match store.append(key, encoding, &plan) {
                Ok(true) => obs.add("serve.store.appends", 1),
                Ok(false) => {}
                Err(e) => {
                    // Durability is best-effort: keep serving from
                    // memory, but say so loudly.
                    obs.add("serve.store.errors", 1);
                    eprintln!("aqua-serve: store append failed: {e}");
                }
            }
        }
        let served = Served { key, plan };
        self.cache.insert(key, Arc::clone(encoding), served.clone());
        served
    }

    /// Charges a miss to `tenant`'s concurrency quota, or sheds.
    fn admit_tenant<'a>(&'a self, tenant: &'a str) -> Result<TenantGuard<'a>, ServeError> {
        let obs = &self.config.obs;
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let state = tenants.entry(tenant.to_owned()).or_default();
        if state.inflight >= self.config.tenant_max_inflight {
            if state.inflight == 0 && state.queued == 0 {
                tenants.remove(tenant);
            }
            drop(tenants);
            self.sheds.fetch_add(1, Ordering::Relaxed);
            obs.add("serve.tenant.shed", 1);
            return Err(ServeError::Shedding);
        }
        state.inflight += 1;
        drop(tenants);
        obs.add("serve.tenant.admitted", 1);
        Ok(TenantGuard {
            inner: self,
            tenant,
        })
    }

    /// Charges a leader enqueue to `tenant`'s queue quota, or sheds.
    fn charge_tenant_queue(&self, tenant: &str) -> Result<(), ServeError> {
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let state = tenants.entry(tenant.to_owned()).or_default();
        if state.queued >= self.config.tenant_max_queued {
            drop(tenants);
            self.sheds.fetch_add(1, Ordering::Relaxed);
            self.config.obs.add("serve.tenant.queue_shed", 1);
            self.config.obs.add("serve.tenant.shed", 1);
            return Err(ServeError::Shedding);
        }
        state.queued += 1;
        Ok(())
    }

    /// Releases one queued-job slot for `tenant` (enqueue failed or a
    /// compiler thread took the job).
    fn release_tenant_queue(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(state) = tenants.get_mut(tenant) {
            state.queued = state.queued.saturating_sub(1);
            if state.inflight == 0 && state.queued == 0 {
                tenants.remove(tenant);
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        for compiler in self.compilers.drain(..) {
            let _ = compiler.join();
        }
    }
}

/// One compiler thread: takes the oldest queued job and compiles it,
/// with a recording on for a traced job. The plan is published
/// ([`Inner::publish`]: store, then cache), then the in-flight entry is
/// retired, then the job's waiters are woken — so at every instant a
/// request either hits the cache or finds the flight. A traced compile
/// leaves its replay solver in the flight for the leader. A compile
/// that panics fails only its own flight, with [`ServeError::Internal`]:
/// its in-flight entry is retired, the panic is counted (`serve.panics`)
/// and the thread goes on draining. A compiler thread takes no session
/// lock. On shutdown the thread returns once the queue is empty.
fn compile_loop(inner: &Inner) {
    let obs = &inner.config.obs;
    loop {
        let job = {
            let mut queue = inner.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The taken job no longer occupies a tenant queue slot.
        inner.release_tenant_queue(&job.tenant);
        let (key, (dag, weights, encoding)) = (job.key, &job.canonical);
        let compiled = std::panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::panic_if_armed(key);
            let rec = if job.trace {
                Recording::on()
            } else {
                Recording::off()
            };
            compile_plan_traced(dag, weights, &job.machine, obs, rec)
        }));
        let (result, solver) = match compiled {
            Ok((plan, solver)) => {
                let served = inner.publish(key, encoding, Arc::from(plan));
                (Ok(served), solver.map(Box::new))
            }
            Err(_) => {
                obs.add("serve.panics", 1);
                (Err(ServeError::Internal), None)
            }
        };
        inner
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&key);
        job.flight.complete(result, solver);
    }
}

/// A key response, written into one string sized up front.
fn success_line(id: &str, served: &Served) -> String {
    let mut out = String::with_capacity(id.len() + served.plan.len() + 80);
    let key = canon::key_hex(served.key);
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,\"key\":\"{key}\",\"plan\":");
    out.push_str(&served.plan);
    out.push('}');
    out
}

/// Appends `names` as a JSON array of strings.
fn push_names<'a>(out: &mut String, names: impl Iterator<Item = &'a str>) {
    out.push('[');
    for (i, name) in names.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_quoted(out, name);
    }
    out.push(']');
}

/// Success line with the request's `names` array (canonical node id →
/// the request's own name for it). Attached outside the cached plan, so
/// renamed-but-isomorphic requests share plan bytes while each client
/// still gets its own mapping. Written into one string sized up front.
fn success_line_named<'a>(
    id: &str,
    served: &Served,
    names: impl Iterator<Item = &'a str> + Clone,
) -> String {
    let names_len: usize = names.clone().map(|n| n.len() + 3).sum();
    let mut out = String::with_capacity(id.len() + names_len + served.plan.len() + 96);
    out.push_str("{\"id\":");
    out.push_str(id);
    out.push_str(",\"ok\":true,\"key\":\"");
    out.push_str(&canon::key_hex(served.key));
    out.push_str("\",\"names\":");
    push_names(&mut out, names);
    out.push_str(",\"plan\":");
    out.push_str(&served.plan);
    out.push('}');
    out
}

/// `member` of a `cmd` request, or the `bad_request` that names it.
fn needs<T>(member: Option<T>, cmd: &str, name: &str) -> Result<T, ServeError> {
    member.ok_or_else(|| ServeError::BadRequest(format!("`{cmd}` needs `{name}`")))
}

/// Extracts the request's tenant (same rules as the compile front
/// door: optional, non-empty, bounded length).
fn tenant_field(parsed: &Value) -> Result<&str, ServeError> {
    match parsed.get("tenant") {
        None => Ok(DEFAULT_TENANT),
        Some(v) => match v.as_str() {
            Some(t) if t.len() <= MAX_TENANT_BYTES && !t.is_empty() => Ok(t),
            _ => Err(ServeError::BadRequest(format!(
                "`tenant` must be a non-empty string of at most {MAX_TENANT_BYTES} bytes"
            ))),
        },
    }
}

pub(crate) fn error_line(id: &str, error: &ServeError) -> String {
    let tag = match error {
        ServeError::BadRequest(_) => "bad_request",
        ServeError::Overloaded => "overloaded",
        ServeError::Timeout => "timeout",
        ServeError::UnknownKey => "unknown_key",
        ServeError::Shedding => "shedding",
        ServeError::DeadlineTooLarge { .. } => "deadline_too_large",
        ServeError::TooLarge { .. } => "too_large",
        ServeError::Store(_) => "store",
        ServeError::UnknownSession => "unknown_session",
        ServeError::SessionQuota { .. } => "session_quota",
        ServeError::Internal => "internal",
    };
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":\"{tag}\",\"message\":{}}}",
        quote(&error.to_string())
    )
}

/// Re-renders a parsed value (used to echo request ids verbatim).
fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Float(x) => format!("{x}"),
        Value::Str(s) => quote(s),
        Value::Arr(items) => {
            let mut out = String::from("[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&render_value(item));
            }
            out.push(']');
            out
        }
        Value::Obj(members) => {
            let mut out = String::from("{");
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", quote(k), render_value(item));
            }
            out.push('}');
            out
        }
    }
}

fn ratio_field(v: &Value, what: &str) -> Result<Ratio, String> {
    match v {
        Value::Int(n) => Ratio::new(*n as i128, 1).map_err(|e| format!("{what}: {e}")),
        Value::Str(s) => {
            let (num, den) = match s.split_once('/') {
                Some((n, d)) => (n, d),
                None => (s.as_str(), "1"),
            };
            let num: i128 = num
                .trim()
                .parse()
                .map_err(|_| format!("{what}: bad ratio `{s}`"))?;
            let den: i128 = den
                .trim()
                .parse()
                .map_err(|_| format!("{what}: bad ratio `{s}`"))?;
            Ratio::new(num, den).map_err(|e| format!("{what}: {e}"))
        }
        _ => Err(format!("{what} must be an integer or a `num/den` string")),
    }
}

fn count_field(v: &Value, what: &str) -> Result<usize, String> {
    match v.as_int() {
        Some(n) if n >= 0 => Ok(n as usize),
        _ => Err(format!("{what} must be a non-negative integer")),
    }
}

/// The members a `machine` override object may hold.
const MACHINE_MEMBERS: [&str; 8] = [
    "max_capacity_nl",
    "least_count_nl",
    "reservoirs",
    "mixers",
    "heaters",
    "separators",
    "sensors",
    "input_ports",
];

/// Builds a request machine from the configured base plus a `machine`
/// override object. Every overridable field participates in the cache
/// key (see `canon`), so overrides can never be served a stale plan; a
/// member outside [`MACHINE_MEMBERS`] is refused, not ignored.
pub(crate) fn machine_with_overrides(base: &Machine, overrides: &Value) -> Result<Machine, String> {
    let Value::Obj(members) = overrides else {
        return Err("`machine` must be an object".to_owned());
    };
    if let Some((name, _)) = members
        .iter()
        .find(|(name, _)| !MACHINE_MEMBERS.contains(&name.as_str()))
    {
        return Err(format!("unknown `machine` member `{name}`"));
    }
    let cap = match overrides.get("max_capacity_nl") {
        Some(v) => ratio_field(v, "machine.max_capacity_nl")?,
        None => base.max_capacity_nl(),
    };
    let lc = match overrides.get("least_count_nl") {
        Some(v) => ratio_field(v, "machine.least_count_nl")?,
        None => base.least_count_nl(),
    };
    let mut machine = Machine::new(cap, lc).map_err(|e| e.to_string())?;
    for (name, count, base_count) in [
        ("reservoirs", &mut machine.reservoirs, base.reservoirs),
        ("mixers", &mut machine.mixers, base.mixers),
        ("heaters", &mut machine.heaters, base.heaters),
        ("separators", &mut machine.separators, base.separators),
        ("sensors", &mut machine.sensors, base.sensors),
        ("input_ports", &mut machine.input_ports, base.input_ports),
    ] {
        *count = match overrides.get(name) {
            Some(v) => count_field(v, name)?,
            None => base_count,
        };
    }
    Ok(machine)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    const TINY: &str = "
ASSAY tiny START
fluid A, B, m;
VAR Result[1];
m = MIX A AND B IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO Result[1];
END
";

    fn service(config: ServiceConfig) -> Service {
        Service::new(config)
    }

    /// Canonical keys whose compile panics on a compiler thread.
    static ARMED: Mutex<Vec<u128>> = Mutex::new(Vec::new());

    pub(super) fn panic_if_armed(key: u128) {
        if ARMED
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&key)
        {
            panic!("armed compile panic");
        }
    }

    thread_local! {
        /// The request-thread site that panics the next time it runs.
        static PANIC_AT: Cell<Option<&'static str>> = const { Cell::new(None) };
    }

    /// Panics if `site` is armed on this thread, and disarms it.
    pub(crate) fn panic_once_at(site: &'static str) {
        if PANIC_AT.with(|armed| armed.get() == Some(site)) {
            PANIC_AT.with(|armed| armed.set(None));
            panic!("armed request panic at {site}");
        }
    }

    #[test]
    fn a_panic_on_the_request_thread_answers_internal_and_the_next_line_is_served() {
        let (obs, sink) = Obs::recording();
        let svc = service(ServiceConfig {
            obs,
            ..ServiceConfig::default()
        });
        let internal = |id: u32| {
            format!(
                "{{\"id\":{id},\"ok\":false,\"error\":\"internal\",\"message\":{}}}",
                quote(&ServeError::Internal.to_string())
            )
        };
        let src_line = |id: u32| format!("{{\"id\":{id},\"src\":{}}}", quote(TINY));
        PANIC_AT.with(|armed| armed.set(Some("src")));
        assert_eq!(svc.handle_line(&src_line(1)), internal(1));
        let next = svc.handle_line(&src_line(2));
        assert!(next.starts_with("{\"id\":2,\"ok\":true"), "{next}");

        let registered = svc.handle_line(&format!(
            "{{\"id\":3,\"cmd\":\"session.register\",\"src\":{}}}",
            quote(TINY)
        ));
        let sid = json::parse(&registered)
            .unwrap()
            .get("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let edit = |id: u32| {
            format!(
                "{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":{},\
                 \"edit\":{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",9]]}}}}}}",
                quote(&sid)
            )
        };
        PANIC_AT.with(|armed| armed.set(Some("session.edit")));
        assert_eq!(svc.handle_line(&edit(4)), internal(4));
        // The unwound edit was taken back: the same edit now falls back
        // (the unwind dropped the replay trace) and publishes exactly the
        // plan a cold compile of the edited source gives.
        let edited = svc.handle_line(&edit(5));
        assert!(edited.contains("\"cause\":\"no_trace\""), "{edited}");
        let key = json::parse(&edited)
            .unwrap()
            .get("key")
            .unwrap()
            .as_str()
            .and_then(canon::parse_key_hex)
            .unwrap();
        let machine = Machine::paper_default();
        let cold = service(ServiceConfig::default())
            .submit_src(&TINY.replace("1 : 4", "1 : 9"), &machine, None)
            .unwrap();
        assert_eq!(key, cold.key);
        assert_eq!(svc.submit_key(key).unwrap().plan, cold.plan);
        assert_eq!(sink.snapshot().counter("serve.panics"), 2);
    }

    #[test]
    fn a_panicking_compile_fails_its_request_and_the_compilers_keep_draining() {
        // An assay no other test compiles, so arming its key touches no
        // other test's service.
        let armed_src = TINY.replace("1 : 4", "1 : 61");
        let (obs, sink) = Obs::recording();
        let svc = service(ServiceConfig {
            obs,
            ..ServiceConfig::default()
        });
        let machine = Machine::paper_default();
        let armed = Service::canon_src(&armed_src, &machine).unwrap();
        ARMED
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(armed.key);
        // The waiter gets `internal` from the flight, not a timeout.
        let deadline = Some(Duration::from_secs(600));
        assert_eq!(
            svc.submit_canon(armed, machine.clone(), deadline)
                .unwrap_err(),
            ServeError::Internal
        );
        assert!(svc
            .inner
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty());
        let line = svc.handle_line(&format!("{{\"id\":1,\"src\":{}}}", quote(&armed_src)));
        assert!(line.contains("\"error\":\"internal\""), "{line}");
        // The compiler threads survived: the next miss compiles.
        let next = svc.submit_src(TINY, &machine, deadline).unwrap();
        assert!(next.plan.starts_with("{\"status\":\"solved\""));
        let snap = sink.snapshot();
        assert_eq!(snap.counter("serve.panics"), 2);
        assert_eq!(snap.counter("serve.plan.compiles"), 1);
    }

    /// TINY with ratio `1 : parts` and its fluids named `a`, `b` and
    /// `m`; `swapped` lists the mix's parts in the other order.
    fn tiny_as(parts: u64, a: &str, b: &str, m: &str, swapped: bool) -> String {
        let mix = if swapped {
            format!("{m} = MIX {b} AND {a} IN RATIOS {parts} : 1 FOR 10;")
        } else {
            format!("{m} = MIX {a} AND {b} IN RATIOS 1 : {parts} FOR 10;")
        };
        format!(
            "\nASSAY tiny START\nfluid {a}, {b}, {m};\nVAR Result[1];\n{mix}\n\
             SENSE OPTICAL it INTO Result[1];\nEND\n"
        )
    }

    /// A `src` response's key and plan bytes, and its `names`.
    fn key_plan_names(resp: &str) -> (String, String, Vec<String>) {
        let (_, plan) = resp.split_once(",\"plan\":").expect("a success line");
        let v = json::parse(resp).expect("valid JSON");
        let Some(Value::Arr(names)) = v.get("names") else {
            panic!("no names in {resp}");
        };
        (
            v.get("key").and_then(Value::as_str).unwrap().to_owned(),
            plan.to_owned(),
            names
                .iter()
                .map(|n| n.as_str().unwrap().to_owned())
                .collect(),
        )
    }

    /// Renamed `src` requests that hit the cache, and renamed requests
    /// that join a compile in flight, answer the cold response's key and
    /// plan bytes with their own names: their own lowered DAG's names in
    /// the canonical order of their own key pass.
    #[test]
    fn renamed_hits_and_followers_answer_their_own_names() {
        assert_eq!(tiny_as(4, "A", "B", "m", false), TINY);
        let (obs, sink) = Obs::recording();
        let svc = service(ServiceConfig {
            obs,
            ..ServiceConfig::default()
        });
        let machine = Machine::paper_default();
        let src_line = |id: usize, src: &str| format!("{{\"id\":{id},\"src\":{}}}", quote(src));
        let renamed = |parts: u64| {
            [
                tiny_as(parts, "Sample", "Buffer", "mixed", false),
                tiny_as(parts, "x", "y", "z", true),
                tiny_as(parts, "B", "A", "m", true),
            ]
        };
        let check = |resp: &str, src: &str, cold: &(String, String, Vec<String>)| {
            let (key, plan, names) = key_plan_names(resp);
            assert_eq!((&key, &plan), (&cold.0, &cold.1), "{resp}");
            let (dag, weights) = lower_src(src).unwrap();
            let pass = canon::key_pass(&dag, &weights, &machine).unwrap();
            let own: Vec<&str> = pass
                .order
                .iter()
                .map(|&n| dag.node(n).name.as_str())
                .collect();
            assert_eq!(names, own);
        };

        let cold = key_plan_names(&svc.handle_line(&src_line(0, TINY)));
        for (i, src) in renamed(4).iter().enumerate() {
            check(&svc.handle_line(&src_line(i + 1, src)), src, &cold);
        }

        // A compile of another key, held in flight until every follower
        // has joined it, then finished as a compiler thread finishes one.
        let held = tiny_as(7, "A", "B", "m", false);
        let cold =
            key_plan_names(&service(ServiceConfig::default()).handle_line(&src_line(0, &held)));
        let canon = Service::canon_src(&held, &machine).unwrap();
        let flight = Arc::new(Flight::new());
        svc.inner
            .inflight
            .lock()
            .unwrap()
            .insert(canon.key, Arc::clone(&flight));
        let followers = renamed(7);
        let responses: Vec<String> = std::thread::scope(|scope| {
            let waiting: Vec<_> = followers
                .iter()
                .enumerate()
                .map(|(i, src)| {
                    let (svc, line) = (&svc, src_line(i + 10, src));
                    scope.spawn(move || svc.handle_line(&line))
                })
                .collect();
            while svc.dedup_count() < followers.len() as u64 {
                std::thread::yield_now();
            }
            let plan: Arc<str> = Arc::from(cold.1.strip_suffix('}').unwrap());
            let served = svc.inner.publish(canon.key, &canon.encoding, plan);
            svc.inner.inflight.lock().unwrap().remove(&canon.key);
            flight.complete(Ok(served), None);
            waiting.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (resp, src) in responses.iter().zip(&followers) {
            check(resp, src, &cold);
        }
        assert_eq!(sink.snapshot().counter("serve.plan.compiles"), 1);
    }

    #[test]
    fn warm_hit_is_byte_identical_to_cold() {
        let svc = service(ServiceConfig::default());
        let machine = Machine::paper_default();
        let cold = svc.submit_src(TINY, &machine, None).unwrap();
        let warm = svc.submit_src(TINY, &machine, None).unwrap();
        assert_eq!(cold.key, warm.key);
        assert_eq!(cold.plan, warm.plan);
        assert_eq!(svc.inner.cache.stats.hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn key_lookup_serves_without_compiling() {
        let svc = service(ServiceConfig::default());
        let machine = Machine::paper_default();
        let cold = svc.submit_src(TINY, &machine, None).unwrap();
        let by_key = svc.submit_key(cold.key).unwrap();
        assert_eq!(by_key.plan, cold.plan);
        assert_eq!(
            svc.submit_key(cold.key ^ 1).unwrap_err(),
            ServeError::UnknownKey
        );
    }

    #[test]
    fn zero_capacity_queue_rejects_with_overloaded() {
        let svc = service(ServiceConfig {
            queue_capacity: 0,
            ..ServiceConfig::default()
        });
        let machine = Machine::paper_default();
        let err = svc.submit_src(TINY, &machine, None).unwrap_err();
        assert_eq!(err, ServeError::Overloaded);
    }

    #[test]
    fn zero_deadline_times_out_before_enqueueing() {
        let svc = service(ServiceConfig::default());
        let machine = Machine::paper_default();
        let err = svc
            .submit_src(TINY, &machine, Some(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err, ServeError::Timeout);
        // ...but a cache hit is served even with no time budget.
        svc.submit_src(TINY, &machine, None).unwrap();
        svc.submit_src(TINY, &machine, Some(Duration::ZERO))
            .unwrap();
    }

    #[test]
    fn huge_programmatic_deadline_is_clamped_not_panicking() {
        let svc = service(ServiceConfig::default());
        let machine = Machine::paper_default();
        // Pre-fix this paniced in `Instant::now() + Duration`.
        let served = svc
            .submit_src(TINY, &machine, Some(Duration::from_millis(u64::MAX)))
            .unwrap();
        assert!(!served.plan.is_empty());
    }

    #[test]
    fn tenant_inflight_quota_sheds() {
        let svc = service(ServiceConfig {
            tenant_max_inflight: 0,
            ..ServiceConfig::default()
        });
        let machine = Machine::paper_default();
        let canon = Service::canon_src(TINY, &machine).unwrap();
        let err = svc
            .submit_canon_tenant(canon.clone(), machine.clone(), None, "acme")
            .unwrap_err();
        assert_eq!(err, ServeError::Shedding);
        assert_eq!(svc.shed_count(), 1);
        // The default tenant is bound by the same config; a hit would
        // still be served — warm the cache via a permissive service
        // config instead to prove hits bypass admission.
        let warm_svc = service(ServiceConfig {
            tenant_max_inflight: 1,
            ..ServiceConfig::default()
        });
        warm_svc
            .submit_canon_tenant(canon.clone(), machine.clone(), None, "acme")
            .unwrap();
        // Hot path: quota exhausted would not matter, hits bypass.
        warm_svc
            .submit_canon_tenant(canon, machine, None, "acme")
            .unwrap();
    }

    #[test]
    fn tenant_state_is_reclaimed_when_idle() {
        let svc = service(ServiceConfig::default());
        let machine = Machine::paper_default();
        let canon = Service::canon_src(TINY, &machine).unwrap();
        svc.submit_canon_tenant(canon, machine, None, "ephemeral")
            .unwrap();
        let tenants = svc
            .inner
            .tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(
            tenants.is_empty(),
            "tenant table must not grow without bound"
        );
    }

    #[test]
    fn handle_line_roundtrips_the_protocol() {
        let svc = service(ServiceConfig::default());
        let resp = svc.handle_line(&format!("{{\"id\":1,\"src\":{}}}", quote(TINY)));
        let v = json::parse(&resp).expect("response is valid JSON");
        assert_eq!(v.get("id").unwrap().as_int(), Some(1));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let key = v.get("key").unwrap().as_str().unwrap().to_owned();
        let replay = svc.handle_line(&format!("{{\"id\":2,\"key\":{}}}", quote(&key)));
        let rv = json::parse(&replay).unwrap();
        assert_eq!(rv.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(rv.get("plan"), v.get("plan"));
    }

    #[test]
    fn machine_override_changes_the_key() {
        let svc = service(ServiceConfig::default());
        let r1 = svc.handle_line(&format!("{{\"id\":1,\"src\":{}}}", quote(TINY)));
        let r2 = svc.handle_line(&format!(
            "{{\"id\":2,\"src\":{},\"machine\":{{\"least_count_nl\":\"1/5\"}}}}",
            quote(TINY)
        ));
        let k1 = json::parse(&r1)
            .unwrap()
            .get("key")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let k2 = json::parse(&r2)
            .unwrap()
            .get("key")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        assert_ne!(k1, k2);
    }

    #[test]
    fn malformed_lines_get_bad_request() {
        let svc = service(ServiceConfig::default());
        for line in ["not json", "{}", "{\"id\":3,\"key\":\"zz\"}"] {
            let resp = svc.handle_line(line);
            let v = json::parse(&resp).expect("error response is valid JSON");
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        }
    }

    #[test]
    fn cache_capacity_bounds_the_plans_held() {
        let svc = service(ServiceConfig {
            cache_capacity: 3,
            ..ServiceConfig::default()
        });
        let machine = Machine::paper_default();
        for parts in 1..=10 {
            let src = TINY.replace("1 : 4", &format!("1 : {}", parts + 100));
            svc.submit_src(&src, &machine, None).unwrap();
        }
        let stats = json::parse(&svc.stats_json()).unwrap();
        let field = |name: &str| stats.get(name).and_then(Value::as_int).unwrap();
        assert_eq!(field("inserts"), 10);
        assert!(
            field("cached_plans") <= 3,
            "a 3-plan cache holds {} plans",
            field("cached_plans")
        );
        assert_eq!(field("cached_plans") + field("evictions"), 10);
    }

    /// A session command's line for session `s1`.
    fn edit_line(id: u32, edit: &str) -> String {
        format!("{{\"id\":{id},\"cmd\":\"session.edit\",\"session\":\"s1\",\"edit\":{edit}}}")
    }

    /// A TINY ratio edit to `1 : b`.
    fn ratio(b: u32) -> String {
        format!("{{\"set_ratio\":{{\"node\":\"m\",\"parts\":[[\"A\",1],[\"B\",{b}]]}}}}")
    }

    /// A machine edit whose compile panics (an unchecked `Ratio`
    /// division overflows in the exact precheck) is caught on the
    /// compiler thread that ran it: the request thread never unwinds
    /// while it holds the session's lock, so the lock is not poisoned,
    /// the flight is retired, and the session keeps its key, plan and
    /// trace, and replays its next edit to the bytes of a cold compile.
    #[test]
    fn a_session_compile_that_panics_is_caught_on_a_compiler_thread() {
        let (obs, sink) = Obs::recording();
        let svc = service(ServiceConfig {
            obs,
            ..ServiceConfig::default()
        });
        let registered = svc.handle_line(&format!(
            "{{\"id\":1,\"cmd\":\"session.register\",\"src\":{}}}",
            quote(TINY)
        ));
        let (key, plan, _) = key_plan_names(&registered);
        let huge =
            "{\"set_machine\":{\"max_capacity_nl\":\"170141183460469231731687303715884105727\"}}";
        let answer = svc.handle_line(&edit_line(2, huge));
        assert!(answer.contains("\"error\":\"internal\""), "{answer}");
        assert_eq!(sink.snapshot().counter("serve.panics"), 1);
        let session = svc.inner.sessions.lookup("s1", DEFAULT_TENANT).unwrap();
        assert!(!session.is_poisoned(), "the request thread unwound");
        assert!(svc.inner.inflight.lock().unwrap().is_empty());

        let noop = svc.handle_line(&edit_line(3, &ratio(4)));
        assert!(
            noop.contains(&format!("\"key\":\"{key}\""))
                && noop.ends_with(",\"delta\":{\"replace\":{}}}"),
            "{noop}"
        );
        let edited = svc.handle_line(&edit_line(4, &ratio(9)));
        assert!(edited.contains("\"incremental\":true"), "{edited}");
        let (_, delta) = edited.split_once(",\"delta\":").unwrap();
        let plan = crate::session::apply_delta(&plan[..plan.len() - 1], &delta[..delta.len() - 1]);
        let cold = service(ServiceConfig::default())
            .submit_src(
                &TINY.replace("1 : 4", "1 : 9"),
                &Machine::paper_default(),
                None,
            )
            .unwrap();
        assert_eq!(plan.as_deref(), Some(&*cold.plan));
        assert_eq!(sink.snapshot().counter("serve.panics"), 1);
    }

    /// A probe counts a hit only for a plan its request takes: after a
    /// `src` request caches TINY's DAGSolve plan, which a session may not
    /// pin, a TINY `session.register` counts the two misses of any
    /// compile and no hit.
    #[test]
    fn a_session_register_counts_no_hit_for_a_plan_it_cannot_take() {
        let svc = service(ServiceConfig::default());
        let (_, plan, _) =
            key_plan_names(&svc.handle_line(&format!("{{\"id\":1,\"src\":{}}}", quote(TINY))));
        assert!(may_replay(&plan), "{plan}");
        let stats = &svc.inner.cache.stats;
        let counts = || {
            (
                stats.hits.load(Ordering::Relaxed),
                stats.misses.load(Ordering::Relaxed),
            )
        };
        let before = counts();
        let registered = svc.handle_line(&format!(
            "{{\"id\":2,\"cmd\":\"session.register\",\"src\":{}}}",
            quote(TINY)
        ));
        assert!(registered.contains("\"ok\":true"), "{registered}");
        let after = counts();
        assert_eq!((after.0 - before.0, after.1 - before.1), (0, 2));
    }

    /// A `session.register` that finds its state's compile in flight
    /// joins it. glycomics is `partitioned`, a plan no compile leaves a
    /// replay trace for, so the register pins the flight's plan and
    /// compiles nothing. TINY's plan may replay, so its register waits,
    /// then leads its own traced compile, and its first edit replays.
    #[test]
    fn a_session_register_joins_a_compile_in_flight() {
        let machine = Machine::paper_default();
        for (src, replays) in [(aqua_assays::glycomics::SOURCE, false), (TINY, true)] {
            let (obs, sink) = Obs::recording();
            let svc = service(ServiceConfig {
                obs,
                ..ServiceConfig::default()
            });
            let cold = service(ServiceConfig::default())
                .submit_src(src, &machine, None)
                .unwrap();
            assert_eq!(may_replay(&cold.plan), replays, "{}", &cold.plan[..40]);
            let canon = Service::canon_src(src, &machine).unwrap();
            let flight = Arc::new(Flight::new());
            svc.inner
                .inflight
                .lock()
                .unwrap()
                .insert(canon.key, Arc::clone(&flight));
            let line = format!(
                "{{\"id\":1,\"cmd\":\"session.register\",\"src\":{}}}",
                quote(src)
            );
            let registered = std::thread::scope(|scope| {
                let waiting = scope.spawn(|| svc.handle_line(&line));
                // A register that never joins the flight finishes alone.
                while svc.dedup_count() < 1 && !waiting.is_finished() {
                    std::thread::yield_now();
                }
                let served = svc
                    .inner
                    .publish(canon.key, &canon.encoding, Arc::clone(&cold.plan));
                svc.inner.inflight.lock().unwrap().remove(&canon.key);
                flight.complete(Ok(served), None);
                waiting.join().unwrap()
            });
            let (_, plan) = registered.split_once(",\"plan\":").expect("registered");
            assert_eq!(plan.strip_suffix('}'), Some(&*cold.plan));
            let snap = sink.snapshot();
            assert_eq!(svc.dedup_count(), 1);
            assert_eq!(snap.counter("serve.plan.compiles"), u64::from(replays));
            assert_eq!(snap.counter("incr.plan_reuse"), u64::from(!replays));
            if replays {
                let edited = svc.handle_line(&edit_line(2, &ratio(9)));
                assert!(edited.contains("\"incremental\":true"), "{edited}");
            }
        }
    }
}
