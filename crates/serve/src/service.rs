//! The plan-compilation service: routing, admission, single-flight,
//! batching, durability.
//!
//! Request lifecycle (every stage is spanned through `aqua-obs`):
//!
//! 1. **Canonicalize** — the request's DAG, output weights, and machine
//!    are folded into a [`Canon`] whose key addresses the cache.
//! 2. **Route** — the key picks a worker shard on a consistent-hash
//!    ring (see [`crate::shard`]). Each worker owns its own LRU,
//!    single-flight table, queue, and batcher thread, so shards never
//!    contend on one lock.
//! 3. **Cache probe** — a hit (with encoding verification) returns the
//!    cached plan bytes immediately. Hits bypass tenant admission:
//!    they cost nanoseconds and shedding them would punish warm
//!    tenants for cold ones.
//! 4. **Tenant admission** — a miss is charged against its tenant's
//!    concurrency quota, and a leader enqueue against the tenant's
//!    queue quota; exceeding either sheds the request with the typed
//!    [`ServeError::Shedding`] rejection (`serve.tenant.*` counters).
//! 5. **Single-flight admission** — concurrent misses for the *same*
//!    key coalesce onto one in-flight compile; only the first becomes a
//!    queued job, the rest wait on its in-flight entry. Distinct misses
//!    enter the worker's bounded queue; a full queue rejects with
//!    [`ServeError::Overloaded`] instead of building unbounded backlog.
//! 6. **Batched solve** — each worker's batcher drains up to
//!    `max_batch` queued jobs and fans them out on `aqua_lp::batch`'s
//!    claim-counter pool, appends the results to the persistent plan
//!    store (when configured), then publishes cache-first so later
//!    requests hit before the in-flight entry is retired.
//! 7. **Deadlines** — every request carries a deadline, clamped to
//!    [`ServiceConfig::max_deadline_ms`] (a hostile `deadline_ms` can
//!    therefore never overflow `Instant + Duration`); waiting past it
//!    returns [`ServeError::Timeout`]. A request admitted with an
//!    already-expired deadline times out deterministically *before*
//!    enqueueing, which the golden protocol tests rely on.
//!
//! With a [`StoreConfig`] set, the service rehydrates every durable
//! plan into the worker caches at startup, so warm-equals-cold
//! byte-identity survives a process restart (proven end-to-end by the
//! `bench` binary's kill-and-restart phase).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aqua_dag::{Dag, NodeId};
use aqua_obs::fleet::FleetSink;
use aqua_obs::Obs;
use aqua_rational::Ratio;
use aqua_volume::Machine;

use crate::cache::ShardedLru;
use crate::canon::{self, Canon};
use crate::json::{self, push_quoted, quote, Value};
use crate::plan::compile_plan;
use crate::session::SessionStore;
use crate::shard::Ring;
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
    /// Total cached plans across all workers (each worker's LRU holds
    /// `ceil(cache_capacity / worker_shards)`).
    pub cache_capacity: usize,
    /// Independently locked cache shards *per worker*.
    pub cache_shards: usize,
    /// Worker shards keys are consistently hashed over; each owns its
    /// LRU + single-flight table + queue + batcher thread.
    pub worker_shards: usize,
    /// Bound on queued (admitted, not yet solved) jobs across the
    /// service; each worker's queue holds `ceil(queue_capacity /
    /// worker_shards)`. `0` rejects every miss with `Overloaded` (used
    /// by the golden tests).
    pub queue_capacity: usize,
    /// Worker threads for each batch solve; `0` = all available cores.
    pub solver_threads: usize,
    /// Most jobs drained per batch flush.
    pub max_batch: usize,
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
            cache_shards: 8,
            worker_shards: 4,
            queue_capacity: 256,
            solver_threads: 0,
            max_batch: 16,
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
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Served, ServeError>) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        *done = Some(result);
        self.cv.notify_all();
    }
}

struct Job {
    canon: Canon,
    machine: Machine,
    tenant: String,
    flight: Arc<Flight>,
}

/// One worker shard: an LRU, a single-flight table, and a bounded
/// queue its dedicated batcher drains. Workers share nothing but the
/// tenant table and counters, so routing distributes lock pressure.
struct Worker {
    cache: ShardedLru,
    inflight: Mutex<HashMap<u128, Arc<Flight>>>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
}

#[derive(Default)]
struct TenantState {
    inflight: usize,
    queued: usize,
}

struct Inner {
    config: ServiceConfig,
    ring: Ring,
    workers: Vec<Worker>,
    sessions: SessionStore,
    store: Option<Mutex<PlanStore>>,
    tenants: Mutex<HashMap<String, TenantState>>,
    per_worker_queue: usize,
    shutdown: AtomicBool,
    dedups: AtomicU64,
    timeouts: AtomicU64,
    overloads: AtomicU64,
    sheds: AtomicU64,
}

impl Inner {
    fn worker(&self, key: u128) -> &Worker {
        &self.workers[self.ring.route(key)]
    }
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
/// an [`Arc`]; dropping the last handle shuts the batchers down after
/// they drain their queues.
pub struct Service {
    inner: Arc<Inner>,
    batchers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts a service (and its per-worker batcher threads) with the
    /// given config.
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
        let worker_shards = config.worker_shards.max(1);
        let per_worker_cache = config.cache_capacity.div_ceil(worker_shards).max(1);
        let per_worker_queue = if config.queue_capacity == 0 {
            0
        } else {
            config.queue_capacity.div_ceil(worker_shards)
        };
        let workers: Vec<Worker> = (0..worker_shards)
            .map(|_| Worker {
                cache: ShardedLru::new(per_worker_cache, config.cache_shards, config.obs.clone()),
                inflight: Mutex::new(HashMap::new()),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
            })
            .collect();
        let ring = Ring::new(worker_shards);

        // Open the store and rehydrate the worker caches before any
        // request can race the warm state.
        let mut store = None;
        if let Some(store_config) = config.store.clone() {
            let (opened, records, report) =
                PlanStore::open(store_config).map_err(|e| ServeError::Store(e.to_string()))?;
            for record in records {
                let worker = &workers[ring.route(record.key)];
                worker.cache.insert(
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
            ring,
            workers,
            sessions: SessionStore::new(),
            store,
            tenants: Mutex::new(HashMap::new()),
            per_worker_queue,
            config,
            shutdown: AtomicBool::new(false),
            dedups: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            overloads: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        });
        let batchers = (0..worker_shards)
            .map(|w| {
                let worker_inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("aqua-serve-batch-{w}"))
                    .spawn(move || batch_loop(&worker_inner, w))
                    .expect("spawn batcher thread")
            })
            .collect();
        Ok(Service { inner, batchers })
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
        let flat =
            aqua_lang::compile_to_flat(src).map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let (dag, map) = aqua_compiler::lower_to_dag(&flat)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        canon::canonicalize(&dag, &map.output_weights, machine)
            .map_err(|e| ServeError::BadRequest(e.to_string()))
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
        let canon = Self::canon_src(src, machine)?;
        self.submit_canon(canon, machine.clone(), deadline)
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
        let canon = canon::canonicalize(dag, weights, machine)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        self.submit_canon(canon, machine.clone(), deadline)
    }

    /// Key-addressed lookup: serves a previously compiled plan without
    /// re-running the front end. Never compiles.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownKey`] if the key is not cached.
    pub fn submit_key(&self, key: u128) -> Result<Served, ServeError> {
        self.inner
            .worker(key)
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
        let inner = &*self.inner;
        let obs = &inner.config.obs;
        let _span = obs.span("serve.submit");
        // Clamp before the Instant addition: `now + huge Duration`
        // panics, and a wire client controls `deadline_ms`.
        let deadline_ms = deadline
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(inner.config.default_deadline_ms)
            .min(inner.config.max_deadline_ms);
        let deadline_at = Instant::now()
            .checked_add(Duration::from_millis(deadline_ms))
            .unwrap_or_else(Instant::now);
        let key = canon.key;
        let worker = inner.worker(key);

        if let Some(hit) = worker.cache.get(key, &canon.encoding) {
            return Ok(hit);
        }

        // Miss path: charge the tenant's concurrency quota for the
        // whole wait (the guard releases it on every exit path).
        let _tenant_guard = inner.admit_tenant(tenant)?;

        let flight = {
            let mut inflight = worker
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Re-probe under the lock: the batcher publishes cache-first,
            // so a just-finished compile is visible here.
            if let Some(hit) = worker.cache.get(key, &canon.encoding) {
                return Ok(hit);
            }
            if let Some(flight) = inflight.get(&key) {
                inner.dedups.fetch_add(1, Ordering::Relaxed);
                obs.add("serve.singleflight.dedup", 1);
                Arc::clone(flight)
            } else {
                // The leader for this key. An already-expired deadline
                // cannot wait for any compile: reject before admitting.
                if Instant::now() >= deadline_at {
                    inner.timeouts.fetch_add(1, Ordering::Relaxed);
                    obs.add("serve.timeout", 1);
                    return Err(ServeError::Timeout);
                }
                // A leader also holds a slot in the tenant's queue
                // quota until the batcher drains its job.
                inner.charge_tenant_queue(tenant)?;
                let flight = Arc::new(Flight::new());
                {
                    let mut queue = worker.queue.lock().unwrap_or_else(PoisonError::into_inner);
                    if queue.len() >= inner.per_worker_queue {
                        drop(queue);
                        inner.release_tenant_queue(tenant);
                        inner.overloads.fetch_add(1, Ordering::Relaxed);
                        obs.add("serve.overloaded", 1);
                        return Err(ServeError::Overloaded);
                    }
                    queue.push_back(Job {
                        canon,
                        machine,
                        tenant: tenant.to_owned(),
                        flight: Arc::clone(&flight),
                    });
                }
                worker.queue_cv.notify_one();
                inflight.insert(key, Arc::clone(&flight));
                flight
            }
        };

        let mut done = flight.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = done.clone() {
                return result;
            }
            let now = Instant::now();
            if now >= deadline_at {
                inner.timeouts.fetch_add(1, Ordering::Relaxed);
                obs.add("serve.timeout", 1);
                return Err(ServeError::Timeout);
            }
            let (guard, _) = flight
                .cv
                .wait_timeout(done, deadline_at - now)
                .unwrap_or_else(PoisonError::into_inner);
            done = guard;
        }
    }

    /// Handles one NDJSON request line and renders the response line
    /// (no trailing newline). Never panics on malformed input.
    pub fn handle_line(&self, line: &str) -> String {
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return error_line(
                    "null",
                    &ServeError::BadRequest(format!("invalid JSON: {e}")),
                )
            }
        };
        let id = parsed
            .get("id")
            .map(render_value)
            .unwrap_or_else(|| "null".to_owned());

        if let Some(cmd) = parsed.get("cmd").and_then(Value::as_str) {
            return match cmd {
                "stats" => format!(
                    "{{\"id\":{id},\"ok\":true,\"stats\":{}}}",
                    self.stats_json()
                ),
                "clear_cache" => {
                    self.clear_cache();
                    format!("{{\"id\":{id},\"ok\":true}}")
                }
                "obs.snapshot" => match &self.inner.config.fleet {
                    Some(fleet) => format!(
                        "{{\"id\":{id},\"ok\":true,\"obs\":{}}}",
                        fleet.snapshot().to_json()
                    ),
                    None => error_line(
                        &id,
                        &ServeError::BadRequest(
                            "no fleet aggregator attached (start with --obs)".to_owned(),
                        ),
                    ),
                },
                "obs.reset" => match &self.inner.config.fleet {
                    Some(fleet) => {
                        fleet.reset();
                        format!("{{\"id\":{id},\"ok\":true}}")
                    }
                    None => error_line(
                        &id,
                        &ServeError::BadRequest(
                            "no fleet aggregator attached (start with --obs)".to_owned(),
                        ),
                    ),
                },
                "session.register" => self.session_register(&id, &parsed),
                "session.edit" => self.session_edit(&id, &parsed),
                "session.close" => self.session_close(&id, &parsed),
                other => error_line(
                    &id,
                    &ServeError::BadRequest(format!("unknown command `{other}`")),
                ),
            };
        }

        if let Some(key_field) = parsed.get("key") {
            let result = match key_field.as_str().and_then(canon::parse_key_hex) {
                None => Err(ServeError::BadRequest(
                    "`key` must be a 32-hex-digit string".to_owned(),
                )),
                Some(key) => self.submit_key(key),
            };
            return match result {
                Ok(served) => success_line(&id, &served),
                Err(e) => error_line(&id, &e),
            };
        }

        let Some(src) = parsed.get("src").and_then(Value::as_str) else {
            return error_line(
                &id,
                &ServeError::BadRequest("request needs `src`, `key`, or `cmd`".to_owned()),
            );
        };
        let machine = match parsed.get("machine") {
            None => self.inner.config.machine.clone(),
            Some(overrides) => {
                match machine_with_overrides(&self.inner.config.machine, overrides) {
                    Ok(m) => m,
                    Err(msg) => return error_line(&id, &ServeError::BadRequest(msg)),
                }
            }
        };
        let deadline = match parsed.get("deadline_ms") {
            None => None,
            Some(v) => match v.as_u64() {
                None => {
                    return error_line(
                        &id,
                        &ServeError::BadRequest(
                            "`deadline_ms` must be a non-negative integer".to_owned(),
                        ),
                    )
                }
                Some(ms) if ms > self.inner.config.max_deadline_ms => {
                    return error_line(
                        &id,
                        &ServeError::DeadlineTooLarge {
                            max_ms: self.inner.config.max_deadline_ms,
                        },
                    )
                }
                Some(ms) => Some(Duration::from_millis(ms)),
            },
        };
        let tenant = match parsed.get("tenant") {
            None => DEFAULT_TENANT,
            Some(v) => match v.as_str() {
                Some(t) if t.len() <= MAX_TENANT_BYTES && !t.is_empty() => t,
                _ => {
                    return error_line(
                        &id,
                        &ServeError::BadRequest(format!(
                        "`tenant` must be a non-empty string of at most {MAX_TENANT_BYTES} bytes"
                    )),
                    )
                }
            },
        };
        let mut canon = match Self::canon_src(src, &machine) {
            Ok(c) => c,
            Err(e) => return error_line(&id, &e),
        };
        // The compile never reads the names; the response does.
        let names = std::mem::take(&mut canon.names);
        match self.submit_canon_tenant(canon, machine, deadline, tenant) {
            Ok(served) => success_line_named(&id, &served, &names),
            Err(e) => error_line(&id, &e),
        }
    }

    /// Handles `session.register`: parse + lower the source, compile it
    /// cold (retaining the solve trace), pin the session, and publish
    /// the plan into the shared cache.
    fn session_register(&self, id: &str, parsed: &Value) -> String {
        let tenant = match tenant_field(parsed) {
            Ok(t) => t,
            Err(e) => return error_line(id, &e),
        };
        let Some(src) = parsed.get("src").and_then(Value::as_str) else {
            return error_line(
                id,
                &ServeError::BadRequest("`session.register` needs `src`".to_owned()),
            );
        };
        let machine = match parsed.get("machine") {
            None => self.inner.config.machine.clone(),
            Some(overrides) => {
                match machine_with_overrides(&self.inner.config.machine, overrides) {
                    Ok(m) => m,
                    Err(msg) => return error_line(id, &ServeError::BadRequest(msg)),
                }
            }
        };
        let flat = match aqua_lang::compile_to_flat(src) {
            Ok(f) => f,
            Err(e) => return error_line(id, &ServeError::BadRequest(e.to_string())),
        };
        let (dag, map) = match aqua_compiler::lower_to_dag(&flat) {
            Ok(x) => x,
            Err(e) => return error_line(id, &ServeError::BadRequest(e.to_string())),
        };
        match self.inner.sessions.register(
            tenant,
            dag,
            map.output_weights,
            machine,
            self.inner.config.tenant_max_sessions,
            self.obs(),
        ) {
            Ok(reg) => {
                self.publish_session_plan(reg.key, &reg.encoding, &reg.plan);
                let mut names = String::new();
                push_names(&mut names, &reg.names);
                format!(
                    "{{\"id\":{id},\"ok\":true,\"session\":{},\"key\":\"{}\",\
                     \"names\":{names},\"plan\":{}}}",
                    quote(&reg.id),
                    canon::key_hex(reg.key),
                    reg.plan
                )
            }
            Err(e) => error_line(id, &e),
        }
    }

    /// Handles `session.edit`: replan the session's DAG under one edit
    /// (dirty-slice replay when possible, typed cold fallback
    /// otherwise) and answer with a plan delta.
    fn session_edit(&self, id: &str, parsed: &Value) -> String {
        let tenant = match tenant_field(parsed) {
            Ok(t) => t,
            Err(e) => return error_line(id, &e),
        };
        let Some(sid) = parsed.get("session").and_then(Value::as_str) else {
            return error_line(
                id,
                &ServeError::BadRequest("`session.edit` needs `session`".to_owned()),
            );
        };
        let Some(edit) = parsed.get("edit") else {
            return error_line(
                id,
                &ServeError::BadRequest("`session.edit` needs `edit`".to_owned()),
            );
        };
        match self.inner.sessions.edit(sid, tenant, edit, self.obs()) {
            Ok(ed) => {
                if ed.changed {
                    self.publish_session_plan(ed.key, &ed.encoding, &ed.plan);
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
                out
            }
            Err(e) => error_line(id, &e),
        }
    }

    /// Handles `session.close`: drop the session's pinned state.
    fn session_close(&self, id: &str, parsed: &Value) -> String {
        let tenant = match tenant_field(parsed) {
            Ok(t) => t,
            Err(e) => return error_line(id, &e),
        };
        let Some(sid) = parsed.get("session").and_then(Value::as_str) else {
            return error_line(
                id,
                &ServeError::BadRequest("`session.close` needs `session`".to_owned()),
            );
        };
        match self.inner.sessions.close(sid, tenant, self.obs()) {
            Ok(()) => format!("{{\"id\":{id},\"ok\":true,\"closed\":{}}}", quote(sid)),
            Err(e) => error_line(id, &e),
        }
    }

    /// Number of live push-mode sessions across all tenants.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.len()
    }

    /// Publishes a session-compiled plan into the shared cache (and the
    /// persistent store, when configured) so key-addressed requests for
    /// the same canonical form hit without recompiling. Session state
    /// itself is pinned in the registry — eviction from this cache
    /// never degrades a session to the full-recompile path.
    fn publish_session_plan(&self, key: u128, encoding: &Arc<[u8]>, plan: &Arc<str>) {
        let obs = self.obs();
        if let Some(store) = &self.inner.store {
            let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
            match store.append(key, encoding, plan) {
                Ok(true) => obs.add("serve.store.appends", 1),
                Ok(false) => {}
                Err(e) => {
                    obs.add("serve.store.errors", 1);
                    eprintln!("aqua-serve: store append failed: {e}");
                }
            }
        }
        let served = Served {
            key,
            plan: Arc::clone(plan),
        };
        self.inner
            .worker(key)
            .cache
            .insert(key, Arc::clone(encoding), served);
    }

    /// Drops every cached plan from memory (bench cold path; counters
    /// and the persistent store survive — a restart would rehydrate).
    pub fn clear_cache(&self) {
        for worker in &self.inner.workers {
            worker.cache.clear();
        }
    }

    /// Number of plans held by the persistent store (`0` without one).
    pub fn store_len(&self) -> usize {
        match &self.inner.store {
            None => 0,
            Some(store) => store.lock().unwrap_or_else(PoisonError::into_inner).len(),
        }
    }

    /// Compacts the persistent store's segments, if one is configured.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] on I/O failure.
    pub fn compact_store(&self) -> Result<usize, ServeError> {
        match &self.inner.store {
            None => Ok(0),
            Some(store) => store
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .compact()
                .map_err(|e| ServeError::Store(e.to_string())),
        }
    }

    /// Current counters as a JSON object (fixed member order), summed
    /// across all worker shards.
    pub fn stats_json(&self) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let sum = |f: fn(&crate::cache::CacheStats) -> &AtomicU64| -> u64 {
            self.inner
                .workers
                .iter()
                .map(|w| load(f(&w.cache.stats)))
                .sum()
        };
        let cached: usize = self.inner.workers.iter().map(|w| w.cache.len()).sum();
        format!(
            "{{\"cached_plans\":{},\"hits\":{},\"misses\":{},\"inserts\":{},\
             \"evictions\":{},\"collisions\":{},\"singleflight_dedups\":{},\
             \"timeouts\":{},\"overloads\":{},\"sheds\":{}}}",
            cached,
            sum(|c| &c.hits),
            sum(|c| &c.misses),
            sum(|c| &c.inserts),
            sum(|c| &c.evictions),
            sum(|c| &c.collisions),
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

    /// Releases one queued-job slot for `tenant` (enqueue failed or the
    /// batcher drained the job).
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
        for worker in &self.inner.workers {
            worker.queue_cv.notify_all();
        }
        for batcher in self.batchers.drain(..) {
            let _ = batcher.join();
        }
    }
}

/// One worker's batcher: drains up to `max_batch` jobs per flush and
/// fans them out on the claim-counter pool. Results are appended to the
/// persistent store (when configured), published cache-first, then the
/// in-flight entry is retired, then waiters are woken — so at every
/// instant a request either hits the cache or finds the flight.
fn batch_loop(inner: &Inner, worker_index: usize) {
    let obs = &inner.config.obs;
    let worker = &inner.workers[worker_index];
    loop {
        let jobs: Vec<Job> = {
            let mut queue = worker.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if !queue.is_empty() {
                    break;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = worker
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let take = queue.len().min(inner.config.max_batch.max(1));
            queue.drain(..take).collect()
        };
        // The drained jobs no longer occupy tenant queue slots.
        for job in &jobs {
            inner.release_tenant_queue(&job.tenant);
        }
        obs.add("serve.batch.flushes", 1);
        obs.record("serve.batch.size", jobs.len() as u64);
        let threads = if inner.config.solver_threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            inner.config.solver_threads
        };
        let _span = obs.span("serve.batch.solve");
        let plans = aqua_lp::batch::run_parallel_threads(jobs.len(), threads, |i| {
            compile_plan(&jobs[i].canon, &jobs[i].machine, obs)
        });
        for (job, plan) in jobs.into_iter().zip(plans) {
            if let Some(store) = &inner.store {
                let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
                match store.append(job.canon.key, &job.canon.encoding, &plan) {
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
            let served = Served {
                key: job.canon.key,
                plan: Arc::from(plan),
            };
            worker.cache.insert(
                job.canon.key,
                Arc::clone(&job.canon.encoding),
                served.clone(),
            );
            worker
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&job.canon.key);
            job.flight.complete(Ok(served));
        }
    }
}

fn success_line(id: &str, served: &Served) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"key\":\"{}\",\"plan\":{}}}",
        canon::key_hex(served.key),
        served.plan
    )
}

/// Appends `names` as a JSON array of strings.
fn push_names(out: &mut String, names: &[String]) {
    out.push('[');
    for (i, name) in names.iter().enumerate() {
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
fn success_line_named(id: &str, served: &Served, names: &[String]) -> String {
    let names_len: usize = names.iter().map(|n| n.len() + 3).sum();
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

/// Builds a request machine from the configured base plus a `machine`
/// override object. Every overridable field participates in the cache
/// key (see `canon`), so overrides can never be served a stale plan.
pub(crate) fn machine_with_overrides(base: &Machine, overrides: &Value) -> Result<Machine, String> {
    if !matches!(overrides, Value::Obj(_)) {
        return Err("`machine` must be an object".to_owned());
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
    machine.reservoirs = base.reservoirs;
    machine.mixers = base.mixers;
    machine.heaters = base.heaters;
    machine.separators = base.separators;
    machine.sensors = base.sensors;
    machine.input_ports = base.input_ports;
    if let Some(v) = overrides.get("reservoirs") {
        machine.reservoirs = count_field(v, "reservoirs")?;
    }
    if let Some(v) = overrides.get("mixers") {
        machine.mixers = count_field(v, "mixers")?;
    }
    if let Some(v) = overrides.get("heaters") {
        machine.heaters = count_field(v, "heaters")?;
    }
    if let Some(v) = overrides.get("separators") {
        machine.separators = count_field(v, "separators")?;
    }
    if let Some(v) = overrides.get("sensors") {
        machine.sensors = count_field(v, "sensors")?;
    }
    if let Some(v) = overrides.get("input_ports") {
        machine.input_ports = count_field(v, "input_ports")?;
    }
    Ok(machine)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn total_hits(svc: &Service) -> u64 {
        svc.inner
            .workers
            .iter()
            .map(|w| w.cache.stats.hits.load(Ordering::Relaxed))
            .sum()
    }

    #[test]
    fn warm_hit_is_byte_identical_to_cold() {
        let svc = service(ServiceConfig::default());
        let machine = Machine::paper_default();
        let cold = svc.submit_src(TINY, &machine, None).unwrap();
        let warm = svc.submit_src(TINY, &machine, None).unwrap();
        assert_eq!(cold.key, warm.key);
        assert_eq!(cold.plan, warm.plan);
        assert_eq!(total_hits(&svc), 1);
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
    fn single_worker_config_still_works() {
        let svc = service(ServiceConfig {
            worker_shards: 1,
            ..ServiceConfig::default()
        });
        let machine = Machine::paper_default();
        let cold = svc.submit_src(TINY, &machine, None).unwrap();
        let warm = svc.submit_src(TINY, &machine, None).unwrap();
        assert_eq!(cold.plan, warm.plan);
    }
}
