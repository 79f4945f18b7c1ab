//! `aqua-serve` — the plan-compilation service.
//!
//! The paper's pipeline (assay DAG → Fig. 6 hierarchy → dispensing
//! plan) is recomputed from scratch on every compiler invocation, but
//! deployments re-run the same assays thousands of times. This crate
//! turns the pipeline into a multi-threaded service:
//!
//! * [`canon`] — canonicalizes a request (deterministic node order,
//!   fluid-name interning, machine-spec folding) into a
//!   content-addressed cache key;
//! * [`cache`] — a lock-striped LRU over compiled plans with
//!   exact-encoding collision rejection;
//! * [`service`] — one cache, single-flight admission, one bounded
//!   queue with typed `Overloaded`/`Timeout`/`Shedding` rejections,
//!   per-tenant quotas, and one compiler thread per core;
//! * [`store`] — a disk-backed content-addressed plan store (CRC-guarded
//!   append-only segment log with torn-tail recovery and compaction)
//!   that rehydrates the cache across restarts;
//! * [`server`] — NDJSON request/response fronts over stdin and TCP,
//!   with bounded line lengths and a transient-error-tolerant accept
//!   loop;
//! * [`plan`] / [`json`] — deterministic plan rendering and the
//!   dependency-free JSON layer beneath the protocol.
//!
//! Warm responses are byte-identical to cold compiles *by
//! construction*: plans are compiled from the canonical DAG, so any
//! request mapping to the same canonical form gets the same bytes
//! whether it hit or missed.
//!
//! # Examples
//!
//! ```
//! use aqua_serve::{Service, ServiceConfig};
//! use aqua_volume::Machine;
//!
//! let service = Service::new(ServiceConfig::default());
//! let src = "
//! ASSAY doc START
//! fluid A, B, m;
//! VAR Result[1];
//! m = MIX A AND B IN RATIOS 1 : 4 FOR 10;
//! SENSE OPTICAL it INTO Result[1];
//! END
//! ";
//! let machine = Machine::paper_default();
//! let cold = service.submit_src(src, &machine, None)?;
//! let warm = service.submit_src(src, &machine, None)?;
//! assert_eq!(cold.plan, warm.plan); // byte-identical
//! # Ok::<(), aqua_serve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod canon;
pub mod json;
pub mod plan;
pub mod server;
pub mod service;
pub mod session;
pub mod store;

pub use canon::{canonicalize, key_hex, parse_key_hex, Canon, CanonError};
pub use plan::compile_plan;
pub use server::{serve_stdin, spawn_tcp};
pub use service::{ServeError, Served, Service, ServiceConfig};
pub use session::apply_delta;
pub use store::{PlanStore, Record, RecoveryReport, StoreConfig};
