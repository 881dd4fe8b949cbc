#![deny(missing_docs)]
//! Sharded multi-tenant serving core for NetPU-M.
//!
//! `netpu-serve` runs one queue over one board pool; this crate scales
//! it into a *fleet*: many tenants sharing many models over many
//! boards, where the scarce resource is the §V weight-stream loading
//! path. Four pieces (DESIGN.md §4.6):
//!
//! * [`cache`] — the Arc-shared [`CompiledModelCache`]: compile + one
//!   verdict-store admission exactly once per model id, byte-budgeted
//!   LRU eviction, and the admitted stream's bit-exact [`ValueKernel`],
//!   which lives in the driver's verdict store.
//! * [`shard`] — the live dispatch core: FNV-routed bounded shard
//!   queues over per-shard board pools, token-bucket tenant fairness,
//!   explicit backpressure; values from the kernel, cycles from the
//!   certificate, one request in [`SHADOW_EVERY`] re-checked on the
//!   simulator. Its workers are `netpu-serve`'s crash-only
//!   [`WorkerPool`](netpu_serve::WorkerPool), one per board, each
//!   bound to its shard's queue.
//! * [`sched`] — swap-aware placement over per-board weight
//!   residency, amortizing the weight stream the way the paper's
//!   runtime-reconfiguration design intends.
//! * [`replay`] — the deterministic traffic harness behind the
//!   committed `artifacts/serve/fleet_replay.tsv` report: it drives a
//!   live [`FleetServer`] at virtual arrival times, so the report
//!   measures the dispatcher the fleet runs.

pub mod cache;
pub mod metrics;
pub mod replay;
pub mod sched;
pub mod shard;
pub mod tenant;

pub use cache::{Admit, AdmittedModel, CacheStats, CompiledModelCache, LruCore};
pub use metrics::{FleetMetrics, ShardStats};
pub use netpu_runtime::{ValueKernel, SHADOW_EVERY};
pub use netpu_serve::{AdmissionVerdict, RejectReason, TraceSink};
pub use replay::{run_replay, ReplayConfig, ReplayReport, TenantRow};
pub use sched::{BoardPool, DispatchPolicy, Placement};
pub use shard::{FleetConfig, FleetRequest, FleetResponse, FleetServer, FleetSubmit, FleetTicket};
pub use tenant::{TenantLimiter, TenantPolicy, TokenBucket};
