#![deny(missing_docs)]
//! Multi-board serving layer for NetPU-M.
//!
//! The runtime's [`Cluster`](netpu_runtime::Cluster) *predicts* what a
//! multi-board deployment can sustain; this crate *executes* it. A
//! [`Server`] spawns one worker thread per board, admits
//! [`InferRequest`](netpu_runtime::InferRequest)s through a bounded
//! queue with explicit backpressure, serializes every stream transfer
//! through a shared-DMA [`arbiter`](crate::arbiter) on a virtual µs
//! clock, and enforces per-request deadlines and fault retries. The
//! measured saturation throughput reproduces the analytic
//! `min(boards/latency, 1/transfer)` bound — the §V loading bottleneck
//! at system scale (see DESIGN.md §4.2).
//!
//! Every refusal is a unified [`RejectReason`]; an optional
//! [`TraceSink`] records the request lifecycle and DMA schedule in
//! `netpu-trace`'s replayable format. The workers are the crash-only
//! [`worker`] pool (a panicking worker requeues-or-rejects its request
//! and keeps serving, DESIGN.md §4.7), which `netpu-fleet`'s sharded
//! server embeds too: each stack supplies only its
//! [`Stage`](worker::Stage), one serving attempt plus its queues and
//! counters.
//!
//! Built on `std::thread` + channels only; no async runtime.

pub mod arbiter;
pub mod faults;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod worker;

pub use arbiter::{DmaArbiter, Grant};
pub use faults::{FaultInjector, FaultPlan};
pub use metrics::MetricsSnapshot;
pub use netpu_check::RejectReason;
pub use netpu_trace::TraceSink;
pub use queue::{BoundedQueue, Push};
pub use server::{ServeResponse, Server, ServerConfig, Submit, Ticket};
pub use worker::WorkerPool;
