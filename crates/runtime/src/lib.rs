#![deny(missing_docs)]
//! Host runtime for the NetPU-M accelerator.
//!
//! Models everything outside the programmable logic that the paper's
//! measurements include:
//!
//! * [`DmaModel`] — the DMA / Processing System transfer path (the
//!   constant ≈6 µs gap between Table V simulation and Table VI
//!   measurement), defined beside the timing certificate in
//!   `netpu-check` so both price transfers with one formula.
//! * [`power`] — the wall-power model behind Table VI's `P_wall`.
//! * [`driver`] — the host driver: a unified [`Driver::run`] request
//!   API (single / batch / burst / pre-compiled loadable payloads),
//!   with batch-inference input-section reuse.
//! * [`value`] — the value path: an admitted stream's class and score
//!   from its [`ValueKernel`], cycles from its timing certificate, and
//!   the simulator as a sampled oracle.
//! * [`cluster`] — multi-FPGA deployment throughput (the §I.B
//!   multi-board application scenario).

pub mod cluster;
pub mod driver;
pub mod power;
pub mod value;

pub use cluster::{Cluster, ClusterThroughput};
pub use driver::{
    Admitted, Driver, DriverBuilder, DriverError, InferPayload, InferRequest, InferResponse,
    MeasuredRun, ModelSource, RequestOptions,
};
/// The audited numeric conversions, for the serving layers built on
/// the runtime.
pub use netpu_arith::cast;
pub use netpu_check::{DmaModel, RejectReason};
pub use netpu_trace::TraceSink;
pub use power::PowerParams;
pub use value::{ValueKernel, ValueSlot, SHADOW_EVERY};
