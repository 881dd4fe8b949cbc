#![deny(missing_docs)]
//! Host runtime for the NetPU-M accelerator.
//!
//! Models everything outside the programmable logic that the paper's
//! measurements include:
//!
//! * [`dma`] — the DMA / Processing System transfer path (the constant
//!   ≈6 µs gap between Table V simulation and Table VI measurement).
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
pub mod dma;
pub mod driver;
pub mod power;
pub mod value;

pub use cluster::{Cluster, ClusterThroughput};
pub use dma::DmaModel;
pub use driver::{
    Admitted, Driver, DriverBuilder, DriverError, InferPayload, InferRequest, InferResponse,
    MeasuredRun, ModelSource, RequestOptions,
};
pub use netpu_check::{AdmissionVerdict, RejectReason};
pub use netpu_trace::TraceSink;
pub use power::PowerParams;
pub use value::{ValueKernel, ValueSlot, SHADOW_EVERY};
