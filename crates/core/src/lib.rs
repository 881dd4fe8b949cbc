#![deny(missing_docs)]
//! The NetPU-M accelerator core: a cycle-level behavioral model of the
//! paper's three-stage architecture.
//!
//! * [`config`] — synthesis-time structural parameters.
//! * [`genconfig`] — the paper's Verilog-macro configuration generator
//!   (renders/parses the `` `define `` header the generation blocks use).
//! * [`tnpu`] — the Transformable Neuron Processing Unit datapath and
//!   its crossbar (Fig. 3).
//! * [`lpu`] — the Layer Processing Unit: buffer cluster (Table III)
//!   and the Layer/Neuron Initialization + Neuron Processing workflow
//!   (Fig. 4).
//! * [`netpu`] — the top Network Processing Unit: recycling LPU ring,
//!   stream-driven control (§III.B.3), MaxOut output.
//! * [`cycles`] — the per-layer, per-phase cycle breakdown both
//!   simulator engines and the static timing certificate emit.
//! * [`batch`] — the batch fast path: cycle counts from one
//!   phase-skipping run, values from the batch-major bitsliced kernel.
//! * [`resources`] — the compositional FPGA resource model calibrated
//!   against Tables IV and V.
//!
//! The model is *bit-exact* against `netpu_nn::reference` (tested in the
//! workspace integration suite) and *cycle-accounted* per the latency
//! model documented in `DESIGN.md` §4.

pub mod batch;
pub mod config;
pub mod cycles;
pub mod genconfig;
pub mod lpu;
pub mod netpu;
pub mod resources;
pub mod tnpu;

pub use batch::{run_batch_fast, BatchEngine, SlabBreakdown, SLAB_WIDTH};
pub use config::{ConfigError, HwConfig, MulImpl};
pub use cycles::{CycleBreakdown, LayerCycles, LayerPhase, StreamPhase};
pub use netpu::{
    run_inference, run_inference_fast, run_inference_observed, InferenceRun, NetPu, NetPuError,
};
