#![deny(missing_docs)]
//! Quantization-aware MLP toolkit: the Brevitas/FINN-training substitute.
//!
//! The NetPU-M paper consumes *pre-trained 1/2-bit quantized MLPs from
//! FINN and Brevitas*; this crate reproduces that upstream toolchain:
//!
//! * [`tensor`] — a small parallel dense-matrix type.
//! * [`dataset`] — the synthetic MNIST-shaped digit dataset.
//! * [`float`] + [`train`] — float-domain quantization-aware training
//!   (STE fake quantization, BatchNorm).
//! * [`mod@export`] — FINN-style streamlining: folding BN and quantizers into
//!   integer thresholds (Eq. 2/3) or hardware BN parameters.
//! * [`qmodel`] — the hardware-ready [`qmodel::QuantMlp`] consumed by the
//!   compiler and the accelerator model.
//! * [`mod@reference`] — bit-exact integer/fixed-point reference inference.
//! * [`kernel`] — the packed value kernel, reading weights in place from
//!   stream-layout words.
//! * [`zoo`] — the six TFC/SFC/LFC evaluation models.
//! * [`metrics`] — accuracy and confusion matrices.
//! * [`conv`] — CNN support by lowering conv/avg-pool stages onto the
//!   FC substrate (§V future work).
//! * [`sensor`] — a synthetic smart-sensor waveform dataset (the §I
//!   IoT deployment scenario).

pub mod conv;
pub mod dataset;
pub mod export;
pub mod float;
pub mod io;
mod json;
pub mod kernel;
pub mod metrics;
pub mod qmodel;
pub mod reference;
pub mod sensor;
pub mod tensor;
pub mod train;
pub mod zoo;

pub use export::{export, BnMode, ExportConfig};
pub use float::{ActSpec, FloatMlp, LayerSpec, MlpSpec};
pub use qmodel::{BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp};
pub use zoo::ZooModel;
