//! The host-side driver.
//!
//! NetPU-M's selling point is that the "runtime environment" collapses
//! to data streaming: the host compiles a model + input into a loadable
//! once, pushes it through DMA, and reads one result word back. This
//! driver wraps that flow and attaches the DMA and power models so
//! callers get Table VI-style *measured* numbers.
//!
//! All inference flows funnel through one entry point,
//! [`Driver::run`], which takes an [`InferRequest`] (single frame,
//! memoized batch, single-transfer burst, or a pre-compiled loadable)
//! and returns an [`InferResponse`]; `infer`, `infer_batch` and
//! `infer_burst` are shorthands for it. `InferRequest` is also the unit
//! of work the `netpu-serve` multi-board scheduler enqueues. Every
//! stream is admitted by one call, [`Driver::admit`], under the
//! driver's one policy, and simulated by one function. A run is
//! observed in one way only: through the [`TraceSink`] attached with
//! [`DriverBuilder::trace_sink`].

use crate::power::PowerParams;
use crate::value::{self, ValueKernel, ValueSlot};
use crate::DmaModel;
use netpu_arith::{cast, Fix};
use netpu_check::{Analysis, RejectReason, StoredStream, VerdictStore};
use netpu_compiler::{compile, Loadable, StreamError};
use netpu_core::netpu::{run_inference_fast, run_inference_observed, InferenceRun, NetPuError};
use netpu_core::resources::netpu_utilization;
use netpu_core::{BatchEngine, HwConfig, SlabBreakdown};
use netpu_nn::QuantMlp;
use netpu_sim::Observer;
use netpu_trace::TraceSink;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;

/// Simulator event window forwarded per run when a [`TraceSink`] is
/// attached: enough to hold a full small-model run without letting one
/// traced request balloon a long recording session.
const SINK_TRACE_EVENTS: usize = 1024;

/// One measured inference.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeasuredRun {
    /// Predicted class.
    pub class: usize,
    /// The winning MaxOut score behind `class`.
    #[serde(default)]
    pub score: Fix,
    /// Simulated accelerator latency (Table V style), µs.
    pub sim_latency_us: f64,
    /// Measured end-to-end latency incl. DMA/PS overhead (Table VI
    /// style), µs.
    pub measured_latency_us: f64,
    /// Modeled wall power, W.
    pub power_w: f64,
    /// Energy per inference, µJ.
    pub energy_uj: f64,
    /// Stream length in 64-bit words.
    pub stream_words: usize,
    /// Accelerator cycles.
    pub cycles: u64,
    /// SoftMax class probabilities (instances configured with
    /// `softmax_output` only).
    pub probabilities: Option<Vec<f64>>,
}

/// Driver errors.
///
/// Marked `#[non_exhaustive]`: the serving layer grows variants
/// (admission, deadlines) without breaking downstream matches. Every
/// wrapped error is reachable through [`std::error::Error::source`],
/// so callers can walk `DriverError` → [`NetPuError`] →
/// [`StreamError`]/`SimError` without matching on shapes.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum DriverError {
    /// Compilation of the model/input failed.
    Compile(StreamError),
    /// The accelerator rejected or failed on the stream.
    Accelerator(NetPuError),
    /// A run reported a non-positive latency; throughput analysis over
    /// it would divide by zero (degenerate zero-cycle or empty-model
    /// loadables).
    Degenerate {
        /// The offending latency, µs.
        latency_us: f64,
    },
    /// The serving layer dropped the request without completing it
    /// (queue closed, server shut down).
    Queue {
        /// What happened to the request.
        reason: String,
    },
    /// The per-request deadline elapsed before the result was ready.
    Timeout {
        /// The configured deadline, µs.
        deadline_us: f64,
        /// When the result would actually have been ready, µs.
        elapsed_us: f64,
    },
    /// A response carried no runs where at least one was expected.
    EmptyResponse,
    /// An admission gate refused the request. The unified
    /// [`RejectReason`] covers the driver's own static pre-flight
    /// (`RejectReason::Invalid`, carrying the verifier report with NPC
    /// rule IDs and byte offsets — rejected streams never cost
    /// simulation or DMA time) as well as serving-layer refusals
    /// (backpressure, throttling, shutdown, crash recovery), so every
    /// layer reports rejections in one machine-readable shape.
    Rejected(RejectReason),
    /// A fast value kernel and the cycle-accurate simulator disagreed
    /// on the same stream and input. The request fails closed instead
    /// of returning a class no oracle backs.
    ValueMismatch {
        /// Class and winning score from the value kernel.
        kernel: (usize, Fix),
        /// Class and winning score from the simulator.
        simulator: (usize, Fix),
    },
    /// The simulator's cycle count on an admitted stream differed from
    /// the stream's timing certificate, which the request was priced
    /// from. The request fails closed.
    CycleMismatch {
        /// Cycles the certificate states.
        certificate: u64,
        /// Cycles the simulator counted.
        simulator: u64,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Compile(e) => write!(f, "compile: {e}"),
            DriverError::Accelerator(e) => write!(f, "accelerator: {e}"),
            DriverError::Degenerate { latency_us } => {
                write!(f, "degenerate run: latency {latency_us} us")
            }
            DriverError::Queue { reason } => write!(f, "queue: {reason}"),
            DriverError::EmptyResponse => f.write_str("response carried no runs"),
            DriverError::Rejected(reason) => {
                write!(f, "admission rejected the request: {reason}")
            }
            DriverError::ValueMismatch { kernel, simulator } => write!(
                f,
                "value kernel gave class {} (score {}), simulator class {} (score {})",
                kernel.0, kernel.1, simulator.0, simulator.1
            ),
            DriverError::CycleMismatch {
                certificate,
                simulator,
            } => write!(
                f,
                "timing certificate states {certificate} cycles, simulator counted {simulator}"
            ),
            DriverError::Timeout {
                deadline_us,
                elapsed_us,
            } => write!(
                f,
                "deadline {deadline_us} us exceeded: ready at {elapsed_us:.1} us"
            ),
        }
    }
}

impl From<RejectReason> for DriverError {
    fn from(reason: RejectReason) -> DriverError {
        DriverError::Rejected(reason)
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriverError::Compile(e) => Some(e),
            DriverError::Accelerator(e) => Some(e),
            DriverError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

/// How an [`InferRequest`] refers to its model: borrowed for zero-copy
/// single-threaded use, or shared behind an [`Arc`] so the same model
/// can back many queued requests across the serving layer's worker
/// threads without cloning weights.
#[derive(Clone, Debug)]
pub enum ModelSource<'m> {
    /// Borrowed from the caller.
    Borrowed(&'m QuantMlp),
    /// Shared across threads.
    Shared(Arc<QuantMlp>),
}

impl std::ops::Deref for ModelSource<'_> {
    type Target = QuantMlp;

    fn deref(&self) -> &QuantMlp {
        match self {
            ModelSource::Borrowed(m) => m,
            ModelSource::Shared(m) => m,
        }
    }
}

impl<'m> From<&'m QuantMlp> for ModelSource<'m> {
    fn from(m: &'m QuantMlp) -> ModelSource<'m> {
        ModelSource::Borrowed(m)
    }
}

impl From<Arc<QuantMlp>> for ModelSource<'static> {
    fn from(m: Arc<QuantMlp>) -> ModelSource<'static> {
        ModelSource::Shared(m)
    }
}

impl From<QuantMlp> for ModelSource<'static> {
    fn from(m: QuantMlp) -> ModelSource<'static> {
        ModelSource::Shared(Arc::new(m))
    }
}

/// Per-request options. All default to "off"; the serving layer fills
/// unset fields from its own configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RequestOptions {
    /// Deadline on the request's end-to-end (virtual) latency, µs.
    pub deadline_us: Option<f64>,
    /// Retry budget on transient stream faults (serving layer only).
    pub retries: Option<u32>,
}

/// What an [`InferRequest`] asks the accelerator to do.
#[derive(Clone, Debug)]
pub enum InferPayload<'m> {
    /// One frame: compile model + input, stream, read one result.
    Single {
        /// The model to run.
        model: ModelSource<'m>,
        /// One input frame.
        pixels: Vec<u8>,
    },
    /// Many frames of one model, one DMA transfer per frame. The cycle
    /// model runs once (latency is input-independent for a fixed
    /// model) and the numeric datapath fans out across worker threads.
    Batch {
        /// The model to run.
        model: ModelSource<'m>,
        /// The input frames.
        inputs: Vec<Vec<u8>>,
    },
    /// Many frames pre-packaged into one stream behind a single DMA
    /// setup (§III.B.3 bursting).
    Burst {
        /// The model to run.
        model: ModelSource<'m>,
        /// The input frames.
        inputs: Vec<Vec<u8>>,
    },
    /// A pre-compiled loadable, streamed as-is.
    Loadable(Loadable),
}

/// One unit of inference work: a payload plus options. This is the
/// request type [`Driver::run`] executes and the `netpu-serve` server
/// enqueues.
#[derive(Clone, Debug)]
pub struct InferRequest<'m> {
    /// What to run.
    pub payload: InferPayload<'m>,
    /// How to run it.
    pub options: RequestOptions,
}

impl<'m> InferRequest<'m> {
    /// A single-frame request.
    pub fn single(model: impl Into<ModelSource<'m>>, pixels: Vec<u8>) -> InferRequest<'m> {
        InferRequest {
            payload: InferPayload::Single {
                model: model.into(),
                pixels,
            },
            options: RequestOptions::default(),
        }
    }

    /// A memoized multi-frame batch request.
    pub fn batch(model: impl Into<ModelSource<'m>>, inputs: Vec<Vec<u8>>) -> InferRequest<'m> {
        InferRequest {
            payload: InferPayload::Batch {
                model: model.into(),
                inputs,
            },
            options: RequestOptions::default(),
        }
    }

    /// A single-transfer burst request.
    pub fn burst(model: impl Into<ModelSource<'m>>, inputs: Vec<Vec<u8>>) -> InferRequest<'m> {
        InferRequest {
            payload: InferPayload::Burst {
                model: model.into(),
                inputs,
            },
            options: RequestOptions::default(),
        }
    }

    /// A request over a pre-compiled loadable.
    pub fn loadable(loadable: Loadable) -> InferRequest<'static> {
        InferRequest {
            payload: InferPayload::Loadable(loadable),
            options: RequestOptions::default(),
        }
    }

    /// Sets a deadline on the request's end-to-end latency.
    pub fn with_deadline_us(mut self, deadline_us: f64) -> InferRequest<'m> {
        self.options.deadline_us = Some(deadline_us);
        self
    }

    /// Sets the retry budget for transient stream faults.
    pub fn with_retries(mut self, retries: u32) -> InferRequest<'m> {
        self.options.retries = Some(retries);
        self
    }
}

/// The result of one [`InferRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct InferResponse {
    /// One measured run per frame, in request order.
    pub runs: Vec<MeasuredRun>,
    /// Sustained rate for burst requests (one DMA setup amortized over
    /// the whole burst); `None` for other payloads.
    pub burst_fps: Option<f64>,
    /// Number of separate DMA transfers the payload needed (1 for
    /// single/loadable/burst, one per frame for batch). Together with
    /// the per-run `stream_words` this determines how long the request
    /// occupies a *shared* host DMA engine.
    pub dma_transfers: usize,
    /// How a batch payload decomposed across the bitsliced and
    /// per-frame value kernels ([`SlabBreakdown`]); `None` for
    /// non-batch payloads. The serving layer's slab-occupancy metrics
    /// consume this instead of re-deriving it from the frame count, so
    /// the per-frame fallback path (tail frames *and* fallback-only
    /// models) is accounted consistently.
    pub batch_slabs: Option<SlabBreakdown>,
}

impl InferResponse {
    /// Predicted classes, one per frame.
    pub fn classes(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.class).collect()
    }

    /// Total measured latency over all frames — the time one board is
    /// occupied serving the request.
    pub fn total_latency_us(&self) -> f64 {
        self.runs.iter().map(|r| r.measured_latency_us).sum()
    }

    /// Total 64-bit words streamed over all frames.
    pub fn total_stream_words(&self) -> usize {
        self.runs.iter().map(|r| r.stream_words).sum()
    }

    /// The first (or only) run.
    pub fn first(&self) -> Option<&MeasuredRun> {
        self.runs.first()
    }
}

/// A loadable [`Driver::admit`] let through, tied to the verdict-store
/// entry that admitted it: [`Driver::run_admitted`] streams exactly
/// this loadable, under this entry's certificate.
pub struct Admitted<'l> {
    loadable: Cow<'l, Loadable>,
    stream: Arc<StoredStream<ValueSlot>>,
}

impl Admitted<'_> {
    /// The admitted loadable.
    pub fn loadable(&self) -> &Loadable {
        &self.loadable
    }

    /// The stream's analysis: every finding, and the timing
    /// certificate.
    pub fn analysis(&self) -> &Arc<Analysis> {
        self.stream.analysis()
    }
}

/// Builds a [`Driver`] from parts; unset parts default to the paper's
/// measurement setup (Table V instance, Zynq UltraScale+ PS DMA,
/// Ultra96-V2 power coefficients).
///
/// ```
/// use netpu_runtime::{DmaModel, Driver};
/// let driver = Driver::builder().dma(DmaModel::ideal()).build();
/// assert_eq!(driver.dma, DmaModel::ideal());
/// // Unset parts keep the paper defaults.
/// assert_eq!(driver.hw.clock_mhz, 100.0);
/// ```
#[derive(Clone, Debug)]
pub struct DriverBuilder {
    hw: HwConfig,
    dma: DmaModel,
    power: PowerParams,
    strict_range: bool,
    strict_equiv: bool,
    trace_sink: Option<Arc<dyn TraceSink>>,
}

impl DriverBuilder {
    /// Sets the accelerator instance configuration.
    pub fn hw(mut self, hw: HwConfig) -> DriverBuilder {
        self.hw = hw;
        self
    }

    /// Sets the DMA channel model.
    pub fn dma(mut self, dma: DmaModel) -> DriverBuilder {
        self.dma = dma;
        self
    }

    /// Sets the board power coefficients.
    pub fn power(mut self, power: PowerParams) -> DriverBuilder {
        self.power = power;
        self
    }

    /// Sets whether admission also rejects on error-class *range*
    /// findings (NPC014/NPC018/NPC020) from the pre-flight abstract
    /// interpreter, on top of the always-enforced structural errors.
    /// Defaults to `true`; lenient drivers (`false`) run provably
    /// overflow-prone loadables anyway.
    pub fn strict_range(mut self, strict: bool) -> DriverBuilder {
        self.strict_range = strict;
        self
    }

    /// Enables the opt-in **third admission tier**: requests that carry
    /// their source model (`Single`/`Batch` payloads, and every frame
    /// of a `Burst`, as `Single`) are additionally run through the
    /// `netpu-check::symex` translation validator, and error-class
    /// equivalence findings (NPC021/NPC022/NPC024) reject admission.
    /// Pre-compiled `Loadable` payloads carry no source claim unless run
    /// through [`Driver::run_compiled`] or [`Driver::admit`] with their
    /// source. Defaults to `false`: certification re-validates the
    /// compile the driver itself just performed, which honest compiles
    /// always pass, so it is a (costly) defense against compiler bugs
    /// and tampered streams rather than everyday hygiene.
    pub fn strict_equiv(mut self, strict: bool) -> DriverBuilder {
        self.strict_equiv = strict;
        self
    }

    /// Attaches a [`TraceSink`]: every simulated run of a `Single`,
    /// `Loadable`, `Batch` or `Burst` payload (a batch simulates its
    /// first frame, a burst its whole stream) forwards its simulator
    /// events and its datapath values (accumulators, post-BN words,
    /// levels, scores) to the sink as `Sim` / `Probe` trace events,
    /// followed by the timing certificate's cycle count (for a burst of
    /// `n` frames, its `burst_cycles(n)`) next to the simulator's. The
    /// sink is the one surface the serving layers record to too, and
    /// its recordings serialize to the replayable binary format.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> DriverBuilder {
        self.trace_sink = Some(sink);
        self
    }

    /// Assembles the driver.
    pub fn build(self) -> Driver {
        Driver {
            hw: self.hw,
            dma: self.dma,
            power: self.power,
            strict_range: self.strict_range,
            strict_equiv: self.strict_equiv,
            trace_sink: self.trace_sink,
            verdicts: Arc::new(VerdictStore::new()),
        }
    }
}

/// Host driver bundling the accelerator, DMA, and power models.
///
/// ```
/// use netpu_runtime::Driver;
/// use netpu_nn::{export::BnMode, zoo::ZooModel};
/// let driver = Driver::builder().build();
/// let model = ZooModel::TfcW1A1.build_untrained(1, BnMode::Folded).unwrap();
/// let run = driver.infer(&model, &vec![0u8; 784]).unwrap();
/// // Measured latency = simulated latency + the ~5.9 µs DMA/PS setup.
/// assert!(run.measured_latency_us > run.sim_latency_us);
/// assert!((6.0..8.0).contains(&run.power_w));
/// ```
#[derive(Clone, Debug)]
pub struct Driver {
    /// Accelerator instance configuration.
    pub hw: HwConfig,
    /// DMA channel model.
    pub dma: DmaModel,
    /// Power coefficients of the hosting board.
    pub power: PowerParams,
    /// Reject on error-class range-analysis findings too (default
    /// `true`); structural errors always reject.
    pub strict_range: bool,
    /// Reject on error-class symbolic-equivalence findings
    /// (NPC021/NPC022/NPC024) for payloads that carry a source model
    /// (default `false`; the opt-in third admission tier).
    pub strict_equiv: bool,
    /// Trace sink every run reports its simulator events and datapath
    /// values to; `None` (the default) records nothing.
    pub trace_sink: Option<Arc<dyn TraceSink>>,
    /// The verdict store [`Driver::admit`] answers from (DESIGN.md
    /// §4.8.1). Every clone of the driver shares it, so a `netpu-serve`
    /// server and a `netpu-fleet` cache pay a stream's analysis once.
    /// Its value slots hold each stream's [`ValueKernel`]
    /// ([`Driver::admit_values`]).
    pub verdicts: Arc<VerdictStore<ValueSlot>>,
}

impl Default for Driver {
    fn default() -> Driver {
        Driver::builder().build()
    }
}

impl Driver {
    /// Starts a [`DriverBuilder`] preset to the paper's measurement
    /// setup: the Table V instance on an Ultra96-V2 behind the Zynq
    /// UltraScale+ PS DMA.
    pub fn builder() -> DriverBuilder {
        DriverBuilder {
            hw: HwConfig::paper_instance(),
            dma: DmaModel::zynq_uls(),
            power: PowerParams::ultra96(),
            strict_range: true,
            strict_equiv: false,
            trace_sink: None,
        }
    }

    /// Runs one inference request — the single entry point all the
    /// convenience wrappers and the `netpu-serve` scheduler funnel
    /// through.
    pub fn run(&self, req: InferRequest<'_>) -> Result<InferResponse, DriverError> {
        match req.payload {
            InferPayload::Single { model, pixels } => {
                let loadable = compile(&model, &pixels).map_err(DriverError::Compile)?;
                self.run_compiled(&loadable, Some(&model))
            }
            InferPayload::Loadable(loadable) => self.run_compiled(&loadable, None),
            InferPayload::Batch { model, inputs } => self.run_batch(&model, &inputs),
            InferPayload::Burst { model, inputs } => self.run_burst(&model, &inputs),
        }
    }

    /// Runs one loadable, compiled from `source` when given, as a
    /// one-frame request: under [`strict_equiv`](DriverBuilder::strict_equiv)
    /// admission validates the stream against `source`, exactly as for a
    /// [`InferPayload::Single`] request. The serving layer streams its
    /// compiled single-frame requests through here, so they keep their
    /// source through admission.
    pub fn run_compiled(
        &self,
        loadable: &Loadable,
        source: Option<&QuantMlp>,
    ) -> Result<InferResponse, DriverError> {
        let admitted = self.admit(Cow::Borrowed(loadable), self.claim(source))?;
        self.run_admitted(&admitted)
    }

    /// Compiles and runs one inference.
    pub fn infer(&self, model: &QuantMlp, pixels: &[u8]) -> Result<MeasuredRun, DriverError> {
        only(self.run(InferRequest::single(model, pixels.to_vec()))?)
    }

    /// Runs a pre-compiled loadable (on the cycle-exact fast path; the
    /// `fast_path` differential suite pins it to the tick path).
    pub fn run_loadable(&self, loadable: &Loadable) -> Result<MeasuredRun, DriverError> {
        only(self.run_compiled(loadable, None)?)
    }

    /// The one admission call (DESIGN.md §4.8, §4.8.1): one verdict-store
    /// lookup of `loadable`, validated against `source` when one is
    /// given, then the driver's policy: structural errors always refuse,
    /// error-class range findings under [`strict_range`](DriverBuilder::strict_range),
    /// equivalence findings under [`strict_equiv`](DriverBuilder::strict_equiv).
    /// Findings a lenient driver admits stay readable in
    /// [`Admitted::analysis`]; a refusal carries the verifier report.
    pub fn admit<'l>(
        &self,
        loadable: Cow<'l, Loadable>,
        source: Option<&QuantMlp>,
    ) -> Result<Admitted<'l>, RejectReason> {
        let stream = self.verdicts.lookup(&loadable.words, &self.hw, source);
        stream
            .analysis()
            .admit(self.strict_range, self.strict_equiv)?;
        Ok(Admitted { loadable, stream })
    }

    /// Streams an admitted loadable as a one-frame request.
    pub fn run_admitted(&self, admitted: &Admitted<'_>) -> Result<InferResponse, DriverError> {
        let words = admitted.loadable.words.clone();
        let run = self.simulate(words, Some(admitted.analysis()), 1)?;
        let len = admitted.loadable.len();
        Ok(InferResponse {
            runs: vec![self.price(run.class, run.score, run.cycles, run.probabilities, len)],
            burst_fps: None,
            dma_transfers: 1,
            batch_slabs: None,
        })
    }

    /// Admission for the value path (DESIGN.md §4.6): `loadable`,
    /// compiled from `source`, is admitted as [`run_compiled`](Driver::run_compiled)
    /// would admit it. The entry's [`ValueKernel`] is built on the
    /// stream's first value request and cross-checked once against the
    /// simulator on the zero input; a failed cross-check stays recorded
    /// and refuses the stream on every later call. The returned run is
    /// the zero-input inference priced from the timing certificate, so a
    /// stream the store still holds is admitted with one lookup: no
    /// simulation and no weight decode.
    pub fn admit_values(
        &self,
        loadable: &Loadable,
        source: &QuantMlp,
    ) -> Result<(ValueKernel, MeasuredRun), DriverError> {
        let admitted = self.admit(Cow::Borrowed(loadable), self.claim(Some(source)))?;
        let value = Arc::clone(
            self.verdicts
                .value(&admitted.stream, value::build)
                .as_ref()
                .map_err(Clone::clone)?,
        );
        let ((class, score), probabilities) = value.zero_input();
        let run = self.price(class, score, value.cycles(), probabilities, loadable.len());
        Ok((ValueKernel::new(admitted.stream, value), run))
    }

    /// Streams a pre-packaged burst of inferences through one DMA
    /// transfer (one setup cost for the whole burst), returning the
    /// classes and the sustained rate in frames per second.
    pub fn infer_burst(
        &self,
        model: &QuantMlp,
        inputs: &[Vec<u8>],
    ) -> Result<(Vec<usize>, f64), DriverError> {
        let resp = self.run(InferRequest::burst(model, inputs.to_vec()))?;
        let fps = resp.burst_fps.unwrap_or(0.0);
        Ok((resp.classes(), fps))
    }

    /// Runs a batch of inputs against one model.
    ///
    /// The accelerator's latency is input-independent for a fixed model
    /// (a property the workspace test suite enforces), so the cycle
    /// model runs **once** — on the first frame — and its timing, power
    /// and stream figures are memoized for the rest. Per-frame values
    /// (class, scores) come from the cheapest bit-exact kernel the
    /// model admits ([`BatchEngine`]): fully binary models sweep full
    /// 64-image slabs through the batch-major bitsliced kernel, with
    /// whole slabs as the unit of rayon parallel work and only the
    /// sub-slab tail falling back to the per-frame packed walk; other
    /// models keep the per-frame packed fan-out.
    pub fn infer_batch(
        &self,
        model: &QuantMlp,
        inputs: &[Vec<u8>],
    ) -> Result<Vec<MeasuredRun>, DriverError> {
        let resp = self.run(InferRequest::batch(model, inputs.to_vec()))?;
        Ok(resp.runs)
    }

    /// `source` when this driver validates against it: under
    /// [`strict_equiv`](DriverBuilder::strict_equiv).
    fn claim<'m>(&self, source: Option<&'m QuantMlp>) -> Option<&'m QuantMlp> {
        source.filter(|_| self.strict_equiv)
    }

    /// Simulates an admitted stream of `frames` loadables, one or a
    /// burst, on the fast engine. With a sink attached, the run's events
    /// and datapath values go to it, then the cycle count `analysis`
    /// certifies for the stream next to the simulator's. The events are
    /// forwarded even when the run failed — a failing stream's events
    /// are exactly what an anomaly trace exists to capture.
    fn simulate(
        &self,
        words: Vec<u64>,
        analysis: Option<&Analysis>,
        frames: u64,
    ) -> Result<InferenceRun, DriverError> {
        let Some(sink) = self.trace_sink.as_deref() else {
            return run_inference_fast(&self.hw, words).map_err(DriverError::Accelerator);
        };
        let mut observer = Observer::new(SINK_TRACE_EVENTS, true);
        let outcome = run_inference_observed(&self.hw, words, &mut observer);
        let mut t_end = 0.0f64;
        for ev in observer.events() {
            let t_us = netpu_sim::cycles_to_us(ev.cycle, self.hw.clock_mhz);
            t_end = t_end.max(t_us);
            sink.record(
                t_us,
                netpu_trace::TraceEvent::Sim {
                    cycle: ev.cycle,
                    scope: ev.scope.to_string(),
                    message: ev.message.clone(),
                },
            );
        }
        for sample in observer.samples() {
            sink.record(t_end, netpu_trace::TraceEvent::probe(sample));
        }
        let run = outcome.map_err(DriverError::Accelerator)?;
        // `xtask replay` cross-checks the closed-form timing model
        // (DESIGN.md §4.9) against every recorded run from this pair.
        if let Some(timing) = analysis.and_then(|a| a.timing.as_ref()) {
            for (key, cycles) in [
                ("timing.predicted_cycles", timing.burst_cycles(frames)),
                ("timing.recorded_cycles", run.cycles),
            ] {
                let (key, value) = (key.to_string(), cycles.to_string());
                sink.record(t_end, netpu_trace::TraceEvent::Meta { key, value });
            }
        }
        Ok(run)
    }

    /// One inference's measurements from its class, score and cycle
    /// count: the DMA and power models over the simulated latency.
    fn price(
        &self,
        class: usize,
        score: Fix,
        cycles: u64,
        probabilities: Option<Vec<f64>>,
        stream_words: usize,
    ) -> MeasuredRun {
        let sim_latency_us = netpu_sim::cycles_to_us(cycles, self.hw.clock_mhz);
        let measured =
            self.dma
                .measured_latency_us(sim_latency_us, stream_words, self.hw.clock_mhz);
        let util = netpu_utilization(&self.hw);
        let power = self.power.wall_power_w(&util, self.hw.clock_mhz);
        MeasuredRun {
            class,
            score,
            sim_latency_us,
            measured_latency_us: measured,
            power_w: power,
            energy_uj: power * measured,
            stream_words,
            cycles,
            probabilities,
        }
    }

    fn run_batch(
        &self,
        model: &QuantMlp,
        inputs: &[Vec<u8>],
    ) -> Result<InferResponse, DriverError> {
        let Some(first) = inputs.first() else {
            return Ok(InferResponse {
                runs: Vec::new(),
                burst_fps: None,
                dma_transfers: 0,
                batch_slabs: Some(SlabBreakdown::default()),
            });
        };
        // Same validation `Loadable::replace_input` performs on the
        // sequential path, hoisted in front of any simulation time.
        let expected = model.input.len;
        for pixels in inputs {
            if pixels.len() != expected {
                return Err(DriverError::Compile(StreamError::InputLength {
                    expected,
                    got: pixels.len(),
                }));
            }
        }
        let loadable = compile(model, first).map_err(DriverError::Compile)?;
        let template = only(self.run_compiled(&loadable, Some(model))?)?;
        let softmax = self.hw.softmax_output;
        let engine = BatchEngine::new(model);
        // Slab sweep: fully binary models advance 64 images per u64
        // lane through the bitsliced kernel, so the unit of parallel
        // work is one slab (the sub-slab tail falls back to the
        // per-frame packed walk inside the engine). Fallback models
        // parallelize per frame, where slab-sized chunks would only
        // serialize work.
        let runs: Vec<MeasuredRun> = inputs
            .par_chunks(engine.chunk_width())
            .map(|slab| {
                engine
                    .run_slab(slab)
                    .into_iter()
                    .map(|out| MeasuredRun {
                        class: out.class,
                        score: out.scores[out.class],
                        probabilities: softmax.then(|| netpu_arith::softmax::softmax(&out.scores)),
                        ..template.clone()
                    })
                    .collect::<Vec<MeasuredRun>>()
            })
            .collect::<Vec<Vec<MeasuredRun>>>()
            .into_iter()
            .flatten()
            .collect();
        debug_assert_eq!(runs.first().map(|r| r.class), Some(template.class));
        Ok(InferResponse {
            runs,
            burst_fps: None,
            dma_transfers: inputs.len(),
            batch_slabs: Some(engine.slab_breakdown(inputs.len())),
        })
    }

    /// One stream of every frame's loadable back to back (§III.B.3).
    /// Each frame's loadable is admitted as a `Single` request of that
    /// frame would be, then the whole stream is simulated once.
    fn run_burst(
        &self,
        model: &QuantMlp,
        inputs: &[Vec<u8>],
    ) -> Result<InferResponse, DriverError> {
        let Some(first) = inputs.first() else {
            return Ok(InferResponse {
                runs: Vec::new(),
                burst_fps: Some(0.0),
                dma_transfers: 0,
                batch_slabs: None,
            });
        };
        let mut loadable = compile(model, first).map_err(DriverError::Compile)?;
        let mut words = Vec::with_capacity(loadable.len() * inputs.len());
        let mut analysis = None;
        for pixels in inputs {
            loadable
                .replace_input(pixels)
                .map_err(DriverError::Compile)?;
            let admitted = self.admit(Cow::Borrowed(&loadable), self.claim(Some(model)))?;
            analysis = Some(Arc::clone(admitted.analysis()));
            words.extend_from_slice(&loadable.words);
        }
        let n = inputs.len();
        let total_words = words.len();
        let run = self.simulate(words, analysis.as_deref(), cast::u64_from_usize(n))?;
        let cycles = run.cycles;
        let total_us = self.dma.setup_us + netpu_sim::cycles_to_us(cycles, self.hw.clock_mhz);
        let fps = cast::f64_from_usize(n) * 1e6 / total_us;
        let util = netpu_utilization(&self.hw);
        let power = self.power.wall_power_w(&util, self.hw.clock_mhz);
        // Per-frame decomposition: frame i spans the cycles between the
        // (i−1)-th and i-th result words (the last frame absorbs the
        // stream tail), and the single DMA setup is amortized evenly,
        // so the per-frame figures sum back to the burst totals.
        let setup_share = self.dma.setup_us / cast::f64_from_usize(n);
        let base_words = total_words / n;
        let mut runs = Vec::with_capacity(run.results.len());
        let mut prev_end = 0u64;
        for (i, (class, score, done_at)) in run.results.iter().enumerate() {
            let end = if i + 1 == run.results.len() {
                cycles
            } else {
                done_at + 1
            };
            let frame_cycles = end.saturating_sub(prev_end);
            prev_end = end;
            let sim_us = netpu_sim::cycles_to_us(frame_cycles, self.hw.clock_mhz);
            let measured = sim_us + setup_share;
            runs.push(MeasuredRun {
                class: *class,
                score: *score,
                sim_latency_us: sim_us,
                measured_latency_us: measured,
                power_w: power,
                energy_uj: power * measured,
                stream_words: if i == 0 {
                    total_words - base_words * (n - 1)
                } else {
                    base_words
                },
                cycles: frame_cycles,
                probabilities: None,
            });
        }
        Ok(InferResponse {
            runs,
            burst_fps: Some(fps),
            dma_transfers: 1,
            batch_slabs: None,
        })
    }
}

/// The one run of a one-frame response.
fn only(resp: InferResponse) -> Result<MeasuredRun, DriverError> {
    resp.runs
        .into_iter()
        .next()
        .ok_or(DriverError::EmptyResponse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;
    use netpu_nn::{dataset, reference};

    #[test]
    fn measured_run_is_consistent() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(1, BnMode::Folded)
            .unwrap();
        let px = vec![100u8; 784];
        let run = driver.infer(&model, &px).unwrap();
        assert_eq!(run.class, reference::infer(&model, &px));
        assert!(run.measured_latency_us > run.sim_latency_us);
        assert!((run.measured_latency_us - run.sim_latency_us - 5.9).abs() < 1e-6);
        assert!((6.0..8.0).contains(&run.power_w));
        assert!(run.energy_uj > 0.0);
    }

    #[test]
    fn run_single_matches_infer_wrapper() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(8, BnMode::Folded)
            .unwrap();
        let px = vec![31u8; 784];
        let resp = driver
            .run(InferRequest::single(&model, px.clone()))
            .unwrap();
        assert_eq!(resp.runs.len(), 1);
        assert_eq!(resp.dma_transfers, 1);
        assert_eq!(resp.burst_fps, None);
        assert_eq!(resp.runs[0], driver.infer(&model, &px).unwrap());
        assert_eq!(resp.total_stream_words(), resp.runs[0].stream_words);
        assert!((resp.total_latency_us() - resp.runs[0].measured_latency_us).abs() < 1e-12);
    }

    #[test]
    fn run_accepts_shared_models() {
        // The serving layer enqueues Arc-backed requests; results must
        // be identical to the borrowed path.
        let driver = Driver::builder().build();
        let model = std::sync::Arc::new(
            ZooModel::TfcW1A1
                .build_untrained(12, BnMode::Folded)
                .unwrap(),
        );
        let px = vec![77u8; 784];
        let shared = driver
            .run(InferRequest::single(model.clone(), px.clone()))
            .unwrap();
        let borrowed = driver
            .run(InferRequest::single(model.as_ref(), px))
            .unwrap();
        assert_eq!(shared, borrowed);
    }

    #[test]
    fn error_sources_walk_to_the_stream_error() {
        use std::error::Error;
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(3, BnMode::Folded)
            .unwrap();
        let err = driver.infer(&model, &[0u8; 7]).unwrap_err();
        let source = err.source().expect("compile errors carry a source");
        assert!(source.downcast_ref::<StreamError>().is_some());
        // And serving-layer variants format + chain cleanly.
        let t = DriverError::Timeout {
            deadline_us: 10.0,
            elapsed_us: 25.0,
        };
        assert!(t.to_string().contains("deadline"));
        assert!(t.source().is_none());
    }

    #[test]
    fn batch_reuses_compiled_model() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(2, BnMode::Folded)
            .unwrap();
        let ds = dataset::generate(4, 3, &dataset::GeneratorConfig::default());
        let inputs: Vec<Vec<u8>> = ds.examples.iter().map(|e| e.pixels.clone()).collect();
        let runs = driver.infer_batch(&model, &inputs).unwrap();
        assert_eq!(runs.len(), 4);
        for (run, e) in runs.iter().zip(&ds.examples) {
            assert_eq!(run.class, reference::infer(&model, &e.pixels));
        }
        // Latency is input-independent for a fixed model.
        assert!(runs.windows(2).all(|w| w[0].cycles == w[1].cycles));
        assert!(driver.infer_batch(&model, &[]).unwrap().is_empty());
    }

    #[test]
    fn batch_matches_per_frame_inference() {
        // The memoized parallel batch must agree with running each
        // frame through the full driver individually.
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW2A2
            .build_untrained(7, BnMode::Hardware)
            .unwrap();
        let ds = dataset::generate(6, 11, &dataset::GeneratorConfig::default());
        let inputs: Vec<Vec<u8>> = ds.examples.iter().map(|e| e.pixels.clone()).collect();
        let batch = driver.infer_batch(&model, &inputs).unwrap();
        for (run, pixels) in batch.iter().zip(&inputs) {
            let single = driver.infer(&model, pixels).unwrap();
            assert_eq!(run, &single);
        }
    }

    #[test]
    fn batch_validates_every_frame_length() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(5, BnMode::Folded)
            .unwrap();
        let inputs = vec![vec![1u8; 784], vec![2u8; 10], vec![3u8; 784]];
        assert!(matches!(
            driver.infer_batch(&model, &inputs),
            Err(DriverError::Compile(StreamError::InputLength {
                expected: 784,
                got: 10,
            }))
        ));
    }

    #[test]
    fn batch_softmax_probabilities_are_per_frame() {
        let driver = Driver::builder()
            .hw(netpu_core::HwConfig {
                softmax_output: true,
                ..netpu_core::HwConfig::paper_instance()
            })
            .build();
        let model = ZooModel::TfcW1A1
            .build_untrained(6, BnMode::Folded)
            .unwrap();
        let ds = dataset::generate(3, 17, &dataset::GeneratorConfig::default());
        let inputs: Vec<Vec<u8>> = ds.examples.iter().map(|e| e.pixels.clone()).collect();
        let runs = driver.infer_batch(&model, &inputs).unwrap();
        for (run, pixels) in runs.iter().zip(&inputs) {
            let probs = run.probabilities.as_ref().expect("probabilities");
            assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let single = driver.infer(&model, pixels).unwrap();
            assert_eq!(run.probabilities, single.probabilities);
        }
    }

    #[test]
    fn burst_amortises_dma_setup() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(4, BnMode::Folded)
            .unwrap();
        let ds = dataset::generate(6, 8, &dataset::GeneratorConfig::default());
        let inputs: Vec<Vec<u8>> = ds.examples.iter().map(|e| e.pixels.clone()).collect();
        let (classes, fps) = driver.infer_burst(&model, &inputs).unwrap();
        assert_eq!(classes.len(), 6);
        for (c, e) in classes.iter().zip(&ds.examples) {
            assert_eq!(*c, reference::infer(&model, &e.pixels));
        }
        // One DMA setup for six frames beats six setups.
        let single = driver.infer(&model, &inputs[0]).unwrap();
        let per_frame_fps = 1e6 / single.measured_latency_us;
        assert!(fps > per_frame_fps, "burst {fps} !> single {per_frame_fps}");
        assert_eq!(driver.infer_burst(&model, &[]).unwrap().0.len(), 0);
    }

    #[test]
    fn burst_frame_decomposition_sums_to_the_totals() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(4, BnMode::Folded)
            .unwrap();
        let ds = dataset::generate(5, 8, &dataset::GeneratorConfig::default());
        let inputs: Vec<Vec<u8>> = ds.examples.iter().map(|e| e.pixels.clone()).collect();
        let resp = driver
            .run(InferRequest::burst(&model, inputs.clone()))
            .unwrap();
        assert_eq!(resp.runs.len(), 5);
        assert_eq!(resp.dma_transfers, 1);
        let fps = resp.burst_fps.expect("burst rate");
        // Σ per-frame measured = burst wall time; Σ words = stream len.
        let total_us = resp.total_latency_us();
        assert!((fps - 5.0 * 1e6 / total_us).abs() < 1e-6, "fps {fps}");
        let words =
            netpu_compiler::batch_stream(&model, &inputs, netpu_compiler::PackingMode::Lanes8)
                .unwrap()
                .len();
        assert_eq!(resp.total_stream_words(), words);
        let total_cycles: u64 = resp.runs.iter().map(|r| r.cycles).sum();
        assert!(resp.runs.iter().all(|r| r.cycles > 0));
        assert!(total_cycles > 0);
    }

    #[test]
    fn bursts_are_admitted_as_single_requests() {
        let driver = Driver::builder()
            .hw(HwConfig {
                accumulator_bits: 8,
                ..HwConfig::paper_instance()
            })
            .build();
        let model = ZooModel::TfcW2A2
            .build_untrained(7, BnMode::Folded)
            .unwrap();
        let inputs = vec![vec![0u8; 784], vec![200u8; 784]];
        let single = driver.infer(&model, &inputs[0]).unwrap_err();
        let DriverError::Rejected(reason) = &single else {
            panic!("expected Rejected, got {single:?}");
        };
        let report = reason.report().expect("invalid carries the report");
        assert!(report.fired(netpu_check::RuleId::Npc014), "{report}");
        let burst = driver.run(InferRequest::burst(&model, inputs)).unwrap_err();
        assert_eq!(burst, single);
    }

    #[test]
    fn traced_bursts_are_recorded() {
        use netpu_trace::{MemorySink, TraceEvent as Tev};
        let sink = Arc::new(MemorySink::new());
        let driver = Driver::builder().trace_sink(sink.clone()).build();
        let model = ZooModel::TfcW1A1
            .build_untrained(4, BnMode::Folded)
            .unwrap();
        let inputs = vec![vec![9u8; 784], vec![90u8; 784], vec![190u8; 784]];
        let resp = driver
            .run(InferRequest::burst(&model, inputs.clone()))
            .unwrap();
        let records = sink.records();
        assert!(records.iter().any(|r| matches!(r.event, Tev::Sim { .. })));
        assert!(records.iter().any(|r| matches!(r.event, Tev::Probe { .. })));
        let meta = |key: &str| {
            records.iter().find_map(|r| match &r.event {
                Tev::Meta { key: k, value } if k == key => Some(value.clone()),
                _ => None,
            })
        };
        let predicted = meta("timing.predicted_cycles").expect("predicted-cycles annotation");
        let recorded = meta("timing.recorded_cycles").expect("recorded-cycles annotation");
        assert_eq!(predicted, recorded, "burst timing diverged");
        let total: u64 = resp.runs.iter().map(|r| r.cycles).sum();
        assert_eq!(recorded, total.to_string());
        // Observation leaves the burst's answers unchanged.
        let plain = Driver::builder()
            .build()
            .run(InferRequest::burst(&model, inputs))
            .unwrap();
        assert_eq!(plain, resp);
    }

    #[test]
    fn softmax_instances_report_probabilities() {
        let driver = Driver::builder()
            .hw(netpu_core::HwConfig {
                softmax_output: true,
                ..netpu_core::HwConfig::paper_instance()
            })
            .build();
        let model = ZooModel::TfcW1A1
            .build_untrained(9, BnMode::Folded)
            .unwrap();
        let run = driver.infer(&model, &vec![50u8; 784]).unwrap();
        let probs = run.probabilities.expect("probabilities present");
        assert_eq!(probs.len(), 10);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The paper setup reports none.
        let plain = Driver::builder()
            .build()
            .infer(&model, &vec![50u8; 784])
            .unwrap();
        assert!(plain.probabilities.is_none());
    }

    #[test]
    fn trace_sink_observes_sim_and_probe_events() {
        use netpu_trace::{MemorySink, TraceEvent as Tev};
        let sink = Arc::new(MemorySink::new());
        let driver = Driver::builder().trace_sink(sink.clone()).build();
        let model = ZooModel::TfcW1A1
            .build_untrained(4, BnMode::Folded)
            .unwrap();
        let resp = driver
            .run(InferRequest::single(&model, vec![9u8; 784]))
            .unwrap();
        let records = sink.records();
        assert!(records.iter().any(|r| matches!(r.event, Tev::Sim { .. })));
        assert!(records.iter().any(|r| matches!(r.event, Tev::Probe { .. })));
        // Sim events carry virtual timestamps derived from their cycle.
        let max_t = records.iter().map(|r| r.t_us).fold(0.0f64, f64::max);
        assert!(max_t > 0.0);
        // Every sink-traced run is annotated with the static timing
        // certificate next to the simulator's count — and they agree.
        let meta = |key: &str| {
            records.iter().find_map(|r| match &r.event {
                Tev::Meta { key: k, value } if k == key => Some(value.clone()),
                _ => None,
            })
        };
        let predicted = meta("timing.predicted_cycles").expect("predicted-cycles annotation");
        let recorded = meta("timing.recorded_cycles").expect("recorded-cycles annotation");
        assert_eq!(predicted, recorded, "timing certificate diverged");
        // The run itself is unaffected by observation.
        let plain = Driver::builder()
            .build()
            .run(InferRequest::single(&model, vec![9u8; 784]))
            .unwrap();
        assert_eq!(plain.runs, resp.runs);
    }

    #[test]
    fn rejected_streams_carry_the_unified_reason() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(2, BnMode::Folded)
            .unwrap();
        let mut loadable = netpu_compiler::compile(&model, &vec![0u8; 784]).unwrap();
        loadable.words[0] ^= 1; // break the magic word
        let err = driver.run(InferRequest::loadable(loadable)).unwrap_err();
        let DriverError::Rejected(reason) = err else {
            panic!("expected Rejected, got {err:?}");
        };
        assert_eq!(reason.code(), "INVALID_STREAM");
        assert!(!reason.is_transient());
        assert!(reason.rules().iter().any(|(rule, _)| rule.id() == "NPC001"));
        // The full verifier report stays reachable for diagnostics.
        assert!(reason.report().expect("report").has_structural_errors());
    }

    #[test]
    fn strict_equiv_admits_honest_requests() {
        let driver = Driver::builder().strict_equiv(true).build();
        let model = ZooModel::TfcW1A1
            .build_untrained(21, BnMode::Folded)
            .unwrap();
        let px = vec![100u8; 784];
        let run = driver.infer(&model, &px).unwrap();
        assert_eq!(run.class, reference::infer(&model, &px));
        // And the decision matches the two-tier driver exactly.
        let plain = Driver::builder().build().infer(&model, &px).unwrap();
        assert_eq!(run, plain);
    }

    #[test]
    fn sink_runs_record_probe_samples_by_default() {
        use netpu_trace::{MemorySink, TraceEvent as Tev};
        let sink = Arc::new(MemorySink::new());
        let driver = Driver::builder().trace_sink(sink.clone()).build();
        let model = ZooModel::TfcW1A1
            .build_untrained(15, BnMode::Folded)
            .unwrap();
        driver
            .run(InferRequest::single(&model, vec![42u8; 784]))
            .unwrap();
        assert!(sink
            .records()
            .iter()
            .any(|r| matches!(r.event, Tev::Probe { .. })));
    }

    #[test]
    fn clones_share_the_verdict_store_and_keys_isolate_the_instance() {
        let wide = Driver::builder().build();
        let model = ZooModel::TfcW2A2
            .build_untrained(7, BnMode::Folded)
            .unwrap();
        let loadable = compile(&model, &vec![0u8; 784]).unwrap();
        wide.run_loadable(&loadable).unwrap();
        // A clone shares the store: the same stream is a lookup.
        wide.clone().run_loadable(&loadable).unwrap();
        let stats = wide.verdicts.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // A clone on a narrower accumulator never reuses the wide
        // instance's entry: it gets its own range findings.
        let mut narrow = wide.clone();
        narrow.hw.accumulator_bits = 8;
        let Err(DriverError::Rejected(reason)) = narrow.run_loadable(&loadable) else {
            panic!("the 8-bit instance must refuse the stream");
        };
        let report = reason.report().expect("invalid carries the report");
        assert!(report.fired(netpu_check::RuleId::Npc014), "{report}");
        assert!(Arc::ptr_eq(&wide.verdicts, &narrow.verdicts));
        wide.run_loadable(&loadable).unwrap();
        let stats = wide.verdicts.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
    }

    #[test]
    fn compile_errors_surface() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(3, BnMode::Folded)
            .unwrap();
        assert!(matches!(
            driver.infer(&model, &[0u8; 7]),
            Err(DriverError::Compile(StreamError::InputLength { .. }))
        ));
    }
}
