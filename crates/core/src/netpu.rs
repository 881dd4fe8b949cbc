//! The top-level Network Processing Unit (§III.B.3, Fig. 2).
//!
//! The NetPU owns the LPU ring (the *Recycling Layer Structure*), the
//! NetPU FIFO cluster, and the in/output control. Its workflow:
//!
//! 1. *NetPU Initialization* — read the layer count and all layer
//!    settings from the Network Input FIFO into the Layer Setting FIFO.
//! 2. *LPU Initialization* — load the dataset input into the first LPU
//!    and distribute layer settings + parameters.
//! 3. *LPU Processing* — LPUs consume their weight sections and infer;
//!    outputs of each LPU feed the next LPU in the ring.
//! 4. *LPU Resetting* — a finished LPU is re-initialised with the next
//!    unprocessed layer (layer k runs on LPU `k mod L`).
//!
//! Because the host pre-packages the stream in the §III.B.3 order, the
//! runtime control here is *only* data streaming: every cycle the top
//! FSM either routes one stream word or advances the active LPU.

use crate::config::{ConfigError, HwConfig};
use crate::cycles::{CycleBreakdown, LayerPhase, StreamPhase};
use crate::lpu::{LayerOutput, Lpu};
use netpu_arith::{cast, Fix};
use netpu_compiler::stream::{input_words, param_words, StreamError};
use netpu_compiler::{
    is_layer_sequence, section_at, Header, LayerSetting, PackingMode, SectionKind,
};
use netpu_nn::reference::to_mac_domain;
use netpu_sim::engine::Tick;
use netpu_sim::{
    BulkClocked, Clocked, Cycle, Observer, SimError, Simulator, StreamSink, StreamSource,
};

/// Cycles to reset a finished LPU for its next layer.
pub const RESET_CYCLES: u64 = 2;

/// Errors raised while driving the accelerator.
#[derive(Clone, PartialEq, Debug)]
pub enum NetPuError {
    /// Structural configuration rejected.
    Config(ConfigError),
    /// The stream was malformed.
    Stream(StreamError),
    /// The simulation harness gave up.
    Sim(SimError),
    /// The run finished without producing a classification result.
    Incomplete,
}

impl std::fmt::Display for NetPuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetPuError::Config(e) => write!(f, "configuration: {e}"),
            NetPuError::Stream(e) => write!(f, "stream: {e}"),
            NetPuError::Sim(e) => write!(f, "simulation: {e}"),
            NetPuError::Incomplete => f.write_str("run finished without a classification result"),
        }
    }
}

impl std::error::Error for NetPuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetPuError::Config(e) => Some(e),
            NetPuError::Stream(e) => Some(e),
            NetPuError::Sim(e) => Some(e),
            NetPuError::Incomplete => None,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum TopState {
    Header,
    Settings { idx: usize },
    InputIngest { idx: usize },
    Sections { idx: usize, entered: bool },
    Resetting { idx: usize, left: u64 },
    Done,
    Failed,
}

/// The NetPU accelerator instance.
#[derive(Clone, Debug)]
pub struct NetPu {
    cfg: HwConfig,
    lpus: Vec<Lpu>,
    stream: StreamSource,
    sink: StreamSink,
    observer: Observer,
    state: TopState,
    settings: Vec<LayerSetting>,
    /// The current loadable's layer count: its sections are walked in
    /// the [`section_at`] order. A parameter section is ingested into
    /// LPU `k mod L`; layer `k`'s weight section is consumed while that
    /// LPU processes.
    layers: usize,
    packing: PackingMode,
    pixels: Vec<i32>,
    result: Option<(usize, Fix)>,
    results: Vec<(usize, Fix, Cycle)>,
    scores: Vec<Fix>,
    error: Option<StreamError>,
    /// Cycle accounting: every edge lands in one cell.
    pub breakdown: CycleBreakdown,
}

impl NetPu {
    /// Builds an instance fed by `stream` (the DMA-filled Network Input
    /// FIFO).
    pub fn new(cfg: HwConfig, stream: StreamSource) -> Result<NetPu, NetPuError> {
        cfg.validate().map_err(NetPuError::Config)?;
        Ok(NetPu {
            lpus: (0..cfg.lpus).map(|i| Lpu::new(i, &cfg)).collect(),
            cfg,
            stream,
            sink: StreamSink::new(),
            observer: Observer::default(),
            state: TopState::Header,
            settings: Vec::new(),
            layers: 0,
            packing: PackingMode::Lanes8,
            pixels: Vec::new(),
            result: None,
            results: Vec::new(),
            scores: Vec::new(),
            error: None,
            breakdown: CycleBreakdown::default(),
        })
    }

    /// Attaches the observer that receives the run's component events
    /// and datapath values.
    pub fn with_observer(mut self, observer: Observer) -> NetPu {
        self.observer = observer;
        self
    }

    /// The classification result once inference finished.
    pub fn result(&self) -> Option<(usize, Fix)> {
        self.result
    }

    /// Every completed inference in a multi-inference stream:
    /// `(class, score, completion cycle)`.
    pub fn results(&self) -> &[(usize, Fix, Cycle)] {
        &self.results
    }

    /// The raw per-class output scores once inference finished.
    pub fn scores(&self) -> &[Fix] {
        &self.scores
    }

    /// Class probabilities from the SoftMax unit; `None` unless the
    /// instance was configured with `softmax_output`.
    pub fn probabilities(&self) -> Option<Vec<f64>> {
        if self.cfg.softmax_output && !self.scores.is_empty() {
            Some(netpu_arith::softmax::softmax(&self.scores))
        } else {
            None
        }
    }

    /// The stream error that aborted inference, if any.
    pub fn error(&self) -> Option<&StreamError> {
        self.error.as_ref()
    }

    /// The Network Output FIFO.
    pub fn sink(&self) -> &StreamSink {
        &self.sink
    }

    /// Takes the observer out of the instance, leaving one that records
    /// nothing behind.
    pub fn take_observer(&mut self) -> Observer {
        std::mem::take(&mut self.observer)
    }

    fn fail(&mut self, e: StreamError) -> Tick {
        self.error = Some(e);
        self.state = TopState::Failed;
        Tick::Done
    }

    fn lpu_of(&self, layer: usize) -> usize {
        layer % self.cfg.lpus
    }

    /// Routes a finished layer's output to the next LPU or the Network
    /// Output FIFO.
    fn route_layer_output(&mut self, layer: usize, cycle: Cycle) {
        let id = self.lpu_of(layer);
        let out = self.lpus[id].take_output();
        match out {
            LayerOutput::Levels(levels) => {
                let next = self.lpu_of(layer + 1);
                // The Output Multiplexer connects this LPU's output port
                // to the next LPU's Layer Input buffer.
                let mac = to_mac_domain(&levels, self.settings[layer].out_precision);
                self.lpus[next].set_inputs(mac);
            }
            LayerOutput::Class {
                class,
                score,
                scores,
            } => {
                let word = cast::u64_from_usize(class) | (u64::from(score.to_stream_word()) << 32);
                self.sink.push(cycle, word);
                if self.cfg.softmax_output {
                    // The SoftMax unit streams one Q16.16 exponential
                    // per class behind the MaxOut word.
                    let max = scores.iter().copied().fold(Fix::MIN, Fix::max);
                    for (i, &s) in scores.iter().enumerate() {
                        let e = cast::u64_sat_i64(netpu_arith::softmax::exp_q16(s.sat_sub(max)));
                        self.sink.push(cycle, cast::u64_from_usize(i) | (e << 32));
                    }
                }
                self.result = Some((class, score));
                self.results.push((class, score, cycle));
                self.scores = scores;
                self.observer.event(cycle, "netpu", || {
                    format!("inference done: class {class} score {score}")
                });
            }
        }
        self.breakdown.layers.push(self.lpus[id].cycles);
    }

    /// Stream idle cycles accumulated so far (cycles in which the
    /// Network Input FIFO held data nobody consumed) — exposed so the
    /// fast path's closed-form idle accounting can be checked against
    /// the tick path.
    pub fn stream_idle_cycles(&self) -> u64 {
        self.stream.idle_cycles()
    }

    /// One tick-path edge plus the stream bookkeeping
    /// [`run_to_completion`] performs per cycle — the fast path's
    /// fallback for control states that route at most one word.
    fn single_step(&mut self, cycle: Cycle) -> (Cycle, Tick) {
        let t = self.tick(cycle);
        self.stream.next_cycle();
        (1, t)
    }

    /// Fast-path step: advances up to `budget` cycles. Header, setting,
    /// input-ingest and reset states fall back to single edges (they are
    /// a vanishing fraction of an inference); parameter sections ingest
    /// in bulk straight from the stream; processing sections delegate to
    /// [`Lpu::bulk_tick`]. Cycle counts, every [`CycleBreakdown`] cell,
    /// sink timestamps and stream idle accounting match the tick path
    /// exactly.
    fn bulk_step(&mut self, cycle: Cycle, budget: Cycle) -> (Cycle, Tick) {
        let TopState::Sections { idx, entered } = self.state else {
            return self.single_step(cycle);
        };
        match section_at(self.layers, idx) {
            (SectionKind::Params, layer) => {
                if !entered {
                    // The first parameter edge also performs layer
                    // initialization; keep it on the reference path.
                    return self.single_step(cycle);
                }
                let id = self.lpu_of(layer);
                let k = self.lpus[id]
                    .param_words_remaining()
                    .min(self.stream.remaining())
                    .min(usize::try_from(budget).unwrap_or(usize::MAX));
                if k == 0 {
                    return self.single_step(cycle); // stalled on the DMA
                }
                // One word per cycle, every cycle consuming: no idle.
                let mut complete = false;
                for &w in self.stream.take_words(k) {
                    complete = self.lpus[id].ingest_param_word(w);
                }
                self.lpus[id].cycles[LayerPhase::PARAMS] += cast::u64_from_usize(k);
                self.state = if complete {
                    TopState::Sections {
                        idx: idx + 1,
                        entered: false,
                    }
                } else {
                    TopState::Sections { idx, entered: true }
                };
                (cast::u64_from_usize(k), Tick::Progress)
            }
            (SectionKind::Weights, layer) => {
                let id = self.lpu_of(layer);
                self.observer.set_layer(layer);
                let r =
                    self.lpus[id].bulk_tick(&mut self.stream, cycle, budget, &mut self.observer);
                // Idle settlement: edges strictly between takes always
                // saw pending data; trailing edges only count when the
                // stream still holds words now.
                let between = r.advanced - r.words - r.tail;
                let trailing = if self.stream.exhausted() { 0 } else { r.tail };
                self.stream.add_idle_cycles(between + trailing);
                if self.lpus[id].is_done() {
                    self.route_layer_output(layer, cycle + r.advanced - 1);
                    if layer + 1 == self.settings.len() {
                        if self.stream.exhausted() {
                            self.state = TopState::Done;
                            return (r.advanced, Tick::Done);
                        }
                        self.lpus[id].reset();
                        self.settings.clear();
                        self.pixels.clear();
                        self.state = TopState::Resetting {
                            idx: usize::MAX,
                            left: RESET_CYCLES,
                        };
                        return (r.advanced, Tick::Progress);
                    }
                    self.state = TopState::Resetting {
                        idx: idx + 1,
                        left: RESET_CYCLES,
                    };
                    self.lpus[id].reset();
                    return (r.advanced, Tick::Progress);
                }
                self.state = TopState::Sections { idx, entered: true };
                (r.advanced, r.tick)
            }
        }
    }
}

impl Clocked for NetPu {
    fn tick(&mut self, cycle: Cycle) -> Tick {
        let tick = match std::mem::replace(&mut self.state, TopState::Failed) {
            TopState::Header => {
                self.state = TopState::Header;
                self.breakdown[StreamPhase::HEADER] += 1;
                match self.stream.take() {
                    Some(w) => {
                        let header = match Header::parse(w) {
                            Ok(header) => header,
                            Err(e) => return self.fail(e),
                        };
                        if header.layers < 2 {
                            return self.fail(StreamError::BadLayerSequence);
                        }
                        // Dense streams need an instance generated with
                        // dense unpack logic.
                        self.packing = header.packing;
                        if self.packing == PackingMode::Dense && !self.cfg.dense_weight_packing {
                            return self.fail(StreamError::PackingUnsupported);
                        }
                        self.layers = header.layers;
                        self.settings.reserve(header.layers);
                        self.state = TopState::Settings { idx: 0 };
                        Tick::Progress
                    }
                    None => Tick::Stall,
                }
            }
            TopState::Settings { idx } => {
                self.state = TopState::Settings { idx };
                self.breakdown[StreamPhase::SETTINGS] += 1;
                match self.stream.take() {
                    Some(w) => {
                        let s = match LayerSetting::decode(w) {
                            Ok(s) => s,
                            Err(e) => return self.fail(StreamError::BadSetting(e)),
                        };
                        self.settings.push(s);
                        if idx + 1 == self.layers {
                            // Validate the layer sequence before relying
                            // on it structurally.
                            if !is_layer_sequence(&self.settings) {
                                return self.fail(StreamError::BadLayerSequence);
                            }
                            self.state = TopState::InputIngest { idx: 0 };
                        } else {
                            self.state = TopState::Settings { idx: idx + 1 };
                        }
                        Tick::Progress
                    }
                    None => Tick::Stall,
                }
            }
            TopState::InputIngest { idx } => {
                self.state = TopState::InputIngest { idx };
                self.breakdown[StreamPhase::INPUT_INGEST] += 1;
                match self.stream.take() {
                    Some(w) => {
                        let len = cast::usize_from_u32(self.settings[0].neurons);
                        for i in 0..8 {
                            let p = 8 * idx + i;
                            if p < len {
                                self.pixels.push(i32::from(cast::lo8(w >> (8 * i))));
                            }
                        }
                        if idx + 1 == input_words(len) {
                            self.state = TopState::Sections {
                                idx: 0,
                                entered: false,
                            };
                        } else {
                            self.state = TopState::InputIngest { idx: idx + 1 };
                        }
                        Tick::Progress
                    }
                    None => Tick::Stall,
                }
            }
            TopState::Sections { idx, entered } => {
                match section_at(self.layers, idx) {
                    (SectionKind::Params, layer) => {
                        let id = self.lpu_of(layer);
                        if !entered {
                            if !self.lpus[id].is_idle() {
                                // The stream interleave guarantees the
                                // target LPU is free for L ≥ 2; the edge
                                // is charged to the layer holding it.
                                self.lpus[id].cycles[LayerPhase::STALL] += 1;
                                self.state = TopState::Sections { idx, entered };
                                return Tick::Stall;
                            }
                            let setting = self.settings[layer];
                            let expect = param_words(&setting);
                            self.lpus[id].begin_layer(setting, expect, self.packing);
                            self.observer.event(cycle, "netpu", || {
                                format!("layer {layer} settings → lpu{id} ({expect} param words)")
                            });
                            if layer == 0 {
                                // The ingested pixels are consumed only
                                // by the first layer; hand them over
                                // instead of cloning (they are re-filled
                                // by the next inference's InputIngest).
                                self.lpus[id].set_inputs(std::mem::take(&mut self.pixels));
                            }
                            if expect == 0 {
                                // The section-entry edge of an empty
                                // parameter section.
                                self.lpus[id].cycles[LayerPhase::PARAMS] += 1;
                                self.state = TopState::Sections {
                                    idx: idx + 1,
                                    entered: false,
                                };
                                return Tick::Progress;
                            }
                        }
                        match self.stream.take() {
                            Some(w) => {
                                self.lpus[id].cycles[LayerPhase::PARAMS] += 1;
                                let complete = self.lpus[id].ingest_param_word(w);
                                self.state = if complete {
                                    TopState::Sections {
                                        idx: idx + 1,
                                        entered: false,
                                    }
                                } else {
                                    TopState::Sections { idx, entered: true }
                                };
                                Tick::Progress
                            }
                            None => {
                                self.lpus[id].cycles[LayerPhase::STALL] += 1;
                                self.state = TopState::Sections { idx, entered: true };
                                Tick::Stall
                            }
                        }
                    }
                    (SectionKind::Weights, layer) => {
                        let id = self.lpu_of(layer);
                        self.observer.set_layer(layer);
                        let t = self.lpus[id].tick(&mut self.stream, cycle, &mut self.observer);
                        if self.lpus[id].is_done() {
                            self.route_layer_output(layer, cycle);
                            if layer + 1 == self.settings.len() {
                                // Last layer of this inference. A
                                // pre-packaged burst may carry further
                                // complete loadables: re-initialise from
                                // the next header instead of halting.
                                if self.stream.exhausted() {
                                    self.state = TopState::Done;
                                    return Tick::Done;
                                }
                                self.lpus[id].reset();
                                self.settings.clear();
                                self.pixels.clear();
                                self.state = TopState::Resetting {
                                    idx: usize::MAX, // sentinel: restart at Header
                                    left: RESET_CYCLES,
                                };
                                return Tick::Progress;
                            }
                            self.state = TopState::Resetting {
                                idx: idx + 1,
                                left: RESET_CYCLES,
                            };
                            // The lpu id is reset during Resetting.
                            self.lpus[id].reset();
                            return Tick::Progress;
                        }
                        self.state = TopState::Sections { idx, entered: true };
                        t
                    }
                }
            }
            TopState::Resetting { idx, left } => {
                self.breakdown[StreamPhase::RESET] += 1;
                self.state = if left > 1 {
                    TopState::Resetting {
                        idx,
                        left: left - 1,
                    }
                } else if idx == usize::MAX {
                    TopState::Header
                } else {
                    TopState::Sections {
                        idx,
                        entered: false,
                    }
                };
                Tick::Progress
            }
            TopState::Done => {
                self.state = TopState::Done;
                Tick::Done
            }
            TopState::Failed => Tick::Done,
        };
        tick
    }
}

/// A completed inference with its timing breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct InferenceRun {
    /// Predicted class.
    pub class: usize,
    /// Winning MaxOut score.
    pub score: Fix,
    /// Total clock cycles from first stream word to result.
    pub cycles: Cycle,
    /// Latency in microseconds at the configured clock.
    pub latency_us: f64,
    /// SoftMax probabilities (instances with `softmax_output` only).
    pub probabilities: Option<Vec<f64>>,
    /// Per-layer, per-phase cycle breakdown; sums to `cycles`.
    pub breakdown: CycleBreakdown,
    /// Every completed inference of the stream, one per loadable of a
    /// burst: `(class, score, completion cycle)` ([`NetPu::results`]).
    pub results: Vec<(usize, Fix, Cycle)>,
}

/// Convenience driver: streams a compiled loadable through a fresh
/// NetPU instance at full bandwidth (one word per cycle) and runs it to
/// completion.
///
/// ```
/// use netpu_core::{netpu::run_inference, HwConfig};
/// use netpu_nn::{export::BnMode, reference, zoo::ZooModel};
/// let model = ZooModel::TfcW1A1.build_untrained(1, BnMode::Folded).unwrap();
/// let pixels = vec![100u8; 784];
/// let loadable = netpu_compiler::compile(&model, &pixels).unwrap();
/// let run = run_inference(&HwConfig::paper_instance(), loadable.words).unwrap();
/// // The cycle model is bit-exact against the software reference.
/// assert_eq!(run.class, reference::infer(&model, &pixels));
/// assert!(run.latency_us > 0.0);
/// ```
pub fn run_inference(cfg: &HwConfig, words: Vec<u64>) -> Result<InferenceRun, NetPuError> {
    let stream = StreamSource::new(words, 1);
    let mut netpu = NetPu::new(*cfg, stream)?;
    let cycles = run_to_completion(&mut netpu)?;
    finish_run(&netpu, cycles, cfg)
}

/// [`run_inference`] on the phase-skipping fast path: identical results
/// (class, score, cycle count and the full [`CycleBreakdown`]) at
/// a fraction of the wall-clock cost. The equivalence is enforced by the
/// `fast_path` differential test suite.
pub fn run_inference_fast(cfg: &HwConfig, words: Vec<u64>) -> Result<InferenceRun, NetPuError> {
    let stream = StreamSource::new(words, 1);
    let mut netpu = NetPu::new(*cfg, stream)?;
    let cycles = run_to_completion_fast(&mut netpu)?;
    finish_run(&netpu, cycles, cfg)
}

/// [`run_inference_fast`] reporting to `observer`: component events and
/// intermediate accumulator / BN / level / score values, as far as the
/// observer was built to record them.
///
/// The observer is moved into the instance for the run and handed back
/// through its `&mut` slot afterwards — *including on errors*, so a
/// caller can inspect the events of a failed attempt. The runtime's
/// `TraceSink` forwarding feeds both families into a recorded trace;
/// the `netpu-check` soundness suite replays the samples against the
/// abstract interpreter's predicted intervals.
pub fn run_inference_observed(
    cfg: &HwConfig,
    words: Vec<u64>,
    observer: &mut Observer,
) -> Result<InferenceRun, NetPuError> {
    let stream = StreamSource::new(words, 1);
    let mut netpu = NetPu::new(*cfg, stream)?.with_observer(std::mem::take(observer));
    let outcome = run_to_completion_fast(&mut netpu);
    *observer = netpu.take_observer();
    let cycles = outcome?;
    finish_run(&netpu, cycles, cfg)
}

fn finish_run(netpu: &NetPu, cycles: Cycle, cfg: &HwConfig) -> Result<InferenceRun, NetPuError> {
    let Some((class, score)) = netpu.result() else {
        return Err(NetPuError::Incomplete);
    };
    Ok(InferenceRun {
        class,
        score,
        cycles,
        latency_us: netpu_sim::cycles_to_us(cycles, cfg.clock_mhz),
        probabilities: netpu.probabilities(),
        breakdown: netpu.breakdown.clone(),
        results: netpu.results.clone(),
    })
}

/// Runs a prepared NetPU to completion, surfacing stream errors.
pub fn run_to_completion(netpu: &mut NetPu) -> Result<Cycle, NetPuError> {
    // Advance stream bandwidth bookkeeping alongside the clock.
    struct WithStream<'a>(&'a mut NetPu);
    impl Clocked for WithStream<'_> {
        fn tick(&mut self, cycle: Cycle) -> Tick {
            let t = self.0.tick(cycle);
            self.0.stream.next_cycle();
            t
        }
    }
    let cycles = Simulator::new()
        .run(&mut WithStream(netpu))
        .map_err(NetPuError::Sim)?;
    if let Some(e) = netpu.error.clone() {
        return Err(NetPuError::Stream(e));
    }
    Ok(cycles)
}

/// [`run_to_completion`] on the phase-skipping fast path
/// ([`netpu_sim::engine::BulkClocked`]); cycle-exact with the tick path
/// including deadlock timing and stream idle accounting.
pub fn run_to_completion_fast(netpu: &mut NetPu) -> Result<Cycle, NetPuError> {
    // Stream bookkeeping is folded into `bulk_step` itself (metered on
    // the single-step fallback, closed-form on the bulk paths).
    struct Fast<'a>(&'a mut NetPu);
    impl Clocked for Fast<'_> {
        fn tick(&mut self, cycle: Cycle) -> Tick {
            let (_, t) = self.0.single_step(cycle);
            t
        }
    }
    impl BulkClocked for Fast<'_> {
        fn bulk_tick(&mut self, cycle: Cycle, budget: Cycle) -> (Cycle, Tick) {
            self.0.bulk_step(cycle, budget)
        }
    }
    let cycles = Simulator::new()
        .run_fast(&mut Fast(netpu))
        .map_err(NetPuError::Sim)?;
    if let Some(e) = netpu.error.clone() {
        return Err(NetPuError::Stream(e));
    }
    Ok(cycles)
}
