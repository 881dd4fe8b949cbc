//! The Layer Processing Unit (§III.B.2, Fig. 4).
//!
//! An LPU owns a cluster of TNPUs, the data-buffer cluster of Table III,
//! and the layer control FSM. Its workflow has three steps:
//!
//! 1. *Layer Initialization* — latch the layer setting.
//! 2. *Neuron Initialization* — load per-neuron parameters from the
//!    buffer cluster into the TNPUs (one batch of `tnpus_per_lpu`
//!    neurons at a time, since the physical neuron count is smaller than
//!    the model's).
//! 3. *Neuron Processing* — stream weights through the Layer Weight
//!    buffer into the TNPUs until the batch's neurons finish; repeat
//!    from step 2 until every neuron of the layer has been inferred.
//!
//! Timing model (calibration notes in `DESIGN.md` §4): the Layer Weight
//! buffer is single-ported, so sustained weight consumption is one
//! 64-bit word per **two** cycles (ingest, then dispatch) — the §V data
//! loading bottleneck. `HwConfig::double_buffered_weights` removes the
//! ingest cycle (the paper's stated future-work optimization).

use crate::config::HwConfig;
use crate::cycles::{LayerCycles, LayerPhase};
use crate::tnpu::{LayerCfg, MaxOut, NeuronActivation, NeuronParams, Tnpu, TnpuOut};
use netpu_arith::{cast, ActivationKind, Fix, QuantParams};
use netpu_compiler::stream::{
    act_param_u32s, bias_bn_words, extract_weight, neuron_weight_words_mode, unpack_u32_pairs,
    uses_xnor_path, weights_per_word,
};
use netpu_compiler::{LayerSetting, LayerType, PackingMode};
use netpu_sim::engine::Tick;
use netpu_sim::{Cycle, Fifo, Observer, ProbeStage, StreamSource};

/// The Table III data-buffer cluster geometry: `(name, width, depth)`.
pub const BUFFER_CLUSTER: [(&str, u32, usize); 10] = [
    ("Layer Input", 64, 1024),
    ("Input Reload", 64, 1024),
    ("Layer Weight", 64, 1024),
    ("Bias", 64, 1024),
    ("BN Scale", 128, 2048),
    ("BN Offset", 128, 2048),
    ("Sign Threshold", 128, 2048),
    ("Multi-Thresholds", 128, 2048),
    ("QUAN Scale", 128, 2048),
    ("QUAN Offset", 128, 2048),
];

/// Pipeline fill/drain cycles per neuron batch (ACCU latch → BN → ACTIV
/// → QUAN).
pub const PIPELINE_DEPTH: u64 = 4;

/// Width of the parameter-buffer read port in 32-bit words (the 128-bit
/// buffers of Table III deliver four parameter words per cycle).
pub const PARAM_READ_WIDTH: usize = 4;

/// The result a finished layer hands back to the NetPU.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerOutput {
    /// Hidden/input layer: activation levels (Sign levels as 0/1 bits).
    Levels(Vec<i32>),
    /// Output layer: MaxOut winner plus the raw per-class scores (the
    /// SoftMax unit consumes the latter when enabled).
    Class {
        /// Winning class index.
        class: usize,
        /// Winning score.
        score: Fix,
        /// All per-class scores in class order.
        scores: Vec<Fix>,
    },
}

/// Result of one [`Lpu::bulk_tick`] span — everything the NetPU needs
/// to keep its own cycle and stream accounting exact without having
/// observed the individual edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LpuBulk {
    /// Clock edges simulated (`1 ≤ advanced ≤ budget`).
    pub advanced: u64,
    /// Stream words consumed during the span.
    pub words: u64,
    /// Trailing edges since the last word take (equals `advanced` when
    /// nothing was taken). The caller uses this to decide which
    /// non-consuming edges saw an exhausted stream.
    pub tail: u64,
    /// Outcome of the final edge.
    pub tick: Tick,
}

/// Records one finalized neuron's tap values into a sampling observer:
/// the post-bias accumulator, the post-BN word when the route had a BN
/// stage, and the level or score that left the TNPU.
fn record_finalize(obs: &mut Observer, neuron: usize, tap: crate::tnpu::NeuronTap, out: TnpuOut) {
    obs.sample(neuron, ProbeStage::Accumulator, i64::from(tap.acc));
    if let Some(bn) = tap.post_bn {
        obs.sample(neuron, ProbeStage::PostBn, bn.raw());
    }
    match out {
        TnpuOut::Level(l) => obs.sample(neuron, ProbeStage::Level, i64::from(l)),
        TnpuOut::Score(s) => obs.sample(neuron, ProbeStage::Score, s.raw()),
    }
}

/// Decodes a layer's raw parameter-section words into per-neuron
/// parameters — the hardware's view of the buffer cluster contents.
/// Inverse of the compiler's parameter encoding.
pub fn decode_neuron_params(setting: &LayerSetting, words: &[u64]) -> Vec<NeuronParams> {
    let neurons = cast::usize_from_u32(setting.neurons);
    let pos = bias_bn_words(setting);
    let block = &words[..pos];
    let (biases, bns) = if setting.layer_type == LayerType::Input {
        (None, None)
    } else if setting.bn_folded {
        let biases: Vec<i32> = (0..neurons)
            .map(|i| cast::sign_extend(u32::from(cast::lo8(block[i / 8] >> (8 * (i % 8)))), 8))
            .collect();
        (Some(biases), None)
    } else {
        let bns: Vec<netpu_nn::BnParams> = block
            .iter()
            .map(|&w| netpu_nn::BnParams {
                scale_q16: cast::i32_from_bits(cast::lo32(w)),
                offset: Fix::from_stream_word(cast::lo32(w >> 32)),
            })
            .collect();
        (None, Some(bns))
    };

    let acts: Vec<NeuronActivation> = if setting.layer_type == LayerType::Output {
        vec![NeuronActivation::None; neurons]
    } else {
        let per = act_param_u32s(setting);
        let vals = unpack_u32_pairs(&words[pos..], neurons * per);
        vals.chunks(per)
            .map(|row| match setting.activation {
                ActivationKind::Sign => NeuronActivation::Sign(Fix::from_stream_word(row[0])),
                ActivationKind::MultiThreshold => NeuronActivation::MultiThreshold(
                    row.iter().map(|&v| Fix::from_stream_word(v)).collect(),
                ),
                kind => {
                    let q = QuantParams {
                        scale: Fix::from_stream_word(row[0]),
                        offset: Fix::from_stream_word(row[1]),
                    };
                    match kind {
                        ActivationKind::Relu => NeuronActivation::Relu(q),
                        ActivationKind::Sigmoid => NeuronActivation::Sigmoid(q),
                        ActivationKind::Tanh => NeuronActivation::Tanh(q),
                        _ => unreachable!(),
                    }
                }
            })
            .collect()
    };

    acts.into_iter()
        .enumerate()
        .map(|(i, activation)| NeuronParams {
            bias: biases.as_ref().map(|b| b[i]),
            bn: bns.as_ref().map(|b| b[i]),
            activation,
        })
        .collect()
}

/// Input-layer cycles per 64-bit input word: one read cycle,
/// threshold-read cycles for its eight pixels, one write cycle.
pub fn input_word_cycles(setting: &LayerSetting) -> u64 {
    2 + cast::u64_from_usize((8 * act_param_u32s(setting)).div_ceil(PARAM_READ_WIDTH))
}

/// Write-out cycles of a `batch`-neuron batch (at least one): MaxOut
/// compares scores one per cycle and the SoftMax unit adds one exp
/// evaluation each; hidden levels pack eight per output-buffer word.
pub fn write_out_cycles(setting: &LayerSetting, batch: usize, softmax: bool) -> u64 {
    if setting.layer_type == LayerType::Output {
        cast::u64_from_usize(batch) * (1 + u64::from(softmax))
    } else {
        cast::u64_from_usize(batch.div_ceil(8))
    }
    .max(1)
}

/// Input levels one weight word covers: 64 XNOR channels, or the
/// packed weights per word.
fn levels_per_word(setting: &LayerSetting, packing: PackingMode) -> usize {
    if uses_xnor_path(setting) {
        64
    } else {
        weights_per_word(setting, packing)
    }
}

/// Input levels one dispatch subcycle pushes through `lanes` multiplier
/// lanes: `lanes` integer products, or `lanes × 8` XNOR channels.
fn levels_per_group(setting: &LayerSetting, lanes: usize) -> usize {
    if uses_xnor_path(setting) {
        lanes * 8
    } else {
        lanes
    }
}

/// Dispatch subcycles a neuron's weight word `chunk` needs on `lanes`
/// multiplier lanes: 1 for the paper's lane packing, more when a dense
/// word carries more weights than lanes.
pub fn dispatch_groups(
    setting: &LayerSetting,
    packing: PackingMode,
    lanes: usize,
    chunk: usize,
) -> usize {
    let lpw = levels_per_word(setting, packing);
    let hi = ((chunk + 1) * lpw).min(cast::usize_from_u32(setting.input_len));
    hi.saturating_sub(chunk * lpw)
        .div_ceil(levels_per_group(setting, lanes))
}

/// Neuron Initialization cycles for one neuron: one buffer read for the
/// bias/BN word plus 128-bit-wide reads for the activation parameters.
pub fn init_cycles_per_neuron(setting: &LayerSetting) -> u64 {
    let act_reads = if setting.layer_type == LayerType::Output {
        0
    } else {
        act_param_u32s(setting).div_ceil(PARAM_READ_WIDTH)
    };
    let bias_reads = usize::from(setting.layer_type != LayerType::Input);
    cast::u64_from_usize(act_reads + bias_reads)
}

#[derive(Clone, Debug, PartialEq)]
enum State {
    Idle,
    AwaitParams {
        remaining: usize,
    },
    Ready,
    InputLayer {
        word: usize,
        subcycle: u64,
    },
    BatchInit {
        batch_start: usize,
        left: u64,
    },
    /// Weight streaming: `subcycle` 0 ingests the word; subcycles
    /// 1..=groups dispatch it through the multiplier lanes (dense-packed
    /// words carry more weights than lanes and need several groups).
    Weights {
        batch_start: usize,
        t: usize,
        chunk: usize,
        subcycle: u32,
    },
    Drain {
        batch_start: usize,
        left: u64,
    },
    WriteOut {
        batch_start: usize,
        left: u64,
    },
    Done,
}

/// One Layer Processing Unit.
#[derive(Clone, Debug)]
pub struct Lpu {
    /// Instance index within the NetPU ring.
    pub id: usize,
    tnpus: Vec<Tnpu>,
    double_buffered: bool,
    softmax_output: bool,
    setting: Option<LayerSetting>,
    layer_cfg: Option<LayerCfg>,
    param_words: Vec<u64>,
    params: Vec<NeuronParams>,
    weight_fifo: Fifo<u64>,
    pending_word: u64,
    /// Scratch for fast-path weight extraction (avoids the per-group
    /// allocations of the reference tick path).
    weight_scratch: Vec<i32>,
    /// Fast-path XNOR cache: the Input Reload buffer's levels packed as
    /// bipolar bits, 64 per word, aligned to weight-word chunks. Rebuilt
    /// lazily after `set_inputs`; lets every weight-word MAC collapse to
    /// one XOR+popcount instead of a per-lane loop.
    packed_inputs: Vec<u64>,
    packed_inputs_stale: bool,
    packing: PackingMode,
    inputs: Vec<i32>,
    have_inputs: bool,
    outputs: Vec<i32>,
    scores: Vec<Fix>,
    maxout: MaxOut,
    state: State,
    /// Cycle breakdown of the current layer. The LPU counts its own
    /// processing edges; the NetPU adds the parameter-section edges.
    pub cycles: LayerCycles,
}

impl Lpu {
    /// Builds an LPU per the hardware configuration.
    pub fn new(id: usize, cfg: &HwConfig) -> Lpu {
        Lpu {
            id,
            tnpus: (0..cfg.tnpus_per_lpu)
                .map(|_| Tnpu::new(cfg.mul_lanes))
                .collect(),
            double_buffered: cfg.double_buffered_weights,
            softmax_output: cfg.softmax_output,
            setting: None,
            layer_cfg: None,
            param_words: Vec::new(),
            params: Vec::new(),
            weight_fifo: Fifo::new("Layer Weight", 64, 1024),
            pending_word: 0,
            weight_scratch: Vec::new(),
            packed_inputs: Vec::new(),
            packed_inputs_stale: true,
            packing: PackingMode::Lanes8,
            inputs: Vec::new(),
            have_inputs: false,
            outputs: Vec::new(),
            scores: Vec::new(),
            maxout: MaxOut::default(),
            state: State::Idle,
            cycles: LayerCycles::default(),
        }
    }

    /// Number of TNPUs in the cluster.
    pub fn tnpu_count(&self) -> usize {
        self.tnpus.len()
    }

    /// `true` when the LPU holds no layer (free for LPU Resetting).
    pub fn is_idle(&self) -> bool {
        self.state == State::Idle
    }

    /// `true` when parameters are loaded and processing can start.
    pub fn is_ready(&self) -> bool {
        self.state == State::Ready
    }

    /// `true` when the layer finished and outputs are available.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Step 1 — Layer Initialization.
    pub fn begin_layer(
        &mut self,
        setting: LayerSetting,
        expected_param_words: usize,
        packing: PackingMode,
    ) {
        assert!(self.is_idle(), "LPU {} must be reset first", self.id);
        let cfg = LayerCfg {
            layer_type: setting.layer_type,
            in_precision: setting.in_precision,
            weight_precision: setting.weight_precision,
            out_precision: setting.out_precision,
        };
        for t in &mut self.tnpus {
            t.configure_layer(cfg);
        }
        self.layer_cfg = Some(cfg);
        self.setting = Some(setting);
        self.packing = packing;
        self.param_words.clear();
        self.params.clear();
        self.outputs.clear();
        self.scores.clear();
        self.maxout.reset();
        self.have_inputs = false;
        self.cycles = LayerCycles::default();
        self.state = if expected_param_words == 0 {
            State::Ready
        } else {
            State::AwaitParams {
                remaining: expected_param_words,
            }
        };
    }

    /// Feeds one parameter-section word; returns `true` when the section
    /// is complete (the buffer cluster is filled and decoded).
    pub fn ingest_param_word(&mut self, word: u64) -> bool {
        let State::AwaitParams { remaining } = self.state else {
            panic!("LPU {} not awaiting parameters", self.id);
        };
        self.param_words.push(word);
        if remaining == 1 {
            let setting = self.setting();
            self.params = decode_neuron_params(&setting, &self.param_words);
            self.state = State::Ready;
            true
        } else {
            self.state = State::AwaitParams {
                remaining: remaining - 1,
            };
            false
        }
    }

    /// Loads the previous layer's outputs (MAC-domain values) into the
    /// Layer Input / Input Reload buffers.
    pub fn set_inputs(&mut self, values: Vec<i32>) {
        let setting = self.setting();
        let expect = if setting.layer_type == LayerType::Input {
            cast::usize_from_u32(setting.neurons)
        } else {
            cast::usize_from_u32(setting.input_len)
        };
        assert_eq!(values.len(), expect, "LPU {} input length", self.id);
        self.inputs = values;
        self.have_inputs = true;
        self.packed_inputs_stale = true;
    }

    /// The current layer's setting.
    fn setting(&self) -> LayerSetting {
        let Some(setting) = self.setting else {
            panic!("LPU {} has no layer begun", self.id)
        };
        setting
    }

    fn levels_per_word(&self) -> usize {
        levels_per_word(&self.setting(), self.packing)
    }

    fn levels_per_group(&self) -> usize {
        levels_per_group(&self.setting(), self.tnpus[0].lanes())
    }

    fn dispatch_groups(&self, chunk: usize) -> u32 {
        let groups = dispatch_groups(&self.setting(), self.packing, self.tnpus[0].lanes(), chunk);
        cast::u32_sat_usize(groups)
    }

    /// Advances one clock cycle of steps 2–3. `stream` is the Network
    /// Input FIFO the weight section arrives on; the NetPU only calls
    /// this for the LPU whose weight section is current. `obs`
    /// receives the LPU's events and datapath values.
    pub fn tick(&mut self, stream: &mut StreamSource, cycle: Cycle, obs: &mut Observer) -> Tick {
        let Some(setting) = self.setting else {
            self.cycles[LayerPhase::STALL] += 1;
            return Tick::Stall;
        };
        match self.state {
            State::Ready if self.have_inputs => {
                self.cycles[LayerPhase::READY] += 1;
                if setting.layer_type == LayerType::Input {
                    self.state = State::InputLayer {
                        word: 0,
                        subcycle: 0,
                    };
                } else {
                    self.state = State::BatchInit {
                        batch_start: 0,
                        left: self.batch_init_cost(0),
                    };
                    obs.event(cycle, "lpu", || {
                        format!("lpu{} starts layer ({} neurons)", self.id, setting.neurons)
                    });
                }
                Tick::Progress
            }
            State::Idle | State::AwaitParams { .. } | State::Ready | State::Done => {
                self.cycles[LayerPhase::STALL] += 1;
                Tick::Stall
            }
            State::InputLayer { word, subcycle } => {
                let per_word_cost = input_word_cycles(&setting);
                self.cycles[LayerPhase::INPUT] += 1;
                if subcycle + 1 < per_word_cost {
                    self.state = State::InputLayer {
                        word,
                        subcycle: subcycle + 1,
                    };
                    return Tick::Progress;
                }
                // Word complete: quantize its pixels through the TNPU
                // yellow path.
                let n = cast::usize_from_u32(setting.neurons);
                let lo = word * 8;
                let hi = ((word + 1) * 8).min(n);
                for i in lo..hi {
                    self.tnpus[0].load_neuron(self.params[i].clone());
                    let level = self.tnpus[0].process_input(self.inputs[i]);
                    obs.sample(i, ProbeStage::Level, i64::from(level));
                    self.outputs.push(level);
                }
                if hi == n {
                    self.state = State::Done;
                    obs.event(cycle, "lpu", || {
                        format!("lpu{} input layer done ({n} levels)", self.id)
                    });
                } else {
                    self.state = State::InputLayer {
                        word: word + 1,
                        subcycle: 0,
                    };
                }
                Tick::Progress
            }
            State::BatchInit { batch_start, left } => {
                self.cycles[LayerPhase::INIT] += 1;
                if left > 1 {
                    self.state = State::BatchInit {
                        batch_start,
                        left: left - 1,
                    };
                    return Tick::Progress;
                }
                // Latch the batch's parameters into the TNPUs.
                let n = cast::usize_from_u32(setting.neurons);
                let end = (batch_start + self.tnpus.len()).min(n);
                for (t, neuron) in (batch_start..end).enumerate() {
                    self.tnpus[t].load_neuron(self.params[neuron].clone());
                }
                self.state = State::Weights {
                    batch_start,
                    t: 0,
                    chunk: 0,
                    subcycle: 0,
                };
                Tick::Progress
            }
            State::Weights {
                batch_start,
                t,
                chunk,
                subcycle,
            } => {
                // Single-port Layer Weight buffer: ingest on one cycle,
                // then one dispatch subcycle per multiplier-lane group
                // (double buffering hides the ingest cycle behind the
                // first dispatch group).
                if subcycle == 0 {
                    match stream.take() {
                        Some(w) => {
                            let pushed = self.weight_fifo.push(w);
                            debug_assert!(pushed, "weight FIFO overflow");
                            self.pending_word = self.weight_fifo.pop().unwrap_or(w);
                            self.cycles[LayerPhase::WEIGHT_INGEST] += 1;
                            if self.double_buffered {
                                self.dispatch_group(t, chunk, 0);
                                self.after_group(batch_start, t, chunk, 1);
                            } else {
                                self.state = State::Weights {
                                    batch_start,
                                    t,
                                    chunk,
                                    subcycle: 1,
                                };
                            }
                            Tick::Progress
                        }
                        None => {
                            self.cycles[LayerPhase::STALL] += 1;
                            Tick::Stall
                        }
                    }
                } else {
                    self.cycles[LayerPhase::WEIGHT_DISPATCH] += 1;
                    self.dispatch_group(t, chunk, subcycle - 1);
                    self.after_group(batch_start, t, chunk, subcycle);
                    Tick::Progress
                }
            }
            State::Drain { batch_start, left } => {
                self.cycles[LayerPhase::DRAIN] += 1;
                if left > 1 {
                    self.state = State::Drain {
                        batch_start,
                        left: left - 1,
                    };
                } else {
                    self.state = State::WriteOut {
                        batch_start,
                        left: self.write_out_cost(batch_start),
                    };
                }
                Tick::Progress
            }
            State::WriteOut { batch_start, left } => {
                self.cycles[LayerPhase::WRITE_OUT] += 1;
                if left > 1 {
                    self.state = State::WriteOut {
                        batch_start,
                        left: left - 1,
                    };
                    return Tick::Progress;
                }
                // Finalize the batch through the TNPU post-MAC stages.
                let n = cast::usize_from_u32(setting.neurons);
                let end = (batch_start + self.tnpus.len()).min(n);
                for (t, neuron) in (batch_start..end).enumerate() {
                    let out = self.tnpus[t].finalize();
                    if obs.is_sampling() {
                        record_finalize(obs, neuron, self.tnpus[t].tap(), out);
                    }
                    match out {
                        TnpuOut::Level(l) => self.outputs.push(l),
                        TnpuOut::Score(s) => {
                            self.scores.push(s);
                            self.maxout.push(neuron, s);
                        }
                    }
                }
                if end == n {
                    self.state = State::Done;
                    obs.event(cycle, "lpu", || {
                        format!(
                            "lpu{} layer done after {} weight words",
                            self.id,
                            self.cycles[LayerPhase::WEIGHT_INGEST]
                        )
                    });
                } else {
                    self.state = State::BatchInit {
                        batch_start: end,
                        left: self.batch_init_cost(end),
                    };
                }
                Tick::Progress
            }
        }
    }

    /// Parameter words still expected by `ingest_param_word` (0 unless
    /// the LPU is in the AwaitParams step).
    pub fn param_words_remaining(&self) -> usize {
        match self.state {
            State::AwaitParams { remaining } => remaining,
            _ => 0,
        }
    }

    /// Fast-path counterpart of [`Lpu::tick`]: advances up to `budget`
    /// clock cycles in one call, skipping through phases whose length is
    /// known in closed form (neuron init, pipeline drain, write-out) and
    /// streaming whole weight words per loop iteration.
    ///
    /// Cycle-exact with the tick path: the same state transitions happen
    /// on the same edges, every [`LayerCycles`] cell advances identically,
    /// and stream words are consumed on the same cycles (via
    /// [`StreamSource::take_unmetered`]; the caller settles idle-cycle
    /// accounting from the returned [`LpuBulk`]). A stall — empty stream
    /// mid-weights, or a state the LPU cannot advance — is reported
    /// after at most one edge so deadlock detection keeps its timing.
    pub fn bulk_tick(
        &mut self,
        stream: &mut StreamSource,
        cycle: Cycle,
        budget: u64,
        obs: &mut Observer,
    ) -> LpuBulk {
        debug_assert!(budget >= 1, "bulk_tick needs a positive budget");
        let mut advanced: u64 = 0;
        let mut words: u64 = 0;
        let mut tail: u64 = 0;
        let progress = |advanced, words, tail| LpuBulk {
            advanced,
            words,
            tail,
            tick: Tick::Progress,
        };
        const STALL: LpuBulk = LpuBulk {
            advanced: 1,
            words: 0,
            tail: 1,
            tick: Tick::Stall,
        };
        let Some(setting) = self.setting else {
            self.cycles[LayerPhase::STALL] += 1;
            return STALL;
        };
        loop {
            let left = budget - advanced;
            if left == 0 {
                return progress(advanced, words, tail);
            }
            match self.state {
                State::Ready if self.have_inputs => {
                    self.cycles[LayerPhase::READY] += 1;
                    if setting.layer_type == LayerType::Input {
                        self.state = State::InputLayer {
                            word: 0,
                            subcycle: 0,
                        };
                    } else {
                        self.state = State::BatchInit {
                            batch_start: 0,
                            left: self.batch_init_cost(0),
                        };
                        let now = cycle + advanced;
                        obs.event(now, "lpu", || {
                            format!("lpu{} starts layer ({} neurons)", self.id, setting.neurons)
                        });
                    }
                    advanced += 1;
                    tail += 1;
                }
                State::Idle | State::AwaitParams { .. } | State::Ready | State::Done => {
                    return if advanced > 0 {
                        progress(advanced, words, tail)
                    } else {
                        self.cycles[LayerPhase::STALL] += 1;
                        STALL
                    };
                }
                State::InputLayer { word, subcycle } => {
                    let per = input_word_cycles(&setting);
                    let n = cast::usize_from_u32(setting.neurons);
                    let n_words = cast::u64_from_usize(n.div_ceil(8));
                    let pos = cast::u64_from_usize(word) * per + subcycle;
                    let k = (n_words * per - pos).min(left);
                    self.cycles[LayerPhase::INPUT] += k;
                    advanced += k;
                    tail += k;
                    let pos = pos + k;
                    // Quantize the pixels of every word completed in
                    // this span through the TNPU yellow path.
                    for w in word..cast::usize_sat((pos / per).min(n_words)) {
                        let lo = w * 8;
                        let hi = ((w + 1) * 8).min(n);
                        for i in lo..hi {
                            self.tnpus[0].load_neuron(self.params[i].clone());
                            let level = self.tnpus[0].process_input(self.inputs[i]);
                            obs.sample(i, ProbeStage::Level, i64::from(level));
                            self.outputs.push(level);
                        }
                    }
                    if pos == n_words * per {
                        self.state = State::Done;
                        obs.event(cycle + advanced - 1, "lpu", || {
                            format!("lpu{} input layer done ({n} levels)", self.id)
                        });
                        return progress(advanced, words, tail);
                    }
                    self.state = State::InputLayer {
                        word: cast::usize_sat(pos / per),
                        subcycle: pos % per,
                    };
                }
                State::BatchInit {
                    batch_start,
                    left: need,
                } => {
                    let k = need.min(left);
                    self.cycles[LayerPhase::INIT] += k;
                    advanced += k;
                    tail += k;
                    if k < need {
                        self.state = State::BatchInit {
                            batch_start,
                            left: need - k,
                        };
                    } else {
                        let n = cast::usize_from_u32(setting.neurons);
                        let end = (batch_start + self.tnpus.len()).min(n);
                        for (t, neuron) in (batch_start..end).enumerate() {
                            self.tnpus[t].load_neuron(self.params[neuron].clone());
                        }
                        self.state = State::Weights {
                            batch_start,
                            t: 0,
                            chunk: 0,
                            subcycle: 0,
                        };
                    }
                }
                State::Weights {
                    batch_start,
                    t,
                    chunk,
                    subcycle,
                } => {
                    // Effective group count: a zero-span tail word still
                    // costs one (empty) dispatch subcycle on the tick
                    // path.
                    let groups = self.dispatch_groups(chunk).max(1);
                    // Steady-state burst: when every chunk dispatches in a
                    // single group (the paper instance: 64 XNOR channels =
                    // one 64-bit word), whole words cost a fixed
                    // `cost` cycles each and the remaining words of the
                    // batch can be consumed in one tight loop — per-word
                    // cycle cells identical, FIFO counters settled in bulk.
                    if subcycle == 0 && self.levels_per_group() >= self.levels_per_word() {
                        let cost = if self.double_buffered { 1u64 } else { 2u64 };
                        let chunks = neuron_weight_words_mode(&setting, self.packing);
                        let n = cast::usize_from_u32(setting.neurons);
                        let end = (batch_start + self.tnpus.len()).min(n);
                        let batch = end - batch_start;
                        let in_batch = cast::u64_from_usize(batch - t)
                            * cast::u64_from_usize(chunks)
                            - cast::u64_from_usize(chunk);
                        let m = (left / cost)
                            .min(cast::u64_from_usize(stream.remaining()))
                            .min(in_batch);
                        if m >= 1 {
                            let xnor = uses_xnor_path(&setting);
                            if xnor && self.packed_inputs_stale {
                                self.packed_inputs =
                                    netpu_arith::quant::pack_binary_channels(&self.inputs);
                                self.packed_inputs_stale = false;
                            }
                            let lpw = self.levels_per_word();
                            let (mut ct, mut cc) = (t, chunk);
                            let taken = stream.take_words(cast::usize_sat(m));
                            for &w in taken {
                                let lo = cc * lpw;
                                let span = self.inputs.len().saturating_sub(lo).min(lpw);
                                if span > 0 {
                                    if xnor {
                                        self.tnpus[ct].mac_word_prepacked(
                                            self.packed_inputs[cc],
                                            cast::u32_sat_usize(span),
                                            w,
                                        );
                                    } else {
                                        self.weight_scratch.clear();
                                        self.weight_scratch.extend(
                                            (0..span).map(|i| {
                                                extract_weight(w, i, &setting, self.packing)
                                            }),
                                        );
                                        self.tnpus[ct].mac_values(
                                            &self.inputs[lo..lo + span],
                                            &self.weight_scratch,
                                        );
                                    }
                                }
                                cc += 1;
                                if cc == chunks {
                                    cc = 0;
                                    ct += 1;
                                }
                            }
                            if let Some(&last) = taken.last() {
                                self.pending_word = last;
                            }
                            self.weight_fifo.settle_push_pops(m);
                            self.cycles[LayerPhase::WEIGHT_INGEST] += m;
                            self.cycles[LayerPhase::WEIGHT_DISPATCH] += m * (cost - 1);
                            advanced += m * cost;
                            words += m;
                            tail = cost - 1;
                            if ct == batch {
                                self.state = State::Drain {
                                    batch_start,
                                    left: PIPELINE_DEPTH,
                                };
                            } else {
                                self.state = State::Weights {
                                    batch_start,
                                    t: ct,
                                    chunk: cc,
                                    subcycle: 0,
                                };
                            }
                            continue;
                        }
                    }
                    if subcycle == 0 {
                        let Some(w) = stream.take_unmetered() else {
                            return if advanced > 0 {
                                progress(advanced, words, tail)
                            } else {
                                self.cycles[LayerPhase::STALL] += 1;
                                STALL
                            };
                        };
                        self.pending_word = self.weight_fifo.push_pop(w).unwrap_or(w);
                        words += 1;
                        let cost = if self.double_buffered {
                            u64::from(groups)
                        } else {
                            1 + u64::from(groups)
                        };
                        let k = cost.min(left);
                        self.cycles[LayerPhase::WEIGHT_INGEST] += 1;
                        self.cycles[LayerPhase::WEIGHT_DISPATCH] += k - 1;
                        advanced += k;
                        tail = k - 1;
                        // The ingest edge dispatches group 0 only when
                        // double-buffered; each further edge one group.
                        let dispatched =
                            cast::u32_sat(if self.double_buffered { k } else { k - 1 });
                        for group in 0..dispatched {
                            self.dispatch_group_fast(t, chunk, group);
                        }
                        if k == cost {
                            self.after_group(batch_start, t, chunk, groups);
                        } else {
                            self.state = State::Weights {
                                batch_start,
                                t,
                                chunk,
                                subcycle: dispatched + 1,
                            };
                        }
                    } else {
                        // Resuming mid-word (a previous span ran out of
                        // budget): groups subcycle−1 … groups−1 remain.
                        let remaining = u64::from(groups - (subcycle - 1));
                        let k = remaining.min(left);
                        self.cycles[LayerPhase::WEIGHT_DISPATCH] += k;
                        advanced += k;
                        tail += k;
                        for group in (subcycle - 1)..(subcycle - 1 + cast::u32_sat(k)) {
                            self.dispatch_group_fast(t, chunk, group);
                        }
                        if k == remaining {
                            self.after_group(batch_start, t, chunk, groups);
                        } else {
                            self.state = State::Weights {
                                batch_start,
                                t,
                                chunk,
                                subcycle: subcycle + cast::u32_sat(k),
                            };
                        }
                    }
                }
                State::Drain {
                    batch_start,
                    left: need,
                } => {
                    let k = need.min(left);
                    self.cycles[LayerPhase::DRAIN] += k;
                    advanced += k;
                    tail += k;
                    if k < need {
                        self.state = State::Drain {
                            batch_start,
                            left: need - k,
                        };
                    } else {
                        self.state = State::WriteOut {
                            batch_start,
                            left: self.write_out_cost(batch_start),
                        };
                    }
                }
                State::WriteOut {
                    batch_start,
                    left: need,
                } => {
                    let k = need.min(left);
                    self.cycles[LayerPhase::WRITE_OUT] += k;
                    advanced += k;
                    tail += k;
                    if k < need {
                        self.state = State::WriteOut {
                            batch_start,
                            left: need - k,
                        };
                        continue;
                    }
                    let n = cast::usize_from_u32(setting.neurons);
                    let end = (batch_start + self.tnpus.len()).min(n);
                    for (t, neuron) in (batch_start..end).enumerate() {
                        let out = self.tnpus[t].finalize();
                        if obs.is_sampling() {
                            record_finalize(obs, neuron, self.tnpus[t].tap(), out);
                        }
                        match out {
                            TnpuOut::Level(l) => self.outputs.push(l),
                            TnpuOut::Score(s) => {
                                self.scores.push(s);
                                self.maxout.push(neuron, s);
                            }
                        }
                    }
                    if end == n {
                        self.state = State::Done;
                        obs.event(cycle + advanced - 1, "lpu", || {
                            format!(
                                "lpu{} layer done after {} weight words",
                                self.id,
                                self.cycles[LayerPhase::WEIGHT_INGEST]
                            )
                        });
                        return progress(advanced, words, tail);
                    }
                    self.state = State::BatchInit {
                        batch_start: end,
                        left: self.batch_init_cost(end),
                    };
                }
            }
        }
    }

    /// Neuron Initialization cost for the batch starting at `start`.
    fn batch_init_cost(&self, start: usize) -> u64 {
        let (setting, batch) = self.batch_at(start);
        (init_cycles_per_neuron(&setting) * cast::u64_from_usize(batch)).max(1)
    }

    /// Write-out cost for the batch starting at `start`.
    fn write_out_cost(&self, start: usize) -> u64 {
        let (setting, batch) = self.batch_at(start);
        write_out_cycles(&setting, batch, self.softmax_output)
    }

    /// The current setting and the size of the batch starting at `start`.
    fn batch_at(&self, start: usize) -> (LayerSetting, usize) {
        let setting = self.setting();
        let n = cast::usize_from_u32(setting.neurons);
        (setting, (start + self.tnpus.len()).min(n) - start)
    }

    /// Runs one dispatch group of the pending weight word through the
    /// MUL/ACCU stages of TNPU `t`: up to `mul_lanes` integer products
    /// (or `mul_lanes × 8` XNOR channels) against the matching slice of
    /// the Input Reload buffer.
    fn dispatch_group(&mut self, t: usize, chunk: usize, group: u32) {
        let setting = self.setting();
        let lpw = self.levels_per_word();
        let lpg = self.levels_per_group();
        let word_lo = chunk * lpw;
        let lo = word_lo + cast::usize_from_u32(group) * lpg;
        let hi = (lo + lpg).min(word_lo + lpw).min(self.inputs.len());
        if lo >= hi {
            return; // tail padding
        }
        let slice: Vec<i32> = self.inputs[lo..hi].to_vec();
        if uses_xnor_path(&setting) {
            // Shift the relevant channel window down to bit 0.
            let word = self.pending_word >> (cast::usize_from_u32(group) * lpg);
            self.tnpus[t].mac_word(&slice, word);
        } else {
            let base = cast::usize_from_u32(group) * lpg;
            let weights: Vec<i32> = (0..slice.len())
                .map(|i| extract_weight(self.pending_word, base + i, &setting, self.packing))
                .collect();
            self.tnpus[t].mac_values(&slice, &weights);
        }
    }

    /// [`Lpu::dispatch_group`] without the per-group allocations or the
    /// per-lane XNOR loop: input levels are pre-packed into bipolar bit
    /// words (64 at a time, chunk-aligned), so an XNOR-path group is one
    /// XOR+popcount; integer-path weights land in a reused scratch
    /// buffer. Numerically identical to the tick path.
    fn dispatch_group_fast(&mut self, t: usize, chunk: usize, group: u32) {
        let setting = self.setting();
        let lpw = self.levels_per_word();
        let lpg = self.levels_per_group();
        let word_lo = chunk * lpw;
        let lo = word_lo + cast::usize_from_u32(group) * lpg;
        let hi = (lo + lpg).min(word_lo + lpw).min(self.inputs.len());
        if lo >= hi {
            return; // tail padding
        }
        if uses_xnor_path(&setting) {
            if self.packed_inputs_stale {
                self.packed_inputs = netpu_arith::quant::pack_binary_channels(&self.inputs);
                self.packed_inputs_stale = false;
            }
            let shift = cast::usize_from_u32(group) * lpg;
            let bits = self.packed_inputs[chunk] >> shift;
            let word = self.pending_word >> shift;
            self.tnpus[t].mac_word_prepacked(bits, cast::u32_sat_usize(hi - lo), word);
        } else {
            let base = cast::usize_from_u32(group) * lpg;
            let word = self.pending_word;
            self.weight_scratch.clear();
            self.weight_scratch.extend(
                (0..hi - lo).map(|i| extract_weight(word, base + i, &setting, self.packing)),
            );
            self.tnpus[t].mac_values(&self.inputs[lo..hi], &self.weight_scratch);
        }
    }

    /// Advances the dispatch iteration after a completed subcycle:
    /// next group of the same word, next word of the same neuron
    /// (neuron-major order), next neuron, or pipeline drain.
    fn after_group(&mut self, batch_start: usize, t: usize, chunk: usize, completed_subcycle: u32) {
        if completed_subcycle < self.dispatch_groups(chunk) {
            self.state = State::Weights {
                batch_start,
                t,
                chunk,
                subcycle: completed_subcycle + 1,
            };
            return;
        }
        let setting = self.setting();
        let chunks = neuron_weight_words_mode(&setting, self.packing);
        let n = cast::usize_from_u32(setting.neurons);
        let end = (batch_start + self.tnpus.len()).min(n);
        let batch = end - batch_start;
        let (next_t, next_chunk) = if chunk + 1 < chunks {
            (t, chunk + 1)
        } else {
            (t + 1, 0)
        };
        if next_t < batch {
            self.state = State::Weights {
                batch_start,
                t: next_t,
                chunk: next_chunk,
                subcycle: 0,
            };
        } else {
            self.state = State::Drain {
                batch_start,
                left: PIPELINE_DEPTH,
            };
        }
    }

    /// Collects the finished layer's result.
    pub fn take_output(&mut self) -> LayerOutput {
        assert!(self.is_done(), "LPU {} not done", self.id);
        let setting = self.setting();
        if setting.layer_type == LayerType::Output {
            let (Some(class), Some(score)) = (self.maxout.result(), self.maxout.best_score())
            else {
                panic!("LPU {} output layer produced no scores", self.id)
            };
            LayerOutput::Class {
                class,
                score,
                scores: std::mem::take(&mut self.scores),
            }
        } else {
            LayerOutput::Levels(std::mem::take(&mut self.outputs))
        }
    }

    /// Step of the NetPU workflow: LPU Resetting — frees the LPU for its
    /// next assigned layer.
    pub fn reset(&mut self) {
        self.setting = None;
        self.layer_cfg = None;
        self.param_words.clear();
        self.params.clear();
        self.inputs.clear();
        self.have_inputs = false;
        self.packed_inputs_stale = true;
        self.outputs.clear();
        self.scores.clear();
        self.weight_fifo.clear();
        self.state = State::Idle;
    }

    /// Block-RAM cost of the Table III buffer cluster (for the resource
    /// model).
    pub fn buffer_bram36() -> f64 {
        BUFFER_CLUSTER
            .iter()
            .map(|&(_, w, d)| netpu_sim::fifo::bram36_for(w, d))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_arith::Precision;

    #[test]
    fn buffer_cluster_matches_table3() {
        assert_eq!(BUFFER_CLUSTER.len(), 10);
        // 4 × 64-wide×1024 buffers at 2 BRAM36 each, 6 × 128-wide×2048 at
        // 8 BRAM36 each → 56 per LPU.
        assert_eq!(Lpu::buffer_bram36(), 56.0);
    }

    #[test]
    fn init_cost_depends_on_activation() {
        let base = LayerSetting {
            layer_type: LayerType::Hidden,
            activation: ActivationKind::Sign,
            bn_folded: true,
            in_precision: Precision::W1,
            weight_precision: Precision::W1,
            out_precision: Precision::W1,
            neurons: 8,
            input_len: 64,
        };
        // Sign: 1 bias read + 1 threshold read.
        assert_eq!(init_cycles_per_neuron(&base), 2);
        // 4-bit multi-threshold: 15 params → 4 reads + bias.
        let mt = LayerSetting {
            activation: ActivationKind::MultiThreshold,
            out_precision: Precision::W4,
            ..base
        };
        assert_eq!(init_cycles_per_neuron(&mt), 5);
        // Output layer: bias read only.
        let out = LayerSetting {
            layer_type: LayerType::Output,
            ..base
        };
        assert_eq!(init_cycles_per_neuron(&out), 1);
    }

    #[test]
    fn decode_neuron_params_roundtrips_with_compiler() {
        use netpu_nn::export::BnMode;
        use netpu_nn::ZooModel;
        for mode in [BnMode::Folded, BnMode::Hardware] {
            let model = ZooModel::TfcW2A2.build_untrained(5, mode).unwrap();
            let pixels = vec![0u8; model.input.len];
            let loadable = netpu_compiler::compile(&model, &pixels).unwrap();
            let settings = netpu_compiler::stream::model_settings(&model);
            // Hidden layer 1's parameter section.
            let (_, layer, range) = loadable.layout.sections[1].clone();
            assert_eq!(layer, 1);
            let params = decode_neuron_params(&settings[1], &loadable.words[range]);
            assert_eq!(params.len(), 64);
            let h = &model.hidden[0];
            for (n, p) in params.iter().enumerate() {
                match mode {
                    BnMode::Folded => {
                        assert_eq!(p.bias, Some(h.bias.as_ref().unwrap()[n]));
                        assert!(p.bn.is_none());
                    }
                    BnMode::Hardware => {
                        assert!(p.bias.is_none());
                        assert_eq!(p.bn.as_ref().unwrap(), &h.bn.as_ref().unwrap()[n]);
                    }
                }
                match (&p.activation, &h.activation) {
                    (
                        NeuronActivation::MultiThreshold(got),
                        netpu_nn::LayerActivation::MultiThreshold { .. },
                    ) => assert_eq!(got, h.activation.threshold_row(n, h.out_precision)),
                    other => panic!("unexpected activation decode: {other:?}"),
                }
            }
        }
    }
}
