//! The Transformable Neuron Processing Unit (§III.B.1, Fig. 3).
//!
//! A TNPU chains six submodules — MUL, ACCU, BN, ACTIV, QUAN, and the
//! Crossbar that routes data between them. The crossbar reconfigures the
//! datapath at runtime per layer kind, activation selector, and
//! BN-folding option, which is what makes the neuron "transformable":
//! the same hardware serves input-layer quantization (yellow path),
//! hidden-layer inference (red path), and output-layer scoring (pink
//! path) for both BNN and QNN models.

use netpu_arith::activation::{relu, sigmoid, tanh};
use netpu_arith::{cast, ActivationKind, Fix, Precision, QuantParams};
use netpu_compiler::LayerType;
use netpu_nn::qmodel::BnParams;
use serde::{Deserialize, Serialize};

/// A datapath stage the crossbar can route through.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Stage {
    /// The multiplier array (integer or XNOR lanes).
    Mul,
    /// The 32-bit saturating accumulator (+ optional 8-bit bias).
    Accu,
    /// The fixed-point batch-normalization unit.
    Bn,
    /// The activation unit.
    Activ,
    /// The re-quantization unit.
    Quan,
}

/// The crossbar's routing decision: the stage sequence for a layer
/// configuration. This is the executable form of Figure 3's five
/// coloured paths.
pub fn crossbar_route(
    layer_type: LayerType,
    activation: ActivationKind,
    bn_folded: bool,
) -> Vec<Stage> {
    match layer_type {
        // Yellow path: the dataset input bypasses MUL/ACCU/BN and goes
        // straight to ACTIV (Sign / Multi-Threshold) or ACTIV+QUAN.
        LayerType::Input => {
            if activation.bypasses_quan() {
                vec![Stage::Activ]
            } else {
                vec![Stage::Activ, Stage::Quan]
            }
        }
        // Red path: full pipeline, skipping BN when folded and QUAN when
        // the activation output is already quantized.
        LayerType::Hidden => {
            let mut route = vec![Stage::Mul, Stage::Accu];
            if !bn_folded {
                route.push(Stage::Bn);
            }
            route.push(Stage::Activ);
            if !activation.bypasses_quan() {
                route.push(Stage::Quan);
            }
            route
        }
        // Pink path: the output of ACCU (or BN) leaves the TNPU as the
        // neuron's score; ACTIV and QUAN are bypassed (MaxOut follows).
        LayerType::Output => {
            if bn_folded {
                vec![Stage::Mul, Stage::Accu]
            } else {
                vec![Stage::Mul, Stage::Accu, Stage::Bn]
            }
        }
    }
}

/// Per-neuron activation parameters loaded during Neuron Initialization.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum NeuronActivation {
    /// Sign with its folded threshold.
    Sign(Fix),
    /// Multi-Threshold with its sorted threshold row.
    MultiThreshold(Vec<Fix>),
    /// ReLU + QUAN parameters.
    Relu(QuantParams),
    /// Sigmoid + QUAN parameters.
    Sigmoid(QuantParams),
    /// Tanh + QUAN parameters.
    Tanh(QuantParams),
    /// Output-layer neurons have no activation (pink path).
    None,
}

impl NeuronActivation {
    /// The ACTIV selector this parameter set corresponds to.
    pub fn kind(&self) -> Option<ActivationKind> {
        match self {
            NeuronActivation::Sign(_) => Some(ActivationKind::Sign),
            NeuronActivation::MultiThreshold(_) => Some(ActivationKind::MultiThreshold),
            NeuronActivation::Relu(_) => Some(ActivationKind::Relu),
            NeuronActivation::Sigmoid(_) => Some(ActivationKind::Sigmoid),
            NeuronActivation::Tanh(_) => Some(ActivationKind::Tanh),
            NeuronActivation::None => None,
        }
    }
}

/// Everything one neuron needs loaded before processing.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct NeuronParams {
    /// Folded 8-bit bias (exclusive with `bn`).
    pub bias: Option<i32>,
    /// Hardware BN parameters (exclusive with `bias`).
    pub bn: Option<BnParams>,
    /// Activation parameters.
    pub activation: NeuronActivation,
}

/// Static per-layer configuration a TNPU receives at Layer Initialization.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LayerCfg {
    /// Layer kind (selects the crossbar path).
    pub layer_type: LayerType,
    /// Incoming-activation precision.
    pub in_precision: Precision,
    /// Weight precision.
    pub weight_precision: Precision,
    /// Outgoing-activation precision.
    pub out_precision: Precision,
}

impl LayerCfg {
    /// `true` when the MUL stage uses the XNOR lanes (both operands
    /// 1-bit — the §III.B.1 pairing rule).
    pub fn uses_xnor(&self) -> bool {
        self.in_precision.is_binary() && self.weight_precision.is_binary()
    }
}

/// The result leaving a TNPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TnpuOut {
    /// A quantized activation level (hidden/input layers). Sign levels
    /// are the 0/1 bit encoding.
    Level(i32),
    /// An output-layer score for MaxOut.
    Score(Fix),
}

/// The intermediate values the last [`Tnpu::finalize`] observed, exposed
/// for the observer's datapath samples (the range-analysis soundness hook).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NeuronTap {
    /// Post-bias accumulator value entering the post-MAC stages.
    pub acc: i32,
    /// Post-BN value, when the crossbar route includes the BN stage.
    pub post_bn: Option<Fix>,
}

/// One Transformable Neuron Processing Unit.
#[derive(Clone, Debug)]
pub struct Tnpu {
    lanes: usize,
    layer: Option<LayerCfg>,
    params: Option<NeuronParams>,
    acc: i32,
    tap: NeuronTap,
    /// MAC operations performed since configuration (statistics).
    pub mac_ops: u64,
}

impl Tnpu {
    /// Creates a TNPU with `lanes` parallel 8-bit multiplier lanes.
    pub fn new(lanes: usize) -> Tnpu {
        assert!((1..=8).contains(&lanes), "1..=8 multiplier lanes");
        Tnpu {
            lanes,
            layer: None,
            params: None,
            acc: 0,
            tap: NeuronTap::default(),
            mac_ops: 0,
        }
    }

    /// Number of multiplier lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Input levels consumed per weight word: 8 lanes × 8 channels on
    /// the XNOR path, `lanes` on the integer path.
    pub fn levels_per_word(&self, layer: &LayerCfg) -> usize {
        if layer.uses_xnor() {
            self.lanes * 8
        } else {
            self.lanes
        }
    }

    /// Layer Initialization: latch the layer configuration.
    pub fn configure_layer(&mut self, layer: LayerCfg) {
        self.layer = Some(layer);
        self.params = None;
        self.acc = 0;
    }

    /// Neuron Initialization: latch one neuron's parameters and clear
    /// the accumulator.
    pub fn load_neuron(&mut self, params: NeuronParams) {
        assert!(self.layer.is_some(), "configure_layer first");
        self.acc = 0;
        self.params = Some(params);
    }

    /// The MUL+ACCU stages for one weight word against the matching
    /// input chunk (levels in MAC domain: ±1 for binary, unsigned
    /// otherwise). `inputs` holds at most [`Tnpu::levels_per_word`]
    /// entries; shorter chunks model a layer tail.
    pub fn mac_word(&mut self, inputs: &[i32], weight_word: u64) {
        let Some(layer) = self.layer else {
            panic!("configure_layer before mac_word")
        };
        debug_assert!(inputs.len() <= self.levels_per_word(&layer));
        let mut sum: i64 = 0;
        if layer.uses_xnor() {
            // Eight 8-bit XNOR multipliers + popcount (Table I).
            let mut bits = 0u64;
            for (i, &v) in inputs.iter().enumerate() {
                bits |= u64::from(netpu_arith::binary::encode_bipolar(v)) << i;
            }
            let n = cast::u32_sat_usize(inputs.len());
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let ones = (!(bits ^ weight_word) & mask).count_ones();
            sum = 2 * i64::from(ones) - i64::from(n);
        } else {
            for (i, &a) in inputs.iter().enumerate() {
                let byte = cast::lo8(weight_word >> (8 * i));
                let w = if layer.weight_precision.is_binary() {
                    // ±1 weights promoted onto the integer path travel
                    // sign-extended (the placeholder-lane encoding).
                    cast::sign_extend(u32::from(byte), 8)
                } else {
                    let bits = u32::from(layer.weight_precision.bits());
                    let masked = u32::from(byte) & ((1 << bits) - 1);
                    cast::sign_extend(masked, bits)
                };
                sum += i64::from(w) * i64::from(a);
            }
        }
        self.acc = cast::i32_sat(i64::from(self.acc) + sum);
        self.mac_ops += cast::u64_from_usize(inputs.len());
    }

    /// [`Tnpu::mac_word`] for the XNOR path with the input bits already
    /// packed (bit `i` = `encode_bipolar(inputs[i])`). The LPU fast path
    /// packs a layer's input levels once and then feeds every weight
    /// word of every neuron through this single XOR+popcount, which is
    /// arithmetically identical to the per-lane loop above: both reduce
    /// to `2·popcount(XNOR(bits, weights) & mask) − n`.
    pub fn mac_word_prepacked(&mut self, input_bits: u64, n: u32, weight_word: u64) {
        debug_assert!(self.layer.is_some_and(|l| l.uses_xnor()));
        debug_assert!(self
            .layer
            .is_some_and(|l| cast::usize_from_u32(n) <= self.levels_per_word(&l)));
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let ones = (!(input_bits ^ weight_word) & mask).count_ones();
        let sum = 2 * i64::from(ones) - i64::from(n);
        self.acc = cast::i32_sat(i64::from(self.acc) + sum);
        self.mac_ops += u64::from(n);
    }

    /// The MUL+ACCU stages for pre-extracted integer-path operands (the
    /// LPU extracts weight fields word-by-word; dense packing can carry
    /// more weights per word than lanes, so extraction lives upstream).
    pub fn mac_values(&mut self, inputs: &[i32], weights: &[i32]) {
        debug_assert_eq!(inputs.len(), weights.len());
        debug_assert!(inputs.len() <= self.lanes);
        let mut sum: i64 = 0;
        for (&a, &w) in inputs.iter().zip(weights) {
            sum += i64::from(w) * i64::from(a);
        }
        self.acc = cast::i32_sat(i64::from(self.acc) + sum);
        self.mac_ops += cast::u64_from_usize(inputs.len());
    }

    /// Current accumulator value (observability for tests).
    pub fn acc(&self) -> i32 {
        self.acc
    }

    /// The intermediate values the last [`Tnpu::finalize`] observed.
    pub fn tap(&self) -> NeuronTap {
        self.tap
    }

    /// Routes a value through the post-MAC stages of the crossbar path,
    /// also returning the post-BN intermediate when the route has a BN
    /// stage (for the [`NeuronTap`]).
    fn post_stages(&self, route: &[Stage], start: Fix) -> (TnpuOut, Option<Fix>) {
        let Some(params) = self.params.as_ref() else {
            panic!("load_neuron before post stages")
        };
        let Some(layer) = self.layer else {
            panic!("configure_layer before post stages")
        };
        let mut x = start;
        let mut level: Option<i32> = None;
        let mut post_bn: Option<Fix> = None;
        for stage in route {
            match stage {
                Stage::Mul | Stage::Accu => {}
                Stage::Bn => {
                    let Some(bn) = params.bn.as_ref() else {
                        panic!("BN stage needs parameters")
                    };
                    x = bn.apply(x);
                    post_bn = Some(x);
                }
                Stage::Activ => match &params.activation {
                    NeuronActivation::Sign(t) => {
                        level = Some(i32::from(x >= *t));
                    }
                    NeuronActivation::MultiThreshold(ts) => {
                        level = Some(cast::i32_sat_usize(ts.partition_point(|&t| t <= x)));
                    }
                    NeuronActivation::Relu(_) => x = relu(x),
                    NeuronActivation::Sigmoid(_) => x = sigmoid(x),
                    NeuronActivation::Tanh(_) => x = tanh(x),
                    NeuronActivation::None => unreachable!("pink path has no ACTIV"),
                },
                Stage::Quan => {
                    let q = match &params.activation {
                        NeuronActivation::Relu(q)
                        | NeuronActivation::Sigmoid(q)
                        | NeuronActivation::Tanh(q) => q,
                        _ => unreachable!("QUAN only follows the full-precision activations"),
                    };
                    level = Some(q.apply(x, layer.out_precision));
                }
            }
        }
        let out = match level {
            Some(l) => TnpuOut::Level(l),
            None => TnpuOut::Score(x),
        };
        (out, post_bn)
    }

    /// Finishes a hidden/output neuron: applies bias, then the post-MAC
    /// crossbar path, returning the level or score.
    pub fn finalize(&mut self) -> TnpuOut {
        let Some(layer) = self.layer else {
            panic!("configure_layer before finalize")
        };
        let Some(params) = self.params.as_ref() else {
            panic!("load_neuron before finalize")
        };
        debug_assert_ne!(layer.layer_type, LayerType::Input);
        let mut acc = self.acc;
        if let Some(b) = params.bias {
            acc = cast::i32_sat(i64::from(acc) + i64::from(b));
        }
        let act_kind = params.activation.kind().unwrap_or(ActivationKind::Relu);
        let route = crossbar_route(layer.layer_type, act_kind, params.bias.is_some());
        let (out, post_bn) = self.post_stages(&route, Fix::from_i32(acc));
        self.tap = NeuronTap { acc, post_bn };
        self.acc = 0;
        out
    }

    /// Processes one input-layer value through the yellow path.
    pub fn process_input(&mut self, raw: i32) -> i32 {
        let Some(layer) = self.layer else {
            panic!("configure_layer before process_input")
        };
        debug_assert_eq!(layer.layer_type, LayerType::Input);
        let Some(params) = self.params.as_ref() else {
            panic!("load_neuron before process_input")
        };
        let Some(kind) = params.activation.kind() else {
            panic!("input layer has no activation parameters")
        };
        let route = crossbar_route(LayerType::Input, kind, true);
        match self.post_stages(&route, Fix::from_i32(raw)).0 {
            TnpuOut::Level(l) => l,
            TnpuOut::Score(_) => unreachable!("yellow path always quantizes"),
        }
    }
}

/// The MaxOut classifier attached to the output layer: tracks the
/// running maximum score, keeping the lowest index on ties.
#[derive(Clone, Debug, Default)]
pub struct MaxOut {
    best: Option<(usize, Fix)>,
}

impl MaxOut {
    /// Resets for a new inference.
    pub fn reset(&mut self) {
        self.best = None;
    }

    /// Feeds one output neuron's score.
    pub fn push(&mut self, index: usize, score: Fix) {
        if self.best.is_none_or(|(_, s)| score > s) {
            self.best = Some((index, score));
        }
    }

    /// The winning class, if any score was pushed.
    pub fn result(&self) -> Option<usize> {
        self.best.map(|(i, _)| i)
    }

    /// The winning score, if any.
    pub fn best_score(&self) -> Option<Fix> {
        self.best.map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hidden_cfg(ip: Precision, wp: Precision, op: Precision) -> LayerCfg {
        LayerCfg {
            layer_type: LayerType::Hidden,
            in_precision: ip,
            weight_precision: wp,
            out_precision: op,
        }
    }

    /// Fig. 3 path 1: input layer of a BNN routes input → ACTIV only.
    #[test]
    fn route_input_bnn() {
        assert_eq!(
            crossbar_route(LayerType::Input, ActivationKind::Sign, true),
            vec![Stage::Activ]
        );
        assert_eq!(
            crossbar_route(LayerType::Input, ActivationKind::MultiThreshold, true),
            vec![Stage::Activ]
        );
    }

    /// Fig. 3 path 2: input layer on the QUAN path routes ACTIV → QUAN.
    #[test]
    fn route_input_qnn() {
        assert_eq!(
            crossbar_route(LayerType::Input, ActivationKind::Relu, true),
            vec![Stage::Activ, Stage::Quan]
        );
    }

    /// Fig. 3 path 3: hidden BNN layer with folded BN skips BN and QUAN.
    #[test]
    fn route_hidden_bnn_folded() {
        assert_eq!(
            crossbar_route(LayerType::Hidden, ActivationKind::Sign, true),
            vec![Stage::Mul, Stage::Accu, Stage::Activ]
        );
    }

    /// Fig. 3 path 4: hidden QNN layer with hardware BN and sigmoid runs
    /// the full pipeline.
    #[test]
    fn route_hidden_full_pipeline() {
        assert_eq!(
            crossbar_route(LayerType::Hidden, ActivationKind::Sigmoid, false),
            vec![
                Stage::Mul,
                Stage::Accu,
                Stage::Bn,
                Stage::Activ,
                Stage::Quan
            ]
        );
        // Multi-threshold bypasses QUAN even with hardware BN.
        assert_eq!(
            crossbar_route(LayerType::Hidden, ActivationKind::MultiThreshold, false),
            vec![Stage::Mul, Stage::Accu, Stage::Bn, Stage::Activ]
        );
    }

    /// Fig. 3 path 5: output layer stops after ACCU (or BN).
    #[test]
    fn route_output() {
        assert_eq!(
            crossbar_route(LayerType::Output, ActivationKind::Relu, true),
            vec![Stage::Mul, Stage::Accu]
        );
        assert_eq!(
            crossbar_route(LayerType::Output, ActivationKind::Relu, false),
            vec![Stage::Mul, Stage::Accu, Stage::Bn]
        );
    }

    #[test]
    fn xnor_mac_matches_integer_reference() {
        let cfg = hidden_cfg(Precision::W1, Precision::W1, Precision::W1);
        let mut t = Tnpu::new(8);
        t.configure_layer(cfg);
        t.load_neuron(NeuronParams {
            bias: Some(0),
            bn: None,
            activation: NeuronActivation::Sign(Fix::ZERO),
        });
        // 64 channels per word on the XNOR path.
        assert_eq!(t.levels_per_word(&cfg), 64);
        let inputs: Vec<i32> = (0..64).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect();
        let weights: Vec<i32> = (0..64).map(|i| if i % 5 == 0 { -1 } else { 1 }).collect();
        let word = netpu_arith::quant::pack_binary_channels(&weights)[0];
        t.mac_word(&inputs, word);
        let expect: i32 = inputs.iter().zip(&weights).map(|(&a, &w)| a * w).sum();
        assert_eq!(t.acc(), expect);
    }

    #[test]
    fn integer_mac_extracts_lanes_with_placeholders() {
        let cfg = hidden_cfg(Precision::W2, Precision::W2, Precision::W2);
        let mut t = Tnpu::new(8);
        t.configure_layer(cfg);
        t.load_neuron(NeuronParams {
            bias: Some(0),
            bn: None,
            activation: NeuronActivation::MultiThreshold(vec![
                Fix::ZERO,
                Fix::ONE,
                Fix::from_i32(2),
            ]),
        });
        // Weights -2,-1,0,1 in the low lanes; garbage placeholder bits
        // must be masked by the 2-bit extraction.
        let weights = [-2i32, -1, 0, 1];
        let mut word = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            word |= u64::from((w as i8 as u8) | 0b1111_0100 & 0xF0) << (8 * i);
        }
        let inputs = [3, 2, 1, 0];
        t.mac_word(&inputs[..], word);
        // -2·3 + -1·2 + 0·1 + 1·0 = -8.
        assert_eq!(t.acc(), -8);
    }

    #[test]
    fn binary_weights_on_integer_path_sign_extend() {
        let cfg = hidden_cfg(Precision::W2, Precision::W1, Precision::W2);
        assert!(!cfg.uses_xnor());
        let mut t = Tnpu::new(8);
        t.configure_layer(cfg);
        t.load_neuron(NeuronParams {
            bias: Some(0),
            bn: None,
            activation: NeuronActivation::MultiThreshold(vec![
                Fix::ZERO,
                Fix::ONE,
                Fix::from_i32(2),
            ]),
        });
        let word = u64::from(1u8) | (u64::from(-1i8 as u8) << 8);
        t.mac_word(&[2, 3], word);
        assert_eq!(t.acc(), 2 - 3);
    }

    #[test]
    fn finalize_sign_neuron_with_bias() {
        let cfg = hidden_cfg(Precision::W2, Precision::W2, Precision::W1);
        let mut t = Tnpu::new(8);
        t.configure_layer(cfg);
        t.load_neuron(NeuronParams {
            bias: Some(5),
            bn: None,
            activation: NeuronActivation::Sign(Fix::from_i32(4)),
        });
        // acc = 0, bias 5 ≥ threshold 4 → bit 1.
        assert_eq!(t.finalize(), TnpuOut::Level(1));
        t.load_neuron(NeuronParams {
            bias: Some(3),
            bn: None,
            activation: NeuronActivation::Sign(Fix::from_i32(4)),
        });
        assert_eq!(t.finalize(), TnpuOut::Level(0));
    }

    #[test]
    fn finalize_hardware_bn_multithreshold() {
        let cfg = hidden_cfg(Precision::W2, Precision::W2, Precision::W2);
        let mut t = Tnpu::new(8);
        t.configure_layer(cfg);
        t.load_neuron(NeuronParams {
            bias: None,
            bn: Some(BnParams {
                scale_q16: Fix::q16_scale_from_f64(0.5),
                offset: Fix::from_f64(1.0),
            }),
            activation: NeuronActivation::MultiThreshold(vec![
                Fix::from_f64(0.0),
                Fix::from_f64(2.0),
                Fix::from_f64(4.0),
            ]),
        });
        t.mac_word(&[2, 2], u64::from(1u8) | (1 << 8)); // acc = 4
                                                        // BN: 4·0.5 + 1 = 3 → thresholds {0,2,4} → level 2.
        assert_eq!(t.finalize(), TnpuOut::Level(2));
    }

    #[test]
    fn output_neuron_returns_score() {
        let cfg = LayerCfg {
            layer_type: LayerType::Output,
            in_precision: Precision::W2,
            weight_precision: Precision::W2,
            out_precision: Precision::W8,
        };
        let mut t = Tnpu::new(8);
        t.configure_layer(cfg);
        t.load_neuron(NeuronParams {
            bias: Some(-3),
            bn: None,
            activation: NeuronActivation::None,
        });
        t.mac_word(&[1, 1], u64::from(1u8) | (1 << 8)); // acc = 2
        assert_eq!(t.finalize(), TnpuOut::Score(Fix::from_i32(-1)));
    }

    #[test]
    fn input_layer_quantizes_pixels() {
        let cfg = LayerCfg {
            layer_type: LayerType::Input,
            in_precision: Precision::W8,
            weight_precision: Precision::W1,
            out_precision: Precision::W2,
        };
        let mut t = Tnpu::new(8);
        t.configure_layer(cfg);
        t.load_neuron(NeuronParams {
            bias: None,
            bn: None,
            activation: NeuronActivation::MultiThreshold(vec![
                Fix::from_i32(32),
                Fix::from_i32(96),
                Fix::from_i32(160),
            ]),
        });
        assert_eq!(t.process_input(10), 0);
        assert_eq!(t.process_input(100), 2);
        assert_eq!(t.process_input(250), 3);
    }

    #[test]
    fn finalize_resets_accumulator() {
        let cfg = hidden_cfg(Precision::W2, Precision::W2, Precision::W1);
        let mut t = Tnpu::new(8);
        t.configure_layer(cfg);
        t.load_neuron(NeuronParams {
            bias: Some(0),
            bn: None,
            activation: NeuronActivation::Sign(Fix::ZERO),
        });
        t.mac_word(&[3], u64::from(1u8));
        assert_eq!(t.acc(), 3);
        t.finalize();
        assert_eq!(t.acc(), 0);
    }

    #[test]
    fn maxout_keeps_first_on_tie() {
        let mut m = MaxOut::default();
        assert_eq!(m.result(), None);
        m.push(0, Fix::from_i32(5));
        m.push(1, Fix::from_i32(9));
        m.push(2, Fix::from_i32(9));
        m.push(3, Fix::from_i32(-2));
        assert_eq!(m.result(), Some(1));
        assert_eq!(m.best_score(), Some(Fix::from_i32(9)));
        m.reset();
        assert_eq!(m.result(), None);
    }

    #[test]
    fn mac_ops_counted() {
        let cfg = hidden_cfg(Precision::W2, Precision::W2, Precision::W1);
        let mut t = Tnpu::new(8);
        t.configure_layer(cfg);
        t.load_neuron(NeuronParams {
            bias: Some(0),
            bn: None,
            activation: NeuronActivation::Sign(Fix::ZERO),
        });
        t.mac_word(&[1, 2, 3], 0);
        t.mac_word(&[1], 0);
        assert_eq!(t.mac_ops, 4);
    }
}
