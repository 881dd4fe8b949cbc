//! The hardware-ready quantized MLP description.
//!
//! A [`QuantMlp`] is the contract between the training toolkit, the model
//! compiler (`netpu-compiler`), and the accelerator model (`netpu-core`):
//! integer weights, per-neuron threshold/BN/quantizer parameters in the
//! 32-bit fixed-point stream format, and per-layer precision settings. It
//! mirrors the paper's three layer kinds — Input Layer (quantizes the
//! high-precision dataset inputs), Hidden/FC Layers, and Output Layer
//! (MaxOut classification) — exactly as the LPU layer settings encode
//! them (§III.B.2 Layer Initialization).

use netpu_arith::activation::{ActivationKind, SignActivation};
use netpu_arith::{Fix, Precision, QuantParams};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-neuron batch-normalization parameters in hardware form
/// (`y = x·scale + offset`; two 32-bit parameter words).
///
/// The scale word uses the Q16.16 interpretation ([`Fix::mul_q16`])
/// because folded BN scales are typically ~10⁻³, far below the Q32.5
/// datapath's resolution; the offset is an ordinary Q32.5 word.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Hash)]
pub struct BnParams {
    /// Multiplicative term `γ·s/√(σ²+ε)` as a Q16.16 word (`s` being the
    /// product of the layer's weight and activation scales).
    pub scale_q16: i32,
    /// Additive term `β − γ(x̄−b)/√(σ²+ε)` as a Q32.5 word.
    pub offset: Fix,
}

impl BnParams {
    /// The identity transform.
    pub const IDENTITY: BnParams = BnParams {
        scale_q16: 1 << 16,
        offset: Fix::ZERO,
    };

    /// Applies the BN transform to a fixed-point value.
    #[inline]
    pub fn apply(&self, x: Fix) -> Fix {
        x.mul_q16(self.scale_q16).sat_add(self.offset)
    }
}

/// A layer's activation stage with its trained per-neuron parameters.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Hash)]
pub enum LayerActivation {
    /// ReLU followed by the QUAN submodule.
    Relu {
        /// Re-quantization applied after the activation.
        quant: QuantParams,
    },
    /// Piecewise-linear Sigmoid followed by the QUAN submodule.
    Sigmoid {
        /// Re-quantization applied after the activation.
        quant: QuantParams,
    },
    /// Tanh (via the shared sigmoid block) followed by the QUAN submodule.
    Tanh {
        /// Re-quantization applied after the activation.
        quant: QuantParams,
    },
    /// BNN Sign with one folded-BN threshold per neuron; bypasses QUAN.
    Sign {
        /// One threshold per neuron.
        thresholds: Vec<Fix>,
    },
    /// HWGQ Multi-Threshold with `2^out − 1` thresholds per neuron;
    /// bypasses QUAN.
    MultiThreshold {
        /// `neurons × (2^out − 1)` thresholds in one row-major array:
        /// neuron `n`'s row is the `2^out − 1` entries from
        /// `n · (2^out − 1)`, sorted non-decreasing
        /// ([`LayerActivation::threshold_row`]).
        thresholds: Vec<Fix>,
    },
}

impl LayerActivation {
    /// The activation selector this stage drives into the ACTIV submodule.
    pub fn kind(&self) -> ActivationKind {
        match self {
            LayerActivation::Relu { .. } => ActivationKind::Relu,
            LayerActivation::Sigmoid { .. } => ActivationKind::Sigmoid,
            LayerActivation::Tanh { .. } => ActivationKind::Tanh,
            LayerActivation::Sign { .. } => ActivationKind::Sign,
            LayerActivation::MultiThreshold { .. } => ActivationKind::MultiThreshold,
        }
    }

    /// Applies the activation (and re-quantization, if any) for `neuron`,
    /// producing the unsigned output level — or the bipolar bit for Sign,
    /// reported as 0/1.
    pub fn apply(&self, neuron: usize, x: Fix, out: Precision) -> i32 {
        match self {
            LayerActivation::Relu { quant } => quant.apply(netpu_arith::activation::relu(x), out),
            LayerActivation::Sigmoid { quant } => {
                quant.apply(netpu_arith::activation::sigmoid(x), out)
            }
            LayerActivation::Tanh { quant } => quant.apply(netpu_arith::activation::tanh(x), out),
            LayerActivation::Sign { thresholds } => {
                i32::from(SignActivation::new(thresholds[neuron]).apply(x))
            }
            LayerActivation::MultiThreshold { thresholds } => {
                let count = out.multi_threshold_count();
                threshold_level(&thresholds[neuron * count..(neuron + 1) * count], x)
            }
        }
    }

    /// Neuron `neuron`'s thresholds at output precision `out`: its
    /// Multi-Threshold row, its one Sign threshold, or nothing on the
    /// QUAN path (empty past the last neuron).
    pub fn threshold_row(&self, neuron: usize, out: Precision) -> &[Fix] {
        let (thresholds, count) = match self {
            LayerActivation::Sign { thresholds } => (thresholds, 1),
            LayerActivation::MultiThreshold { thresholds } => {
                (thresholds, out.multi_threshold_count())
            }
            LayerActivation::Relu { .. }
            | LayerActivation::Sigmoid { .. }
            | LayerActivation::Tanh { .. } => return &[],
        };
        thresholds
            .get(neuron * count..(neuron + 1) * count)
            .unwrap_or_default()
    }
}

/// The level a Multi-Threshold row gives `x`: how many of its (sorted)
/// thresholds `x` reaches.
pub(crate) fn threshold_level(row: &[Fix], x: Fix) -> i32 {
    netpu_arith::cast::i32_sat_usize(row.partition_point(|&t| t <= x))
}

/// The Input Layer: quantizes each high-precision dataset input down to
/// the first hidden layer's precision. One "neuron" per input element;
/// no weights (Fig. 3 yellow path bypasses MUL/ACCU/BN).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Hash)]
pub struct InputLayer {
    /// Number of dataset inputs (e.g. 784 pixels).
    pub len: usize,
    /// Precision the inputs are quantized to (the first hidden layer's
    /// activation input precision).
    pub out_precision: Precision,
    /// Quantizing activation (Sign / Multi-Threshold / QUAN path).
    pub activation: LayerActivation,
}

/// A Hidden (fully connected) layer.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Hash)]
pub struct HiddenLayer {
    /// Fan-in of every neuron.
    pub in_len: usize,
    /// Number of neurons.
    pub neurons: usize,
    /// Weight quantization precision.
    pub weight_precision: Precision,
    /// Incoming-activation precision.
    pub in_precision: Precision,
    /// Outgoing-activation precision.
    pub out_precision: Precision,
    /// Row-major `neurons × in_len` integer weights in the signed range
    /// of `weight_precision` (bipolar ±1 for 1-bit), one byte each: no
    /// precision is wider than 8 bits.
    pub weights: Vec<i8>,
    /// Per-neuron integer bias (the ACCU's 8-bit Bias Input), present
    /// exactly when BN is folded into weight/bias (Eq. 2).
    pub bias: Option<Vec<i32>>,
    /// Per-neuron hardware BN parameters, present exactly when BN is NOT
    /// folded.
    pub bn: Option<Vec<BnParams>>,
    /// Activation stage.
    pub activation: LayerActivation,
}

/// The Output Layer: a fully connected layer whose raw (post-BN) scores
/// feed the MaxOut classifier (Fig. 3 pink path bypasses ACTIV/QUAN).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Hash)]
pub struct OutputLayer {
    /// Fan-in of every output neuron.
    pub in_len: usize,
    /// Number of classes.
    pub neurons: usize,
    /// Weight quantization precision.
    pub weight_precision: Precision,
    /// Incoming-activation precision.
    pub in_precision: Precision,
    /// Row-major `neurons × in_len` integer weights, one byte each.
    pub weights: Vec<i8>,
    /// Per-neuron integer bias when BN is folded.
    pub bias: Option<Vec<i32>>,
    /// Per-neuron hardware BN parameters when BN is not folded.
    pub bn: Option<Vec<BnParams>>,
}

/// A complete hardware-ready quantized MLP.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Hash)]
pub struct QuantMlp {
    /// Human-readable model name (e.g. `"SFC-w1a1"`).
    pub name: String,
    /// The input (quantization) layer.
    pub input: InputLayer,
    /// Hidden FC layers in order.
    pub hidden: Vec<HiddenLayer>,
    /// The output layer.
    pub output: OutputLayer,
}

/// Model-structure validation failures.
#[derive(Clone, PartialEq, Debug)]
pub enum ModelError {
    /// A layer's fan-in does not match the previous layer's width.
    DimensionMismatch {
        /// Index in the hidden-layer list (`hidden.len()` = output layer).
        layer: usize,
        /// Expected fan-in.
        expected: usize,
        /// Declared fan-in.
        got: usize,
    },
    /// The weight array length does not equal `neurons × in_len`.
    WeightShape {
        /// Offending layer index.
        layer: usize,
    },
    /// A weight value lies outside the signed range of its precision.
    WeightRange {
        /// Offending layer index.
        layer: usize,
        /// The offending value.
        value: i32,
    },
    /// Precision pairing violates the XNOR rule: when one of input and
    /// weight precision is 1-bit the other must be too (§III.B.1) —
    /// unless the layer runs on the integer path with 1-bit weights
    /// promoted into 8-bit lanes (the LFC-w1a2 case), which is expressed
    /// by a non-binary `in_precision`; a binary input with multi-bit
    /// weights has no hardware datapath.
    BinaryPairing {
        /// Offending layer index.
        layer: usize,
    },
    /// Both or neither of `bias` (folded BN) and `bn` (hardware BN) set.
    BnConfig {
        /// Offending layer index.
        layer: usize,
    },
    /// A folded bias exceeds the ACCU's 8-bit bias port.
    BiasRange {
        /// Offending layer index.
        layer: usize,
        /// The offending value.
        value: i32,
    },
    /// Threshold row count or length does not match the layer geometry.
    ThresholdShape {
        /// Offending layer index.
        layer: usize,
    },
    /// A multi-threshold row is not sorted.
    ThresholdOrder {
        /// Offending layer index.
        layer: usize,
        /// Offending neuron.
        neuron: usize,
    },
    /// Layer width exceeds the architecture's 8192 input-length /
    /// neuron-count ceiling (§III.B.2).
    TooWide {
        /// Offending layer index.
        layer: usize,
        /// The offending width.
        width: usize,
    },
    /// Sign output must be 1-bit; Multi-Threshold must be ≥1-bit and the
    /// declared output precision must match the threshold count.
    ActivationPrecision {
        /// Offending layer index.
        layer: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DimensionMismatch {
                layer,
                expected,
                got,
            } => write!(
                f,
                "layer {layer}: fan-in {got} does not match previous width {expected}"
            ),
            ModelError::WeightShape { layer } => {
                write!(f, "layer {layer}: weight array shape mismatch")
            }
            ModelError::WeightRange { layer, value } => {
                write!(f, "layer {layer}: weight {value} out of precision range")
            }
            ModelError::BinaryPairing { layer } => {
                write!(f, "layer {layer}: binary inputs require binary weights")
            }
            ModelError::BnConfig { layer } => write!(
                f,
                "layer {layer}: exactly one of folded bias and hardware BN must be configured"
            ),
            ModelError::BiasRange { layer, value } => {
                write!(f, "layer {layer}: bias {value} exceeds the 8-bit bias port")
            }
            ModelError::ThresholdShape { layer } => {
                write!(f, "layer {layer}: threshold geometry mismatch")
            }
            ModelError::ThresholdOrder { layer, neuron } => {
                write!(f, "layer {layer} neuron {neuron}: thresholds not sorted")
            }
            ModelError::TooWide { layer, width } => {
                write!(f, "layer {layer}: width {width} exceeds the 8192 ceiling")
            }
            ModelError::ActivationPrecision { layer } => {
                write!(f, "layer {layer}: activation/out-precision mismatch")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Maximum input length and neuron count per layer (§III.B.2: buffer
/// geometry supports 8192 at 8-bit precision).
pub const MAX_LAYER_WIDTH: usize = 8192;

fn check_activation(
    layer: usize,
    act: &LayerActivation,
    neurons: usize,
    out: Precision,
) -> Result<(), ModelError> {
    match act {
        LayerActivation::Sign { thresholds } => {
            if out != Precision::W1 {
                return Err(ModelError::ActivationPrecision { layer });
            }
            if thresholds.len() != neurons {
                return Err(ModelError::ThresholdShape { layer });
            }
        }
        LayerActivation::MultiThreshold { thresholds } => {
            let want = out.multi_threshold_count();
            if Some(thresholds.len()) != neurons.checked_mul(want) {
                return Err(ModelError::ThresholdShape { layer });
            }
            for (n, row) in thresholds.chunks_exact(want).enumerate() {
                if row.windows(2).any(|w| w[0] > w[1]) {
                    return Err(ModelError::ThresholdOrder { layer, neuron: n });
                }
            }
        }
        LayerActivation::Relu { .. }
        | LayerActivation::Sigmoid { .. }
        | LayerActivation::Tanh { .. } => {
            if out == Precision::W1 {
                // The QUAN path produces unsigned levels; 1-bit outputs
                // must come from Sign so downstream layers get ±1.
                return Err(ModelError::ActivationPrecision { layer });
            }
        }
    }
    Ok(())
}

/// `true` when `w` is a weight of precision `wp`: ±1 when binary, in
/// the signed range otherwise (every `i8` at 8 bits).
#[inline]
pub fn weight_in_range(wp: Precision, w: i8) -> bool {
    if wp.is_binary() {
        w == 1 || w == -1
    } else {
        (wp.signed_min()..=wp.signed_max()).contains(&i32::from(w))
    }
}

/// Where a model being validated keeps its FC weights, and how each FC
/// layer's first weight outside its precision's range is found.
#[derive(Clone, Copy)]
enum Weights<'a> {
    /// In its layers' `weights`, scanned here.
    Held,
    /// In its layers' `weights`, which the caller has already read:
    /// `stray(layer)` is that pass's find.
    Scanned(&'a dyn Fn(usize) -> Option<i32>),
    /// In words outside it, every layer's `weights` being empty:
    /// `stray(layer)` reads them.
    Outside(&'a dyn Fn(usize) -> Option<i32>),
}

#[allow(clippy::too_many_arguments)] // mirrors the FC layer's field set
fn check_fc(
    layer: usize,
    in_len: usize,
    neurons: usize,
    weights: &[i8],
    wp: Precision,
    ip: Precision,
    bias: &Option<Vec<i32>>,
    bn: &Option<Vec<BnParams>>,
    source: Weights<'_>,
) -> Result<(), ModelError> {
    if in_len > MAX_LAYER_WIDTH {
        return Err(ModelError::TooWide {
            layer,
            width: in_len,
        });
    }
    if neurons > MAX_LAYER_WIDTH {
        return Err(ModelError::TooWide {
            layer,
            width: neurons,
        });
    }
    // A layer held outside the model carries no weights here; its
    // words report their own out-of-range values.
    let expected = match source {
        Weights::Outside(_) => 0,
        Weights::Held | Weights::Scanned(_) => neurons * in_len,
    };
    if weights.len() != expected {
        return Err(ModelError::WeightShape { layer });
    }
    // Branchless validity fold so the scan vectorises (models carry
    // millions of weights); the offending value is recovered in a second
    // pass only on the failure path.
    let in_range = |w: i8| weight_in_range(wp, w);
    let stray = match source {
        Weights::Scanned(stray) | Weights::Outside(stray) => stray(layer),
        Weights::Held if weights.iter().fold(true, |ok, &w| ok & in_range(w)) => None,
        Weights::Held => weights
            .iter()
            .copied()
            .find(|&w| !in_range(w))
            .map(i32::from),
    };
    if let Some(value) = stray {
        return Err(ModelError::WeightRange { layer, value });
    }
    // XNOR pairing: binary activations require binary weights (a binary
    // activation lane carries 8 channels the integer path cannot read).
    // Binary weights with multi-bit activations are legal: the compiler
    // promotes them onto the integer path (LFC-w1a2).
    if ip.is_binary() && !wp.is_binary() {
        return Err(ModelError::BinaryPairing { layer });
    }
    match (bias, bn) {
        (Some(_), Some(_)) | (None, None) => return Err(ModelError::BnConfig { layer }),
        (Some(b), None) => {
            if b.len() != neurons {
                return Err(ModelError::ThresholdShape { layer });
            }
            for &v in b {
                if !(-128..=127).contains(&v) {
                    return Err(ModelError::BiasRange { layer, value: v });
                }
            }
        }
        (None, Some(p)) => {
            if p.len() != neurons {
                return Err(ModelError::ThresholdShape { layer });
            }
        }
    }
    Ok(())
}

impl QuantMlp {
    /// Validates the whole model: dimensions, precision pairing, weight
    /// and bias ranges, threshold geometry, and architecture ceilings.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.validate_fc(Weights::Held)
    }

    /// [`validate`](Self::validate) for a model whose FC weights the
    /// caller has already read, as the compiler does while packing them:
    /// `stray(layer)` gives FC layer `layer`'s first weight outside its
    /// precision's range, consulted once that layer's shape has passed.
    /// The checks run in [`validate`](Self::validate)'s order, with the
    /// same errors.
    pub fn validate_scanned(&self, stray: impl Fn(usize) -> Option<i32>) -> Result<(), ModelError> {
        self.validate_fc(Weights::Scanned(&stray))
    }

    /// [`validate`](Self::validate) for a model whose FC layers all hold
    /// their weights outside it (see
    /// [`PackedMlp::from_words`](crate::kernel::PackedMlp::from_words)):
    /// every layer's `weights` must be empty, and `stray(layer)` gives
    /// FC layer `layer`'s first weight outside its precision's range.
    /// The checks run in [`validate`](Self::validate)'s order.
    pub fn validate_weightless(
        &self,
        stray: impl Fn(usize) -> Option<i32>,
    ) -> Result<(), ModelError> {
        self.validate_fc(Weights::Outside(&stray))
    }

    fn validate_fc(&self, source: Weights<'_>) -> Result<(), ModelError> {
        if self.input.len > MAX_LAYER_WIDTH {
            return Err(ModelError::TooWide {
                layer: 0,
                width: self.input.len,
            });
        }
        check_activation(
            0,
            &self.input.activation,
            self.input.len,
            self.input.out_precision,
        )?;

        let mut prev_width = self.input.len;
        let mut prev_prec = self.input.out_precision;
        for (i, h) in self.hidden.iter().enumerate() {
            let layer = i + 1;
            if h.in_len != prev_width {
                return Err(ModelError::DimensionMismatch {
                    layer,
                    expected: prev_width,
                    got: h.in_len,
                });
            }
            if h.in_precision != prev_prec {
                return Err(ModelError::ActivationPrecision { layer });
            }
            check_fc(
                layer,
                h.in_len,
                h.neurons,
                &h.weights,
                h.weight_precision,
                h.in_precision,
                &h.bias,
                &h.bn,
                source,
            )?;
            check_activation(layer, &h.activation, h.neurons, h.out_precision)?;
            prev_width = h.neurons;
            prev_prec = h.out_precision;
        }

        let layer = self.hidden.len() + 1;
        if self.output.in_len != prev_width {
            return Err(ModelError::DimensionMismatch {
                layer,
                expected: prev_width,
                got: self.output.in_len,
            });
        }
        if self.output.in_precision != prev_prec {
            return Err(ModelError::ActivationPrecision { layer });
        }
        check_fc(
            layer,
            self.output.in_len,
            self.output.neurons,
            &self.output.weights,
            self.output.weight_precision,
            self.output.in_precision,
            &self.output.bias,
            &self.output.bn,
            source,
        )
    }

    /// Total number of layers as the hardware counts them (input + hidden
    /// + output).
    pub fn layer_count(&self) -> usize {
        self.hidden.len() + 2
    }

    /// Total weight count across FC layers.
    pub fn weight_count(&self) -> usize {
        self.hidden.iter().map(|h| h.weights.len()).sum::<usize>() + self.output.weights.len()
    }

    /// `true` when every FC layer uses the XNOR (both-1-bit) datapath.
    pub fn is_fully_binary(&self) -> bool {
        self.hidden
            .iter()
            .map(|h| (h.in_precision, h.weight_precision))
            .chain(std::iter::once((
                self.output.in_precision,
                self.output.weight_precision,
            )))
            .all(|(i, w)| i.is_binary() && w.is_binary())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A tiny but fully valid 2-class model used across the crate's tests.
    pub(crate) fn tiny_model() -> QuantMlp {
        let mt_row = [Fix::from_i32(-1), Fix::from_i32(0), Fix::from_i32(1)];
        QuantMlp {
            name: "tiny".into(),
            input: InputLayer {
                len: 4,
                out_precision: Precision::W2,
                activation: LayerActivation::MultiThreshold {
                    thresholds: [Fix::from_i32(32), Fix::from_i32(96), Fix::from_i32(160)]
                        .repeat(4),
                },
            },
            hidden: vec![HiddenLayer {
                in_len: 4,
                neurons: 3,
                weight_precision: Precision::W2,
                in_precision: Precision::W2,
                out_precision: Precision::W2,
                weights: vec![1, -1, 0, 1, -2, 1, 1, 0, 0, 1, -1, -1],
                bias: Some(vec![0, 1, -1]),
                bn: None,
                activation: LayerActivation::MultiThreshold {
                    thresholds: mt_row.repeat(3),
                },
            }],
            output: OutputLayer {
                in_len: 3,
                neurons: 2,
                weight_precision: Precision::W2,
                in_precision: Precision::W2,
                weights: vec![1, -1, 1, -1, 1, 0],
                bias: Some(vec![0, 0]),
                bn: None,
            },
        }
    }

    #[test]
    fn tiny_model_validates() {
        tiny_model().validate().unwrap();
        assert_eq!(tiny_model().layer_count(), 3);
        assert_eq!(tiny_model().weight_count(), 18);
        assert!(!tiny_model().is_fully_binary());
    }

    #[test]
    fn dimension_mismatch_detected() {
        let mut m = tiny_model();
        m.output.in_len = 5;
        m.output.weights = vec![0; 10];
        assert!(matches!(
            m.validate(),
            Err(ModelError::DimensionMismatch {
                layer: 2,
                expected: 3,
                got: 5
            })
        ));
    }

    #[test]
    fn weight_range_checked_per_precision() {
        let mut m = tiny_model();
        m.hidden[0].weights[0] = 2; // W2 signed max is 1
        assert!(matches!(
            m.validate(),
            Err(ModelError::WeightRange { layer: 1, value: 2 })
        ));
    }

    #[test]
    fn binary_weights_must_be_bipolar() {
        let mut m = tiny_model();
        m.hidden[0].weight_precision = Precision::W1;
        m.hidden[0].weights = vec![1, -1, 0, 1, -1, 1, 1, -1, 1, 1, -1, -1];
        assert!(matches!(
            m.validate(),
            Err(ModelError::WeightRange { layer: 1, value: 0 })
        ));
    }

    #[test]
    fn binary_inputs_require_binary_weights() {
        let mut m = tiny_model();
        // Make the input layer emit 1-bit, keep hidden weights at 2-bit.
        m.input.out_precision = Precision::W1;
        m.input.activation = LayerActivation::Sign {
            thresholds: vec![Fix::from_i32(128); 4],
        };
        m.hidden[0].in_precision = Precision::W1;
        assert!(matches!(
            m.validate(),
            Err(ModelError::BinaryPairing { layer: 1 })
        ));
    }

    #[test]
    fn binary_weights_with_multibit_inputs_are_legal() {
        // The LFC-w1a2 configuration: 1-bit weights on the integer path.
        let mut m = tiny_model();
        m.hidden[0].weight_precision = Precision::W1;
        m.hidden[0].weights = vec![1, -1, 1, 1, -1, 1, 1, -1, 1, 1, -1, -1];
        m.validate().unwrap();
    }

    #[test]
    fn bn_and_bias_are_mutually_exclusive() {
        let mut m = tiny_model();
        m.hidden[0].bn = Some(vec![BnParams::IDENTITY; 3]);
        assert!(matches!(
            m.validate(),
            Err(ModelError::BnConfig { layer: 1 })
        ));
        m.hidden[0].bias = None;
        m.validate().unwrap();
        m.hidden[0].bn = None;
        assert!(matches!(
            m.validate(),
            Err(ModelError::BnConfig { layer: 1 })
        ));
    }

    #[test]
    fn bias_limited_to_accu_port_width() {
        let mut m = tiny_model();
        m.hidden[0].bias = Some(vec![0, 200, 0]);
        assert!(matches!(
            m.validate(),
            Err(ModelError::BiasRange {
                layer: 1,
                value: 200
            })
        ));
    }

    #[test]
    fn threshold_geometry_checked() {
        let mut m = tiny_model();
        if let LayerActivation::MultiThreshold { thresholds } = &mut m.hidden[0].activation {
            thresholds.pop();
        }
        assert!(matches!(
            m.validate(),
            Err(ModelError::ThresholdShape { layer: 1 })
        ));
    }

    #[test]
    fn unsorted_thresholds_rejected() {
        let mut m = tiny_model();
        if let LayerActivation::MultiThreshold { thresholds } = &mut m.hidden[0].activation {
            thresholds[6..].copy_from_slice(&[
                Fix::from_i32(5),
                Fix::from_i32(1),
                Fix::from_i32(9),
            ]);
        }
        assert!(matches!(
            m.validate(),
            Err(ModelError::ThresholdOrder {
                layer: 1,
                neuron: 2
            })
        ));
    }

    #[test]
    fn width_ceiling_enforced() {
        let mut m = tiny_model();
        m.hidden[0].neurons = 9000;
        m.hidden[0].weights = vec![0; 9000 * 4];
        assert!(matches!(
            m.validate(),
            Err(ModelError::TooWide {
                layer: 1,
                width: 9000
            })
        ));
    }

    #[test]
    fn sign_output_must_be_one_bit() {
        let mut m = tiny_model();
        m.hidden[0].activation = LayerActivation::Sign {
            thresholds: vec![Fix::ZERO; 3],
        };
        // out_precision still W2 → invalid.
        assert!(matches!(
            m.validate(),
            Err(ModelError::ActivationPrecision { layer: 1 })
        ));
    }

    #[test]
    fn in_precision_must_chain() {
        let mut m = tiny_model();
        m.hidden[0].in_precision = Precision::W4;
        assert!(matches!(
            m.validate(),
            Err(ModelError::ActivationPrecision { layer: 1 })
        ));
    }
}
