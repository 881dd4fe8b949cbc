//! The float-domain quantization-aware MLP (the Brevitas substitute).
//!
//! Training runs in `f32` with fake quantization: weights and activations
//! are quantized in the forward pass while gradients flow through
//! straight-through estimators (STE). BatchNorm keeps trainable `γ`/`β`
//! and EMA running statistics. The trained [`FloatMlp`] is then lowered by
//! [`mod@crate::export`] into a hardware-ready [`crate::qmodel::QuantMlp`].

use crate::tensor::Matrix;
use netpu_arith::cast;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Activation-quantizer family for one layer.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum ActSpec {
    /// Binarizing sign activation (w?a1 models).
    Sign,
    /// Uniform HWGQ-style quantizer with `bits` output bits: levels
    /// `k·α` for `k ∈ 0..2^bits−1`.
    Hwgq {
        /// Output precision in bits (2–8).
        bits: u8,
    },
    /// ReLU followed by uniform quantization to `bits` (exported onto the
    /// hardware ReLU + QUAN path rather than Multi-Threshold).
    ReluQuant {
        /// Output precision in bits (2–8).
        bits: u8,
    },
    /// Piecewise-linear Sigmoid (the hardware's Eq. 4 approximation)
    /// followed by uniform quantization to `bits` (exported onto the
    /// hardware Sigmoid + QUAN path).
    SigmoidQuant {
        /// Output precision in bits (2–8).
        bits: u8,
    },
    /// No activation — the output layer.
    None,
}

impl ActSpec {
    /// Output bits of the activation (1 for Sign; 0 for None).
    pub fn bits(self) -> u8 {
        match self {
            ActSpec::Sign => 1,
            ActSpec::Hwgq { bits }
            | ActSpec::ReluQuant { bits }
            | ActSpec::SigmoidQuant { bits } => bits,
            ActSpec::None => 0,
        }
    }

    /// Quantizer step `α` in the float domain: Sign has unit levels ±1;
    /// uniform quantizers spread `2^bits − 1` levels over `[0, 2]`
    /// (post-BN pre-activations are ≈ unit-normal, so the positive half
    /// is well covered).
    pub fn alpha(self) -> f32 {
        match self {
            ActSpec::Sign => 1.0,
            ActSpec::Hwgq { bits } | ActSpec::ReluQuant { bits } => {
                2.0 / ((1u32 << bits) - 1) as f32
            }
            // Sigmoid outputs lie in [0, 1]: one level step spans it.
            ActSpec::SigmoidQuant { bits } => 1.0 / ((1u32 << bits) - 1) as f32,
            ActSpec::None => 1.0,
        }
    }

    /// Maximum quantized level.
    pub fn max_level(self) -> i32 {
        match self {
            ActSpec::Sign => 1,
            ActSpec::Hwgq { bits }
            | ActSpec::ReluQuant { bits }
            | ActSpec::SigmoidQuant { bits } => (1i32 << bits) - 1,
            ActSpec::None => 0,
        }
    }
}

/// Specification of one trainable FC layer.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Number of neurons.
    pub neurons: usize,
    /// Weight precision in bits (1–8).
    pub weight_bits: u8,
    /// Activation (use [`ActSpec::None`] for the output layer).
    pub act: ActSpec,
    /// Whether the layer trains a BatchNorm stage.
    pub batch_norm: bool,
}

/// Specification of a whole QAT MLP.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct MlpSpec {
    /// Model name carried through to export.
    pub name: String,
    /// Input dimensionality (784 for the image datasets).
    pub input_len: usize,
    /// The input layer's quantizer (how 8-bit pixels reach the first FC
    /// layer's precision).
    pub input_act: ActSpec,
    /// FC layers; the last entry is the output layer and should use
    /// [`ActSpec::None`].
    pub layers: Vec<LayerSpec>,
}

/// Trainable BatchNorm state for one layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchNorm {
    /// Per-neuron scale γ (clamped positive so threshold folding keeps
    /// its comparison direction; see `export`).
    pub gamma: Vec<f32>,
    /// Per-neuron shift β.
    pub beta: Vec<f32>,
    /// EMA of the per-neuron mean.
    pub running_mean: Vec<f32>,
    /// EMA of the per-neuron variance.
    pub running_var: Vec<f32>,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// EMA momentum.
    pub momentum: f32,
}

impl BatchNorm {
    /// Identity-initialised BN over `n` neurons.
    pub fn new(n: usize) -> BatchNorm {
        BatchNorm {
            gamma: vec![1.0; n],
            beta: vec![0.0; n],
            running_mean: vec![0.0; n],
            running_var: vec![1.0; n],
            eps: 1e-5,
            momentum: 0.1,
        }
    }
}

/// One trainable FC layer with master weights.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FloatLayer {
    /// `neurons × in_len` master weights.
    pub w: Matrix,
    /// Per-neuron bias (unused when `bn` is present — BN's β subsumes it).
    pub b: Vec<f32>,
    /// Optional BatchNorm stage.
    pub bn: Option<BatchNorm>,
    /// The layer specification.
    pub spec: LayerSpec,
}

/// The float QAT model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FloatMlp {
    /// The model specification.
    pub spec: MlpSpec,
    /// FC layers in order (hidden layers then the output layer).
    pub layers: Vec<FloatLayer>,
}

/// Quantizes a weight matrix, returning the quantized copy and the scale
/// `α_w` such that `W_q = α_w · W_int`.
///
/// 1-bit weights binarize to `±α_w` with `α_w = mean(|W|)` (the XNOR-Net
/// scaling); multi-bit weights use uniform quantization with an
/// RMS-derived step, `α_w = rms(W)·min(3/signed_max, 0.8)`, so the level
/// grid covers ≈±3σ of the weight distribution at every precision
/// (a max-based step leaves most low-bit weights rounding to zero).
pub fn quantize_weights(w: &Matrix, bits: u8) -> (Matrix, f32) {
    let data = w.data();
    if bits == 1 {
        let mean_abs = data.iter().map(|v| v.abs()).sum::<f32>() / data.len().max(1) as f32;
        let alpha = if mean_abs > 0.0 { mean_abs } else { 1.0 };
        let mut q = w.clone();
        q.map_inplace(move |v| if v >= 0.0 { alpha } else { -alpha });
        (q, alpha)
    } else {
        let rms = (data.iter().map(|v| v * v).sum::<f32>() / data.len().max(1) as f32).sqrt();
        let smax = ((1i32 << (bits - 1)) - 1) as f32;
        let alpha = if rms > 0.0 {
            rms * (3.0 / smax).min(0.8)
        } else {
            1.0
        };
        let mut q = w.clone();
        let smin = -(1i32 << (bits - 1)) as f32;
        q.map_inplace(move |v| (v / alpha).round().clamp(smin, smax) * alpha);
        (q, alpha)
    }
}

/// Integer weights corresponding to [`quantize_weights`]' output:
/// `round(W/α_w)` clamped to the signed range (`±1` for 1-bit), one
/// byte each (`bits` is at most 8).
pub fn integer_weights(w: &Matrix, bits: u8, alpha: f32) -> Vec<i8> {
    let smax = if bits == 1 {
        1
    } else {
        (1i32 << (bits - 1)) - 1
    };
    let smin = if bits == 1 { -1 } else { -(1i32 << (bits - 1)) };
    w.data()
        .iter()
        .map(|&v| {
            if bits == 1 {
                if v >= 0.0 {
                    1
                } else {
                    -1
                }
            } else {
                cast::i8_sat(((v / alpha).round() as i32).clamp(smin, smax))
            }
        })
        .collect()
}

/// Gradient passed outside the quantizer's active range. A hard zero
/// lets a neuron whose pre-activations all leave the clip range die
/// permanently (its mask, and through it the BN parameter gradients, go
/// to zero forever); a small leak lets it recover.
pub const STE_LEAK: f32 = 0.1;

/// Quantizes an activation batch in place with the layer's quantizer and
/// returns the STE gradient mask (1 inside the active range, [`STE_LEAK`]
/// outside).
pub fn quantize_activations(z: &mut Matrix, act: ActSpec) -> Matrix {
    let mut mask = Matrix::zeros(z.rows(), z.cols());
    match act {
        ActSpec::None => {
            mask.map_inplace(|_| 1.0);
        }
        ActSpec::Sign => {
            // Hard-tanh STE: full gradient where |z| ≤ 1.
            for (m, v) in mask.data_mut().iter_mut().zip(z.data().iter()) {
                *m = if v.abs() <= 1.0 { 1.0 } else { STE_LEAK };
            }
            z.map_inplace(|v| if v >= 0.0 { 1.0 } else { -1.0 });
        }
        ActSpec::Hwgq { .. } | ActSpec::ReluQuant { .. } => {
            let alpha = act.alpha();
            let maxv = act.max_level() as f32 * alpha;
            for (m, v) in mask.data_mut().iter_mut().zip(z.data().iter()) {
                *m = if (0.0..=maxv).contains(v) {
                    1.0
                } else {
                    STE_LEAK
                };
            }
            z.map_inplace(move |v| (v / alpha).round().clamp(0.0, maxv / alpha) * alpha);
        }
        ActSpec::SigmoidQuant { .. } => {
            // Forward: quantized PWL sigmoid (the hardware's Eq. 4
            // shape). Backward: the PWL's own local slope, scaled so
            // the steepest segment passes unit gradient.
            let m = act.max_level() as f32;
            for (g, v) in mask.data_mut().iter_mut().zip(z.data().iter()) {
                let a = v.abs();
                *g = if a < 1.0 {
                    1.0
                } else if a < 2.375 {
                    0.5
                } else if a < 5.0 {
                    0.125
                } else {
                    STE_LEAK
                };
            }
            z.map_inplace(move |v| (crate::float::pwl_sigmoid_f32(v) * m).round() / m);
        }
    }
    mask
}

/// `f32` wrapper over the shared piecewise-linear sigmoid reference.
pub fn pwl_sigmoid_f32(x: f32) -> f32 {
    netpu_arith::activation::pwl_sigmoid_f64(f64::from(x)) as f32
}

/// Quantizes raw 8-bit inputs into the float domain the first FC layer
/// consumes (levels ·α, or ±1 for a binary input layer).
pub fn quantize_input(pixels: &[u8], act: ActSpec) -> Vec<f32> {
    match act {
        ActSpec::Sign => pixels
            .iter()
            .map(|&p| if p >= 128 { 1.0 } else { -1.0 })
            .collect(),
        ActSpec::Hwgq { bits } | ActSpec::ReluQuant { bits } | ActSpec::SigmoidQuant { bits } => {
            let m = ((1u32 << bits) - 1) as f32;
            // Levels spread over [0,1]: x_q = round(p/255·m)/m.
            pixels
                .iter()
                .map(|&p| (p as f32 / 255.0 * m).round() / m)
                .collect()
        }
        ActSpec::None => pixels.iter().map(|&p| p as f32 / 255.0).collect(),
    }
}

/// The integer level corresponding to [`quantize_input`] for export
/// cross-checks: the hardware input layer must produce exactly this.
pub fn input_level(pixel: u8, act: ActSpec) -> i32 {
    match act {
        ActSpec::Sign => i32::from(pixel >= 128),
        ActSpec::Hwgq { bits } | ActSpec::ReluQuant { bits } | ActSpec::SigmoidQuant { bits } => {
            let m = ((1u32 << bits) - 1) as f32;
            (pixel as f32 / 255.0 * m).round() as i32
        }
        ActSpec::None => pixel as i32,
    }
}

impl FloatMlp {
    /// Random He-style initialisation, deterministic in `seed`.
    pub fn init(spec: MlpSpec, seed: u64) -> FloatMlp {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut in_len = spec.input_len;
        let mut layers = Vec::with_capacity(spec.layers.len());
        for ls in &spec.layers {
            let std = (2.0 / in_len as f32).sqrt();
            let w = Matrix::from_fn(ls.neurons, in_len, |_, _| {
                // Box-Muller normal from two uniforms.
                let u1: f32 = rng.gen_range(1e-6..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            });
            layers.push(FloatLayer {
                w,
                b: vec![0.0; ls.neurons],
                bn: if ls.batch_norm {
                    Some(BatchNorm::new(ls.neurons))
                } else {
                    None
                },
                spec: *ls,
            });
            in_len = ls.neurons;
        }
        FloatMlp { spec, layers }
    }

    /// Inference-mode forward pass over a batch (rows = examples),
    /// using running BN statistics and fake-quantized weights. Returns
    /// the logits.
    pub fn forward_eval(&self, x: &Matrix) -> Matrix {
        let mut a = x.clone();
        for layer in &self.layers {
            let (wq, _) = quantize_weights(&layer.w, layer.spec.weight_bits);
            let mut z = a.matmul_t(&wq);
            if let Some(bn) = &layer.bn {
                for r in 0..z.rows() {
                    let row = z.row_mut(r);
                    for (j, v) in row.iter_mut().enumerate() {
                        let inv = (bn.running_var[j] + bn.eps).sqrt().recip();
                        *v = bn.gamma[j] * (*v - bn.running_mean[j]) * inv + bn.beta[j];
                    }
                }
            } else {
                for r in 0..z.rows() {
                    for (j, v) in z.row_mut(r).iter_mut().enumerate() {
                        *v += layer.b[j];
                    }
                }
            }
            quantize_activations(&mut z, layer.spec.act);
            a = z;
        }
        a
    }

    /// Predicted class per batch row from an inference-mode forward pass.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward_eval(x);
        (0..logits.rows())
            .map(|r| {
                let row = logits.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec2() -> MlpSpec {
        MlpSpec {
            name: "t".into(),
            input_len: 6,
            input_act: ActSpec::Hwgq { bits: 2 },
            layers: vec![
                LayerSpec {
                    neurons: 5,
                    weight_bits: 2,
                    act: ActSpec::Hwgq { bits: 2 },
                    batch_norm: true,
                },
                LayerSpec {
                    neurons: 3,
                    weight_bits: 2,
                    act: ActSpec::None,
                    batch_norm: true,
                },
            ],
        }
    }

    #[test]
    fn init_is_deterministic_and_shaped() {
        let a = FloatMlp::init(spec2(), 3);
        let b = FloatMlp::init(spec2(), 3);
        assert_eq!(a.layers[0].w, b.layers[0].w);
        assert_eq!(a.layers[0].w.rows(), 5);
        assert_eq!(a.layers[0].w.cols(), 6);
        assert_eq!(a.layers[1].w.cols(), 5);
        let c = FloatMlp::init(spec2(), 4);
        assert_ne!(a.layers[0].w, c.layers[0].w);
    }

    #[test]
    fn binary_weight_quantization_uses_mean_abs() {
        let w = Matrix::from_vec(1, 4, vec![0.5, -1.5, 2.0, -0.0]);
        let (wq, alpha) = quantize_weights(&w, 1);
        assert_eq!(alpha, 1.0);
        assert_eq!(wq.data(), &[1.0, -1.0, 1.0, 1.0]);
    }

    #[test]
    fn multibit_weight_quantization_uses_rms_step() {
        let w = Matrix::from_vec(1, 3, vec![0.3, -0.9, 0.45]);
        let (wq, alpha) = quantize_weights(&w, 2);
        // rms = sqrt((0.09+0.81+0.2025)/3); alpha = rms·min(3/1, 0.8) = 0.8·rms.
        let rms = ((0.09f32 + 0.81 + 0.2025) / 3.0).sqrt();
        assert!((alpha - 0.8 * rms).abs() < 1e-6);
        let ints = integer_weights(&w, 2, alpha);
        assert_eq!(ints.len(), 3);
        // Quantized values are integer multiples of alpha within range.
        for (q, &i) in wq.data().iter().zip(&ints) {
            assert!((q - i as f32 * alpha).abs() < 1e-6);
            assert!((-2..=1).contains(&i));
        }
    }

    #[test]
    fn integer_weights_stay_in_range() {
        let w = Matrix::from_vec(1, 4, vec![10.0, -10.0, 0.1, -0.1]);
        for bits in [1u8, 2, 4, 8] {
            let (_, alpha) = quantize_weights(&w, bits);
            let ints = integer_weights(&w, bits, alpha);
            let smax = if bits == 1 {
                1
            } else {
                (1i32 << (bits - 1)) - 1
            };
            let smin = if bits == 1 { -1 } else { -(1i32 << (bits - 1)) };
            assert!(
                ints.iter().all(|&v| (smin..=smax).contains(&i32::from(v))),
                "{bits}"
            );
        }
    }

    #[test]
    fn sign_activation_binarizes_with_hardtanh_mask() {
        let mut z = Matrix::from_vec(1, 4, vec![0.5, -0.5, 3.0, -3.0]);
        let mask = quantize_activations(&mut z, ActSpec::Sign);
        assert_eq!(z.data(), &[1.0, -1.0, 1.0, -1.0]);
        assert_eq!(mask.data(), &[1.0, 1.0, STE_LEAK, STE_LEAK]);
    }

    #[test]
    fn hwgq_activation_clips_and_quantizes() {
        let act = ActSpec::Hwgq { bits: 2 };
        let alpha = act.alpha(); // 2/3
        let mut z = Matrix::from_vec(1, 4, vec![-1.0, 0.4, 1.1, 9.0]);
        let mask = quantize_activations(&mut z, act);
        assert_eq!(mask.data(), &[STE_LEAK, 1.0, 1.0, STE_LEAK]);
        assert!((z.get(0, 0) - 0.0).abs() < 1e-6);
        assert!((z.get(0, 1) - alpha).abs() < 1e-6); // 0.4/0.667 → 1 level
        assert!((z.get(0, 2) - 2.0 * alpha).abs() < 1e-6);
        assert!((z.get(0, 3) - 3.0 * alpha).abs() < 1e-6); // clipped at max
    }

    #[test]
    fn input_quantization_levels_match_float_values() {
        for act in [
            ActSpec::Sign,
            ActSpec::Hwgq { bits: 2 },
            ActSpec::Hwgq { bits: 4 },
        ] {
            for p in [0u8, 1, 127, 128, 200, 255] {
                let f = quantize_input(&[p], act)[0];
                let level = input_level(p, act);
                let expect = match act {
                    ActSpec::Sign => {
                        if level == 1 {
                            1.0
                        } else {
                            -1.0
                        }
                    }
                    _ => level as f32 / act.max_level() as f32,
                };
                assert!((f - expect).abs() < 1e-6, "{act:?} pixel {p}");
            }
        }
    }

    #[test]
    fn forward_eval_shapes_and_determinism() {
        let m = FloatMlp::init(spec2(), 1);
        let x = Matrix::from_fn(4, 6, |r, c| ((r + c) % 3) as f32 / 3.0);
        let y1 = m.forward_eval(&x);
        let y2 = m.forward_eval(&x);
        assert_eq!(y1, y2);
        assert_eq!(y1.rows(), 4);
        assert_eq!(y1.cols(), 3);
        assert_eq!(m.predict(&x).len(), 4);
    }
}
