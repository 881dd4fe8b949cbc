//! Lowering a trained [`FloatMlp`] to a hardware-ready [`QuantMlp`].
//!
//! This is the FINN-style "streamlining" step. Because every stage after
//! the accumulator — BN (monotone, `γ > 0`), activation (monotone), and
//! quantization (monotone) — is monotone in the integer accumulator
//! value, the whole post-MAC pipeline collapses into integer thresholds:
//!
//! * Sign: one threshold per neuron (Eq. 3),
//! * Multi-Threshold: `2^n − 1` thresholds per neuron (HWGQ, §II.C),
//!
//! computed by inverting the affine chain analytically. With BN folding
//! *disabled* the BN stays in hardware (Q16.16 scale per neuron) and the
//! thresholds live in the post-BN domain instead — that is the Table V
//! "BN Folding: No" configuration.

use crate::float::{ActSpec, FloatLayer, FloatMlp};
use crate::qmodel::{BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp};
use netpu_arith::{Fix, Precision, QuantParams};

/// Whether to fold BN into thresholds (Eq. 2/3) or run it in hardware.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BnMode {
    /// Fold BN (and the accumulator scale) into the thresholds; the BN
    /// submodule is bypassed.
    Folded,
    /// Keep BN in hardware: per-neuron Q16.16 scale + Q32.5 offset.
    Hardware,
}

/// Export configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExportConfig {
    /// BN handling for every layer.
    pub bn_mode: BnMode,
}

impl Default for ExportConfig {
    fn default() -> ExportConfig {
        ExportConfig {
            bn_mode: BnMode::Folded,
        }
    }
}

/// Errors during export.
#[derive(Clone, PartialEq, Debug)]
pub enum ExportError {
    /// The final layer must be the output layer (`ActSpec::None`).
    MissingOutputLayer,
    /// `ActSpec::None` appeared before the final layer.
    EarlyOutputLayer {
        /// Offending layer index.
        layer: usize,
    },
    /// The resulting model failed validation.
    Invalid(crate::qmodel::ModelError),
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::MissingOutputLayer => f.write_str("last layer must use ActSpec::None"),
            ExportError::EarlyOutputLayer { layer } => {
                write!(f, "layer {layer}: ActSpec::None before the final layer")
            }
            ExportError::Invalid(e) => write!(f, "exported model invalid: {e}"),
        }
    }
}

impl std::error::Error for ExportError {}

/// The float-domain scale of the values a layer feeds into the next MAC:
/// `float_value = scale · integer_level_in_mac_domain`.
fn activation_scale(act: ActSpec, is_input_layer: bool) -> f32 {
    match act {
        ActSpec::Sign => 1.0, // bipolar ±1 in both domains
        ActSpec::Hwgq { bits } | ActSpec::ReluQuant { bits } => {
            if is_input_layer {
                // quantize_input spreads levels over [0,1]: α = 1/m.
                1.0 / ((1u32 << bits) - 1) as f32
            } else {
                act.alpha()
            }
        }
        // Sigmoid levels cover [0,1] on both the input and hidden paths.
        ActSpec::SigmoidQuant { .. } => act.alpha(),
        ActSpec::None => 1.0,
    }
}

/// Affine description of one neuron's post-accumulator chain:
/// `ẑ = g·acc + h` in the float domain.
struct PostChain {
    g: f64,
    h: f64,
}

fn post_chain(layer: &FloatLayer, neuron: usize, s: f64) -> PostChain {
    match &layer.bn {
        Some(bn) => {
            let inv = ((bn.running_var[neuron] + bn.eps) as f64).sqrt().recip();
            let gamma = bn.gamma[neuron] as f64;
            let beta = bn.beta[neuron] as f64;
            let mu = bn.running_mean[neuron] as f64;
            // ẑ = γ(s·acc + b − μ)/√v + β with b = 0 under BN.
            PostChain {
                g: gamma * s * inv,
                h: gamma * (0.0 - mu) * inv + beta,
            }
        }
        None => PostChain {
            g: s,
            h: layer.b[neuron] as f64,
        },
    }
}

/// The activation-quantizer level boundaries in the (post-BN) float
/// domain: level ≥ k exactly when `ẑ ≥ boundary(k)`.
fn level_boundaries(act: ActSpec) -> Vec<f64> {
    match act {
        ActSpec::Sign => vec![0.0],
        ActSpec::Hwgq { bits } | ActSpec::ReluQuant { bits } => {
            let alpha = act.alpha() as f64;
            (1..(1u32 << bits))
                .map(|k| (k as f64 - 0.5) * alpha)
                .collect()
        }
        // SigmoidQuant never folds (it exports onto the Sigmoid+QUAN
        // hardware path); no threshold boundaries exist for it.
        ActSpec::SigmoidQuant { .. } => vec![],
        ActSpec::None => vec![],
    }
}

/// Folds one boundary from the float domain onto the integer accumulator
/// domain: smallest integer `acc` with `g·acc + h ≥ boundary` (requires
/// `g > 0`, guaranteed by the trainer's γ floor and positive scales).
fn fold_boundary(chain: &PostChain, boundary: f64) -> Fix {
    debug_assert!(chain.g > 0.0, "threshold fold requires positive gain");
    let t_real = (boundary - chain.h) / chain.g;
    let t_int = t_real.ceil();
    // Clamp into the 32-bit parameter word range.
    Fix::from_i32(t_int.clamp(i32::MIN as f64 / 64.0, i32::MAX as f64 / 64.0) as i32)
}

/// Per-neuron thresholds for a layer under the chosen BN mode.
fn layer_thresholds(layer: &FloatLayer, s: f64, mode: BnMode) -> Vec<Fix> {
    let boundaries = level_boundaries(layer.spec.act);
    (0..layer.spec.neurons)
        .flat_map(|n| -> Vec<Fix> {
            match mode {
                BnMode::Folded => {
                    let chain = post_chain(layer, n, s);
                    boundaries
                        .iter()
                        .map(|&b| fold_boundary(&chain, b))
                        .collect()
                }
                // Hardware BN produces ẑ directly; thresholds stay in the
                // float (post-BN) domain, rounded to parameter words.
                BnMode::Hardware => boundaries.iter().map(|&b| Fix::from_f64(b)).collect(),
            }
        })
        .collect()
}

/// Hardware BN parameters for a layer (the `BnMode::Hardware` path):
/// `ẑ ≈ scale·acc + offset` with the accumulator scale `s` folded into
/// the Q16.16 scale word.
fn layer_bn_params(layer: &FloatLayer, s: f64) -> Vec<BnParams> {
    (0..layer.spec.neurons)
        .map(|n| {
            let chain = post_chain(layer, n, s);
            BnParams {
                scale_q16: Fix::q16_scale_from_f64(chain.g),
                offset: Fix::from_f64(chain.h),
            }
        })
        .collect()
}

/// Builds the exported input layer.
fn export_input_layer(spec_input_len: usize, act: ActSpec) -> InputLayer {
    let out = Precision::new(act.bits().max(1)).expect("input activation bits");
    let activation = match act {
        ActSpec::Sign => LayerActivation::Sign {
            thresholds: vec![Fix::from_i32(128); spec_input_len],
        },
        ActSpec::Hwgq { bits } | ActSpec::ReluQuant { bits } | ActSpec::SigmoidQuant { bits }
            if bits <= 4 =>
        {
            // Pixel-domain boundaries: level ≥ k ⟺ p ≥ 255(k−0.5)/m.
            let m = ((1u32 << bits) - 1) as f64;
            let row: Vec<Fix> = (1..(1u32 << bits))
                .map(|k| Fix::from_i32((255.0 * (k as f64 - 0.5) / m).ceil() as i32))
                .collect();
            LayerActivation::MultiThreshold {
                thresholds: row.repeat(spec_input_len),
            }
        }
        ActSpec::Hwgq { bits } | ActSpec::ReluQuant { bits } | ActSpec::SigmoidQuant { bits } => {
            // >4-bit input precision: the ReLU+QUAN path. The Q32.5 scale
            // word limits scale resolution to 1/32; exact for the 8-bit
            // identity case (scale 1), approximate otherwise.
            let m = ((1u32 << bits) - 1) as f64;
            LayerActivation::Relu {
                quant: QuantParams::from_f64(m / 255.0, 0.5),
            }
        }
        ActSpec::None => LayerActivation::Relu {
            quant: QuantParams::from_f64(1.0, 0.0),
        },
    };
    InputLayer {
        len: spec_input_len,
        out_precision: if act == ActSpec::None {
            Precision::W8
        } else {
            out
        },
        activation,
    }
}

/// Lowers a trained float model into the hardware model.
pub fn export(mlp: &FloatMlp, cfg: &ExportConfig) -> Result<QuantMlp, ExportError> {
    let n_layers = mlp.layers.len();
    if n_layers == 0 || mlp.layers[n_layers - 1].spec.act != ActSpec::None {
        return Err(ExportError::MissingOutputLayer);
    }
    for (i, l) in mlp.layers[..n_layers - 1].iter().enumerate() {
        if l.spec.act == ActSpec::None {
            return Err(ExportError::EarlyOutputLayer { layer: i + 1 });
        }
    }

    let input = export_input_layer(mlp.spec.input_len, mlp.spec.input_act);
    let mut prev_act = mlp.spec.input_act;
    let mut prev_is_input = true;
    let mut prev_width = mlp.spec.input_len;
    let mut hidden = Vec::with_capacity(n_layers - 1);

    for (li, layer) in mlp.layers.iter().enumerate() {
        let is_output = li == n_layers - 1;
        let wbits = layer.spec.weight_bits;
        let (_, alpha_w) = crate::float::quantize_weights(&layer.w, wbits);
        let weights = crate::float::integer_weights(&layer.w, wbits, alpha_w);
        let s = alpha_w as f64 * activation_scale(prev_act, prev_is_input) as f64;
        let wp = Precision::new(wbits).expect("weight bits");
        let ip = Precision::new(prev_act.bits().max(1)).expect("input bits");

        if is_output {
            // The output layer always carries hardware BN: MaxOut needs
            // per-class affine scores, and per-class biases do not fit
            // the 8-bit accumulator bias port in general.
            let bn = layer_bn_params(layer, s);
            let output = OutputLayer {
                in_len: prev_width,
                neurons: layer.spec.neurons,
                weight_precision: wp,
                in_precision: ip,
                weights,
                bias: None,
                bn: Some(bn),
            };
            let q = QuantMlp {
                name: mlp.spec.name.clone(),
                input,
                hidden,
                output,
            };
            q.validate().map_err(ExportError::Invalid)?;
            return Ok(q);
        }

        let out = Precision::new(layer.spec.act.bits()).expect("activation bits");
        let (bias, bn, activation) = match layer.spec.act {
            ActSpec::Sign => {
                // One boundary per neuron: the flat rows are the thresholds.
                let thresholds = layer_thresholds(layer, s, cfg.bn_mode);
                match cfg.bn_mode {
                    BnMode::Folded => (
                        Some(vec![0; layer.spec.neurons]),
                        None,
                        LayerActivation::Sign { thresholds },
                    ),
                    BnMode::Hardware => (
                        None,
                        Some(layer_bn_params(layer, s)),
                        LayerActivation::Sign { thresholds },
                    ),
                }
            }
            ActSpec::Hwgq { .. } => {
                let thresholds = layer_thresholds(layer, s, cfg.bn_mode);
                match cfg.bn_mode {
                    BnMode::Folded => (
                        Some(vec![0; layer.spec.neurons]),
                        None,
                        LayerActivation::MultiThreshold { thresholds },
                    ),
                    BnMode::Hardware => (
                        None,
                        Some(layer_bn_params(layer, s)),
                        LayerActivation::MultiThreshold { thresholds },
                    ),
                }
            }
            ActSpec::ReluQuant { .. } => {
                // The ReLU + QUAN hardware path; BN must stay in hardware
                // (its scale cannot fold into a threshold-free path).
                let alpha = layer.spec.act.alpha() as f64;
                let quant = QuantParams::from_f64(1.0 / alpha, 0.5);
                (
                    None,
                    Some(layer_bn_params(layer, s)),
                    LayerActivation::Relu { quant },
                )
            }
            ActSpec::SigmoidQuant { .. } => {
                // The Sigmoid + QUAN hardware path: σ output in [0,1]
                // rescaled to levels by QUAN (q = floor(σ·m + 0.5)).
                let m = layer.spec.act.max_level() as f64;
                let quant = QuantParams::from_f64(m, 0.5);
                (
                    None,
                    Some(layer_bn_params(layer, s)),
                    LayerActivation::Sigmoid { quant },
                )
            }
            ActSpec::None => unreachable!("checked above"),
        };
        hidden.push(HiddenLayer {
            in_len: prev_width,
            neurons: layer.spec.neurons,
            weight_precision: wp,
            in_precision: ip,
            out_precision: out,
            weights,
            bias,
            bn,
            activation,
        });
        prev_act = layer.spec.act;
        prev_is_input = false;
        prev_width = layer.spec.neurons;
    }
    unreachable!("loop returns at the output layer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;
    use crate::float::{LayerSpec, MlpSpec};
    use crate::reference;
    use crate::tensor::Matrix;
    use crate::train::{train, TrainConfig};

    fn spec(input_act: ActSpec, hidden_act: ActSpec, wbits: u8) -> MlpSpec {
        MlpSpec {
            name: "exp".into(),
            input_len: dataset::IMAGE_PIXELS,
            input_act,
            layers: vec![
                LayerSpec {
                    neurons: 24,
                    weight_bits: wbits,
                    act: hidden_act,
                    batch_norm: true,
                },
                LayerSpec {
                    neurons: 10,
                    weight_bits: wbits,
                    act: ActSpec::None,
                    batch_norm: true,
                },
            ],
        }
    }

    fn trained(input_act: ActSpec, hidden_act: ActSpec, wbits: u8) -> FloatMlp {
        let (ds, _) = dataset::standard_splits(400, 0, 31);
        let mut m = FloatMlp::init(spec(input_act, hidden_act, wbits), 3);
        train(
            &mut m,
            &ds,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        );
        m
    }

    fn trained_long(input_act: ActSpec, hidden_act: ActSpec, wbits: u8) -> FloatMlp {
        let (ds, _) = dataset::easy_splits(800, 0, 31);
        let mut m = FloatMlp::init(spec(input_act, hidden_act, wbits), 3);
        train(
            &mut m,
            &ds,
            &TrainConfig {
                epochs: 8,
                ..TrainConfig::default()
            },
        );
        m
    }

    /// Agreement between float inference-mode predictions and the
    /// bit-exact integer reference on a fresh split.
    fn agreement(fm: &FloatMlp, qm: &crate::qmodel::QuantMlp, n: usize) -> f64 {
        let ds = dataset::generate(n, 777, &dataset::GeneratorConfig::default());
        let mut agree = 0usize;
        for e in &ds.examples {
            let fx = crate::float::quantize_input(&e.pixels, fm.spec.input_act);
            let x = Matrix::from_vec(1, fx.len(), fx);
            let float_pred = fm.predict(&x)[0];
            let int_pred = reference::infer(qm, &e.pixels);
            agree += usize::from(float_pred == int_pred);
        }
        agree as f64 / n as f64
    }

    #[test]
    fn folded_binary_export_matches_float_model() {
        let fm = trained(ActSpec::Sign, ActSpec::Sign, 1);
        let qm = export(&fm, &ExportConfig::default()).unwrap();
        qm.validate().unwrap();
        assert!(qm.is_fully_binary());
        let a = agreement(&fm, &qm, 100);
        assert!(a >= 0.97, "binary folded agreement {a}");
    }

    #[test]
    fn folded_two_bit_export_matches_float_model() {
        let fm = trained(ActSpec::Hwgq { bits: 2 }, ActSpec::Hwgq { bits: 2 }, 2);
        let qm = export(&fm, &ExportConfig::default()).unwrap();
        qm.validate().unwrap();
        let a = agreement(&fm, &qm, 100);
        assert!(a >= 0.97, "2-bit folded agreement {a}");
    }

    #[test]
    fn hardware_bn_export_matches_float_model() {
        let fm = trained(ActSpec::Hwgq { bits: 2 }, ActSpec::Hwgq { bits: 2 }, 2);
        let qm = export(
            &fm,
            &ExportConfig {
                bn_mode: BnMode::Hardware,
            },
        )
        .unwrap();
        qm.validate().unwrap();
        assert!(qm.hidden[0].bn.is_some());
        assert!(qm.hidden[0].bias.is_none());
        let a = agreement(&fm, &qm, 100);
        // Q16.16 BN rounding admits a little more disagreement.
        assert!(a >= 0.9, "hardware-BN agreement {a}");
    }

    #[test]
    fn mixed_precision_w1a2_exports_on_integer_path() {
        // LFC-w1a2 shape: binary weights, 2-bit activations.
        let fm = trained(ActSpec::Hwgq { bits: 2 }, ActSpec::Hwgq { bits: 2 }, 1);
        let qm = export(&fm, &ExportConfig::default()).unwrap();
        qm.validate().unwrap();
        assert!(qm.hidden[0].weight_precision.is_binary());
        assert!(!qm.hidden[0].in_precision.is_binary());
        assert!(!qm.is_fully_binary());
        let a = agreement(&fm, &qm, 100);
        assert!(a >= 0.97, "w1a2 agreement {a}");
    }

    #[test]
    fn relu_quant_layer_exports_onto_quan_path() {
        let fm = trained(ActSpec::Hwgq { bits: 4 }, ActSpec::ReluQuant { bits: 4 }, 4);
        let qm = export(&fm, &ExportConfig::default()).unwrap();
        qm.validate().unwrap();
        assert!(matches!(
            qm.hidden[0].activation,
            LayerActivation::Relu { .. }
        ));
        assert!(qm.hidden[0].bn.is_some(), "ReLU path keeps hardware BN");
        let a = agreement(&fm, &qm, 100);
        assert!(a >= 0.85, "relu-quant agreement {a}");
    }

    #[test]
    fn sigmoid_quant_layer_exports_onto_sigmoid_path() {
        let fm = trained(
            ActSpec::SigmoidQuant { bits: 4 },
            ActSpec::SigmoidQuant { bits: 4 },
            4,
        );
        let qm = export(&fm, &ExportConfig::default()).unwrap();
        qm.validate().unwrap();
        assert!(matches!(
            qm.hidden[0].activation,
            LayerActivation::Sigmoid { .. }
        ));
        assert!(qm.hidden[0].bn.is_some(), "Sigmoid path keeps hardware BN");
        // The hardware's Fix-grid PWL sigmoid rounds slightly differently
        // from the float PWL: allow more disagreement than the threshold
        // paths.
        let a = agreement(&fm, &qm, 100);
        assert!(a >= 0.75, "sigmoid-quant agreement {a}");
    }

    #[test]
    fn export_rejects_missing_output_layer() {
        let mut s = spec(ActSpec::Sign, ActSpec::Sign, 1);
        s.layers[1].act = ActSpec::Sign; // no None layer
        let fm = FloatMlp::init(s, 0);
        assert_eq!(
            export(&fm, &ExportConfig::default()).unwrap_err(),
            ExportError::MissingOutputLayer
        );
    }

    #[test]
    fn export_rejects_early_output_layer() {
        let mut s = spec(ActSpec::Sign, ActSpec::Sign, 1);
        s.layers[0].act = ActSpec::None;
        let fm = FloatMlp::init(s, 0);
        assert_eq!(
            export(&fm, &ExportConfig::default()).unwrap_err(),
            ExportError::EarlyOutputLayer { layer: 1 }
        );
    }

    #[test]
    fn exported_accuracy_survives_quantization() {
        let (_, test_ds) = dataset::easy_splits(0, 200, 31);
        let fm = trained_long(ActSpec::Sign, ActSpec::Sign, 1);
        let qm = export(&fm, &ExportConfig::default()).unwrap();
        let correct = test_ds
            .examples
            .iter()
            .filter(|e| reference::infer(&qm, &e.pixels) == e.label as usize)
            .count();
        let acc = correct as f64 / test_ds.len() as f64;
        assert!(acc > 0.5, "exported BNN accuracy {acc}");
    }
}
