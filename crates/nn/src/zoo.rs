//! The model zoo: the six pre-trained networks of the paper's evaluation.
//!
//! §IV evaluates six quantized MLPs from FINN/Brevitas on MNIST-shaped
//! data: TFC-w1a1, TFC-w2a2, SFC-w1a1, SFC-w2a2, LFC-w1a1, LFC-w1a2.
//! All share the topology 784 → H → H → H → 10 with H = 64 (TFC),
//! 256 (SFC), 1024 (LFC); `wNaM` quantizes weights to N bits and
//! activations to M bits.

use crate::export::{export, BnMode, ExportConfig, ExportError};
use crate::float::{ActSpec, FloatMlp, LayerSpec, MlpSpec};
use crate::qmodel::{BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp};
use netpu_arith::{cast, Fix, Precision, QuantParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Input dimensionality of every zoo model (28×28 images).
pub const ZOO_INPUT_LEN: usize = crate::dataset::IMAGE_PIXELS;
/// Class count of every zoo model.
pub const ZOO_CLASSES: usize = crate::dataset::NUM_CLASSES;
/// Hidden-layer count of every zoo model.
pub const ZOO_HIDDEN_LAYERS: usize = 3;

/// The six evaluation models.
///
/// ```
/// use netpu_nn::{export::BnMode, reference, zoo::ZooModel};
/// let model = ZooModel::TfcW2A2.build_untrained(7, BnMode::Folded).unwrap();
/// assert_eq!(model.layer_count(), 5); // input + 3 hidden + output
/// let class = reference::infer(&model, &vec![128u8; 784]);
/// assert!(class < 10);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ZooModel {
    /// TFC (64-wide), 1-bit weights, 1-bit activations.
    TfcW1A1,
    /// TFC (64-wide), 2-bit weights, 2-bit activations.
    TfcW2A2,
    /// SFC (256-wide), 1-bit weights, 1-bit activations.
    SfcW1A1,
    /// SFC (256-wide), 2-bit weights, 2-bit activations.
    SfcW2A2,
    /// LFC (1024-wide), 1-bit weights, 1-bit activations.
    LfcW1A1,
    /// LFC (1024-wide), 1-bit weights, 2-bit activations.
    LfcW1A2,
}

impl ZooModel {
    /// All six models in the paper's order.
    pub const ALL: [ZooModel; 6] = [
        ZooModel::TfcW1A1,
        ZooModel::TfcW2A2,
        ZooModel::SfcW1A1,
        ZooModel::SfcW2A2,
        ZooModel::LfcW1A1,
        ZooModel::LfcW1A2,
    ];

    /// The paper's model name, e.g. `"SFC-w1a1"`.
    pub fn name(self) -> &'static str {
        match self {
            ZooModel::TfcW1A1 => "TFC-w1a1",
            ZooModel::TfcW2A2 => "TFC-w2a2",
            ZooModel::SfcW1A1 => "SFC-w1a1",
            ZooModel::SfcW2A2 => "SFC-w2a2",
            ZooModel::LfcW1A1 => "LFC-w1a1",
            ZooModel::LfcW1A2 => "LFC-w1a2",
        }
    }

    /// Hidden-layer width (64 / 256 / 1024).
    pub fn hidden_width(self) -> usize {
        match self {
            ZooModel::TfcW1A1 | ZooModel::TfcW2A2 => 64,
            ZooModel::SfcW1A1 | ZooModel::SfcW2A2 => 256,
            ZooModel::LfcW1A1 | ZooModel::LfcW1A2 => 1024,
        }
    }

    /// Weight precision in bits.
    pub fn weight_bits(self) -> u8 {
        match self {
            ZooModel::TfcW2A2 | ZooModel::SfcW2A2 => 2,
            _ => 1,
        }
    }

    /// Activation precision in bits.
    pub fn act_bits(self) -> u8 {
        match self {
            ZooModel::TfcW1A1 | ZooModel::SfcW1A1 | ZooModel::LfcW1A1 => 1,
            _ => 2,
        }
    }

    /// `true` for the fully binarized (Sign-activation) models.
    pub fn is_binary(self) -> bool {
        self.act_bits() == 1
    }

    /// The activation family used by the hidden layers (and input layer).
    pub fn activation(self) -> ActSpec {
        if self.is_binary() {
            ActSpec::Sign
        } else {
            ActSpec::Hwgq {
                bits: self.act_bits(),
            }
        }
    }

    /// The float-training specification for this model.
    pub fn spec(self) -> MlpSpec {
        let act = self.activation();
        let mut layers: Vec<LayerSpec> = (0..ZOO_HIDDEN_LAYERS)
            .map(|_| LayerSpec {
                neurons: self.hidden_width(),
                weight_bits: self.weight_bits(),
                act,
                batch_norm: true,
            })
            .collect();
        layers.push(LayerSpec {
            neurons: ZOO_CLASSES,
            weight_bits: self.weight_bits(),
            act: ActSpec::None,
            batch_norm: true,
        });
        MlpSpec {
            name: self.name().to_string(),
            input_len: ZOO_INPUT_LEN,
            input_act: act,
            layers,
        }
    }

    /// Total FC weight count (the quantity that dominates stream length
    /// and therefore latency).
    pub fn weight_count(self) -> usize {
        let h = self.hidden_width();
        ZOO_INPUT_LEN * h + (ZOO_HIDDEN_LAYERS - 1) * h * h + h * ZOO_CLASSES
    }

    /// Builds an untrained (randomly initialised, identity-BN) hardware
    /// model, deterministic in `seed`. Latency is data- and
    /// weight-value-independent, so benchmarks use this; accuracy
    /// experiments use [`ZooModel::train`].
    pub fn build_untrained(self, seed: u64, bn_mode: BnMode) -> Result<QuantMlp, ExportError> {
        let fm = FloatMlp::init(self.spec(), seed);
        export(&fm, &ExportConfig { bn_mode })
    }

    /// Trains the model on `data` and exports it under `bn_mode`.
    pub fn train(
        self,
        data: &crate::dataset::Dataset,
        cfg: &crate::train::TrainConfig,
        bn_mode: BnMode,
    ) -> Result<(FloatMlp, QuantMlp), ExportError> {
        let mut fm = FloatMlp::init(self.spec(), cfg.seed ^ 0xA5A5);
        crate::train::train(&mut fm, data, cfg);
        let qm = export(&fm, &ExportConfig { bn_mode })?;
        Ok((fm, qm))
    }
}

impl fmt::Display for ZooModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One uniform weight of precision `wp` (±1 when binary), drawn as an
/// `i32` so each seed keeps its model.
fn random_weight(rng: &mut StdRng, wp: Precision) -> i8 {
    let w = if wp.is_binary() {
        if rng.gen() {
            1
        } else {
            -1
        }
    } else {
        rng.gen_range(wp.signed_min()..=wp.signed_max())
    };
    cast::i8_sat(w)
}

/// Deterministically builds a small random-but-valid [`QuantMlp`] from a
/// seed: rng-drawn shape (4–23 inputs, 1–2 hidden layers 2–11 wide, 2–5
/// classes), precision mix (W1/W2/W4 weights, 1/2/4-bit activations),
/// and Sign / Multi-Threshold / QUAN activation paths with either folded
/// biases or hardware BN. Every model validates; the translation
/// validator and `xtask certify` sweep these against their own honest
/// compiles.
pub fn random_model(seed: u64) -> QuantMlp {
    let mut rng = StdRng::seed_from_u64(seed);
    let input_len = rng.gen_range(4..24);
    let hidden_layers = rng.gen_range(1..3);
    let width = rng.gen_range(2..12);
    let classes = rng.gen_range(2..6);

    let act_bits: u8 = [1u8, 2, 2, 4][rng.gen_range(0..4usize)];
    let out_prec = Precision::new(act_bits).expect("1/2/4 are valid activation widths");
    let input_activation = if act_bits == 1 {
        LayerActivation::Sign {
            thresholds: (0..input_len)
                .map(|_| Fix::from_i32(rng.gen_range(0..255)))
                .collect(),
        }
    } else {
        LayerActivation::MultiThreshold {
            thresholds: (0..input_len)
                .flat_map(|_| {
                    let mut t: Vec<i32> = (0..out_prec.multi_threshold_count())
                        .map(|_| rng.gen_range(0..255))
                        .collect();
                    t.sort_unstable();
                    t.into_iter().map(Fix::from_i32)
                })
                .collect(),
        }
    };

    let mut hidden = Vec::new();
    let mut prev_width = input_len;
    let prev_prec = out_prec;
    for _ in 0..hidden_layers {
        // Weight precision: binary only when inputs are binary (the
        // XNOR pairing rule) or on the promoted integer path.
        let wp = if prev_prec.is_binary() {
            Precision::W1
        } else {
            Precision::new([1u8, 2, 4][rng.gen_range(0..3usize)]).expect("valid widths")
        };
        let weights: Vec<i8> = (0..width * prev_width)
            .map(|_| random_weight(&mut rng, wp))
            .collect();
        let out = prev_prec; // keep one precision through the stack
        let activation = if out.is_binary() {
            LayerActivation::Sign {
                thresholds: (0..width)
                    .map(|_| Fix::from_i32(rng.gen_range(-20..20)))
                    .collect(),
            }
        } else if rng.gen_bool(0.3) {
            // The full-precision ACTIV + QUAN path; these require
            // hardware BN to keep the values in a sane range, so force
            // the BN branch below.
            let quant = QuantParams::from_f64(rng.gen_range(0.25..4.0), rng.gen_range(0.0..1.0));
            match rng.gen_range(0..3) {
                0 => LayerActivation::Relu { quant },
                1 => LayerActivation::Sigmoid { quant },
                _ => LayerActivation::Tanh { quant },
            }
        } else {
            LayerActivation::MultiThreshold {
                thresholds: (0..width)
                    .flat_map(|_| {
                        let mut t: Vec<i32> = (0..out.multi_threshold_count())
                            .map(|_| rng.gen_range(-50..50))
                            .collect();
                        t.sort_unstable();
                        t.into_iter().map(Fix::from_i32)
                    })
                    .collect(),
            }
        };
        let use_bn = rng.gen_bool(0.5)
            || matches!(
                activation,
                LayerActivation::Relu { .. }
                    | LayerActivation::Sigmoid { .. }
                    | LayerActivation::Tanh { .. }
            );
        hidden.push(HiddenLayer {
            in_len: prev_width,
            neurons: width,
            weight_precision: wp,
            in_precision: prev_prec,
            out_precision: out,
            weights,
            bias: if use_bn {
                None
            } else {
                Some((0..width).map(|_| rng.gen_range(-10..10)).collect())
            },
            bn: if use_bn {
                Some(
                    (0..width)
                        .map(|_| BnParams {
                            scale_q16: Fix::q16_scale_from_f64(rng.gen_range(0.01..2.0)),
                            offset: Fix::from_f64(rng.gen_range(-4.0..4.0)),
                        })
                        .collect(),
                )
            } else {
                None
            },
            activation,
        });
        prev_width = width;
    }

    let wp = if prev_prec.is_binary() {
        Precision::W1
    } else {
        Precision::W2
    };
    let output = OutputLayer {
        in_len: prev_width,
        neurons: classes,
        weight_precision: wp,
        in_precision: prev_prec,
        weights: (0..classes * prev_width)
            .map(|_| random_weight(&mut rng, wp))
            .collect(),
        bias: None,
        bn: Some(
            (0..classes)
                .map(|_| BnParams {
                    scale_q16: Fix::q16_scale_from_f64(rng.gen_range(0.1..2.0)),
                    offset: Fix::from_f64(rng.gen_range(-2.0..2.0)),
                })
                .collect(),
        ),
    };

    QuantMlp {
        name: format!("random-{seed}"),
        input: InputLayer {
            len: input_len,
            out_precision: out_prec,
            activation: input_activation,
        },
        hidden,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_matches_paper_topologies() {
        assert_eq!(ZooModel::TfcW1A1.hidden_width(), 64);
        assert_eq!(ZooModel::SfcW2A2.hidden_width(), 256);
        assert_eq!(ZooModel::LfcW1A2.hidden_width(), 1024);
        assert_eq!(ZooModel::LfcW1A2.weight_bits(), 1);
        assert_eq!(ZooModel::LfcW1A2.act_bits(), 2);
        assert!(ZooModel::LfcW1A1.is_binary());
        assert!(!ZooModel::TfcW2A2.is_binary());
    }

    #[test]
    fn weight_counts_match_hand_computation() {
        // TFC: 784·64 + 2·64² + 64·10 = 59,008.
        assert_eq!(ZooModel::TfcW1A1.weight_count(), 59_008);
        // SFC: 784·256 + 2·256² + 256·10 = 334,336.
        assert_eq!(ZooModel::SfcW1A1.weight_count(), 334_336);
        // LFC: 784·1024 + 2·1024² + 1024·10 = 2,910,208.
        assert_eq!(ZooModel::LfcW1A1.weight_count(), 2_910_208);
    }

    #[test]
    fn source_weights_cost_one_byte_each() {
        let m = ZooModel::SfcW1A1
            .build_untrained(1, BnMode::Folded)
            .unwrap();
        let bytes: usize = m
            .hidden
            .iter()
            .map(|h| std::mem::size_of_val(h.weights.as_slice()))
            .sum::<usize>()
            + std::mem::size_of_val(m.output.weights.as_slice());
        assert_eq!(bytes, 334_336);
        assert_eq!(bytes, m.weight_count());
    }

    #[test]
    fn untrained_models_validate_and_infer() {
        for m in [ZooModel::TfcW1A1, ZooModel::TfcW2A2] {
            let qm = m.build_untrained(1, BnMode::Folded).unwrap();
            qm.validate().unwrap();
            assert_eq!(qm.layer_count(), 5);
            let pixels = vec![100u8; ZOO_INPUT_LEN];
            let class = crate::reference::infer(&qm, &pixels);
            assert!(class < ZOO_CLASSES);
        }
    }

    #[test]
    fn untrained_build_is_deterministic() {
        let a = ZooModel::TfcW1A1
            .build_untrained(9, BnMode::Folded)
            .unwrap();
        let b = ZooModel::TfcW1A1
            .build_untrained(9, BnMode::Folded)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn binary_models_use_sign_path() {
        let qm = ZooModel::TfcW1A1
            .build_untrained(2, BnMode::Folded)
            .unwrap();
        assert!(qm.is_fully_binary());
        let qm2 = ZooModel::TfcW2A2
            .build_untrained(2, BnMode::Folded)
            .unwrap();
        assert!(!qm2.is_fully_binary());
    }

    #[test]
    fn random_models_validate_and_are_deterministic() {
        for seed in 0..40u64 {
            let m = random_model(seed);
            assert!(m.validate().is_ok(), "seed {seed}: {:?}", m.validate());
            assert_eq!(m, random_model(seed));
        }
        // The generator actually varies shape and activation paths.
        assert_ne!(random_model(0), random_model(1));
    }

    #[test]
    fn w1a2_mixes_binary_weights_with_two_bit_activations() {
        let qm = ZooModel::LfcW1A2
            .build_untrained(3, BnMode::Folded)
            .unwrap();
        assert!(qm.hidden[0].weight_precision.is_binary());
        assert_eq!(qm.hidden[0].out_precision.bits(), 2);
    }
}
