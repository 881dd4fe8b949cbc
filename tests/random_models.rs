//! Property-based whole-system test: arbitrary valid models and inputs
//! must produce identical results from the bit-exact software reference
//! and the cycle-level accelerator, via the wire format.

use netpu::arith::{Fix, Precision, QuantParams};
use netpu::compiler;
use netpu::compiler::PackingMode;
use netpu::core::{netpu::run_inference, HwConfig};
use netpu::nn::qmodel::{
    BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp,
};
use netpu::nn::reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministically builds a random-but-valid model from a seed and
/// coarse shape parameters.
fn build_model(
    seed: u64,
    input_len: usize,
    hidden_layers: usize,
    width: usize,
    classes: usize,
) -> QuantMlp {
    let mut rng = StdRng::seed_from_u64(seed);
    let act_bits: u8 = [1u8, 2, 2, 4][rng.gen_range(0..4usize)];
    let out_prec = Precision::new(act_bits).unwrap();

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
            Precision::new([1u8, 2, 4][rng.gen_range(0..3usize)]).unwrap()
        };
        let weights: Vec<i8> = (0..width * prev_width)
            .map(|_| {
                if wp.is_binary() {
                    if rng.gen() {
                        1
                    } else {
                        -1
                    }
                } else {
                    rng.gen_range(wp.signed_min()..=wp.signed_max()) as i8
                }
            })
            .collect();
        let use_bn = rng.gen_bool(0.5);
        let out = prev_prec; // keep one precision through the stack
        let activation = if out.is_binary() {
            LayerActivation::Sign {
                thresholds: (0..width)
                    .map(|_| Fix::from_i32(rng.gen_range(-20..20)))
                    .collect(),
            }
        } else if rng.gen_bool(0.3) {
            // The full-precision ACTIV + QUAN path (ReLU/Sigmoid/Tanh);
            // these require hardware BN to keep the values in a sane
            // range, so force the BN branch below.
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
        let use_bn = use_bn
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
            .map(|_| {
                if wp.is_binary() {
                    if rng.gen() {
                        1
                    } else {
                        -1
                    }
                } else {
                    rng.gen_range(wp.signed_min()..=wp.signed_max()) as i8
                }
            })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Accelerator ≡ reference for arbitrary valid models and inputs.
    #[test]
    fn accelerator_equals_reference_on_random_models(
        seed in 0u64..10_000,
        input_len in 4usize..40,
        hidden_layers in 1usize..4,
        width in 2usize..20,
        classes in 2usize..6,
        px_seed in 0u64..1_000,
    ) {
        let model = build_model(seed, input_len, hidden_layers, width, classes);
        prop_assert!(model.validate().is_ok(), "generated model invalid");
        let mut rng = StdRng::seed_from_u64(px_seed);
        let pixels: Vec<u8> = (0..input_len).map(|_| rng.gen()).collect();

        let trace = reference::infer_traced(&model, &pixels);
        // Alternate packing modes across cases; the result must not
        // depend on the wire format.
        let mode = if seed % 2 == 0 {
            PackingMode::Lanes8
        } else {
            PackingMode::Dense
        };
        let loadable = compiler::compile_packed(&model, &pixels, mode).unwrap();

        // The wire format preserves the model exactly.
        let decoded = compiler::decode(&loadable.words).unwrap();
        let mut anon = model.clone();
        anon.name = String::new();
        prop_assert_eq!(&decoded.model, &anon);

        // The cycle model agrees bit-exactly.
        let cfg = HwConfig {
            dense_weight_packing: true,
            ..HwConfig::paper_instance()
        };
        let run = run_inference(&cfg, loadable.words).unwrap();
        prop_assert_eq!(run.class, trace.class);
        prop_assert_eq!(run.score, trace.scores[trace.class]);
    }

    /// Latency is input-independent: same model, different pixels, same
    /// cycle count.
    #[test]
    fn latency_is_data_independent(seed in 0u64..1_000) {
        let model = build_model(seed, 16, 2, 8, 3);
        let cfg = HwConfig::paper_instance();
        let mut cycles = None;
        for px_seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(px_seed);
            let pixels: Vec<u8> = (0..16).map(|_| rng.gen()).collect();
            let words = compiler::compile(&model, &pixels).unwrap().words;
            let run = run_inference(&cfg, words).unwrap();
            match cycles {
                None => cycles = Some(run.cycles),
                Some(c) => prop_assert_eq!(c, run.cycles),
            }
        }
    }
}
