//! Differential suite for the batch-major bitsliced kernel: on random
//! fully-binary models and batch sizes spanning several slabs, the
//! [`BitslicedMlp`] values must be bitwise identical to the per-frame
//! packed reference *and* to the tick-level accelerator, while
//! [`run_batch_fast`] cycle counts must equal the per-frame fast path
//! exactly (counts-vs-values split, DESIGN.md §4.5).

use netpu::arith::{Fix, Precision};
use netpu::compiler;
use netpu::core::{run_batch_fast, run_inference, run_inference_fast, BatchEngine, HwConfig};
use netpu::nn::export::BnMode;
use netpu::nn::qmodel::{
    BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp,
};
use netpu::nn::reference::{BitslicedMlp, PackedMlp};
use netpu::nn::zoo::ZooModel;
use netpu::runtime::Driver;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministically builds a random *fully binary* model (W1A1
/// everywhere), the class the bitsliced kernel admits.
fn build_binary_model(
    seed: u64,
    input_len: usize,
    hidden_layers: usize,
    width: usize,
    classes: usize,
) -> QuantMlp {
    let mut rng = StdRng::seed_from_u64(seed);
    let sign_thresholds = |rng: &mut StdRng, n: usize, lo: i32, hi: i32| LayerActivation::Sign {
        thresholds: (0..n)
            .map(|_| Fix::from_i32(rng.gen_range(lo..hi)))
            .collect(),
    };
    let bipolar = |rng: &mut StdRng, n: usize| -> Vec<i8> {
        (0..n).map(|_| if rng.gen() { 1 } else { -1 }).collect()
    };

    let input_activation = sign_thresholds(&mut rng, input_len, 0, 255);
    let mut hidden = Vec::new();
    let mut prev_width = input_len;
    for _ in 0..hidden_layers {
        let weights = bipolar(&mut rng, width * prev_width);
        let use_bn = rng.gen_bool(0.5);
        let activation = sign_thresholds(&mut rng, width, -20, 20);
        hidden.push(HiddenLayer {
            in_len: prev_width,
            neurons: width,
            weight_precision: Precision::W1,
            in_precision: Precision::W1,
            out_precision: Precision::W1,
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

    let output = OutputLayer {
        in_len: prev_width,
        neurons: classes,
        weight_precision: Precision::W1,
        in_precision: Precision::W1,
        weights: bipolar(&mut rng, classes * prev_width),
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
        name: format!("binary-{seed}"),
        input: InputLayer {
            len: input_len,
            out_precision: Precision::W1,
            activation: input_activation,
        },
        hidden,
        output,
    }
}

fn random_frames(seed: u64, len: usize, n: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bitsliced ≡ packed ≡ tick-level accelerator on random binary
    /// models, for batch sizes from a single frame to several slabs
    /// plus a tail.
    #[test]
    fn bitsliced_equals_packed_and_sim_on_random_binary_models(
        seed in 0u64..10_000,
        input_len in 4usize..40,
        hidden_layers in 1usize..4,
        width in 2usize..20,
        classes in 2usize..6,
        batch in 1usize..=257,
        px_seed in 0u64..1_000,
    ) {
        let model = build_binary_model(seed, input_len, hidden_layers, width, classes);
        prop_assert!(model.validate().is_ok(), "generated model invalid");
        let frames = random_frames(px_seed, input_len, batch);

        let engine = BatchEngine::new(&model);
        prop_assert!(engine.is_bitsliced(), "binary model must take the bitsliced path");
        let sliced = BitslicedMlp::new(&model).unwrap();
        let packed = PackedMlp::new(&model);

        // Values: every frame bitwise-equal to the per-frame reference.
        let outputs = engine.run_slab(&frames);
        prop_assert_eq!(outputs.len(), frames.len());
        for (out, px) in outputs.iter().zip(&frames) {
            let trace = packed.infer_traced(px);
            prop_assert_eq!(out.class, trace.class);
            prop_assert_eq!(&out.scores, &trace.scores);
        }
        // One sub-slab call straight through the kernel, same answer.
        let head = frames.len().min(5);
        for (out, whole) in sliced.infer_slab(&frames[..head]).iter().zip(&outputs) {
            prop_assert_eq!(out, whole);
        }

        // Tick-level accelerator agrees on a sample of frames.
        let cfg = HwConfig::paper_instance();
        let mut tick_cycles = None;
        for px in frames.iter().take(3) {
            let words = compiler::compile(&model, px).unwrap().words;
            let run = run_inference(&cfg, words).unwrap();
            let trace = packed.infer_traced(px);
            prop_assert_eq!(run.class, trace.class);
            prop_assert_eq!(run.score, trace.scores[trace.class]);
            tick_cycles = Some(run.cycles);
        }

        // Counts: the batch fast path charges every frame the same
        // cycle count as the per-frame fast path and the tick model.
        let batch_runs = run_batch_fast(&cfg, &model, &frames).unwrap();
        prop_assert_eq!(batch_runs.len(), frames.len());
        let words = compiler::compile(&model, &frames[0]).unwrap().words;
        let single = run_inference_fast(&cfg, words).unwrap();
        prop_assert_eq!(single.cycles, tick_cycles.unwrap());
        for run in &batch_runs {
            prop_assert_eq!(run.cycles, single.cycles);
            prop_assert_eq!(run.breakdown.clone(), single.breakdown.clone());
        }
        prop_assert_eq!(&batch_runs[0], &single);
    }
}

/// The driver's slab-swept batch path reproduces per-frame inference
/// across the binary zoo, including the non-multiple-of-64 tail.
#[test]
fn driver_batch_matches_per_frame_across_binary_zoo() {
    let driver = Driver::builder().build();
    for (i, zoo) in [ZooModel::TfcW1A1, ZooModel::SfcW1A1, ZooModel::LfcW1A1]
        .iter()
        .enumerate()
    {
        let model = zoo.build_untrained(i as u64 + 11, BnMode::Folded).unwrap();
        // 67 frames: one full slab + 3-frame tail.
        let inputs = random_frames(i as u64 + 101, model.input.len, 67);
        let batch = driver.infer_batch(&model, &inputs).unwrap();
        assert_eq!(batch.len(), 67, "{}", zoo.name());
        for (j, (run, px)) in batch.iter().zip(&inputs).enumerate().step_by(13) {
            let single = driver.infer(&model, px).unwrap();
            assert_eq!(run.class, single.class, "{} frame {j}", zoo.name());
            assert_eq!(run.cycles, single.cycles, "{} frame {j}", zoo.name());
            assert_eq!(
                run.probabilities,
                single.probabilities,
                "{} frame {j}",
                zoo.name()
            );
        }
    }
}
