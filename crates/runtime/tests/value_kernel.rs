//! The entry-backed value kernel against both oracles it stands in for.
//!
//! `Driver::admit_values` keeps a stream's value kernel in its
//! verdict-store entry, reading the weights in place from the entry's
//! words. On random models (binary, W2/W4 and binary-weight integer-path
//! layers), the multi-bit zoo families and a matrix of weight × input
//! precisions (bit-plane layers on both sides of the cutover), under
//! both weight packings, the kernel must match the bit-exact reference
//! on the source model (every level and score) and the cycle-accurate
//! fast path on the stream with the input spliced in (class and winning
//! score). Garbage in the padding fields of each row's last weight word,
//! and in the placeholder bits above each weight inside its 8-bit lane,
//! must change neither the kernel nor the simulator.

use netpu_arith::{Fix, Precision, QuantParams};
use netpu_compiler::stream::{
    model_settings, neuron_weight_words_mode, uses_xnor_path, weight_field_bits,
};
use netpu_compiler::{compile_packed, Loadable, PackingMode, SectionKind, StreamView};
use netpu_core::netpu::run_inference_fast;
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::qmodel::{BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer};
use netpu_nn::zoo::{random_model, ZooModel};
use netpu_nn::{reference, QuantMlp};
use netpu_runtime::Driver;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn driver(mode: PackingMode) -> Driver {
    Driver::builder()
        .hw(HwConfig {
            dense_weight_packing: mode == PackingMode::Dense,
            ..HwConfig::paper_instance()
        })
        .build()
}

/// ORs `noise` into every field past the fan-in of each row's last
/// weight word, in every FC layer.
fn fill_padding(loadable: &mut Loadable, model: &QuantMlp, mode: PackingMode, noise: u64) {
    let settings = model_settings(model);
    for (kind, layer, range) in loadable.layout.sections.clone() {
        if kind != SectionKind::Weights || range.is_empty() {
            continue;
        }
        let s = &settings[layer];
        let width = if uses_xnor_path(s) {
            1
        } else {
            weight_field_bits(s, mode) as usize
        };
        let per = 64 / width;
        let per_row = neuron_weight_words_mode(s, mode);
        let used = s.input_len as usize - (per_row - 1) * per;
        if used == per {
            continue;
        }
        let padding = !((1u64 << (used * width)) - 1);
        for last in (range.start + per_row - 1..range.end).step_by(per_row) {
            loadable.words[last] |= noise & padding;
        }
    }
}

/// ORs `noise` into the placeholder bits of every integer-path weight
/// field wider than its weight: the bits above the weight's own inside
/// its lane, which the hardware ignores.
fn fill_placeholders(loadable: &mut Loadable, model: &QuantMlp, mode: PackingMode, noise: u64) {
    let settings = model_settings(model);
    for (kind, layer, range) in loadable.layout.sections.clone() {
        let s = &settings[layer];
        let bits = u32::from(s.weight_precision.bits());
        let width = weight_field_bits(s, mode);
        if kind != SectionKind::Weights
            || uses_xnor_path(s)
            || s.weight_precision.is_binary()
            || width <= bits
        {
            continue;
        }
        let field = ((1u64 << width) - 1) & !((1u64 << bits) - 1);
        let mask = (0..64 / width).fold(0, |m, f| m | field << (f * width));
        for word in &mut loadable.words[range] {
            *word |= noise & mask;
        }
    }
}

fn pixels(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| ((i * 37 + seed * 101 + i * i * seed) % 256) as u8)
        .collect()
}

/// Checks `model` under `mode` on inputs drawn from `seeds`, with
/// `noise` in the padding fields and the placeholder bits of a second
/// copy of the stream.
fn check(model: &QuantMlp, mode: PackingMode, seeds: &[u64], noise: u64) {
    let driver = driver(mode);
    let loadable = compile_packed(model, &vec![0u8; model.input.len], mode).unwrap();
    let (kernel, _) = driver.admit_values(&loadable, model).unwrap();
    let mut noisy = loadable.clone();
    fill_padding(&mut noisy, model, mode, noise);
    fill_placeholders(&mut noisy, model, mode, noise);
    let noisy_view = StreamView::new(noisy.words.clone().into()).unwrap();
    for &seed in seeds {
        let px = pixels(model.input.len, seed);
        let trace = reference::infer_traced(model, &px);
        let winner = (trace.class, trace.scores[trace.class]);
        assert_eq!(
            kernel.kernel().infer_traced(&px),
            trace,
            "{mode:?} seed {seed}"
        );
        assert_eq!(kernel.infer(&px), Ok(winner), "{mode:?} seed {seed}");
        assert_eq!(
            noisy_view.kernel().infer_traced(&px),
            trace,
            "{mode:?} seed {seed}"
        );
        for stream in [&loadable, &noisy] {
            let mut spliced = stream.clone();
            spliced.replace_input(&px).unwrap();
            let run = run_inference_fast(&driver.hw, spliced.words).unwrap();
            assert_eq!((run.class, run.score), winner, "{mode:?} seed {seed}");
        }
        kernel.shadow(&px, winner).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn entry_kernel_matches_reference_and_simulator_on_random_models(
        seed in any::<u64>(),
        dense in any::<bool>(),
        noise in any::<u64>(),
        input in any::<u64>(),
    ) {
        let mode = if dense { PackingMode::Dense } else { PackingMode::Lanes8 };
        check(&random_model(seed), mode, &[input, input ^ 1], noise);
    }
}

#[test]
fn entry_kernel_matches_reference_and_simulator_on_multibit_zoo_models() {
    // W2A2 layers, and LFC-w1a2's binary weights on the integer path
    // (8-bit lanes under Lanes8, 1-bit fields under Dense).
    for (k, zoo) in [ZooModel::TfcW2A2, ZooModel::SfcW2A2, ZooModel::LfcW1A2]
        .into_iter()
        .enumerate()
    {
        for mode in [PackingMode::Lanes8, PackingMode::Dense] {
            let model = zoo
                .build_untrained(60 + k as u64, BnMode::Hardware)
                .unwrap();
            check(&model, mode, &[1, 2], u64::MAX);
        }
    }
}

/// A 130-input model (two full 64-bit words of fan-in and a tail) whose
/// hidden layer (70 neurons) and output layer (10 classes) both take
/// `ip`-bit inputs with `wp`-bit weights: Sign activations at 1 bit,
/// Multi-Threshold up to 4, ReLU + QUAN at 8. Hardware BN scales each
/// accumulator into the activation's range.
fn matrix_model(wp: u8, ip: u8, seed: u64) -> QuantMlp {
    let (wp, ip) = (Precision::new(wp).unwrap(), Precision::new(ip).unwrap());
    let mut rng = StdRng::seed_from_u64(seed);
    let (input_len, width, classes) = (130, 70, 10);
    let mut thresholds = |rows: usize, lo: i32, hi: i32| -> Vec<Fix> {
        (0..rows)
            .flat_map(|_| {
                let mut t: Vec<i32> = (0..ip.multi_threshold_count())
                    .map(|_| rng.gen_range(lo..hi))
                    .collect();
                t.sort_unstable();
                t.into_iter().map(Fix::from_i32)
            })
            .collect()
    };
    let activation = |rows: usize, thresholds: Vec<Fix>| match ip.bits() {
        1 => LayerActivation::Sign {
            thresholds: thresholds.into_iter().take(rows).collect(),
        },
        8 => LayerActivation::Relu {
            quant: QuantParams::from_f64(1.0, 0.0),
        },
        _ => LayerActivation::MultiThreshold { thresholds },
    };
    let input_thresholds = thresholds(input_len, 0, 255);
    let hidden_thresholds = thresholds(width, -40, 40);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut weights = |n: usize| -> Vec<i8> {
        (0..n)
            .map(|_| {
                if wp.is_binary() {
                    2 * rng.gen_range(0..2) - 1
                } else {
                    rng.gen_range(wp.signed_min()..=wp.signed_max())
                }
            })
            .map(|w: i32| w as i8)
            .collect()
    };
    // Spread a layer's accumulators over about ±64 after BN.
    let bound = input_len as f64 * f64::from(wp.signed_max().max(1)) * f64::from(ip.unsigned_max());
    let bn = |n: usize| -> Vec<BnParams> {
        (0..n)
            .map(|k| BnParams {
                scale_q16: Fix::q16_scale_from_f64(256.0 / bound),
                offset: Fix::from_i32(k as i32 % 7 - 3),
            })
            .collect()
    };
    let model = QuantMlp {
        name: format!("w{}a{}", wp.bits(), ip.bits()),
        input: InputLayer {
            len: input_len,
            out_precision: ip,
            activation: activation(input_len, input_thresholds),
        },
        hidden: vec![HiddenLayer {
            in_len: input_len,
            neurons: width,
            weight_precision: wp,
            in_precision: ip,
            out_precision: ip,
            weights: weights(width * input_len),
            bias: None,
            bn: Some(bn(width)),
            activation: activation(width, hidden_thresholds),
        }],
        output: OutputLayer {
            in_len: width,
            neurons: classes,
            weight_precision: wp,
            in_precision: ip,
            weights: weights(classes * width),
            bias: None,
            bn: Some(vec![BnParams::IDENTITY; classes]),
        },
    };
    model.validate().unwrap();
    model
}

#[test]
fn entry_kernel_matches_reference_and_simulator_across_the_precision_matrix() {
    // Every weight × input pair random models and the zoo produce
    // (W1A1 on the XNOR path, W1/W2/W4 weights on 2- and 4-bit inputs),
    // hand-built W4A4 and W8A8 layers, and the W8A2 and W2A8 edges of
    // the bit-plane cutover.
    let matrix = [
        (1, 1),
        (1, 2),
        (2, 2),
        (4, 2),
        (1, 4),
        (2, 4),
        (4, 4),
        (8, 2),
        (2, 8),
        (8, 8),
    ];
    for (k, (wp, ip)) in matrix.into_iter().enumerate() {
        let model = matrix_model(wp, ip, 90 + k as u64);
        for mode in [PackingMode::Lanes8, PackingMode::Dense] {
            check(&model, mode, &[3, 4], 0xA5C3_5A3C_F00F_0FF0);
        }
    }
}
