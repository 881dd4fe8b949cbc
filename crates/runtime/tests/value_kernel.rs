//! The entry-backed value kernel against both oracles it stands in for.
//!
//! `Driver::admit_values` keeps a stream's value kernel in its
//! verdict-store entry, reading the weights in place from the entry's
//! words. On random models (binary, W2/W4 and binary-weight integer-path
//! layers) and the multi-bit zoo families, under both weight packings,
//! the kernel must match the bit-exact reference on the source model
//! (every level and score) and the cycle-accurate fast path on the
//! stream with the input spliced in (class and winning score). Garbage
//! in the padding fields of each row's last weight word must change
//! neither the kernel nor the simulator.

use netpu_compiler::stream::{
    model_settings, neuron_weight_words_mode, uses_xnor_path, weight_field_bits,
};
use netpu_compiler::{compile_packed, Loadable, PackingMode, SectionKind, StreamView};
use netpu_core::netpu::run_inference_fast;
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::{random_model, ZooModel};
use netpu_nn::{reference, QuantMlp};
use netpu_runtime::Driver;
use proptest::prelude::*;

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

fn pixels(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| ((i * 37 + seed * 101 + i * i * seed) % 256) as u8)
        .collect()
}

/// Checks `model` under `mode` on inputs drawn from `seeds`, with
/// `noise` in the padding fields of a second copy of the stream.
fn check(model: &QuantMlp, mode: PackingMode, seeds: &[u64], noise: u64) {
    let driver = driver(mode);
    let loadable = compile_packed(model, &vec![0u8; model.input.len], mode).unwrap();
    let (kernel, _) = driver.admit_values(&loadable, model).unwrap();
    let mut noisy = loadable.clone();
    fill_padding(&mut noisy, model, mode, noise);
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
