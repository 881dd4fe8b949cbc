//! Round-trip and robustness tests for the loadable format.

use netpu_compiler::stream::{
    self, compile, decode, input_words, model_settings, param_words, weight_words, StreamError,
};
use netpu_compiler::{LayerType, SectionKind, StreamView};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_nn::QuantMlp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

fn sample_pixels(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

fn models_under_test() -> Vec<QuantMlp> {
    vec![
        ZooModel::TfcW1A1
            .build_untrained(1, BnMode::Folded)
            .unwrap(),
        ZooModel::TfcW1A1
            .build_untrained(1, BnMode::Hardware)
            .unwrap(),
        ZooModel::TfcW2A2
            .build_untrained(2, BnMode::Folded)
            .unwrap(),
        ZooModel::TfcW2A2
            .build_untrained(2, BnMode::Hardware)
            .unwrap(),
    ]
}

#[test]
fn compile_decode_roundtrips_all_model_shapes() {
    for mut model in models_under_test() {
        let pixels = sample_pixels(7, model.input.len);
        let loadable = compile(&model, &pixels).unwrap();
        let decoded = decode(&loadable.words).unwrap();
        // Names are not transmitted.
        model.name = String::new();
        assert_eq!(decoded.model, model);
        assert_eq!(decoded.pixels, pixels);
    }
}

#[test]
fn section_order_matches_paper_interleave() {
    let model = ZooModel::TfcW1A1
        .build_untrained(3, BnMode::Folded)
        .unwrap();
    let pixels = sample_pixels(3, model.input.len);
    let loadable = compile(&model, &pixels).unwrap();
    let kinds: Vec<(SectionKind, usize)> = loadable
        .layout
        .sections
        .iter()
        .map(|(k, l, _)| (*k, *l))
        .collect();
    // TFC has 5 layers: P0, P1, W0, P2, W1, P3, W2, P4, W3, W4.
    assert_eq!(
        kinds,
        vec![
            (SectionKind::Params, 0),
            (SectionKind::Params, 1),
            (SectionKind::Weights, 0),
            (SectionKind::Params, 2),
            (SectionKind::Weights, 1),
            (SectionKind::Params, 3),
            (SectionKind::Weights, 2),
            (SectionKind::Params, 4),
            (SectionKind::Weights, 3),
            (SectionKind::Weights, 4),
        ]
    );
    // The input layer carries no weights.
    let w0 = &loadable.layout.sections[2].2;
    assert_eq!(w0.len(), 0);
}

#[test]
fn binary_weights_stream_eight_times_denser() {
    let w1a1 = ZooModel::TfcW1A1
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    let w2a2 = ZooModel::TfcW2A2
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    let s1 = model_settings(&w1a1);
    let s2 = model_settings(&w2a2);
    // First hidden layer: 784 inputs → 13 words binary vs 98 words 8-bit.
    assert_eq!(stream::neuron_weight_words(&s1[1]), 13);
    assert_eq!(stream::neuron_weight_words(&s2[1]), 98);
}

#[test]
fn stream_length_is_dominated_by_weights_for_large_models() {
    let model = ZooModel::SfcW1A1
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    let pixels = sample_pixels(1, model.input.len);
    let loadable = compile(&model, &pixels).unwrap();
    let settings = model_settings(&model);
    let total_weights: usize = settings.iter().map(weight_words).sum();
    assert!(
        total_weights * 10 > loadable.len() * 8,
        "weights should dominate"
    );
}

#[test]
fn word_counts_match_emitted_sections() {
    for model in models_under_test() {
        let pixels = sample_pixels(5, model.input.len);
        let loadable = compile(&model, &pixels).unwrap();
        let settings = model_settings(&model);
        for (kind, layer, range) in &loadable.layout.sections {
            let expect = match kind {
                SectionKind::Params => param_words(&settings[*layer]),
                SectionKind::Weights => weight_words(&settings[*layer]),
            };
            assert_eq!(
                range.len(),
                expect,
                "{kind:?} layer {layer} in {}",
                model.name
            );
        }
        assert_eq!(loadable.layout.input.len(), input_words(model.input.len));
    }
}

#[test]
fn replace_input_changes_only_input_section() {
    let model = ZooModel::TfcW1A1
        .build_untrained(2, BnMode::Folded)
        .unwrap();
    let a = sample_pixels(10, model.input.len);
    let b = sample_pixels(11, model.input.len);
    let mut loadable = compile(&model, &a).unwrap();
    let reference = compile(&model, &b).unwrap();
    loadable.replace_input(&b).unwrap();
    assert_eq!(loadable.words, reference.words);
    // Wrong length is rejected.
    assert!(matches!(
        loadable.replace_input(&[0u8; 3]),
        Err(StreamError::InputLength {
            expected: 784,
            got: 3
        })
    ));
}

#[test]
fn decode_rejects_corrupt_streams() {
    let model = ZooModel::TfcW1A1
        .build_untrained(4, BnMode::Folded)
        .unwrap();
    let pixels = sample_pixels(4, model.input.len);
    let loadable = compile(&model, &pixels).unwrap();

    // Bad magic.
    let mut bad = loadable.words.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(decode(&bad), Err(StreamError::BadHeader(_))));

    // Truncations at every section boundary must be detected.
    for (_, _, range) in &loadable.layout.sections {
        if range.start > 0 {
            let truncated = &loadable.words[..range.start.min(loadable.len() - 1)];
            assert!(
                matches!(decode(truncated), Err(StreamError::Truncated { .. })),
                "truncation at {} not detected",
                range.start
            );
        }
    }

    // Empty stream.
    assert!(matches!(decode(&[]), Err(StreamError::Truncated { .. })));
}

#[test]
fn the_view_reads_the_compiled_weights_in_place() {
    // Zoo models in both packings, plus random models mixing binary
    // and multi-bit layers: the view's rows read back exactly the
    // compiled weights in every field layout, its expansion is what
    // `decode` returns, and its kernel walks like the reference.
    let mut models = models_under_test();
    models.extend((0..40).map(netpu_nn::zoo::random_model));
    let mut fields = HashSet::new();
    for (k, model) in models.iter().enumerate() {
        let pixels = sample_pixels(k as u64, model.input.len);
        for mode in [stream::PackingMode::Lanes8, stream::PackingMode::Dense] {
            let loadable = stream::compile_packed(model, &pixels, mode).unwrap();
            let view = StreamView::new(loadable.words.clone().into()).unwrap();
            let compiled = model
                .hidden
                .iter()
                .map(|l| &l.weights)
                .chain(std::iter::once(&model.output.weights));
            for (layer, weights) in compiled.enumerate() {
                let rows = view.kernel().weight_rows(layer).unwrap();
                fields.insert(format!("{:?}", rows.field()));
                let read: Vec<i8> = (0..rows.neurons()).flat_map(|n| rows.weights(n)).collect();
                assert_eq!(&read, weights, "model {k} {mode:?} layer {layer}");
            }
            let full = decode(&loadable.words).unwrap();
            assert_eq!(view.expand(&loadable.words), full, "model {k} {mode:?}");
            assert_eq!(full.pixels, pixels);
            assert_eq!(
                view.kernel().infer_traced(&pixels),
                netpu_nn::reference::infer_traced(model, &pixels),
                "model {k} {mode:?}"
            );
        }
    }
    // XNOR rows, bipolar 1-bit fields, 8-bit lanes of promoted ±1 and
    // of multi-bit weights, and dense multi-bit fields.
    for field in ["Xnor", "Bipolar", "Signed { width: 8, bits: 8 }"] {
        assert!(fields.contains(field), "{field} not covered: {fields:?}");
    }
    assert!(fields.len() >= 5, "{fields:?}");
}

#[test]
fn the_view_rejects_corrupt_streams_like_decode() {
    let model = ZooModel::TfcW1A1
        .build_untrained(4, BnMode::Folded)
        .unwrap();
    let loadable = compile(&model, &sample_pixels(4, model.input.len)).unwrap();
    let view = |words: &[u64]| StreamView::new(words.into()).err();
    let mut bad = loadable.words.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(view(&bad), Some(StreamError::BadHeader(_))));
    assert_eq!(view(&bad), decode(&bad).err());
    for (_, _, range) in &loadable.layout.sections {
        let truncated = &loadable.words[..range.start.min(loadable.len() - 1)];
        assert!(matches!(
            view(truncated),
            Some(StreamError::Truncated { .. })
        ));
        assert_eq!(view(truncated), decode(truncated).err());
    }
}

#[test]
fn decode_rejects_bad_layer_sequences() {
    let model = ZooModel::TfcW1A1
        .build_untrained(6, BnMode::Folded)
        .unwrap();
    let pixels = sample_pixels(6, model.input.len);
    let loadable = compile(&model, &pixels).unwrap();
    // Flip the first layer's type from Input to Hidden.
    let mut bad = loadable.words.clone();
    let idx = loadable.layout.settings.start;
    bad[idx] = (bad[idx] & !0b11) | 1;
    assert!(matches!(
        decode(&bad),
        Err(StreamError::BadLayerSequence) | Err(StreamError::Truncated { .. })
    ));
}

#[test]
fn compile_rejects_wrong_input_length() {
    let model = ZooModel::TfcW1A1
        .build_untrained(8, BnMode::Folded)
        .unwrap();
    assert!(matches!(
        compile(&model, &[0u8; 10]),
        Err(StreamError::InputLength {
            expected: 784,
            got: 10
        })
    ));
}

#[test]
fn settings_reflect_model_configuration() {
    let model = ZooModel::TfcW2A2
        .build_untrained(9, BnMode::Hardware)
        .unwrap();
    let settings = model_settings(&model);
    assert_eq!(settings.len(), 5);
    assert_eq!(settings[0].layer_type, LayerType::Input);
    assert_eq!(settings[0].neurons, 784);
    assert_eq!(settings[1].layer_type, LayerType::Hidden);
    assert!(!settings[1].bn_folded);
    assert_eq!(settings[1].neurons, 64);
    assert_eq!(settings[1].input_len, 784);
    assert_eq!(settings[4].layer_type, LayerType::Output);
    assert_eq!(settings[4].neurons, 10);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Round-trip holds for arbitrary inputs on a fixed model.
    #[test]
    fn roundtrip_arbitrary_pixels(seed in 0u64..1000) {
        let mut model = ZooModel::TfcW1A1.build_untrained(42, BnMode::Folded).unwrap();
        let pixels = sample_pixels(seed, model.input.len);
        let loadable = compile(&model, &pixels).unwrap();
        let decoded = decode(&loadable.words).unwrap();
        model.name = String::new();
        prop_assert_eq!(decoded.pixels, pixels);
        prop_assert_eq!(decoded.model, model);
    }

    /// pack/unpack of 32-bit parameter pairs round-trips.
    #[test]
    fn u32_pair_packing_roundtrips(vals in proptest::collection::vec(any::<u32>(), 0..50)) {
        let words = stream::pack_u32_pairs(&vals);
        prop_assert_eq!(words.len(), vals.len().div_ceil(2));
        prop_assert_eq!(stream::unpack_u32_pairs(&words, vals.len()), vals);
    }
}

proptest! {
    /// Layer-setting decode terminates with Ok or a typed error on any
    /// 64-bit word — never a panic.
    #[test]
    fn setting_decode_never_panics(word in any::<u64>()) {
        let _ = netpu_compiler::LayerSetting::decode(word);
    }

    /// The `.npu` container parser terminates on arbitrary bytes.
    #[test]
    fn container_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = netpu_compiler::Loadable::from_bytes(&bytes);
    }
}
