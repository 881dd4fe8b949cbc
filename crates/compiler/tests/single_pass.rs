//! The compiler's one pass per weight matrix: its weight sections equal
//! an independent per-weight packer, and an invalid model gets exactly
//! the error `QuantMlp::validate` (then the input-length check) gives.

use netpu_arith::{Fix, Precision};
use netpu_compiler::stream::{
    compile_packed, uses_xnor_path, weight_field_bits, PackingMode, StreamError,
};
use netpu_compiler::SectionKind;
use netpu_nn::export::BnMode;
use netpu_nn::qmodel::{BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer};
use netpu_nn::zoo::{random_model, ZooModel};
use netpu_nn::QuantMlp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODES: [PackingMode; 2] = [PackingMode::Lanes8, PackingMode::Dense];

/// FC layer `k`'s (1-based, as the stream counts) weights and fan-in.
fn fc(model: &QuantMlp, k: usize) -> (&[i8], usize) {
    match model.hidden.get(k - 1) {
        Some(h) => (&h.weights, h.in_len),
        None => (&model.output.weights, model.output.in_len),
    }
}

/// Every weight section of `model` under `mode`, packed one weight at a
/// time: an XNOR-path weight as the bit `w > 0`, any other into a field
/// of its setting's width at `width · (i mod per word)`, a 1-bit field
/// as `w > 0` and a wider one as the low bits of its two's complement.
/// Rows are padded to a word boundary.
fn reference_sections(model: &QuantMlp, mode: PackingMode) -> Vec<Vec<u64>> {
    let settings = netpu_compiler::stream::model_settings(model);
    (1..settings.len())
        .map(|k| {
            let s = &settings[k];
            let width = if uses_xnor_path(s) {
                1
            } else {
                weight_field_bits(s, mode) as usize
            };
            let per = 64 / width;
            let (weights, in_len) = fc(model, k);
            let mut words = Vec::new();
            for row in weights.chunks(in_len) {
                let mut packed = vec![0u64; in_len.div_ceil(per)];
                for (i, &w) in row.iter().enumerate() {
                    let field = if width == 1 {
                        u64::from(w > 0)
                    } else {
                        (w as u64) & ((1 << width) - 1)
                    };
                    packed[i / per] |= field << (width * (i % per));
                }
                words.extend(packed);
            }
            words
        })
        .collect()
}

/// The compiled weight sections of FC layers 1.., in layer order.
fn compiled_sections(model: &QuantMlp, mode: PackingMode) -> Vec<Vec<u64>> {
    let loadable = compile_packed(model, &vec![7u8; model.input.len], mode).unwrap();
    let mut sections: Vec<(usize, Vec<u64>)> = loadable
        .layout
        .sections
        .iter()
        .filter(|(kind, layer, _)| *kind == SectionKind::Weights && *layer > 0)
        .map(|(_, layer, range)| (*layer, loadable.words[range.clone()].to_vec()))
        .collect();
    sections.sort_by_key(|(layer, _)| *layer);
    sections.into_iter().map(|(_, words)| words).collect()
}

/// Thresholds for `neurons` rows of `out`: one Sign threshold each, or
/// a sorted Multi-Threshold row.
fn activation(rng: &mut StdRng, neurons: usize, out: Precision) -> LayerActivation {
    if out.is_binary() {
        return LayerActivation::Sign {
            thresholds: (0..neurons)
                .map(|_| Fix::from_i32(rng.gen_range(-20..20)))
                .collect(),
        };
    }
    let thresholds = (0..neurons)
        .flat_map(|_| {
            let mut row: Vec<i32> = (0..out.multi_threshold_count())
                .map(|_| rng.gen_range(-60..200))
                .collect();
            row.sort_unstable();
            row.into_iter().map(Fix::from_i32)
        })
        .collect();
    LayerActivation::MultiThreshold { thresholds }
}

/// A valid random model whose first FC layer has fan-in `fan_in` and
/// whose later fan-ins are drawn from the same straddling widths: XNOR
/// layers, ±1 weights promoted to the integer path, and 2/3/4/8-bit
/// weights (3 bits has no dense field and keeps 8-bit lanes).
fn model_with_fan_in(seed: u64, fan_in: usize) -> QuantMlp {
    let mut rng = StdRng::seed_from_u64(seed);
    let act = Precision::new([1u8, 2, 4][rng.gen_range(0..3usize)]).unwrap();
    let weights = |rng: &mut StdRng, n: usize, wp: Precision| -> Vec<i8> {
        (0..n)
            .map(|_| match wp.is_binary() {
                true => [1, -1][rng.gen_range(0..2usize)],
                false => rng.gen_range(wp.signed_min()..=wp.signed_max()),
            })
            .map(|w| w as i8)
            .collect()
    };
    let weight_precision = |rng: &mut StdRng| match act.is_binary() {
        true => Precision::W1,
        false => Precision::new([1u8, 2, 3, 4, 8][rng.gen_range(0..5usize)]).unwrap(),
    };
    let input = InputLayer {
        len: fan_in,
        out_precision: act,
        activation: activation(&mut rng, fan_in, act),
    };
    let mut hidden = Vec::new();
    let mut width = fan_in;
    for _ in 0..rng.gen_range(1..3) {
        let neurons = [1, 7, 63, 64, 65][rng.gen_range(0..5usize)];
        let wp = weight_precision(&mut rng);
        let folded = rng.gen_bool(0.5);
        hidden.push(HiddenLayer {
            in_len: width,
            neurons,
            weight_precision: wp,
            in_precision: act,
            out_precision: act,
            weights: weights(&mut rng, neurons * width, wp),
            bias: folded.then(|| (0..neurons).map(|_| rng.gen_range(-9..9)).collect()),
            bn: (!folded).then(|| vec![BnParams::IDENTITY; neurons]),
            activation: activation(&mut rng, neurons, act),
        });
        width = neurons;
    }
    let wp = weight_precision(&mut rng);
    let model = QuantMlp {
        name: format!("fan-in {fan_in} seed {seed}"),
        input,
        hidden,
        output: OutputLayer {
            in_len: width,
            neurons: 3,
            weight_precision: wp,
            in_precision: act,
            weights: weights(&mut rng, 3 * width, wp),
            bias: Some(vec![0, 1, -1]),
            bn: None,
        },
    };
    model.validate().unwrap();
    model
}

#[test]
fn weight_sections_equal_a_per_weight_packer() {
    let mut models = Vec::new();
    for zoo in [
        ZooModel::TfcW1A1,
        ZooModel::TfcW2A2,
        ZooModel::SfcW1A1,
        ZooModel::SfcW2A2,
        ZooModel::LfcW1A1,
        ZooModel::LfcW1A2,
    ] {
        for bn in [BnMode::Folded, BnMode::Hardware] {
            models.push(zoo.build_untrained(11, bn).unwrap());
        }
    }
    for (i, fan_in) in [1, 7, 63, 64, 65, 784].into_iter().enumerate() {
        models.extend((0..34).map(|s| model_with_fan_in(100 * i as u64 + s, fan_in)));
    }
    models.extend((0..40).map(random_model));
    for model in &models {
        for mode in MODES {
            assert_eq!(
                compiled_sections(model, mode),
                reference_sections(model, mode),
                "{} {mode:?}",
                model.name
            );
        }
    }
}

/// What the compiler must return for `model` and `pixels`: validation's
/// error, then the input-length check's.
fn oracle(model: &QuantMlp, pixels: &[u8]) -> Option<StreamError> {
    if let Err(e) = model.validate() {
        return Some(StreamError::InvalidModel(e));
    }
    (pixels.len() != model.input.len).then_some(StreamError::InputLength {
        expected: model.input.len,
        got: pixels.len(),
    })
}

fn assert_parity(model: &QuantMlp, pixels: &[u8], what: &str) -> Option<StreamError> {
    let want = oracle(model, pixels);
    for mode in MODES {
        let got = compile_packed(model, pixels, mode).err();
        assert_eq!(got, want, "{what} ({mode:?})");
    }
    want
}

#[test]
fn invalid_models_get_validations_error_in_its_order() {
    use netpu_nn::qmodel::ModelError::*;
    // Multi-bit and narrower than a byte: an `i8` weight can stray.
    let narrow = |m: &QuantMlp, k: usize| (2..8).contains(&m.hidden[k].weight_precision.bits());
    let base = (0..)
        .map(|s| model_with_fan_in(s, 65))
        .find(|m| narrow(m, 0))
        .unwrap();
    let pixels = vec![0u8; 65];
    let two_hidden = (0..)
        .map(|s| model_with_fan_in(s, 7))
        .find(|m| m.hidden.len() == 2 && narrow(m, 1))
        .unwrap();

    // A stray weight, then a later fault in the same layer: the weight
    // is reported.
    let mut m = base.clone();
    let stray = m.hidden[0].weight_precision.signed_max() + 1;
    let at = m.hidden[0].weights.len() / 2;
    m.hidden[0].weights[at] = stray as i8;
    m.hidden[0].bias = Some(vec![300; m.hidden[0].neurons]);
    m.hidden[0].bn = None;
    let want = Some(StreamError::InvalidModel(WeightRange {
        layer: 1,
        value: stray,
    }));
    assert_eq!(assert_parity(&m, &pixels, "stray then bias range"), want);
    m.hidden[0].bias = None;
    assert_eq!(assert_parity(&m, &pixels, "stray then no bias or BN"), want);
    // The fault alone.
    m.hidden[0].weights[at] = base.hidden[0].weights[at];
    m.hidden[0].bias = Some(vec![300; m.hidden[0].neurons]);
    assert!(matches!(
        assert_parity(&m, &pixels, "bias range"),
        Some(StreamError::InvalidModel(BiasRange { layer: 1, .. }))
    ));

    // A stray in layer 2, a dimension mismatch in layer 3, with and
    // without weights that fill the mismatched shape.
    let mut m = two_hidden.clone();
    let px = vec![0u8; m.input.len];
    m.hidden[1].weights[0] = 99;
    m.output.in_len += 1;
    let want = Some(StreamError::InvalidModel(WeightRange {
        layer: 2,
        value: 99,
    }));
    assert_eq!(assert_parity(&m, &px, "stray then short output"), want);
    m.output.weights = vec![0; m.output.neurons * m.output.in_len];
    assert_eq!(assert_parity(&m, &px, "stray then mismatched output"), want);
    m.hidden[1].weights[0] = 0;
    assert!(matches!(
        assert_parity(&m, &px, "mismatched output"),
        Some(StreamError::InvalidModel(DimensionMismatch {
            layer: 3,
            ..
        }))
    ));

    // A ±1 stray in an XNOR row's tail word (fan-in 65 = 64 + 1).
    let mut m = model_with_fan_in(3, 65);
    m.input.out_precision = Precision::W1;
    m.input.activation = LayerActivation::Sign {
        thresholds: vec![Fix::ZERO; 65],
    };
    for h in &mut m.hidden {
        h.in_precision = Precision::W1;
        h.out_precision = Precision::W1;
        h.weight_precision = Precision::W1;
        h.weights.iter_mut().for_each(|w| *w = 1);
        h.activation = LayerActivation::Sign {
            thresholds: vec![Fix::ZERO; h.neurons],
        };
    }
    m.output.in_precision = Precision::W1;
    m.output.weight_precision = Precision::W1;
    m.output.weights.iter_mut().for_each(|w| *w = -1);
    assert_eq!(assert_parity(&m, &pixels, "binary model"), None);
    m.hidden[0].weights[64] = 0;
    assert!(matches!(
        assert_parity(&m, &pixels, "XNOR tail stray"),
        Some(StreamError::InvalidModel(WeightRange {
            layer: 1,
            value: 0
        }))
    ));

    // Zero fan-in: valid when every width agrees, a mismatch otherwise.
    let mut m = base.clone();
    m.input.len = 0;
    m.input.activation = activation(&mut StdRng::seed_from_u64(1), 0, m.input.out_precision);
    m.hidden[0].in_len = 0;
    m.hidden[0].weights.clear();
    assert_eq!(assert_parity(&m, &[], "zero fan-in"), None);
    let mut m = base.clone();
    m.hidden[0].in_len = 0;
    m.hidden[0].weights.clear();
    assert!(matches!(
        assert_parity(&m, &pixels, "zero fan-in after 65 inputs"),
        Some(StreamError::InvalidModel(DimensionMismatch {
            layer: 1,
            ..
        }))
    ));

    // Weights shorter or longer than neurons × in_len.
    for delta in [-1i64, 1, -64, 64] {
        let mut m = base.clone();
        let len = m.hidden[0].weights.len() as i64 + delta;
        m.hidden[0].weights.resize(len as usize, 1);
        assert_eq!(
            assert_parity(&m, &pixels, &format!("{delta:+} weights")),
            Some(StreamError::InvalidModel(WeightShape { layer: 1 }))
        );
    }

    // Wider than the architecture, including a width no stream could
    // be sized for.
    for neurons in [9000, usize::MAX / 2] {
        let mut m = base.clone();
        m.hidden[0].neurons = neurons;
        assert!(matches!(
            assert_parity(&m, &pixels, "too wide"),
            Some(StreamError::InvalidModel(TooWide { layer: 1, .. }))
        ));
    }

    // A wrong pixel count: an invalid model reports the model, a valid
    // one the input length.
    let mut m = base.clone();
    m.hidden[0].weights[0] = 100;
    assert!(matches!(
        assert_parity(&m, &[0u8; 3], "short pixels, invalid model"),
        Some(StreamError::InvalidModel(WeightRange { value: 100, .. }))
    ));
    assert_eq!(
        assert_parity(&base, &[0u8; 3], "short pixels"),
        Some(StreamError::InputLength {
            expected: 65,
            got: 3
        })
    );
}
