//! One accepting and one rejecting fixture per `NPC` rule ID.

use netpu_arith::{Fix, Precision, QuantParams};
use netpu_check::{analyze, certify, check, timing, Report, RuleId, StreamTiming, TimingSpec};
use netpu_compiler::{compile, compile_packed, Loadable, PackingMode, SectionKind};
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::qmodel::{BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp};
use netpu_nn::zoo::ZooModel;

fn cfg() -> HwConfig {
    HwConfig::paper_instance()
}

fn tfc(bn: BnMode) -> Loadable {
    let model = ZooModel::TfcW2A2.build_untrained(7, bn).unwrap();
    compile(&model, &vec![0u8; 784]).unwrap()
}

fn rep(words: &[u64]) -> Report {
    analyze(words, &cfg(), Default::default()).report
}

/// The four-tier check: the findings plus the timing certificate.
fn timed(words: &[u64], cfg: &HwConfig, spec: &TimingSpec) -> (Report, Option<StreamTiming>) {
    let mut a = analyze(words, cfg, Default::default());
    if let Some(t) = &a.timing {
        timing::report_timing(t, cfg, spec, &mut a.report);
    }
    (a.report, a.timing)
}

/// Word range of a layer's section in the stream, via the (trusted in
/// tests only) host-side layout.
fn section(l: &Loadable, kind: SectionKind, layer: usize) -> std::ops::Range<usize> {
    l.layout
        .sections
        .iter()
        .find(|(k, lay, _)| *k == kind && *lay == layer)
        .map(|(_, _, r)| r.clone())
        .unwrap()
}

#[test]
fn npc001_header_magic_and_version() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc001));

    let mut bad = l.words.clone();
    bad[0] ^= 1; // magic bit
    let r = rep(&bad);
    assert!(r.has_errors() && r.fired(RuleId::Npc001));

    let mut bad = l.words.clone();
    bad[0] ^= 1 << 16; // version bit
    assert!(rep(&bad).fired(RuleId::Npc001));
}

#[test]
fn npc002_layer_count_and_sequence() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc002));

    // Count of 1 layer.
    let mut bad = l.words.clone();
    bad[0] = (bad[0] & !(0xFFFFu64 << 24)) | (1u64 << 24);
    let r = rep(&bad);
    assert!(r.has_errors() && r.fired(RuleId::Npc002));

    // A hidden layer claiming to be an Output.
    let mut bad = l.words.clone();
    bad[2] = (bad[2] & !0b11u64) | 2;
    let r = rep(&bad);
    assert!(r.has_errors() && r.fired(RuleId::Npc002));
}

#[test]
fn npc003_setting_decode() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc003));

    // Invalid activation selector 0b111 on the first hidden layer.
    let mut bad = l.words.clone();
    bad[2] |= 0b111 << 2;
    let r = rep(&bad);
    assert!(r.has_errors() && r.fired(RuleId::Npc003));
}

#[test]
fn npc004_shape_chain() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc004));

    // Nudge the first hidden layer's input length off by one.
    let mut bad = l.words.clone();
    bad[2] ^= 1u64 << 32;
    let r = rep(&bad);
    assert!(r.has_errors() && r.fired(RuleId::Npc004));
}

#[test]
fn npc005_exact_length() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc005));

    // Truncation is an error: the accelerator deadlocks waiting.
    let r = rep(&l.words[..l.words.len() - 3]);
    assert!(r.has_errors() && r.fired(RuleId::Npc005));

    // Trailing garbage is an error: the accelerator parses the word
    // past the layout end as the next burst segment's header and
    // rejects it (`BadHeader`), so admission must too. The stream
    // fuzzer found the older, warning-only behavior as a false accept.
    let mut long = l.words.clone();
    long.push(0xDEAD);
    let r = rep(&long);
    assert!(r.has_errors() && r.fired(RuleId::Npc001));
    let bad_magic_at = l.words.len() * 8;
    assert!(
        r.errors().any(|d| d.byte_offset == Some(bad_magic_at)),
        "the rejection should point at the bogus second header"
    );

    // A legitimate burst — two well-formed loadables back to back — is
    // exactly what the accelerator consumes in batch mode: clean.
    let mut burst = l.words.clone();
    burst.extend_from_slice(&l.words);
    let r = rep(&burst);
    assert!(!r.has_errors(), "{r}");
    assert!(!r.fired(RuleId::Npc005));
}

#[test]
fn npc006_packing_flag() {
    let model = ZooModel::TfcW2A2
        .build_untrained(7, BnMode::Folded)
        .unwrap();
    let dense = compile_packed(&model, &vec![0u8; 784], PackingMode::Dense).unwrap();

    // The paper instance has no dense unpack logic: reject.
    let r = check(&dense, &cfg());
    assert!(r.has_errors() && r.fired(RuleId::Npc006));

    // A dense-capable instance accepts the same stream.
    let dense_cfg = HwConfig {
        dense_weight_packing: true,
        ..cfg()
    };
    assert!(!check(&dense, &dense_cfg).fired(RuleId::Npc006));
    assert!(!check(&dense, &dense_cfg).has_errors());
}

#[test]
fn npc007_threshold_monotonicity() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc007));

    // W2A2 hidden layers use Multi-Threshold (3 thresholds/neuron).
    // The params section starts with ceil(64/8) = 8 bias words; the
    // first activation word carries neuron 0's thresholds t0, t1.
    let params = section(&l, SectionKind::Params, 1);
    let mut bad = l.words.clone();
    bad[params.start + 8] = 100; // t0 = 100, t1 = 0: out of order
    let r = rep(&bad);
    assert!(!r.has_errors() && r.fired(RuleId::Npc007));
}

#[test]
fn npc008_bn_scale() {
    let l = tfc(BnMode::Hardware);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc008));

    // Zero the Q16.16 scale of the first hidden layer's neuron 0.
    let params = section(&l, SectionKind::Params, 1);
    let mut bad = l.words.clone();
    bad[params.start] &= !0xFFFF_FFFFu64;
    let r = rep(&bad);
    assert!(!r.has_errors() && r.fired(RuleId::Npc008));
}

#[test]
fn npc009_weight_packing() {
    // TFC-W1A1 hidden rows are 784 XNOR channels: 12×64 + 16, leaving
    // 48 padding bits in the 13th word of every neuron row.
    let model = ZooModel::TfcW1A1
        .build_untrained(7, BnMode::Folded)
        .unwrap();
    let l = compile(&model, &vec![0u8; 784]).unwrap();
    assert!(!check(&l, &cfg()).fired(RuleId::Npc009));

    let weights = section(&l, SectionKind::Weights, 1);
    let mut bad = l.words.clone();
    bad[weights.start + 12] |= 1u64 << 63;
    let r = rep(&bad);
    assert!(!r.has_errors() && r.fired(RuleId::Npc009));
}

#[test]
fn npc010_zero_width_layer() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc010));

    // Zero the output layer's class count.
    let n = l.layout.settings.len();
    let mut bad = l.words.clone();
    bad[n] &= !(0x3FFFu64 << 16);
    let r = rep(&bad);
    assert!(r.has_errors() && r.fired(RuleId::Npc010));
}

#[test]
fn npc011_config_feasibility() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc011));

    // Structurally invalid: one LPU cannot consume the interleave.
    let bad_cfg = HwConfig { lpus: 1, ..cfg() };
    let r = check(&l, &bad_cfg);
    assert!(r.has_errors() && r.fired(RuleId::Npc011));

    // Structurally valid but far past the Ultra96 envelope: warning.
    let huge = HwConfig {
        lpus: 8,
        tnpus_per_lpu: 64,
        ..cfg()
    };
    let r = check(&l, &huge);
    assert!(!r.has_errors() && r.fired(RuleId::Npc011));
}

/// A minimal model exercising the QUAN (ReLU) datapath.
fn relu_model() -> QuantMlp {
    let quant = QuantParams {
        scale: Fix::ONE,
        offset: Fix::ZERO,
    };
    QuantMlp {
        name: String::new(),
        input: InputLayer {
            len: 8,
            out_precision: Precision::W4,
            activation: LayerActivation::Relu { quant },
        },
        hidden: vec![HiddenLayer {
            in_len: 8,
            neurons: 4,
            weight_precision: Precision::W4,
            in_precision: Precision::W4,
            out_precision: Precision::W4,
            weights: vec![1; 32],
            bias: Some(vec![0; 4]),
            bn: None,
            activation: LayerActivation::Relu { quant },
        }],
        output: OutputLayer {
            in_len: 4,
            neurons: 2,
            weight_precision: Precision::W4,
            in_precision: Precision::W4,
            weights: vec![1; 8],
            bias: Some(vec![0; 2]),
            bn: None,
        },
    }
}

#[test]
fn npc012_quan_uniformity() {
    let l = compile(&relu_model(), &[0u8; 8]).unwrap();
    assert!(!check(&l, &cfg()).fired(RuleId::Npc012));

    // Hidden params: ceil(4/8) = 1 bias word, then per-neuron QUAN
    // pairs one word each. Skew neuron 1's pair.
    let params = section(&l, SectionKind::Params, 1);
    let mut bad = l.words.clone();
    bad[params.start + 2] ^= 0xFF;
    let r = rep(&bad);
    assert!(!r.has_errors() && r.fired(RuleId::Npc012));
}

#[test]
fn npc013_multithreshold_cap() {
    let l = tfc(BnMode::Folded); // 2-bit Multi-Threshold activations
    assert!(!check(&l, &cfg()).fired(RuleId::Npc013));

    let capped = HwConfig {
        max_multithreshold_bits: 1,
        ..cfg()
    };
    let r = check(&l, &capped);
    assert!(!r.has_errors() && r.fired(RuleId::Npc013));
}

#[test]
fn npc014_accumulator_overflow() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc014));

    // The same stream against an instance generated with an accumulator
    // too narrow for the layer's worst-case prefix sums.
    let narrow = HwConfig {
        accumulator_bits: 8,
        ..cfg()
    };
    let r = check(&l, &narrow);
    assert!(r.has_errors() && r.fired(RuleId::Npc014));
    assert!(r.has_range_errors() && !r.has_structural_errors());
}

/// A hardware-BN model with a wide accumulator range (784 × weight 7 ×
/// level 15) so a large BN scale can push the post stages to their
/// limits.
fn bn_model(scale_q16: i32) -> QuantMlp {
    let quant = QuantParams {
        scale: Fix::ONE,
        offset: Fix::ZERO,
    };
    let bn = BnParams {
        scale_q16,
        offset: Fix::ZERO,
    };
    QuantMlp {
        name: String::new(),
        input: InputLayer {
            len: 784,
            out_precision: Precision::W4,
            activation: LayerActivation::Relu { quant },
        },
        hidden: vec![HiddenLayer {
            in_len: 784,
            neurons: 2,
            weight_precision: Precision::W4,
            in_precision: Precision::W4,
            out_precision: Precision::W4,
            weights: vec![7; 784 * 2],
            bias: None,
            bn: Some(vec![bn; 2]),
            activation: LayerActivation::Relu { quant },
        }],
        output: OutputLayer {
            in_len: 2,
            neurons: 2,
            weight_precision: Precision::W4,
            in_precision: Precision::W4,
            weights: vec![1; 4],
            bias: Some(vec![0; 2]),
            bn: None,
        },
    }
}

#[test]
fn npc015_bn_saturation_reachable() {
    // Identity scale: the BN stage stays far from the Q32.5 limits.
    let l = compile(&bn_model(1 << 16), &vec![0u8; 784]).unwrap();
    assert!(!check(&l, &cfg()).fired(RuleId::Npc015));

    // A near-maximal Q16.16 scale drives the unsaturated BN image past
    // the Q32.5 range for the worst-case accumulator.
    let l = compile(&bn_model(i32::MAX), &vec![0u8; 784]).unwrap();
    assert!(check(&l, &cfg()).fired(RuleId::Npc015));
}

#[test]
fn npc018_bn_exceeds_comparator_range() {
    let l = compile(&bn_model(1 << 16), &vec![0u8; 784]).unwrap();
    assert!(!check(&l, &cfg()).fired(RuleId::Npc018));

    let l = compile(&bn_model(i32::MAX), &vec![0u8; 784]).unwrap();
    let r = check(&l, &cfg());
    assert!(r.has_errors() && r.fired(RuleId::Npc018));
    assert!(r.has_range_errors());
}

#[test]
fn npc016_dead_threshold_neuron() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc016));

    // Raise neuron 0's three Multi-Threshold levels far above anything
    // the accumulator can reach: the neuron's output collapses. The
    // params section starts with ceil(64/8) = 8 bias words; the first
    // two activation words carry neuron 0's thresholds (t0, t1) and
    // (t2, neuron 1's t0). Equal thresholds keep NPC007 satisfied.
    let params = section(&l, SectionKind::Params, 1);
    let mut bad = l.words.clone();
    bad[params.start + 8] = 0x7FFF_FFFF_7FFF_FFFF;
    bad[params.start + 9] = (bad[params.start + 9] & !0xFFFF_FFFF) | 0x7FFF_FFFF;
    let r = rep(&bad);
    assert!(r.fired(RuleId::Npc016));
}

#[test]
fn npc017_constant_output_channel() {
    let l = compile(&relu_model(), &[0u8; 8]).unwrap();
    assert!(!check(&l, &cfg()).fired(RuleId::Npc017));

    // All-zero weights with a zero bias: every QUAN channel is stuck at
    // one value regardless of the input.
    let mut dead = relu_model();
    dead.hidden[0].weights = vec![0; 32];
    let l = compile(&dead, &[0u8; 8]).unwrap();
    let r = check(&l, &cfg());
    assert!(!r.has_structural_errors() && r.fired(RuleId::Npc017));
}

#[test]
fn npc019_provably_narrowable_accumulator() {
    // Both FC layers peak at exactly 120 = 8 signed bits.
    let mut m = relu_model();
    m.output.weights = vec![2; 8];
    let l = compile(&m, &[0u8; 8]).unwrap();

    // The paper instance's 32-bit accumulator is provably oversized:
    // advisory only, never a rejection.
    let r = check(&l, &cfg());
    assert!(!r.has_errors() && r.fired(RuleId::Npc019));

    // An instance generated at the proved width gets no advisory.
    let tight = HwConfig {
        accumulator_bits: 8,
        ..cfg()
    };
    let r = check(&l, &tight);
    assert!(!r.fired(RuleId::Npc019) && !r.fired(RuleId::Npc014));
}

#[test]
fn npc020_declared_input_range() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc020));

    // An empty declared interval is rejected outright.
    let mut bad = l.clone();
    bad.set_declared_input_range(10, 5);
    let r = check(&bad, &cfg());
    assert!(r.has_errors() && r.fired(RuleId::Npc020));

    // A claim that fails to cover the stream's own (all-zero) pixels.
    let mut bad = l.clone();
    bad.set_declared_input_range(1, 5);
    let r = check(&bad, &cfg());
    assert!(r.has_errors() && r.fired(RuleId::Npc020));
}

#[test]
fn npc021_shape_and_semantics_against_claimed_source() {
    let model = ZooModel::TfcW2A2
        .build_untrained(7, BnMode::Folded)
        .unwrap();
    let l = compile(&model, &vec![0u8; 784]).unwrap();
    assert!(!certify(&model, &l.words, &cfg())
        .report
        .fired(RuleId::Npc021));

    // A stream compiled from a differently-shaped model.
    let other = ZooModel::SfcW1A1
        .build_untrained(7, BnMode::Folded)
        .unwrap();
    let forged = compile(&other, &vec![0u8; 784]).unwrap();
    let outcome = certify(&model, &forged.words, &cfg());
    assert!(outcome.report.has_errors() && outcome.report.fired(RuleId::Npc021));
    assert!(outcome.certificate.is_none());
}

#[test]
fn npc022_output_inequivalence_with_witness() {
    let model = ZooModel::TfcW1A1
        .build_untrained(11, BnMode::Folded)
        .unwrap();
    let l = compile(&model, &vec![0u8; 784]).unwrap();
    assert!(!certify(&model, &l.words, &cfg())
        .report
        .fired(RuleId::Npc022));

    // Swap the first adjacent differing weight pair in hidden layer 0:
    // same multiset of weights, a different function.
    let mut mutated = model.clone();
    let w = &mut mutated.hidden[0].weights;
    let i = (0..w.len() - 1).find(|&i| w[i] != w[i + 1]).unwrap();
    w.swap(i, i + 1);
    let forged = compile(&mutated, &vec![0u8; 784]).unwrap();
    let outcome = certify(&model, &forged.words, &cfg());
    assert!(outcome.report.has_errors() && outcome.report.fired(RuleId::Npc022));
    assert!(!outcome.is_equivalent());
}

/// A fully-binary model with every hidden Sign threshold at `thresh`.
/// With bipolar ±1 inputs the reachable accumulators are integers, so
/// any two thresholds in the same open unit interval encode the same
/// step function.
fn sign_model(thresh: Fix) -> QuantMlp {
    let weights: Vec<i8> = (0..32).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect();
    QuantMlp {
        name: String::new(),
        input: InputLayer {
            len: 8,
            out_precision: Precision::W1,
            activation: LayerActivation::Sign {
                thresholds: vec![Fix::from_i32(128); 8],
            },
        },
        hidden: vec![HiddenLayer {
            in_len: 8,
            neurons: 4,
            weight_precision: Precision::W1,
            in_precision: Precision::W1,
            out_precision: Precision::W1,
            weights,
            bias: Some(vec![0; 4]),
            bn: None,
            activation: LayerActivation::Sign {
                thresholds: vec![thresh; 4],
            },
        }],
        output: OutputLayer {
            in_len: 4,
            neurons: 2,
            weight_precision: Precision::W1,
            in_precision: Precision::W1,
            weights: vec![1, 1, 1, -1, -1, 1, 1, 1],
            bias: Some(vec![0; 2]),
            bn: None,
        },
    }
}

#[test]
fn npc023_fold_drift_without_reachable_divergence() {
    let half = Fix::from_f64(0.5);
    let source = sign_model(half);
    let l = compile(&source, &[0u8; 8]).unwrap();
    assert!(!certify(&source, &l.words, &cfg())
        .report
        .fired(RuleId::Npc023));

    // Nudge every hidden threshold by one raw ULP: still strictly
    // inside (0, 1), so no integer accumulator distinguishes the
    // encodings — drift, not inequivalence.
    let drifted = sign_model(half.sat_add(Fix::EPSILON));
    let forged = compile(&drifted, &[0u8; 8]).unwrap();
    let outcome = certify(&source, &forged.words, &cfg());
    assert!(outcome.report.fired(RuleId::Npc023), "{}", outcome.report);
    assert!(!outcome.report.fired(RuleId::Npc022));
    assert!(outcome.is_equivalent() && !outcome.report.has_errors());
}

#[test]
fn npc024_weight_row_permutation() {
    let model = ZooModel::TfcW1A1
        .build_untrained(13, BnMode::Folded)
        .unwrap();
    let l = compile(&model, &vec![0u8; 784]).unwrap();
    assert!(!certify(&model, &l.words, &cfg())
        .report
        .fired(RuleId::Npc024));

    // Swap hidden neurons 0 and 1 wholesale — rows, biases, thresholds:
    // a packing-order bug, not a weight corruption.
    let mut mutated = model.clone();
    let h = &mut mutated.hidden[0];
    for i in 0..h.in_len {
        h.weights.swap(i, h.in_len + i);
    }
    if let Some(b) = h.bias.as_mut() {
        b.swap(0, 1);
    }
    if let LayerActivation::Sign { thresholds } = &mut h.activation {
        thresholds.swap(0, 1);
    }
    let forged = compile(&mutated, &vec![0u8; 784]).unwrap();
    let outcome = certify(&model, &forged.words, &cfg());
    assert!(outcome.report.has_errors() && outcome.report.fired(RuleId::Npc024));
}

#[test]
fn npc025_provably_dead_output_slice() {
    let l = compile(&relu_model(), &[0u8; 8]).unwrap();
    assert!(!certify(&relu_model(), &l.words, &cfg())
        .report
        .fired(RuleId::Npc025));

    // Class 0's bias pushes its minimum score above class 1's maximum
    // (output accumulators span [0, 60]): MaxOut can never pick 1.
    let mut dead = relu_model();
    dead.output.bias = Some(vec![100, 0]);
    let l = compile(&dead, &[0u8; 8]).unwrap();
    let outcome = certify(&dead, &l.words, &cfg());
    assert!(outcome.report.fired(RuleId::Npc025), "{}", outcome.report);
    assert!(
        outcome.is_equivalent(),
        "a dead class is a warning, not a rejection"
    );
}

#[test]
fn npc026_exact_minimal_accumulator_width() {
    // relu_model peaks at 120 = exactly 8 signed bits; the paper
    // instance's 32-bit accumulator earns the informational finding.
    let l = compile(&relu_model(), &[0u8; 8]).unwrap();
    let outcome = certify(&relu_model(), &l.words, &cfg());
    assert!(outcome.report.fired(RuleId::Npc026), "{}", outcome.report);
    assert!(!outcome.report.has_errors());
    assert_eq!(outcome.certificate.unwrap().min_accumulator_bits, 8);

    // An instance generated at the proved width gets nothing to note.
    let tight = HwConfig {
        accumulator_bits: 8,
        ..cfg()
    };
    assert!(!certify(&relu_model(), &l.words, &tight)
        .report
        .fired(RuleId::Npc026));
}

#[test]
fn npc027_exact_cycle_certificate() {
    let l = tfc(BnMode::Folded);
    // The timing tier is opt-in: the two-tier check never emits it.
    assert!(!check(&l, &cfg()).fired(RuleId::Npc027));

    let (r, t) = timed(&l.words, &cfg(), &TimingSpec::default());
    assert!(r.fired(RuleId::Npc027), "{r}");
    assert!(!r.has_errors());
    let t = t.expect("structurally sound stream gets a certificate");
    assert_eq!(
        Some(t.total_cycles()),
        netpu_check::predict_cycles(&l.words, &cfg())
    );
}

#[test]
fn npc028_per_layer_bottleneck_attribution() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc028));

    let (r, t) = timed(&l.words, &cfg(), &TimingSpec::default());
    assert!(r.fired(RuleId::Npc028), "{r}");
    assert!(!r.has_errors());
    // Every decoded layer has a dominant phase to attribute.
    assert!(!t.expect("certificate").breakdown.layers.is_empty());
}

#[test]
fn npc029_folding_slack() {
    // A 9-TNPU folding against 8-neuron layers: the ninth TNPU can
    // never receive work, so the 8-TNPU sub-folding provably meets the
    // identical cycle count with less fabric.
    let l = compile(&relu_model(), &[0u8; 8]).unwrap();
    let oversized = HwConfig {
        tnpus_per_lpu: 9,
        ..cfg()
    };
    let (r, _) = timed(&l.words, &oversized, &TimingSpec::default());
    assert!(r.fired(RuleId::Npc029), "{r}");
    assert!(!r.has_errors());

    // The fully serialized folding has no sub-folding to fall back to,
    // so there is never slack to report.
    let tight = HwConfig {
        tnpus_per_lpu: 1,
        mul_lanes: 1,
        ..cfg()
    };
    let (r, _) = timed(&l.words, &tight, &TimingSpec::default());
    assert!(!r.fired(RuleId::Npc029), "{r}");
}

#[test]
fn npc030_deadline_infeasibility() {
    let l = tfc(BnMode::Folded);
    let generous = TimingSpec {
        deadline_us: Some(1e9),
        ..TimingSpec::default()
    };
    let (r, _) = timed(&l.words, &cfg(), &generous);
    assert!(!r.fired(RuleId::Npc030));
    assert!(!r.has_errors());

    // A 1 us deadline is below even the bare stream-transfer time.
    let harsh = TimingSpec {
        deadline_us: Some(1.0),
        ..TimingSpec::default()
    };
    let (r, t) = timed(&l.words, &cfg(), &harsh);
    assert!(r.fired(RuleId::Npc030), "{r}");
    assert!(r.has_errors() && r.has_timing_errors());
    assert!(
        !r.has_structural_errors(),
        "timing errors are their own admission family"
    );
    assert!(t.is_some(), "the certificate is still derived");
}

#[test]
fn npc031_dma_vs_compute_classification() {
    let l = tfc(BnMode::Folded);
    assert!(!check(&l, &cfg()).fired(RuleId::Npc031));

    let (r, t) = timed(&l.words, &cfg(), &TimingSpec::default());
    assert!(r.fired(RuleId::Npc031), "{r}");
    assert!(!r.has_errors());
    // The fired classification matches the certificate's predicate.
    let spec = TimingSpec::default();
    let class = if t
        .expect("certificate")
        .dma_bound(&spec.dma, cfg().clock_mhz)
    {
        "DMA-bound"
    } else {
        "compute-bound"
    };
    assert!(format!("{r}").contains(class), "{r}");
}

#[test]
fn diagnostics_carry_locations_and_render() {
    let l = tfc(BnMode::Folded);
    let mut bad = l.words.clone();
    bad[2] |= 0b111 << 2;
    let r = rep(&bad);
    let d = r.errors().next().unwrap();
    assert_eq!(d.byte_offset, Some(16));
    assert_eq!(d.layer, Some(1));
    let text = format!("{r}");
    assert!(text.contains("NPC003") && text.contains("@0x10"));
    assert_eq!(RuleId::Npc003.id(), "NPC003");
    assert!(!RuleId::Npc003.invariant().is_empty());
}

#[test]
fn clean_report_renders_clean() {
    let r = check(&tfc(BnMode::Folded), &cfg());
    assert!(r.is_clean() || !r.has_errors());
    assert_eq!(format!("{}", Report::default()), "clean");
}
