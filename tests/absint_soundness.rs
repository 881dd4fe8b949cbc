//! Differential soundness of the range analyzer (DESIGN.md §4.4).
//!
//! The abstract interpreter promises *sound* intervals: every value the
//! datapath actually produces must land inside the proved per-neuron
//! bound. A sampling [`Observer`] records every intermediate accumulator,
//! post-BN word, activation level, and output score; this suite replays
//! probed runs for the whole model zoo and 1000+ random models and
//! asserts zero out-of-interval observations.
//!
//! It also pins the admission consequence: a stream whose worst-case
//! prefix sums provably exceed the configured accumulator (NPC014) is
//! refused by `Driver::run` and by `netpu-serve` admission — while a
//! lenient driver still runs it, because the simulator completes.

use netpu_arith::{Fix, Precision, QuantParams};
use netpu_check::{analyze, RangeAnalysis, RuleId, Tiers};
use netpu_compiler::compile;
use netpu_core::netpu::run_inference_observed;
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::qmodel::{BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp};
use netpu_nn::zoo::ZooModel;
use netpu_runtime::{Driver, DriverError, InferRequest};
use netpu_serve::{Server, ServerConfig, Submit};
use netpu_sim::{Observer, ProbeSample, ProbeStage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts every probed sample lies inside its proved interval.
fn assert_samples_bounded(samples: &[ProbeSample], analysis: &RangeAnalysis, tag: &str) {
    for s in samples {
        let nb = &analysis.layers[s.layer].neurons[s.neuron];
        let (bound, what) = match s.stage {
            ProbeStage::Accumulator => (
                nb.acc.map(|(lo, hi)| (i64::from(lo), i64::from(hi))),
                "accumulator",
            ),
            ProbeStage::PostBn => (nb.post_bn, "post-BN"),
            ProbeStage::Level => (
                nb.level.map(|(lo, hi)| (i64::from(lo), i64::from(hi))),
                "level",
            ),
            ProbeStage::Score => (nb.score, "score"),
        };
        let Some((lo, hi)) = bound else {
            panic!(
                "{tag}: layer {} neuron {} has a probed {what} sample but no proved bound",
                s.layer, s.neuron
            );
        };
        assert!(
            lo <= s.value && s.value <= hi,
            "{tag}: layer {} neuron {} {what} = {} escapes proved [{lo}, {hi}]",
            s.layer,
            s.neuron,
            s.value
        );
    }
}

/// Probes one run of `words` and checks it against the analysis.
fn assert_sound(words: &[u64], cfg: &HwConfig, tag: &str) {
    let analyzed = analyze(words, cfg, Tiers::default());
    let analysis = analyzed.range.unwrap_or_else(|| {
        panic!(
            "{tag}: structurally rejected, no analysis:\n{}",
            analyzed.report
        );
    });
    let mut probe = Observer::new(0, true);
    let run = run_inference_observed(cfg, words.to_vec(), &mut probe)
        .unwrap_or_else(|e| panic!("{tag}: simulator failed: {e}"));
    assert!(!probe.samples().is_empty(), "{tag}: probe recorded nothing");
    assert_samples_bounded(probe.samples(), &analysis, tag);
    // The winning score itself is a Score-stage sample, so it must also
    // sit inside the output layer's proved interval.
    let out = analysis.layers.len() - 1;
    let (lo, hi) = analysis.layers[out].neurons[run.class]
        .score
        .expect("output neurons always have score bounds");
    assert!(lo <= run.score.raw() && run.score.raw() <= hi);
}

#[test]
fn zoo_probed_runs_stay_inside_proved_bounds() {
    let cfg = HwConfig::paper_instance();
    for model in ZooModel::ALL {
        for bn in [BnMode::Folded, BnMode::Hardware] {
            let mlp = model.build_untrained(11, bn).unwrap();
            let mut rng = StdRng::seed_from_u64(17);
            let pixels: Vec<u8> = (0..mlp.input.len).map(|_| rng.gen()).collect();
            let loadable = compile(&mlp, &pixels).unwrap();
            assert_sound(&loadable.words, &cfg, &format!("{model:?}/{bn:?}"));
        }
    }
}

/// Deterministically builds a random-but-valid model from a seed — the
/// same construction as `tests/random_models.rs`, kept small so a
/// thousand probed runs stay fast.
fn build_model(seed: u64, input_len: usize, hidden_layers: usize, width: usize) -> QuantMlp {
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
        let out = prev_prec;
        let activation = if out.is_binary() {
            LayerActivation::Sign {
                thresholds: (0..width)
                    .map(|_| Fix::from_i32(rng.gen_range(-20..20)))
                    .collect(),
            }
        } else if rng.gen_bool(0.3) {
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
    let classes = 3;
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
        name: String::new(),
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
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// ≥1000 random streams: zero out-of-interval observations.
    #[test]
    fn random_probed_runs_stay_inside_proved_bounds(
        seed in 0u64..100_000,
        input_len in 4usize..24,
        hidden_layers in 1usize..4,
        width in 2usize..12,
        px_seed in 0u64..1_000,
    ) {
        let model = build_model(seed, input_len, hidden_layers, width);
        prop_assert!(model.validate().is_ok(), "generated model invalid");
        let mut rng = StdRng::seed_from_u64(px_seed);
        let pixels: Vec<u8> = (0..input_len).map(|_| rng.gen()).collect();
        let loadable = compile(&model, &pixels).unwrap();
        assert_sound(
            &loadable.words,
            &HwConfig::paper_instance(),
            &format!("random seed {seed}/{px_seed}"),
        );
    }
}

#[test]
fn narrow_accumulator_streams_are_refused_at_admission() {
    let model = ZooModel::TfcW2A2
        .build_untrained(7, BnMode::Folded)
        .unwrap();
    let loadable = compile(&model, &vec![0u8; 784]).unwrap();
    let hw = HwConfig {
        accumulator_bits: 8,
        ..HwConfig::paper_instance()
    };

    // Driver admission: strict (the default) refuses with the range
    // finding, before any simulation or DMA time is spent.
    let strict = Driver::builder().hw(hw).build();
    let err = strict
        .run(InferRequest::loadable(loadable.clone()))
        .unwrap_err();
    let DriverError::Rejected(reason) = err else {
        panic!("expected a pre-flight rejection, got {err}");
    };
    assert_eq!(reason.code(), "INVALID_STREAM");
    let report = reason
        .report()
        .expect("INVALID_STREAM carries the report")
        .clone();
    assert!(report.fired(RuleId::Npc014));
    assert!(report.has_range_errors() && !report.has_structural_errors());

    // A lenient driver runs the same stream: the simulator completes,
    // the finding is about provable numeric unsafety, not a crash.
    let lenient = Driver::builder().hw(hw).strict_range(false).build();
    lenient
        .run(InferRequest::loadable(loadable.clone()))
        .expect("lenient drivers admit range-unsound streams");

    // Serve admission mirrors the driver's strict default.
    let server = Server::start(Driver::builder().hw(hw).build(), ServerConfig::default());
    match server.submit(InferRequest::loadable(loadable)) {
        Submit::Denied(reason) => {
            let report = reason.report().expect("denial carries the verifier report");
            assert!(report.fired(RuleId::Npc014) && report.has_range_errors());
            assert!(
                reason.rules().iter().any(|(r, _)| *r == RuleId::Npc014),
                "the unified reason should surface NPC014: {:?}",
                reason.rules()
            );
        }
        other => panic!("expected Submit::Denied, got {other:?}"),
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.range_flagged, 1);
    assert_eq!(metrics.range_rejected, 1);
}
