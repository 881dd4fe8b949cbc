//! End-to-end accelerator tests: bit-exactness against the software
//! reference and structural latency properties.

use netpu_core::netpu::{run_inference, run_inference_fast};
use netpu_core::{HwConfig, LayerPhase, NetPuError};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_nn::{dataset, reference};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pixels(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dataset::IMAGE_PIXELS).map(|_| rng.gen()).collect()
}

/// The accelerator must agree with the bit-exact reference on class and
/// score for every model shape and BN mode.
#[test]
fn netpu_is_bit_exact_against_reference() {
    let cfg = HwConfig::paper_instance();
    for bn_mode in [BnMode::Folded, BnMode::Hardware] {
        for model_kind in [ZooModel::TfcW1A1, ZooModel::TfcW2A2] {
            let model = model_kind.build_untrained(11, bn_mode).unwrap();
            for seed in 0..5u64 {
                let px = pixels(seed);
                let loadable = netpu_compiler::compile(&model, &px).unwrap();
                let run = run_inference(&cfg, loadable.words).unwrap();
                let trace = reference::infer_traced(&model, &px);
                assert_eq!(
                    run.class, trace.class,
                    "{model_kind} {bn_mode:?} seed {seed}"
                );
                assert_eq!(
                    run.score, trace.scores[trace.class],
                    "{model_kind} {bn_mode:?} seed {seed} score"
                );
            }
        }
    }
}

/// A trained model keeps its accuracy when run through the accelerator.
#[test]
fn netpu_matches_reference_on_trained_model() {
    let (train_ds, test_ds) = dataset::easy_splits(400, 30, 5);
    let (_, model) = ZooModel::TfcW1A1
        .train(
            &train_ds,
            &netpu_nn::train::TrainConfig {
                epochs: 4,
                ..Default::default()
            },
            BnMode::Folded,
        )
        .unwrap();
    let cfg = HwConfig::paper_instance();
    for e in &test_ds.examples {
        let loadable = netpu_compiler::compile(&model, &e.pixels).unwrap();
        let run = run_inference(&cfg, loadable.words).unwrap();
        assert_eq!(run.class, reference::infer(&model, &e.pixels));
    }
}

/// Table V structure: latency ordering TFC < SFC, and binary (Sign)
/// models run ~4-8x faster than 2-bit models of the same topology
/// because 1-bit weights pack 8 channels per stream lane.
#[test]
fn latency_reflects_weight_stream_density() {
    let cfg = HwConfig::paper_instance();
    let px = pixels(1);
    let mut latency = std::collections::HashMap::new();
    for m in [ZooModel::TfcW1A1, ZooModel::TfcW2A2, ZooModel::SfcW1A1] {
        let model = m.build_untrained(3, BnMode::Folded).unwrap();
        let loadable = netpu_compiler::compile(&model, &px).unwrap();
        let run = run_inference(&cfg, loadable.words).unwrap();
        latency.insert(m, run.cycles);
    }
    let tfc_bin = latency[&ZooModel::TfcW1A1];
    let tfc_2b = latency[&ZooModel::TfcW2A2];
    let sfc_bin = latency[&ZooModel::SfcW1A1];
    assert!(tfc_bin < tfc_2b, "binary {tfc_bin} !< 2-bit {tfc_2b}");
    let speedup = tfc_2b as f64 / tfc_bin as f64;
    assert!(
        (2.5..9.0).contains(&speedup),
        "binary speedup {speedup} outside the Table V band"
    );
    assert!(sfc_bin > tfc_bin * 3, "SFC should be much slower than TFC");
}

/// Table V structure: folding BN into thresholds is slightly faster
/// than hardware BN (the BN parameter section streams one word per
/// neuron instead of one bias word per eight neurons).
#[test]
fn bn_folding_speeds_up_inference() {
    let cfg = HwConfig::paper_instance();
    let px = pixels(2);
    let folded = {
        let m = ZooModel::TfcW2A2
            .build_untrained(4, BnMode::Folded)
            .unwrap();
        run_inference(&cfg, netpu_compiler::compile(&m, &px).unwrap().words)
            .unwrap()
            .cycles
    };
    let hardware = {
        let m = ZooModel::TfcW2A2
            .build_untrained(4, BnMode::Hardware)
            .unwrap();
        run_inference(&cfg, netpu_compiler::compile(&m, &px).unwrap().words)
            .unwrap()
            .cycles
    };
    assert!(folded < hardware, "folded {folded} !< hardware {hardware}");
    // The gap is small (Table V: ~1-3%).
    let ratio = hardware as f64 / folded as f64;
    assert!(ratio < 1.15, "BN-fold gap too large: {ratio}");
}

/// §V future work: double-buffering the weight buffer roughly halves
/// the weight-bound latency.
#[test]
fn double_buffering_ablation() {
    let px = pixels(3);
    let model = ZooModel::SfcW1A1
        .build_untrained(5, BnMode::Folded)
        .unwrap();
    let words = netpu_compiler::compile(&model, &px).unwrap().words;
    let single = run_inference(&HwConfig::paper_instance(), words.clone())
        .unwrap()
        .cycles;
    let double = run_inference(
        &HwConfig {
            double_buffered_weights: true,
            ..HwConfig::paper_instance()
        },
        words,
    )
    .unwrap()
    .cycles;
    assert!(double < single);
    let ratio = single as f64 / double as f64;
    assert!((1.3..2.1).contains(&ratio), "double-buffer speedup {ratio}");
}

/// More TNPUs per LPU reduce per-batch overheads but cannot beat the
/// 64-bit stream bandwidth wall (the architecture is load-bound, §V).
#[test]
fn tnpu_scaling_is_stream_bound() {
    let px = pixels(4);
    let model = ZooModel::TfcW2A2
        .build_untrained(6, BnMode::Folded)
        .unwrap();
    let words = netpu_compiler::compile(&model, &px).unwrap().words;
    let mut cycles = Vec::new();
    for tnpus in [2usize, 8, 32] {
        let cfg = HwConfig {
            tnpus_per_lpu: tnpus,
            ..HwConfig::paper_instance()
        };
        cycles.push(run_inference(&cfg, words.clone()).unwrap().cycles);
    }
    // Monotone non-increasing in TNPU count…
    assert!(
        cycles[0] >= cycles[1] && cycles[1] >= cycles[2],
        "{cycles:?}"
    );
    // …but with diminishing returns: going 8→32 saves less than 2→8.
    let gain_low = cycles[0] as f64 / cycles[1] as f64;
    let gain_high = cycles[1] as f64 / cycles[2] as f64;
    assert!(gain_low >= gain_high, "{cycles:?}");
    // Weight streaming dominates: even 32 TNPUs stay within 2x of the
    // pure stream bound (2 cycles/word).
    let settings = netpu_compiler::stream::model_settings(&model);
    let stream_bound: usize = settings
        .iter()
        .map(netpu_compiler::stream::weight_words)
        .sum::<usize>()
        * 2;
    assert!(
        cycles[2] < 2 * stream_bound as u64,
        "{} vs {}",
        cycles[2],
        stream_bound
    );
}

/// Malformed streams are rejected, not mis-executed.
#[test]
fn corrupt_streams_fail_cleanly() {
    let cfg = HwConfig::paper_instance();
    let model = ZooModel::TfcW1A1
        .build_untrained(7, BnMode::Folded)
        .unwrap();
    let px = pixels(5);
    let mut words = netpu_compiler::compile(&model, &px).unwrap().words;
    words[0] ^= 0xF;
    match run_inference(&cfg, words) {
        Err(NetPuError::Stream(_)) => {}
        other => panic!("expected stream error, got {other:?}"),
    }
    // Truncated stream: the simulator detects the starved handshake.
    let full = netpu_compiler::compile(&model, &px).unwrap().words;
    let truncated = full[..full.len() / 2].to_vec();
    match run_inference(&cfg, truncated) {
        Err(NetPuError::Sim(_)) => {}
        other => panic!("expected deadlock detection, got {other:?}"),
    }
}

/// The cycle accounting is complete: on both engines every edge,
/// including the final done edge, lands in exactly one phase cell.
#[test]
fn stats_account_for_every_cycle() {
    let cfg = HwConfig::paper_instance();
    let model = ZooModel::TfcW2A2
        .build_untrained(8, BnMode::Folded)
        .unwrap();
    let px = pixels(6);
    let words = netpu_compiler::compile(&model, &px).unwrap().words;
    for run in [
        run_inference(&cfg, words.clone()).unwrap(),
        run_inference_fast(&cfg, words).unwrap(),
    ] {
        let b = &run.breakdown;
        assert_eq!(b.total(), run.cycles, "{b:?}");
        assert_eq!(b.layers.len(), 5);
        // Weight cycles dominate for an FC-heavy model.
        let weight = b.layer_phase_total(LayerPhase::WEIGHT_INGEST)
            + b.layer_phase_total(LayerPhase::WEIGHT_DISPATCH);
        assert!(
            weight * 2 > run.cycles,
            "weights {weight} of {}",
            run.cycles
        );
    }
}
