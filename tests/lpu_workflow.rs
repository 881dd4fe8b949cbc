//! Figure 4 workflow observables: the Layer Initialization → Neuron
//! Initialization → Neuron Processing loop, validated through the cycle
//! statistics the NetPU reports per layer.

use netpu::compiler;
use netpu::core::{netpu::run_inference, HwConfig, LayerPhase, StreamPhase};
use netpu::nn::export::BnMode;
use netpu::nn::zoo::ZooModel;
use netpu_compiler::stream::{model_settings, weight_words};

fn run(model: ZooModel, cfg: &HwConfig) -> (netpu::core::netpu::InferenceRun, Vec<usize>) {
    let qm = model.build_untrained(5, BnMode::Folded).unwrap();
    let px = vec![100u8; qm.input.len];
    let words = compiler::compile(&qm, &px).unwrap().words;
    let per_layer_weight_words: Vec<usize> = model_settings(&qm).iter().map(weight_words).collect();
    (run_inference(cfg, words).unwrap(), per_layer_weight_words)
}

/// Every weight word streams through the LPU exactly once.
#[test]
fn weight_words_consumed_match_stream_sections() {
    let cfg = HwConfig::paper_instance();
    let (result, expected) = run(ZooModel::TfcW2A2, &cfg);
    for (layer, (cycles, expect)) in result.breakdown.layers.iter().zip(&expected).enumerate() {
        assert_eq!(
            cycles[LayerPhase::WEIGHT_INGEST],
            *expect as u64,
            "layer {layer} weight words"
        );
    }
}

/// The single-port weight buffer costs two cycles per word (Fig. 4's
/// Neuron Processing step under the §V loading bottleneck).
#[test]
fn weight_cycles_are_twice_the_words() {
    let cfg = HwConfig::paper_instance();
    let (result, _) = run(ZooModel::TfcW2A2, &cfg);
    for (layer, cycles) in result.breakdown.layers.iter().enumerate().skip(1) {
        let words = cycles[LayerPhase::WEIGHT_INGEST];
        let weight_cycles = words + cycles[LayerPhase::WEIGHT_DISPATCH];
        assert_eq!(weight_cycles, 2 * words, "layer {layer}");
    }
}

/// Neuron Initialization repeats once per TNPU batch: its cycle count
/// scales with the number of neuron batches.
#[test]
fn init_cycles_scale_with_batches() {
    let few = HwConfig {
        tnpus_per_lpu: 2,
        ..HwConfig::paper_instance()
    };
    let many = HwConfig {
        tnpus_per_lpu: 8,
        ..HwConfig::paper_instance()
    };
    let (r_few, _) = run(ZooModel::TfcW2A2, &few);
    let (r_many, _) = run(ZooModel::TfcW2A2, &many);
    // Hidden layer 1 has 64 neurons: 32 batches at 2 TNPUs vs 8 at 8.
    let (few, many) = (&r_few.breakdown.layers[1], &r_many.breakdown.layers[1]);
    let (init_few, init_many) = (few[LayerPhase::INIT], many[LayerPhase::INIT]);
    // Per-neuron parameter loads are identical; only drain/write
    // overheads differ per batch, so totals are equal here — but drain
    // cycles must scale with batch count.
    assert_eq!(init_few, init_many);
    let (drain_few, drain_many) = (few[LayerPhase::DRAIN], many[LayerPhase::DRAIN]);
    assert!(drain_few > drain_many, "{drain_few} !> {drain_many}");
}

/// The input layer (yellow path) streams no weights and reports its
/// cycles as input processing.
#[test]
fn input_layer_runs_without_weights() {
    let cfg = HwConfig::paper_instance();
    let (result, _) = run(ZooModel::TfcW1A1, &cfg);
    let input = &result.breakdown.layers[0];
    assert_eq!(input[LayerPhase::WEIGHT_INGEST], 0);
    assert_eq!(input[LayerPhase::WEIGHT_DISPATCH], 0);
    assert!(input[LayerPhase::INPUT] > 0);
    // FC layers do the opposite.
    for cycles in &result.breakdown.layers[1..] {
        assert_eq!(cycles[LayerPhase::INPUT], 0);
        assert!(cycles[LayerPhase::WEIGHT_INGEST] > 0);
    }
}

/// The stream never starves the LPU: stall cycles stay at zero with the
/// full-bandwidth Network Input FIFO.
#[test]
fn no_stalls_at_full_stream_bandwidth() {
    let cfg = HwConfig::paper_instance();
    let (result, _) = run(ZooModel::SfcW1A1, &cfg);
    for (layer, cycles) in result.breakdown.layers.iter().enumerate() {
        assert_eq!(cycles[LayerPhase::STALL], 0, "layer {layer} stalled");
    }
}

/// Total latency decomposes into the documented phases, with every
/// cycle in exactly one cell.
#[test]
fn phase_decomposition_is_complete() {
    let cfg = HwConfig::paper_instance();
    let (result, _) = run(ZooModel::TfcW1A1, &cfg);
    let b = &result.breakdown;
    assert_eq!(b.total(), result.cycles);
    assert_eq!(b.layers.len(), 5);
    // One Ready edge per layer, one reset between sections.
    assert_eq!(b.layer_phase_total(LayerPhase::READY), 5);
    assert_eq!(b[StreamPhase::RESET], 4 * 2);
    assert_eq!(b[StreamPhase::HEADER], 1);
    assert_eq!(b[StreamPhase::SETTINGS], 5);
    assert_eq!(b[StreamPhase::INPUT_INGEST], 98); // 784 pixels / 8 lanes
}
