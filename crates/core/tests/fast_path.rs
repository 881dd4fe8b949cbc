//! Differential tests for the phase-skipping fast path: for every zoo
//! model × BN mode × weight-buffering × packing combination,
//! `run_inference_fast` must agree with the reference tick path on the
//! cycle count, the classification, and **every** `CycleBreakdown`
//! cell (each layer × phase, plus the stream-level phases) — the fast
//! path is an optimization of the clock loop, not of the timing model.

use netpu_compiler::{batch_stream, compile_packed, PackingMode};
use netpu_core::netpu::{run_inference_observed, run_to_completion, run_to_completion_fast};
use netpu_core::{run_inference, run_inference_fast, HwConfig, NetPu, NetPuError};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_nn::{dataset, reference};
use netpu_sim::{Observer, SimError, StreamSource};

fn config(double_buffered: bool, packing: PackingMode) -> HwConfig {
    HwConfig {
        double_buffered_weights: double_buffered,
        dense_weight_packing: packing == PackingMode::Dense,
        ..HwConfig::paper_instance()
    }
}

/// The full sweep. Each combination runs the same loadable through
/// both paths and compares the whole `InferenceRun` (class, score,
/// cycles, latency, probabilities, and the per-layer cycle breakdown)
/// for structural equality.
#[test]
fn fast_path_is_cycle_exact_across_the_zoo() {
    let pixels: Vec<u8> = (0..784).map(|i| (i * 7 % 251) as u8).collect();
    for model_kind in ZooModel::ALL {
        for bn in [BnMode::Folded, BnMode::Hardware] {
            let model = model_kind.build_untrained(11, bn).unwrap();
            for packing in [PackingMode::Lanes8, PackingMode::Dense] {
                let loadable = compile_packed(&model, &pixels, packing).unwrap();
                for double_buffered in [false, true] {
                    let cfg = config(double_buffered, packing);
                    let tick = run_inference(&cfg, loadable.words.clone()).unwrap();
                    let fast = run_inference_fast(&cfg, loadable.words.clone()).unwrap();
                    assert_eq!(
                        tick, fast,
                        "{model_kind:?} {bn:?} {packing:?} db={double_buffered}"
                    );
                    // And both remain bit-exact against the software
                    // reference.
                    assert_eq!(fast.class, reference::infer(&model, &pixels));
                }
            }
        }
    }
}

/// Both engines report to the observer through their own call sites;
/// a recorded run must not depend on which engine produced it. Every
/// event (cycle, scope, message) and every datapath sample (layer,
/// neuron, stage, value) must match, in order.
#[test]
fn tick_and_fast_paths_hand_the_observer_identical_records() {
    let pixels: Vec<u8> = (0..784).map(|i| (i * 13 % 241) as u8).collect();
    let cfg = HwConfig::paper_instance();
    let observer = || Observer::new(1 << 16, true);
    for model_kind in [
        ZooModel::TfcW1A1,
        ZooModel::TfcW2A2,
        ZooModel::SfcW1A1,
        ZooModel::SfcW2A2,
    ] {
        for bn in [BnMode::Folded, BnMode::Hardware] {
            let model = model_kind.build_untrained(5, bn).unwrap();
            let words = netpu_compiler::compile(&model, &pixels).unwrap().words;
            let mut netpu = NetPu::new(cfg, StreamSource::new(words.clone(), 1))
                .unwrap()
                .with_observer(observer());
            run_to_completion(&mut netpu).unwrap();
            let tick = netpu.take_observer();
            let mut fast = observer();
            run_inference_observed(&cfg, words, &mut fast).unwrap();

            let tag = format!("{model_kind:?} {bn:?}");
            assert!(tick.events().next().is_some(), "{tag}: no events");
            assert!(!tick.samples().is_empty(), "{tag}: no samples");
            assert!(tick.events().eq(fast.events()), "{tag}: events differ");
            assert_eq!(tick.samples(), fast.samples(), "{tag}: samples differ");
        }
    }
}

/// SoftMax-enabled instances exercise the extra write-out and sink
/// traffic; the probability vector must match too.
#[test]
fn fast_path_matches_with_softmax_output() {
    let model = ZooModel::TfcW2A2
        .build_untrained(3, BnMode::Hardware)
        .unwrap();
    let pixels = vec![77u8; 784];
    let words = netpu_compiler::compile(&model, &pixels).unwrap().words;
    let cfg = HwConfig {
        softmax_output: true,
        ..HwConfig::paper_instance()
    };
    let tick = run_inference(&cfg, words.clone()).unwrap();
    let fast = run_inference_fast(&cfg, words).unwrap();
    assert_eq!(tick, fast);
    assert!(fast.probabilities.is_some());
}

/// Multi-inference bursts re-enter the header path between frames; the
/// fast path must reproduce per-frame completion cycles, the Network
/// Output FIFO word-for-word (including arrival timestamps), and the
/// stream's idle-cycle accounting.
#[test]
fn fast_path_matches_burst_streams_and_idle_accounting() {
    let model = ZooModel::SfcW1A1
        .build_untrained(6, BnMode::Folded)
        .unwrap();
    let ds = dataset::generate(4, 21, &dataset::GeneratorConfig::default());
    let inputs: Vec<Vec<u8>> = ds.examples.iter().map(|e| e.pixels.clone()).collect();
    let words = batch_stream(&model, &inputs, PackingMode::Lanes8).unwrap();
    let cfg = HwConfig::paper_instance();

    let mut tick = NetPu::new(cfg, StreamSource::new(words.clone(), 1)).unwrap();
    let tick_cycles = run_to_completion(&mut tick).unwrap();
    let mut fast = NetPu::new(cfg, StreamSource::new(words, 1)).unwrap();
    let fast_cycles = run_to_completion_fast(&mut fast).unwrap();

    assert_eq!(tick_cycles, fast_cycles);
    assert_eq!(tick.results(), fast.results());
    assert_eq!(tick.breakdown, fast.breakdown);
    assert_eq!(tick.sink().timed_words(), fast.sink().timed_words());
    assert_eq!(tick.stream_idle_cycles(), fast.stream_idle_cycles());
}

/// A truncated stream starves the active LPU mid-weights; the deadlock
/// watchdog must fire at the identical cycle on both paths.
#[test]
fn fast_path_preserves_deadlock_watchdog_timing() {
    let model = ZooModel::TfcW1A1
        .build_untrained(8, BnMode::Folded)
        .unwrap();
    let pixels = vec![13u8; 784];
    let mut words = netpu_compiler::compile(&model, &pixels).unwrap().words;
    words.truncate(words.len() - 40); // starve the last weight section

    let tick_err = run_inference(&HwConfig::paper_instance(), words.clone()).unwrap_err();
    let fast_err = run_inference_fast(&HwConfig::paper_instance(), words).unwrap_err();
    assert_eq!(tick_err, fast_err);
    assert!(
        matches!(
            tick_err,
            NetPuError::Sim(SimError::Deadlock {
                window: 100_000,
                ..
            })
        ),
        "expected a deadlock, got {tick_err:?}"
    );
}

/// Malformed streams must fail identically (same `StreamError`) on both
/// paths — the fast path single-steps the control states that validate.
#[test]
fn fast_path_surfaces_identical_stream_errors() {
    let bad_header = vec![0xDEAD_BEEF_u64; 4];
    let tick_err = run_inference(&HwConfig::paper_instance(), bad_header.clone()).unwrap_err();
    let fast_err = run_inference_fast(&HwConfig::paper_instance(), bad_header).unwrap_err();
    assert_eq!(tick_err, fast_err);
    assert!(matches!(tick_err, NetPuError::Stream(_)));
}
