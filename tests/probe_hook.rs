//! Datapath probe hook contract (DESIGN.md §4.4 soundness hook).
//!
//! Two obligations: a disabled probe costs nothing on the hot path (no
//! buffer is ever allocated across a full inference), and an enabled
//! probe's recorded values are the values the accelerator actually
//! produced — its output-layer score samples reproduce the class and
//! score `Driver::run` reports for the same loadable.

use netpu_compiler::compile;
use netpu_core::netpu::run_inference_observed;
use netpu_core::{run_inference_fast, HwConfig};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_runtime::{Driver, InferRequest};
use netpu_sim::{DatapathProbe, ProbeStage, Tracer};

fn tfc_words() -> Vec<u64> {
    let model = ZooModel::TfcW1A1
        .build_untrained(3, BnMode::Folded)
        .unwrap();
    compile(&model, &vec![100u8; 784]).unwrap().words
}

#[test]
fn disabled_probe_never_allocates_across_a_full_run() {
    let mut probe = DatapathProbe::disabled();
    let run = run_inference_observed(
        &HwConfig::paper_instance(),
        tfc_words(),
        &mut Tracer::disabled(),
        &mut probe,
    )
    .unwrap();
    // The run completed (thousands of record() call sites were hit) yet
    // the probe never grew a buffer: the disabled path is one branch.
    assert!(run.cycles > 0);
    assert!(probe.is_empty());
    assert_eq!(probe.capacity(), 0);
    assert!(!probe.is_enabled());
}

#[test]
fn probed_run_matches_unprobed_fast_path() {
    let cfg = HwConfig::paper_instance();
    let words = tfc_words();
    let plain = run_inference_fast(&cfg, words.clone()).unwrap();
    let mut probe = DatapathProbe::enabled();
    let probed = run_inference_observed(&cfg, words, &mut Tracer::disabled(), &mut probe).unwrap();
    assert_eq!(probed.class, plain.class);
    assert_eq!(probed.score, plain.score);
    assert_eq!(probed.cycles, plain.cycles);
    assert!(!probe.is_empty());
}

#[test]
fn probe_scores_reproduce_driver_outputs() {
    let cfg = HwConfig::paper_instance();
    let words = tfc_words();

    let driver = Driver::builder().hw(cfg).build();
    let loadable = netpu_compiler::Loadable {
        layout: netpu_compiler::file::layout_of(&words).unwrap(),
        words: words.clone(),
    };
    let response = driver.run(InferRequest::loadable(loadable)).unwrap();
    let measured = &response.runs[0];

    let mut probe = DatapathProbe::enabled();
    let run = run_inference_observed(&cfg, words, &mut Tracer::disabled(), &mut probe).unwrap();
    assert_eq!(run.class, measured.class);

    // The output layer's Score samples are the MaxOut inputs: their
    // argmax is the reported class and their max the reported score.
    let out_layer = probe
        .samples()
        .iter()
        .map(|s| s.layer)
        .max()
        .expect("probe recorded samples");
    let scores: Vec<(usize, i64)> = probe
        .samples()
        .iter()
        .filter(|s| s.layer == out_layer && s.stage == ProbeStage::Score)
        .map(|s| (s.neuron, s.value))
        .collect();
    assert_eq!(scores.len(), 10, "TFC has ten output neurons");
    let &(best_neuron, best_score) = scores
        .iter()
        .max_by_key(|(neuron, value)| (*value, std::cmp::Reverse(*neuron)))
        .unwrap();
    assert_eq!(best_neuron, run.class);
    assert_eq!(best_score, run.score.raw());
}
