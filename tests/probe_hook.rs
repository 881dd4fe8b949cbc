//! Observation hook contract (DESIGN.md §4.4 soundness hook).
//!
//! Three obligations: a disabled observer costs nothing on the hot path
//! (no buffer is ever allocated across a full inference), a sampling
//! observer's recorded values are the values the accelerator actually
//! produced — its output-layer score samples reproduce the class and
//! score `Driver::run` reports for the same loadable — and a run that
//! fails hands its observer back with what it recorded before failing.

use netpu_compiler::compile;
use netpu_core::netpu::run_inference_observed;
use netpu_core::{run_inference_fast, HwConfig, NetPuError};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_runtime::{Driver, InferRequest};
use netpu_sim::{Observer, ProbeStage};

fn tfc_words() -> Vec<u64> {
    let model = ZooModel::TfcW1A1
        .build_untrained(3, BnMode::Folded)
        .unwrap();
    compile(&model, &vec![100u8; 784]).unwrap().words
}

#[test]
fn disabled_probe_never_allocates_across_a_full_run() {
    let mut probe = Observer::default();
    let run = run_inference_observed(&HwConfig::paper_instance(), tfc_words(), &mut probe).unwrap();
    // The run completed (thousands of hook call sites were hit) yet
    // the observer never grew a buffer: the disabled path is one branch.
    assert!(run.cycles > 0);
    assert!(probe.samples().is_empty());
    assert_eq!(probe.capacity(), 0);
    assert!(!probe.is_sampling());
}

#[test]
fn probed_run_matches_unprobed_fast_path() {
    let cfg = HwConfig::paper_instance();
    let words = tfc_words();
    let plain = run_inference_fast(&cfg, words.clone()).unwrap();
    let mut probe = Observer::new(0, true);
    let probed = run_inference_observed(&cfg, words, &mut probe).unwrap();
    assert_eq!(probed.class, plain.class);
    assert_eq!(probed.score, plain.score);
    assert_eq!(probed.cycles, plain.cycles);
    assert!(!probe.samples().is_empty());
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

    let mut probe = Observer::new(0, true);
    let run = run_inference_observed(&cfg, words, &mut probe).unwrap();
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

#[test]
fn failed_run_hands_back_the_events_recorded_before_the_failure() {
    let mut words = tfc_words();
    words.truncate(words.len() / 2); // starves a weight section
    let mut observer = Observer::new(64, true);
    let err = run_inference_observed(&HwConfig::paper_instance(), words, &mut observer)
        .expect_err("a truncated stream cannot complete");
    assert!(matches!(err, NetPuError::Sim(_)), "{err:?}");
    // The layers reached before the stream ran dry were announced and
    // sampled; no inference completed.
    let messages: Vec<&str> = observer.events().map(|e| e.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.starts_with("layer 0 settings")),
        "{messages:?}"
    );
    assert!(!messages.iter().any(|m| m.starts_with("inference done")));
    assert!(!observer.samples().is_empty());
}
