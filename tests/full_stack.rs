//! Full-stack integration: dataset → QAT training → streamlining →
//! loadable compilation → cycle-level inference, cross-checked at every
//! stage.

use netpu::compiler;
use netpu::core::{netpu::run_inference, HwConfig};
use netpu::nn::dataset;
use netpu::nn::export::BnMode;
use netpu::nn::float::ActSpec;
use netpu::nn::train::TrainConfig;
use netpu::nn::zoo::ZooModel;
use netpu::nn::{export, metrics, reference, FloatMlp, LayerSpec, MlpSpec};

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    }
}

#[test]
fn trained_zoo_model_survives_the_whole_pipeline() {
    let (train_ds, test_ds) = dataset::easy_splits(600, 60, 77);
    let (_, qm) = ZooModel::TfcW2A2
        .train(&train_ds, &train_cfg(), BnMode::Folded)
        .unwrap();
    // Stage 1: the exported model classifies well in software.
    let acc = metrics::accuracy(&qm, &test_ds);
    assert!(acc > 0.6, "reference accuracy {acc}");

    // Stage 2: the loadable decodes back to the identical model.
    let pixels = &test_ds.examples[0].pixels;
    let loadable = compiler::compile(&qm, pixels).unwrap();
    let decoded = compiler::decode(&loadable.words).unwrap();
    let mut anon = qm.clone();
    anon.name = String::new();
    assert_eq!(decoded.model, anon);

    // Stage 3: the accelerator agrees with the reference on every image.
    let cfg = HwConfig::paper_instance();
    let mut loadable = loadable;
    for e in test_ds.examples.iter().take(20) {
        loadable.replace_input(&e.pixels).unwrap();
        let run = run_inference(&cfg, loadable.words.clone()).unwrap();
        assert_eq!(run.class, reference::infer(&qm, &e.pixels));
    }
}

#[test]
fn hardware_bn_pipeline_matches_reference_after_training() {
    let (train_ds, test_ds) = dataset::easy_splits(500, 20, 13);
    let (_, qm) = ZooModel::TfcW2A2
        .train(&train_ds, &train_cfg(), BnMode::Hardware)
        .unwrap();
    assert!(qm.hidden[0].bn.is_some());
    let cfg = HwConfig::paper_instance();
    for e in &test_ds.examples {
        let loadable = compiler::compile(&qm, &e.pixels).unwrap();
        let run = run_inference(&cfg, loadable.words).unwrap();
        assert_eq!(run.class, reference::infer(&qm, &e.pixels));
    }
}

#[test]
fn relu_quan_path_works_end_to_end() {
    // A model using the ReLU + QUAN hardware path (not thresholds).
    let spec = MlpSpec {
        name: "relu-quan".into(),
        input_len: dataset::IMAGE_PIXELS,
        input_act: ActSpec::Hwgq { bits: 4 },
        layers: vec![
            LayerSpec {
                neurons: 20,
                weight_bits: 4,
                act: ActSpec::ReluQuant { bits: 4 },
                batch_norm: true,
            },
            LayerSpec {
                neurons: 10,
                weight_bits: 4,
                act: ActSpec::None,
                batch_norm: true,
            },
        ],
    };
    let (train_ds, test_ds) = dataset::easy_splits(400, 15, 3);
    let mut fm = FloatMlp::init(spec, 1);
    netpu::nn::train::train(&mut fm, &train_ds, &train_cfg());
    let qm = export::export(
        &fm,
        &export::ExportConfig {
            bn_mode: BnMode::Folded,
        },
    )
    .unwrap();
    assert!(matches!(
        qm.hidden[0].activation,
        netpu::nn::LayerActivation::Relu { .. }
    ));
    let cfg = HwConfig::paper_instance();
    for e in &test_ds.examples {
        let loadable = compiler::compile(&qm, &e.pixels).unwrap();
        let run = run_inference(&cfg, loadable.words).unwrap();
        assert_eq!(run.class, reference::infer(&qm, &e.pixels));
    }
}

#[test]
fn deep_models_exercise_lpu_recycling() {
    // Seven FC layers on a two-LPU ring force each LPU to be recycled
    // three times within one inference (Fig. 2 right).
    let mut layers: Vec<LayerSpec> = (0..6)
        .map(|_| LayerSpec {
            neurons: 24,
            weight_bits: 2,
            act: ActSpec::Hwgq { bits: 2 },
            batch_norm: true,
        })
        .collect();
    layers.push(LayerSpec {
        neurons: 10,
        weight_bits: 2,
        act: ActSpec::None,
        batch_norm: true,
    });
    let spec = MlpSpec {
        name: "deep".into(),
        input_len: dataset::IMAGE_PIXELS,
        input_act: ActSpec::Hwgq { bits: 2 },
        layers,
    };
    let fm = FloatMlp::init(spec, 2);
    let qm = export::export(
        &fm,
        &export::ExportConfig {
            bn_mode: BnMode::Folded,
        },
    )
    .unwrap();
    // 1 input + 6 hidden + 1 output layers.
    assert_eq!(qm.layer_count(), 8);
    let cfg = HwConfig::paper_instance();
    let pixels = vec![77u8; dataset::IMAGE_PIXELS];
    let loadable = compiler::compile(&qm, &pixels).unwrap();
    let run = run_inference(&cfg, loadable.words).unwrap();
    assert_eq!(run.class, reference::infer(&qm, &pixels));
    assert_eq!(run.breakdown.layers.len(), 8);
}

#[test]
fn accuracy_ordering_follows_precision() {
    // More precision should not hurt on the same data (w1a1 ≤ w2a2,
    // allowing a small tolerance for training noise).
    let (train_ds, test_ds) = dataset::easy_splits(800, 150, 55);
    let (_, w1) = ZooModel::TfcW1A1
        .train(&train_ds, &train_cfg(), BnMode::Folded)
        .unwrap();
    let (_, w2) = ZooModel::TfcW2A2
        .train(&train_ds, &train_cfg(), BnMode::Folded)
        .unwrap();
    let a1 = metrics::accuracy(&w1, &test_ds);
    let a2 = metrics::accuracy(&w2, &test_ds);
    assert!(
        a2 + 0.1 >= a1,
        "2-bit accuracy {a2} unexpectedly below 1-bit {a1}"
    );
}
