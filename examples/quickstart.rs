//! Quickstart: train a small quantized MLP, lower it to a NetPU-M
//! loadable, and run it on the cycle-accurate accelerator model.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use netpu::compiler;
use netpu::core::{netpu::run_inference, HwConfig, LayerPhase};
use netpu::nn::dataset;
use netpu::nn::export::BnMode;
use netpu::nn::float::{ActSpec, FloatMlp, LayerSpec, MlpSpec};
use netpu::nn::train::{train, TrainConfig};
use netpu::nn::{export, metrics};

fn main() {
    // 1. A dataset: synthetic MNIST-shaped digits (deterministic).
    let (train_ds, test_ds) = dataset::standard_splits(2_000, 300, 42);

    // 2. A 2-bit quantized MLP: 784 → 64 → 64 → 10 with BatchNorm.
    let spec = MlpSpec {
        name: "quickstart-w2a2".into(),
        input_len: dataset::IMAGE_PIXELS,
        input_act: ActSpec::Hwgq { bits: 2 },
        layers: vec![
            LayerSpec {
                neurons: 64,
                weight_bits: 2,
                act: ActSpec::Hwgq { bits: 2 },
                batch_norm: true,
            },
            LayerSpec {
                neurons: 64,
                weight_bits: 2,
                act: ActSpec::Hwgq { bits: 2 },
                batch_norm: true,
            },
            LayerSpec {
                neurons: 10,
                weight_bits: 2,
                act: ActSpec::None,
                batch_norm: true,
            },
        ],
    };

    // 3. Quantization-aware training.
    let mut model = FloatMlp::init(spec, 7);
    let report = train(
        &mut model,
        &train_ds,
        &TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        },
    );
    println!(
        "trained: loss {:.3} → {:.3}, train accuracy {:.1}%",
        report.epoch_losses.first().unwrap(),
        report.epoch_losses.last().unwrap(),
        report.final_train_accuracy * 100.0
    );

    // 4. Streamline: fold BatchNorm + quantizers into integer thresholds.
    let qmodel = export::export(
        &model,
        &export::ExportConfig {
            bn_mode: BnMode::Folded,
        },
    )
    .expect("export");
    println!(
        "exported {}: {} layers, {} weights, test accuracy {:.1}%",
        qmodel.name,
        qmodel.layer_count(),
        qmodel.weight_count(),
        metrics::accuracy(&qmodel, &test_ds) * 100.0
    );

    // 5. Compile model + one input into the §III.B.3 data stream and run
    //    it through the cycle-level NetPU-M instance.
    let example = &test_ds.examples[0];
    let loadable = compiler::compile(&qmodel, &example.pixels).expect("compile");
    println!("loadable: {} x 64-bit words", loadable.len());

    let run = run_inference(&HwConfig::paper_instance(), loadable.words).expect("inference");
    println!(
        "accelerator: class {} (truth {}), {} cycles = {:.2} us at 100 MHz",
        run.class, example.label, run.cycles, run.latency_us
    );
    let b = &run.breakdown;
    println!(
        "cycle breakdown: {} weight-stream, {} param-ingest, {} init, {} drain",
        b.layer_phase_total(LayerPhase::WEIGHT_INGEST)
            + b.layer_phase_total(LayerPhase::WEIGHT_DISPATCH),
        b.layer_phase_total(LayerPhase::PARAMS),
        b.layer_phase_total(LayerPhase::INIT),
        b.layer_phase_total(LayerPhase::DRAIN),
    );
}
