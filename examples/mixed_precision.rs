//! Mixed-precision inference: NetPU-M lets *each layer* run at its own
//! weight/activation precision and activation function (§III.B.1 —
//! "the data precision in different layers can also be different").
//!
//! This example hand-builds a model whose layers deliberately differ:
//! a 4-bit Multi-Threshold input, a 4-bit hidden layer on the ReLU+QUAN
//! path with hardware BatchNorm, a binary-weight hidden layer, and an
//! 8-bit-score output — then verifies the accelerator runs it bit-exactly.
//!
//! ```sh
//! cargo run --release --example mixed_precision
//! ```

use netpu::arith::{Fix, Precision, QuantParams};
use netpu::compiler;
use netpu::core::{netpu::run_inference, HwConfig};
use netpu::nn::qmodel::{
    BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp,
};
use netpu::nn::reference;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mt_row(levels: i32, step: i32) -> Vec<Fix> {
    (1..=levels).map(|k| Fix::from_i32(k * step)).collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let input_len = 64usize;

    // Layer widths and precisions chosen to exercise every datapath:
    //   input  : 8-bit pixels → 4-bit Multi-Threshold levels
    //   hidden1: 4-bit weights, ReLU + QUAN path, hardware BN → 4-bit out
    //   hidden2: 1-bit weights on the integer path (w1a4) → 2-bit out
    //   output : 2-bit weights, hardware BN scores + MaxOut
    let h1 = 24usize;
    let h2 = 16usize;
    let classes = 4usize;

    let rand_weights = |rng: &mut StdRng, n: usize, lo: i32, hi: i32| -> Vec<i8> {
        (0..n).map(|_| rng.gen_range(lo..=hi) as i8).collect()
    };

    let model = QuantMlp {
        name: "mixed-precision-demo".into(),
        input: InputLayer {
            len: input_len,
            out_precision: Precision::W4,
            activation: LayerActivation::MultiThreshold {
                thresholds: mt_row(15, 16).repeat(input_len),
            },
        },
        hidden: vec![
            HiddenLayer {
                in_len: input_len,
                neurons: h1,
                weight_precision: Precision::W4,
                in_precision: Precision::W4,
                out_precision: Precision::W4,
                weights: rand_weights(&mut rng, h1 * input_len, -8, 7),
                bias: None,
                bn: Some(
                    (0..h1)
                        .map(|_| BnParams {
                            scale_q16: Fix::q16_scale_from_f64(0.01),
                            offset: Fix::from_f64(1.0),
                        })
                        .collect(),
                ),
                activation: LayerActivation::Relu {
                    quant: QuantParams::from_f64(4.0, 0.5),
                },
            },
            HiddenLayer {
                in_len: h1,
                neurons: h2,
                weight_precision: Precision::W1, // binary weights…
                in_precision: Precision::W4,     // …on the integer path (w1a4)
                out_precision: Precision::W2,
                weights: (0..h2 * h1)
                    .map(|_| if rng.gen() { 1 } else { -1 })
                    .collect(),
                bias: Some(vec![0; h2]),
                bn: None,
                activation: LayerActivation::MultiThreshold {
                    thresholds: mt_row(3, 12).repeat(h2),
                },
            },
        ],
        output: OutputLayer {
            in_len: h2,
            neurons: classes,
            weight_precision: Precision::W2,
            in_precision: Precision::W2,
            weights: rand_weights(&mut rng, classes * h2, -2, 1),
            bias: None,
            bn: Some(vec![BnParams::IDENTITY; classes]),
        },
    };
    model.validate().expect("mixed-precision model is valid");
    println!("model: {}", model.name);
    for (i, h) in model.hidden.iter().enumerate() {
        println!(
            "  hidden {}: w{} a{} → {} ({:?}, BN {})",
            i + 1,
            h.weight_precision.bits(),
            h.in_precision.bits(),
            h.out_precision,
            h.activation.kind(),
            if h.bn.is_some() { "hardware" } else { "folded" },
        );
    }

    // Run a few random inputs through both the bit-exact reference and
    // the cycle-level accelerator.
    let cfg = HwConfig::paper_instance();
    for trial in 0..4 {
        let pixels: Vec<u8> = (0..input_len).map(|_| rng.gen()).collect();
        let trace = reference::infer_traced(&model, &pixels);
        let loadable = compiler::compile(&model, &pixels).expect("compile");
        let run = run_inference(&cfg, loadable.words).expect("run");
        assert_eq!(run.class, trace.class, "accelerator diverged");
        assert_eq!(run.score, trace.scores[trace.class]);
        println!(
            "trial {trial}: class {} score {} in {} cycles ({:.2} us) — bit-exact ✓",
            run.class, run.score, run.cycles, run.latency_us
        );
    }
    println!("\nall four datapath variants ran in one stream-configured instance.");
}
