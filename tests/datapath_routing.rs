//! Figure 3 datapath coverage: the five crossbar paths, exercised both
//! as routing decisions and through full inferences whose correctness
//! depends on the right submodules being bypassed.

use netpu::arith::{ActivationKind, Fix, Precision, QuantParams};
use netpu::compiler;
use netpu::core::tnpu::{crossbar_route, Stage};
use netpu::core::{netpu::run_inference, HwConfig};
use netpu::nn::qmodel::{
    BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp,
};
use netpu::nn::reference;
use netpu_compiler::LayerType;

/// All Fig. 3 paths, enumerated: every (layer type, activation, BN
/// option) combination routes through a coherent stage sequence.
#[test]
fn every_crossbar_route_is_coherent() {
    for lt in [LayerType::Input, LayerType::Hidden, LayerType::Output] {
        for act in ActivationKind::ALL {
            for folded in [true, false] {
                let route = crossbar_route(lt, act, folded);
                // No duplicate stages, order preserved.
                let mut seen = Vec::new();
                for s in &route {
                    assert!(!seen.contains(s), "{lt:?}/{act}/{folded}: duplicate {s:?}");
                    seen.push(*s);
                }
                match lt {
                    LayerType::Input => {
                        assert!(!route.contains(&Stage::Mul));
                        assert!(!route.contains(&Stage::Accu));
                        assert!(!route.contains(&Stage::Bn));
                        assert!(route.contains(&Stage::Activ));
                    }
                    LayerType::Hidden => {
                        assert_eq!(route[0], Stage::Mul);
                        assert_eq!(route[1], Stage::Accu);
                        assert!(route.contains(&Stage::Activ));
                        assert_eq!(route.contains(&Stage::Bn), !folded);
                        assert_eq!(route.contains(&Stage::Quan), !act.bypasses_quan());
                    }
                    LayerType::Output => {
                        assert!(!route.contains(&Stage::Activ));
                        assert!(!route.contains(&Stage::Quan));
                        assert_eq!(route.contains(&Stage::Bn), !folded);
                    }
                }
            }
        }
    }
}

fn one_hot_model(
    act: LayerActivation,
    bn: Option<Vec<BnParams>>,
    bias: Option<Vec<i32>>,
) -> QuantMlp {
    // 8 inputs → 4 hidden → 2 classes; weights identity-ish so routing
    // bugs change the answer.
    QuantMlp {
        name: "routing".into(),
        input: InputLayer {
            len: 8,
            out_precision: Precision::W2,
            activation: LayerActivation::MultiThreshold {
                thresholds: [Fix::from_i32(64), Fix::from_i32(128), Fix::from_i32(192)].repeat(8),
            },
        },
        hidden: vec![HiddenLayer {
            in_len: 8,
            neurons: 4,
            weight_precision: Precision::W2,
            in_precision: Precision::W2,
            out_precision: Precision::W2,
            weights: vec![
                1, 1, 0, 0, 0, 0, 0, 0, //
                0, 0, 1, 1, 0, 0, 0, 0, //
                0, 0, 0, 0, 1, 1, 0, 0, //
                0, 0, 0, 0, 0, 0, 1, 1,
            ],
            bias,
            bn,
            activation: act,
        }],
        output: OutputLayer {
            in_len: 4,
            neurons: 2,
            weight_precision: Precision::W2,
            in_precision: Precision::W2,
            weights: vec![1, 1, 0, 0, 0, 0, 1, 1],
            bias: Some(vec![0, 0]),
            bn: None,
        },
    }
}

fn check_model(model: &QuantMlp) {
    model.validate().unwrap();
    let cfg = HwConfig::paper_instance();
    for seed in 0..8u8 {
        let pixels: Vec<u8> = (0..8)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed * 29))
            .collect();
        let trace = reference::infer_traced(model, &pixels);
        let run = run_inference(&cfg, compiler::compile(model, &pixels).unwrap().words).unwrap();
        assert_eq!(run.class, trace.class, "seed {seed}");
        assert_eq!(run.score, trace.scores[trace.class]);
    }
}

/// Red path with folded BN + Multi-Threshold (BN and QUAN bypassed).
#[test]
fn hidden_folded_multithreshold_path() {
    let act = LayerActivation::MultiThreshold {
        thresholds: [Fix::from_i32(1), Fix::from_i32(3), Fix::from_i32(5)].repeat(4),
    };
    check_model(&one_hot_model(act, None, Some(vec![0, 1, -1, 0])));
}

/// Red path with hardware BN + Sign.
#[test]
fn hidden_hardware_bn_sign_path() {
    let act = LayerActivation::Sign {
        thresholds: vec![Fix::from_i32(2); 4],
    };
    let bn = Some(vec![
        BnParams {
            scale_q16: Fix::q16_scale_from_f64(0.5),
            offset: Fix::from_f64(0.5),
        };
        4
    ]);
    let mut m = one_hot_model(act, bn, None);
    m.hidden[0].out_precision = Precision::W1;
    // A 1-bit activation output feeding 2-bit weights is legal only via
    // the integer path with binary *weights*; flip the output layer to
    // binary weights so the pairing rule holds.
    m.output.weight_precision = Precision::W1;
    m.output.in_precision = Precision::W1;
    m.output.weights = vec![1, 1, -1, -1, -1, -1, 1, 1];
    check_model(&m);
}

/// Red path with hardware BN + Sigmoid + QUAN (the full five-stage
/// pipeline).
#[test]
fn hidden_full_pipeline_sigmoid_path() {
    let act = LayerActivation::Sigmoid {
        quant: QuantParams::from_f64(3.0, 0.0),
    };
    let bn = Some(vec![
        BnParams {
            scale_q16: Fix::q16_scale_from_f64(0.25),
            offset: Fix::ZERO,
        };
        4
    ]);
    check_model(&one_hot_model(act, bn, None));
}

/// Tanh variant of the QUAN path.
#[test]
fn hidden_tanh_path() {
    let act = LayerActivation::Tanh {
        quant: QuantParams::from_f64(1.5, 1.5),
    };
    check_model(&one_hot_model(act, None, Some(vec![0; 4])));
}

/// Pink path with hardware BN on the output layer.
#[test]
fn output_hardware_bn_path() {
    let act = LayerActivation::MultiThreshold {
        thresholds: [Fix::from_i32(1), Fix::from_i32(3), Fix::from_i32(5)].repeat(4),
    };
    let mut m = one_hot_model(act, None, Some(vec![0; 4]));
    m.output.bias = None;
    m.output.bn = Some(vec![
        BnParams {
            scale_q16: Fix::q16_scale_from_f64(2.0),
            offset: Fix::from_f64(-1.0),
        },
        BnParams {
            scale_q16: Fix::q16_scale_from_f64(2.0),
            offset: Fix::from_f64(1.0),
        },
    ]);
    check_model(&m);
}

/// Yellow path with Sign input quantization (BNN input layer).
#[test]
fn input_sign_path() {
    let mut m = one_hot_model(
        LayerActivation::Sign {
            thresholds: vec![Fix::ZERO; 4],
        },
        None,
        Some(vec![0; 4]),
    );
    m.input.out_precision = Precision::W1;
    m.input.activation = LayerActivation::Sign {
        thresholds: vec![Fix::from_i32(128); 8],
    };
    m.hidden[0].in_precision = Precision::W1;
    m.hidden[0].weight_precision = Precision::W1;
    m.hidden[0].out_precision = Precision::W1;
    m.hidden[0].weights = m.hidden[0]
        .weights
        .iter()
        .map(|&w| if w > 0 { 1 } else { -1 })
        .collect();
    m.output.weight_precision = Precision::W1;
    m.output.in_precision = Precision::W1;
    m.output.weights = vec![1, 1, -1, -1, -1, -1, 1, 1];
    check_model(&m);
}
