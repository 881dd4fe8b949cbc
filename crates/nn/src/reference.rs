//! Bit-exact software reference inference for a [`QuantMlp`].
//!
//! This walks the exact arithmetic the TNPU datapath performs — integer
//! MAC into a saturating 32-bit accumulator, optional fixed-point BN,
//! fixed-point activation, quantization — without modelling any timing.
//! `netpu-core`'s cycle-level model is tested for *bit-exact agreement*
//! with this module on every layer output, which is what ties the
//! latency model to a functionally correct datapath.

use crate::kernel::WeightRows;
use crate::qmodel::{threshold_level, HiddenLayer, LayerActivation, OutputLayer, QuantMlp};
use netpu_arith::{bitslice, cast, Fix};

pub use crate::kernel::PackedMlp;

/// Saturating 32-bit accumulation, as the ACCU submodule's 32-bit output
/// register behaves (§III.B.1: 32-bit output supports ≥ 2^16 inputs).
/// Public so the translation validator (`netpu-check::symex`) can reuse
/// the exact ACCU semantics when probing output-score affines.
#[inline]
pub fn accumulate(acc: i32, term: i64) -> i32 {
    cast::i32_sat(i64::from(acc).saturating_add(term))
}

/// Computes one FC neuron's accumulator value: `Σ wᵢ·aᵢ (+ bias)`.
///
/// Activation inputs are unsigned levels for multi-bit precision and
/// bipolar ±1 for binary; weights are signed integers (bipolar ±1 for
/// binary). The XNOR path and the integer path produce identical sums by
/// construction (Table I), so one MAC loop serves both.
#[inline]
pub fn neuron_accumulate(weights: &[i8], inputs: &[i32], bias: Option<i32>) -> i32 {
    debug_assert_eq!(weights.len(), inputs.len());
    let mut acc: i32 = 0;
    for (&w, &a) in weights.iter().zip(inputs) {
        acc = accumulate(acc, i64::from(w) * i64::from(a));
    }
    if let Some(b) = bias {
        acc = accumulate(acc, i64::from(b));
    }
    acc
}

/// Applies the post-accumulator stages of one neuron: optional hardware
/// BN, then activation (+ quantization). Returns the next-layer level —
/// unsigned for multi-bit outputs, 0/1 for Sign (decode with
/// [`netpu_arith::binary::decode_bipolar`] before feeding a binary MAC).
pub fn neuron_post(
    layer_act: &LayerActivation,
    bn: Option<crate::qmodel::BnParams>,
    neuron: usize,
    acc: i32,
    out: netpu_arith::Precision,
) -> i32 {
    let mut x = Fix::from_i32(acc);
    if let Some(p) = bn {
        x = p.apply(x);
    }
    layer_act.apply(neuron, x, out)
}

/// Converts a layer's output levels into the value domain the next MAC
/// consumes: bipolar ±1 when the producing precision is binary, the
/// unsigned level otherwise.
pub fn to_mac_domain(levels: &[i32], precision: netpu_arith::Precision) -> Vec<i32> {
    if precision.is_binary() {
        levels
            .iter()
            .map(|&b| netpu_arith::binary::decode_bipolar(cast::lo8(cast::bits_of_i32(b))))
            .collect()
    } else {
        levels.to_vec()
    }
}

/// Runs the input layer over the raw 8-bit dataset inputs, producing
/// quantized levels at the first hidden precision. A Multi-Threshold
/// layer compares pixel `i` against row `i` of its flat threshold array,
/// walking the rows in step with the pixels.
pub fn run_input_layer(mlp: &QuantMlp, pixels: &[u8]) -> Vec<i32> {
    assert_eq!(pixels.len(), mlp.input.len, "input length mismatch");
    let input = &mlp.input;
    let fix = |p: u8| Fix::from_i32(i32::from(p));
    if let LayerActivation::MultiThreshold { thresholds } = &input.activation {
        let count = input.out_precision.multi_threshold_count();
        return pixels
            .iter()
            .zip(thresholds.chunks_exact(count))
            .map(|(&p, row)| threshold_level(row, fix(p)))
            .collect();
    }
    pixels
        .iter()
        .enumerate()
        .map(|(i, &p)| input.activation.apply(i, fix(p), input.out_precision))
        .collect()
}

/// Runs one hidden layer over the previous layer's output levels.
pub fn run_hidden_layer(layer: &HiddenLayer, prev_levels: &[i32]) -> Vec<i32> {
    let inputs = to_mac_domain(prev_levels, layer.in_precision);
    (0..layer.neurons)
        .map(|n| {
            let w = &layer.weights[n * layer.in_len..(n + 1) * layer.in_len];
            let bias = layer.bias.as_ref().map(|b| b[n]);
            let acc = neuron_accumulate(w, &inputs, bias);
            let bn = layer.bn.as_ref().map(|p| p[n]);
            neuron_post(&layer.activation, bn, n, acc, layer.out_precision)
        })
        .collect()
}

/// Runs the output layer, producing the raw per-class scores the MaxOut
/// stage compares. Scores are in the fixed-point domain when hardware BN
/// is configured; we return the raw fixed-point words so MaxOut
/// comparisons are exact.
pub fn run_output_layer(layer: &OutputLayer, prev_levels: &[i32]) -> Vec<Fix> {
    let inputs = to_mac_domain(prev_levels, layer.in_precision);
    (0..layer.neurons)
        .map(|n| {
            let w = &layer.weights[n * layer.in_len..(n + 1) * layer.in_len];
            let bias = layer.bias.as_ref().map(|b| b[n]);
            let acc = neuron_accumulate(w, &inputs, bias);
            let mut x = Fix::from_i32(acc);
            if let Some(p) = layer.bn.as_ref() {
                x = p[n].apply(x);
            }
            x
        })
        .collect()
}

/// The MaxOut classifier: index of the maximum score, lowest index on
/// ties (the hardware scans output neurons in order and only replaces the
/// running maximum on a strictly greater score).
pub fn maxout(scores: &[Fix]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

/// Full inference result with per-layer observability for cross-checks.
#[derive(Clone, Debug, PartialEq)]
pub struct InferenceTrace {
    /// Quantized input-layer output levels.
    pub input_levels: Vec<i32>,
    /// Each hidden layer's output levels.
    pub hidden_levels: Vec<Vec<i32>>,
    /// Output-layer scores.
    pub scores: Vec<Fix>,
    /// Predicted class.
    pub class: usize,
}

/// Runs the full model on one example, keeping every intermediate.
pub fn infer_traced(mlp: &QuantMlp, pixels: &[u8]) -> InferenceTrace {
    let input_levels = run_input_layer(mlp, pixels);
    let mut hidden_levels = Vec::with_capacity(mlp.hidden.len());
    let mut cur = input_levels.clone();
    for layer in &mlp.hidden {
        cur = run_hidden_layer(layer, &cur);
        hidden_levels.push(cur.clone());
    }
    let scores = run_output_layer(&mlp.output, &cur);
    let class = maxout(&scores);
    InferenceTrace {
        input_levels,
        hidden_levels,
        scores,
        class,
    }
}

/// Runs the full model on one example, returning only the predicted class.
pub fn infer(mlp: &QuantMlp, pixels: &[u8]) -> usize {
    infer_traced(mlp, pixels).class
}

/// One image's outputs from a bitsliced slab inference: exactly the
/// observable results of [`infer_traced`] (per-class scores and the
/// MaxOut class), without the per-layer intermediates.
#[derive(Clone, Debug, PartialEq)]
pub struct SlabOutput {
    /// Predicted class.
    pub class: usize,
    /// Output-layer scores, in the same fixed-point domain as
    /// [`InferenceTrace::scores`].
    pub scores: Vec<Fix>,
}

/// Accumulates neuron `n`'s bitsliced dot product into `counter`: one
/// XNOR of the channel's 64-image lane against the broadcast weight
/// bit per channel, weights drawn bit-serially from the packed rows.
#[inline]
fn slab_dot(rows: &WeightRows, n: usize, lanes: &[u64], counter: &mut bitslice::LaneCounter) {
    counter.accumulate_xnor_row(lanes, rows.row(n), rows.in_len());
}

/// A [`QuantMlp`] prepared for **batch-major bitsliced** inference:
/// the same input bit of up to 64 images shares one `u64` lane
/// ([`netpu_arith::bitslice`]), so a whole slab advances through each
/// layer with one XNOR + vertical popcount per weight bit instead of
/// 64 separate dot products.
///
/// Only *fully binary* models qualify ([`QuantMlp::is_fully_binary`]):
/// every MAC must be the ±1 XNOR pairing for the lane products to be
/// single bits. [`BitslicedMlp::new`] returns `None` otherwise and the
/// caller falls back to [`PackedMlp`].
///
/// Layout choices worth noting:
///
/// * The transpose-in shim runs **once**, on the input-layer levels.
///   Between binary layers no transpose is needed at all — neuron
///   `n`'s 64 per-image output bits *are* lane `n` of the next layer.
/// * Slabs shorter than 64 images need no masking: image slots
///   `>= batch` hold junk bits that are simply never read (per-image
///   results are independent by construction).
/// * Cycle *counts* are not modelled here — values only. Callers pair
///   the slab values with one phase-skipping cycle-model run (latency
///   is input-independent per model), the counts-vs-values split of
///   `netpu_core::batch`.
///
/// Results are **bit-identical** to [`infer_traced`]: the dot product
/// is the same Table I identity (a ±1 dot product is bounded by the
/// fan-in, so the saturating accumulator never clamps), and the
/// post-accumulator stages reuse [`neuron_post`] per image.
pub struct BitslicedMlp<'a> {
    mlp: &'a QuantMlp,
    hidden: Vec<WeightRows>,
    output: WeightRows,
}

impl<'a> BitslicedMlp<'a> {
    /// Packs every layer of a fully binary `mlp` once; `None` when any
    /// MAC is not the ±1 XNOR pairing.
    pub fn new(mlp: &'a QuantMlp) -> Option<BitslicedMlp<'a>> {
        if !mlp.is_fully_binary() {
            return None;
        }
        let hidden = mlp
            .hidden
            .iter()
            .map(|l| WeightRows::pack_xnor(&l.weights, l.neurons, l.in_len))
            .collect::<Option<Vec<_>>>()?;
        let output =
            WeightRows::pack_xnor(&mlp.output.weights, mlp.output.neurons, mlp.output.in_len)?;
        Some(BitslicedMlp {
            mlp,
            hidden,
            output,
        })
    }

    /// Runs one slab of 1..=64 frames through the whole model,
    /// returning per-image outputs in frame order.
    pub fn infer_slab(&self, frames: &[Vec<u8>]) -> Vec<SlabOutput> {
        let n = frames.len();
        assert!(
            (1..=bitslice::LANE_WIDTH).contains(&n),
            "a slab holds 1..=64 frames"
        );
        // Input layer per image (8-bit pixels cannot be bitsliced),
        // then one transpose-in: channel lanes of the first MAC.
        let rows: Vec<Vec<u64>> = frames
            .iter()
            .map(|px| netpu_arith::quant::pack_binary_channels(&run_input_layer(self.mlp, px)))
            .collect();
        let mut lanes = bitslice::transpose_in(&rows, self.mlp.input.len);

        for (layer, rows) in self.mlp.hidden.iter().zip(&self.hidden) {
            let mut out_lanes = vec![0u64; layer.neurons];
            for (ni, out) in out_lanes.iter_mut().enumerate() {
                let mut counter = bitslice::LaneCounter::new();
                slab_dot(rows, ni, &lanes, &mut counter);
                let bias = layer.bias.as_ref().map(|b| b[ni]);
                let bn = layer.bn.as_ref().map(|p| p[ni]);
                let sums = counter.signed_sums();
                for (i, &sum) in sums.iter().enumerate().take(n) {
                    let mut acc = sum;
                    if let Some(b) = bias {
                        acc = accumulate(acc, i64::from(b));
                    }
                    let level = neuron_post(&layer.activation, bn, ni, acc, layer.out_precision);
                    // The per-image Sign bit goes straight into lane
                    // `ni` of the next layer: no transpose needed.
                    *out |= u64::from(netpu_arith::binary::encode_bipolar(level)) << i;
                }
            }
            lanes = out_lanes;
        }

        let o = &self.mlp.output;
        let mut scores = vec![Vec::with_capacity(o.neurons); n];
        for ni in 0..o.neurons {
            let mut counter = bitslice::LaneCounter::new();
            slab_dot(&self.output, ni, &lanes, &mut counter);
            let bias = o.bias.as_ref().map(|b| b[ni]);
            let bn = o.bn.as_ref().map(|p| p[ni]);
            let sums = counter.signed_sums();
            for (i, s) in scores.iter_mut().enumerate() {
                let mut acc = sums[i];
                if let Some(b) = bias {
                    acc = accumulate(acc, i64::from(b));
                }
                let mut v = Fix::from_i32(acc);
                if let Some(p) = bn {
                    v = p.apply(v);
                }
                s.push(v);
            }
        }
        scores
            .into_iter()
            .map(|scores| SlabOutput {
                class: maxout(&scores),
                scores,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmodel::{BnParams, InputLayer, QuantMlp};
    use netpu_arith::{Precision, QuantParams};

    fn tiny() -> QuantMlp {
        crate::qmodel::tests::tiny_model()
    }

    #[test]
    fn accumulate_saturates_at_i32() {
        assert_eq!(accumulate(i32::MAX, 10), i32::MAX);
        assert_eq!(accumulate(i32::MIN, -10), i32::MIN);
        assert_eq!(accumulate(5, -3), 2);
    }

    #[test]
    fn neuron_accumulate_dot_product() {
        assert_eq!(neuron_accumulate(&[1, -2, 3], &[4, 5, 6], None), 12);
        assert_eq!(neuron_accumulate(&[1, -2, 3], &[4, 5, 6], Some(-12)), 0);
    }

    #[test]
    fn binary_mac_matches_xnor_popcount() {
        // Weights/inputs ±1: the plain MAC must equal XNOR+popcount.
        let w: [i8; 8] = [1, -1, 1, 1, -1, -1, 1, -1];
        let a = [-1, -1, 1, -1, 1, -1, 1, 1];
        let wa_bits: u8 = w
            .iter()
            .enumerate()
            .map(|(i, &v)| netpu_arith::binary::encode_bipolar(i32::from(v)) << i)
            .sum();
        let aa_bits: u8 = a
            .iter()
            .enumerate()
            .map(|(i, &v)| netpu_arith::binary::encode_bipolar(v) << i)
            .sum();
        assert_eq!(
            neuron_accumulate(&w, &a, None),
            netpu_arith::binary::binary_dot8(wa_bits, aa_bits, 8)
        );
    }

    #[test]
    fn to_mac_domain_decodes_binary() {
        assert_eq!(to_mac_domain(&[1, 0, 1], Precision::W1), vec![1, -1, 1]);
        assert_eq!(to_mac_domain(&[1, 0, 3], Precision::W2), vec![1, 0, 3]);
    }

    #[test]
    fn maxout_prefers_first_on_tie() {
        let s = vec![Fix::from_i32(3), Fix::from_i32(5), Fix::from_i32(5)];
        assert_eq!(maxout(&s), 1);
        assert_eq!(maxout(&[Fix::ZERO]), 0);
    }

    #[test]
    fn tiny_model_end_to_end_is_deterministic() {
        let m = tiny();
        let trace = infer_traced(&m, &[10, 200, 30, 250]);
        assert_eq!(trace.input_levels.len(), 4);
        assert_eq!(trace.hidden_levels[0].len(), 3);
        assert_eq!(trace.scores.len(), 2);
        assert_eq!(infer(&m, &[10, 200, 30, 250]), trace.class);
        // Levels respect the layer's 2-bit output precision.
        assert!(trace.input_levels.iter().all(|&v| (0..=3).contains(&v)));
        assert!(trace.hidden_levels[0].iter().all(|&v| (0..=3).contains(&v)));
    }

    #[test]
    fn input_layer_thresholds_quantize_pixels() {
        let m = tiny();
        // Thresholds at 32/96/160 integer units → pixel 10 → level 0,
        // pixel 100 → level 2, pixel 250 → level 3.
        let levels = run_input_layer(&m, &[10, 100, 250, 0]);
        assert_eq!(levels, vec![0, 2, 3, 0]);
    }

    #[test]
    fn hardware_bn_changes_scores() {
        let mut m = tiny();
        m.output.bias = None;
        m.output.bn = Some(vec![
            BnParams {
                scale_q16: Fix::q16_scale_from_f64(1.0),
                offset: Fix::from_f64(100.0),
            },
            BnParams::IDENTITY,
        ]);
        m.validate().unwrap();
        let t = infer_traced(&m, &[0, 0, 0, 0]);
        // Class 0 got +100 offset: must win.
        assert_eq!(t.class, 0);
    }

    #[test]
    fn relu_quan_path_produces_unsigned_levels() {
        let mut m = tiny();
        m.hidden[0].activation = LayerActivation::Relu {
            quant: QuantParams::from_f64(0.5, 0.0),
        };
        m.validate().unwrap();
        let t = infer_traced(&m, &[255, 255, 255, 255]);
        assert!(t.hidden_levels[0].iter().all(|&v| (0..=3).contains(&v)));
    }

    #[test]
    fn bitsliced_mlp_is_bit_exact_across_slab_widths() {
        // Batch sizes straddling the transpose/tail boundaries: every
        // image's class and scores must equal the per-frame reference.
        let m = crate::zoo::ZooModel::TfcW1A1
            .build_untrained(23, crate::export::BnMode::Folded)
            .unwrap();
        let sliced = BitslicedMlp::new(&m).expect("TfcW1A1 is fully binary");
        for batch in [1usize, 2, 17, 63, 64] {
            let frames: Vec<Vec<u8>> = (0..batch)
                .map(|f| {
                    (0..m.input.len)
                        .map(|i| ((i * 37 + f * 11 + 5) % 256) as u8)
                        .collect()
                })
                .collect();
            let outs = sliced.infer_slab(&frames);
            assert_eq!(outs.len(), batch);
            for (out, px) in outs.iter().zip(&frames) {
                let trace = infer_traced(&m, px);
                assert_eq!(out.class, trace.class, "batch {batch}");
                assert_eq!(out.scores, trace.scores, "batch {batch}");
            }
        }
    }

    #[test]
    fn bitsliced_mlp_rejects_multibit_models() {
        let m = crate::zoo::ZooModel::TfcW2A2
            .build_untrained(9, crate::export::BnMode::Hardware)
            .unwrap();
        assert!(BitslicedMlp::new(&m).is_none());
        // And the tiny mixed-precision model.
        assert!(BitslicedMlp::new(&tiny()).is_none());
    }

    #[test]
    fn fully_binary_model_runs() {
        // Build a 4-input, 2-hidden-neuron, 2-class BNN.
        let m = QuantMlp {
            name: "bnn".into(),
            input: InputLayer {
                len: 4,
                out_precision: Precision::W1,
                activation: LayerActivation::Sign {
                    thresholds: vec![Fix::from_i32(128); 4],
                },
            },
            hidden: vec![crate::qmodel::HiddenLayer {
                in_len: 4,
                neurons: 2,
                weight_precision: Precision::W1,
                in_precision: Precision::W1,
                out_precision: Precision::W1,
                weights: vec![1, -1, 1, -1, -1, 1, -1, 1],
                bias: Some(vec![0, 0]),
                bn: None,
                activation: LayerActivation::Sign {
                    thresholds: vec![Fix::ZERO; 2],
                },
            }],
            output: OutputLayer {
                in_len: 2,
                neurons: 2,
                weight_precision: Precision::W1,
                in_precision: Precision::W1,
                weights: vec![1, -1, -1, 1],
                bias: Some(vec![0, 0]),
                bn: None,
            },
        };
        m.validate().unwrap();
        assert!(m.is_fully_binary());
        // Pixels ≥128 → +1; pattern (+1,−1,+1,−1) matches neuron 0 → class 0.
        assert_eq!(infer(&m, &[200, 10, 200, 10]), 0);
        // Inverted pattern → class 1.
        assert_eq!(infer(&m, &[10, 200, 10, 200]), 1);
    }
}
