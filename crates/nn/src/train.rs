//! SGD training with quantization-aware forward passes.
//!
//! Standard momentum SGD over softmax cross-entropy. The forward pass
//! fake-quantizes weights and activations (see [`crate::float`]);
//! gradients flow through straight-through estimators. BatchNorm trains
//! `γ`/`β` with batch statistics treated as constants in the backward
//! pass (the usual lightweight approximation), and `γ` is clamped
//! positive so threshold folding preserves comparison direction at
//! export (Eq. 3's division by `γ`).

use crate::dataset::Dataset;
use crate::float::{quantize_activations, quantize_input, quantize_weights, FloatMlp};
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Multiplicative learning-rate decay per epoch.
    pub lr_decay: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// Early stopping: stop when the epoch loss has not improved by at
    /// least 0.1% for this many consecutive epochs (`None` disables).
    pub patience: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            epochs: 15,
            batch_size: 32,
            lr: 0.1,
            momentum: 0.9,
            lr_decay: 0.9,
            seed: 0xD1617,
            patience: None,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean cross-entropy loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy after the final epoch.
    pub final_train_accuracy: f64,
    /// `true` when early stopping (patience ran out) ended training.
    pub stopped_early: bool,
}

/// Lower bound on BN γ: keeps the export-time threshold fold well posed.
const GAMMA_FLOOR: f32 = 0.01;

struct LayerCache {
    a_prev: Matrix,
    wq: Matrix,
    znorm: Option<Matrix>,
    inv_std: Vec<f32>,
    mask: Matrix,
}

struct Velocity {
    w: Matrix,
    b: Vec<f32>,
    gamma: Vec<f32>,
    beta: Vec<f32>,
}

/// Builds the input batch matrix for the listed example indices.
fn batch_inputs(mlp: &FloatMlp, data: &Dataset, idx: &[usize]) -> Matrix {
    let cols = mlp.spec.input_len;
    let mut x = Matrix::zeros(idx.len(), cols);
    for (r, &i) in idx.iter().enumerate() {
        let q = quantize_input(&data.examples[i].pixels, mlp.spec.input_act);
        x.row_mut(r).copy_from_slice(&q);
    }
    x
}

/// Training-mode forward pass: returns logits and per-layer caches.
fn forward_train(mlp: &mut FloatMlp, x: &Matrix) -> (Matrix, Vec<LayerCache>) {
    let mut caches = Vec::with_capacity(mlp.layers.len());
    let mut a = x.clone();
    for layer in &mut mlp.layers {
        let (wq, _) = quantize_weights(&layer.w, layer.spec.weight_bits);
        let mut z = a.matmul_t(&wq);
        let n = z.rows() as f32;
        let mut znorm = None;
        let mut inv_std = Vec::new();
        if let Some(bn) = &mut layer.bn {
            let neurons = z.cols();
            let mut mean = vec![0.0f32; neurons];
            let mut var = vec![0.0f32; neurons];
            for r in 0..z.rows() {
                for (j, &v) in z.row(r).iter().enumerate() {
                    mean[j] += v;
                }
            }
            for m in mean.iter_mut() {
                *m /= n;
            }
            for r in 0..z.rows() {
                for (j, &v) in z.row(r).iter().enumerate() {
                    var[j] += (v - mean[j]) * (v - mean[j]);
                }
            }
            for v in var.iter_mut() {
                *v /= n;
            }
            inv_std = var.iter().map(|&v| (v + bn.eps).sqrt().recip()).collect();
            let mut zn = Matrix::zeros(z.rows(), neurons);
            for r in 0..z.rows() {
                for j in 0..neurons {
                    let norm = (z.get(r, j) - mean[j]) * inv_std[j];
                    zn.set(r, j, norm);
                    z.set(r, j, bn.gamma[j] * norm + bn.beta[j]);
                }
            }
            for j in 0..neurons {
                bn.running_mean[j] =
                    (1.0 - bn.momentum) * bn.running_mean[j] + bn.momentum * mean[j];
                bn.running_var[j] = (1.0 - bn.momentum) * bn.running_var[j] + bn.momentum * var[j];
            }
            znorm = Some(zn);
        } else {
            for r in 0..z.rows() {
                for (j, v) in z.row_mut(r).iter_mut().enumerate() {
                    *v += layer.b[j];
                }
            }
        }
        let mask = quantize_activations(&mut z, layer.spec.act);
        caches.push(LayerCache {
            a_prev: a,
            wq,
            znorm,
            inv_std,
            mask,
        });
        a = z;
    }
    (a, caches)
}

/// Softmax cross-entropy: returns (mean loss, dLogits).
fn softmax_ce(logits: &Matrix, labels: &[u8]) -> (f32, Matrix) {
    let n = logits.rows();
    let mut grad = Matrix::zeros(n, logits.cols());
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        let maxv = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f32> = row.iter().map(|&v| (v - maxv).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let label = label as usize;
        loss += -(exps[label] / sum).max(1e-12).ln();
        for (j, &e) in exps.iter().enumerate() {
            let p = e / sum;
            grad.set(r, j, (p - f32::from(j == label)) / n as f32);
        }
    }
    (loss / n as f32, grad)
}

/// Runs momentum SGD over the dataset, mutating `mlp` in place.
pub fn train(mlp: &mut FloatMlp, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut velocities: Vec<Velocity> = mlp
        .layers
        .iter()
        .map(|l| Velocity {
            w: Matrix::zeros(l.w.rows(), l.w.cols()),
            b: vec![0.0; l.b.len()],
            gamma: vec![0.0; l.bn.as_ref().map_or(0, |bn| bn.gamma.len())],
            beta: vec![0.0; l.bn.as_ref().map_or(0, |bn| bn.beta.len())],
        })
        .collect();

    let mut report = TrainReport::default();
    let mut lr = cfg.lr;
    let mut indices: Vec<usize> = (0..data.len()).collect();

    for _epoch in 0..cfg.epochs {
        indices.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in indices.chunks(cfg.batch_size) {
            let x = batch_inputs(mlp, data, chunk);
            let labels: Vec<u8> = chunk.iter().map(|&i| data.examples[i].label).collect();
            let (logits, caches) = forward_train(mlp, &x);
            let (loss, dlogits) = softmax_ce(&logits, &labels);
            epoch_loss += loss;
            batches += 1;

            // Backward pass.
            let mut d_a = dlogits;
            for (li, cache) in caches.iter().enumerate().rev() {
                let layer = &mut mlp.layers[li];
                let vel = &mut velocities[li];
                // STE through the activation quantizer.
                let mut dz = d_a;
                dz.hadamard_inplace(&cache.mask);
                // BN backward (batch stats as constants).
                if let Some(bn) = &mut layer.bn {
                    let znorm = cache.znorm.as_ref().expect("BN cache");
                    let mut dgamma = vec![0.0f32; bn.gamma.len()];
                    let mut dbeta = vec![0.0f32; bn.beta.len()];
                    for r in 0..dz.rows() {
                        for (j, &g) in dz.row(r).iter().enumerate() {
                            dgamma[j] += g * znorm.get(r, j);
                            dbeta[j] += g;
                        }
                    }
                    for r in 0..dz.rows() {
                        for (j, v) in dz.row_mut(r).iter_mut().enumerate() {
                            *v *= bn.gamma[j] * cache.inv_std[j];
                        }
                    }
                    for j in 0..bn.gamma.len() {
                        vel.gamma[j] = cfg.momentum * vel.gamma[j] - lr * dgamma[j];
                        vel.beta[j] = cfg.momentum * vel.beta[j] - lr * dbeta[j];
                        bn.gamma[j] = (bn.gamma[j] + vel.gamma[j]).max(GAMMA_FLOOR);
                        bn.beta[j] += vel.beta[j];
                    }
                } else {
                    let db = dz.col_sums();
                    for (j, d) in db.iter().enumerate() {
                        vel.b[j] = cfg.momentum * vel.b[j] - lr * d;
                        layer.b[j] += vel.b[j];
                    }
                }
                // Weight gradient and input gradient (STE through the
                // weight quantizer: gradient lands on the master weights).
                let dw = dz.t_matmul(&cache.a_prev);
                d_a = dz.matmul(&cache.wq);
                vel.w.map_inplace(|v| v * cfg.momentum);
                vel.w.axpy_inplace(-lr, &dw);
                layer.w.axpy_inplace(1.0, &vel.w);
                // Keep master weights bounded so binarization scales stay
                // meaningful (standard BNN practice).
                layer.w.map_inplace(|v| v.clamp(-1.5, 1.5));
            }
        }
        report.epoch_losses.push(epoch_loss / batches.max(1) as f32);
        lr *= cfg.lr_decay;

        // Early stopping on stalled training loss.
        if let Some(patience) = cfg.patience {
            let losses = &report.epoch_losses;
            if losses.len() > patience {
                let best_before = losses[..losses.len() - patience]
                    .iter()
                    .fold(f32::INFINITY, |m, &v| m.min(v));
                let best_recent = losses[losses.len() - patience..]
                    .iter()
                    .fold(f32::INFINITY, |m, &v| m.min(v));
                if best_recent > best_before * 0.999 {
                    report.stopped_early = true;
                    break;
                }
            }
        }
    }

    report.final_train_accuracy = accuracy(mlp, data);
    report
}

/// Inference-mode accuracy of the float model over a dataset.
pub fn accuracy(mlp: &FloatMlp, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for chunk in data.examples.chunks(256) {
        let mut x = Matrix::zeros(chunk.len(), mlp.spec.input_len);
        for (r, e) in chunk.iter().enumerate() {
            let q = quantize_input(&e.pixels, mlp.spec.input_act);
            x.row_mut(r).copy_from_slice(&q);
        }
        let preds = mlp.predict(&x);
        correct += preds
            .iter()
            .zip(chunk)
            .filter(|(&p, e)| p == e.label as usize)
            .count();
    }
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;
    use crate::float::{ActSpec, LayerSpec, MlpSpec};

    fn small_spec(input_act: ActSpec, hidden_act: ActSpec, wbits: u8) -> MlpSpec {
        MlpSpec {
            name: "test".into(),
            input_len: dataset::IMAGE_PIXELS,
            input_act,
            layers: vec![
                LayerSpec {
                    neurons: 32,
                    weight_bits: wbits,
                    act: hidden_act,
                    batch_norm: true,
                },
                LayerSpec {
                    neurons: 10,
                    weight_bits: wbits,
                    act: ActSpec::None,
                    batch_norm: true,
                },
            ],
        }
    }

    #[test]
    fn softmax_ce_gradient_sums_to_zero() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 0.5, -1.0, 0.0, 1.0]);
        let (loss, grad) = softmax_ce(&logits, &[1, 2]);
        assert!(loss > 0.0);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn loss_decreases_on_quantized_training() {
        let (train_ds, _) = dataset::standard_splits(300, 0, 42);
        let mut mlp = FloatMlp::init(
            small_spec(ActSpec::Hwgq { bits: 2 }, ActSpec::Hwgq { bits: 2 }, 2),
            7,
        );
        let report = train(
            &mut mlp,
            &train_ds,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        );
        assert!(report.epoch_losses.first().unwrap() > report.epoch_losses.last().unwrap());
    }

    #[test]
    fn binarized_model_learns_the_synthetic_digits() {
        let (train_ds, test_ds) = dataset::easy_splits(800, 200, 9);
        let mut mlp = FloatMlp::init(small_spec(ActSpec::Sign, ActSpec::Sign, 1), 5);
        train(
            &mut mlp,
            &train_ds,
            &TrainConfig {
                epochs: 8,
                ..TrainConfig::default()
            },
        );
        let acc = accuracy(&mlp, &test_ds);
        assert!(acc > 0.7, "binary model accuracy too low: {acc}");
    }

    #[test]
    fn two_bit_model_learns_better_than_chance() {
        let (train_ds, test_ds) = dataset::easy_splits(800, 200, 21);
        let mut mlp = FloatMlp::init(
            small_spec(ActSpec::Hwgq { bits: 2 }, ActSpec::Hwgq { bits: 2 }, 2),
            11,
        );
        train(
            &mut mlp,
            &train_ds,
            &TrainConfig {
                epochs: 8,
                lr: 0.05,
                ..TrainConfig::default()
            },
        );
        let acc = accuracy(&mlp, &test_ds);
        assert!(acc > 0.7, "2-bit model accuracy too low: {acc}");
    }

    #[test]
    fn early_stopping_triggers_on_stalled_loss() {
        // An easily-learned task: loss bottoms out quickly; with
        // patience the run must stop well before the epoch budget.
        let (train_ds, _) = dataset::easy_splits(400, 0, 2);
        let mut mlp = FloatMlp::init(
            small_spec(ActSpec::Hwgq { bits: 2 }, ActSpec::Hwgq { bits: 2 }, 2),
            3,
        );
        let report = train(
            &mut mlp,
            &train_ds,
            &TrainConfig {
                epochs: 60,
                patience: Some(3),
                ..TrainConfig::default()
            },
        );
        assert!(report.stopped_early, "expected early stop");
        assert!(
            report.epoch_losses.len() < 60,
            "ran all {} epochs",
            report.epoch_losses.len()
        );
        // And without patience, all epochs run.
        let mut mlp2 = FloatMlp::init(
            small_spec(ActSpec::Hwgq { bits: 2 }, ActSpec::Hwgq { bits: 2 }, 2),
            3,
        );
        let full = train(
            &mut mlp2,
            &train_ds,
            &TrainConfig {
                epochs: 5,
                patience: None,
                ..TrainConfig::default()
            },
        );
        assert!(!full.stopped_early);
        assert_eq!(full.epoch_losses.len(), 5);
    }

    #[test]
    fn training_is_deterministic() {
        let (train_ds, _) = dataset::standard_splits(100, 0, 3);
        let spec = small_spec(ActSpec::Hwgq { bits: 2 }, ActSpec::Hwgq { bits: 2 }, 2);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let mut a = FloatMlp::init(spec.clone(), 1);
        let mut b = FloatMlp::init(spec, 1);
        let ra = train(&mut a, &train_ds, &cfg);
        let rb = train(&mut b, &train_ds, &cfg);
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
        assert_eq!(a.layers[0].w, b.layers[0].w);
    }
}
