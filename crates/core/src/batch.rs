//! The batch fast path: cycle **counts** from the phase-skipping
//! simulation, **values** from the batch-major bitsliced kernel.
//!
//! The accelerator's latency is input-independent for a fixed model
//! (enforced by the workspace property suite), so a batch needs the
//! cycle model exactly once: one [`run_inference_fast`] run supplies
//! the cycle count, latency, and [`NetPuStats`](crate::netpu::NetPuStats)
//! breakdown for every frame — keeping the differential cycle-exactness
//! suite the oracle for timing. The numeric results per frame then come
//! from the cheapest bit-exact kernel available:
//!
//! * fully binary models ride [`BitslicedMlp`] — 64 images per `u64`
//!   lane, one XNOR + vertical popcount per weight bit for the whole
//!   slab ([`netpu_arith::bitslice`]);
//! * anything else falls back to the per-frame [`PackedMlp`] walk.
//!
//! Both kernels are bit-identical to the cycle-level datapath, so a
//! [`run_batch_fast`] result is indistinguishable from running
//! [`run_inference_fast`] once per frame — at a fraction of the cost.

use crate::config::HwConfig;
use crate::netpu::{run_inference_fast, InferenceRun, NetPuError};
use netpu_compiler::StreamError;
use netpu_nn::reference::{BitslicedMlp, PackedMlp, SlabOutput};
use netpu_nn::QuantMlp;

/// Frames per bitsliced slab (one `u64` lane of images).
pub const SLAB_WIDTH: usize = netpu_arith::bitslice::LANE_WIDTH;

/// How a batch decomposed across the two value kernels: full
/// [`SLAB_WIDTH`]-image slabs swept through the bitsliced kernel, and
/// frames that took the per-frame packed walk instead (the sub-slab
/// tail of a bitsliced batch, or *every* frame of a model the bitsliced
/// kernel does not admit). Serving-layer occupancy metrics consume this
/// so the fallback path is counted the same way wherever it runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabBreakdown {
    /// Full 64-image slabs that actually ran on the bitsliced kernel.
    pub slabs_full: usize,
    /// Frames that ran on the per-frame packed fallback walk.
    pub fallback_frames: usize,
}

impl SlabBreakdown {
    /// The fallback frames expressed in slab-equivalents
    /// (`ceil(fallback_frames / SLAB_WIDTH)`): how many under-occupied
    /// slab sweeps the same frames *would* have cost the bitsliced
    /// kernel. This is the unit the serving layer's
    /// `slabs_partial` counter accumulates, so a 3-frame bitsliced
    /// tail and a 3-frame fallback-only batch count identically.
    pub fn partial_slab_equivalents(&self) -> usize {
        self.fallback_frames.div_ceil(SLAB_WIDTH)
    }
}

/// A model prepared for repeated batch-value computation: the
/// bitsliced kernel when the model is fully binary, the packed
/// per-frame walk otherwise. This is the *values* half of the
/// counts-vs-values split; timing lives with the caller's one
/// cycle-model run.
pub struct BatchEngine<'m> {
    sliced: Option<BitslicedMlp<'m>>,
    packed: PackedMlp<'m>,
}

impl<'m> BatchEngine<'m> {
    /// Prepares `model`'s kernels once for a whole batch.
    pub fn new(model: &'m QuantMlp) -> BatchEngine<'m> {
        BatchEngine {
            sliced: BitslicedMlp::new(model),
            packed: PackedMlp::new(model),
        }
    }

    /// `true` when the batch-major bitsliced kernel is active (the
    /// model is fully binary).
    pub fn is_bitsliced(&self) -> bool {
        self.sliced.is_some()
    }

    /// The chunk width a batch sweep should use: full 64-image slabs
    /// on the bitsliced kernel; single frames on the per-frame
    /// fallback, where larger chunks would only serialize work that
    /// parallelizes per frame.
    pub fn chunk_width(&self) -> usize {
        if self.sliced.is_some() {
            SLAB_WIDTH
        } else {
            1
        }
    }

    /// How a batch of `frames` frames decomposes across the kernels
    /// this engine selected: on the bitsliced kernel, full slabs plus a
    /// sub-slab fallback tail; on a fallback-only model, zero slabs and
    /// every frame on the per-frame walk.
    pub fn slab_breakdown(&self, frames: usize) -> SlabBreakdown {
        if self.sliced.is_some() {
            SlabBreakdown {
                slabs_full: frames / SLAB_WIDTH,
                fallback_frames: frames % SLAB_WIDTH,
            }
        } else {
            SlabBreakdown {
                slabs_full: 0,
                fallback_frames: frames,
            }
        }
    }

    /// Computes the per-frame values (class + scores) for `frames`,
    /// in order. Any number of frames: the bitsliced kernel consumes
    /// **full** [`SLAB_WIDTH`]-image slabs, and the sub-slab remainder
    /// falls back to the per-frame packed walk — a short slab would
    /// still pay the whole 64-lane compressor sweep, so per-frame
    /// popcounts are the cheaper bit-exact kernel for the tail.
    pub fn run_slab(&self, frames: &[Vec<u8>]) -> Vec<SlabOutput> {
        let per_frame = |px: &Vec<u8>| {
            let t = self.packed.infer_traced(px);
            SlabOutput {
                class: t.class,
                scores: t.scores,
            }
        };
        match &self.sliced {
            Some(sliced) => {
                let full = frames.len() - frames.len() % SLAB_WIDTH;
                let mut out = Vec::with_capacity(frames.len());
                for slab in frames[..full].chunks(SLAB_WIDTH) {
                    out.extend(sliced.infer_slab(slab));
                }
                out.extend(frames[full..].iter().map(per_frame));
                out
            }
            None => frames.iter().map(per_frame).collect(),
        }
    }
}

/// Runs a whole batch on the counts-vs-values split: compiles the
/// first frame, runs the phase-skipping cycle model **once**, then
/// derives every frame's [`InferenceRun`] from the batch kernel's
/// values plus the memoized timing. Bit-identical to calling
/// [`run_inference_fast`] on every frame individually.
pub fn run_batch_fast(
    cfg: &HwConfig,
    model: &QuantMlp,
    inputs: &[Vec<u8>],
) -> Result<Vec<InferenceRun>, NetPuError> {
    let Some(first) = inputs.first() else {
        return Ok(Vec::new());
    };
    let expected = model.input.len;
    for px in inputs {
        if px.len() != expected {
            return Err(NetPuError::Stream(StreamError::InputLength {
                expected,
                got: px.len(),
            }));
        }
    }
    let loadable = netpu_compiler::compile(model, first).map_err(NetPuError::Stream)?;
    let template = run_inference_fast(cfg, loadable.words)?;
    let engine = BatchEngine::new(model);
    let outputs = engine.run_slab(inputs);
    debug_assert_eq!(outputs.first().map(|o| o.class), Some(template.class));
    Ok(outputs
        .into_iter()
        .map(|out| {
            let score = out.scores.get(out.class).copied().unwrap_or_default();
            InferenceRun {
                class: out.class,
                score,
                cycles: template.cycles,
                latency_us: template.latency_us,
                probabilities: cfg
                    .softmax_output
                    .then(|| netpu_arith::softmax::softmax(&out.scores)),
                breakdown: template.breakdown.clone(),
                results: template
                    .results
                    .iter()
                    .map(|&(_, _, done_at)| (out.class, score, done_at))
                    .collect(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;

    fn frames(len: usize, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|f| {
                (0..len)
                    .map(|i| ((i * 29 + f * 13 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batch_fast_matches_per_frame_fast_path_binary() {
        // 67 frames: a full slab plus a 3-frame tail.
        let cfg = HwConfig::paper_instance();
        let model = ZooModel::TfcW1A1
            .build_untrained(3, BnMode::Folded)
            .unwrap();
        let inputs = frames(model.input.len, 67);
        let batch = run_batch_fast(&cfg, &model, &inputs).unwrap();
        assert_eq!(batch.len(), 67);
        assert!(BatchEngine::new(&model).is_bitsliced());
        for (run, px) in batch.iter().zip(&inputs).step_by(13) {
            let words = netpu_compiler::compile(&model, px).unwrap().words;
            let single = run_inference_fast(&cfg, words).unwrap();
            assert_eq!(run, &single);
        }
    }

    #[test]
    fn slab_breakdown_counts_the_kernel_that_actually_ran() {
        let binary = ZooModel::TfcW1A1
            .build_untrained(2, BnMode::Folded)
            .unwrap();
        let engine = BatchEngine::new(&binary);
        assert_eq!(
            engine.slab_breakdown(130),
            SlabBreakdown {
                slabs_full: 2,
                fallback_frames: 2,
            }
        );
        assert_eq!(engine.slab_breakdown(130).partial_slab_equivalents(), 1);
        assert_eq!(engine.slab_breakdown(128).partial_slab_equivalents(), 0);

        // A fallback-only model runs zero slabs no matter the batch
        // size; its frames count as partial slab-equivalents.
        let multibit = ZooModel::TfcW2A2
            .build_untrained(2, BnMode::Hardware)
            .unwrap();
        let engine = BatchEngine::new(&multibit);
        assert_eq!(
            engine.slab_breakdown(130),
            SlabBreakdown {
                slabs_full: 0,
                fallback_frames: 130,
            }
        );
        assert_eq!(engine.slab_breakdown(130).partial_slab_equivalents(), 3);
        assert_eq!(engine.slab_breakdown(0).partial_slab_equivalents(), 0);
    }

    #[test]
    fn batch_fast_matches_per_frame_fast_path_multibit() {
        let cfg = HwConfig::paper_instance();
        let model = ZooModel::TfcW2A2
            .build_untrained(5, BnMode::Hardware)
            .unwrap();
        let engine = BatchEngine::new(&model);
        assert!(!engine.is_bitsliced());
        assert_eq!(engine.chunk_width(), 1);
        let inputs = frames(model.input.len, 3);
        let batch = run_batch_fast(&cfg, &model, &inputs).unwrap();
        for (run, px) in batch.iter().zip(&inputs) {
            let words = netpu_compiler::compile(&model, px).unwrap().words;
            assert_eq!(run, &run_inference_fast(&cfg, words).unwrap());
        }
    }

    #[test]
    fn batch_fast_reports_softmax_probabilities() {
        let cfg = HwConfig {
            softmax_output: true,
            ..HwConfig::paper_instance()
        };
        let model = ZooModel::TfcW1A1
            .build_untrained(8, BnMode::Folded)
            .unwrap();
        let inputs = frames(model.input.len, 2);
        let batch = run_batch_fast(&cfg, &model, &inputs).unwrap();
        for (run, px) in batch.iter().zip(&inputs) {
            let words = netpu_compiler::compile(&model, px).unwrap().words;
            let single = run_inference_fast(&cfg, words).unwrap();
            assert_eq!(run.probabilities, single.probabilities);
            let p = run.probabilities.as_ref().unwrap();
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn batch_fast_validates_every_frame_length() {
        let cfg = HwConfig::paper_instance();
        let model = ZooModel::TfcW1A1
            .build_untrained(1, BnMode::Folded)
            .unwrap();
        let mut inputs = frames(model.input.len, 2);
        inputs.push(vec![0u8; 5]);
        assert!(matches!(
            run_batch_fast(&cfg, &model, &inputs),
            Err(NetPuError::Stream(StreamError::InputLength {
                expected: 784,
                got: 5
            }))
        ));
        assert!(run_batch_fast(&cfg, &model, &[]).unwrap().is_empty());
    }
}
