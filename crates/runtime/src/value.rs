//! The value path: an admitted stream answered without a simulation.
//!
//! A loaded NetPU-M model's cycle count does not depend on its input,
//! and its values are what the stream's weights compute. So a driver
//! that has admitted a stream can answer a request in two parts: class
//! and winning score from the stream's [`ValueKernel`], the value
//! kernel of the verdict-store entry's stream view, which reads its
//! weights in place from the entry's words; cycles, latency and energy
//! from the timing certificate, which `xtask certify-timing` holds
//! exact ([`Driver::admit_values`]).
//!
//! Two simulator oracles keep the split honest:
//!
//! * When a stream's kernel is first built, the simulator runs the
//!   stream once on the zero input. Its class and score must equal the
//!   kernel's, and its cycle count the certificate's. The outcome, pass
//!   or fail, stays in the store entry with the kernel: a stream that
//!   failed is refused with the same error on every later admission.
//! * A caller serving many requests re-checks one in [`SHADOW_EVERY`]
//!   with [`ValueKernel::shadow`]: the same comparison on the request's
//!   own input, spliced into a copy of the entry's words.

use crate::driver::DriverError;
use netpu_arith::Fix;
use netpu_check::{RejectReason, StoredStream, StreamTiming};
use netpu_compiler::{StreamError, StreamView};
use netpu_core::netpu::{run_inference_fast, InferenceRun};
use netpu_nn::kernel::PackedMlp;
use std::sync::Arc;

#[cfg(doc)]
use crate::driver::Driver;
#[cfg(doc)]
use netpu_compiler::Loadable;

/// One request in this many (by the caller's request id) is shadowed by
/// the cycle-accurate simulator.
pub const SHADOW_EVERY: u64 = 64;

/// What a [`Driver`]'s verdict-store entries keep in their value slot:
/// the stream's value side, or the error its cross-check recorded.
pub type ValueSlot = Result<Arc<StreamValue>, DriverError>;

/// The value side of one admitted stream, built once per store entry.
pub struct StreamValue {
    /// The entry's view, whose kernel serves the values.
    view: Arc<StreamView>,
    /// The certificate the cross-check held the simulator's cycles to.
    timing: StreamTiming,
    /// Class and winning score on the zero input.
    zero_input: (usize, Fix),
    /// SoftMax probabilities on the zero input (SoftMax instances only).
    probabilities: Option<Vec<f64>>,
}

impl StreamValue {
    /// The certified cycle count.
    pub(crate) fn cycles(&self) -> u64 {
        self.timing.total_cycles()
    }

    /// Class, winning score and SoftMax probabilities on the zero input.
    pub(crate) fn zero_input(&self) -> ((usize, Fix), Option<Vec<f64>>) {
        (self.zero_input, self.probabilities.clone())
    }
}

/// An admitted stream's value side: its kernel and certificate, kept
/// in the driver's verdict store. Clones share it.
#[derive(Clone)]
pub struct ValueKernel {
    stream: Arc<StoredStream<ValueSlot>>,
    value: Arc<StreamValue>,
}

impl std::fmt::Debug for ValueKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueKernel")
            .field("input_len", &self.value.view.kernel().input_len())
            .field("cycles", &self.value.cycles())
            .finish_non_exhaustive()
    }
}

impl ValueKernel {
    pub(crate) fn new(stream: Arc<StoredStream<ValueSlot>>, value: Arc<StreamValue>) -> Self {
        ValueKernel { stream, value }
    }

    /// The class and winning score the admitted stream computes on
    /// `pixels`. A wrong input length fails exactly as splicing it into
    /// the stream would ([`Loadable::replace_input`]).
    pub fn infer(&self, pixels: &[u8]) -> Result<(usize, Fix), DriverError> {
        let kernel = self.value.view.kernel();
        let expected = kernel.input_len();
        if pixels.len() != expected {
            return Err(DriverError::Compile(StreamError::InputLength {
                expected,
                got: pixels.len(),
            }));
        }
        Ok(kernel.infer(pixels))
    }

    /// The sampled oracle: splices `pixels` into a copy of the entry's
    /// words, runs the cycle-accurate fast path, and fails closed when
    /// its class or winning score differs from `served` or its cycle
    /// count from the certificate's.
    pub fn shadow(&self, pixels: &[u8], served: (usize, Fix)) -> Result<(), DriverError> {
        let run = simulate(&self.stream, pixels)?;
        agree(served, self.value.cycles(), &run)
    }

    /// The admitted stream's words, input section zeroed.
    pub fn words(&self) -> &[u64] {
        self.stream.words()
    }

    /// The stream's timing certificate.
    pub fn timing(&self) -> &StreamTiming {
        &self.value.timing
    }

    /// The kernel itself.
    pub fn kernel(&self) -> &PackedMlp<'static> {
        self.value.view.kernel()
    }
}

/// Fills a stream's value slot: the one simulator cross-check of the
/// entry's view's kernel on the zero input. Charged its own bytes only:
/// the view and its words are the entry's.
pub(crate) fn build(stream: &StoredStream<ValueSlot>) -> (ValueSlot, usize) {
    match cross_checked(stream) {
        Ok(value) => {
            let bytes = std::mem::size_of::<StreamValue>()
                + std::mem::size_of_val(value.timing.breakdown.layers.as_slice())
                + std::mem::size_of_val(value.timing.settings.as_slice());
            (Ok(Arc::new(value)), bytes)
        }
        Err(e) => (Err(e), 0),
    }
}

fn cross_checked(stream: &StoredStream<ValueSlot>) -> Result<StreamValue, DriverError> {
    let analysis = stream.analysis();
    let (Some(timing), Some(view)) = (&analysis.timing, stream.view()) else {
        return Err(DriverError::Rejected(RejectReason::Invalid {
            report: analysis.report.clone(),
        }));
    };
    let zeros = vec![0u8; view.kernel().input_len()];
    let zero_input = view.kernel().infer(&zeros);
    let run = simulate(stream, &zeros)?;
    agree(zero_input, timing.total_cycles(), &run)?;
    Ok(StreamValue {
        view: Arc::clone(view),
        timing: timing.clone(),
        zero_input,
        probabilities: run.probabilities,
    })
}

/// The fast simulator on `stream`'s words with `pixels` spliced in.
fn simulate(stream: &StoredStream<ValueSlot>, pixels: &[u8]) -> Result<InferenceRun, DriverError> {
    let mut words = stream.words().to_vec();
    netpu_compiler::splice_input(&mut words, pixels).map_err(DriverError::Compile)?;
    run_inference_fast(stream.cfg(), words).map_err(DriverError::Accelerator)
}

/// The kernel's answer and the certificate's cycles against one
/// simulated run.
fn agree(kernel: (usize, Fix), cycles: u64, run: &InferenceRun) -> Result<(), DriverError> {
    if (run.class, run.score) != kernel {
        return Err(DriverError::ValueMismatch {
            kernel,
            simulator: (run.class, run.score),
        });
    }
    if run.cycles != cycles {
        return Err(DriverError::CycleMismatch {
            certificate: cycles,
            simulator: run.cycles,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;

    fn admitted(driver: &Driver, zoo: ZooModel, seed: u64) -> ValueKernel {
        let model = zoo.build_untrained(seed, BnMode::Folded).unwrap();
        let loadable = netpu_compiler::compile(&model, &vec![0u8; model.input.len]).unwrap();
        driver.admit_values(&loadable, &model).unwrap().0
    }

    #[test]
    fn the_shadow_fails_closed_on_another_models_certificate() {
        let driver = Driver::builder().build();
        let tfc = admitted(&driver, ZooModel::TfcW1A1, 1);
        let sfc = admitted(&driver, ZooModel::SfcW1A1, 2);
        let pixels = vec![90u8; 784];
        let served = tfc.infer(&pixels).unwrap();
        tfc.shadow(&pixels, served).unwrap();
        // The TFC stream and kernel, served with the SFC certificate.
        let impostor = ValueKernel::new(
            Arc::clone(&tfc.stream),
            Arc::new(StreamValue {
                view: Arc::clone(&tfc.value.view),
                timing: sfc.timing().clone(),
                zero_input: tfc.value.zero_input,
                probabilities: None,
            }),
        );
        assert_eq!(impostor.infer(&pixels), Ok(served));
        assert_eq!(
            impostor.shadow(&pixels, served),
            Err(DriverError::CycleMismatch {
                certificate: sfc.timing().total_cycles(),
                simulator: tfc.timing().total_cycles(),
            })
        );
    }

    #[test]
    fn the_shadow_fails_closed_on_a_wrong_value() {
        let driver = Driver::builder().build();
        let k = admitted(&driver, ZooModel::TfcW2A2, 3);
        let pixels = vec![200u8; 784];
        let (class, score) = k.infer(&pixels).unwrap();
        let wrong = (class, Fix::from_raw(score.raw() + 1));
        assert!(matches!(
            k.shadow(&pixels, wrong),
            Err(DriverError::ValueMismatch { .. })
        ));
    }

    #[test]
    fn the_kernel_is_the_entrys_view_charged_once() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW2A2
            .build_untrained(5, BnMode::Folded)
            .unwrap();
        let loadable = netpu_compiler::compile(&model, &vec![0u8; 784]).unwrap();
        let entry = driver.verdicts.lookup(&loadable.words, &driver.hw, None);
        let view = Arc::clone(entry.view().unwrap());
        let analyzed = driver.verdicts.stats().bytes;
        assert!(analyzed > entry.words().len() * 8 + view.heap_bytes());
        // The kernel is the entry's view's, not a second decode.
        let (kernel, _) = driver.admit_values(&loadable, &model).unwrap();
        assert!(Arc::ptr_eq(&kernel.value.view, &view));
        assert!(std::ptr::eq(kernel.kernel(), view.kernel()));
        // Filling the value slot charges its own bytes, not the view's
        // again.
        let added = driver.verdicts.stats().bytes - analyzed;
        assert!(added < view.heap_bytes(), "{added}");
        // Flat threshold arrays (about 25 KB) and two bit planes per
        // weight (15.5 KB).
        let bytes = view.kernel().heap_bytes();
        assert!(bytes <= 40_576, "{bytes}");
    }

    #[test]
    fn re_admission_reuses_the_entrys_kernel() {
        let driver = Driver::builder().strict_equiv(true).build();
        let model = ZooModel::TfcW2A2
            .build_untrained(4, BnMode::Folded)
            .unwrap();
        let zeros = vec![0u8; model.input.len];
        let loadable = netpu_compiler::compile(&model, &zeros).unwrap();
        let (first, run) = driver.admit_values(&loadable, &model).unwrap();
        let (second, again) = driver.admit_values(&loadable, &model).unwrap();
        assert!(Arc::ptr_eq(&first.value, &second.value));
        assert_eq!(run, again);
        let stats = driver.verdicts.stats();
        assert_eq!((stats.misses, stats.hits, stats.values), (1, 1, 1));
        // The priced run is the simulated one, to the bit.
        assert_eq!(run, driver.run_loadable(&loadable).unwrap());
    }
}
