#![deny(missing_docs)]
//! Static verifier for NetPU-M loadables and instance configurations.
//!
//! The accelerator's stream protocol (§III.B) assumes every loadable is
//! well-formed; a malformed one is otherwise caught — if at all — by an
//! error or panic deep inside the cycle-level model. This crate checks
//! a stream **without simulating it**: section layout and ordering,
//! layer-setting decodability, the inter-layer shape chain, bit-width
//! and buffer-depth bounds, threshold-table monotonicity, BN-multiplier
//! degeneracy, weight-word packing consistency, and resource-model
//! feasibility of the target [`HwConfig`].
//!
//! Structurally sound streams additionally pass through the [`absint`]
//! range analyzer: an abstract interpretation of the decoded model that
//! proves per-neuron accumulator/BN/level bounds from the header's
//! declared input range and emits the NPC014–NPC020 datapath-soundness
//! rules.
//!
//! When a caller can supply the *source model* a stream claims to
//! implement, the [`symex`] translation validator adds a third tier:
//! bit-precise symbolic equivalence of the decoded datapath against the
//! reference forward function, emitting NPC021–NPC026 and a re-checkable
//! [`Certificate`].
//!
//! The fourth tier is the [`timing`] certifier: a closed-form,
//! cycle-exact cost model of the accelerator derived from the decoded
//! stream and the [`HwConfig`] alone, emitting the NPC027–NPC031
//! timing-certification rules (exact cycle certificate, per-layer
//! bottleneck attribution, folding slack, deadline infeasibility, and
//! DMA-bound vs compute-bound classification). Its exactness against
//! the tick simulator is pinned by the `xtask certify-timing`
//! differential gate.
//!
//! [`analyze`] runs the tiers over one decode of the stream, its
//! [`StreamView`], and returns the findings with the timing
//! certificate; [`timing::report_timing`] turns a certificate into the
//! NPC027–NPC031 findings under a [`TimingSpec`]. A [`VerdictStore`]
//! keeps those results and the view keyed on the stream with its input
//! section masked, so admission layers pay the analysis and the decode
//! once per distinct stream rather than once per request.
//!
//! Findings are structured [`Diagnostic`]s with stable rule IDs
//! (`NPC001`…), byte offsets into the serialized stream, and
//! severities. **Errors** come in three families the admission layers
//! ([`Driver::run`] and `netpu-serve`) gate on separately: *structural*
//! errors (NPC001–NPC013) mark streams the accelerator would reject,
//! deadlock on, or panic over and always refuse admission; *range*
//! errors (NPC014/NPC018/NPC020) mark streams the simulator completes
//! but whose datapath numerics are provably unsafe on the configured
//! instance — strict admission rejects these too, lenient admission
//! lets them through; *equivalence* errors (NPC021/NPC022/NPC024) mark
//! streams that compute a different function than their claimed source
//! and only gate the opt-in `strict_equiv` tier. **Warnings** flag
//! numeric hazards (unsorted threshold tables, zero BN scales, dead
//! neurons, reachable saturation) that complete but misbehave.
//!
//! [`Driver::run`]: https://docs.rs/netpu-runtime
//!
//! ```
//! use netpu_check::{check, RuleId};
//! use netpu_core::HwConfig;
//! use netpu_nn::export::BnMode;
//! use netpu_nn::zoo::ZooModel;
//!
//! let model = ZooModel::TfcW1A1.build_untrained(1, BnMode::Folded).unwrap();
//! let loadable = netpu_compiler::compile(&model, &vec![0u8; 784]).unwrap();
//! let report = check(&loadable, &HwConfig::paper_instance());
//! assert!(!report.has_errors());
//!
//! let mut bad = loadable.clone();
//! bad.words[0] ^= 1; // flip a magic bit
//! let report = netpu_check::analyze(&bad.words, &HwConfig::paper_instance(), Default::default()).report;
//! assert!(report.has_errors() && report.fired(RuleId::Npc001));
//! ```

pub mod absint;
mod diag;
mod rules;
mod store;
pub mod symex;
pub mod timing;
mod verdict;

pub use absint::{LayerBounds, NeuronBounds, RangeAnalysis};
pub use diag::{Diagnostic, Report, RuleId, Severity};
pub use store::{payload_span, StoreStats, StoredStream, VerdictStore};
pub use symex::{certify, compile_certified, Certificate, CertifyError, CertifyOutcome, Witness};
pub use timing::{DmaModel, StreamTiming, TimingSpec};
pub use verdict::RejectReason;

use netpu_compiler::{Loadable, StreamView};
use netpu_core::HwConfig;
use netpu_nn::qmodel::QuantMlp;
use std::sync::Arc;

/// The optional tiers [`analyze`] runs on top of the structural and
/// range tiers, which always run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tiers<'a> {
    /// The source model the stream claims to implement. Adds the
    /// [`symex`] translation validation (NPC021–NPC026) when the first
    /// two tiers find no errors.
    pub source: Option<&'a QuantMlp>,
}

/// Everything one verifier pass learns about a stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// Every finding of every tier that ran.
    pub report: Report,
    /// The [`timing`] certificate. `None` exactly when the stream is
    /// structurally unsound or does not decode: no cycle count exists
    /// to certify.
    pub timing: Option<StreamTiming>,
    /// The proved per-neuron bounds of the range tier, under the same
    /// condition as `timing`. A [`VerdictStore`] keeps findings and the
    /// certificate only, so analyses it serves carry `None`.
    pub range: Option<RangeAnalysis>,
}

/// Runs the verifier over a raw word stream (e.g. one received over a
/// transport, with no host-side metadata) against an instance
/// configuration. The section layout is recomputed from the stream.
///
/// The structural rules always run. A structurally clean stream is
/// then decoded once into its [`StreamView`], and that one view feeds
/// the [`absint`] range analysis, the [`timing`] certificate and, with
/// [`Tiers::source`], the [`symex`] translation validation (through one
/// expansion to the full model). Streams the decoder cannot
/// reconstruct (multi-loadable bursts, truncated tails already reported
/// by the structural rules) skip the later tiers silently.
pub fn analyze(words: &[u64], cfg: &HwConfig, tiers: Tiers<'_>) -> Analysis {
    analyze_over(words, || words.into(), cfg, tiers).0
}

/// [`analyze`], also returning the stream's view when the later tiers
/// ran. The view is built over `view_words()`: `words` themselves, or
/// a copy with the input section masked. Pixels are read from `words`.
pub(crate) fn analyze_over(
    words: &[u64],
    view_words: impl FnOnce() -> Arc<[u64]>,
    cfg: &HwConfig,
    tiers: Tiers<'_>,
) -> (Analysis, Option<StreamView>) {
    let mut report = rules::run_all(words, cfg);
    let view = (!report.has_errors()).then(|| StreamView::new(view_words()));
    let range = match &view {
        Some(Ok(view)) => Some(absint::analyze(view, &view.pixels(words), cfg, &mut report)),
        _ => None,
    };
    if let (Some(source), Some(view), false) = (tiers.source, &view, report.has_errors()) {
        let decoded = view.as_ref().map(|v| v.expand(words)).map_err(Clone::clone);
        report.merge(symex::certify_decoded(source, decoded, cfg).report);
    }
    let view = view.and_then(Result::ok);
    let timing = view
        .as_ref()
        .map(|v| timing::analyze_settings(&v.settings, v.packing, cfg));
    let analysis = Analysis {
        report,
        timing,
        range,
    };
    (analysis, view)
}

/// The structural and range tiers over a compiled loadable. The
/// loadable's host-side `layout` metadata is deliberately not trusted.
pub fn check(loadable: &Loadable, cfg: &HwConfig) -> Report {
    analyze(&loadable.words, cfg, Tiers::default()).report
}

/// The three tiers of a caller holding the stream's claimed source
/// model: structural, range and translation validation.
pub fn check_words_against(words: &[u64], source: &QuantMlp, cfg: &HwConfig) -> Report {
    analyze(
        words,
        cfg,
        Tiers {
            source: Some(source),
        },
    )
    .report
}

/// The statically certified per-inference cycle count of a raw stream
/// on `cfg`, or `None` when the stream is structurally unsound or does
/// not decode. This is the value `xtask certify-timing` proves equal to
/// the simulator's cycle counter.
pub fn predict_cycles(words: &[u64], cfg: &HwConfig) -> Option<u64> {
    analyze(words, cfg, Tiers::default())
        .timing
        .map(|t| t.total_cycles())
}
