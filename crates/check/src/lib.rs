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
//! let report = netpu_check::check_words(&bad.words, &HwConfig::paper_instance());
//! assert!(report.has_errors() && report.fired(RuleId::Npc001));
//! ```

pub mod absint;
mod diag;
mod rules;
pub mod symex;
pub mod timing;
mod verdict;

pub use absint::{LayerBounds, NeuronBounds, RangeAnalysis};
pub use diag::{Diagnostic, Report, RuleId, Severity};
pub use symex::{certify, compile_certified, Certificate, CertifyError, CertifyOutcome, Witness};
pub use timing::{DmaParams, LayerTiming, StreamTiming, TimingPhase, TimingSpec};
pub use verdict::{AdmissionVerdict, RejectReason};

use netpu_compiler::Loadable;
use netpu_core::HwConfig;
use netpu_nn::qmodel::QuantMlp;

/// Checks a compiled loadable against an instance configuration. The
/// section layout is recomputed from the stream itself — the loadable's
/// host-side `layout` metadata is deliberately not trusted.
pub fn check(loadable: &Loadable, cfg: &HwConfig) -> Report {
    check_words(&loadable.words, cfg)
}

/// Checks a raw word stream (e.g. one received over a transport, with
/// no host-side metadata) against an instance configuration.
///
/// Structurally clean streams are additionally decoded and run through
/// the [`absint`] range analyzer; streams the decoder cannot reconstruct
/// (multi-loadable bursts, truncated tails already reported by the
/// structural rules) skip the second tier silently.
pub fn check_words(words: &[u64], cfg: &HwConfig) -> Report {
    let mut report = rules::run_all(words, cfg);
    if !report.has_errors() {
        if let Ok(packed) = netpu_compiler::decode_packed(words) {
            absint::analyze(&packed, cfg, &mut report);
        }
    }
    report
}

/// Runs the full two-tier admission decision on a raw word stream:
/// [`check_words`] followed by [`AdmissionVerdict::from_report`]. This
/// is the one gate the driver, the serving layers, and the fuzzer all
/// call, so a stream receives the identical verdict at every layer.
pub fn admit_words(words: &[u64], cfg: &HwConfig, strict_range: bool) -> AdmissionVerdict {
    AdmissionVerdict::from_report(check_words(words, cfg), strict_range)
}

/// The full **three-tier** check: [`check_words`] plus, when the first
/// two tiers pass, the [`symex`] translation validation of the stream
/// against its claimed source model. The returned report carries every
/// finding from all tiers; NPC021–NPC026 appear only when the stream
/// was sound enough to certify.
pub fn check_words_against(words: &[u64], source: &QuantMlp, cfg: &HwConfig) -> Report {
    let mut report = check_words(words, cfg);
    if !report.has_errors() {
        let outcome = symex::certify(source, words, cfg);
        report.merge(outcome.report);
    }
    report
}

/// The three-tier admission decision for callers holding the claimed
/// source model: [`check_words_against`] followed by
/// [`AdmissionVerdict::from_report_tiers`] with `strict_equiv` enabled.
/// `strict_range` keeps its usual meaning for the second tier.
pub fn admit_words_against(
    words: &[u64],
    source: &QuantMlp,
    cfg: &HwConfig,
    strict_range: bool,
) -> AdmissionVerdict {
    AdmissionVerdict::from_report_tiers(check_words_against(words, source, cfg), strict_range, true)
}

/// [`check_words`] plus the proved per-neuron bounds, for callers that
/// want the [`RangeAnalysis`] itself (the soundness test suite, width
/// tooling). The analysis half is `None` exactly when `check_words`
/// would have skipped it.
pub fn check_words_analyzed(words: &[u64], cfg: &HwConfig) -> (Report, Option<RangeAnalysis>) {
    let mut report = rules::run_all(words, cfg);
    if report.has_errors() {
        return (report, None);
    }
    let analysis = netpu_compiler::decode_packed(words)
        .ok()
        .map(|packed| absint::analyze(&packed, cfg, &mut report));
    (report, analysis)
}

/// The four-tier check: [`check_words`] plus, whenever the stream
/// decodes at all, the [`timing`] certification under `spec` — the
/// cycle count only depends on the decoded settings, so timing findings
/// (NPC027–NPC031) are derived even when the range tier reported
/// numeric hazards. The certificate is `None` exactly when the stream
/// is structurally unsound (the decoder cannot reconstruct it, so no
/// cycle count exists to certify).
pub fn check_words_timed(
    words: &[u64],
    cfg: &HwConfig,
    spec: &timing::TimingSpec,
) -> (Report, Option<timing::StreamTiming>) {
    let mut report = check_words(words, cfg);
    let timed = if report.has_structural_errors() {
        None
    } else {
        netpu_compiler::decode(words).ok().map(|decoded| {
            let t = timing::analyze(&decoded, cfg);
            timing::report_timing(&t, cfg, spec, &mut report);
            t
        })
    };
    (report, timed)
}

/// The statically certified per-inference cycle count of a raw stream
/// on `cfg`, or `None` when the stream does not decode. This is the
/// value `xtask certify-timing` proves byte-for-byte equal to the tick
/// simulator's cycle counter; the runtime records it alongside traced
/// runs so replay can cross-check the model against real executions.
pub fn predict_cycles(words: &[u64], cfg: &HwConfig) -> Option<u64> {
    netpu_compiler::decode(words)
        .ok()
        .map(|decoded| timing::analyze(&decoded, cfg).total_cycles())
}
