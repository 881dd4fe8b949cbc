//! Translation validation: bit-precise symbolic equivalence of a
//! compiled stream against its claimed `netpu-nn` source model.
//!
//! The structural rules (NPC001–NPC013) prove a loadable is *runnable*;
//! the range analyzer (NPC014–NPC020) proves it is *numerically safe*.
//! Neither proves the property the paper's toolflow actually promises:
//! that the reconfigured datapath computes **exactly** the source MLP.
//! This module closes that gap with a per-output-neuron equivalence
//! decision between the decoded datapath and the reference forward
//! function (DESIGN.md §4.8).
//!
//! # Symbolic domain and canonical form
//!
//! Every datapath value is canonicalized rather than enumerated:
//!
//! * **Accumulators** are exact integer-affine terms. Stream weights
//!   are 8-bit lanes (|w| ≤ 128), layers are capped at 8192 inputs and
//!   MAC operands at |x| ≤ 509, so the per-term clamp in
//!   [`netpu_nn::reference::accumulate`] is unreachable for any
//!   decodeable stream and the affine form is exact in `i64`.
//! * **Post-accumulator stages** (BN → threshold/QUAN) are monotone
//!   maps from the accumulator to a small output-level alphabet. Each
//!   neuron's stage is canonicalized to its exact *step form*: the
//!   ascending accumulator boundaries at which the output level
//!   changes, recovered by bisection over the reachable accumulator
//!   interval. Two neurons are equivalent iff their step forms agree on
//!   that interval — regardless of how thresholds or folded BN
//!   parameters are encoded.
//! * **Output scores** stay in the Q32.5 fixed-point domain; the
//!   bias/BN affine is compared at a canonical probe set plus the
//!   analytically-derived crossing points of the two parameterizations.
//!
//! Canonicalization only ever *queries* the concrete reference
//! semantics, so two bit-identical functions always produce identical
//! canonical forms: an honest compile can never be reported
//! inequivalent. Divergences are reported only at concretely evaluated
//! points, so every inequivalence finding is witnessed by construction.
//!
//! # Rule catalog
//!
//! | rule | severity | meaning |
//! |------|----------|---------|
//! | NPC021 | error | layer shape/semantics mismatch (count, width, precision, activation kind) |
//! | NPC022 | error | output-neuron inequivalence, with a concrete distinguishing input when one is found |
//! | NPC023 | warning | threshold/BN fold drift: encodings differ, no reachable divergence |
//! | NPC024 | error | weight rows are a permutation of the source rows |
//! | NPC025 | warning | provably-dead output slice under MaxOut |
//! | NPC026 | info | exact minimal accumulator width, tightening NPC019 |

use crate::absint::signed_width;
use crate::diag::{Report, RuleId, Severity};
use netpu_arith::{cast, Fix, Precision};
use netpu_compiler::{compile, decode, Decoded, Loadable, StreamError};
use netpu_core::HwConfig;
use netpu_nn::qmodel::{LayerActivation, QuantMlp};
use netpu_nn::reference;

/// Random-probe budget of the end-to-end witness search.
const WITNESS_RANDOM_TRIES: usize = 256;
/// Coordinate-descent passes of the witness search.
const WITNESS_CLIMB_PASSES: usize = 2;
/// Pixel coordinates examined per climb pass (bounds search cost on
/// wide input layers).
const WITNESS_CLIMB_COORDS: usize = 256;
/// Stratified interior probes of the output-score comparison.
const SCORE_PROBES: i64 = 61;
/// Certificate format version.
pub const CERTIFICATE_VERSION: u32 = 1;

/// A concrete distinguishing input: running the source model and the
/// decoded stream model on `pixels` produces different output scores.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Witness {
    /// Zero-based stream layer index where the divergence was located.
    pub layer: usize,
    /// Neuron index within that layer.
    pub neuron: usize,
    /// The distinguishing input, one 8-bit value per input element.
    pub pixels: Vec<u8>,
}

/// The re-checkable summary a certification run emits alongside a
/// loadable. Equivalence holds exactly when the two canonical-form
/// digests agree; [`Certificate::validate`] recomputes both from
/// scratch so a stored certificate cannot go stale silently.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Format version ([`CERTIFICATE_VERSION`]).
    pub version: u32,
    /// FNV-1a digest of the source model's canonical forms.
    pub model_digest: u64,
    /// FNV-1a digest of the decoded stream's canonical forms.
    pub stream_digest: u64,
    /// Layer count both sides agreed on.
    pub layers: usize,
    /// Exact minimal accumulator width of the compiled datapath, in
    /// bits (the NPC026 answer).
    pub min_accumulator_bits: u8,
}

impl Certificate {
    /// `true` when the certified stream is equivalent to its source.
    pub fn is_equivalent(&self) -> bool {
        self.model_digest == self.stream_digest
    }

    /// Re-runs the full certification and checks that the stored
    /// digests still describe `(model, words)`. Returns `false` for a
    /// stale, forged, or mismatched certificate.
    pub fn validate(&self, model: &QuantMlp, words: &[u64], cfg: &HwConfig) -> bool {
        let fresh = certify(model, words, cfg);
        match fresh.certificate {
            Some(c) => {
                c.model_digest == self.model_digest
                    && c.stream_digest == self.stream_digest
                    && c.layers == self.layers
                    && c.min_accumulator_bits == self.min_accumulator_bits
                    && self.version == CERTIFICATE_VERSION
            }
            None => false,
        }
    }
}

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "certificate v{}: {} layers, model {:016x} / stream {:016x} ({}), min acc width {} bits",
            self.version,
            self.layers,
            self.model_digest,
            self.stream_digest,
            if self.is_equivalent() {
                "equivalent"
            } else {
                "INEQUIVALENT"
            },
            self.min_accumulator_bits,
        )
    }
}

/// Everything one certification run produced.
#[derive(Clone, PartialEq, Debug)]
pub struct CertifyOutcome {
    /// NPC021–NPC026 findings (empty report == fully equivalent with
    /// nothing to note).
    pub report: Report,
    /// The certificate, present whenever both sides decoded and shaped
    /// up well enough to canonicalize (even for inequivalent pairs, so
    /// callers can log both digests).
    pub certificate: Option<Certificate>,
    /// Concrete distinguishing inputs backing NPC022/NPC024 findings.
    pub witnesses: Vec<Witness>,
}

impl CertifyOutcome {
    /// `true` when no equivalence-rule error fired.
    pub fn is_equivalent(&self) -> bool {
        !self.report.has_equiv_errors()
    }
}

/// Errors from [`compile_certified`].
#[derive(Clone, PartialEq, Debug)]
pub enum CertifyError {
    /// The compiler refused the model/input pair.
    Stream(StreamError),
    /// The freshly compiled stream failed its own certification — a
    /// compiler bug by definition; the report carries the findings.
    Inequivalent(Report),
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::Stream(e) => write!(f, "compile failed: {e}"),
            CertifyError::Inequivalent(r) => write!(f, "self-certification failed: {r}"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// Compiles `model` and certifies the emitted stream against it in one
/// step — the "compiler emits a certificate alongside every loadable"
/// entry point. An [`CertifyError::Inequivalent`] return means the
/// compiler itself miscompiled, which the translation-validation suite
/// asserts never happens.
pub fn compile_certified(
    model: &QuantMlp,
    pixels: &[u8],
    cfg: &HwConfig,
) -> Result<(Loadable, Certificate), CertifyError> {
    let loadable = compile(model, pixels).map_err(CertifyError::Stream)?;
    let outcome = certify(model, &loadable.words, cfg);
    match outcome.certificate {
        Some(cert) if outcome.is_equivalent() => Ok((loadable, cert)),
        _ => Err(CertifyError::Inequivalent(outcome.report)),
    }
}

/// Certifies that `words` computes exactly `model` on the configured
/// instance. See the module docs for the decision procedure; the
/// outcome's report carries only NPC021–NPC026 findings.
pub fn certify(model: &QuantMlp, words: &[u64], cfg: &HwConfig) -> CertifyOutcome {
    certify_decoded(model, decode(words), cfg)
}

/// [`certify`] over a stream the caller already decoded: `decoded` is
/// what [`decode`] returns for it.
pub(crate) fn certify_decoded(
    model: &QuantMlp,
    decoded: Result<Decoded, StreamError>,
    cfg: &HwConfig,
) -> CertifyOutcome {
    let mut report = Report::default();
    let mut witnesses = Vec::new();
    if model.validate().is_err() {
        report.push(
            RuleId::Npc021,
            Severity::Error,
            None,
            None,
            "claimed source model fails validation".into(),
        );
        return CertifyOutcome {
            report,
            certificate: None,
            witnesses,
        };
    }
    let decoded = match decoded {
        Ok(d) => d,
        Err(e) => {
            report.push(
                RuleId::Npc021,
                Severity::Error,
                Some(0),
                None,
                format!("stream does not decode to a model: {e}"),
            );
            return CertifyOutcome {
                report,
                certificate: None,
                witnesses,
            };
        }
    };
    let dec = &decoded.model;
    if !shapes_match(model, dec, &mut report) {
        return CertifyOutcome {
            report,
            certificate: None,
            witnesses,
        };
    }

    let domain = pixel_domain(decoded.input_range);
    let src_sem = canonicalize(model, domain);
    let dec_sem = canonicalize(dec, domain);

    compare(
        model,
        dec,
        &src_sem,
        &dec_sem,
        domain,
        &decoded.pixels,
        &mut report,
        &mut witnesses,
    );
    dead_output_slices(&dec_sem, &mut report);
    if dec_sem.min_width < cfg.accumulator_bits {
        report.push(
            RuleId::Npc026,
            Severity::Info,
            None,
            None,
            format!(
                "exact minimal accumulator width is {} bits; instance generated with {}",
                dec_sem.min_width, cfg.accumulator_bits
            ),
        );
    }

    let certificate = Certificate {
        version: CERTIFICATE_VERSION,
        model_digest: src_sem.digest,
        stream_digest: dec_sem.digest,
        layers: model.layer_count(),
        min_accumulator_bits: dec_sem.min_width,
    };
    CertifyOutcome {
        report,
        certificate: Some(certificate),
        witnesses,
    }
}

/// The admissible pixel domain: the stream's declared input range when
/// it is well-formed, the full 8-bit range otherwise (mirroring the
/// range analyzer's NPC020 fallback).
fn pixel_domain(declared: Option<(u8, u8)>) -> (u8, u8) {
    match declared {
        Some((lo, hi)) if lo <= hi => (lo, hi),
        _ => (0, u8::MAX),
    }
}

// ---------------------------------------------------------------------
// Canonical forms
// ---------------------------------------------------------------------

/// Exact step form of one neuron's monotone post-accumulator stage over
/// the reachable accumulator interval `[lo, hi]`: the output level at
/// `lo` plus every `(first_input, new_level)` change point, ascending.
#[derive(Clone, PartialEq, Eq, Debug)]
struct StepForm {
    lo: i64,
    hi: i64,
    base: i32,
    steps: Vec<(i64, i32)>,
}

impl StepForm {
    /// Smallest and largest output level the form takes.
    fn level_range(&self) -> (i32, i32) {
        let mut lo = self.base;
        let mut hi = self.base;
        for &(_, v) in &self.steps {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Every probe point needed to distinguish this form from another:
    /// the interval endpoints and both sides of each change point.
    fn probes(&self, out: &mut Vec<i64>) {
        out.push(self.lo);
        out.push(self.hi);
        for &(at, _) in &self.steps {
            out.push(at - 1);
            out.push(at);
        }
    }

    fn digest(&self, h: &mut u64) {
        fnv(h, word(self.lo));
        fnv(h, word(self.hi));
        fnv(h, word(i64::from(self.base)));
        for &(at, v) in &self.steps {
            fnv(h, word(at));
            fnv(h, word(i64::from(v)));
        }
    }
}

/// Recovers the exact step form of `f` over `[lo, hi]` by bisection.
/// Exact for monotone `f` (every post stage composed of BN and a
/// threshold/QUAN activation is monotone in the accumulator);
/// conservative — but still deterministic in `f`'s values, so equal
/// functions always canonicalize identically — otherwise.
fn step_form(f: &dyn Fn(i64) -> i32, lo: i64, hi: i64) -> StepForm {
    let base = f(lo);
    let mut steps = Vec::new();
    if hi > lo {
        collect_steps(f, lo, hi, base, f(hi), &mut steps);
    }
    StepForm {
        lo,
        hi,
        base,
        steps,
    }
}

fn collect_steps(
    f: &dyn Fn(i64) -> i32,
    lo: i64,
    hi: i64,
    flo: i32,
    fhi: i32,
    out: &mut Vec<(i64, i32)>,
) {
    if flo == fhi {
        return;
    }
    if lo + 1 == hi {
        out.push((hi, fhi));
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let fmid = f(mid);
    collect_steps(f, lo, mid, flo, fmid, out);
    collect_steps(f, mid, hi, fmid, fhi, out);
}

/// Canonical summary of one model over the pixel domain: per-layer step
/// forms, exact accumulator envelopes, output-score probes, and the
/// digest over all of it.
struct ModelSem {
    /// Step form per input-layer element.
    input: Vec<StepForm>,
    /// Per hidden layer: reachable accumulator interval and step form
    /// per neuron.
    hidden: Vec<Vec<(i64, i64, StepForm)>>,
    /// Reachable accumulator interval per output neuron.
    out_acc: Vec<(i64, i64)>,
    /// Raw Q32.5 score interval per output class.
    scores: Vec<(i64, i64)>,
    /// Exact minimal accumulator width over every FC layer's prefix
    /// envelope, in bits.
    min_width: u8,
    /// FNV-1a digest of every canonical form above.
    digest: u64,
}

fn fnv(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn word(v: i64) -> u64 {
    u64::from_ne_bytes(v.to_le_bytes())
}

/// Maps an output-level interval into the domain the next MAC consumes
/// (bipolar `2l − 1` for binary producers, the unsigned level
/// otherwise). Monotone, so endpoint images are exact.
fn mac_interval((lo, hi): (i32, i32), precision: Precision) -> (i64, i64) {
    if precision.is_binary() {
        (2 * i64::from(lo) - 1, 2 * i64::from(hi) - 1)
    } else {
        (i64::from(lo), i64::from(hi))
    }
}

/// Exact reachable interval and prefix-envelope width of one neuron's
/// accumulator: per-term extremes are independently attainable (each
/// input element ranges freely), so the running min/max of the term
/// sequence — bias last, mirroring the accumulate order — is attained
/// by a concrete input, making the width exact rather than just sound.
fn fc_envelope(weights: &[i8], inputs: &[(i64, i64)], bias: Option<i32>) -> ((i64, i64), u8) {
    let mut lo = 0i64;
    let mut hi = 0i64;
    let mut width = 1u8;
    for (&w, &(xlo, xhi)) in weights.iter().zip(inputs) {
        let a = i64::from(w) * xlo;
        let b = i64::from(w) * xhi;
        lo += a.min(b);
        hi += a.max(b);
        width = width.max(signed_width((lo, hi)));
    }
    if let Some(b) = bias {
        lo += i64::from(b);
        hi += i64::from(b);
        width = width.max(signed_width((lo, hi)));
    }
    ((lo, hi), width)
}

/// Evaluates one hidden/input neuron's post stage at accumulator `acc`.
fn post_at(
    act: &LayerActivation,
    bn: Option<netpu_nn::qmodel::BnParams>,
    neuron: usize,
    acc: i64,
    out: Precision,
) -> i32 {
    reference::neuron_post(act, bn, neuron, cast::i32_sat(acc), out)
}

/// Evaluates one output neuron's score at accumulator `acc` (before
/// bias/BN), returning the raw Q32.5 word.
fn score_at(layer: &netpu_nn::qmodel::OutputLayer, neuron: usize, acc: i64) -> i64 {
    let mut a = cast::i32_sat(acc);
    if let Some(b) = layer.bias.as_ref() {
        a = reference::accumulate(a, i64::from(b[neuron]));
    }
    let mut x = Fix::from_i32(a);
    if let Some(p) = layer.bn.as_ref() {
        x = p[neuron].apply(x);
    }
    x.raw()
}

fn canonicalize(mlp: &QuantMlp, (plo, phi): (u8, u8)) -> ModelSem {
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    // Input layer: one step form per element over the pixel domain.
    let mut input = Vec::with_capacity(mlp.input.len);
    let mut mac: Vec<(i64, i64)> = Vec::with_capacity(mlp.input.len);
    let first_in = mlp
        .hidden
        .first()
        .map(|h| h.in_precision)
        .unwrap_or(mlp.output.in_precision);
    for i in 0..mlp.input.len {
        let act = &mlp.input.activation;
        let out = mlp.input.out_precision;
        let f = |p: i64| act.apply(i, Fix::from_i32(cast::i32_sat(p)), out);
        let form = step_form(&f, i64::from(plo), i64::from(phi));
        form.digest(&mut digest);
        mac.push(mac_interval(form.level_range(), first_in));
        input.push(form);
    }

    let mut min_width = 1u8;
    let mut hidden = Vec::with_capacity(mlp.hidden.len());
    for (k, layer) in mlp.hidden.iter().enumerate() {
        let mut neurons = Vec::with_capacity(layer.neurons);
        let mut next_mac = Vec::with_capacity(layer.neurons);
        let next_in = mlp
            .hidden
            .get(k + 1)
            .map(|h| h.in_precision)
            .unwrap_or(mlp.output.in_precision);
        for n in 0..layer.neurons {
            let row = &layer.weights[n * layer.in_len..(n + 1) * layer.in_len];
            let bias = layer.bias.as_ref().map(|b| b[n]);
            let ((alo, ahi), w) = fc_envelope(row, &mac, bias);
            min_width = min_width.max(w);
            for &wv in row {
                fnv(&mut digest, word(i64::from(wv)));
            }
            let bn = layer.bn.as_ref().map(|p| p[n]);
            let act = &layer.activation;
            let out = layer.out_precision;
            let f = |acc: i64| post_at(act, bn, n, acc, out);
            let form = step_form(&f, alo, ahi);
            form.digest(&mut digest);
            next_mac.push(mac_interval(form.level_range(), next_in));
            neurons.push((alo, ahi, form));
        }
        mac = next_mac;
        hidden.push(neurons);
    }

    // Output layer: accumulator envelopes and score probes.
    let mut out_acc = Vec::with_capacity(mlp.output.neurons);
    let mut scores = Vec::with_capacity(mlp.output.neurons);
    for n in 0..mlp.output.neurons {
        let row = &mlp.output.weights[n * mlp.output.in_len..(n + 1) * mlp.output.in_len];
        // Output bias flows through `score_at`, not the envelope, so
        // the probe domain is the pre-bias accumulator.
        let ((alo, ahi), w) = fc_envelope(row, &mac, None);
        min_width = min_width.max(
            w.max(signed_width((
                alo + mlp
                    .output
                    .bias
                    .as_ref()
                    .map_or(0, |b| i64::from(b[n]).min(0)),
                ahi + mlp
                    .output
                    .bias
                    .as_ref()
                    .map_or(0, |b| i64::from(b[n]).max(0)),
            ))),
        );
        for &wv in row {
            fnv(&mut digest, word(i64::from(wv)));
        }
        for p in canonical_probes(alo, ahi) {
            fnv(&mut digest, word(score_at(&mlp.output, n, p)));
        }
        let s_lo = score_at(&mlp.output, n, alo);
        let s_hi = score_at(&mlp.output, n, ahi);
        scores.push((s_lo.min(s_hi), s_lo.max(s_hi)));
        out_acc.push((alo, ahi));
    }

    ModelSem {
        input,
        hidden,
        out_acc,
        scores,
        min_width,
        digest,
    }
}

/// The canonical probe set for an output neuron's score affine over
/// `[lo, hi]`: endpoints, their neighbours, zero when reachable, and a
/// stratified interior sweep. A pure function of the interval, so both
/// sides of a comparison (and both digests) probe identical points.
fn canonical_probes(lo: i64, hi: i64) -> Vec<i64> {
    let mut probes = vec![lo, hi, lo + 1, hi - 1];
    if lo <= 0 && 0 <= hi {
        probes.push(0);
    }
    let span = hi.saturating_sub(lo);
    if span > 2 {
        for k in 1..SCORE_PROBES {
            probes.push(lo + span / SCORE_PROBES * k);
        }
    }
    probes.retain(|p| (lo..=hi).contains(p));
    probes.sort_unstable();
    probes.dedup();
    probes
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

fn shapes_match(src: &QuantMlp, dec: &QuantMlp, report: &mut Report) -> bool {
    let mut ok = true;
    let mut flag = |layer: usize, msg: String, ok: &mut bool| {
        report.push(RuleId::Npc021, Severity::Error, None, Some(layer), msg);
        *ok = false;
    };
    if src.layer_count() != dec.layer_count() {
        flag(
            0,
            format!(
                "layer count mismatch: source {}, stream {}",
                src.layer_count(),
                dec.layer_count()
            ),
            &mut ok,
        );
        return false;
    }
    if src.input.len != dec.input.len
        || src.input.out_precision != dec.input.out_precision
        || src.input.activation.kind() != dec.input.activation.kind()
    {
        flag(0, "input layer shape/semantics mismatch".into(), &mut ok);
    }
    for (k, (s, d)) in src.hidden.iter().zip(&dec.hidden).enumerate() {
        if s.in_len != d.in_len
            || s.neurons != d.neurons
            || s.weight_precision != d.weight_precision
            || s.in_precision != d.in_precision
            || s.out_precision != d.out_precision
            || s.activation.kind() != d.activation.kind()
        {
            flag(
                k + 1,
                format!("hidden layer {k} shape/semantics mismatch"),
                &mut ok,
            );
        }
    }
    if src.output.in_len != dec.output.in_len
        || src.output.neurons != dec.output.neurons
        || src.output.weight_precision != dec.output.weight_precision
        || src.output.in_precision != dec.output.in_precision
    {
        flag(
            src.layer_count() - 1,
            "output layer shape/semantics mismatch".into(),
            &mut ok,
        );
    }
    ok
}

/// Per-neuron parameter row used for exact-encoding comparison and the
/// NPC024 permutation check: the weight row, the bias/BN words, and the
/// activation parameters, all as raw integers.
fn neuron_row(
    weights: &[i8],
    in_len: usize,
    bias: &Option<Vec<i32>>,
    bn: &Option<Vec<netpu_nn::qmodel::BnParams>>,
    act: Option<(&LayerActivation, Precision)>,
    n: usize,
) -> Vec<i64> {
    let mut row: Vec<i64> = weights[n * in_len..(n + 1) * in_len]
        .iter()
        .map(|&w| i64::from(w))
        .collect();
    row.push(i64::MIN + 1); // section marker
    if let Some(b) = bias {
        row.push(i64::from(b[n]));
    }
    if let Some(p) = bn {
        row.push(i64::from(p[n].scale_q16));
        row.push(p[n].offset.raw());
    }
    row.push(i64::MIN + 2);
    if let Some((a, out)) = act {
        match a {
            LayerActivation::Sign { .. } | LayerActivation::MultiThreshold { .. } => {
                row.extend(a.threshold_row(n, out).iter().map(|t| t.raw()));
            }
            LayerActivation::Relu { quant }
            | LayerActivation::Sigmoid { quant }
            | LayerActivation::Tanh { quant } => {
                row.push(quant.scale.raw());
                row.push(quant.offset.raw());
            }
        }
    }
    row
}

/// `true` when the two layers' neuron rows are equal as multisets but
/// not pointwise — the signature of a row-interleave/packing bug.
fn is_permutation(src_rows: &[Vec<i64>], dec_rows: &[Vec<i64>]) -> bool {
    if src_rows == dec_rows {
        return false;
    }
    let mut a = src_rows.to_vec();
    let mut b = dec_rows.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

struct LayerDiff {
    layer: usize,
    neuron: usize,
    rule: RuleId,
    detail: String,
}

#[allow(clippy::too_many_arguments)]
fn compare(
    src: &QuantMlp,
    dec: &QuantMlp,
    src_sem: &ModelSem,
    dec_sem: &ModelSem,
    domain: (u8, u8),
    hint: &[u8],
    report: &mut Report,
    witnesses: &mut Vec<Witness>,
) {
    let mut diffs: Vec<LayerDiff> = Vec::new();
    let mut drift: Vec<(usize, String)> = Vec::new();

    // Input layer: pointwise step-form comparison.
    for i in 0..src.input.len {
        let sf = &src_sem.input[i];
        let df = &dec_sem.input[i];
        let mut probes = Vec::new();
        sf.probes(&mut probes);
        df.probes(&mut probes);
        probes.sort_unstable();
        probes.dedup();
        let sa = &src.input.activation;
        let da = &dec.input.activation;
        let (so, dd) = (src.input.out_precision, dec.input.out_precision);
        let diverged = probes.iter().find(|&&p| {
            sa.apply(i, Fix::from_i32(cast::i32_sat(p)), so)
                != da.apply(i, Fix::from_i32(cast::i32_sat(p)), dd)
        });
        if let Some(&p) = diverged {
            diffs.push(LayerDiff {
                layer: 0,
                neuron: i,
                rule: RuleId::Npc022,
                detail: format!("input element {i} quantizes pixel {p} differently"),
            });
        } else if neuron_row(&[], 0, &None, &None, Some((sa, so)), i)
            != neuron_row(&[], 0, &None, &None, Some((da, dd)), i)
        {
            drift.push((0, format!("input element {i}")));
        }
    }

    // Hidden layers.
    for (k, (sl, dl)) in src.hidden.iter().zip(&dec.hidden).enumerate() {
        let layer = k + 1;
        if sl.weights != dl.weights {
            let src_rows: Vec<Vec<i64>> = (0..sl.neurons)
                .map(|n| {
                    neuron_row(
                        &sl.weights,
                        sl.in_len,
                        &sl.bias,
                        &sl.bn,
                        Some((&sl.activation, sl.out_precision)),
                        n,
                    )
                })
                .collect();
            let dec_rows: Vec<Vec<i64>> = (0..dl.neurons)
                .map(|n| {
                    neuron_row(
                        &dl.weights,
                        dl.in_len,
                        &dl.bias,
                        &dl.bn,
                        Some((&dl.activation, dl.out_precision)),
                        n,
                    )
                })
                .collect();
            let neuron = (0..sl.neurons)
                .find(|&n| src_rows[n] != dec_rows[n])
                .unwrap_or(0);
            if is_permutation(&src_rows, &dec_rows) {
                diffs.push(LayerDiff {
                    layer,
                    neuron,
                    rule: RuleId::Npc024,
                    detail: format!(
                        "hidden layer {k}: weight rows are a permutation of the source rows"
                    ),
                });
            } else {
                diffs.push(LayerDiff {
                    layer,
                    neuron,
                    rule: RuleId::Npc022,
                    detail: format!("hidden layer {k} neuron {neuron}: weight row differs"),
                });
            }
            continue;
        }
        // Same affine part: compare post stages over the union of both
        // reachable accumulator intervals.
        for n in 0..sl.neurons {
            let (s_lo, s_hi, sf) = &src_sem.hidden[k][n];
            let (d_lo, d_hi, df) = &dec_sem.hidden[k][n];
            let (lo, hi) = ((*s_lo).min(*d_lo), (*s_hi).max(*d_hi));
            let mut probes = vec![lo, hi];
            sf.probes(&mut probes);
            df.probes(&mut probes);
            probes.retain(|p| (lo..=hi).contains(p));
            probes.sort_unstable();
            probes.dedup();
            let s_bn = sl.bn.as_ref().map(|p| p[n]);
            let d_bn = dl.bn.as_ref().map(|p| p[n]);
            let s_bias = sl.bias.as_ref().map(|b| b[n]);
            let d_bias = dl.bias.as_ref().map(|b| b[n]);
            // Bias is part of the accumulator; a bias delta shifts the
            // effective step positions, which the probe comparison only
            // sees through the accumulator domain. Fold it in here.
            let diverged = probes.iter().find(|&&p| {
                let sp = i64::from(s_bias.unwrap_or(0));
                let dp = i64::from(d_bias.unwrap_or(0));
                post_at(&sl.activation, s_bn, n, p + sp, sl.out_precision)
                    != post_at(&dl.activation, d_bn, n, p + dp, dl.out_precision)
            });
            if let Some(&p) = diverged {
                diffs.push(LayerDiff {
                    layer,
                    neuron: n,
                    rule: RuleId::Npc022,
                    detail: format!(
                        "hidden layer {k} neuron {n}: post stage diverges at accumulator {p}"
                    ),
                });
            } else if neuron_row(
                &sl.weights,
                sl.in_len,
                &sl.bias,
                &sl.bn,
                Some((&sl.activation, sl.out_precision)),
                n,
            ) != neuron_row(
                &dl.weights,
                dl.in_len,
                &dl.bias,
                &dl.bn,
                Some((&dl.activation, dl.out_precision)),
                n,
            ) {
                drift.push((layer, format!("hidden layer {k} neuron {n}")));
            }
        }
    }

    // Output layer.
    let out_layer = src.layer_count() - 1;
    let (so, dobj) = (&src.output, &dec.output);
    if so.weights != dobj.weights {
        let src_rows: Vec<Vec<i64>> = (0..so.neurons)
            .map(|n| neuron_row(&so.weights, so.in_len, &so.bias, &so.bn, None, n))
            .collect();
        let dec_rows: Vec<Vec<i64>> = (0..dobj.neurons)
            .map(|n| neuron_row(&dobj.weights, dobj.in_len, &dobj.bias, &dobj.bn, None, n))
            .collect();
        let neuron = (0..so.neurons)
            .find(|&n| src_rows[n] != dec_rows[n])
            .unwrap_or(0);
        let rule = if is_permutation(&src_rows, &dec_rows) {
            RuleId::Npc024
        } else {
            RuleId::Npc022
        };
        diffs.push(LayerDiff {
            layer: out_layer,
            neuron,
            rule,
            detail: format!("output layer: weight rows differ (neuron {neuron})"),
        });
    } else {
        for n in 0..so.neurons {
            let (s_lo, s_hi) = src_sem.out_acc[n];
            let (d_lo, d_hi) = dec_sem.out_acc[n];
            let (lo, hi) = (s_lo.min(d_lo), s_hi.max(d_hi));
            let mut probes = canonical_probes(lo, hi);
            probes.extend(crossing_probes(so, dobj, n, lo, hi));
            probes.sort_unstable();
            probes.dedup();
            let diverged = probes
                .iter()
                .find(|&&p| score_at(so, n, p) != score_at(dobj, n, p));
            if let Some(&p) = diverged {
                diffs.push(LayerDiff {
                    layer: out_layer,
                    neuron: n,
                    rule: RuleId::Npc022,
                    detail: format!("output neuron {n}: score diverges at accumulator {p}"),
                });
            } else if neuron_row(&so.weights, so.in_len, &so.bias, &so.bn, None, n)
                != neuron_row(&dobj.weights, dobj.in_len, &dobj.bias, &dobj.bn, None, n)
            {
                drift.push((out_layer, format!("output neuron {n}")));
            }
        }
    }

    // Emit: one NPC022/NPC024 per diverging layer (first finding wins a
    // witness search), one NPC023 per drifting layer.
    let mut seen_layers = Vec::new();
    for d in &diffs {
        if seen_layers.contains(&(d.layer, d.rule)) {
            continue;
        }
        seen_layers.push((d.layer, d.rule));
        let witness = find_witness(src, dec, hint, domain, d.layer).map(|mut w| {
            w.neuron = d.neuron;
            w
        });
        let msg = match &witness {
            Some(w) => format!(
                "{} — distinguishing input found ({} pixels)",
                d.detail,
                w.pixels.len()
            ),
            None => format!("{} (no end-to-end witness found)", d.detail),
        };
        report.push(d.rule, Severity::Error, None, Some(d.layer), msg);
        if let Some(w) = witness {
            witnesses.push(w);
        }
    }
    let mut seen_drift = Vec::new();
    for (layer, what) in drift {
        if seen_drift.contains(&layer) {
            continue;
        }
        seen_drift.push(layer);
        report.push(
            RuleId::Npc023,
            Severity::Warning,
            None,
            Some(layer),
            format!("{what}: parameter encoding drifts from the source fold with no reachable divergence"),
        );
    }
}

/// Analytic crossing probes for two output-score parameterizations:
/// accumulator values near which two different BN affines can first
/// disagree. Pure endpoints miss a crossing interior to the interval
/// when both affines have similar slopes.
fn crossing_probes(
    src: &netpu_nn::qmodel::OutputLayer,
    dec: &netpu_nn::qmodel::OutputLayer,
    n: usize,
    lo: i64,
    hi: i64,
) -> Vec<i64> {
    let params = |l: &netpu_nn::qmodel::OutputLayer| -> (i64, i64) {
        match (&l.bias, &l.bn) {
            (Some(b), _) => (
                1 << 16,
                i64::from(b[n]) << netpu_arith::fixed::FRAC_BITS << 16,
            ),
            (_, Some(p)) => (i64::from(p[n].scale_q16), p[n].offset.raw() << 16),
            _ => (1 << 16, 0),
        }
    };
    let (s1, o1) = params(src);
    let (s2, o2) = params(dec);
    if s1 == s2 {
        return Vec::new();
    }
    // Solve (x<<5)·s1 + o1 ≈ (x<<5)·s2 + o2 in Q16.16: the divergence
    // onset is near x* = (o2 − o1) / (32·(s1 − s2)).
    let num = o2 - o1;
    let den = 32 * (s1 - s2);
    if den == 0 {
        return Vec::new();
    }
    let x = num / den;
    (-3..=3)
        .map(|d| x + d)
        .filter(|p| (lo..=hi).contains(p))
        .collect()
}

// ---------------------------------------------------------------------
// NPC025: provably-dead output slices
// ---------------------------------------------------------------------

/// Flags output classes MaxOut can never select: class `k` is dead when
/// some earlier class's minimum score dominates `k`'s maximum (ties go
/// to the lowest index), or some later class's minimum strictly beats
/// it. Interval minima/maxima are attained by concrete inputs per
/// neuron, so domination here is a proof, not a heuristic.
fn dead_output_slices(sem: &ModelSem, report: &mut Report) {
    let n = sem.scores.len();
    let mut dead = Vec::new();
    for k in 0..n {
        let (_, k_max) = sem.scores[k];
        let dominated = (0..n).any(|j| {
            let (j_min, _) = sem.scores[j];
            j != k && (if j < k { j_min >= k_max } else { j_min > k_max })
        });
        if dominated {
            dead.push(k);
        }
    }
    if !dead.is_empty() {
        let shown: Vec<String> = dead.iter().take(4).map(|k| k.to_string()).collect();
        report.push(
            RuleId::Npc025,
            Severity::Warning,
            None,
            None,
            format!(
                "{} of {} output classes are provably dead under MaxOut (classes {}{})",
                dead.len(),
                n,
                shown.join(", "),
                if dead.len() > 4 { ", …" } else { "" }
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Witness search
// ---------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn pixel(&mut self, lo: u8, hi: u8) -> u8 {
        let span = u64::from(hi) - u64::from(lo) + 1;
        cast::u8_sat(u64::from(lo) + self.next() % span)
    }
}

/// Number of elements differing between the two models' activations at
/// stream layer `focus` (0 = input layer, `1..=H` = hidden layers,
/// anything larger = output scores) plus a large bonus when the final
/// scores differ — the hill-climbing objective.
fn divergence_score(src: &QuantMlp, dec: &QuantMlp, pixels: &[u8], focus: usize) -> u64 {
    let a = reference::infer_traced(src, pixels);
    let b = reference::infer_traced(dec, pixels);
    let local = if focus == 0 {
        diff_count(&a.input_levels, &b.input_levels)
    } else if focus <= a.hidden_levels.len() && focus <= b.hidden_levels.len() {
        diff_count(&a.hidden_levels[focus - 1], &b.hidden_levels[focus - 1])
    } else {
        0
    };
    let end = if a.scores != b.scores { 1_000_000 } else { 0 };
    local + end
}

fn diff_count<T: PartialEq>(a: &[T], b: &[T]) -> u64 {
    if a.len() != b.len() {
        return cast::u64_from_usize(a.len().max(b.len()));
    }
    cast::u64_from_usize(a.iter().zip(b).filter(|(x, y)| x != y).count())
}

fn scores_differ(src: &QuantMlp, dec: &QuantMlp, pixels: &[u8]) -> bool {
    reference::infer_traced(src, pixels).scores != reference::infer_traced(dec, pixels).scores
}

/// Searches for a concrete input on which the source model and the
/// decoded stream model produce different output scores: fixed
/// candidates, a seeded random sweep, then coordinate descent driven by
/// layer-local divergence at the flagged layer. Deterministic in its
/// arguments, like every other part of the verifier.
fn find_witness(
    src: &QuantMlp,
    dec: &QuantMlp,
    hint: &[u8],
    (lo, hi): (u8, u8),
    focus: usize,
) -> Option<Witness> {
    let len = src.input.len;
    let mid = cast::u8_sat((u64::from(lo) + u64::from(hi)) / 2);
    let mut candidates: Vec<Vec<u8>> = vec![
        vec![lo; len],
        vec![hi; len],
        vec![mid; len],
        (0..len).map(|i| if i % 2 == 0 { lo } else { hi }).collect(),
    ];
    if hint.len() == len {
        candidates.insert(0, hint.to_vec());
    }
    let found = |pixels: Vec<u8>| -> Option<Witness> {
        Some(Witness {
            layer: focus,
            neuron: 0,
            pixels,
        })
    };
    for c in &candidates {
        if scores_differ(src, dec, c) {
            return found(c.clone());
        }
    }
    let mut rng = XorShift(0x4E50_5345_0000_0001 ^ cast::u64_from_usize(focus));
    let mut best = candidates.swap_remove(0);
    let mut best_score = divergence_score(src, dec, &best, focus);
    for _ in 0..WITNESS_RANDOM_TRIES {
        let p: Vec<u8> = (0..len).map(|_| rng.pixel(lo, hi)).collect();
        if scores_differ(src, dec, &p) {
            return found(p);
        }
        let s = divergence_score(src, dec, &p, focus);
        if s > best_score {
            best_score = s;
            best = p;
        }
    }
    // Coordinate descent from the best random start.
    let coords = len.min(WITNESS_CLIMB_COORDS);
    for _ in 0..WITNESS_CLIMB_PASSES {
        let mut improved = false;
        for i in 0..coords {
            let orig = best[i];
            for v in [lo, hi, mid] {
                if v == orig {
                    continue;
                }
                best[i] = v;
                let s = divergence_score(src, dec, &best, focus);
                if s > best_score {
                    best_score = s;
                    improved = true;
                    if scores_differ(src, dec, &best) {
                        return found(best);
                    }
                    break;
                }
                best[i] = orig;
            }
        }
        if !improved {
            break;
        }
    }
    if scores_differ(src, dec, &best) {
        return found(best);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;

    fn cfg() -> HwConfig {
        HwConfig::paper_instance()
    }

    #[test]
    fn step_form_recovers_a_threshold_staircase() {
        let f = |x: i64| -> i32 {
            if x < -5 {
                0
            } else if x < 10 {
                1
            } else {
                2
            }
        };
        let form = step_form(&f, -100, 100);
        assert_eq!(form.base, 0);
        assert_eq!(form.steps, vec![(-5, 1), (10, 2)]);
        assert_eq!(form.level_range(), (0, 2));
    }

    #[test]
    fn honest_zoo_compile_certifies_equivalent() {
        let model = ZooModel::TfcW2A2
            .build_untrained(3, BnMode::Folded)
            .expect("zoo model builds");
        let loadable = netpu_compiler::compile(&model, &vec![0u8; 784]).expect("compiles");
        let outcome = certify(&model, &loadable.words, &cfg());
        assert!(outcome.is_equivalent(), "{}", outcome.report);
        let cert = outcome.certificate.expect("certificate");
        assert!(cert.is_equivalent());
        assert!(cert.validate(&model, &loadable.words, &cfg()));
    }

    #[test]
    fn hardware_bn_zoo_compile_certifies_equivalent() {
        let model = ZooModel::LfcW1A2
            .build_untrained(5, BnMode::Hardware)
            .expect("zoo model builds");
        let (loadable, cert) =
            compile_certified(&model, &vec![7u8; 784], &cfg()).expect("self-certifies");
        assert!(cert.is_equivalent());
        assert!(cert.validate(&model, &loadable.words, &cfg()));
    }

    #[test]
    fn a_swapped_weight_pair_is_caught_with_a_witness() {
        let model = ZooModel::TfcW1A1
            .build_untrained(11, BnMode::Folded)
            .expect("zoo model builds");
        let mut mutated = model.clone();
        // Swap the first two weights of hidden neuron 0: same multiset,
        // different function.
        let w = &mut mutated.hidden[0].weights;
        let i = (0..w.len() - 1)
            .find(|&i| w[i] != w[i + 1])
            .expect("adjacent differing weights");
        w.swap(i, i + 1);
        let loadable = netpu_compiler::compile(&mutated, &vec![0u8; 784]).expect("compiles");
        let outcome = certify(&model, &loadable.words, &cfg());
        assert!(!outcome.is_equivalent());
        assert!(outcome.report.fired(RuleId::Npc022), "{}", outcome.report);
        let w = outcome.witnesses.first().expect("witness found");
        assert!(scores_differ(
            &model,
            &netpu_compiler::decode(&loadable.words)
                .expect("decodes")
                .model,
            &w.pixels
        ));
    }

    #[test]
    fn a_permuted_layer_fires_npc024() {
        let model = ZooModel::TfcW1A1
            .build_untrained(13, BnMode::Folded)
            .expect("zoo model builds");
        let mut mutated = model.clone();
        let h = &mut mutated.hidden[0];
        // Swap neurons 0 and 1 wholesale: rows, biases, thresholds.
        for i in 0..h.in_len {
            h.weights.swap(i, h.in_len + i);
        }
        if let Some(b) = h.bias.as_mut() {
            b.swap(0, 1);
        }
        if let LayerActivation::Sign { thresholds } = &mut h.activation {
            thresholds.swap(0, 1);
        }
        if let LayerActivation::MultiThreshold { thresholds } = &mut h.activation {
            let count = h.out_precision.multi_threshold_count();
            let (first, rest) = thresholds.split_at_mut(count);
            first.swap_with_slice(&mut rest[..count]);
        }
        let loadable = netpu_compiler::compile(&mutated, &vec![0u8; 784]).expect("compiles");
        let outcome = certify(&model, &loadable.words, &cfg());
        assert!(outcome.report.fired(RuleId::Npc024), "{}", outcome.report);
    }

    #[test]
    fn a_shape_mismatch_fires_npc021_and_yields_no_certificate() {
        let a = ZooModel::TfcW1A1
            .build_untrained(1, BnMode::Folded)
            .expect("builds");
        let b = ZooModel::SfcW1A1
            .build_untrained(1, BnMode::Folded)
            .expect("builds");
        let loadable = netpu_compiler::compile(&b, &vec![0u8; 784]).expect("compiles");
        let outcome = certify(&a, &loadable.words, &cfg());
        assert!(outcome.report.fired(RuleId::Npc021), "{}", outcome.report);
        assert!(outcome.certificate.is_none());
    }

    #[test]
    fn garbage_words_fire_npc021() {
        let model = ZooModel::TfcW1A1
            .build_untrained(1, BnMode::Folded)
            .expect("builds");
        let outcome = certify(&model, &[0xDEAD, 0xBEEF], &cfg());
        assert!(outcome.report.fired(RuleId::Npc021));
        assert!(!outcome.is_equivalent());
    }

    #[test]
    fn certificates_render_and_version() {
        let model = ZooModel::TfcW1A1
            .build_untrained(2, BnMode::Folded)
            .expect("builds");
        let (_, cert) = compile_certified(&model, &vec![0u8; 784], &cfg()).expect("certifies");
        let text = cert.to_string();
        assert!(text.contains("equivalent") && text.contains("min acc width"));
        assert_eq!(cert.version, CERTIFICATE_VERSION);
    }
}
