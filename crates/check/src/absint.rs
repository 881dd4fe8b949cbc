//! Abstract-interpretation range analysis over a stream's view
//! (DESIGN.md §4.4).
//!
//! Propagates per-value intervals layer by layer from the header's
//! declared input range through the exact datapath the TNPU implements:
//! MAC into the saturating 32-bit accumulator, optional fixed-point BN,
//! threshold / QUAN activation. Every transfer function either runs the
//! *concrete* arithmetic at the interval endpoints (sound because each
//! post-accumulator stage is monotone or antitone in its input) or
//! over-approximates to a trivially sound interval, so every value the
//! simulator can produce for an admissible input lies inside the
//! predicted bounds — the property the `absint_soundness` differential
//! suite pins against the samples a `netpu_sim::Observer` records.
//!
//! The accumulator domain needs care: the hardware clamps to 32 bits
//! once per *weight word*, so clamping at any finer granularity (e.g.
//! per product) is unsound — a later negative word can pull a
//! concretely-clamped sum back under an abstract bound. Instead we track
//! the **unclamped prefix envelope** in 64-bit arithmetic at product
//! granularity: its prefix set contains every word-boundary prefix, so
//! if the envelope stays inside the 32-bit range no clamp ever engages
//! and the exact total-sum interval is valid; otherwise the accumulator
//! interval widens to the full 32-bit range (trivially sound — the
//! register is 32-bit) and NPC014 reports the overflow hazard.
//!
//! XNOR-path layers additionally carry a parity domain: every product of
//! bipolar ±1 operands is odd, so a neuron's accumulator is congruent to
//! `in_len + bias (mod 2)` and interval endpoints of the wrong parity
//! can be tightened inward before threshold-crossing checks.

use crate::diag::{Report, RuleId, Severity};
use netpu_arith::{Fix, Precision};
use netpu_compiler::StreamView;
use netpu_core::HwConfig;
use netpu_nn::qmodel::{BnParams, LayerActivation};

/// Per-neuron value intervals (inclusive) the analysis proved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NeuronBounds {
    /// Post-bias accumulator interval (the value entering the post-MAC
    /// stages). `None` for input-layer "neurons" (no MAC).
    pub acc: Option<(i32, i32)>,
    /// Post-BN interval as raw Q32.5 words (hardware-BN layers only).
    pub post_bn: Option<(i64, i64)>,
    /// Output-level interval (input/hidden layers).
    pub level: Option<(i32, i32)>,
    /// Output-score interval as raw Q32.5 words (output layer).
    pub score: Option<(i64, i64)>,
}

/// One layer's proved bounds, in neuron order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerBounds {
    /// Per-neuron bounds.
    pub neurons: Vec<NeuronBounds>,
}

/// The full analysis result: one [`LayerBounds`] per hardware layer
/// (input, hidden…, output).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RangeAnalysis {
    /// Per-layer bounds, in layer order.
    pub layers: Vec<LayerBounds>,
}

/// Accumulator parity on the XNOR path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Parity {
    Even,
    Odd,
    Unknown,
}

impl Parity {
    fn of(v: i64) -> Parity {
        if v.rem_euclid(2) == 0 {
            Parity::Even
        } else {
            Parity::Odd
        }
    }
}

/// Tightens interval endpoints of the wrong parity inward. Sound when
/// every concrete value in the interval has parity `p` (the interval is
/// non-empty, so a value of that parity exists between the endpoints).
fn tighten_parity((lo, hi): (i64, i64), p: Parity) -> (i64, i64) {
    if p == Parity::Unknown {
        return (lo, hi);
    }
    let lo = if Parity::of(lo) == p { lo } else { lo + 1 };
    let hi = if Parity::of(hi) == p { hi } else { hi - 1 };
    (lo, hi)
}

/// Smallest signed two's-complement width holding every value of the
/// interval: the one width rule of the range analysis, the translation
/// validator's exact widths and the design-space search.
pub fn signed_width((lo, hi): (i64, i64)) -> u8 {
    for bits in 1u8..=63 {
        let min = -(1i64 << (bits - 1));
        let max = (1i64 << (bits - 1)) - 1;
        if lo >= min && hi <= max {
            return bits;
        }
    }
    64
}

/// One FC neuron's accumulator analysis.
struct FcAcc {
    /// Post-bias accumulator interval in the saturated 32-bit domain.
    acc: (i32, i32),
    /// Unclamped prefix envelope (including the bias step), 64-bit.
    env: (i64, i64),
}

/// Analyzes one FC neuron's MAC against the per-input mac-domain
/// intervals. `parity` is the known accumulator parity (XNOR layers).
fn fc_neuron(
    weights: impl Iterator<Item = i8>,
    inputs: &[(i64, i64)],
    bias: Option<i32>,
    parity: Parity,
) -> FcAcc {
    let mut sum = (0i64, 0i64);
    let mut env = (0i64, 0i64);
    for (w, &(ilo, ihi)) in weights.zip(inputs) {
        let (a, b) = (i64::from(w) * ilo, i64::from(w) * ihi);
        sum.0 += a.min(b);
        sum.1 += a.max(b);
        env.0 = env.0.min(sum.0);
        env.1 = env.1.max(sum.1);
    }
    if let Some(b) = bias {
        sum.0 += i64::from(b);
        sum.1 += i64::from(b);
        env.0 = env.0.min(sum.0);
        env.1 = env.1.max(sum.1);
    }
    let exact = env.0 >= i64::from(i32::MIN) && env.1 <= i64::from(i32::MAX);
    let acc = if exact {
        // No prefix can engage the 32-bit clamp (the envelope covers
        // every word-boundary prefix), so the register holds the exact
        // sum and the parity domain may tighten the endpoints.
        let (lo, hi) = tighten_parity(sum, parity);
        (
            i32::try_from(lo).unwrap_or(i32::MIN),
            i32::try_from(hi).unwrap_or(i32::MAX),
        )
    } else {
        // A clamp may engage mid-sum; the register is still a 32-bit
        // value, so the full range is trivially sound.
        (i32::MIN, i32::MAX)
    };
    FcAcc { acc, env }
}

/// Evaluates the concrete BN transform at the accumulator endpoints.
/// Sound because `mul_q16`+`sat_add` is monotone (antitone for negative
/// scales), covered by taking min/max of both endpoint images.
fn bn_bounds(bn: &BnParams, acc: (i32, i32)) -> (Fix, Fix) {
    let a = bn.apply(Fix::from_i32(acc.0));
    let b = bn.apply(Fix::from_i32(acc.1));
    (a.min(b), a.max(b))
}

/// The BN transform *without* the datapath's Q32.5 saturation, at one
/// endpoint — used to detect reachable saturation (NPC015).
fn bn_unsaturated(bn: &BnParams, acc: i32) -> i128 {
    let raw = i128::from(acc) << netpu_arith::fixed::FRAC_BITS;
    ((raw * i128::from(bn.scale_q16)) >> 16) + i128::from(bn.offset.raw())
}

/// Evaluates the concrete activation (+ QUAN) at the value endpoints.
/// Every activation path is monotone in its input (antitone only through
/// a negative QUAN scale), so min/max of the endpoint images is sound.
fn level_bounds(act: &LayerActivation, neuron: usize, x: (Fix, Fix), out: Precision) -> (i32, i32) {
    let a = act.apply(neuron, x.0, out);
    let b = act.apply(neuron, x.1, out);
    (a.min(b), a.max(b))
}

/// Converts a level interval into the domain the next MAC consumes:
/// bipolar ±1 for binary producing precision (monotone map 0→−1, 1→+1),
/// the unsigned level unchanged otherwise.
fn mac_domain((lo, hi): (i32, i32), precision: Precision) -> (i64, i64) {
    if precision.is_binary() {
        (2 * i64::from(lo) - 1, 2 * i64::from(hi) - 1)
    } else {
        (i64::from(lo), i64::from(hi))
    }
}

/// Per-layer finding accumulators, flushed as one aggregated diagnostic
/// per (rule, layer).
#[derive(Default)]
struct LayerFindings {
    overflow: Vec<usize>,
    saturation: Vec<usize>,
    dead: Vec<usize>,
    constant: Vec<usize>,
    comparator: Vec<usize>,
    max_width: u8,
}

fn emit(
    report: &mut Report,
    rule: RuleId,
    severity: Severity,
    layer: usize,
    neurons: &[usize],
    what: &str,
) {
    if neurons.is_empty() {
        return;
    }
    let shown: Vec<String> = neurons.iter().take(4).map(usize::to_string).collect();
    let suffix = if neurons.len() > shown.len() {
        format!(" and {} more", neurons.len() - shown.len())
    } else {
        String::new()
    };
    report.push(
        rule,
        severity,
        None,
        Some(layer),
        format!(
            "{what} for {} neuron(s): {}{}",
            neurons.len(),
            shown.join(", "),
            suffix
        ),
    );
}

fn flush(report: &mut Report, layer: usize, f: &LayerFindings, cfg: &HwConfig) {
    emit(
        report,
        RuleId::Npc014,
        Severity::Error,
        layer,
        &f.overflow,
        &format!(
            "worst-case prefix sums exceed the {}-bit accumulator",
            cfg.accumulator_bits
        ),
    );
    emit(
        report,
        RuleId::Npc015,
        Severity::Warning,
        layer,
        &f.saturation,
        "fixed-point saturation reachable in the BN stage",
    );
    emit(
        report,
        RuleId::Npc016,
        Severity::Warning,
        layer,
        &f.dead,
        "no activation threshold crossable within the proved bounds",
    );
    emit(
        report,
        RuleId::Npc017,
        Severity::Warning,
        layer,
        &f.constant,
        "output channel is constant over the admissible input range",
    );
    emit(
        report,
        RuleId::Npc018,
        Severity::Error,
        layer,
        &f.comparator,
        "BN output can leave the 32-bit comparator range",
    );
    if f.max_width > 0 && f.max_width < cfg.accumulator_bits {
        report.push(
            RuleId::Npc019,
            Severity::Info,
            None,
            Some(layer),
            format!(
                "a {}-bit accumulator is provably sufficient (instance generated with {} bits)",
                f.max_width, cfg.accumulator_bits
            ),
        );
    }
}

/// Checks the declared input range against the stream's own input
/// pixels (NPC020) and returns the range the rest of the analysis may
/// soundly assume. An absent, empty, or uncovering claim falls back to
/// the full 8-bit pixel range.
fn input_range(declared: Option<(u8, u8)>, pixels: &[u8], report: &mut Report) -> (u8, u8) {
    let Some((lo, hi)) = declared else {
        return (0, u8::MAX);
    };
    if lo > hi {
        report.push(
            RuleId::Npc020,
            Severity::Error,
            None,
            Some(0),
            format!("declared input range {lo}..={hi} is empty"),
        );
        return (0, u8::MAX);
    }
    let outside = pixels.iter().filter(|&&p| p < lo || p > hi).count();
    if outside > 0 {
        report.push(
            RuleId::Npc020,
            Severity::Error,
            None,
            Some(0),
            format!(
                "declared input range {lo}..={hi} does not cover {outside} of the stream's own \
                 input value(s)"
            ),
        );
        return (0, u8::MAX);
    }
    (lo, hi)
}

/// Runs the range analysis over a stream's view, with `pixels` the
/// stream's own input, appending NPC014–NPC020 findings to `report`
/// and returning the proved bounds.
pub fn analyze(
    view: &StreamView,
    pixels: &[u8],
    cfg: &HwConfig,
    report: &mut Report,
) -> RangeAnalysis {
    let kernel = view.kernel();
    let model = kernel.model();
    // One set of rows per FC layer, as every view holds.
    let rows: Option<Vec<_>> = (0..=model.hidden.len())
        .map(|k| kernel.weight_rows(k))
        .collect();
    let Some(rows) = rows else {
        return RangeAnalysis::default();
    };
    let (in_lo, in_hi) = input_range(view.input_range, pixels, report);
    let px = (
        Fix::from_i32(i32::from(in_lo)),
        Fix::from_i32(i32::from(in_hi)),
    );

    let mut layers = Vec::with_capacity(model.layer_count());

    // Input layer (yellow path): one "neuron" per pixel, no MAC.
    let mut findings = LayerFindings::default();
    let mut bounds = Vec::with_capacity(model.input.len);
    let mut cur: Vec<(i64, i64)> = Vec::with_capacity(model.input.len);
    for i in 0..model.input.len {
        let level = level_bounds(&model.input.activation, i, px, model.input.out_precision);
        classify_constant(&model.input.activation, level, i, &mut findings);
        cur.push(mac_domain(level, model.input.out_precision));
        bounds.push(NeuronBounds {
            level: Some(level),
            ..NeuronBounds::default()
        });
    }
    flush(report, 0, &findings, cfg);
    layers.push(LayerBounds { neurons: bounds });

    // Hidden layers (red path).
    for (h, layer) in model.hidden.iter().enumerate() {
        let layer_idx = h + 1;
        let mut findings = LayerFindings::default();
        let mut bounds = Vec::with_capacity(layer.neurons);
        let mut next: Vec<(i64, i64)> = Vec::with_capacity(layer.neurons);
        let xnor = layer.in_precision.is_binary() && layer.weight_precision.is_binary();
        for n in 0..layer.neurons {
            let weights = rows[h].weights(n);
            let bias = layer.bias.as_ref().map(|b| b[n]);
            let bn = layer.bn.as_ref().map(|p| p[n]);
            let nb = fc_post(weights, &cur, bias, bn, xnor, cfg, n, &mut findings);
            let x = match (nb.post_bn, nb.acc) {
                (Some((lo, hi)), _) => (Fix::from_raw(lo), Fix::from_raw(hi)),
                (None, Some((lo, hi))) => (Fix::from_i32(lo), Fix::from_i32(hi)),
                (None, None) => unreachable!("fc_post always sets acc bounds"),
            };
            let level = level_bounds(&layer.activation, n, x, layer.out_precision);
            classify_constant(&layer.activation, level, n, &mut findings);
            next.push(mac_domain(level, layer.out_precision));
            bounds.push(NeuronBounds {
                level: Some(level),
                ..nb
            });
        }
        flush(report, layer_idx, &findings, cfg);
        layers.push(LayerBounds { neurons: bounds });
        cur = next;
    }

    // Output layer (pink path): the post-ACCU/BN value *is* the score.
    let out = &model.output;
    let layer_idx = model.hidden.len() + 1;
    let mut findings = LayerFindings::default();
    let mut bounds = Vec::with_capacity(out.neurons);
    let xnor = out.in_precision.is_binary() && out.weight_precision.is_binary();
    for n in 0..out.neurons {
        let weights = rows[model.hidden.len()].weights(n);
        let bias = out.bias.as_ref().map(|b| b[n]);
        let bn = out.bn.as_ref().map(|p| p[n]);
        let nb = fc_post(weights, &cur, bias, bn, xnor, cfg, n, &mut findings);
        let score = match (nb.post_bn, nb.acc) {
            (Some(raw), _) => raw,
            (None, Some((lo, hi))) => (Fix::from_i32(lo).raw(), Fix::from_i32(hi).raw()),
            (None, None) => unreachable!("fc_post always sets acc bounds"),
        };
        if score.0 == score.1 {
            findings.constant.push(n);
        }
        bounds.push(NeuronBounds {
            score: Some(score),
            ..nb
        });
    }
    flush(report, layer_idx, &findings, cfg);
    layers.push(LayerBounds { neurons: bounds });

    RangeAnalysis { layers }
}

/// The MAC + bias + optional BN portion shared by hidden and output
/// layers, with the per-neuron NPC014/015/018/019 classification.
#[allow(clippy::too_many_arguments)] // mirrors the FC layer's field set
fn fc_post(
    weights: impl Iterator<Item = i8>,
    inputs: &[(i64, i64)],
    bias: Option<i32>,
    bn: Option<BnParams>,
    xnor: bool,
    cfg: &HwConfig,
    neuron: usize,
    findings: &mut LayerFindings,
) -> NeuronBounds {
    let parity = if xnor {
        // Every XNOR product is ±1: the sum of `in_len` odd terms plus
        // the bias has a fixed parity.
        Parity::of(i64::try_from(inputs.len()).unwrap_or(0) + i64::from(bias.unwrap_or(0)))
    } else {
        Parity::Unknown
    };
    let fc = fc_neuron(weights, inputs, bias, parity);
    let width = signed_width(fc.env);
    if width > cfg.accumulator_bits {
        findings.overflow.push(neuron);
    }
    findings.max_width = findings.max_width.max(width);
    let post_bn = bn.map(|p| {
        let (lo, hi) = bn_bounds(&p, fc.acc);
        let (ulo, uhi) = (bn_unsaturated(&p, fc.acc.0), bn_unsaturated(&p, fc.acc.1));
        if ulo.min(uhi) < i128::from(netpu_arith::fixed::RAW_MIN)
            || ulo.max(uhi) > i128::from(netpu_arith::fixed::RAW_MAX)
        {
            findings.saturation.push(neuron);
        }
        if lo.raw() < i64::from(i32::MIN) || hi.raw() > i64::from(i32::MAX) {
            findings.comparator.push(neuron);
        }
        (lo.raw(), hi.raw())
    });
    NeuronBounds {
        acc: Some(fc.acc),
        post_bn,
        level: None,
        score: None,
    }
}

/// Classifies a collapsed level interval: dead threshold activations
/// feed NPC016, constant QUAN channels NPC017 (disjoint by activation
/// kind, so the two rules never double-report a neuron).
fn classify_constant(
    act: &LayerActivation,
    level: (i32, i32),
    neuron: usize,
    findings: &mut LayerFindings,
) {
    if level.0 != level.1 {
        return;
    }
    match act {
        LayerActivation::Sign { .. } | LayerActivation::MultiThreshold { .. } => {
            findings.dead.push(neuron);
        }
        LayerActivation::Relu { .. }
        | LayerActivation::Sigmoid { .. }
        | LayerActivation::Tanh { .. } => findings.constant.push(neuron),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_tightening_moves_mismatched_endpoints_inward() {
        assert_eq!(tighten_parity((-3, 4), Parity::Even), (-2, 4));
        assert_eq!(tighten_parity((-3, 4), Parity::Odd), (-3, 3));
        assert_eq!(tighten_parity((-3, 4), Parity::Unknown), (-3, 4));
        assert_eq!(tighten_parity((2, 2), Parity::Even), (2, 2));
    }

    #[test]
    fn signed_width_matches_twos_complement_ranges() {
        assert_eq!(signed_width((0, 0)), 1);
        assert_eq!(signed_width((-1, 0)), 1);
        assert_eq!(signed_width((0, 1)), 2);
        assert_eq!(signed_width((0, 127)), 8);
        assert_eq!(signed_width((-128, 0)), 8);
        assert_eq!(signed_width((-128, 127)), 8);
        assert_eq!(signed_width((-129, 0)), 9);
        assert_eq!(signed_width((0, 128)), 9);
        assert_eq!(signed_width((i64::from(i32::MIN), i64::from(i32::MAX))), 32);
        assert_eq!(signed_width((0, i64::from(i32::MAX) + 1)), 33);
    }

    #[test]
    fn envelope_widens_on_transient_overflow() {
        // A huge positive product followed by a huge negative one: the
        // total fits 32 bits but a prefix does not, so the accumulator
        // interval must widen to the full register range.
        let weights = [1, 1];
        let big = i64::from(i32::MAX) + 1;
        let inputs = [(big, big), (-big, -big)];
        let fc = fc_neuron(weights.into_iter(), &inputs, None, Parity::Unknown);
        assert_eq!(fc.acc, (i32::MIN, i32::MAX));
        assert!(signed_width(fc.env) > 32);
    }

    #[test]
    fn exact_sum_interval_when_envelope_fits() {
        let weights = [2, -3];
        let inputs = [(0, 10), (1, 4)];
        let fc = fc_neuron(weights.into_iter(), &inputs, Some(5), Parity::Unknown);
        // products: [0,20] and [-12,-3]; total [-7, 22]. Prefix sums of
        // the bound sequence: (0,20) → (-12,17) → (-7,22), so the
        // envelope over all prefixes (incl. the empty one) is (-12, 22).
        assert_eq!(fc.acc, (-7, 22));
        assert_eq!(fc.env, (-12, 22));
    }

    #[test]
    fn xnor_parity_is_pinned_by_fan_in_and_bias() {
        // 3 bipolar products (odd) + even bias → odd accumulator.
        let weights = [1, -1, 1];
        let inputs = [(-1, 1), (-1, 1), (-1, 1)];
        let fc = fc_neuron(weights.into_iter(), &inputs, Some(0), Parity::Odd);
        assert_eq!(fc.acc, (-3, 3));
        assert_eq!(Parity::of(i64::from(fc.acc.0)), Parity::Odd);
    }
}
