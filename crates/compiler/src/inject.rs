//! Seeded miscompile injection — the translation validator's sparring
//! partner.
//!
//! A translation validator is only as credible as the miscompiles it
//! has demonstrably caught. This module manufactures them: each
//! [`Miscompile`] is one *semantic* mutation applied to a clone of the
//! source model before honest compilation, so the resulting stream is
//! structurally flawless — it decodes, its shapes chain, its ranges
//! analyze clean — yet computes a different function than the model it
//! claims to implement. The structural and range tiers (NPC001–NPC020)
//! are expected to miss most of these by design; `netpu-check::symex`
//! must flag every one (the differential suite in
//! `tests/translation_validation.rs` enforces both directions).
//!
//! Gated behind the **`inject` cargo feature** so production builds of
//! the compiler cannot emit dishonest streams: the feature is enabled
//! only from the workspace's dev-dependencies.

use crate::stream::{compile, Loadable, StreamError};
use netpu_arith::{Fix, Precision};
use netpu_nn::qmodel::{BnParams, LayerActivation, QuantMlp};

/// One seeded semantic mutation. Every variant preserves model
/// validity ([`QuantMlp::validate`] still passes) and stream
/// structure; only the computed function changes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Miscompile {
    /// Swap the first adjacent pair of differing weights in the first
    /// hidden layer — the classic transposed-index packing bug.
    SwapWeightPair,
    /// Negate the first weight whose negation stays in the layer's
    /// precision range — a sign-extension slip.
    NegateWeight,
    /// Nudge one activation threshold of the first hidden layer by a
    /// full input level — an off-by-one in threshold folding.
    ThresholdNudge,
    /// Drift the first folded bias of the first hidden layer by ±1 —
    /// a rounding-direction bug in BN folding.
    BiasDrift,
    /// Drift the first hardware-BN scale by 2⁻² (Q16.16) — a truncated
    /// multiplier word.
    BnScaleDrift,
    /// Drift the first hardware-BN offset by a full level — a lost
    /// carry in the offset accumulation.
    BnOffsetDrift,
    /// Swap the first two neuron rows (weights and per-neuron
    /// parameters) of the first hidden layer — a whole-row permutation
    /// the weight packer could introduce.
    PermuteHiddenNeurons,
    /// Swap the first two output rows — a class-label permutation.
    PermuteOutputNeurons,
}

impl Miscompile {
    /// Every mutation, in a stable order.
    pub const ALL: [Miscompile; 8] = [
        Miscompile::SwapWeightPair,
        Miscompile::NegateWeight,
        Miscompile::ThresholdNudge,
        Miscompile::BiasDrift,
        Miscompile::BnScaleDrift,
        Miscompile::BnOffsetDrift,
        Miscompile::PermuteHiddenNeurons,
        Miscompile::PermuteOutputNeurons,
    ];

    /// Human-readable name for suite output.
    pub fn describe(self) -> &'static str {
        match self {
            Miscompile::SwapWeightPair => "swap adjacent weight pair",
            Miscompile::NegateWeight => "negate one weight",
            Miscompile::ThresholdNudge => "nudge one activation threshold",
            Miscompile::BiasDrift => "drift one folded bias",
            Miscompile::BnScaleDrift => "drift one BN scale",
            Miscompile::BnOffsetDrift => "drift one BN offset",
            Miscompile::PermuteHiddenNeurons => "permute hidden neuron rows",
            Miscompile::PermuteOutputNeurons => "permute output rows",
        }
    }
}

/// Applies `m` to a clone of `model`. Returns `None` when the model
/// offers no site for the mutation (a BN drift on a folded-BN model, a
/// threshold nudge on a QUAN-path layer), so a caller sweeping
/// [`Miscompile::ALL`] over a model zoo simply skips the inapplicable
/// pairs. A `Some` model always differs semantically from the source
/// and still passes [`QuantMlp::validate`].
pub fn mutate(model: &QuantMlp, m: Miscompile) -> Option<QuantMlp> {
    let mut out = model.clone();
    let h = out.hidden.first_mut()?;
    match m {
        Miscompile::SwapWeightPair => {
            let w = &mut h.weights;
            let i = (0..w.len().checked_sub(1)?).find(|&i| w[i] != w[i + 1])?;
            w.swap(i, i + 1);
        }
        Miscompile::NegateWeight => {
            let wp = h.weight_precision;
            let w = h.weights.iter_mut().find(|w| negatable(wp, **w))?;
            *w = -*w;
        }
        Miscompile::ThresholdNudge => match &mut h.activation {
            LayerActivation::Sign { thresholds } => {
                let t = thresholds.first_mut()?;
                *t = t.sat_add(Fix::ONE);
            }
            LayerActivation::MultiThreshold { thresholds } => {
                // Lowering the first entry keeps the row sorted.
                let t = thresholds.first_mut()?;
                *t = t.sat_sub(Fix::ONE);
            }
            _ => return None,
        },
        Miscompile::BiasDrift => {
            let b = h.bias.as_mut()?.first_mut()?;
            *b = if *b < 127 { *b + 1 } else { *b - 1 };
        }
        Miscompile::BnScaleDrift => {
            let p = h.bn.as_mut()?.first_mut()?;
            p.scale_q16 = p.scale_q16.saturating_add(1 << 14);
        }
        Miscompile::BnOffsetDrift => {
            let p = h.bn.as_mut()?.first_mut()?;
            p.offset = p.offset.sat_add(Fix::ONE);
        }
        Miscompile::PermuteHiddenNeurons => {
            if h.neurons < 2 {
                return None;
            }
            let rows_equal = swap_fc_rows(h.in_len, &mut h.weights, &mut h.bias, &mut h.bn);
            let act_equal = match &mut h.activation {
                LayerActivation::Sign { thresholds } => {
                    let eq = thresholds.first() == thresholds.get(1);
                    thresholds.swap(0, 1);
                    eq
                }
                LayerActivation::MultiThreshold { thresholds } => {
                    let count = h.out_precision.multi_threshold_count();
                    let (first, rest) = thresholds.split_at_mut(count);
                    let second = rest.get_mut(..count)?;
                    let eq = first == second;
                    first.swap_with_slice(second);
                    eq
                }
                // QUAN-path re-quantization is layer-wide; the swapped
                // weight rows alone carry the permutation.
                _ => true,
            };
            if rows_equal && act_equal {
                return None; // identical neurons: swapping is a no-op
            }
        }
        Miscompile::PermuteOutputNeurons => {
            let o = &mut out.output;
            if o.neurons < 2 {
                return None;
            }
            if swap_fc_rows(o.in_len, &mut o.weights, &mut o.bias, &mut o.bn) {
                return None;
            }
        }
    }
    Some(out)
}

/// Compiles a stream that *claims* to implement `model` but actually
/// implements `mutate(model, m)` — the seeded miscompile the
/// translation validator must catch. `None` exactly when [`mutate`]
/// has no site.
pub fn compile_miscompiled(
    model: &QuantMlp,
    pixels: &[u8],
    m: Miscompile,
) -> Option<Result<Loadable, StreamError>> {
    let mutated = mutate(model, m)?;
    Some(compile(&mutated, pixels))
}

fn negatable(wp: Precision, w: i8) -> bool {
    if w == 0 {
        return false;
    }
    if wp.is_binary() {
        return true; // ±1 stays ±1
    }
    w.checked_neg()
        .is_some_and(|n| (wp.signed_min()..=wp.signed_max()).contains(&i32::from(n)))
}

/// Swaps neuron rows 0 and 1 of an FC layer's weight matrix plus the
/// matching bias / BN entries; returns `true` when the swapped data
/// were already identical (the swap changed nothing).
fn swap_fc_rows(
    in_len: usize,
    weights: &mut [i8],
    bias: &mut Option<Vec<i32>>,
    bn: &mut Option<Vec<BnParams>>,
) -> bool {
    let mut equal = true;
    for c in 0..in_len {
        if weights[c] != weights[in_len + c] {
            equal = false;
        }
        weights.swap(c, in_len + c);
    }
    if let Some(b) = bias {
        equal &= b.first() == b.get(1);
        b.swap(0, 1);
    }
    if let Some(p) = bn {
        equal &= p.first() == p.get(1);
        p.swap(0, 1);
    }
    equal
}
