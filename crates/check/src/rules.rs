//! The rule implementations behind [`crate::analyze`].
//!
//! Each rule encodes one architectural invariant of the NetPU-M stream
//! protocol or instance configuration; DESIGN.md §4.3 is the catalog.
//! Rules that, when violated, make the accelerator model reject, stall,
//! or panic are **errors**; rules that only compromise numerics are
//! **warnings**. This module's *structural* errors (NPC001–NPC013) never
//! refuse a stream the accelerator would run to completion; the
//! [`crate::absint`] tier additionally emits *range* errors
//! (NPC014/NPC018/NPC020) for streams that run but with provably unsafe
//! numerics — strict admission (the default) refuses those too.

use crate::diag::{Report, RuleId, Severity};
use netpu_arith::{cast, ActivationKind, Fix};
use netpu_compiler::settings::MAX_FIELD_WIDTH;
use netpu_compiler::stream::{
    bias_bn_words, input_words, neuron_weight_words_mode, unpack_u32_pairs, uses_xnor_path,
    weight_field_bits, MAGIC, VERSION,
};
use netpu_compiler::{
    is_layer_sequence, Header, LayerSetting, LayerType, PackingMode, SectionKind, StreamLayout,
};
use netpu_core::resources::{netpu_utilization, ULTRA96_V2};
use netpu_core::HwConfig;

/// Depth of the 64-bit data buffers (Layer Input / Layer Weight / Bias).
const DATA_BUFFER_DEPTH: usize = 1024;
/// Depth of the 128-bit parameter buffers (BN / threshold / QUAN).
const PARAM_BUFFER_DEPTH: usize = 2048;

/// Bytes per stream word, for diagnostic offsets.
const WORD: usize = 8;

/// Runs every rule over a raw word stream against an instance config.
///
/// The stream is treated exactly the way the accelerator model consumes
/// it: as a *burst* of one or more back-to-back loadables (§III.B.3,
/// `batch_stream`). After each segment's section layout is consumed the
/// accelerator resets to its header state and parses the next word as
/// the next loadable's header, so every segment — not just the first —
/// must satisfy the structural rules. (The stream fuzzer found the
/// lenient version of this: one garbage word past the layout end drew
/// only a warning here while the accelerator rejected the run.)
pub fn run_all(words: &[u64], cfg: &HwConfig) -> Report {
    let mut report = Report::default();

    // NPC011 — configuration validity + resource feasibility. Config
    // problems are reported even when the stream is also bad, and once
    // per check rather than once per burst segment.
    if let Err(e) = cfg.validate() {
        report.push(
            RuleId::Npc011,
            Severity::Error,
            None,
            None,
            format!("invalid hardware configuration: {e}"),
        );
    } else if !netpu_utilization(cfg).fits(&ULTRA96_V2) {
        let u = netpu_utilization(cfg);
        report.push(
            RuleId::Npc011,
            Severity::Warning,
            None,
            None,
            format!(
                "instance needs {} LUTs / {} DSPs / {:.1} BRAM36 — exceeds the {} envelope",
                u.luts, u.dsps, u.bram36, ULTRA96_V2.name
            ),
        );
    }

    let mut start = 0usize;
    loop {
        let (segment, consumed) = run_segment(&words[start..], cfg);
        for d in segment.diagnostics {
            report.push(
                d.rule,
                d.severity,
                d.byte_offset.map(|o| o + start * WORD),
                d.layer,
                d.message,
            );
        }
        // A segment whose layout could not be computed (or that carries
        // structural errors) already fails the run on the accelerator;
        // validating bytes past it would only produce noise.
        let Some(pos) = consumed else { return report };
        if report.has_errors() {
            return report;
        }
        start += pos;
        if start >= words.len() {
            return report;
        }
    }
}

/// Runs the structural rules over one burst segment (byte offsets are
/// segment-relative; [`run_all`] shifts them). Returns the report plus
/// the segment's layout length in words when it was computable — the
/// offset at which the accelerator would parse the next header.
fn run_segment(words: &[u64], cfg: &HwConfig) -> (Report, Option<usize>) {
    let mut report = Report::default();

    // NPC001 — header word.
    let Some(&header) = words.first() else {
        report.push(
            RuleId::Npc005,
            Severity::Error,
            Some(0),
            None,
            "empty stream: no header word".to_string(),
        );
        return (report, None);
    };
    let Header {
        magic,
        version,
        layers: n,
        packing: mode,
        ..
    } = Header::decode(header);
    if magic != MAGIC {
        report.push(
            RuleId::Npc001,
            Severity::Error,
            Some(0),
            None,
            format!("header magic {magic:#06x}, expected {MAGIC:#06x}"),
        );
        return (report, None);
    }
    if version != VERSION {
        report.push(
            RuleId::Npc001,
            Severity::Error,
            Some(0),
            None,
            format!("stream version {version}, this instance speaks {VERSION}"),
        );
        return (report, None);
    }

    // NPC002 — layer count.
    if n < 2 {
        report.push(
            RuleId::Npc002,
            Severity::Error,
            Some(0),
            None,
            format!("{n} layer(s): a network needs at least Input and Output"),
        );
        return (report, None);
    }

    // NPC005 (early) — the settings block itself must be present.
    if words.len() < 1 + n {
        report.push(
            RuleId::Npc005,
            Severity::Error,
            Some(words.len() * WORD),
            None,
            format!(
                "stream ends inside the settings block: {} word(s), {} needed",
                words.len(),
                1 + n
            ),
        );
        return (report, None);
    }

    // NPC003 — every setting word must decode.
    let mut settings = Vec::with_capacity(n);
    for (k, &w) in words[1..1 + n].iter().enumerate() {
        match LayerSetting::decode(w) {
            Ok(s) => settings.push(s),
            Err(e) => report.push(
                RuleId::Npc003,
                Severity::Error,
                Some((1 + k) * WORD),
                Some(k),
                format!("undecodable layer setting: {e}"),
            ),
        }
    }
    if settings.len() < n {
        // The section layout is uncomputable without every setting.
        return (report, None);
    }

    // NPC002 — layer sequence.
    if !is_layer_sequence(&settings) {
        report.push(
            RuleId::Npc002,
            Severity::Error,
            Some(WORD),
            None,
            "layer sequence is not Input, Hidden*, Output".to_string(),
        );
    }

    // NPC004 — inter-layer shape chain.
    for k in 1..n {
        if settings[k].input_len != settings[k - 1].neurons {
            report.push(
                RuleId::Npc004,
                Severity::Error,
                Some((1 + k) * WORD),
                Some(k),
                format!(
                    "layer consumes {} inputs but the previous layer produces {}",
                    settings[k].input_len,
                    settings[k - 1].neurons
                ),
            );
        }
    }

    // NPC010 — width and buffer bounds.
    for (k, s) in settings.iter().enumerate() {
        if s.neurons == 0 {
            report.push(
                RuleId::Npc010,
                Severity::Error,
                Some((1 + k) * WORD),
                Some(k),
                "zero-width layer: the drain/maxout stages would never fire".to_string(),
            );
        }
        debug_assert!(s.neurons <= MAX_FIELD_WIDTH, "decode enforces the ceiling");
        if k == 0 && input_words(cast::usize_from_u32(s.neurons)) > DATA_BUFFER_DEPTH {
            report.push(
                RuleId::Npc010,
                Severity::Warning,
                Some((1 + k) * WORD),
                Some(k),
                format!(
                    "input of {} pixels overflows the {DATA_BUFFER_DEPTH}-word Layer Input buffer",
                    s.neurons
                ),
            );
        }
        if k > 0 && !s.bn_folded && cast::usize_from_u32(s.neurons) > PARAM_BUFFER_DEPTH {
            report.push(
                RuleId::Npc010,
                Severity::Warning,
                Some((1 + k) * WORD),
                Some(k),
                format!(
                    "{} unfolded BN entries overflow the {PARAM_BUFFER_DEPTH}-deep BN buffers",
                    s.neurons
                ),
            );
        }
    }

    // NPC006 — packing flag vs the instance's unpack logic.
    if mode == PackingMode::Dense && !cfg.dense_weight_packing {
        report.push(
            RuleId::Npc006,
            Severity::Error,
            Some(0),
            None,
            "stream uses dense weight packing; this instance was generated without it".to_string(),
        );
    }

    // NPC013 — multi-threshold precision vs the synthesis-time cap.
    for (k, s) in settings.iter().enumerate() {
        if s.layer_type != LayerType::Output
            && s.activation == ActivationKind::MultiThreshold
            && s.out_precision.bits() > cfg.max_multithreshold_bits
        {
            report.push(
                RuleId::Npc013,
                Severity::Warning,
                Some((1 + k) * WORD),
                Some(k),
                format!(
                    "{}-bit multi-threshold output exceeds the instance's {}-bit comparator bank",
                    s.out_precision.bits(),
                    cfg.max_multithreshold_bits
                ),
            );
        }
    }

    // If the sequence or shape chain is broken the section layout below
    // would be built on nonsense; stop after the structural errors.
    if report.has_errors() {
        return (report, None);
    }

    // Recompute the section layout (§III.B.3 interleave).
    let layout = StreamLayout::of(&settings, mode);
    let pos = layout.words();

    // NPC005 — exact stream length.
    if words.len() < pos {
        report.push(
            RuleId::Npc005,
            Severity::Error,
            Some(words.len() * WORD),
            None,
            format!(
                "stream truncated: {} word(s), the section layout needs {pos}",
                words.len()
            ),
        );
        return (report, None);
    }
    // Words past `pos` belong to the next burst segment; `run_all`
    // validates them as a loadable in their own right.

    // Per-section parameter rules.
    for (kind, k, span) in &layout.sections {
        let (s, body) = (&settings[*k], &words[span.clone()]);
        match kind {
            SectionKind::Params => check_param_section(&mut report, s, *k, span.start, body),
            SectionKind::Weights => {
                check_weight_section(&mut report, s, *k, span.start, body, mode)
            }
        }
    }

    // NPC009 — a dense flag that buys nothing is a packing mismatch
    // smell (the compiler only sets it when some layer packs denser).
    if mode == PackingMode::Dense
        && !settings[1..]
            .iter()
            .any(|s| uses_xnor_path(s) || weight_field_bits(s, mode) < 8)
    {
        report.push(
            RuleId::Npc009,
            Severity::Warning,
            Some(0),
            None,
            "dense packing flagged but every layer still packs 8-bit lanes".to_string(),
        );
    }

    (report, Some(pos))
}

/// NPC007 / NPC008 / NPC012 over one layer's parameter section.
fn check_param_section(
    report: &mut Report,
    s: &LayerSetting,
    layer: usize,
    start: usize,
    body: &[u64],
) {
    let neurons = cast::usize_from_u32(s.neurons);
    let cursor = bias_bn_words(s);

    // Bias / BN block (FC layers).
    if s.layer_type != LayerType::Input && !s.bn_folded {
        for (i, &w) in body[..cursor.min(body.len())].iter().enumerate() {
            // NPC008 — a zero Q16.16 scale multiplies every
            // accumulator to zero; the layer cannot discriminate.
            if cast::i32_from_bits(cast::lo32(w)) == 0 {
                report.push(
                    RuleId::Npc008,
                    Severity::Warning,
                    Some((start + i) * WORD),
                    Some(layer),
                    format!("neuron {i}: BN scale is zero"),
                );
            }
        }
    }

    // Activation block (Input and Hidden layers).
    if s.layer_type == LayerType::Output || cursor >= body.len() {
        return;
    }
    let act_words = &body[cursor..];
    match s.activation {
        ActivationKind::MultiThreshold => {
            let per = s.out_precision.multi_threshold_count();
            let vals = unpack_u32_pairs(act_words, neurons * per);
            for (ni, row) in vals.chunks(per).enumerate() {
                for i in 1..row.len() {
                    let prev = Fix::from_stream_word(row[i - 1]).raw();
                    let cur = Fix::from_stream_word(row[i]).raw();
                    if cur < prev {
                        // NPC007 — the comparator cascade binary-
                        // searches the table; out-of-order entries make
                        // quantization non-monotone.
                        let off = (start + cursor + (ni * per + i) / 2) * WORD;
                        report.push(
                            RuleId::Npc007,
                            Severity::Warning,
                            Some(off),
                            Some(layer),
                            format!(
                                "neuron {ni}: threshold {i} ({cur}) below threshold {} ({prev})",
                                i - 1
                            ),
                        );
                        break; // one finding per neuron row
                    }
                }
            }
        }
        ActivationKind::Relu | ActivationKind::Sigmoid | ActivationKind::Tanh => {
            let vals = unpack_u32_pairs(act_words, neurons * 2);
            if let (Some(&s0), Some(&o0)) = (vals.first(), vals.get(1)) {
                for (ni, pair) in vals.chunks(2).enumerate() {
                    if pair[0] != s0 || pair[1] != o0 {
                        // NPC012 — QUAN is one per-layer unit in the
                        // hardware; divergent per-neuron copies mean
                        // the stream was assembled inconsistently.
                        let off = (start + cursor + ni) * WORD;
                        report.push(
                            RuleId::Npc012,
                            Severity::Warning,
                            Some(off),
                            Some(layer),
                            format!("neuron {ni}: QUAN parameters differ from neuron 0"),
                        );
                        break;
                    }
                }
            }
        }
        ActivationKind::Sign => {}
    }
}

/// NPC009 over one layer's weight section: padding bits past the layer
/// width must be zero, as the compiler emits them.
fn check_weight_section(
    report: &mut Report,
    s: &LayerSetting,
    layer: usize,
    start: usize,
    body: &[u64],
    mode: PackingMode,
) {
    if s.layer_type == LayerType::Input {
        return;
    }
    let in_len = cast::usize_from_u32(s.input_len);
    let per_neuron = neuron_weight_words_mode(s, mode);
    if per_neuron == 0 {
        return;
    }
    let fields_per_word = if uses_xnor_path(s) {
        64
    } else {
        64 / cast::usize_from_u32(weight_field_bits(s, mode))
    };
    let used_in_last = in_len - (per_neuron - 1) * fields_per_word;
    let used_bits = if uses_xnor_path(s) {
        used_in_last
    } else {
        used_in_last * cast::usize_from_u32(weight_field_bits(s, mode))
    };
    if used_bits >= 64 {
        return; // final word fully used, nothing to check
    }
    let pad_mask = !0u64 << used_bits;
    for (ni, row) in body.chunks(per_neuron).enumerate() {
        if let Some(&last) = row.last() {
            if last & pad_mask != 0 {
                let off = (start + ni * per_neuron + per_neuron - 1) * WORD;
                report.push(
                    RuleId::Npc009,
                    Severity::Warning,
                    Some(off),
                    Some(layer),
                    format!("neuron {ni}: non-zero padding bits past the layer width"),
                );
                return; // one finding per section
            }
        }
    }
}
