//! The NetPU-M loadable: a pre-packaged 64-bit word stream.
//!
//! §III.B.3 fixes the data loading order so that runtime control reduces
//! to pure data streaming:
//!
//! 1. layer count, 2. all layer settings, 3. dataset inputs,
//!    4. parameters of layer 0, 5. parameters of layer 1, 6. weights of
//!    layer 0, 7. parameters of layer 2, 8. weights of layer 1, …,
//!    parameters of layer N−1, weights of layer N−2, weights of layer N−1.
//!
//! The interleave (parameters of layer k+1 before weights of layer k)
//! lets the next LPU initialise while the current one is still
//! processing. This module encodes a [`QuantMlp`] plus one inference
//! input into that stream and decodes it back for validation.

use crate::settings::{is_layer_sequence, LayerSetting, LayerType, SettingError};
use netpu_arith::quant::{positive_bits, LANES_PER_WORD};
use netpu_arith::{cast, ActivationKind, Fix, Precision, QuantParams};
use netpu_nn::kernel::{PackedMlp, WeightField, WeightRows};
use netpu_nn::qmodel::{
    weight_in_range, BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp,
    MAX_LAYER_WIDTH,
};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Stream magic in the header word ("NP").
pub const MAGIC: u16 = 0x4E50;
/// Loadable format version.
pub const VERSION: u8 = 1;

/// Header bit 41: set when bits 42..58 carry a declared input range.
/// Decoders (hardware and checker alike) built before the flag existed
/// ignore bits 41 and up, so the metadata is backward compatible.
const RANGE_FLAG: u64 = 1 << 41;

/// The stream's header word, every field decoded. Bit layout (LSB
/// first): `[0:16]` magic, `[16:24]` version, `[24:40]` layer count,
/// `[40]` dense packing flag, `[41]` input-range flag, `[42:50]` /
/// `[50:58]` declared minimum / maximum input pixel value. This is the
/// one codec of the word: the compiler, the container, the verifier
/// and the accelerator model all read and write it here, each applying
/// its own acceptance rules to the fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Header {
    /// Format magic ([`MAGIC`] in a stream this format speaks).
    pub magic: u16,
    /// Format version ([`VERSION`] in a stream this format speaks).
    pub version: u8,
    /// Layer count.
    pub layers: usize,
    /// Weight packing mode.
    pub packing: PackingMode,
    /// The declared input range, when the encoder recorded one (streams
    /// from compilers predating the bit 41 flag carry none; analyses
    /// fall back to the full `0..=255` pixel range). The range is a
    /// *host claim* about every input this loadable will ever be run
    /// with; `netpu-check`'s NPC020 verifies the claim against the
    /// stream's own input section before any bound derived from it is
    /// trusted.
    pub input_range: Option<(u8, u8)>,
}

impl Header {
    /// Decodes every field of a header word, valid or not.
    pub fn decode(word: u64) -> Header {
        Header {
            magic: cast::lo16(word),
            version: cast::lo8(word >> 16),
            layers: cast::usize_sat(word >> 24 & 0xFFFF),
            packing: if word >> 40 & 1 == 1 {
                PackingMode::Dense
            } else {
                PackingMode::Lanes8
            },
            input_range: (word & RANGE_FLAG != 0)
                .then(|| (cast::lo8(word >> 42), cast::lo8(word >> 50))),
        }
    }

    /// [`Header::decode`] of a word whose magic and version this format
    /// speaks, else [`StreamError::BadHeader`].
    pub fn parse(word: u64) -> Result<Header, StreamError> {
        let header = Header::decode(word);
        if header.magic != MAGIC || header.version != VERSION {
            return Err(StreamError::BadHeader(word));
        }
        Ok(header)
    }

    /// The header word: the inverse of [`Header::decode`].
    pub fn encode(&self) -> u64 {
        let range = self.input_range.map_or(0, |(lo, hi)| {
            RANGE_FLAG | u64::from(lo) << 42 | u64::from(hi) << 50
        });
        u64::from(self.magic)
            | u64::from(self.version) << 16
            | cast::u64_from_usize(self.layers) << 24
            | u64::from(self.packing == PackingMode::Dense) << 40
            | range
    }
}

/// What a stream section carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SectionKind {
    /// Per-layer parameters (bias/BN/threshold/QUAN words).
    Params,
    /// Per-layer weights.
    Weights,
}

/// Section `i` of an `n`-layer stream's parameter and weight sections,
/// in the §III.B.3 order: P0, then P(k+1) before W(k), then W(n−1). This
/// is the one statement of the interleave; the encoder, the decoders,
/// the verifier and the accelerator model all walk it.
pub fn section_at(n: usize, i: usize) -> (SectionKind, usize) {
    match i {
        0 => (SectionKind::Params, 0),
        _ if i + 1 >= 2 * n => (SectionKind::Weights, n.saturating_sub(1)),
        _ if i % 2 == 1 => (SectionKind::Params, i.div_ceil(2)),
        _ => (SectionKind::Weights, i / 2 - 1),
    }
}

/// The dataset-input section of an `n`-layer stream whose first layer
/// takes `pixels` pixels: right after the header word and the `n`
/// layer settings.
fn input_span(n: usize, pixels: u32) -> Range<usize> {
    1 + n..1 + n + input_words(cast::usize_from_u32(pixels))
}

/// Section map of an encoded loadable (word offsets into the stream).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamLayout {
    /// The header word.
    pub header: Range<usize>,
    /// Layer-setting words.
    pub settings: Range<usize>,
    /// Dataset-input words.
    pub input: Range<usize>,
    /// `(kind, layer index, word range)` in emitted order.
    pub sections: Vec<(SectionKind, usize, Range<usize>)>,
}

impl StreamLayout {
    /// The section map of a stream with these layer settings under
    /// `mode`: the header word, the settings, the first layer's input,
    /// then the [`section_at`] order, each section sized by
    /// [`param_words`] or [`weight_words_mode`].
    pub fn of(settings: &[LayerSetting], mode: PackingMode) -> StreamLayout {
        let n = settings.len();
        let input = input_span(n, settings.first().map_or(0, |s| s.neurons));
        let mut end = input.end;
        let sections = (0..2 * n)
            .map(|i| {
                let (kind, k) = section_at(n, i);
                let start = end;
                end += match kind {
                    SectionKind::Params => param_words(&settings[k]),
                    SectionKind::Weights => weight_words_mode(&settings[k], mode),
                };
                (kind, k, start..end)
            })
            .collect();
        StreamLayout {
            header: 0..1,
            settings: 1..1 + n,
            input,
            sections,
        }
    }

    /// Stream words the layout spans: where the next loadable of a
    /// burst begins.
    pub fn words(&self) -> usize {
        self.sections.last().map_or(self.input.end, |s| s.2.end)
    }

    /// The word range of layer `layer`'s `kind` section (empty when the
    /// layout has none).
    pub fn section(&self, kind: SectionKind, layer: usize) -> Range<usize> {
        let found = self.sections.iter().find(|s| s.0 == kind && s.1 == layer);
        found.map_or(0..0, |s| s.2.clone())
    }
}

/// An encoded loadable: the word stream plus its section map.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Loadable {
    /// The 64-bit stream words, in transmission order.
    pub words: Vec<u64>,
    /// Section map (host-side metadata; not transmitted).
    pub layout: StreamLayout,
}

/// Compile / decode errors.
#[derive(Clone, PartialEq, Debug)]
pub enum StreamError {
    /// The model failed validation.
    InvalidModel(netpu_nn::qmodel::ModelError),
    /// The inference input length does not match the model.
    InputLength {
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The stream is shorter than its sections require.
    Truncated {
        /// Word offset at which data ran out.
        at: usize,
    },
    /// Bad header magic or version.
    BadHeader(u64),
    /// A malformed layer-setting word.
    BadSetting(SettingError),
    /// The decoded layer sequence is not Input, Hidden*, Output.
    BadLayerSequence,
    /// Per-neuron QUAN parameters disagree within one layer.
    InconsistentQuanParams {
        /// Offending layer index.
        layer: usize,
    },
    /// The stream uses a weight packing mode this accelerator instance
    /// was not generated with.
    PackingUnsupported,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::InvalidModel(e) => write!(f, "invalid model: {e}"),
            StreamError::InputLength { expected, got } => {
                write!(f, "input length {got}, model expects {expected}")
            }
            StreamError::Truncated { at } => write!(f, "stream truncated at word {at}"),
            StreamError::BadHeader(w) => write!(f, "bad header word {w:#018x}"),
            StreamError::BadSetting(e) => write!(f, "bad layer setting: {e}"),
            StreamError::BadLayerSequence => {
                f.write_str("layer sequence must be Input, Hidden*, Output")
            }
            StreamError::InconsistentQuanParams { layer } => {
                write!(f, "layer {layer}: inconsistent per-neuron QUAN parameters")
            }
            StreamError::PackingUnsupported => {
                f.write_str("stream packing mode unsupported by this instance")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::InvalidModel(e) => Some(e),
            StreamError::BadSetting(e) => Some(e),
            _ => None,
        }
    }
}

/// Packs 32-bit parameter words two per stream word (low half first),
/// padding the final word with zeros.
pub fn pack_u32_pairs(vals: &[u32]) -> Vec<u64> {
    let mut words = Vec::with_capacity(vals.len().div_ceil(2));
    push_u32_pairs(&mut words, vals.iter().copied());
    words
}

/// Appends `vals` to `words` as [`pack_u32_pairs`] packs them.
fn push_u32_pairs(words: &mut Vec<u64>, vals: impl IntoIterator<Item = u32>) {
    let mut vals = vals.into_iter();
    while let Some(lo) = vals.next() {
        words.push(u64::from(lo) | vals.next().map_or(0, |hi| u64::from(hi) << 32));
    }
}

/// One word of up to eight 8-bit lanes, lane `i` at bit `8i`, zero past
/// the last.
fn lane_word(lanes: impl IntoIterator<Item = u8>) -> u64 {
    lanes
        .into_iter()
        .zip(0..8)
        .fold(0, |w, (b, i)| w | u64::from(b) << (8 * i))
}

/// Unpacks `n` 32-bit parameter words from pair-packed stream words.
pub fn unpack_u32_pairs(words: &[u64], n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let w = words[i / 2];
        out.push(if i % 2 == 0 {
            cast::lo32(w)
        } else {
            cast::lo32(w >> 32)
        });
    }
    out
}

/// How multi-bit weights occupy the 64-bit stream words.
///
/// The paper streams every 2–8-bit weight in a full 8-bit lane, wasting
/// the upper bits as placeholders (§V calls this out as a known
/// inefficiency). [`PackingMode::Dense`] implements the §V future work:
/// pack weights at their native width when it divides the lane (1, 2,
/// 4, or 8 bits), shrinking the weight stream up to 8×. Both endpoints
/// — the compiler and the accelerator instance — must agree on the
/// mode; the loadable header carries it so a mismatch is detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum PackingMode {
    /// One 8-bit lane per weight (the paper's implementation).
    #[default]
    Lanes8,
    /// Native-width packing for 1/2/4/8-bit weights (§V future work);
    /// other precisions fall back to 8-bit lanes.
    Dense,
}

/// `true` when a layer runs on the XNOR datapath (both operands 1-bit).
pub fn uses_xnor_path(setting: &LayerSetting) -> bool {
    setting.in_precision.is_binary() && setting.weight_precision.is_binary()
}

/// Weight field width in bits under a packing mode (the XNOR path is
/// always 1-bit-dense and is handled separately).
pub fn weight_field_bits(setting: &LayerSetting, mode: PackingMode) -> u32 {
    let bits = u32::from(setting.weight_precision.bits());
    match mode {
        PackingMode::Lanes8 => 8,
        PackingMode::Dense if 8 % bits == 0 => bits,
        PackingMode::Dense => 8,
    }
}

/// Weights carried per 64-bit stream word on the integer path.
pub fn weights_per_word(setting: &LayerSetting, mode: PackingMode) -> usize {
    64 / cast::usize_from_u32(weight_field_bits(setting, mode))
}

/// Stream words carrying one neuron's weights under a packing mode
/// (each neuron is padded to a word boundary so the LPU's per-neuron
/// dispatch stays aligned).
pub fn neuron_weight_words_mode(setting: &LayerSetting, mode: PackingMode) -> usize {
    let n = cast::usize_from_u32(setting.input_len);
    if uses_xnor_path(setting) {
        n.div_ceil(64)
    } else {
        n.div_ceil(weights_per_word(setting, mode))
    }
}

/// Stream words carrying one neuron's weights under the paper's 8-bit
/// lane packing.
pub fn neuron_weight_words(setting: &LayerSetting) -> usize {
    neuron_weight_words_mode(setting, PackingMode::Lanes8)
}

/// Total weight-section words of a layer under a packing mode (zero for
/// the Input layer).
pub fn weight_words_mode(setting: &LayerSetting, mode: PackingMode) -> usize {
    if setting.layer_type == LayerType::Input {
        0
    } else {
        cast::usize_from_u32(setting.neurons) * neuron_weight_words_mode(setting, mode)
    }
}

/// Total weight-section words under the paper's 8-bit lane packing.
pub fn weight_words(setting: &LayerSetting) -> usize {
    weight_words_mode(setting, PackingMode::Lanes8)
}

/// Extracts integer-path weight `idx` from a stream word under a
/// packing mode: mask the field, then sign-extend (1-bit fields decode
/// bipolar ±1).
pub fn extract_weight(word: u64, idx: usize, setting: &LayerSetting, mode: PackingMode) -> i32 {
    let bits = weight_field_bits(setting, mode);
    debug_assert!(idx < 64 / cast::usize_from_u32(bits));
    let field = cast::lo32((word >> (cast::usize_from_u32(bits) * idx)) & ((1u64 << bits) - 1));
    if setting.weight_precision.is_binary() {
        if bits == 8 {
            // Promoted ±1 weights travel sign-extended in full lanes.
            cast::sign_extend(field, 8)
        } else {
            netpu_arith::binary::decode_bipolar(cast::lo8(field))
        }
    } else {
        cast::sign_extend(field, u32::from(setting.weight_precision.bits()))
    }
}

/// 32-bit activation-parameter words per neuron (thresholds or QUAN
/// scale+offset), before pair packing.
pub fn act_param_u32s(setting: &LayerSetting) -> usize {
    match setting.activation {
        ActivationKind::Sign => 1,
        ActivationKind::MultiThreshold => setting.out_precision.multi_threshold_count(),
        ActivationKind::Relu | ActivationKind::Sigmoid | ActivationKind::Tanh => 2,
    }
}

/// Total parameter-section words of a layer.
pub fn param_words(setting: &LayerSetting) -> usize {
    let neurons = cast::usize_from_u32(setting.neurons);
    let mut words = bias_bn_words(setting);
    // Activation parameter block (Input and Hidden layers).
    if setting.layer_type != LayerType::Output {
        words += (neurons * act_param_u32s(setting)).div_ceil(2);
    }
    words
}

/// Words of a layer's bias/BN block, which opens its parameter section:
/// 8-bit folded biases eight a word, or one (scale, offset) pair-word
/// per neuron; none for the input layer.
pub fn bias_bn_words(setting: &LayerSetting) -> usize {
    let neurons = cast::usize_from_u32(setting.neurons);
    match (setting.layer_type, setting.bn_folded) {
        (LayerType::Input, _) => 0,
        (_, true) => neurons.div_ceil(LANES_PER_WORD),
        (_, false) => neurons,
    }
}

/// Words carrying the dataset input (8-bit pixel lanes).
pub fn input_words(input_len: usize) -> usize {
    input_len.div_ceil(LANES_PER_WORD)
}

/// Builds the layer-setting list for a model.
pub fn model_settings(mlp: &QuantMlp) -> Vec<LayerSetting> {
    let mut settings = Vec::with_capacity(mlp.layer_count());
    settings.push(LayerSetting {
        layer_type: LayerType::Input,
        activation: mlp.input.activation.kind(),
        bn_folded: true,
        in_precision: Precision::W8,
        weight_precision: Precision::W1,
        out_precision: mlp.input.out_precision,
        neurons: cast::u32_sat_usize(mlp.input.len),
        input_len: 1,
    });
    for h in &mlp.hidden {
        settings.push(LayerSetting {
            layer_type: LayerType::Hidden,
            activation: h.activation.kind(),
            bn_folded: h.bias.is_some(),
            in_precision: h.in_precision,
            weight_precision: h.weight_precision,
            out_precision: h.out_precision,
            neurons: cast::u32_sat_usize(h.neurons),
            input_len: cast::u32_sat_usize(h.in_len),
        });
    }
    settings.push(LayerSetting {
        layer_type: LayerType::Output,
        // Activation selector is unused on the pink path; encode ReLU.
        activation: ActivationKind::Relu,
        bn_folded: mlp.output.bias.is_some(),
        in_precision: mlp.output.in_precision,
        weight_precision: mlp.output.weight_precision,
        // Output precision is unused; scores leave at full width.
        out_precision: Precision::W8,
        neurons: cast::u32_sat_usize(mlp.output.neurons),
        input_len: cast::u32_sat_usize(mlp.output.in_len),
    });
    settings
}

/// Appends a layer's activation parameters, pair-packed: its
/// thresholds, or the QUAN scale and offset once per neuron.
fn push_activation(words: &mut Vec<u64>, act: &LayerActivation, neurons: usize) {
    match act {
        LayerActivation::Sign { thresholds } | LayerActivation::MultiThreshold { thresholds } => {
            push_u32_pairs(words, thresholds.iter().map(|t| t.to_stream_word()));
        }
        LayerActivation::Relu { quant }
        | LayerActivation::Sigmoid { quant }
        | LayerActivation::Tanh { quant } => {
            let pair = u64::from(quant.scale.to_stream_word())
                | u64::from(quant.offset.to_stream_word()) << 32;
            words.extend(std::iter::repeat_n(pair, neurons));
        }
    }
}

/// Appends layer `k`'s parameter section: an FC layer's 8-bit biases or
/// BN pairs (nothing for both or neither, which validation refuses),
/// then the input and hidden layers' activation parameters.
fn push_params(words: &mut Vec<u64>, mlp: &QuantMlp, k: usize) {
    let (bias, bn, act) = match k.checked_sub(1).map(|h| mlp.hidden.get(h)) {
        None => return push_activation(words, &mlp.input.activation, mlp.input.len),
        Some(Some(h)) => (&h.bias, &h.bn, Some((&h.activation, h.neurons))),
        Some(None) => (&mlp.output.bias, &mlp.output.bn, None),
    };
    match (bias, bn) {
        (Some(b), None) => words.extend(
            b.chunks(LANES_PER_WORD)
                .map(|c| lane_word(c.iter().map(|&v| cast::lane_of_i32(v)))),
        ),
        (None, Some(p)) => words.extend(p.iter().map(|p| {
            u64::from(cast::bits_of_i32(p.scale_q16)) | u64::from(p.offset.to_stream_word()) << 32
        })),
        _ => {}
    }
    if let Some((act, neurons)) = act {
        push_activation(words, act, neurons);
    }
}

/// Appends layer `k`'s weight section (none for the input layer), one
/// row of its fan-in per neuron padded to a word boundary in the
/// setting's field layout, and returns its first weight (row-major)
/// outside its precision's range. Each weight is read once: whole words
/// are packed from fixed-size chunks and the range check is folded into
/// the same pass. The weights must fill `neurons × in_len` rows, as
/// [`fits`] checks.
fn push_weights(
    words: &mut Vec<u64>,
    mlp: &QuantMlp,
    k: usize,
    setting: &LayerSetting,
    mode: PackingMode,
) -> Option<i32> {
    let (weights, in_len) = match k.checked_sub(1).map(|h| mlp.hidden.get(h)) {
        None => return None,
        Some(Some(h)) => (&h.weights, h.in_len),
        Some(None) => (&mlp.output.weights, mlp.output.in_len),
    };
    let wp = setting.weight_precision;
    match weight_field(setting, mode).width() {
        _ if in_len == 0 => None,
        1 => pack_rows::<64>(words, weights, in_len, wp),
        2 => pack_rows::<32>(words, weights, in_len, wp),
        4 => pack_rows::<16>(words, weights, in_len, wp),
        _ => pack_rows::<8>(words, weights, in_len, wp),
    }
}

/// [`push_weights`]' pass over `PER` fields a word, packed eight
/// weights (one 64-bit read) at a time: a 1-bit field is set for +1, a
/// wider one holds the weight's two's-complement low bits.
fn pack_rows<const PER: usize>(
    words: &mut Vec<u64>,
    weights: &[i8],
    in_len: usize,
    wp: Precision,
) -> Option<i32> {
    let in_range = |w: i8| weight_in_range(wp, w);
    let width = 64 / PER;
    let eight = |g: &[i8; 8]| match width {
        1 => positive_bits(*g),
        8 => u64::from_le_bytes(g.map(cast::lane_of_i8)),
        _ => g.iter().zip(0..).fold(0, |f, (&w, i)| {
            f | (u64::from(cast::lane_of_i8(w)) & ((1 << width) - 1)) << (width * i)
        }),
    };
    let word = |c: &[i8; PER]| {
        let groups = c.as_chunks::<8>().0.iter().zip(0..);
        groups.fold(0, |word, (g, j)| word | eight(g) << (8 * width * j))
    };
    let mut ok = true;
    for row in weights.chunks_exact(in_len) {
        let (full, tail) = row.as_chunks::<PER>();
        words.extend(full.iter().map(word));
        if !tail.is_empty() {
            // Zero weights pad the fields past the fan-in with zero bits.
            let mut last = [0; PER];
            last[..tail.len()].copy_from_slice(tail);
            words.push(word(&last));
        }
        ok &= row.iter().fold(true, |ok, &w| ok & in_range(w));
    }
    // The offending value is looked up only on the failure path.
    let stray = (!ok).then(|| weights.iter().copied().find(|&w| !in_range(w)))?;
    stray.map(i32::from)
}

/// `true` when every layer of `mlp` is within the architecture's width
/// and every FC layer's weights fill its `neurons × in_len` matrix: what
/// sizing a stream from the model's settings takes.
fn fits(mlp: &QuantMlp) -> bool {
    let fc = |in_len: usize, neurons: usize, weights: &[i8]| {
        in_len.max(neurons) <= MAX_LAYER_WIDTH && in_len.checked_mul(neurons) == Some(weights.len())
    };
    let hidden = mlp
        .hidden
        .iter()
        .all(|h| fc(h.in_len, h.neurons, &h.weights));
    mlp.input.len <= MAX_LAYER_WIDTH
        && hidden
        && fc(mlp.output.in_len, mlp.output.neurons, &mlp.output.weights)
}

/// Encodes `mlp` plus one inference input into the transmission stream
/// with the paper's 8-bit lane weight packing.
///
/// ```
/// use netpu_nn::{export::BnMode, zoo::ZooModel};
/// let model = ZooModel::TfcW1A1.build_untrained(1, BnMode::Folded).unwrap();
/// let loadable = netpu_compiler::compile(&model, &vec![0u8; 784]).unwrap();
/// // The stream decodes back to the identical model.
/// let decoded = netpu_compiler::decode(&loadable.words).unwrap();
/// assert_eq!(decoded.model.weight_count(), model.weight_count());
/// ```
pub fn compile(mlp: &QuantMlp, pixels: &[u8]) -> Result<Loadable, StreamError> {
    compile_packed(mlp, pixels, PackingMode::Lanes8)
}

/// Encodes `mlp` plus one inference input under an explicit weight
/// [`PackingMode`]. The mode is recorded in the stream header (bit 40)
/// so an instance without dense-unpacking hardware rejects the stream.
///
/// The model is validated as [`QuantMlp::validate`] does, with the same
/// errors, but its weights are read once: each weight section's pass
/// packs them and finds the layer's first out-of-range weight, which
/// validation then reports ([`QuantMlp::validate_scanned`]).
pub fn compile_packed(
    mlp: &QuantMlp,
    pixels: &[u8],
    mode: PackingMode,
) -> Result<Loadable, StreamError> {
    if !fits(mlp) {
        // No valid model fails `fits`; validation names this one's
        // first fault before anything is sized from its settings.
        mlp.validate().map_err(StreamError::InvalidModel)?;
    }
    let settings = model_settings(mlp);
    let layout = StreamLayout::of(&settings, mode);
    let mut words = Vec::with_capacity(layout.words());
    // The compiler cannot prove anything about the host's future inputs,
    // so it declares the full pixel range; hosts with tighter sensors
    // narrow it via [`Loadable::set_declared_input_range`].
    let header = Header {
        magic: MAGIC,
        version: VERSION,
        layers: settings.len(),
        packing: mode,
        input_range: Some((0, u8::MAX)),
    };
    words.push(header.encode());
    words.extend(settings.iter().map(LayerSetting::encode));
    // Dataset inputs as 8-bit lanes.
    words.extend(
        pixels
            .chunks(LANES_PER_WORD)
            .map(|c| lane_word(c.iter().copied())),
    );
    // The §III.B.3 interleave, every section written in place.
    let mut strays = vec![None; settings.len()];
    for (kind, k, _) in &layout.sections {
        match kind {
            SectionKind::Params => push_params(&mut words, mlp, *k),
            SectionKind::Weights => {
                strays[*k] = push_weights(&mut words, mlp, *k, &settings[*k], mode)
            }
        }
    }

    mlp.validate_scanned(|layer| strays.get(layer).copied().flatten())
        .map_err(StreamError::InvalidModel)?;
    if pixels.len() != mlp.input.len {
        return Err(StreamError::InputLength {
            expected: mlp.input.len,
            got: pixels.len(),
        });
    }
    debug_assert_eq!(
        words.len(),
        layout.words(),
        "sections sized from the settings"
    );
    Ok(Loadable { words, layout })
}

impl Loadable {
    /// Total stream length in 64-bit words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when the stream is empty (never for a valid loadable).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Replaces the dataset-input section in place for a new inference
    /// without re-encoding the model sections ([`splice_input`]).
    pub fn replace_input(&mut self, pixels: &[u8]) -> Result<(), StreamError> {
        splice_input(&mut self.words, pixels)
    }

    /// Overwrites the header's declared input range: the host's claim
    /// that every input this loadable will run with lies in `lo..=hi`.
    /// A tighter claim lets the range analyzer prove tighter accumulator
    /// bounds; an untrue one is caught by NPC020 against the stream's
    /// own input section.
    pub fn set_declared_input_range(&mut self, lo: u8, hi: u8) {
        let word = &mut self.words[self.layout.header.start];
        let header = Header {
            input_range: Some((lo, hi)),
            ..Header::decode(*word)
        };
        *word = header.encode();
    }
}

/// The word span of a stream's dataset-input section, read from the
/// stream's own header (layer count) and first setting word (pixel
/// count), never from host-side layout metadata.
pub fn input_section(words: &[u64]) -> Result<Range<usize>, StreamError> {
    let &header = words.first().ok_or(StreamError::Truncated { at: 0 })?;
    let layers = Header::parse(header)?.layers;
    if layers == 0 {
        return Err(StreamError::BadLayerSequence);
    }
    let &first = words
        .get(1)
        .ok_or(StreamError::Truncated { at: words.len() })?;
    let pixels = LayerSetting::decode(first).map_err(StreamError::BadSetting)?;
    let span = input_span(layers, pixels.neurons);
    if span.end > words.len() {
        return Err(StreamError::Truncated { at: words.len() });
    }
    Ok(span)
}

/// Writes `pixels` into the stream's dataset-input section
/// ([`input_section`]), 8-bit lanes, zero past the last pixel. The
/// pixel count must be the first layer's.
pub fn splice_input(words: &mut [u64], pixels: &[u8]) -> Result<(), StreamError> {
    let span = input_section(words)?;
    let setting = LayerSetting::decode(words[1]).map_err(StreamError::BadSetting)?;
    let len = cast::usize_from_u32(setting.neurons);
    if pixels.len() != len {
        return Err(StreamError::InputLength {
            expected: len,
            got: pixels.len(),
        });
    }
    for (w, chunk) in words[span].iter_mut().zip(pixels.chunks(LANES_PER_WORD)) {
        *w = lane_word(chunk.iter().copied());
    }
    Ok(())
}

/// Builds a multi-inference stream: `inputs.len()` complete loadables
/// back to back, as a host would pre-package a burst of requests
/// (§III.B.3). The accelerator runs them consecutively, re-initialising
/// itself from each header.
pub fn batch_stream(
    mlp: &QuantMlp,
    inputs: &[Vec<u8>],
    mode: PackingMode,
) -> Result<Vec<u64>, StreamError> {
    let first = match inputs.first() {
        Some(f) => f,
        None => return Ok(Vec::new()),
    };
    let mut loadable = compile_packed(mlp, first, mode)?;
    let mut words = Vec::with_capacity(loadable.len() * inputs.len());
    words.extend_from_slice(&loadable.words);
    for pixels in &inputs[1..] {
        loadable.replace_input(pixels)?;
        words.extend_from_slice(&loadable.words);
    }
    Ok(words)
}

/// A decoded loadable: the reconstructed model and inference input.
#[derive(Clone, Debug, PartialEq)]
pub struct Decoded {
    /// The reconstructed hardware model (name is not transmitted and is
    /// left empty).
    pub model: QuantMlp,
    /// The inference input pixels.
    pub pixels: Vec<u8>,
    /// The decoded layer settings.
    pub settings: Vec<LayerSetting>,
    /// The weight packing mode the stream was encoded with.
    pub packing: PackingMode,
    /// The header's declared input range, when present (`None` for
    /// streams predating the range metadata).
    pub input_range: Option<(u8, u8)>,
}

struct Reader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// The next `n` words, consumed.
    fn take(&mut self, n: usize) -> Result<&'a [u64], StreamError> {
        if self.pos + n > self.words.len() {
            return Err(StreamError::Truncated {
                at: self.words.len(),
            });
        }
        self.pos += n;
        Ok(&self.words[self.pos - n..self.pos])
    }
}

/// The `n` layer settings following a stream's header word.
pub(crate) fn read_settings(words: &[u64], n: usize) -> Result<Vec<LayerSetting>, StreamError> {
    let raw = words
        .get(1..1 + n)
        .ok_or(StreamError::Truncated { at: words.len() })?;
    let mut settings = Vec::with_capacity(n);
    for &w in raw {
        settings.push(LayerSetting::decode(w).map_err(StreamError::BadSetting)?);
    }
    Ok(settings)
}

fn decode_activation(
    setting: &LayerSetting,
    words: &[u64],
    layer: usize,
) -> Result<LayerActivation, StreamError> {
    let neurons = cast::usize_from_u32(setting.neurons);
    match setting.activation {
        ActivationKind::Sign => {
            let vals = unpack_u32_pairs(words, neurons);
            Ok(LayerActivation::Sign {
                thresholds: vals.into_iter().map(Fix::from_stream_word).collect(),
            })
        }
        ActivationKind::MultiThreshold => {
            let per = setting.out_precision.multi_threshold_count();
            let vals = unpack_u32_pairs(words, neurons * per);
            Ok(LayerActivation::MultiThreshold {
                thresholds: vals.into_iter().map(Fix::from_stream_word).collect(),
            })
        }
        kind => {
            let vals = unpack_u32_pairs(words, neurons * 2);
            let first = QuantParams {
                scale: Fix::from_stream_word(vals[0]),
                offset: Fix::from_stream_word(vals[1]),
            };
            for pair in vals.chunks(2) {
                if pair[0] != vals[0] || pair[1] != vals[1] {
                    return Err(StreamError::InconsistentQuanParams { layer });
                }
            }
            Ok(match kind {
                ActivationKind::Relu => LayerActivation::Relu { quant: first },
                ActivationKind::Sigmoid => LayerActivation::Sigmoid { quant: first },
                ActivationKind::Tanh => LayerActivation::Tanh { quant: first },
                _ => unreachable!(),
            })
        }
    }
}

/// Decoded bias-or-BN block of one FC layer.
type BiasOrBn = (Option<Vec<i32>>, Option<Vec<BnParams>>);

fn decode_bias_bn(
    setting: &LayerSetting,
    reader: &mut Reader<'_>,
) -> Result<BiasOrBn, StreamError> {
    let neurons = cast::usize_from_u32(setting.neurons);
    let words = reader.take(bias_bn_words(setting))?;
    if setting.bn_folded {
        let mut bias = Vec::with_capacity(neurons);
        for i in 0..neurons {
            let lane = cast::lo8(words[i / LANES_PER_WORD] >> (8 * (i % LANES_PER_WORD)));
            bias.push(cast::sign_extend(u32::from(lane), 8));
        }
        Ok((Some(bias), None))
    } else {
        let bn = words
            .iter()
            .map(|&w| BnParams {
                scale_q16: cast::i32_from_bits(cast::lo32(w)),
                offset: Fix::from_stream_word(cast::lo32(w >> 32)),
            })
            .collect();
        Ok((None, Some(bn)))
    }
}

/// Decodes a transmission stream back into a model + input. The inverse
/// of [`compile`] up to the untransmitted model name: the stream's
/// [`StreamView`] expanded to `i8` weights.
pub fn decode(words: &[u64]) -> Result<Decoded, StreamError> {
    Ok(StreamView::new(words.into())?.expand(words))
}

/// A stream decoded once and read in place: its settings, packing mode
/// and declared input range, and its bit-exact value kernel, which
/// holds the model's parameters without weights and reads every FC
/// layer's weights from the stream's own words ([`WeightRows`]):
/// XNOR-path layers as their ±1 rows, integer-path layers as the
/// stream's weight fields (8-bit lanes, or native width under
/// [`PackingMode::Dense`]). No weight is decoded or copied.
///
/// The view does not read the input section, so it may sit over a copy
/// of the stream whose input section is masked; readers that need the
/// stream's own pixels take them from the words they were sent
/// ([`StreamView::pixels`]).
pub struct StreamView {
    /// The decoded layer settings.
    pub settings: Vec<LayerSetting>,
    /// The weight packing mode the stream was encoded with.
    pub packing: PackingMode,
    /// The header's declared input range, when present (`None` for
    /// streams predating the range metadata).
    pub input_range: Option<(u8, u8)>,
    kernel: PackedMlp<'static>,
}

impl StreamView {
    /// Decodes `words`, validating the model as [`decode`] does (its
    /// weights read from their fields), with the same errors.
    pub fn new(words: Arc<[u64]>) -> Result<StreamView, StreamError> {
        let &word = words.first().ok_or(StreamError::Truncated { at: 0 })?;
        let header = Header::parse(word)?;
        let (n, mode) = (header.layers, header.packing);
        if n < 2 {
            return Err(StreamError::BadLayerSequence);
        }
        let settings = read_settings(&words, n)?;
        if !is_layer_sequence(&settings) {
            return Err(StreamError::BadLayerSequence);
        }
        let layout = StreamLayout::of(&settings, mode);
        if layout.words() > words.len() {
            return Err(StreamError::Truncated { at: words.len() });
        }
        let params = |k| &words[layout.section(SectionKind::Params, k)];

        // Reconstruct the model without its weights.
        let input = InputLayer {
            len: cast::usize_from_u32(settings[0].neurons),
            out_precision: settings[0].out_precision,
            activation: decode_activation(&settings[0], params(0), 0)?,
        };
        let mut hidden = Vec::with_capacity(n - 2);
        for (k, s) in settings.iter().enumerate().take(n - 1).skip(1) {
            let mut reader = Reader {
                words: params(k),
                pos: 0,
            };
            let (bias, bn) = decode_bias_bn(s, &mut reader)?;
            let act_words = &reader.words[reader.pos..];
            hidden.push(HiddenLayer {
                in_len: cast::usize_from_u32(s.input_len),
                neurons: cast::usize_from_u32(s.neurons),
                weight_precision: s.weight_precision,
                in_precision: s.in_precision,
                out_precision: s.out_precision,
                weights: Vec::new(),
                bias,
                bn,
                activation: decode_activation(s, act_words, k)?,
            });
        }
        let s = &settings[n - 1];
        let mut reader = Reader {
            words: params(n - 1),
            pos: 0,
        };
        let (bias, bn) = decode_bias_bn(s, &mut reader)?;
        let output = OutputLayer {
            in_len: cast::usize_from_u32(s.input_len),
            neurons: cast::usize_from_u32(s.neurons),
            weight_precision: s.weight_precision,
            in_precision: s.in_precision,
            weights: Vec::new(),
            bias,
            bn,
        };
        let model = QuantMlp {
            name: String::new(),
            input,
            hidden,
            output,
        };

        let rows = (settings.iter().enumerate().skip(1))
            .map(|(k, s)| {
                let section = layout.section(SectionKind::Weights, k);
                let neurons = cast::usize_from_u32(s.neurons);
                let in_len = cast::usize_from_u32(s.input_len);
                let field = weight_field(s, mode);
                WeightRows::new(Arc::clone(&words), section, neurons, in_len, field).ok_or(
                    StreamError::InvalidModel(netpu_nn::qmodel::ModelError::WeightShape {
                        layer: k,
                    }),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StreamView {
            kernel: PackedMlp::from_words(model, rows).map_err(StreamError::InvalidModel)?,
            settings,
            packing: mode,
            input_range: header.input_range,
        })
    }

    /// The stream's value kernel: the model without its FC layers'
    /// `i8` weights ([`PackedMlp::model`]) and one [`WeightRows`] per
    /// FC layer ([`PackedMlp::weight_rows`]).
    pub fn kernel(&self) -> &PackedMlp<'static> {
        &self.kernel
    }

    /// The pixels in the input section of `words`, a stream of this
    /// view's shape (zero past its end).
    pub fn pixels(&self, words: &[u64]) -> Vec<u8> {
        let len = self.kernel.model().input.len;
        let start = 1 + self.settings.len();
        let lanes = words.get(start..).unwrap_or_default();
        (0..len)
            .map(|i| {
                lanes
                    .get(i / LANES_PER_WORD)
                    .map_or(0, |&w| cast::lo8(w >> (8 * (i % LANES_PER_WORD))))
            })
            .collect()
    }

    /// What [`decode`] returns for `words`, a stream of this view's
    /// shape: the model with every FC layer's weights expanded to
    /// `i8`, and the pixels of `words`.
    pub fn expand(&self, words: &[u64]) -> Decoded {
        let mut model = self.kernel.model().clone();
        let weights = model
            .hidden
            .iter_mut()
            .map(|l| &mut l.weights)
            .chain(std::iter::once(&mut model.output.weights));
        for (k, weights) in weights.enumerate() {
            if let Some(rows) = self.kernel.weight_rows(k) {
                weights.reserve_exact(rows.neurons() * rows.in_len());
                for n in 0..rows.neurons() {
                    weights.extend(rows.weights(n));
                }
            }
        }
        Decoded {
            model,
            pixels: self.pixels(words),
            settings: self.settings.clone(),
            packing: self.packing,
            input_range: self.input_range,
        }
    }

    /// Heap bytes the view holds besides the stream's words: its
    /// settings and the kernel's parameters.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.settings.as_slice()) + self.kernel.heap_bytes()
    }
}

/// How a layer's weights sit in its weight section's words.
fn weight_field(s: &LayerSetting, mode: PackingMode) -> WeightField {
    if uses_xnor_path(s) {
        return WeightField::Xnor;
    }
    let width = weight_field_bits(s, mode);
    match (s.weight_precision.is_binary(), width) {
        (true, 8) => WeightField::Signed { width, bits: 8 },
        (true, _) => WeightField::Bipolar,
        (false, _) => WeightField::Signed {
            width,
            bits: u32::from(s.weight_precision.bits()),
        },
    }
}
