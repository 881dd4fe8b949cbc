//! The value kernel: bit-exact inference over packed weight words.
//!
//! [`PackedMlp`] answers what a [`QuantMlp`] computes without the cycle
//! model. Its FC layers read their weights from 64-bit words in one of
//! the layouts a NetPU-M stream uses ([`WeightField`]): XNOR-path
//! layers as ±1 bit rows (XNOR+popcount dot products), integer-path
//! layers as sign-extended fields of 1–8 bits. Those words are either
//! packed here from a model's `i32` weights ([`PackedMlp::new`]) or
//! shared with a stream that already holds them
//! ([`PackedMlp::from_words`]), so a kernel over an admitted stream
//! keeps no copy of its weights.
//!
//! Results are **bit-identical** to [`infer_traced`]: the same
//! arithmetic, not an approximation. The module tests pin that down for
//! every layout against the unpacked walk.

use crate::qmodel::{weight_in_range, ModelError, QuantMlp};
use crate::reference::{
    accumulate, maxout, neuron_accumulate, neuron_post, run_input_layer, to_mac_domain,
    InferenceTrace,
};
use netpu_arith::{cast, Fix, Precision};
use std::borrow::Cow;
use std::sync::Arc;

#[cfg(doc)]
use crate::reference::infer_traced;

/// How one weight sits in a 64-bit word. Weight `i` of a row is field
/// `i % per_word` of the row's word `i / per_word`, field `j` starting
/// at bit `j * width`; fields past the fan-in are never read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightField {
    /// The XNOR path: one bit per weight, set for +1, paired with
    /// bipolar inputs by the `2·popcount(XNOR) − n` identity.
    Xnor,
    /// The integer path: `width`-bit fields (`width` divides 64) whose
    /// low `bits` bits (at most 16) are a two's-complement weight.
    Signed {
        /// Field width, bits.
        width: u32,
        /// Weight bits at the bottom of the field.
        bits: u32,
    },
    /// The integer path: 1-bit fields, set for +1 and clear for −1.
    Bipolar,
}

impl WeightField {
    /// Field width, bits.
    fn width(self) -> u32 {
        match self {
            WeightField::Xnor | WeightField::Bipolar => 1,
            WeightField::Signed { width, .. } => width,
        }
    }
}

/// One FC layer's weight matrix inside shared words: neuron `n`'s row
/// is the `words_per_row` words from `start + n * words_per_row`.
#[derive(Clone, Debug)]
pub struct WeightRows {
    words: Arc<[u64]>,
    start: usize,
    words_per_row: usize,
    neurons: usize,
    in_len: usize,
    field: WeightField,
}

impl WeightRows {
    /// The `neurons × in_len` matrix stored as `field`s in
    /// `words[section]`, one row per neuron, each row padded to a word
    /// boundary. `None` when the section does not hold exactly that
    /// many rows, lies outside `words`, or `field` is not a layout.
    pub fn new(
        words: Arc<[u64]>,
        section: std::ops::Range<usize>,
        neurons: usize,
        in_len: usize,
        field: WeightField,
    ) -> Option<WeightRows> {
        let width = field.width();
        let bits_fit = match field {
            WeightField::Signed { width, bits } => (1..=width.min(16)).contains(&bits),
            WeightField::Xnor | WeightField::Bipolar => true,
        };
        if !(1..=32).contains(&width) || 64 % width != 0 || in_len == 0 || !bits_fit {
            return None;
        }
        let words_per_row = in_len.div_ceil(cast::usize_from_u32(64 / width));
        if section.len() != neurons.checked_mul(words_per_row)? || section.end > words.len() {
            return None;
        }
        Some(WeightRows {
            words,
            start: section.start,
            words_per_row,
            neurons,
            in_len,
            field,
        })
    }

    /// Packs a row-major ±1 matrix as XNOR rows; `None` when any weight
    /// is not strictly bipolar (the popcount identity only holds for
    /// ±1).
    pub(crate) fn pack_xnor(weights: &[i32], neurons: usize, in_len: usize) -> Option<WeightRows> {
        if in_len == 0 || weights.iter().any(|&v| v != 1 && v != -1) {
            return None;
        }
        let words: Arc<[u64]> = weights
            .chunks(in_len)
            .flat_map(netpu_arith::quant::pack_binary_channels)
            .collect();
        let len = words.len();
        WeightRows::new(words, 0..len, neurons, in_len, WeightField::Xnor)
    }

    /// Fan-in of every row.
    pub fn in_len(&self) -> usize {
        self.in_len
    }

    /// Rows (neurons) of the matrix.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// How each weight sits in the words.
    pub fn field(&self) -> WeightField {
        self.field
    }

    /// Neuron `n`'s `in_len` weights, read from their fields (none past
    /// the last neuron).
    pub fn weights(&self, n: usize) -> impl Iterator<Item = i32> + '_ {
        let row = self.row(n);
        let (field, width) = (self.field, self.field.width());
        // The current word, shifted so its next field is at bit 0, and
        // the fields left in it.
        let (mut words, mut word, mut fields) = (row.iter(), 0u64, 0u32);
        let weights = std::iter::from_fn(move || {
            if fields == 0 {
                word = *words.next()?;
                fields = 64 / width;
            }
            let f = word;
            word >>= width;
            fields -= 1;
            Some(match field {
                WeightField::Xnor | WeightField::Bipolar => 2 * i32::from(f & 1 == 1) - 1,
                WeightField::Signed { bits, .. } => cast::sign_extend(cast::lo32(f), bits),
            })
        });
        weights.take(self.in_len)
    }

    /// The first weight, in row order, outside `precision`'s range (±1
    /// when binary). Only a field wider than the precision can hold one:
    /// binary weights promoted to 8-bit lanes.
    fn stray(&self, precision: Precision) -> Option<i32> {
        let WeightField::Signed { bits, .. } = self.field else {
            return None;
        };
        if !precision.is_binary() && bits <= u32::from(precision.bits()) {
            return None;
        }
        (0..self.neurons)
            .flat_map(|n| self.weights(n))
            .find(|&w| !weight_in_range(precision, w))
    }

    /// Neuron `n`'s row words (empty past the last neuron).
    pub(crate) fn row(&self, n: usize) -> &[u64] {
        let start = self.start + n * self.words_per_row;
        self.words
            .get(start..start + self.words_per_row)
            .unwrap_or_default()
    }

    /// Every neuron's `Σ wᵢ·aᵢ` against `inputs` (already in the MAC
    /// domain), exactly as [`neuron_accumulate`] sums it without bias.
    fn dots(&self, inputs: &[i32]) -> Vec<i32> {
        match self.field {
            WeightField::Xnor => self.xnor_dots(&netpu_arith::quant::pack_binary_channels(inputs)),
            WeightField::Bipolar => {
                self.field_dots::<64>(inputs, 1, |f| 2 * i16::from(f & 1 == 1) - 1)
            }
            WeightField::Signed { width, bits } => {
                let max_weight = 1u64 << (bits - 1);
                let shift = 16 - bits;
                let weight = move |f: u64| {
                    i16::from_ne_bytes((cast::lo16(f) << shift).to_ne_bytes()) >> shift
                };
                // One monomorphic walk per fields-per-word count.
                match width {
                    2 => self.field_dots::<32>(inputs, max_weight, weight),
                    4 => self.field_dots::<16>(inputs, max_weight, weight),
                    8 => self.field_dots::<8>(inputs, max_weight, weight),
                    16 => self.field_dots::<4>(inputs, max_weight, weight),
                    32 => self.field_dots::<2>(inputs, max_weight, weight),
                    _ => self.field_dots::<64>(inputs, max_weight, weight),
                }
            }
        }
    }

    /// Every row in neuron order.
    fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        let end = self.start + self.neurons * self.words_per_row;
        let section = self.words.get(self.start..end).unwrap_or_default();
        section.chunks_exact(self.words_per_row)
    }

    /// The XNOR+popcount dot products `2·popcount(XNOR) − n`. A ±1 dot
    /// product's every prefix is bounded by the fan-in, so the
    /// saturating accumulator never clamps and plain summation is
    /// exact. Each row's words are counted in one branch-free loop,
    /// then the agreeing padding lanes of its last word, past the
    /// fan-in, are taken back out.
    fn xnor_dots(&self, input_bits: &[u64]) -> Vec<i32> {
        let tail = self.in_len % 64;
        let padding = if tail == 0 { 0 } else { !((1u64 << tail) - 1) };
        let last = self.words_per_row - 1;
        let fan_in = cast::i64_sat_usize(self.in_len);
        self.rows()
            .map(|row| {
                let mut ones: i64 = 0;
                for (&w, &x) in row.iter().zip(input_bits) {
                    ones += i64::from((!(w ^ x)).count_ones());
                }
                if let (Some(&w), Some(&x)) = (row.get(last), input_bits.get(last)) {
                    ones -= i64::from((!(w ^ x) & padding).count_ones());
                }
                cast::i32_sat(2 * ones - fan_in)
            })
            .collect()
    }

    /// Integer-path dot products over `PER` fields per word: each
    /// weight is `weight` of its field shifted to bit 0. When the inputs
    /// fit `i16` and no prefix of any row can leave the `i32` range
    /// (`in_len · max|w| · max|a|` fits), the sum runs without the
    /// per-step clamp, a whole word of fields at a time in 16-bit
    /// products; otherwise every step saturates as the ACCU does.
    fn field_dots<const PER: usize>(
        &self,
        inputs: &[i32],
        max_weight: u64,
        weight: impl Fn(u64) -> i16 + Copy,
    ) -> Vec<i32> {
        let inputs = inputs.get(..self.in_len).unwrap_or(inputs);
        let narrow: Option<Vec<i16>> = inputs.iter().map(|&a| i16::try_from(a).ok()).collect();
        let max_input = inputs.iter().map(|a| a.unsigned_abs()).max().unwrap_or(0);
        let bound = cast::u64_from_usize(self.in_len)
            .saturating_mul(max_weight)
            .saturating_mul(u64::from(max_input));
        let narrow = narrow.filter(|_| bound <= u64::from(i32::MAX.unsigned_abs()));
        self.rows()
            .map(|row| {
                if let Some(narrow) = &narrow {
                    word_dot::<PER>(row, narrow, weight)
                } else {
                    row.iter()
                        .zip(inputs.chunks(PER))
                        .fold(0i32, |acc, (&word, chunk)| {
                            chunk.iter().enumerate().fold(acc, |acc, (i, &a)| {
                                let w = i64::from(weight(word >> (64 / PER * i)));
                                accumulate(acc, w * i64::from(a))
                            })
                        })
                }
            })
            .collect()
    }
}

/// `Σ wᵢ·aᵢ` of one row of `PER` fields per word against `inputs`,
/// known not to overflow: whole words unrolled over their fields, then
/// the row's partly used last word.
#[inline]
fn word_dot<const PER: usize>(
    row: &[u64],
    inputs: &[i16],
    weight: impl Fn(u64) -> i16 + Copy,
) -> i32 {
    let width = 64 / PER;
    let (full, tail) = inputs.as_chunks::<PER>();
    // One partial sum per field position, reduced once at the end.
    let mut lanes = [0i32; PER];
    for (&word, xs) in row.iter().zip(full) {
        for (i, (lane, &a)) in lanes.iter_mut().zip(xs).enumerate() {
            *lane += i32::from(weight(word >> (width * i))) * i32::from(a);
        }
    }
    if let Some(&word) = row.get(full.len()) {
        for (i, (lane, &a)) in lanes.iter_mut().zip(tail).enumerate() {
            *lane += i32::from(weight(word >> (width * i))) * i32::from(a);
        }
    }
    lanes.iter().sum()
}

/// `true` when a layer's MAC is fully binary: bipolar inputs × bipolar
/// weights, the combination the XNOR path accelerates.
pub(crate) fn binary_mac(weight_precision: Precision, in_precision: Precision) -> bool {
    weight_precision.is_binary() && in_precision.is_binary()
}

/// One FC layer as the walk sees it: hidden and output layers alike.
struct Fc<'m> {
    in_len: usize,
    neurons: usize,
    in_precision: Precision,
    weights: &'m [i32],
    bias: Option<&'m [i32]>,
}

/// A [`QuantMlp`] prepared for repeated inference.
///
/// Each FC layer either reads its weights from [`WeightRows`] or, with
/// none, walks the model's `i32` weights through the reference MAC.
/// [`PackedMlp::new`] packs the fully binary layers of a borrowed model
/// (the per-frame cost of e.g. the W1A1 zoo models drops by over an
/// order of magnitude) and leaves the others on `i32` weights.
/// [`PackedMlp::from_words`] owns a model without weights and reads
/// every layer from words it shares, typically an admitted stream.
pub struct PackedMlp<'a> {
    mlp: Cow<'a, QuantMlp>,
    /// Per FC layer (hidden layers, then the output layer).
    rows: Vec<Option<WeightRows>>,
}

impl<'a> PackedMlp<'a> {
    /// Packs every fully binary layer of `mlp` once.
    pub fn new(mlp: &'a QuantMlp) -> PackedMlp<'a> {
        let rows = mlp
            .hidden
            .iter()
            .map(|l| {
                (
                    l.weight_precision,
                    l.in_precision,
                    &l.weights,
                    l.neurons,
                    l.in_len,
                )
            })
            .chain(std::iter::once((
                mlp.output.weight_precision,
                mlp.output.in_precision,
                &mlp.output.weights,
                mlp.output.neurons,
                mlp.output.in_len,
            )))
            .map(|(wp, ip, weights, neurons, in_len)| {
                binary_mac(wp, ip)
                    .then(|| WeightRows::pack_xnor(weights, neurons, in_len))
                    .flatten()
            })
            .collect();
        PackedMlp {
            mlp: Cow::Borrowed(mlp),
            rows,
        }
    }

    /// Input pixels per inference.
    pub fn input_len(&self) -> usize {
        self.mlp.input.len
    }

    /// The model the kernel runs. Under [`PackedMlp::from_words`] its
    /// FC layers carry no `i32` weights: they are in
    /// [`weight_rows`](Self::weight_rows).
    pub fn model(&self) -> &QuantMlp {
        &self.mlp
    }

    /// FC layer `k`'s weight rows (hidden layers, then the output
    /// layer), when the kernel reads that layer from words.
    pub fn weight_rows(&self, k: usize) -> Option<&WeightRows> {
        self.rows.get(k)?.as_ref()
    }

    /// [`infer_traced`] on the prepared model.
    pub fn infer_traced(&self, pixels: &[u8]) -> InferenceTrace {
        let mut hidden_levels = Vec::with_capacity(self.mlp.hidden.len() + 1);
        let scores = self.walk(pixels, |levels| hidden_levels.push(levels.to_vec()));
        let input_levels = hidden_levels.remove(0);
        let class = maxout(&scores);
        InferenceTrace {
            input_levels,
            hidden_levels,
            scores,
            class,
        }
    }

    /// The MaxOut class and its winning score — what the accelerator
    /// reports — without keeping the per-layer intermediates.
    pub fn infer(&self, pixels: &[u8]) -> (usize, Fix) {
        let scores = self.walk(pixels, |_| {});
        let class = maxout(&scores);
        (class, scores[class])
    }

    /// Heap bytes the kernel holds besides its weight words: an owned
    /// model's parameters (thresholds, biases, BN) and `i32` weights,
    /// and the per-layer row descriptors. Words shared with a stream
    /// are that stream's.
    pub fn heap_bytes(&self) -> usize {
        let m = &*self.mlp;
        let owned = match &self.mlp {
            Cow::Borrowed(_) => 0,
            Cow::Owned(_) => {
                let thresholds: usize = std::iter::once(&m.input.activation)
                    .chain(m.hidden.iter().map(|l| &l.activation))
                    .map(activation_bytes)
                    .sum();
                let fc: usize = m
                    .hidden
                    .iter()
                    .map(|l| (&l.weights, &l.bias, &l.bn))
                    .chain(std::iter::once((
                        &m.output.weights,
                        &m.output.bias,
                        &m.output.bn,
                    )))
                    .map(|(w, b, bn)| {
                        std::mem::size_of_val(w.as_slice())
                            + b.as_ref()
                                .map_or(0, |b| std::mem::size_of_val(b.as_slice()))
                            + bn.as_ref()
                                .map_or(0, |p| std::mem::size_of_val(p.as_slice()))
                    })
                    .sum();
                std::mem::size_of::<QuantMlp>() + thresholds + fc
            }
        };
        owned + std::mem::size_of_val(self.rows.as_slice())
    }

    /// The layer walk: hands the input-layer levels and then each
    /// hidden layer's levels to `observe`, returns the output scores.
    fn walk(&self, pixels: &[u8], mut observe: impl FnMut(&[i32])) -> Vec<Fix> {
        let mut cur = run_input_layer(&self.mlp, pixels);
        observe(&cur);
        for (k, layer) in self.mlp.hidden.iter().enumerate() {
            let fc = Fc {
                in_len: layer.in_len,
                neurons: layer.neurons,
                in_precision: layer.in_precision,
                weights: &layer.weights,
                bias: layer.bias.as_deref(),
            };
            cur = self
                .accumulators(k, &fc, &cur)
                .into_iter()
                .enumerate()
                .map(|(n, acc)| {
                    let bn = layer.bn.as_ref().map(|p| p[n]);
                    neuron_post(&layer.activation, bn, n, acc, layer.out_precision)
                })
                .collect();
            observe(&cur);
        }
        let o = &self.mlp.output;
        let fc = Fc {
            in_len: o.in_len,
            neurons: o.neurons,
            in_precision: o.in_precision,
            weights: &o.weights,
            bias: o.bias.as_deref(),
        };
        self.accumulators(self.mlp.hidden.len(), &fc, &cur)
            .into_iter()
            .enumerate()
            .map(|(n, acc)| {
                let v = Fix::from_i32(acc);
                o.bn.as_ref().map_or(v, |p| p[n].apply(v))
            })
            .collect()
    }

    /// Every neuron's accumulator, bias included, for FC layer `k`.
    fn accumulators(&self, k: usize, fc: &Fc<'_>, prev: &[i32]) -> Vec<i32> {
        let inputs = to_mac_domain(prev, fc.in_precision);
        let mut accs = match self.rows.get(k).and_then(Option::as_ref) {
            Some(rows) => rows.dots(&inputs),
            None => fc
                .weights
                .chunks(fc.in_len.max(1))
                .take(fc.neurons)
                .map(|w| neuron_accumulate(w, &inputs, None))
                .collect(),
        };
        for (acc, &b) in accs.iter_mut().zip(fc.bias.unwrap_or_default()) {
            *acc = accumulate(*acc, i64::from(b));
        }
        accs
    }
}

impl PackedMlp<'static> {
    /// Takes ownership of a model whose FC layers carry no `i32`
    /// weights, with one [`WeightRows`] per FC layer (hidden layers,
    /// then the output layer) holding them: an XNOR-path layer's rows
    /// in [`WeightField::Xnor`], any other layer's in an integer-path
    /// field. This is how a NetPU-M stream's weight sections already
    /// lay them out, so the kernel reads them in place.
    ///
    /// Validates the model as [`QuantMlp::validate`] does, reading each
    /// layer's weights from its rows ([`QuantMlp::validate_weightless`]),
    /// and each layer's rows against its shape and path, failing with
    /// the offending layer.
    pub fn from_words(
        mlp: QuantMlp,
        rows: Vec<WeightRows>,
    ) -> Result<PackedMlp<'static>, ModelError> {
        mlp.validate_weightless(|layer| {
            let wp = mlp
                .hidden
                .get(layer - 1)
                .map_or(mlp.output.weight_precision, |l| l.weight_precision);
            rows.get(layer - 1)?.stray(wp)
        })?;
        let shapes: Vec<(usize, usize, bool)> = mlp
            .hidden
            .iter()
            .map(|l| {
                (
                    l.neurons,
                    l.in_len,
                    binary_mac(l.weight_precision, l.in_precision),
                )
            })
            .chain(std::iter::once((
                mlp.output.neurons,
                mlp.output.in_len,
                binary_mac(mlp.output.weight_precision, mlp.output.in_precision),
            )))
            .collect();
        if rows.len() != shapes.len() {
            let layer = rows.len().min(shapes.len()) + 1;
            return Err(ModelError::WeightShape { layer });
        }
        for (k, ((neurons, in_len, xnor), r)) in shapes.into_iter().zip(&rows).enumerate() {
            if r.neurons != neurons || r.in_len != in_len || (r.field == WeightField::Xnor) != xnor
            {
                return Err(ModelError::WeightShape { layer: k + 1 });
            }
        }
        Ok(PackedMlp {
            mlp: Cow::Owned(mlp),
            rows: rows.into_iter().map(Some).collect(),
        })
    }
}

/// Heap bytes of one activation's parameters.
fn activation_bytes(act: &crate::qmodel::LayerActivation) -> usize {
    use crate::qmodel::LayerActivation;
    match act {
        LayerActivation::Sign { thresholds } => std::mem::size_of_val(thresholds.as_slice()),
        LayerActivation::MultiThreshold { thresholds } => thresholds
            .iter()
            .map(|row| std::mem::size_of_val(row) + std::mem::size_of_val(row.as_slice()))
            .sum(),
        LayerActivation::Relu { .. }
        | LayerActivation::Sigmoid { .. }
        | LayerActivation::Tanh { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::infer_traced;
    use crate::zoo::ZooModel;

    /// `mlp`'s weights moved into words in `layout(layer)` fields, one
    /// padded row per neuron, `padding` OR-ed into every field past the
    /// fan-in: the input [`PackedMlp::from_words`] takes.
    fn split(mlp: &QuantMlp, padding: u64) -> (QuantMlp, Vec<WeightRows>) {
        let mut stripped = mlp.clone();
        let mut words = Vec::new();
        let mut sections = Vec::new();
        let layers = stripped
            .hidden
            .iter_mut()
            .map(|l| {
                (
                    &mut l.weights,
                    l.weight_precision,
                    l.in_precision,
                    l.neurons,
                    l.in_len,
                )
            })
            .chain(std::iter::once((
                &mut stripped.output.weights,
                stripped.output.weight_precision,
                stripped.output.in_precision,
                stripped.output.neurons,
                stripped.output.in_len,
            )));
        for (weights, wp, ip, neurons, in_len) in layers {
            let field = if binary_mac(wp, ip) {
                WeightField::Xnor
            } else if wp.is_binary() {
                WeightField::Bipolar
            } else {
                WeightField::Signed {
                    width: 8,
                    bits: u32::from(wp.bits()),
                }
            };
            let width = field.width() as usize;
            let per = 64 / width;
            let start = words.len();
            for row in weights.chunks(in_len) {
                for chunk in row.chunks(per) {
                    let mut word = 0u64;
                    for (i, &v) in chunk.iter().enumerate() {
                        let f = match field {
                            WeightField::Signed { .. } => u64::from(v as u8),
                            _ => u64::from(v > 0),
                        };
                        word |= f << (width * i);
                    }
                    if chunk.len() < per {
                        word |= padding << (width * chunk.len());
                    }
                    words.push(word);
                }
            }
            sections.push((start..words.len(), neurons, in_len, field));
            weights.clear();
        }
        let words: Arc<[u64]> = words.into();
        let rows = sections
            .into_iter()
            .map(|(s, n, i, f)| WeightRows::new(Arc::clone(&words), s, n, i, f).unwrap())
            .collect();
        (stripped, rows)
    }

    fn pixels(len: usize, seed: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 31 + seed * 7) % 256) as u8)
            .collect()
    }

    #[test]
    fn packed_mlp_is_bit_exact_on_binary_models() {
        // Every fully binary zoo model: the packed XNOR+popcount walk
        // must reproduce the unpacked reference trace exactly.
        for kind in [ZooModel::SfcW1A1, ZooModel::TfcW1A1] {
            let m = kind
                .build_untrained(17, crate::export::BnMode::Folded)
                .unwrap();
            let packed = PackedMlp::new(&m);
            for seed in 0..4 {
                let px = pixels(m.input.len, seed);
                assert_eq!(packed.infer_traced(&px), infer_traced(&m, &px));
            }
        }
    }

    #[test]
    fn packed_mlp_falls_back_on_multibit_layers() {
        // TfcW2A2 is not binary: no layer packs, results still agree.
        let m = ZooModel::TfcW2A2
            .build_untrained(9, crate::export::BnMode::Hardware)
            .unwrap();
        let packed = PackedMlp::new(&m);
        assert!(packed.rows.iter().all(Option::is_none));
        let px: Vec<u8> = (0..784).map(|i| (i % 253) as u8).collect();
        assert_eq!(packed.infer_traced(&px), infer_traced(&m, &px));
    }

    #[test]
    fn kernel_over_words_matches_the_reference_and_ignores_padding() {
        // Binary, W2A2 and W1A2 (binary weights on the integer path)
        // layers, with every padding field of each row's last word
        // zero and then all ones.
        for kind in [ZooModel::TfcW1A1, ZooModel::TfcW2A2, ZooModel::LfcW1A2] {
            let m = kind
                .build_untrained(5, crate::export::BnMode::Folded)
                .unwrap();
            for padding in [0, u64::MAX] {
                let (stripped, rows) = split(&m, padding);
                let kernel = PackedMlp::from_words(stripped, rows).unwrap();
                for seed in 0..2 {
                    let px = pixels(m.input.len, seed);
                    let trace = infer_traced(&m, &px);
                    assert_eq!(kernel.infer_traced(&px), trace, "{kind:?}");
                    let winner = (trace.class, trace.scores[trace.class]);
                    assert_eq!(kernel.infer(&px), winner, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn the_clamped_walk_saturates_like_the_accumulator() {
        // One neuron whose 8-bit products overflow i32: the fast sum is
        // refused and every step clamps as `neuron_accumulate` does.
        let in_len = 4;
        let weights = [127i32, 127, -128, -128];
        let inputs = [i32::MAX / 200, i32::MAX / 200, 1, 1];
        let words: Arc<[u64]> = vec![weights
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, &v)| w | u64::from(v as u8) << (8 * i))]
        .into();
        let field = WeightField::Signed { width: 8, bits: 8 };
        let rows = WeightRows::new(words, 0..1, 1, in_len, field).unwrap();
        assert_eq!(
            rows.dots(&inputs),
            vec![neuron_accumulate(&weights, &inputs, None)]
        );
        assert_eq!(rows.dots(&inputs), vec![i32::MAX - 256]);
    }

    #[test]
    fn from_words_rejects_misshapen_rows() {
        let m = ZooModel::TfcW2A2
            .build_untrained(5, crate::export::BnMode::Folded)
            .unwrap();
        let (stripped, mut rows) = split(&m, 0);
        // A model that still carries its i32 weights.
        assert!(PackedMlp::from_words(m, rows.clone()).is_err());
        // Rows of the wrong layer.
        rows.swap(0, 1);
        assert_eq!(
            PackedMlp::from_words(stripped.clone(), rows.clone()).err(),
            Some(ModelError::WeightShape { layer: 1 })
        );
        // One layer short.
        rows.pop();
        assert!(PackedMlp::from_words(stripped, rows).is_err());
    }

    #[test]
    fn weight_rows_check_their_section() {
        let words: Arc<[u64]> = vec![0; 4].into();
        let xnor = WeightField::Xnor;
        assert!(WeightRows::new(Arc::clone(&words), 0..4, 2, 65, xnor).is_some());
        assert!(WeightRows::new(Arc::clone(&words), 0..3, 2, 65, xnor).is_none());
        assert!(WeightRows::new(Arc::clone(&words), 2..6, 2, 65, xnor).is_none());
        let odd = WeightField::Signed { width: 3, bits: 3 };
        assert!(WeightRows::new(words, 0..4, 4, 21, odd).is_none());
        assert!(WeightRows::pack_xnor(&[1, -1, 0, 1], 1, 4).is_none());
        assert!(WeightRows::pack_xnor(&[1, -1, 1, -1], 2, 2).is_some());
    }

    #[test]
    fn xnor_dot_matches_neuron_accumulate_across_tail_widths() {
        // Row lengths straddling the 64-lane word boundary exercise the
        // tail masks.
        for in_len in [1usize, 63, 64, 65, 128, 130] {
            let weights: Vec<i32> = (0..in_len)
                .map(|i| if i % 3 == 0 { 1 } else { -1 })
                .collect();
            let inputs: Vec<i32> = (0..in_len)
                .map(|i| if i % 5 < 2 { 1 } else { -1 })
                .collect();
            let rows = WeightRows::pack_xnor(&weights, 1, in_len).unwrap();
            assert_eq!(
                rows.dots(&inputs),
                vec![neuron_accumulate(&weights, &inputs, None)],
                "in_len={in_len}"
            );
        }
    }

    #[test]
    fn a_kernel_over_shared_words_owns_only_its_parameters() {
        let m = ZooModel::TfcW2A2
            .build_untrained(3, crate::export::BnMode::Folded)
            .unwrap();
        let (stripped, rows) = split(&m, 0);
        let weight_bytes = std::mem::size_of_val(&*rows[0].words);
        let kernel = PackedMlp::from_words(stripped, rows).unwrap();
        assert!(kernel.heap_bytes() > 0);
        // Thresholds and biases only: less than even the packed words,
        // a quarter of what `i32` weights would take.
        assert!(
            kernel.heap_bytes() < weight_bytes,
            "{}",
            kernel.heap_bytes()
        );
    }
}
