//! The value kernel: bit-exact inference over packed weight words.
//!
//! [`PackedMlp`] answers what a [`QuantMlp`] computes without the cycle
//! model. Its FC layers read their weights from 64-bit words in one of
//! the layouts a NetPU-M stream uses ([`WeightField`]): XNOR-path
//! layers as ±1 bit rows (XNOR+popcount dot products), integer-path
//! layers as sign-extended fields of 1–8 bits. Those words are either
//! packed here from a model's `i8` weights ([`PackedMlp::new`]) or
//! shared with a stream that already holds them
//! ([`PackedMlp::from_words`]), so a kernel over an admitted stream
//! keeps no copy of its weights.
//!
//! An integer-path layer within the bit-serial cutover
//! ([`MAX_PLANE_PAIRS`]) also gets its weights as bit planes, built once
//! with the kernel. Its dot products are then AND-popcounts of weight
//! planes against the planes of the unsigned input levels, weighted by
//! powers of two: the XNOR path's popcount loop, run once per pair of
//! planes.
//!
//! Results are **bit-identical** to [`infer_traced`]: the same
//! arithmetic, not an approximation. The module tests pin that down for
//! every layout against the unpacked walk.

use crate::qmodel::{weight_in_range, LayerActivation, ModelError, QuantMlp};
use crate::reference::{
    accumulate, maxout, neuron_post, run_input_layer, to_mac_domain, InferenceTrace,
};
use netpu_arith::{cast, Fix, Precision};
use std::borrow::Cow;
use std::sync::Arc;

#[cfg(doc)]
use crate::reference::{infer_traced, neuron_accumulate};

/// The bit-serial cutover: a layer's dot products run as AND-popcounts
/// over bit planes when its weight planes times its input bits is at
/// most this, one popcount per pair of planes and word of fan-in. Past
/// it the per-field word walk ([`WeightRows`]) does fewer operations.
pub const MAX_PLANE_PAIRS: usize = 16;

/// How one weight sits in a 64-bit word. Weight `i` of a row is field
/// `i % per_word` of the row's word `i / per_word`, field `j` starting
/// at bit `j * width`; fields past the fan-in are never read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightField {
    /// The XNOR path: one bit per weight, set for +1, paired with
    /// bipolar inputs by the `2·popcount(XNOR) − n` identity.
    Xnor,
    /// The integer path: `width`-bit fields (`width` divides 64) whose
    /// low `bits` bits (at most 8) are a two's-complement weight.
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
    pub fn width(self) -> u32 {
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
            WeightField::Signed { width, bits } => (1..=width.min(8)).contains(&bits),
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
    pub(crate) fn pack_xnor(weights: &[i8], neurons: usize, in_len: usize) -> Option<WeightRows> {
        if in_len == 0 || weights.iter().any(|&v| v != 1 && v != -1) {
            return None;
        }
        let words: Arc<[u64]> = weights
            .chunks(in_len)
            .flat_map(netpu_arith::quant::pack_weight_channels)
            .collect();
        let len = words.len();
        WeightRows::new(words, 0..len, neurons, in_len, WeightField::Xnor)
    }

    /// Packs a row-major matrix of `bits`-bit weights (at most 8) into
    /// two's-complement 8-bit lanes, as a stream's `Lanes8` packing
    /// holds them. `None` for a zero fan-in or a matrix that is not
    /// `neurons × in_len`.
    pub(crate) fn pack_signed(
        weights: &[i8],
        neurons: usize,
        in_len: usize,
        bits: u32,
    ) -> Option<WeightRows> {
        if in_len == 0 {
            return None;
        }
        let words: Arc<[u64]> = weights
            .chunks(in_len)
            .flat_map(|row| row.chunks(8))
            .map(|lanes| {
                let mut word = [0; 8];
                word[..lanes.len()].copy_from_slice(lanes);
                u64::from_le_bytes(word.map(cast::lane_of_i8))
            })
            .collect();
        let len = words.len();
        let bits = bits.clamp(1, 8);
        WeightRows::new(
            words,
            0..len,
            neurons,
            in_len,
            WeightField::Signed { width: 8, bits },
        )
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
    pub fn weights(&self, n: usize) -> impl Iterator<Item = i8> + '_ {
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
                WeightField::Xnor | WeightField::Bipolar => 2 * i8::from(f & 1 == 1) - 1,
                WeightField::Signed { bits, .. } => {
                    let shift = 8 - bits;
                    cast::i8_from_lane(cast::lo8(f) << shift) >> shift
                }
            })
        });
        weights.take(self.in_len)
    }

    /// The first weight, in row order, outside `precision`'s range (±1
    /// when binary). Only a field wider than the precision can hold one:
    /// binary weights promoted to 8-bit lanes. Those are checked a word
    /// at a time, every used lane being `0x01` or `0xFF`, and only the
    /// first row with a bad lane is decoded.
    fn stray(&self, precision: Precision) -> Option<i32> {
        let WeightField::Signed { width, bits } = self.field else {
            return None;
        };
        if !precision.is_binary() && bits <= u32::from(precision.bits()) {
            return None;
        }
        let decode = |n| {
            let stray = self.weights(n).find(|&w| !weight_in_range(precision, w));
            stray.map(i32::from)
        };
        if !(precision.is_binary() && width == 8 && bits == 8) {
            return (0..self.neurons).find_map(decode);
        }
        // The lanes past the fan-in in a row's last word are masked.
        let tail = self.in_len % 8;
        let last = if tail == 0 {
            u64::MAX
        } else {
            (1 << (8 * tail)) - 1
        };
        let bad = |row: &[u64]| match row.split_last() {
            Some((&end, body)) => {
                body.iter().fold(0, |b, &w| b | bad_lanes(w)) | bad_lanes(end) & last
            }
            None => 0,
        };
        (0..self.neurons)
            .find(|&n| bad(self.row(n)) != 0)
            .and_then(decode)
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

/// The top bit of every byte of `word` that is neither `0x01` nor `0xFF`
/// (a ±1 weight in an 8-bit lane), clear elsewhere.
fn bad_lanes(word: u64) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    // The top bit of every zero byte of `x`, exactly.
    let zero = |x: u64| !(((x & LOW7) + LOW7) | x | LOW7);
    !(zero(word ^ 0x0101_0101_0101_0101) | zero(!word)) & !LOW7
}

/// `true` when a layer's MAC is fully binary: bipolar inputs × bipolar
/// weights, the combination the XNOR path accelerates.
pub(crate) fn binary_mac(weight_precision: Precision, in_precision: Precision) -> bool {
    weight_precision.is_binary() && in_precision.is_binary()
}

/// Collects bit `j` of every `width`-bit field of a word (`width` a
/// power of two up to 32) into the word's low bits: field `f`'s bit
/// lands at bit `f`.
struct Gather {
    width: u32,
    /// Bit 0 of every field.
    low: u64,
    /// `(shift, mask)` steps, each moving the bits kept in the upper
    /// half of every group next to those of the lower half, doubling
    /// the group.
    steps: Vec<(u32, u64)>,
}

impl Gather {
    fn new(width: u32) -> Gather {
        // The low `kept` bits of every `group`-bit group.
        let low_bits = |group: u32, kept: u32| {
            let ones = 1u64.checked_shl(group).map_or(1, |g| u64::MAX / (g - 1));
            ones * 1u64.checked_shl(kept).map_or(u64::MAX, |k| k - 1)
        };
        let mut steps = Vec::new();
        let (mut group, mut kept) = (width, 1);
        while group < 64 {
            steps.push((group - kept, low_bits(2 * group, 2 * kept)));
            group *= 2;
            kept *= 2;
        }
        Gather {
            width,
            low: low_bits(width, 1),
            steps,
        }
    }

    fn bit(&self, word: u64, j: u32) -> u64 {
        if self.width == 8 {
            return byte_bits(word, j);
        }
        self.steps
            .iter()
            .fold(word >> j & self.low, |x, &(shift, mask)| {
                (x | x >> shift) & mask
            })
    }
}

/// Bit `j` of each byte of `word`, byte `b`'s at bit `b`: a multiply
/// lines the eight up in the top byte.
fn byte_bits(word: u64, j: u32) -> u64 {
    (word >> j & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// An integer-path layer's weights as bit planes of unsigned codes
/// `u`, each weight being `scale · u + offset`:
///
/// * `p`-bit weights: `u = w + 2^(p−1)`, the two's-complement bits with
///   the sign bit inverted; `p` planes, scale 1, offset `−2^(p−1)`.
/// * ±1 weights (binary weights on the integer path): `u` is 1 for +1;
///   one plane, scale 2, offset −1.
///
/// Bit `i % 64` of word `i / 64` of a neuron's plane `j` is bit `j` of
/// its weight `i`'s code. Bits past the fan-in are never counted: the
/// input planes are clear there.
struct WeightPlanes {
    /// Word `t` of neuron `n`'s plane `j` is `bits[(n · words + t) ·
    /// planes + j]`: a row's planes interleaved word by word, as the
    /// dot reads them.
    bits: Box<[u64]>,
    /// Planes per weight.
    planes: usize,
    /// Words per plane.
    words: usize,
    /// Fan-in of every row.
    in_len: usize,
    /// Bits of the layer's unsigned input levels: one input plane each.
    in_bits: usize,
    /// `w = scale · u + offset`.
    scale: i64,
    /// See `scale`.
    offset: i64,
}

impl WeightPlanes {
    /// `rows`' weights, of precision `wp`, as planes read from the low
    /// bits of each field (placeholder and padding bits are never
    /// read). `None` for an XNOR-path layer, for binary (±1) inputs,
    /// for fields narrower than `wp`, past the [`MAX_PLANE_PAIRS`]
    /// cutover, or when `in_len · max|w| · max|a|` can leave the `i32`
    /// range: there no prefix bound holds and only the clamped walk is
    /// exact. The weights must lie in `wp`'s range, as validation
    /// ensures.
    fn new(rows: &WeightRows, wp: Precision, ip: Precision) -> Option<WeightPlanes> {
        if ip.is_binary() {
            return None;
        }
        let in_bits = u32::from(ip.bits());
        // The code planes as (field bit, inverted), and the affine map.
        let (width, code, scale, offset): (u32, Vec<(u32, bool)>, i64, i64) =
            match (rows.field, wp.is_binary()) {
                (WeightField::Bipolar, true) => (1, vec![(0, false)], 2, -1),
                (WeightField::Signed { width, bits }, true) if bits >= 2 => {
                    (width, vec![(bits - 1, true)], 2, -1)
                }
                (WeightField::Signed { width, bits }, false) if bits >= u32::from(wp.bits()) => {
                    let p = u32::from(wp.bits());
                    let code = (0..p).map(|j| (j, j == p - 1)).collect();
                    (width, code, 1, -(1 << (p - 1)))
                }
                _ => return None,
            };
        let max_weight = if wp.is_binary() {
            1
        } else {
            1 << (wp.bits() - 1)
        };
        let bound = cast::u64_from_usize(rows.in_len)
            .saturating_mul(max_weight)
            .saturating_mul((1 << in_bits) - 1);
        let planes = code.len();
        if planes * cast::usize_from_u32(in_bits) > MAX_PLANE_PAIRS
            || bound > u64::from(i32::MAX.unsigned_abs())
        {
            return None;
        }
        let words = rows.in_len.div_ceil(64);
        // 64 weights span `width` field words, `64 / width` fields each.
        let (span, per) = (cast::usize_from_u32(width), 64 / width);
        let gather = Gather::new(width);
        let mut bits = vec![0u64; rows.neurons * words * planes];
        for (n, out) in bits.chunks_exact_mut(words * planes).enumerate() {
            for (fields, out) in rows.row(n).chunks(span).zip(out.chunks_exact_mut(planes)) {
                for (&(j, inverted), word) in code.iter().zip(out) {
                    let u = fields
                        .iter()
                        .zip(0..)
                        .fold(0, |u, (&f, q)| u | gather.bit(f, j) << (q * per));
                    *word = if inverted { !u } else { u };
                }
            }
        }
        Some(WeightPlanes {
            bits: bits.into(),
            planes,
            words,
            in_len: rows.in_len,
            in_bits: cast::usize_from_u32(in_bits),
            scale,
            offset,
        })
    }

    /// `levels` (the first `in_len`) as `in_bits` planes, interleaved
    /// word by word as the weight planes are: word `t` of plane `l` at
    /// `t · in_bits + l`, holding bit `l` of levels `64t..64t+63`.
    /// `None` when a level is not an unsigned `in_bits`-bit value, which
    /// the layer's bound does not cover.
    fn input_planes(&self, levels: &[i32]) -> Option<Vec<u64>> {
        let levels = levels.get(..self.in_len).unwrap_or(levels);
        let limit = 1 << self.in_bits;
        if !levels
            .iter()
            .fold(true, |ok, a| ok & (0..limit).contains(a))
        {
            return None;
        }
        let mut planes = vec![0u64; self.words * self.in_bits];
        for (chunk, out) in levels.chunks(64).zip(planes.chunks_exact_mut(self.in_bits)) {
            // Eight levels a byte each, then one bit of all eight per
            // plane.
            for (eight, q) in chunk.chunks(8).zip(0..) {
                let bytes = eight.iter().zip(0..).fold(0u64, |w, (&a, i)| {
                    w | u64::from(cast::bits_of_i32(a)) << (8 * i)
                });
                for (word, l) in out.iter_mut().zip(0..) {
                    *word |= byte_bits(bytes, l) << (8 * q);
                }
            }
        }
        Some(planes)
    }

    /// Every neuron's `Σ wᵢ·aᵢ` against `input` ([`Self::input_planes`]):
    /// `scale · Σⱼ Σₗ 2^(j+l) · popcount(Uⱼ & Aₗ) + offset · Σ aᵢ`. The
    /// layer's bound keeps every partial sum of the products inside
    /// `i32`, so the ACCU would never have clamped and the sum is exact.
    fn dots(&self, input: &[u64]) -> Vec<i32> {
        // A fixed plane count keeps a row's counters in registers; the
        // zoo's pairs (W2A2, and ±1 weights on 2-bit inputs) get one
        // loop each.
        match (self.planes, self.in_bits) {
            (1, 2) => self.dots_with(input, plane_ones::<1, 2>),
            (2, 2) => self.dots_with(input, plane_ones::<2, 2>),
            (planes, in_bits) => self.dots_with(input, |row, input| {
                any_plane_ones(row, input, planes, in_bits)
            }),
        }
    }

    /// [`Self::dots`] with `ones` giving a row's `Σⱼ Σₗ 2^(j+l) ·
    /// popcount(Uⱼ & Aₗ)`.
    fn dots_with(&self, input: &[u64], ones: impl Fn(&[u64], &[u64]) -> i64) -> Vec<i32> {
        let sum_a: i64 = input
            .iter()
            .zip((0..self.in_bits).cycle())
            .map(|(&a, l)| i64::from(a.count_ones()) << l)
            .sum();
        self.bits
            .chunks_exact(self.words * self.planes)
            .map(|row| cast::i32_sat(self.scale * ones(row, input) + self.offset * sum_a))
            .collect()
    }

    /// Heap bytes of the planes.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.bits)
    }
}

/// `Σⱼ Σₗ 2^(j+l) · popcount(Uⱼ & Aₗ)` of a row of `P` interleaved
/// weight planes against `K` interleaved input planes.
fn plane_ones<const P: usize, const K: usize>(row: &[u64], input: &[u64]) -> i64 {
    let mut counts = [[0u32; K]; P];
    for (u, a) in row.as_chunks::<P>().0.iter().zip(input.as_chunks::<K>().0) {
        for (c, &u) in counts.iter_mut().zip(u) {
            for (c, &a) in c.iter_mut().zip(a) {
                *c += (u & a).count_ones();
            }
        }
    }
    weigh(counts.iter().map(|c| c.as_slice()))
}

/// [`plane_ones`] for any `planes × in_bits` within [`MAX_PLANE_PAIRS`].
fn any_plane_ones(row: &[u64], input: &[u64], planes: usize, in_bits: usize) -> i64 {
    let mut counts = [0u32; MAX_PLANE_PAIRS];
    for (u, a) in row.chunks_exact(planes).zip(input.chunks_exact(in_bits)) {
        for (c, &u) in counts.chunks_exact_mut(in_bits).zip(u) {
            for (c, &a) in c.iter_mut().zip(a) {
                *c += (u & a).count_ones();
            }
        }
    }
    weigh(counts.chunks_exact(in_bits).take(planes))
}

/// `Σⱼ Σₗ 2^(j+l) · counts[j][l]`.
fn weigh<'c>(counts: impl Iterator<Item = &'c [u32]>) -> i64 {
    counts
        .zip(0..)
        .flat_map(|(c, j)| c.iter().zip(j..))
        .map(|(&c, shift)| i64::from(c) << shift)
        .sum()
}

/// One FC layer's weights as the walk reads them.
struct FcWeights {
    /// The weight fields; `None` only for a zero fan-in, where every
    /// dot product is empty.
    rows: Option<WeightRows>,
    /// The bit planes, when the layer runs bit-serial.
    planes: Option<WeightPlanes>,
}

impl FcWeights {
    /// Every neuron's accumulator against the previous layer's `levels`,
    /// then `bias`: the plane dot where it covers the layer and the
    /// levels, the field walk otherwise.
    fn accumulators(
        &self,
        levels: &[i32],
        in_precision: Precision,
        neurons: usize,
        bias: Option<&[i32]>,
    ) -> Vec<i32> {
        let planes = self
            .planes
            .as_ref()
            .and_then(|p| Some(p.dots(&p.input_planes(levels)?)));
        let mut accs = planes.unwrap_or_else(|| match &self.rows {
            Some(rows) => rows.dots(&to_mac_domain(levels, in_precision)),
            None => vec![0; neurons],
        });
        for (acc, &b) in accs.iter_mut().zip(bias.unwrap_or_default()) {
            *acc = accumulate(*acc, i64::from(b));
        }
        accs
    }
}

/// A [`QuantMlp`] prepared for repeated inference.
///
/// Every FC layer reads its weights from [`WeightRows`], and an
/// integer-path layer within the [`MAX_PLANE_PAIRS`] cutover from bit
/// planes built from them. [`PackedMlp::new`] packs a borrowed model's
/// `i8` weights once: fully binary layers as XNOR rows, the others as
/// two's-complement fields. [`PackedMlp::from_words`] owns a model
/// without weights and reads every layer from words it shares,
/// typically an admitted stream. Both build the same planes.
pub struct PackedMlp<'a> {
    mlp: Cow<'a, QuantMlp>,
    /// Per FC layer (hidden layers, then the output layer).
    layers: Vec<FcWeights>,
}

/// `(weight precision, input precision, weights, neurons, fan-in)` of
/// every FC layer: hidden layers, then the output layer.
fn fc_layers(
    mlp: &QuantMlp,
) -> impl Iterator<Item = (Precision, Precision, &[i8], usize, usize)> + '_ {
    mlp.hidden
        .iter()
        .map(|l| {
            (
                l.weight_precision,
                l.in_precision,
                l.weights.as_slice(),
                l.neurons,
                l.in_len,
            )
        })
        .chain(std::iter::once((
            mlp.output.weight_precision,
            mlp.output.in_precision,
            mlp.output.weights.as_slice(),
            mlp.output.neurons,
            mlp.output.in_len,
        )))
}

impl<'a> PackedMlp<'a> {
    /// Packs every FC layer of `mlp` once. The model must be valid
    /// ([`QuantMlp::validate`]): each integer-path weight is packed in
    /// its precision's bits (±1 in two), so one outside that range is
    /// truncated.
    pub fn new(mlp: &'a QuantMlp) -> PackedMlp<'a> {
        let layers = fc_layers(mlp)
            .map(|(wp, ip, weights, neurons, in_len)| {
                let bits = u32::from(wp.bits()).max(2);
                let rows = binary_mac(wp, ip)
                    .then(|| WeightRows::pack_xnor(weights, neurons, in_len))
                    .flatten()
                    .or_else(|| WeightRows::pack_signed(weights, neurons, in_len, bits));
                let planes = rows.as_ref().and_then(|r| WeightPlanes::new(r, wp, ip));
                FcWeights { rows, planes }
            })
            .collect();
        PackedMlp {
            mlp: Cow::Borrowed(mlp),
            layers,
        }
    }

    /// Input pixels per inference.
    pub fn input_len(&self) -> usize {
        self.mlp.input.len
    }

    /// The model the kernel runs. Under [`PackedMlp::from_words`] its
    /// FC layers carry no `i8` weights: they are in
    /// [`weight_rows`](Self::weight_rows).
    pub fn model(&self) -> &QuantMlp {
        &self.mlp
    }

    /// FC layer `k`'s weight rows (hidden layers, then the output
    /// layer).
    pub fn weight_rows(&self, k: usize) -> Option<&WeightRows> {
        self.layers.get(k)?.rows.as_ref()
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
        (class, scores.get(class).copied().unwrap_or_default())
    }

    /// Heap bytes the kernel holds besides its weight words: an owned
    /// model's parameters (thresholds, biases, BN) and `i8` weights,
    /// the per-layer descriptors, and the bit planes. Words shared with
    /// a stream are that stream's.
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
        let planes: usize = self
            .layers
            .iter()
            .filter_map(|l| l.planes.as_ref())
            .map(WeightPlanes::heap_bytes)
            .sum();
        owned + std::mem::size_of_val(self.layers.as_slice()) + planes
    }

    /// The layer walk: hands the input-layer levels and then each
    /// hidden layer's levels to `observe`, returns the output scores.
    fn walk(&self, pixels: &[u8], mut observe: impl FnMut(&[i32])) -> Vec<Fix> {
        let mut cur = run_input_layer(&self.mlp, pixels);
        observe(&cur);
        let Some((output, hidden)) = self.layers.split_last() else {
            return Vec::new();
        };
        for (layer, fc) in self.mlp.hidden.iter().zip(hidden) {
            let accs = fc.accumulators(
                &cur,
                layer.in_precision,
                layer.neurons,
                layer.bias.as_deref(),
            );
            cur = accs
                .into_iter()
                .enumerate()
                .map(|(n, acc)| {
                    let bn = layer.bn.as_ref().and_then(|p| p.get(n).copied());
                    neuron_post(&layer.activation, bn, n, acc, layer.out_precision)
                })
                .collect();
            observe(&cur);
        }
        let o = &self.mlp.output;
        output
            .accumulators(&cur, o.in_precision, o.neurons, o.bias.as_deref())
            .into_iter()
            .enumerate()
            .map(|(n, acc)| {
                let v = Fix::from_i32(acc);
                o.bn.as_ref()
                    .and_then(|p| p.get(n))
                    .map_or(v, |p| p.apply(v))
            })
            .collect()
    }
}

impl PackedMlp<'static> {
    /// Takes ownership of a model whose FC layers carry no `i32`
    /// weights, with one [`WeightRows`] per FC layer (hidden layers,
    /// then the output layer) holding them: an XNOR-path layer's rows
    /// in [`WeightField::Xnor`], any other layer's in an integer-path
    /// field. This is how a NetPU-M stream's weight sections already
    /// lay them out, so the kernel reads them in place; only the bit
    /// planes of the layers that run bit-serial are built here.
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
        let shapes: Vec<(usize, usize, Precision, Precision)> = fc_layers(&mlp)
            .map(|(wp, ip, _, neurons, in_len)| (neurons, in_len, wp, ip))
            .collect();
        if rows.len() != shapes.len() {
            let layer = rows.len().min(shapes.len()) + 1;
            return Err(ModelError::WeightShape { layer });
        }
        for (k, (&(neurons, in_len, wp, ip), r)) in shapes.iter().zip(&rows).enumerate() {
            let xnor = binary_mac(wp, ip);
            if r.neurons != neurons || r.in_len != in_len || (r.field == WeightField::Xnor) != xnor
            {
                return Err(ModelError::WeightShape { layer: k + 1 });
            }
        }
        let layers = rows
            .into_iter()
            .zip(shapes)
            .map(|(r, (.., wp, ip))| FcWeights {
                planes: WeightPlanes::new(&r, wp, ip),
                rows: Some(r),
            })
            .collect();
        Ok(PackedMlp {
            mlp: Cow::Owned(mlp),
            layers,
        })
    }
}

/// Heap bytes of one activation's parameters.
fn activation_bytes(act: &LayerActivation) -> usize {
    match act {
        LayerActivation::Sign { thresholds } | LayerActivation::MultiThreshold { thresholds } => {
            std::mem::size_of_val(thresholds.as_slice())
        }
        LayerActivation::Relu { .. }
        | LayerActivation::Sigmoid { .. }
        | LayerActivation::Tanh { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{infer_traced, neuron_accumulate};
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
    fn packed_mlp_runs_multibit_layers_bit_serial() {
        // Every TfcW2A2 layer is W2A2: two weight planes against two
        // input planes, with the same planes as the stream's kernel.
        let m = ZooModel::TfcW2A2
            .build_untrained(9, crate::export::BnMode::Hardware)
            .unwrap();
        let packed = PackedMlp::new(&m);
        let (stripped, rows) = split(&m, 0);
        let kernel = PackedMlp::from_words(stripped, rows).unwrap();
        for (a, b) in packed.layers.iter().zip(&kernel.layers) {
            let (a, b) = (a.planes.as_ref().unwrap(), b.planes.as_ref().unwrap());
            assert_eq!((a.planes, a.in_bits, a.scale, a.offset), (2, 2, 1, -2));
            assert_eq!(a.bits, b.bits);
        }
        let px: Vec<u8> = (0..784).map(|i| (i % 253) as u8).collect();
        assert_eq!(packed.infer_traced(&px), infer_traced(&m, &px));
    }

    #[test]
    fn the_plane_dot_matches_neuron_accumulate_up_to_the_cutover() {
        // Every weight × input width pair inside the cutover, fan-ins
        // straddling the 64-bit plane words, weights and levels at the
        // ends of their ranges.
        for (w_bits, a_bits) in [(1u8, 2u8), (2, 2), (2, 4), (4, 4), (8, 2), (2, 8), (1, 8)] {
            for in_len in [1usize, 63, 64, 65, 130] {
                let wp = Precision::new(w_bits.max(2)).unwrap();
                let weights: Vec<i8> = (0..3 * in_len)
                    .map(|i| match i % 5 {
                        0 => wp.signed_min(),
                        1 => wp.signed_max(),
                        k => (k as i32 * 7 + i as i32) % (wp.signed_max() + 1),
                    })
                    .map(|w| if w_bits == 1 { 2 * (w & 1) - 1 } else { w } as i8)
                    .collect();
                let top = (1i32 << a_bits) - 1;
                let levels: Vec<i32> = (0..in_len).map(|i| (i as i32 * 5) % (top + 1)).collect();
                let rows = WeightRows::pack_signed(&weights, 3, in_len, wp.bits().into()).unwrap();
                let wp = if w_bits == 1 { Precision::W1 } else { wp };
                let planes = WeightPlanes::new(&rows, wp, Precision::new(a_bits).unwrap())
                    .expect("inside the cutover");
                assert!(planes.planes * planes.in_bits <= MAX_PLANE_PAIRS);
                assert_eq!(planes.planes, if w_bits == 1 { 1 } else { w_bits as usize });
                let want: Vec<i32> = weights
                    .chunks(in_len)
                    .map(|w| neuron_accumulate(w, &levels, None))
                    .collect();
                let got = planes.dots(&planes.input_planes(&levels).unwrap());
                assert_eq!(got, want, "w{w_bits}a{a_bits} in_len {in_len}");
            }
        }
        // Past the cutover: W8A8 keeps the field walk.
        let rows = WeightRows::pack_signed(&[-128, 127], 1, 2, 8).unwrap();
        assert!(WeightPlanes::new(&rows, Precision::W8, Precision::W8).is_none());
    }

    #[test]
    fn levels_outside_the_planes_take_the_clamped_walk() {
        // A W2A2 layer runs bit-serial on 2-bit levels. Fed levels whose
        // products overflow i32 instead, the planes refuse them and the
        // field walk clamps every step as `neuron_accumulate` does.
        let weights = [1i8, 1, -2, -2];
        let rows = WeightRows::pack_signed(&weights, 1, 4, 2).unwrap();
        let fc = FcWeights {
            planes: WeightPlanes::new(&rows, Precision::W2, Precision::W2),
            rows: Some(rows),
        };
        assert!(fc.planes.is_some());
        let levels = [i32::MAX, i32::MAX, 1, 1];
        let want = neuron_accumulate(&weights, &levels, Some(-3));
        assert_eq!(
            fc.accumulators(&levels, Precision::W2, 1, Some(&[-3])),
            vec![want]
        );
        assert_eq!(want, i32::MAX - 7);
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
        let weights = [127i8, 127, -128, -128];
        let inputs = [i32::MAX / 200, i32::MAX / 200, 1, 1];
        let words: Arc<[u64]> = vec![weights.iter().enumerate().fold(0u64, |w, (i, &v)| {
            w | u64::from(cast::lane_of_i8(v)) << (8 * i)
        })]
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
        // A model that still carries its i8 weights.
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
    fn a_bad_promoted_lane_is_reported_as_validate_reports_it() {
        // ±1 weights promoted to 8-bit lanes (W1A2), fan-in 13: two
        // words a row, the second with five used lanes and three of
        // padding.
        let (neurons, in_len) = (5, 13);
        let mut m = crate::qmodel::tests::tiny_model();
        let mt = m.input.activation.threshold_row(0, Precision::W2).to_vec();
        m.input.len = in_len;
        m.input.activation = LayerActivation::MultiThreshold {
            thresholds: mt.repeat(in_len),
        };
        let h = &mut m.hidden[0];
        (h.in_len, h.neurons, h.weight_precision) = (in_len, neurons, Precision::W1);
        h.weights = (0..neurons * in_len)
            .map(|i| if i % 3 == 0 { 1 } else { -1 })
            .collect();
        h.bias = Some(vec![0; neurons]);
        h.activation = LayerActivation::MultiThreshold {
            thresholds: [-1, 0, 1].map(Fix::from_i32).repeat(neurons),
        };
        m.output.in_len = neurons;
        m.output.weights = vec![1, -1, 0, 1, -2, 0, 1, 1, -1, 0];
        m.validate().unwrap();
        let lanes = WeightRows::pack_signed(&m.hidden[0].weights, neurons, in_len, 8).unwrap();
        assert_eq!(lanes.field, WeightField::Signed { width: 8, bits: 8 });
        let output = WeightRows::pack_signed(&m.output.weights, 2, neurons, 2).unwrap();
        let mut stripped = m.clone();
        stripped.hidden[0].weights.clear();
        stripped.output.weights.clear();
        // The kernel over `lanes` with `(row, weight, byte)` written in;
        // weight 13..16 of a row are its padding lanes.
        let kernel = |pokes: &[(usize, usize, u8)]| {
            let mut words = lanes.words.to_vec();
            for &(row, i, byte) in pokes {
                let (word, shift) = (&mut words[row * 2 + i / 8], 8 * (i % 8));
                *word = *word & !(0xFF << shift) | u64::from(byte) << shift;
            }
            let rows = WeightRows::new(words.into(), 0..10, neurons, in_len, lanes.field).unwrap();
            let mut decoded = m.clone();
            decoded.hidden[0].weights = (0..neurons).flat_map(|n| rows.weights(n)).collect();
            let got = PackedMlp::from_words(stripped.clone(), vec![rows, output.clone()]);
            (got.err(), decoded.validate().err())
        };
        // First, middle and last-row-tail lanes.
        for (byte, value) in [(0x00, 0), (0x03, 3), (0x7F, 127), (0x80, -128)] {
            for (row, i) in [(0, 0), (2, 9), (neurons - 1, in_len - 1)] {
                let (got, want) = kernel(&[(row, i, byte)]);
                assert_eq!(got, want, "byte {byte:#04x} at row {row} weight {i}");
                assert_eq!(got, Some(ModelError::WeightRange { layer: 1, value }));
            }
        }
        // Two bad lanes: the first in row order is reported.
        let (got, want) = kernel(&[(3, 1, 0x00), (1, 12, 0x7F)]);
        assert_eq!(got, want);
        assert_eq!(
            got,
            Some(ModelError::WeightRange {
                layer: 1,
                value: 127
            })
        );
        // Padding lanes past the fan-in are never read.
        let padding = [(0, 13, 0x03), (neurons - 1, 15, 0x80), (2, 14, 0x00)];
        assert_eq!(kernel(&padding), (None, None));
    }

    #[test]
    fn bad_lanes_flags_every_byte_but_plus_and_minus_one() {
        for b in 0..=255u8 {
            let word = u64::from_le_bytes([0x01, 0xFF, b, 0x01, 0xFF, 0xFF, b, 0x01]);
            let want = if b == 0x01 || b == 0xFF {
                0
            } else {
                0x80 << 16 | 0x80 << 48
            };
            assert_eq!(bad_lanes(word), want, "{b:#04x}");
        }
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
            let weights: Vec<i8> = (0..in_len)
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
        let planes: usize = kernel
            .layers
            .iter()
            .map(|l| l.planes.as_ref().unwrap().heap_bytes())
            .sum();
        let parameters = kernel.heap_bytes() - planes;
        // Thresholds (one flat array per layer), biases and descriptors;
        // then at most two planes per weight of the 64-bit padded rows.
        assert!(parameters <= 25 * 1024, "{parameters}");
        let padded: usize = kernel
            .layers
            .iter()
            .map(|l| l.rows.as_ref().unwrap())
            .map(|r| r.neurons() * r.in_len().div_ceil(64) * 64)
            .sum();
        assert!(planes <= 2 * padded / 8 && planes <= 16 * 1024, "{planes}");
        assert!(kernel.heap_bytes() <= 41 * 1024);
        // Less than the 8-bit lanes the kernel reads the weights from.
        assert!(
            kernel.heap_bytes() < weight_bytes,
            "{}",
            kernel.heap_bytes()
        );
    }
}
