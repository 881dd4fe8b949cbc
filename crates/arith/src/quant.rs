//! Integer quantization and stream-lane packing.
//!
//! Two distinct mechanisms live here:
//!
//! * [`QuantParams`] — the QUAN submodule's affine re-quantization of a
//!   37-bit fixed-point activation output down to the next layer's input
//!   precision (§III.B.1: *QUAN Scale* and *QUAN Offset*, 32 bits each).
//! * Lane packing — how quantized operands travel on the 64-bit data
//!   stream: one 8-bit lane per operand for 2–8-bit precision (upper bits
//!   are ignored placeholders, §V), or eight 1-bit channels per lane for
//!   binary data (§III.B.1).

use crate::cast;
use crate::fixed::Fix;
use crate::precision::Precision;
use serde::{Deserialize, Serialize};

/// Clamps `v` into the unsigned range of `p` (`0 ..= 2^bits − 1`).
#[inline]
pub fn clamp_unsigned(v: i64, p: Precision) -> i32 {
    cast::i32_sat(v.clamp(0, i64::from(p.unsigned_max())))
}

/// Clamps `v` into the signed range of `p`. For 1-bit this is the bipolar
/// set `{−1, +1}`: zero clamps to +1, matching the Sign activation's
/// `≥ 0 → 1` convention.
#[inline]
pub fn clamp_signed(v: i64, p: Precision) -> i32 {
    if p.is_binary() {
        if v >= 0 {
            1
        } else {
            -1
        }
    } else {
        cast::i32_sat(v.clamp(i64::from(p.signed_min()), i64::from(p.signed_max())))
    }
}

/// Affine re-quantization parameters for the QUAN submodule.
///
/// The hardware computes `q = clamp(floor(x·scale + offset), 0, 2^O − 1)`
/// where `x` is the 37-bit activation output, `scale`/`offset` are 32-bit
/// fixed-point parameter words, and `O` is the next layer's input
/// precision. The floor is the hardware's truncation of fraction bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct QuantParams {
    /// Multiplicative rescale factor.
    pub scale: Fix,
    /// Additive zero-point offset, applied after scaling.
    pub offset: Fix,
}

impl QuantParams {
    /// Identity parameters (`scale = 1`, `offset = 0`).
    pub const IDENTITY: QuantParams = QuantParams {
        scale: Fix::ONE,
        offset: Fix::ZERO,
    };

    /// Creates parameters from host-side floats, rounding into the 32-bit
    /// fixed-point parameter format (so the result is exactly what the
    /// hardware will apply).
    pub fn from_f64(scale: f64, offset: f64) -> QuantParams {
        QuantParams {
            scale: Fix::from_stream_word(Fix::from_f64(scale).to_stream_word()),
            offset: Fix::from_stream_word(Fix::from_f64(offset).to_stream_word()),
        }
    }

    /// Applies the quantization to a fixed-point value, producing an
    /// unsigned integer at `out` precision.
    #[inline]
    pub fn apply(&self, x: Fix, out: Precision) -> i32 {
        let scaled = x.sat_mul(self.scale).sat_add(self.offset);
        clamp_unsigned(scaled.floor_i64(), out)
    }
}

/// Number of 8-bit lanes in one 64-bit stream word.
pub const LANES_PER_WORD: usize = 8;

/// Packs signed operands into 64-bit stream words, one 8-bit
/// two's-complement lane per operand regardless of precision (2–8 bits).
/// The hardware ignores the placeholder bits above `p.bits()`; we encode
/// the full sign-extended byte so the words are also human-debuggable.
pub fn pack_signed_lanes(values: &[i32], p: Precision) -> Vec<u64> {
    assert!(!p.is_binary(), "1-bit data uses pack_binary_channels");
    values
        .chunks(LANES_PER_WORD)
        .map(|chunk| {
            let mut word = 0u64;
            for (i, &v) in chunk.iter().enumerate() {
                debug_assert!(
                    v >= p.signed_min() && v <= p.signed_max(),
                    "value {v} out of {p} signed range"
                );
                word |= u64::from(cast::lane_of_i32(v)) << (8 * i);
            }
            word
        })
        .collect()
}

/// Packs unsigned operands into 64-bit stream words, one 8-bit lane each.
pub fn pack_unsigned_lanes(values: &[i32], p: Precision) -> Vec<u64> {
    assert!(!p.is_binary(), "1-bit data uses pack_binary_channels");
    values
        .chunks(LANES_PER_WORD)
        .map(|chunk| {
            let mut word = 0u64;
            for (i, &v) in chunk.iter().enumerate() {
                debug_assert!(
                    v >= 0 && v <= p.unsigned_max(),
                    "value {v} out of {p} unsigned range"
                );
                word |= u64::from(cast::lane_of_i32(v)) << (8 * i);
            }
            word
        })
        .collect()
}

/// Packs bipolar ±1 operands as 1-bit channels, 64 per stream word. This
/// is the 8×-denser binary encoding that makes BNN layers stream faster
/// (Table V's Sign rows vs Multi-Threshold rows).
pub fn pack_binary_channels(values: &[i32]) -> Vec<u64> {
    values
        .chunks(64)
        .map(|chunk| {
            let mut word = 0u64;
            for (i, &v) in chunk.iter().enumerate() {
                word |= u64::from(crate::binary::encode_bipolar(v)) << i;
            }
            word
        })
        .collect()
}

/// Eight `i8` weights' [`crate::binary::encode_bipolar`] bits from one
/// 64-bit read: bit `i` of the result is set when `g[i]` is positive.
#[inline]
pub fn positive_bits(g: [i8; 8]) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let x = u64::from_le_bytes(g.map(cast::lane_of_i8));
    // A byte's top bit: its low seven bits are not all clear, and its
    // sign bit is. Then a multiply gathers each byte's top bit.
    let positive = ((x & LOW7) + LOW7) & !x & !LOW7;
    (positive >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// [`pack_binary_channels`] over `i8` weights, eight at a time.
pub fn pack_weight_channels(weights: &[i8]) -> Vec<u64> {
    weights
        .chunks(64)
        .map(|chunk| {
            chunk.chunks(8).zip(0..).fold(0, |word, (g, i)| {
                let mut eight = [0; 8];
                eight[..g.len()].copy_from_slice(g);
                word | positive_bits(eight) << (8 * i)
            })
        })
        .collect()
}

/// Extracts lane `i` of a stream word as a sign-extended value at
/// precision `p` (the hardware masks away placeholder bits then
/// sign-extends from bit `p.bits()−1`).
#[inline]
pub fn extract_signed_lane(word: u64, i: usize, p: Precision) -> i32 {
    debug_assert!(i < LANES_PER_WORD && !p.is_binary());
    let byte = cast::lo8(word >> (8 * i));
    let bits = u32::from(p.bits());
    let masked = u32::from(byte) & ((1u32 << bits) - 1);
    // Sign-extend from the precision's top bit.
    cast::sign_extend(masked, bits)
}

/// Extracts lane `i` of a stream word as an unsigned value at precision
/// `p` (placeholder bits masked away).
#[inline]
pub fn extract_unsigned_lane(word: u64, i: usize, p: Precision) -> i32 {
    debug_assert!(i < LANES_PER_WORD && !p.is_binary());
    let byte = cast::lo8(word >> (8 * i));
    let mask = cast::u8_sat((1u64 << p.bits()) - 1);
    i32::from(byte & mask)
}

/// Extracts binary channel `i` (0..64) of a stream word as a bipolar ±1.
#[inline]
pub fn extract_binary_channel(word: u64, i: usize) -> i32 {
    debug_assert!(i < 64);
    crate::binary::decode_bipolar(cast::lo8(word >> i))
}

/// Number of 64-bit stream words needed to carry `n` operands at
/// precision `p`: 8 lanes per word for 2–8-bit data, 64 channels per word
/// for 1-bit data.
#[inline]
pub fn words_for(n: usize, p: Precision) -> usize {
    if p.is_binary() {
        n.div_ceil(64)
    } else {
        n.div_ceil(LANES_PER_WORD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_unsigned_saturates_by_precision() {
        assert_eq!(clamp_unsigned(300, Precision::W8), 255);
        assert_eq!(clamp_unsigned(-5, Precision::W8), 0);
        assert_eq!(clamp_unsigned(3, Precision::W2), 3);
        assert_eq!(clamp_unsigned(4, Precision::W2), 3);
    }

    #[test]
    fn weight_channels_match_the_i32_packing() {
        let all: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        for len in [1, 7, 8, 63, 64, 65, all.len()] {
            let wide: Vec<i32> = all[..len].iter().map(|&v| i32::from(v)).collect();
            assert_eq!(
                pack_weight_channels(&all[..len]),
                pack_binary_channels(&wide)
            );
        }
    }

    #[test]
    fn clamp_signed_is_bipolar_for_one_bit() {
        assert_eq!(clamp_signed(0, Precision::W1), 1);
        assert_eq!(clamp_signed(-7, Precision::W1), -1);
        assert_eq!(clamp_signed(-7, Precision::W2), -2);
        assert_eq!(clamp_signed(130, Precision::W8), 127);
    }

    #[test]
    fn quant_params_apply_floor_and_clamp() {
        let q = QuantParams::from_f64(0.5, 0.0);
        assert_eq!(q.apply(Fix::from_f64(5.0), Precision::W8), 2);
        assert_eq!(q.apply(Fix::from_f64(5.9), Precision::W8), 2); // floor(2.95)
        assert_eq!(q.apply(Fix::from_f64(-3.0), Precision::W8), 0);
        assert_eq!(q.apply(Fix::from_f64(1e6), Precision::W2), 3);
    }

    #[test]
    fn quant_identity_truncates_fraction() {
        let q = QuantParams::IDENTITY;
        assert_eq!(q.apply(Fix::from_f64(3.96875), Precision::W8), 3);
    }

    #[test]
    fn signed_lane_roundtrip_all_precisions() {
        for p in Precision::all().filter(|p| !p.is_binary()) {
            let vals: Vec<i32> = (p.signed_min()..=p.signed_max()).collect();
            let words = pack_signed_lanes(&vals, p);
            for (n, &v) in vals.iter().enumerate() {
                let w = words[n / LANES_PER_WORD];
                assert_eq!(extract_signed_lane(w, n % LANES_PER_WORD, p), v, "{p}");
            }
        }
    }

    #[test]
    fn unsigned_lane_roundtrip_all_precisions() {
        for p in Precision::all().filter(|p| !p.is_binary()) {
            let vals: Vec<i32> = (0..=p.unsigned_max()).collect();
            let words = pack_unsigned_lanes(&vals, p);
            for (n, &v) in vals.iter().enumerate() {
                let w = words[n / LANES_PER_WORD];
                assert_eq!(extract_unsigned_lane(w, n % LANES_PER_WORD, p), v, "{p}");
            }
        }
    }

    #[test]
    fn binary_channel_roundtrip() {
        let vals: Vec<i32> = (0..100).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect();
        let words = pack_binary_channels(&vals);
        assert_eq!(words.len(), 2);
        for (n, &v) in vals.iter().enumerate() {
            assert_eq!(extract_binary_channel(words[n / 64], n % 64), v);
        }
    }

    #[test]
    fn placeholder_bits_are_ignored_on_extract() {
        // Write garbage into the placeholder bits of a 2-bit lane; the
        // extractor must mask it away.
        let word = 0b1111_1101u64; // lane 0 byte = 0xFD; low 2 bits = 0b01
        assert_eq!(extract_unsigned_lane(word, 0, Precision::W2), 1);
        assert_eq!(extract_signed_lane(word, 0, Precision::W2), 1);
        let word2 = 0b1111_1110u64; // low 2 bits = 0b10 → signed -2
        assert_eq!(extract_signed_lane(word2, 0, Precision::W2), -2);
        assert_eq!(extract_unsigned_lane(word2, 0, Precision::W2), 2);
    }

    #[test]
    fn word_counts_reflect_binary_packing_density() {
        assert_eq!(words_for(784, Precision::W8), 98);
        assert_eq!(words_for(784, Precision::W2), 98); // placeholders: same words
        assert_eq!(words_for(784, Precision::W1), 13); // 8x denser
        assert_eq!(words_for(0, Precision::W8), 0);
        assert_eq!(words_for(1, Precision::W1), 1);
    }
}
