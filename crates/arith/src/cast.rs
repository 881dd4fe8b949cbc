//! Audited numeric conversions.
//!
//! The workspace lint (`cargo run -p xtask -- lint`) bans bare `as`
//! numeric casts in `netpu-arith` and `netpu-core`: a silent `as` can
//! wrap, truncate, or change sign without any trace in the code. Every
//! conversion the datapath needs lives here instead, named for the
//! policy it applies:
//!
//! * `*_sat` — **saturating** conversions that clamp to the target range,
//!   matching the saturating adders the hardware uses everywhere else.
//! * `lo8` / `lane_of_i32` / `lane_of_i8` / `i8_from_lane` /
//!   `i32_from_bits` / `bits_of_i32` / `word_from_i64` / `sign_extend` — **bit-pattern** conversions where
//!   wrapping is the *point* (lane extraction, two's-complement
//!   reinterpretation, sign extension from a narrow field).
//! * `f64_from_*` / `f64_to_*_sat` — float bridges for host-side code;
//!   the float→int direction relies on Rust's saturating `as` semantics
//!   (NaN maps to 0) and is the only place a numeric `as` is written.
//!
//! This module is the single file exempt from the no-bare-cast lint, so
//! each `as` below is an audited site with its policy stated.

/// Saturating `u64` → `usize` (exact on 64-bit targets).
#[inline]
pub fn usize_sat(v: u64) -> usize {
    v.try_into().unwrap_or(usize::MAX)
}

/// Widening `usize` → `u64` (exact on every supported target).
#[inline]
pub fn u64_from_usize(v: usize) -> u64 {
    v.try_into().unwrap_or(u64::MAX)
}

/// Widening `usize` → `u128` (exact on every supported target).
#[inline]
pub fn u128_from_usize(v: usize) -> u128 {
    u128::from(u64_from_usize(v))
}

/// Widening `u32` → `usize` (exact on every supported target).
#[inline]
pub fn usize_from_u32(v: u32) -> usize {
    usize_sat(u64::from(v))
}

/// Saturating `usize` → `u32`.
#[inline]
pub fn u32_sat_usize(v: usize) -> u32 {
    v.try_into().unwrap_or(u32::MAX)
}

/// Saturating `u64` → `u32`.
#[inline]
pub fn u32_sat(v: u64) -> u32 {
    v.try_into().unwrap_or(u32::MAX)
}

/// Saturating `i64` → `usize` (negative values clamp to 0).
#[inline]
pub fn usize_sat_i64(v: i64) -> usize {
    v.try_into().unwrap_or(if v < 0 { 0 } else { usize::MAX })
}

/// Saturating `usize` → `i64`.
#[inline]
pub fn i64_sat_usize(v: usize) -> i64 {
    v.try_into().unwrap_or(i64::MAX)
}

/// Saturating `usize` → `i32`.
#[inline]
pub fn i32_sat_usize(v: usize) -> i32 {
    v.try_into().unwrap_or(i32::MAX)
}

/// Saturating `i64` → `i32`.
#[inline]
pub fn i32_sat(v: i64) -> i32 {
    v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32 // audited: clamped
}

/// Saturating `i128` → `i64`.
#[inline]
pub fn i64_sat(v: i128) -> i64 {
    v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64 // audited: clamped
}

/// Saturating `u64` → `u8`.
#[inline]
pub fn u8_sat(v: u64) -> u8 {
    v.try_into().unwrap_or(u8::MAX)
}

/// Low 8 bits of a word — lane extraction, wrapping by design.
#[inline]
pub fn lo8(v: impl Into<u64>) -> u8 {
    (v.into() & 0xFF) as u8 // audited: masked to 8 bits
}

/// Low 16 bits of a word, wrapping by design.
#[inline]
pub fn lo16(v: u64) -> u16 {
    (v & 0xFFFF) as u16 // audited: masked to 16 bits
}

/// Saturating `i64` → `u64` (negative values clamp to 0).
#[inline]
pub fn u64_sat_i64(v: i64) -> u64 {
    v.try_into().unwrap_or(0)
}

/// Low 32 bits of a word, wrapping by design.
#[inline]
pub fn lo32(v: u64) -> u32 {
    (v & 0xFFFF_FFFF) as u32 // audited: masked to 32 bits
}

/// Two's-complement low byte of an `i32` — the 8-bit stream-lane
/// encoding (placeholder bits above the precision are the sign bits).
#[inline]
pub fn lane_of_i32(v: i32) -> u8 {
    lo8(bits_of_i32(v) & 0xFF)
}

/// Two's-complement bit pattern of an `i8` weight — its 8-bit stream
/// lane.
#[inline]
pub fn lane_of_i8(v: i8) -> u8 {
    u8::from_ne_bytes(v.to_ne_bytes())
}

/// Reinterprets an 8-bit lane as a signed two's-complement value.
#[inline]
pub fn i8_from_lane(lane: u8) -> i8 {
    i8::from_ne_bytes(lane.to_ne_bytes())
}

/// Saturating `i32` → `i8`: exact for every weight of a precision of
/// at most 8 bits.
#[inline]
pub fn i8_sat(v: i32) -> i8 {
    v.try_into()
        .unwrap_or(if v < 0 { i8::MIN } else { i8::MAX })
}

/// Reinterprets a 32-bit pattern as a signed two's-complement value.
#[inline]
pub fn i32_from_bits(bits: u32) -> i32 {
    i32::from_ne_bytes(bits.to_ne_bytes())
}

/// Reinterprets a signed 32-bit value as its two's-complement pattern.
#[inline]
pub fn bits_of_i32(v: i32) -> u32 {
    u32::from_ne_bytes(v.to_ne_bytes())
}

/// Sign-extends a 32-bit stream word into an `i64` (parameter words are
/// 32-bit two's complement, §III.B.1).
#[inline]
pub fn i64_from_word(word: u32) -> i64 {
    i64::from(i32_from_bits(word))
}

/// Encodes the low 32 bits of a signed value as a stream word pattern,
/// wrapping by design (callers clamp to the i32 range first when the
/// value must be representable).
#[inline]
pub fn word_from_i64(v: i64) -> u32 {
    lo32(u64::from_ne_bytes(v.to_ne_bytes()))
}

/// Sign-extends the low `bits` bits of `field` (1 ≤ `bits` ≤ 32) into an
/// `i32` — how the hardware reads a narrow two's-complement lane.
#[inline]
pub fn sign_extend(field: u32, bits: u32) -> i32 {
    debug_assert!((1..=32).contains(&bits));
    let shift = 32 - bits;
    i32_from_bits(field << shift) >> shift
}

/// Exact-enough `i64` → `f64` (37-bit datapath values fit the mantissa;
/// wider values round, which host-side statistics tolerate).
#[inline]
pub fn f64_from_i64(v: i64) -> f64 {
    v as f64 // audited: rounds to nearest for |v| > 2^53
}

/// `u64` → `f64`, rounding to nearest beyond 2^53.
#[inline]
pub fn f64_from_u64(v: u64) -> f64 {
    v as f64 // audited: rounds to nearest for v > 2^53
}

/// `usize` → `f64`, rounding to nearest beyond 2^53.
#[inline]
pub fn f64_from_usize(v: usize) -> f64 {
    f64_from_u64(u64_from_usize(v))
}

/// Saturating `f64` → `i64` (NaN maps to 0).
#[inline]
pub fn f64_to_i64_sat(v: f64) -> i64 {
    v as i64 // audited: float→int `as` saturates; NaN → 0
}

/// Saturating `f64` → `i32` (NaN maps to 0).
#[inline]
pub fn f64_to_i32_sat(v: f64) -> i32 {
    v as i32 // audited: float→int `as` saturates; NaN → 0
}

/// Saturating `f64` → `u64` (negatives and NaN map to 0).
#[inline]
pub fn f64_to_u64_sat(v: f64) -> u64 {
    v as u64 // audited: float→int `as` saturates; NaN → 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_narrowings_clamp() {
        assert_eq!(usize_sat(u64::MAX), usize::MAX);
        assert_eq!(usize_sat_i64(-5), 0);
        assert_eq!(usize_sat_i64(5), 5);
        assert_eq!(i32_sat(i64::MAX), i32::MAX);
        assert_eq!(i32_sat(i64::MIN), i32::MIN);
        assert_eq!(i32_sat(-7), -7);
        assert_eq!(i64_sat(i128::MAX), i64::MAX);
        assert_eq!(i64_sat(i128::MIN), i64::MIN);
        assert_eq!(i64_sat(42), 42);
        assert_eq!(u8_sat(300), u8::MAX);
        assert_eq!(u8_sat(7), 7);
        assert_eq!(i8_sat(128), i8::MAX);
        assert_eq!(i8_sat(-129), i8::MIN);
        assert_eq!(i8_sat(-128), -128);
        assert_eq!(i8_sat(5), 5);
        assert_eq!(u32_sat_usize(usize::MAX), u32::MAX);
        assert_eq!(i64_sat_usize(usize::MAX), i64::MAX);
        assert_eq!(i32_sat_usize(usize::MAX), i32::MAX);
    }

    #[test]
    fn bit_pattern_conversions_roundtrip() {
        for v in [i32::MIN, -1, 0, 1, i32::MAX] {
            assert_eq!(i32_from_bits(bits_of_i32(v)), v);
        }
        assert_eq!(lo8(0xABCDu16), 0xCD);
        assert_eq!(lo8(0x1_0000_0000u64 | 0x42), 0x42);
        assert_eq!(lo32(0xDEAD_BEEF_CAFE_F00Du64), 0xCAFE_F00D);
        assert_eq!(lane_of_i32(-1), 0xFF);
        assert_eq!(lane_of_i32(-2), 0xFE);
        assert_eq!(lane_of_i32(5), 5);
        for v in [i8::MIN, -2, -1, 0, 1, i8::MAX] {
            assert_eq!(i8_from_lane(lane_of_i8(v)), v);
            assert_eq!(lane_of_i8(v), lane_of_i32(i32::from(v)));
        }
        assert_eq!(i64_from_word(0xFFFF_FFFF), -1);
        assert_eq!(i64_from_word(0x7FFF_FFFF), i64::from(i32::MAX));
        assert_eq!(word_from_i64(-1), 0xFFFF_FFFF);
        assert_eq!(word_from_i64(i64::from(i32::MIN)), 0x8000_0000);
    }

    #[test]
    fn sign_extension_matches_twos_complement() {
        assert_eq!(sign_extend(0b10, 2), -2);
        assert_eq!(sign_extend(0b01, 2), 1);
        assert_eq!(sign_extend(0xFF, 8), -1);
        assert_eq!(sign_extend(0x7F, 8), 127);
        assert_eq!(sign_extend(0xFFFF_FFFF, 32), -1);
    }

    #[test]
    fn float_bridges_saturate_and_zero_nan() {
        assert_eq!(f64_to_i64_sat(1e300), i64::MAX);
        assert_eq!(f64_to_i64_sat(-1e300), i64::MIN);
        assert_eq!(f64_to_i64_sat(f64::NAN), 0);
        assert_eq!(f64_to_i32_sat(1e300), i32::MAX);
        assert_eq!(f64_to_u64_sat(-5.0), 0);
        assert_eq!(f64_to_u64_sat(2.9), 2);
        assert_eq!(f64_from_i64(-33), -33.0);
        assert_eq!(f64_from_usize(98), 98.0);
    }
}
