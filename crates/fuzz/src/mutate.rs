//! Structured mutations over loadable word streams.
//!
//! The mutation vocabulary generalizes the proptest corpus the
//! `check_differential` suite has run since the verifier landed
//! (bit flips, truncation, word smashes) with *layout-aware* operators:
//! the generator knows the seed stream's [`StreamLayout`] and biases
//! bit-level damage toward the header/settings region where one flipped
//! bit changes the decoded structure, while the structural operators
//! (remove / duplicate / swap / splice) shear whole sections out of
//! alignment the way a buggy host-side framer would.

use netpu_arith::cast;
use netpu_compiler::stream::PackingMode;
use netpu_compiler::{Header, StreamLayout};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;
use std::ops::Range;

/// One structured edit of a word stream.
///
/// Word indices are taken modulo the stream length at application time,
/// so a mutation minted against one stream stays applicable after other
/// mutations have resized it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Flip a single bit.
    FlipBit {
        /// Target word (modulo stream length).
        word: usize,
        /// Bit position (modulo 64).
        bit: u32,
    },
    /// Overwrite a word with an arbitrary value.
    SmashWord {
        /// Target word (modulo stream length).
        word: usize,
        /// Replacement value.
        value: u64,
    },
    /// Drop the stream's tail, keeping `keep` words.
    Truncate {
        /// Words to keep (modulo stream length).
        keep: usize,
    },
    /// Append `extra` copies of `value` past the declared end.
    ExtendTail {
        /// Words to append (kept small by the generator).
        extra: usize,
        /// Fill value.
        value: u64,
    },
    /// Remove one word, shearing every later section left by one.
    RemoveWord {
        /// Target word (modulo stream length).
        word: usize,
    },
    /// Insert a copy of a word after itself, shearing sections right.
    DuplicateWord {
        /// Target word (modulo stream length).
        word: usize,
    },
    /// Exchange two words across section boundaries.
    SwapWords {
        /// First word (modulo stream length).
        a: usize,
        /// Second word (modulo stream length).
        b: usize,
    },
    /// Rewrite the header's declared input range metadata (bits 41..58).
    DeclareRange {
        /// Declared minimum pixel value.
        min: u8,
        /// Declared maximum pixel value.
        max: u8,
    },
    /// Flip the header's weight packing flag (bit 40).
    FlipPackingFlag,
    /// Overwrite the header's whole layer-count field (bits 24..40).
    SmashLayerCount {
        /// Replacement layer count.
        count: u16,
    },
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::FlipBit { word, bit } => write!(f, "flip w{word}b{bit}"),
            Mutation::SmashWord { word, value } => write!(f, "smash w{word}={value:#x}"),
            Mutation::Truncate { keep } => write!(f, "truncate to {keep}"),
            Mutation::ExtendTail { extra, value } => write!(f, "extend +{extra}x{value:#x}"),
            Mutation::RemoveWord { word } => write!(f, "remove w{word}"),
            Mutation::DuplicateWord { word } => write!(f, "dup w{word}"),
            Mutation::SwapWords { a, b } => write!(f, "swap w{a}<->w{b}"),
            Mutation::DeclareRange { min, max } => write!(f, "declare range {min}..={max}"),
            Mutation::FlipPackingFlag => f.write_str("flip packing flag"),
            Mutation::SmashLayerCount { count } => write!(f, "layer count = {count}"),
        }
    }
}

/// Applies `m` to `words` in place. A no-op on empty streams except for
/// [`Mutation::ExtendTail`], which can regrow one.
pub fn apply(words: &mut Vec<u64>, m: &Mutation) {
    let len = words.len();
    match *m {
        Mutation::FlipBit { word, bit } => {
            if len > 0 {
                words[word % len] ^= 1u64 << (bit % 64);
            }
        }
        Mutation::SmashWord { word, value } => {
            if len > 0 {
                words[word % len] = value;
            }
        }
        Mutation::Truncate { keep } => {
            if len > 0 {
                words.truncate(keep % len);
            }
        }
        Mutation::ExtendTail { extra, value } => {
            words.extend(std::iter::repeat_n(value, extra));
        }
        Mutation::RemoveWord { word } => {
            if len > 0 {
                words.remove(word % len);
            }
        }
        Mutation::DuplicateWord { word } => {
            if len > 0 {
                let at = word % len;
                let v = words[at];
                words.insert(at, v);
            }
        }
        Mutation::SwapWords { a, b } => {
            if len > 0 {
                words.swap(a % len, b % len);
            }
        }
        Mutation::DeclareRange { min, max } => {
            edit_header(words, |h| h.input_range = Some((min, max)));
        }
        Mutation::FlipPackingFlag => edit_header(words, |h| {
            h.packing = match h.packing {
                PackingMode::Lanes8 => PackingMode::Dense,
                PackingMode::Dense => PackingMode::Lanes8,
            }
        }),
        Mutation::SmashLayerCount { count } => {
            edit_header(words, |h| h.layers = usize::from(count));
        }
    }
}

/// Rewrites the header word (if any) through the stream format's codec:
/// `edit` changes its decoded fields, the bits no field covers are
/// dropped.
fn edit_header(words: &mut [u64], edit: impl FnOnce(&mut Header)) {
    if let Some(word) = words.first_mut() {
        let mut header = Header::decode(*word);
        edit(&mut header);
        *word = header.encode();
    }
}

/// Region of a seed stream a mutation aims at, derived from the seed's
/// [`StreamLayout`]. Mutated descendants keep using the seed's section
/// map as an *approximate* targeting bias — the point of the structural
/// operators is precisely to make the map lie.
#[derive(Clone, Copy, Debug)]
enum Region {
    Header,
    Settings,
    Input,
    Payload,
    Anywhere,
}

fn region_range(region: Region, layout: &StreamLayout, len: usize) -> Range<usize> {
    let clamp = |r: &Range<usize>| -> Range<usize> {
        let start = r.start.min(len.saturating_sub(1));
        let end = r.end.min(len).max(start + 1);
        start..end
    };
    if len == 0 {
        return 0..1;
    }
    match region {
        Region::Header => clamp(&layout.header),
        Region::Settings => clamp(&layout.settings),
        Region::Input => clamp(&layout.input),
        Region::Payload => {
            let start = layout
                .sections
                .first()
                .map(|(_, _, r)| r.start)
                .unwrap_or(0);
            clamp(&(start..len))
        }
        Region::Anywhere => 0..len,
    }
}

/// Draws one structured mutation for a stream of `len` words, biased by
/// the seed stream's section map: ~half the draws land bit-level damage
/// in the header/settings/input words (where single bits change the
/// decoded structure), the rest shear sections or attack specific
/// header fields.
pub fn arbitrary(rng: &mut StdRng, layout: &StreamLayout, len: usize) -> Mutation {
    let pick_word = |rng: &mut StdRng, region: Region| -> usize {
        let r = region_range(region, layout, len);
        rng.gen_range(r)
    };
    match rng.gen_range(0u32..100) {
        // Bit flips: header 15, settings 15, input 5, payload 15.
        0..=14 => Mutation::FlipBit {
            word: pick_word(rng, Region::Header),
            bit: rng.gen_range(0u32..64),
        },
        15..=29 => Mutation::FlipBit {
            word: pick_word(rng, Region::Settings),
            bit: rng.gen_range(0u32..64),
        },
        30..=34 => Mutation::FlipBit {
            word: pick_word(rng, Region::Input),
            bit: rng.gen_range(0u32..64),
        },
        35..=49 => Mutation::FlipBit {
            word: pick_word(rng, Region::Payload),
            bit: rng.gen_range(0u32..64),
        },
        // Word smashes, anywhere.
        50..=59 => Mutation::SmashWord {
            word: pick_word(rng, Region::Anywhere),
            value: rng.gen(),
        },
        // Length shear: truncate / extend / remove / duplicate / swap.
        60..=67 => Mutation::Truncate {
            keep: pick_word(rng, Region::Anywhere),
        },
        68..=72 => Mutation::ExtendTail {
            extra: rng.gen_range(1usize..=8),
            value: rng.gen(),
        },
        73..=79 => Mutation::RemoveWord {
            word: pick_word(rng, Region::Anywhere),
        },
        80..=84 => Mutation::DuplicateWord {
            word: pick_word(rng, Region::Anywhere),
        },
        85..=89 => Mutation::SwapWords {
            a: pick_word(rng, Region::Settings),
            b: pick_word(rng, Region::Payload),
        },
        // Header field attacks.
        90..=94 => Mutation::DeclareRange {
            min: cast::lo8(rng.gen::<u64>()),
            max: cast::lo8(rng.gen::<u64>()),
        },
        95..=96 => Mutation::FlipPackingFlag,
        _ => Mutation::SmashLayerCount {
            count: cast::lo16(rng.gen::<u64>()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn apply_is_total_on_empty_streams() {
        let mut empty: Vec<u64> = Vec::new();
        for m in [
            Mutation::FlipBit { word: 3, bit: 70 },
            Mutation::SmashWord { word: 1, value: 9 },
            Mutation::Truncate { keep: 5 },
            Mutation::RemoveWord { word: 0 },
            Mutation::DuplicateWord { word: 0 },
            Mutation::SwapWords { a: 0, b: 1 },
            Mutation::DeclareRange { min: 3, max: 200 },
            Mutation::FlipPackingFlag,
            Mutation::SmashLayerCount { count: 9 },
        ] {
            apply(&mut empty, &m);
            assert!(empty.is_empty(), "{m} resized an empty stream");
        }
        apply(&mut empty, &Mutation::ExtendTail { extra: 2, value: 7 });
        assert_eq!(empty, vec![7, 7]);
    }

    #[test]
    fn indices_wrap_modulo_length() {
        let mut words = vec![0u64, 0, 0];
        apply(&mut words, &Mutation::FlipBit { word: 4, bit: 65 });
        assert_eq!(words, vec![0, 2, 0], "word 4 % 3 == 1, bit 65 % 64 == 1");
    }

    #[test]
    fn declare_range_sets_flag_and_fields() {
        let mut words = vec![0u64];
        apply(&mut words, &Mutation::DeclareRange { min: 5, max: 250 });
        assert_eq!(Header::decode(words[0]).input_range, Some((5, 250)));
        // Idempotent: re-declaring replaces, not accumulates.
        apply(&mut words, &Mutation::DeclareRange { min: 0, max: 1 });
        assert_eq!(Header::decode(words[0]).input_range, Some((0, 1)));
    }

    #[test]
    fn header_mutations_write_whole_fields() {
        let header = Header {
            magic: netpu_compiler::stream::MAGIC,
            version: netpu_compiler::stream::VERSION,
            layers: 0xAB12,
            packing: PackingMode::Lanes8,
            input_range: None,
        };
        let mut words = vec![header.encode()];
        apply(&mut words, &Mutation::SmashLayerCount { count: 0x0109 });
        let want = Header {
            layers: 0x0109,
            ..header
        };
        assert_eq!(Header::decode(words[0]), want);
        apply(&mut words, &Mutation::FlipPackingFlag);
        let dense = Header {
            packing: PackingMode::Dense,
            ..want
        };
        assert_eq!(Header::decode(words[0]), dense);
        apply(&mut words, &Mutation::FlipPackingFlag);
        assert_eq!(words, vec![want.encode()]);
    }

    #[test]
    fn structural_mutations_resize_by_exactly_one() {
        let mut words = vec![1u64, 2, 3, 4];
        apply(&mut words, &Mutation::RemoveWord { word: 1 });
        assert_eq!(words, vec![1, 3, 4]);
        apply(&mut words, &Mutation::DuplicateWord { word: 2 });
        assert_eq!(words, vec![1, 3, 4, 4]);
    }

    #[test]
    fn arbitrary_draws_are_deterministic_per_seed() {
        let layout = StreamLayout {
            header: 0..1,
            settings: 1..4,
            input: 4..10,
            sections: vec![(netpu_compiler::SectionKind::Params, 0, 10..14)],
        };
        let draw = |seed: u64| -> Vec<Mutation> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| arbitrary(&mut rng, &layout, 14)).collect()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10), "different seeds should diverge");
    }
}
