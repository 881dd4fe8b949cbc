//! Layer-setting words: the per-layer configuration the NetPU loads
//! during *NetPU Initialization* and hands to LPUs during *Layer
//! Initialization* (§III.B.2).
//!
//! One 64-bit stream word encodes a layer's type, activation selector,
//! BN-folding option, the three precision fields, the neuron count, and
//! the input length — everything Figure 4's Layer Initialization step
//! consumes.

use netpu_arith::{cast, ActivationKind, Precision};
use serde::{Deserialize, Serialize};

/// The three layer kinds the NetPU schedules (§III.B.1 Crossbar paths).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum LayerType {
    /// Dataset-input quantization layer (yellow path).
    Input,
    /// Fully connected hidden layer (red path).
    Hidden,
    /// Output layer feeding MaxOut (pink path).
    Output,
}

impl LayerType {
    fn encode(self) -> u64 {
        match self {
            LayerType::Input => 0,
            LayerType::Hidden => 1,
            LayerType::Output => 2,
        }
    }

    fn decode(v: u64) -> Option<LayerType> {
        match v {
            0 => Some(LayerType::Input),
            1 => Some(LayerType::Hidden),
            2 => Some(LayerType::Output),
            _ => None,
        }
    }
}

/// A decoded layer-setting word.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LayerSetting {
    /// Layer kind.
    pub layer_type: LayerType,
    /// Activation selector (meaningful for Input/Hidden layers).
    pub activation: ActivationKind,
    /// `true` when BN is folded (bias path); `false` keeps BN in hardware.
    pub bn_folded: bool,
    /// Activation-input precision.
    pub in_precision: Precision,
    /// Weight precision (meaningful for Hidden/Output layers).
    pub weight_precision: Precision,
    /// Activation-output precision.
    pub out_precision: Precision,
    /// Neuron count (= input length for the Input layer).
    pub neurons: u32,
    /// Per-neuron input length (fan-in; = 1 for the Input layer).
    pub input_len: u32,
}

/// Errors decoding a layer-setting word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SettingError {
    /// Unknown layer-type field.
    BadLayerType(u8),
    /// Unknown activation selector.
    BadActivation(u8),
    /// A width field exceeds the architecture's 8192 ceiling.
    BadWidth(u32),
}

impl std::fmt::Display for SettingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SettingError::BadLayerType(v) => write!(f, "unknown layer type {v}"),
            SettingError::BadActivation(v) => write!(f, "unknown activation selector {v}"),
            SettingError::BadWidth(v) => write!(f, "layer width {v} exceeds 8192"),
        }
    }
}

impl std::error::Error for SettingError {}

/// Maximum width encodable in the 14-bit neuron/input-length fields.
pub const MAX_FIELD_WIDTH: u32 = 8192;

impl LayerSetting {
    /// Packs the setting into its 64-bit stream word.
    ///
    /// Bit layout (LSB first): `[0:2]` layer type, `[2:5]` activation,
    /// `[5]` BN folded, `[6:9]` input precision, `[9:12]` weight
    /// precision, `[12:15]` output precision, `[16:30]` neuron count,
    /// `[32:46]` input length. Remaining bits are reserved zero.
    pub fn encode(&self) -> u64 {
        debug_assert!(self.neurons <= MAX_FIELD_WIDTH && self.input_len <= MAX_FIELD_WIDTH);
        self.layer_type.encode()
            | (u64::from(self.activation.encode()) << 2)
            | (u64::from(self.bn_folded) << 5)
            | (u64::from(self.in_precision.encode()) << 6)
            | (u64::from(self.weight_precision.encode()) << 9)
            | (u64::from(self.out_precision.encode()) << 12)
            | (u64::from(self.neurons) << 16)
            | (u64::from(self.input_len) << 32)
    }

    /// Decodes a 64-bit layer-setting stream word.
    pub fn decode(word: u64) -> Result<LayerSetting, SettingError> {
        let lt = cast::lo8(word & 0b11);
        let layer_type = LayerType::decode(u64::from(lt)).ok_or(SettingError::BadLayerType(lt))?;
        let act = cast::lo8((word >> 2) & 0b111);
        let activation = ActivationKind::decode(act).ok_or(SettingError::BadActivation(act))?;
        let neurons = cast::lo32((word >> 16) & 0x3FFF);
        let input_len = cast::lo32((word >> 32) & 0x3FFF);
        if neurons > MAX_FIELD_WIDTH {
            return Err(SettingError::BadWidth(neurons));
        }
        if input_len > MAX_FIELD_WIDTH {
            return Err(SettingError::BadWidth(input_len));
        }
        let precision = |shift: u32| {
            let Ok(p) = Precision::decode(cast::lo8((word >> shift) & 0b111)) else {
                unreachable!("masked 3-bit precision fields always decode");
            };
            p
        };
        Ok(LayerSetting {
            layer_type,
            activation,
            bn_folded: (word >> 5) & 1 == 1,
            in_precision: precision(6),
            weight_precision: precision(9),
            out_precision: precision(12),
            neurons,
            input_len,
        })
    }
}

/// `true` when `settings` run Input, Hidden*, Output: the only layer
/// sequence the NetPU schedules.
pub fn is_layer_sequence(settings: &[LayerSetting]) -> bool {
    match settings {
        [first, hidden @ .., last] => {
            first.layer_type == LayerType::Input
                && last.layer_type == LayerType::Output
                && hidden.iter().all(|s| s.layer_type == LayerType::Hidden)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LayerSetting {
        LayerSetting {
            layer_type: LayerType::Hidden,
            activation: ActivationKind::MultiThreshold,
            bn_folded: true,
            in_precision: Precision::W2,
            weight_precision: Precision::W2,
            out_precision: Precision::W2,
            neurons: 256,
            input_len: 784,
        }
    }

    #[test]
    fn roundtrip_all_layer_types_and_activations() {
        for lt in [LayerType::Input, LayerType::Hidden, LayerType::Output] {
            for act in ActivationKind::ALL {
                for folded in [true, false] {
                    let s = LayerSetting {
                        layer_type: lt,
                        activation: act,
                        bn_folded: folded,
                        ..sample()
                    };
                    assert_eq!(LayerSetting::decode(s.encode()).unwrap(), s);
                }
            }
        }
    }

    #[test]
    fn roundtrip_extreme_widths() {
        for (n, l) in [(1u32, 1u32), (8192, 8192), (10, 8192), (8192, 1)] {
            let s = LayerSetting {
                neurons: n,
                input_len: l,
                ..sample()
            };
            assert_eq!(LayerSetting::decode(s.encode()).unwrap(), s);
        }
    }

    #[test]
    fn roundtrip_all_precisions() {
        for p in Precision::all() {
            let s = LayerSetting {
                in_precision: p,
                weight_precision: p,
                out_precision: p,
                ..sample()
            };
            assert_eq!(LayerSetting::decode(s.encode()).unwrap(), s);
        }
    }

    #[test]
    fn decode_rejects_bad_fields() {
        // Layer type 3 is unused.
        assert_eq!(LayerSetting::decode(3), Err(SettingError::BadLayerType(3)));
        // Activation selectors 5-7 are unused.
        let word = LayerType::Hidden.encode() | (0b111 << 2);
        assert_eq!(
            LayerSetting::decode(word),
            Err(SettingError::BadActivation(7))
        );
    }

    #[test]
    fn reserved_bits_are_zero() {
        let w = sample().encode();
        // Bit 15 and bits 46+ must be clear.
        assert_eq!(w & (1 << 15), 0);
        assert_eq!(w >> 46, 0);
    }
}
