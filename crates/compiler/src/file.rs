//! The `.npu` on-disk loadable container.
//!
//! A deployed NetPU-M system pre-packages loadables offline and streams
//! them at runtime (§III.B.3: "if we pre-package all inputs and network
//! models…"). This module defines the container: a 16-byte header
//! (magic, version, word count, CRC) followed by the little-endian
//! stream words. The section layout is not stored — it is recomputed
//! from the stream itself, which keeps the file format free of
//! redundant (and desynchronisable) metadata.

use crate::stream::{read_settings, Header, Loadable, StreamError, StreamLayout};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use netpu_arith::cast;

/// File magic: `"NPUL"`.
pub const FILE_MAGIC: [u8; 4] = *b"NPUL";
/// Container format version.
pub const FILE_VERSION: u32 = 1;

/// Container errors.
#[derive(Clone, PartialEq, Debug)]
pub enum FileError {
    /// Missing or wrong file magic / version.
    BadContainer,
    /// The byte payload is shorter than the header promises.
    Truncated,
    /// CRC mismatch: the payload was corrupted.
    Corrupt {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The contained stream is not a valid loadable.
    Stream(StreamError),
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::BadContainer => f.write_str("not a .npu container"),
            FileError::Truncated => f.write_str("container truncated"),
            FileError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            FileError::Stream(e) => write!(f, "contained stream invalid: {e}"),
        }
    }
}

impl std::error::Error for FileError {}

/// CRC-32 (IEEE 802.3 polynomial, bitwise implementation — the payload
/// is hashed once per save/load, so table-free is fine).
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Recomputes a stream's section layout from its own headers — the
/// inverse of what `compile` records. Fails on malformed streams.
pub fn layout_of(words: &[u64]) -> Result<StreamLayout, StreamError> {
    let &word = words.first().ok_or(StreamError::Truncated { at: 0 })?;
    let header = Header::parse(word)?;
    let truncated = StreamError::Truncated { at: words.len() };
    if header.layers < 2 {
        return Err(truncated);
    }
    let layout = StreamLayout::of(&read_settings(words, header.layers)?, header.packing);
    if layout.words() > words.len() {
        return Err(truncated);
    }
    Ok(layout)
}

impl Loadable {
    /// Serialises the loadable into the `.npu` container format.
    pub fn to_bytes(&self) -> Bytes {
        let mut payload = BytesMut::with_capacity(self.words.len() * 8);
        for &w in &self.words {
            payload.put_u64_le(w);
        }
        let crc = crc32(&payload);
        let mut out = BytesMut::with_capacity(16 + payload.len());
        out.put_slice(&FILE_MAGIC);
        out.put_u32_le(FILE_VERSION);
        out.put_u32_le(cast::u32_sat_usize(self.words.len()));
        out.put_u32_le(crc);
        out.extend_from_slice(&payload);
        out.freeze()
    }

    /// Parses a `.npu` container, verifying the CRC and re-deriving the
    /// section layout from the stream itself.
    pub fn from_bytes(mut data: &[u8]) -> Result<Loadable, FileError> {
        if data.len() < 16 {
            return Err(FileError::BadContainer);
        }
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if magic != FILE_MAGIC {
            return Err(FileError::BadContainer);
        }
        if data.get_u32_le() != FILE_VERSION {
            return Err(FileError::BadContainer);
        }
        let count = cast::usize_from_u32(data.get_u32_le());
        let stored = data.get_u32_le();
        if data.len() < count * 8 {
            return Err(FileError::Truncated);
        }
        let payload = &data[..count * 8];
        let computed = crc32(payload);
        if computed != stored {
            return Err(FileError::Corrupt { stored, computed });
        }
        let mut words = Vec::with_capacity(count);
        let mut rest = payload;
        for _ in 0..count {
            words.push(rest.get_u64_le());
        }
        let layout = layout_of(&words).map_err(FileError::Stream)?;
        Ok(Loadable { words, layout })
    }

    /// Writes the container to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a container from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Loadable, FileError> {
        let data = std::fs::read(path).map_err(|_| FileError::BadContainer)?;
        Loadable::from_bytes(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{compile, compile_packed, PackingMode};
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;

    fn sample() -> Loadable {
        let model = ZooModel::TfcW1A1
            .build_untrained(1, BnMode::Folded)
            .unwrap();
        compile(&model, &vec![100u8; 784]).unwrap()
    }

    #[test]
    fn bytes_roundtrip_preserves_everything() {
        let l = sample();
        let restored = Loadable::from_bytes(&l.to_bytes()).unwrap();
        assert_eq!(restored, l);
    }

    #[test]
    fn dense_streams_roundtrip_with_layout() {
        let model = ZooModel::TfcW2A2
            .build_untrained(2, BnMode::Folded)
            .unwrap();
        let l = compile_packed(&model, &vec![0u8; 784], PackingMode::Dense).unwrap();
        let restored = Loadable::from_bytes(&l.to_bytes()).unwrap();
        assert_eq!(restored, l);
    }

    #[test]
    fn corruption_is_detected() {
        let l = sample();
        let mut bytes = l.to_bytes().to_vec();
        // Flip a payload bit.
        let idx = bytes.len() - 5;
        bytes[idx] ^= 1;
        assert!(matches!(
            Loadable::from_bytes(&bytes),
            Err(FileError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_containers_are_rejected() {
        assert_eq!(Loadable::from_bytes(b"nope"), Err(FileError::BadContainer));
        let l = sample();
        let mut bytes = l.to_bytes().to_vec();
        bytes[0] = b'X';
        assert_eq!(Loadable::from_bytes(&bytes), Err(FileError::BadContainer));
        // Truncated payload.
        let full = l.to_bytes().to_vec();
        assert_eq!(
            Loadable::from_bytes(&full[..full.len() / 2]),
            Err(FileError::Truncated)
        );
    }

    #[test]
    fn layout_recomputation_matches_compile() {
        let l = sample();
        assert_eq!(layout_of(&l.words).unwrap(), l.layout);
    }

    #[test]
    fn save_load_via_disk() {
        let l = sample();
        let path = std::env::temp_dir().join("netpu-test.npu");
        l.save(&path).unwrap();
        let restored = Loadable::load(&path).unwrap();
        assert_eq!(restored, l);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
