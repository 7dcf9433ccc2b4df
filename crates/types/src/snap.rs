//! Machine-snapshot codec: a dependency-free little-endian binary
//! format in the style of the `.petr` trace format (versioned magic,
//! validated decode, offset-reporting errors).
//!
//! Every stateful component of the simulator implements
//! [`SnapshotState`]: `save` appends the component's complete dynamic
//! state to an [`Encoder`], and `load` restores it *in place* on an
//! identically-constructed component, validating every field as it
//! decodes. Configuration (sizes, latencies, geometries) is **not**
//! serialized — a snapshot is only meaningful against a machine built
//! from an equivalent configuration, which `pei-system` enforces with a
//! config fingerprint in the snapshot header.
//!
//! The format rules, shared by every implementation:
//!
//! - All integers are little-endian and fixed-width; `f64` travels as
//!   its IEEE-754 bit pattern ([`Encoder::f64`]), so round trips are
//!   bit-exact.
//! - Sequences are a `u32` count followed by the items. Keyed
//!   collections (`HashMap`/`HashSet`) are serialized in sorted key
//!   order so equal states produce equal bytes.
//! - Each component section starts with a one-byte tag
//!   ([`Encoder::tag`] / [`Decoder::expect_tag`]) so a misaligned or
//!   corrupt stream fails fast with the offset and the section name,
//!   never a panic or a silently wrong machine.
//!
//! See DESIGN.md §11 for the full layout of a `System` snapshot.

/// Errors produced while decoding snapshot bytes.
///
/// Every variant that results from malformed input carries the byte
/// offset at which decoding failed, mirroring `pei-trace`'s
/// `TraceError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the value being decoded.
    Truncated {
        /// Offset at which more bytes were needed.
        offset: usize,
    },
    /// The stream does not start with the snapshot magic.
    BadMagic,
    /// The format version is not one this build can read.
    BadVersion {
        /// The version found in the header.
        found: u16,
        /// The version this build reads and writes.
        expected: u16,
    },
    /// A section or value tag did not match what the decoder expected.
    BadTag {
        /// Offset of the tag byte.
        offset: usize,
        /// The tag found.
        found: u8,
        /// What the decoder was trying to read.
        what: &'static str,
    },
    /// A decoded value is invalid in context (bad enum discriminant,
    /// non-UTF-8 string, out-of-range index).
    BadValue {
        /// Offset at which the value started.
        offset: usize,
        /// Description of the problem.
        what: String,
    },
    /// The snapshot is well-formed but does not fit the target machine
    /// (wrong component count, wrong geometry, wrong config
    /// fingerprint).
    Mismatch {
        /// Description of the disagreement.
        what: String,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {expected})"
            ),
            SnapError::BadTag {
                offset,
                found,
                what,
            } => write!(
                f,
                "bad tag {found:#x} at byte {offset} while reading {what}"
            ),
            SnapError::BadValue { offset, what } => {
                write!(f, "bad value at byte {offset}: {what}")
            }
            SnapError::Mismatch { what } => {
                write!(f, "snapshot does not fit this machine: {what}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Convenience alias for decode results.
pub type SnapResult<T> = Result<T, SnapError>;

/// Append-only little-endian byte sink for snapshot encoding.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a raw byte slice with no length prefix (magic, payloads
    /// whose length is known from context).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a one-byte section/value tag.
    pub fn tag(&mut self, t: u8) {
        self.buf.push(t);
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a sequence length (`u32`).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` — no simulated collection comes
    /// within orders of magnitude of that.
    pub fn seq(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("snapshot sequence too long"));
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.seq(b.len());
        self.raw(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes an `Option` discriminant; the caller writes the payload
    /// after a `true`.
    pub fn opt(&mut self, present: bool) {
        self.bool(present);
    }
}

/// Validating cursor over snapshot bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps `bytes` for decoding.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    /// Current byte offset (for error context).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { offset: self.pos });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting bytes other than 0/1.
    pub fn bool(&mut self) -> SnapResult<bool> {
        let offset = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::BadValue {
                offset,
                what: format!("bool byte {b}"),
            }),
        }
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> SnapResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> SnapResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> SnapResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> SnapResult<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that cannot
    /// index on this platform.
    pub fn usize(&mut self) -> SnapResult<usize> {
        let offset = self.pos;
        usize::try_from(self.u64()?).map_err(|_| SnapError::BadValue {
            offset,
            what: "usize overflow".into(),
        })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> SnapResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a sequence length, bounding it by the bytes remaining
    /// (each element needs at least `min_item_bytes`), so corrupt
    /// lengths fail with `Truncated` instead of attempting a huge
    /// allocation.
    pub fn seq(&mut self, min_item_bytes: usize) -> SnapResult<usize> {
        let offset = self.pos;
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(SnapError::Truncated { offset });
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> SnapResult<&'a [u8]> {
        let n = self.seq(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> SnapResult<String> {
        let offset = self.pos;
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::BadValue {
            offset,
            what: "non-UTF-8 string".into(),
        })
    }

    /// Reads an `Option` discriminant.
    pub fn opt(&mut self) -> SnapResult<bool> {
        self.bool()
    }

    /// Reads a one-byte tag and checks it, reporting `what` on
    /// mismatch.
    pub fn expect_tag(&mut self, want: u8, what: &'static str) -> SnapResult<()> {
        let offset = self.pos;
        let found = self.u8()?;
        if found == want {
            Ok(())
        } else {
            Err(SnapError::BadTag {
                offset,
                found,
                what,
            })
        }
    }

    /// Builds a [`SnapError::BadValue`] at the current offset.
    pub fn bad(&self, what: impl Into<String>) -> SnapError {
        SnapError::BadValue {
            offset: self.pos,
            what: what.into(),
        }
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(&self) -> SnapResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::BadValue {
                offset: self.pos,
                what: format!("{} trailing bytes", self.remaining()),
            })
        }
    }
}

/// Uniform save/load over the snapshot codec.
///
/// `load` mutates `self` in place and must leave an
/// identically-constructed component in exactly the saved state; on
/// error the component may be partially written and the caller must
/// discard it (System::restore restores into a scratch machine it
/// throws away on failure — components never observe a torn state).
pub trait SnapshotState {
    /// Appends this component's complete dynamic state.
    fn save(&self, e: &mut Encoder);

    /// Restores state previously written by [`save`](Self::save) into
    /// an identically-constructed component.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the bytes are truncated, corrupt,
    /// or describe a component of different geometry.
    fn load(&mut self, d: &mut Decoder<'_>) -> SnapResult<()>;
}

/// Saves a `Cycle`/`u64` pair sequence helper used by event queues.
///
/// (Free functions rather than trait impls keep the orphan rule simple
/// for collection-shaped state.)
pub fn check_len(what: &str, found: usize, expected: usize) -> SnapResult<()> {
    if found == expected {
        Ok(())
    } else {
        Err(SnapError::Mismatch {
            what: format!("{what}: snapshot has {found}, machine has {expected}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.bool(true);
        e.u16(0xbeef);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 3);
        e.u128(u128::MAX - 9);
        e.f64(-0.0);
        e.str("héllo");
        e.opt(false);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.u128().unwrap(), u128::MAX - 9);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.str().unwrap(), "héllo");
        assert!(!d.opt().unwrap());
        d.finish().unwrap();
    }

    #[test]
    fn truncation_reports_offset() {
        let mut e = Encoder::new();
        e.u32(5);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..2]);
        assert_eq!(d.u32(), Err(SnapError::Truncated { offset: 0 }));
    }

    #[test]
    fn bad_bool_is_a_value_error() {
        let bytes = [9u8];
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.bool(),
            Err(SnapError::BadValue { offset: 0, .. })
        ));
    }

    #[test]
    fn seq_bounds_corrupt_lengths() {
        // A claimed length of 2^31 items with 4 bytes of payload must be
        // Truncated, not an allocation attempt.
        let mut e = Encoder::new();
        e.u32(1 << 31);
        e.u32(0);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.seq(8), Err(SnapError::Truncated { offset: 0 }));
    }

    #[test]
    fn tags_catch_misalignment() {
        let mut e = Encoder::new();
        e.tag(3);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let err = d.expect_tag(4, "cores section").unwrap_err();
        assert!(matches!(err, SnapError::BadTag { found: 3, .. }));
        assert!(err.to_string().contains("cores section"));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let bytes = [0u8; 3];
        let d = Decoder::new(&bytes);
        assert!(matches!(d.finish(), Err(SnapError::BadValue { .. })));
    }

    #[test]
    fn check_len_mismatch_names_the_component() {
        let err = check_len("vaults", 8, 16).unwrap_err();
        assert!(err.to_string().contains("vaults"));
    }
}
