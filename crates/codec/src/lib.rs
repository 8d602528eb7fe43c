//! # sfcc-codec
//!
//! A compact, self-validating binary codec (LEB128 varints, zigzag signed
//! encoding, length-prefixed strings, FNV-64 checksums) shared by the
//! dormancy state file (`sfcc-state`) and program images (`sfcc-backend`).
//! Hand-rolled because the offline dependency set provides `serde` but no
//! format crate — and because the artifacts built on it are part of the
//! reproduced system whose size and load/store cost the evaluation
//! measures.

use std::fmt;

/// A decoding failure. Any failure means the state file is unusable and the
/// compiler falls back to a cold start — never an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended mid-value.
    UnexpectedEof,
    /// A varint ran past its maximum width.
    Overlong,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A declared length exceeded the remaining input.
    BadLength,
    /// The trailer checksum did not match.
    Corrupt,
    /// Unknown magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::Overlong => write!(f, "overlong varint"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            DecodeError::BadLength => write!(f, "length exceeds remaining input"),
            DecodeError::Corrupt => write!(f, "checksum mismatch"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a 64 over a byte slice; the trailer checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_continue(0xcbf29ce484222325, bytes)
}

/// FNV-1a 64 continued from the state `h` over `bytes`, for input hashed in
/// pieces: `fnv64_continue(fnv64(a), b) == fnv64(a ++ b)`.
pub fn fnv64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// Writes a `usize` as a varint.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `i64` with zigzag encoding.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a full-width `u128` (16 bytes, little-endian).
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Sequential decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all input was consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint.
    ///
    /// Rejects non-canonical encodings whose tenth byte carries bits beyond
    /// bit 63 — those bits would otherwise be shifted out silently, letting
    /// two different byte strings decode to the same value (which would blind
    /// checksum verification to single-bit corruption in a varint trailer).
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(DecodeError::Overlong);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::Overlong)
    }

    /// Reads a `u32` varint.
    ///
    /// # Errors
    ///
    /// Fails when the decoded value exceeds `u32::MAX`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.u64()?).map_err(|_| DecodeError::Overlong)
    }

    /// Reads a `usize` varint.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Overlong)
    }

    /// Reads a zigzag-encoded `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a full-width `u128`.
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        if self.remaining() < 16 {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + 16]);
        self.pos += 16;
        Ok(u128::from_le_bytes(bytes))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_string)
            .map_err(|_| DecodeError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_roundtrip_edges() {
        let mut w = Writer::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            w.u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(r.u64().unwrap(), v);
        }
        assert!(r.is_done());
    }

    #[test]
    fn varint_rejects_overflow_bits_in_tenth_byte() {
        // Canonical u64::MAX: nine continuation bytes, then 0x01.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let canonical = w.into_bytes();
        assert_eq!(canonical.len(), 10);
        assert_eq!(canonical[9], 0x01);
        // Any extra bit in the tenth byte encodes value bits past bit 63;
        // accepting it would let distinct byte strings decode identically.
        for bit in 1..7 {
            let mut bytes = canonical.clone();
            bytes[9] |= 1 << bit;
            assert_eq!(Reader::new(&bytes).u64(), Err(DecodeError::Overlong));
        }
    }

    #[test]
    fn zigzag_roundtrip_edges() {
        let mut w = Writer::new();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            w.i64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(r.i64().unwrap(), v);
        }
    }

    #[test]
    fn string_roundtrip() {
        let mut w = Writer::new();
        w.str("héllo");
        w.str("");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.str().unwrap(), "");
    }

    #[test]
    fn bytes_roundtrip_and_reject_overlong_lengths() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0x00, 0x7f]);
        w.bytes(&[]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.bytes().unwrap(), [0xff, 0x00, 0x7f]);
        assert_eq!(r.bytes().unwrap(), [0u8; 0]);
        assert!(r.is_done());
        assert_eq!(
            Reader::new(&bytes[..2]).bytes(),
            Err(DecodeError::BadLength)
        );
    }

    #[test]
    fn u128_roundtrip() {
        let mut w = Writer::new();
        w.u128(u128::MAX - 42);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).u128().unwrap(), u128::MAX - 42);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut w = Writer::new();
        w.u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..2]);
        assert_eq!(r.u64(), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn bogus_string_length_fails() {
        let mut w = Writer::new();
        w.usize(1000);
        w.raw(b"hi");
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).str(), Err(DecodeError::BadLength));
    }

    #[test]
    fn overlong_varint_detected() {
        let bytes = [0xFFu8; 11];
        assert_eq!(Reader::new(&bytes).u64(), Err(DecodeError::Overlong));
    }

    #[test]
    fn fnv64_known_values() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(fnv64_continue(fnv64(b"ab"), b"cd"), fnv64(b"abcd"));
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v: u64) {
            let mut w = Writer::new();
            w.u64(v);
            let bytes = w.into_bytes();
            prop_assert_eq!(Reader::new(&bytes).u64().unwrap(), v);
        }

        #[test]
        fn prop_i64_roundtrip(v: i64) {
            let mut w = Writer::new();
            w.i64(v);
            let bytes = w.into_bytes();
            prop_assert_eq!(Reader::new(&bytes).i64().unwrap(), v);
        }

        #[test]
        fn prop_mixed_sequence_roundtrip(vals in proptest::collection::vec((any::<u64>(), any::<i64>(), ".{0,12}"), 0..20)) {
            let mut w = Writer::new();
            for (u, i, s) in &vals {
                w.u64(*u);
                w.i64(*i);
                w.str(s);
            }
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            for (u, i, s) in &vals {
                prop_assert_eq!(r.u64().unwrap(), *u);
                prop_assert_eq!(r.i64().unwrap(), *i);
                prop_assert_eq!(&r.str().unwrap(), s);
            }
            prop_assert!(r.is_done());
        }
    }
}
