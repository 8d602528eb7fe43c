//! # sfcc-codec
//!
//! A compact, self-validating binary codec (LEB128 varints, zigzag signed
//! encoding, length-prefixed strings, FNV-64 checksums) and the one front
//! door of every persisted file: [`armor`] frames a payload as magic,
//! version, payload and the payload's FNV-64, [`unarmor`] checks all four,
//! and [`open`] checks the header of a format that keeps its own trailer.
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

/// FNV-1a 64 taken piece by piece, with the integer pieces written as the
/// text `{}` (decimal) or `{:x}` (lower hex) would format them — so a
/// stamp defined over `format!`ed text is computed without formatting or
/// allocating: `Fnv64::new().str("a=").dec(10).finish() == fnv64(b"a=10")`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// The hash of nothing.
    pub fn new() -> Self {
        Fnv64(fnv64(&[]))
    }

    /// Hashes `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.0 = fnv64_continue(self.0, bytes);
        self
    }

    /// Hashes `s`.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Hashes `v` in decimal, as `{}` formats it.
    pub fn dec(&mut self, mut v: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.bytes(&digits[at..])
    }

    /// Hashes `v` in lower-case hex, as `{:x}` formats it.
    pub fn hex(&mut self, mut v: u128) -> &mut Self {
        let mut digits = [0u8; 32];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b"0123456789abcdef"[(v & 0xf) as usize];
            v >>= 4;
            if v == 0 {
                break;
            }
        }
        self.bytes(&digits[at..])
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes what is written, so any `Display` or printer that writes to a
/// `fmt::Write` hashes its text without building it.
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.str(s);
        Ok(())
    }
}

/// Magic, the `u32` version, the payload `write` appends, and the FNV-64
/// of the payload: the framing of every persisted file whose trailer covers
/// its payload. [`unarmor`] reads it back.
pub fn armor(magic: &[u8], version: u32, write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut out = Writer::new();
    out.raw(magic);
    out.u32(version);
    let start = out.len();
    write(&mut out);
    let checksum = fnv64(&out.as_bytes()[start..]);
    out.u64(checksum);
    out.into_bytes()
}

/// Checks a file [`armor`] wrote — magic, version, the payload's FNV-64,
/// nothing after it — and hands the payload to `read`, which decodes it.
///
/// # Errors
///
/// `BadMagic` or `BadVersion` for another format, `Corrupt` when the
/// trailer does not match or bytes follow it, and whatever `read` or the
/// trailer's varint fail with.
pub fn unarmor<'a, T>(
    bytes: &'a [u8],
    magic: &[u8],
    version: u32,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = open(bytes, magic, version)?;
    let start = r.pos;
    let value = read(&mut r)?;
    let end = r.pos;
    let declared = r.u64()?;
    if !r.is_done() || fnv64(&bytes[start..end]) != declared {
        return Err(DecodeError::Corrupt);
    }
    Ok(value)
}

/// Checks a file's magic and version only, for a format that checks its
/// own trailer; the reader continues after them.
///
/// # Errors
///
/// `BadMagic` when `bytes` does not start with `magic`, `BadVersion` when
/// the version is not `version`.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8], version: u32) -> Result<Reader<'a>, DecodeError> {
    if !bytes.starts_with(magic) {
        return Err(DecodeError::BadMagic);
    }
    let mut r = Reader {
        buf: bytes,
        pos: magic.len(),
    };
    match r.u32()? {
        v if v == version => Ok(r),
        v => Err(DecodeError::BadVersion(v)),
    }
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

    /// Reads a length-prefixed element count, rejected before anything is
    /// allocated for it when the remaining input could not hold that many
    /// elements (each takes at least one byte).
    ///
    /// # Errors
    ///
    /// `BadLength` for a count past the remaining input.
    pub fn count(&mut self) -> Result<usize, DecodeError> {
        let count = self.usize()?;
        if count > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        Ok(count)
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

    proptest! {
        /// Streamed integers hash as their formatted text.
        #[test]
        fn fnv64_streams_formatted_integers(v in any::<u128>(), w in any::<u64>(), s in ".{0,8}") {
            let text = format!("{s}{v:x}/{w}{w:x}");
            let mut h = Fnv64::new();
            h.str(&s).hex(v).str("/").dec(w).hex(w.into());
            prop_assert_eq!(h.finish(), fnv64(text.as_bytes()));
            let mut written = Fnv64::new();
            fmt::Write::write_fmt(&mut written, format_args!("{s}{v:x}/{w}{w:x}")).unwrap();
            prop_assert_eq!(written.finish(), h.finish());
        }
    }

    #[test]
    fn fnv64_streams_the_extremes() {
        for v in [0u64, 9, 10, 15, 16, u64::MAX] {
            let mut h = Fnv64::new();
            h.dec(v).hex(v.into());
            assert_eq!(h.finish(), fnv64(format!("{v}{v:x}").as_bytes()), "{v}");
        }
        let mut h = Fnv64::new();
        h.hex(u128::MAX);
        assert_eq!(h.finish(), fnv64(format!("{:x}", u128::MAX).as_bytes()));
    }

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

    /// An armored sample: a count of strings, the strings, a signed
    /// integer and a byte string.
    fn armored_sample() -> Vec<u8> {
        armor(b"SFCCXX\0", 3, |w| {
            w.usize(2);
            w.str("héllo");
            w.str("");
            w.i64(-300);
            w.bytes(&[0xff, 0x00, 0x80]);
        })
    }

    type Sample = (Vec<String>, i64, Vec<u8>);

    fn unarmor_sample(bytes: &[u8]) -> Result<Sample, DecodeError> {
        unarmor(bytes, b"SFCCXX\0", 3, |r| {
            let count = r.count()?;
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                names.push(r.str()?);
            }
            Ok((names, r.i64()?, r.bytes()?.to_vec()))
        })
    }

    #[test]
    fn armor_roundtrips_behind_its_header_and_trailer() {
        let bytes = armored_sample();
        assert_eq!(&bytes[..7], b"SFCCXX\0");
        let names = vec!["héllo".to_string(), String::new()];
        assert_eq!(
            unarmor_sample(&bytes),
            Ok((names, -300, vec![0xff, 0x00, 0x80]))
        );
        let mut r = open(&bytes, b"SFCCXX\0", 3).unwrap();
        assert_eq!(r.count(), Ok(2));
        assert_eq!(
            open(&bytes, b"SFCCYY\0", 3).unwrap_err(),
            DecodeError::BadMagic
        );
        assert_eq!(
            open(&bytes, b"SFCCXX\0", 4).unwrap_err(),
            DecodeError::BadVersion(3)
        );
        assert_eq!(
            open(b"SFC", b"SFCCXX\0", 3).unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn every_truncation_of_an_armored_file_is_a_typed_error() {
        let bytes = armored_sample();
        for cut in 0..bytes.len() {
            assert!(unarmor_sample(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_of_an_armored_file_is_a_typed_error() {
        let bytes = armored_sample();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(unarmor_sample(&flipped).is_err(), "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn unarmor_rejects_trailing_bytes() {
        let mut bytes = armored_sample();
        bytes.push(0);
        assert_eq!(unarmor_sample(&bytes), Err(DecodeError::Corrupt));
    }

    #[test]
    fn a_count_past_the_input_is_rejected_before_allocation() {
        // A capacity this large would abort the allocation: the count
        // must be refused first.
        let lie = armor(b"SFCCXX\0", 3, |w| {
            w.u64(u64::MAX >> 1);
            w.raw(b"ab");
        });
        assert_eq!(unarmor_sample(&lie), Err(DecodeError::BadLength));
        let mut w = Writer::new();
        w.usize(3);
        w.raw(b"abc");
        assert_eq!(
            Reader::new(&w.as_bytes()[..3]).count(),
            Err(DecodeError::BadLength)
        );
        assert_eq!(Reader::new(w.as_bytes()).count(), Ok(3));
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
