//! Zero-copy binary wire primitives for cedar's version-2 protocol.
//!
//! The version-1 protocol framed UTF-8 JSON; at "millions of users"
//! scale the service spent its arrival path in `serde_json`, not in
//! hold-vs-fold decisions. Version 2 replaces the body with a
//! hand-rolled binary layout built from exactly three ingredients:
//!
//! * **fixed-width scalars** — one tag byte per message, `f64` as its
//!   IEEE-754 bit pattern in little-endian order (bit-exact, NaN
//!   payloads and signed zeros included);
//! * **LEB128 varints** — every integer, count and byte length;
//!   small values (the common case: fan-outs, origins, counters) cost
//!   one byte;
//! * **length-prefixed byte runs** — strings and embedded payloads,
//!   returned by the reader as *borrowed* `&str` / `&[u8]` views into
//!   the frame body, so decoding never copies or re-allocates them.
//!
//! There is deliberately no intermediate document model (no
//! `serde_json::Value`, no DOM): encoders append straight into a
//! caller-owned `Vec<u8>` (reusable across frames, so steady-state
//! encoding allocates nothing) and decoders walk the borrowed body
//! once, front to back.
//!
//! The framing *around* a body is a 4-byte big-endian length, then the
//! version byte `0x02`, then the body. See `cedar_server::proto` for the
//! framing and its refusal of every other version, and
//! `cedar_server::wire2` / `cedar_mesh::wire` for the message layouts
//! built on these primitives.

use std::fmt;

pub mod crc;
pub use crc::crc32;

/// Protocol version byte that announces a binary body, the one framing
/// served. (`0` was legacy bare JSON and `1` versioned JSON; both are
/// now refused.)
pub const BINARY_VERSION: u8 = 2;

/// Longest legal LEB128 encoding of a `u64`: 10 bytes of 7 payload bits.
const MAX_VARINT_BYTES: usize = 10;

/// A malformed binary body. Decoding is total: every error is one of
/// these, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the value it promised.
    Truncated,
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow,
    /// A varint spent more bytes than its value needs (a trailing
    /// zero-payload continuation byte). The writer emits exactly one
    /// encoding per value; accepting padded forms would break
    /// decode-then-encode identity and open a frame-aliasing hole.
    NonCanonicalVarint,
    /// A declared length exceeds the bytes actually present.
    LengthOverrun {
        /// Bytes the field claimed.
        declared: usize,
        /// Bytes actually left in the body.
        available: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A tag byte outside the message's defined set.
    BadTag(u8),
    /// A boolean byte other than 0 or 1.
    BadBool(u8),
    /// A flag byte carrying bits outside the message's defined set, an
    /// inconsistent combination, or an empty optional flag block. Flag
    /// bytes gate optional fields; accepting undefined bits would decode
    /// a future revision's frame into a silently lossy message.
    UnknownFlags(u8),
    /// Decoding finished with bytes left over — the body was laid out
    /// for a different message than the one decoded.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "body truncated mid-value"),
            WireError::VarintOverflow => write!(f, "varint overflows u64"),
            WireError::NonCanonicalVarint => {
                write!(f, "varint is longer than its value requires")
            }
            WireError::LengthOverrun {
                declared,
                available,
            } => write!(
                f,
                "field declares {declared} bytes but only {available} remain"
            ),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            WireError::BadBool(b) => write!(f, "boolean byte 0x{b:02x} is neither 0 nor 1"),
            WireError::UnknownFlags(b) => {
                write!(
                    f,
                    "flag byte 0x{b:02x} carries unknown or inconsistent bits"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} bytes left over after decode"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Decode result alias.
pub type Result<T> = std::result::Result<T, WireError>;

/// Appends binary values to a caller-owned buffer.
///
/// The writer never fails: everything it encodes has exactly one
/// representation. Reuse the underlying `Vec` across frames (clear it,
/// keep the capacity) and steady-state encoding performs no heap
/// allocation.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Wraps `buf`, appending after its current contents.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf }
    }

    /// One raw byte (tags, version markers).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A boolean as one byte, `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// A `u64` as LEB128: 7 bits per byte, high bit = continuation.
    pub fn uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A `usize` as a varint.
    pub fn usize(&mut self, v: usize) {
        self.uvarint(v as u64);
    }

    /// An `f64` as its bit pattern, little-endian. Bit-exact: NaN
    /// payloads, signed zeros and infinities all round-trip.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A byte run: varint length, then the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// A string as a length-prefixed UTF-8 run.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Bytes appended so far (including anything present before `new`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Walks a borrowed binary body front to back without copying.
///
/// Strings and byte runs come back as views (`&'a str`, `&'a [u8]`)
/// into the body — the reader allocates nothing. Every method is total:
/// malformed input yields a [`WireError`], never a panic.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a frame body.
    pub fn new(body: &'a [u8]) -> Self {
        Self { body, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    /// Whether the body is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Asserts the body is fully consumed; the decode-complete check.
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8> {
        let b = *self.body.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// A boolean byte; anything but 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    /// A LEB128 `u64`. Only the minimal encoding is accepted: a final
    /// byte with a zero payload (after the first) pads the value and is
    /// rejected as [`WireError::NonCanonicalVarint`], so every `u64` has
    /// exactly one wire form and decode∘encode is the identity.
    pub fn uvarint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        for i in 0..MAX_VARINT_BYTES {
            let b = self.u8()?;
            let payload = u64::from(b & 0x7f);
            // The 10th byte may only carry the single remaining bit.
            if i == MAX_VARINT_BYTES - 1 && payload > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= payload << (7 * i);
            if b & 0x80 == 0 {
                if payload == 0 && i > 0 {
                    return Err(WireError::NonCanonicalVarint);
                }
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// A varint decoded into `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.uvarint()?).map_err(|_| WireError::VarintOverflow)
    }

    /// An `f64` from its little-endian bit pattern; bit-exact.
    pub fn f64(&mut self) -> Result<f64> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        let chunk = self.body.get(self.pos..end).ok_or(WireError::Truncated)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(chunk);
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    /// A length-prefixed byte run, borrowed from the body.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.usize()?;
        let available = self.remaining();
        if len > available {
            return Err(WireError::LengthOverrun {
                declared: len,
                available,
            });
        }
        let view = &self.body[self.pos..self.pos + len];
        self.pos += len;
        Ok(view)
    }

    /// A length-prefixed UTF-8 string, borrowed from the body.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(0x42);
        w.bool(true);
        w.bool(false);
        w.uvarint(0);
        w.uvarint(127);
        w.uvarint(128);
        w.uvarint(u64::MAX);
        w.f64(1.5);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.f64(f64::NEG_INFINITY);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0x42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.uvarint().unwrap(), 0);
        assert_eq!(r.uvarint().unwrap(), 127);
        assert_eq!(r.uvarint().unwrap(), 128);
        assert_eq!(r.uvarint().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            Writer::new(&mut buf).uvarint(v);
            assert_eq!(Reader::new(&buf).uvarint().unwrap(), v, "v={v}");
        }
    }

    #[test]
    fn strings_and_bytes_are_borrowed_views() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.str("hold-em");
        w.bytes(&[1, 2, 3]);
        w.str("");
        let mut r = Reader::new(&buf);
        let s = r.str().unwrap();
        let b = r.bytes().unwrap();
        assert_eq!(s, "hold-em");
        assert_eq!(b, &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "");
        // Views alias the body buffer: same allocation, no copy.
        let body_range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        assert!(body_range.contains(&(s.as_ptr() as usize)));
        assert!(body_range.contains(&(b.as_ptr() as usize)));
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncation_errors_cleanly() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.uvarint(123_456);
        w.f64(2.75);
        w.str("tail");
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            // Drain until an error; no cut may panic or hang.
            let mut steps = 0;
            loop {
                let before = r.remaining();
                if r.uvarint().is_err() || r.remaining() == before {
                    break;
                }
                steps += 1;
                assert!(steps < 64);
            }
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes: more than a u64 can hold.
        let buf = [0xff; 11];
        assert_eq!(
            Reader::new(&buf).uvarint().unwrap_err(),
            WireError::VarintOverflow
        );
        // 10 bytes with too-high final payload overflows too.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        assert_eq!(
            Reader::new(&overflow).uvarint().unwrap_err(),
            WireError::VarintOverflow
        );
    }

    #[test]
    fn padded_varint_is_rejected() {
        // 0x80 0x00 encodes 0 in two bytes; only plain 0x00 is legal.
        assert_eq!(
            Reader::new(&[0x80, 0x00]).uvarint().unwrap_err(),
            WireError::NonCanonicalVarint
        );
        // 0xff 0x00 pads 127 to two bytes.
        assert_eq!(
            Reader::new(&[0xff, 0x00]).uvarint().unwrap_err(),
            WireError::NonCanonicalVarint
        );
        // Every canonical boundary value still decodes.
        for v in [0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX] {
            let mut buf = Vec::new();
            Writer::new(&mut buf).uvarint(v);
            assert_eq!(Reader::new(&buf).uvarint().unwrap(), v, "v={v}");
        }
    }

    #[test]
    fn length_overrun_is_typed() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).usize(100);
        buf.push(7);
        let err = Reader::new(&buf).bytes().unwrap_err();
        assert_eq!(
            err,
            WireError::LengthOverrun {
                declared: 100,
                available: 1
            }
        );
    }

    #[test]
    fn bad_utf8_and_bool_and_trailing() {
        let mut buf = Vec::new();
        {
            let mut w = Writer::new(&mut buf);
            w.usize(2);
        }
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Reader::new(&buf).str().unwrap_err(), WireError::BadUtf8);

        assert_eq!(Reader::new(&[9]).bool().unwrap_err(), WireError::BadBool(9));

        let mut r = Reader::new(&[1, 2, 3]);
        let _ = r.u8();
        assert_eq!(r.finish().unwrap_err(), WireError::TrailingBytes(2));
    }

    #[test]
    fn reused_buffer_keeps_capacity() {
        let mut buf = Vec::with_capacity(64);
        for _ in 0..3 {
            buf.clear();
            let mut w = Writer::new(&mut buf);
            w.str("steady-state");
            w.f64(1.0);
            assert!(!w.is_empty());
            assert!(w.len() <= 64);
        }
        assert!(buf.capacity() >= 64);
    }
}
