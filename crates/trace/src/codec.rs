//! The byte codec every binary format in the workspace is written
//! with: EDXT uploads ([`crate::wire`]), the daemon's EDXF frames, EDXC
//! checkpoints and EDXS segments. Length-prefixed strings, fixed-width
//! little-endian integers, and a reader whose every underrun is a typed
//! error (never a panic), so corrupt input maps to diagnosis, not a
//! crash. Each format maps [`CodecError`] into its own error type.

use std::fmt;

/// A read failure: the field being read and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// The field the reader was decoding.
    pub field: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl CodecError {
    fn new(field: &'static str, detail: impl Into<String>) -> Self {
        CodecError {
            field,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.detail)
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer that takes `capacity` bytes before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Raw bytes, no length prefix.
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian IEEE-754 `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u32` length prefix + UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `u32` length prefix + raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// A presence flag (`1`, or `0` for `None`), then the value when
    /// present.
    pub fn opt<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        match v {
            Some(v) => {
                self.u8(1);
                write(self, v);
            }
            None => self.u8(0),
        }
    }

    /// The bytes written so far.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked byte reader. A clone is a saved position: reading
/// from it again yields the bytes consumed since (a section's CRC).
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

// The fixed-width reads are `#[inline]`: every decoder calls them per
// field, the partial decoder from another crate, and out of line they
// cost the upload decoder ~10 % of its parse time.
impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The next `n` bytes as one slice, no length prefix.
    #[inline]
    pub fn raw(
        &mut self,
        n: usize,
        field: &'static str,
    ) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(
                field,
                format!("need {n} byte(s), {} left", self.remaining()),
            ));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.raw(1, field)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.raw(4, field)?.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.raw(8, field)?.try_into().unwrap()))
    }

    /// A little-endian IEEE-754 `f64`.
    #[inline]
    pub fn f64(&mut self, field: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.raw(8, field)?.try_into().unwrap()))
    }

    /// A `u64` that must fit in `usize` (indexes, counts).
    pub fn usize(&mut self, field: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.u64(field)?)
            .map_err(|_| CodecError::new(field, "value exceeds usize"))
    }

    /// What [`Writer::str`] wrote.
    pub fn str(&mut self, field: &'static str) -> Result<String, CodecError> {
        let len = self.u32(field)? as usize;
        let bytes = self.raw(len, field)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::new(field, e.to_string()))
    }

    /// What [`Writer::bytes`] wrote.
    pub fn bytes(
        &mut self,
        field: &'static str,
    ) -> Result<Vec<u8>, CodecError> {
        let len = self.u32(field)? as usize;
        Ok(self.raw(len, field)?.to_vec())
    }

    /// Reads what [`Writer::opt`] wrote: a presence flag (any nonzero
    /// byte means present), then the value when present.
    pub fn opt<T>(
        &mut self,
        flag: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        if self.u8(flag)? != 0 {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(1 << 40);
        w.f64(-2.5);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), 1 << 40);
        assert_eq!(r.f64("d").unwrap(), -2.5);
        assert_eq!(r.str("e").unwrap(), "héllo");
        assert_eq!(r.bytes("f").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn underruns_are_typed_errors_naming_the_field() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.u32("count").unwrap_err();
        assert_eq!(err.to_string(), "count: need 4 byte(s), 2 left");
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.into_vec();
        let err = Reader::new(&buf).str("name").unwrap_err();
        assert_eq!(err.field, "name");
        assert!(err.detail.contains("utf-8"), "{err}");
    }
}
