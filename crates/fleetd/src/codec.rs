//! Little byte codec shared by the checkpoint format and the wire
//! protocol: length-prefixed strings, fixed-width little-endian
//! integers, and a reader whose every underrun is a typed error
//! (never a panic) so corrupt input maps to diagnosis, not a crash.

use std::fmt;

/// A read failure: the field being read and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CodecError {
    /// The field the reader was decoding.
    pub field: &'static str,
    /// Whether the input simply ran out (truncation) as opposed to
    /// holding malformed content.
    pub truncated: bool,
    /// Human-readable detail.
    pub detail: String,
}

impl CodecError {
    fn truncated(field: &'static str, need: usize, have: usize) -> Self {
        CodecError {
            field,
            truncated: true,
            detail: format!("need {need} byte(s), {have} left"),
        }
    }

    pub(crate) fn malformed(
        field: &'static str,
        detail: impl Into<String>,
    ) -> Self {
        CodecError {
            field,
            truncated: false,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.detail)
    }
}

/// Append-only byte writer.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
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

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

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

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked byte reader.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(
        &mut self,
        n: usize,
        field: &'static str,
    ) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::truncated(field, n, self.remaining()));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, field)?[0])
    }

    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, field)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, field)?.try_into().unwrap()))
    }

    pub fn f64(&mut self, field: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8, field)?.try_into().unwrap()))
    }

    /// A `u64` that must fit in `usize` (indexes, counts).
    pub fn usize(&mut self, field: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.u64(field)?)
            .map_err(|_| CodecError::malformed(field, "value exceeds usize"))
    }

    pub fn str(&mut self, field: &'static str) -> Result<String, CodecError> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::malformed(field, e.to_string()))
    }

    pub fn bytes(
        &mut self,
        field: &'static str,
    ) -> Result<Vec<u8>, CodecError> {
        let len = self.u32(field)? as usize;
        Ok(self.take(len, field)?.to_vec())
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
    fn underruns_are_typed_truncations() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.u32("count").unwrap_err();
        assert!(err.truncated);
        assert_eq!(err.field, "count");
    }

    #[test]
    fn invalid_utf8_is_malformed_not_truncated() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.into_vec();
        let err = Reader::new(&buf).str("name").unwrap_err();
        assert!(!err.truncated);
    }
}
