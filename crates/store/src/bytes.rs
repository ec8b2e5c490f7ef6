//! Little-endian primitives for the segment format.
//!
//! Readers slice straight out of the mapped file and decode with
//! `from_le_bytes`, so nothing here requires aligned pointers — a mapped
//! section is just bytes. Every multi-byte integer in the format is
//! little-endian; variable-length integers are LEB128.

/// Append helpers used by the writer.
pub struct Writer {
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// LEB128 unsigned varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Pad with zeros to an 8-byte boundary so section offsets stay aligned
    /// (not required for correctness — reads are unaligned-safe — but keeps
    /// the layout tidy and diffable).
    pub fn align8(&mut self) {
        while self.buf.len() % 8 != 0 {
            self.buf.push(0);
        }
    }
}

/// Cursor over a mapped byte slice. All reads are bounds-checked; a
/// truncated or corrupt file surfaces as an `Err`, never a panic.
#[derive(Clone, Copy)]
pub struct Reader<'a> {
    pub buf: &'a [u8],
    pub pos: usize,
}

/// Decode error: what was being read and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError(pub String);

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store format error: {}", self.0)
    }
}

impl std::error::Error for FormatError {}

pub type Result<T> = std::result::Result<T, FormatError>;

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn at(buf: &'a [u8], pos: usize) -> Reader<'a> {
        Reader { buf, pos }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                FormatError(format!("read of {n} bytes at {} overruns {}", self.pos, self.buf.len()))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return Err(FormatError("varint wider than 64 bits".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn string(&mut self) -> Result<String> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FormatError("string section is not UTF-8".into()))
    }

    pub fn slice(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// A `u32` count of `what` entries, each at least `min_entry` bytes
    /// long, rejected when the rest of the buffer cannot hold that many —
    /// so a corrupt count fails here instead of sizing an allocation.
    pub fn count(&mut self, what: &str, min_entry: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let left = self.buf.len().saturating_sub(self.pos);
        if n.saturating_mul(min_entry) > left {
            return Err(FormatError(format!("{what} count {n} overruns the {left} bytes left")));
        }
        Ok(n)
    }
}

/// Decode one little-endian `u32` at byte offset `off` (unaligned-safe).
#[inline]
pub fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

/// Decode one little-endian `u16` at byte offset `off`.
#[inline]
pub fn u16_at(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().unwrap())
}

/// Decode one little-endian `u64` at byte offset `off`.
#[inline]
pub fn u64_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut w = Writer::new();
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX];
        for &v in &values {
            w.varint(v);
        }
        let mut r = Reader::new(&w.buf);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert_eq!(r.pos, w.buf.len());
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.u32().is_err());
        let mut r2 = Reader::new(&[0x80, 0x80]);
        assert!(r2.varint().is_err());
    }

    #[test]
    fn strings_and_alignment() {
        let mut w = Writer::new();
        w.string("columnar");
        w.align8();
        assert_eq!(w.len() % 8, 0);
        let mut r = Reader::new(&w.buf);
        assert_eq!(r.string().unwrap(), "columnar");
    }
}
