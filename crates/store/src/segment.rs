//! Segment file layout.
//!
//! ```text
//! magic  "OFHSTOR1"                      8 bytes
//! version u32
//! table_count u32
//! TOC: table_count × { name: string, offset u64, len u64 }
//! …8-aligned table payloads…
//! ```
//!
//! A table payload:
//!
//! ```text
//! row_count u64
//! column_count u32
//! directory: column_count × { name: string, kind u8, offset u64, len u64 }
//!     (offsets relative to the table payload start)
//! …8-aligned column payloads…
//! ```
//!
//! Nothing in the file depends on anything but the logical content: no
//! timestamps, no hash-ordered iteration, padding is always zero. Two
//! builds from the same artifacts produce identical bytes, which is what
//! lets CI `cmp` store files across worker counts.

use std::collections::BTreeMap;

use crate::bytes::{FormatError, Reader, Result, Writer};
use crate::column::{
    BitsetView, DictView, T64View, U16View, U32View, KIND_BITSET, KIND_DICT8, KIND_T64, KIND_U16,
    KIND_U32,
};

pub const MAGIC: &[u8; 8] = b"OFHSTOR1";
pub const VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Accumulates encoded columns into one table payload.
pub struct TableBuilder {
    rows: u64,
    cols: Vec<(String, u8, Vec<u8>)>,
}

impl TableBuilder {
    pub fn new(rows: usize) -> TableBuilder {
        TableBuilder {
            rows: rows as u64,
            cols: Vec::new(),
        }
    }

    /// Add an encoded column payload under `name`.
    pub fn column(&mut self, name: &str, kind: u8, payload: Writer) {
        self.cols.push((name.to_string(), kind, payload.buf));
    }

    /// Serialize: header + directory + 8-aligned payloads.
    pub fn finish(self) -> Vec<u8> {
        // Directory size must be known before payload offsets can be fixed;
        // lay the header out once with zero offsets to measure it.
        let mut header = Writer::new();
        header.u64(self.rows);
        header.u32(self.cols.len() as u32);
        for (name, kind, _) in &self.cols {
            header.string(name);
            header.u8(*kind);
            header.u64(0);
            header.u64(0);
        }
        header.align8();
        let header_len = header.len();

        let mut offsets = Vec::with_capacity(self.cols.len());
        let mut at = header_len;
        for (_, _, payload) in &self.cols {
            offsets.push((at as u64, payload.len() as u64));
            at += payload.len();
            at = at.div_ceil(8) * 8;
        }

        let mut w = Writer::new();
        w.u64(self.rows);
        w.u32(self.cols.len() as u32);
        for ((name, kind, _), (off, len)) in self.cols.iter().zip(&offsets) {
            w.string(name);
            w.u8(*kind);
            w.u64(*off);
            w.u64(*len);
        }
        w.align8();
        debug_assert_eq!(w.len(), header_len);
        for (_, _, payload) in &self.cols {
            w.bytes(payload);
            w.align8();
        }
        w.buf
    }
}

/// Accumulates table payloads into one segment file.
pub struct SegmentWriter {
    tables: Vec<(String, Vec<u8>)>,
}

impl SegmentWriter {
    pub fn new() -> SegmentWriter {
        SegmentWriter { tables: Vec::new() }
    }

    pub fn table(&mut self, name: &str, payload: Vec<u8>) {
        self.tables.push((name.to_string(), payload));
    }

    pub fn finish(self) -> Vec<u8> {
        let mut header = Writer::new();
        header.bytes(MAGIC);
        header.u32(VERSION);
        header.u32(self.tables.len() as u32);
        for (name, _) in &self.tables {
            header.string(name);
            header.u64(0);
            header.u64(0);
        }
        header.align8();
        let header_len = header.len();

        let mut offsets = Vec::with_capacity(self.tables.len());
        let mut at = header_len;
        for (_, payload) in &self.tables {
            offsets.push((at as u64, payload.len() as u64));
            at += payload.len();
            at = at.div_ceil(8) * 8;
        }

        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u32(self.tables.len() as u32);
        for ((name, _), (off, len)) in self.tables.iter().zip(&offsets) {
            w.string(name);
            w.u64(*off);
            w.u64(*len);
        }
        w.align8();
        debug_assert_eq!(w.len(), header_len);
        for (_, payload) in &self.tables {
            w.bytes(payload);
            w.align8();
        }
        w.buf
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A parsed column: typed view plus its directory entry.
#[derive(Debug, Clone)]
pub enum Column {
    U32(U32View),
    U16(U16View),
    Dict(DictView),
    T64(T64View),
    Bitset(BitsetView),
}

/// A parsed table: row count and views by column name. Views hold absolute
/// file offsets; pair them with the mapped bytes to read rows.
#[derive(Debug, Clone)]
pub struct TableView {
    pub rows: usize,
    pub columns: BTreeMap<String, Column>,
}

impl TableView {
    /// Parse a table payload found at `[off, off+len)` of `file`. A
    /// column's format error names the column.
    pub fn parse(file: &[u8], off: usize, len: usize) -> Result<TableView> {
        let end = off
            .checked_add(len)
            .filter(|&end| end <= file.len())
            .ok_or_else(|| FormatError("table outside the file".into()))?;
        let mut r = Reader::at(file, off);
        let rows = r.u64()? as usize;
        // A directory entry is at least a one-byte name length, the kind
        // and two u64s.
        let n = r.count("column", 18)?;
        let mut columns = BTreeMap::new();
        let mut dir = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.string()?;
            let kind = r.u8()?;
            let col_off = r.u64()? as usize;
            let col_len = r.u64()? as usize;
            dir.push((name, kind, col_off, col_len));
        }
        for (name, kind, col_off, col_len) in dir {
            let abs = off
                .checked_add(col_off)
                .filter(|&a| a.checked_add(col_len).is_some_and(|col_end| col_end <= end))
                .ok_or_else(|| FormatError(format!("column {name} outside its table")))?;
            let col = match kind {
                KIND_U32 => U32View::parse(file, abs, col_len, rows).map(Column::U32),
                KIND_U16 => U16View::parse(file, abs, col_len, rows).map(Column::U16),
                KIND_DICT8 => DictView::parse(file, abs, col_len, rows).map(Column::Dict),
                KIND_T64 => T64View::parse(file, abs, col_len, rows).map(Column::T64),
                KIND_BITSET => BitsetView::parse(file, abs, col_len, rows).map(Column::Bitset),
                k => Err(FormatError(format!("unknown kind {k}"))),
            }
            .map_err(|e| FormatError(format!("column {name}: {}", e.0)))?;
            columns.insert(name, col);
        }
        Ok(TableView { rows, columns })
    }

    fn col(&self, name: &str) -> Result<&Column> {
        self.columns
            .get(name)
            .ok_or_else(|| FormatError(format!("missing column {name}")))
    }

    pub fn u32(&self, name: &str) -> Result<&U32View> {
        match self.col(name)? {
            Column::U32(v) => Ok(v),
            _ => Err(FormatError(format!("column {name} is not U32"))),
        }
    }

    pub fn u16(&self, name: &str) -> Result<&U16View> {
        match self.col(name)? {
            Column::U16(v) => Ok(v),
            _ => Err(FormatError(format!("column {name} is not U16"))),
        }
    }

    pub fn dict(&self, name: &str) -> Result<&DictView> {
        match self.col(name)? {
            Column::Dict(v) => Ok(v),
            _ => Err(FormatError(format!("column {name} is not DICT8"))),
        }
    }

    pub fn t64(&self, name: &str) -> Result<&T64View> {
        match self.col(name)? {
            Column::T64(v) => Ok(v),
            _ => Err(FormatError(format!("column {name} is not T64"))),
        }
    }

    pub fn bitset(&self, name: &str) -> Result<&BitsetView> {
        match self.col(name)? {
            Column::Bitset(v) => Ok(v),
            _ => Err(FormatError(format!("column {name} is not BITSET"))),
        }
    }
}

/// The parsed segment: tables by name.
#[derive(Debug, Clone)]
pub struct SegmentView {
    pub tables: BTreeMap<String, TableView>,
}

impl SegmentView {
    pub fn parse(file: &[u8]) -> Result<SegmentView> {
        let mut r = Reader::new(file);
        let magic = r.slice(8)?;
        if magic != MAGIC {
            return Err(FormatError("bad magic: not an ofh_store segment".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(FormatError(format!("unsupported store version {version}")));
        }
        // A TOC entry is at least a one-byte name length and two u64s.
        let n = r.count("table", 17)?;
        let mut toc = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.string()?;
            let off = r.u64()? as usize;
            let len = r.u64()? as usize;
            toc.push((name, off, len));
        }
        let mut tables = BTreeMap::new();
        for (name, off, len) in toc {
            if off.checked_add(len).is_none_or(|end| end > file.len()) {
                return Err(FormatError(format!("table {name} outside the file")));
            }
            let table = TableView::parse(file, off, len)
                .map_err(|e| FormatError(format!("table {name}, {}", e.0)))?;
            tables.insert(name, table);
        }
        Ok(SegmentView { tables })
    }

    pub fn table(&self, name: &str) -> Result<&TableView> {
        self.tables
            .get(name)
            .ok_or_else(|| FormatError(format!("missing table {name}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{encode_bitset, encode_t64, encode_u16, encode_u32, DictBuilder};

    #[test]
    fn segment_roundtrip() {
        let rows = 2000usize;
        let addrs: Vec<u32> = (0..rows as u32).map(|i| i * 7).collect();
        let ports: Vec<u16> = (0..rows as u16).collect();
        let times: Vec<u64> = (0..rows as u64).map(|i| i * 3).collect();
        let flags: Vec<bool> = (0..rows).map(|i| i % 5 == 0).collect();
        let mut dict = DictBuilder::new();
        for i in 0..rows {
            dict.push(if i % 2 == 0 { "even" } else { "odd" });
        }

        let mut tb = TableBuilder::new(rows);
        let mut w = Writer::new();
        encode_u32(&mut w, &addrs, true);
        tb.column("addr", KIND_U32, w);
        let mut w = Writer::new();
        encode_u16(&mut w, &ports);
        tb.column("port", KIND_U16, w);
        let mut w = Writer::new();
        encode_t64(&mut w, &times);
        tb.column("time", KIND_T64, w);
        let mut w = Writer::new();
        encode_bitset(&mut w, &flags);
        tb.column("flag", KIND_BITSET, w);
        let mut w = Writer::new();
        dict.encode(&mut w);
        tb.column("parity", KIND_DICT8, w);

        let mut seg = SegmentWriter::new();
        seg.table("t", tb.finish());
        let file = seg.finish();

        let view = SegmentView::parse(&file).unwrap();
        let t = view.table("t").unwrap();
        assert_eq!(t.rows, rows);
        assert_eq!(t.u32("addr").unwrap().get(&file, 3), 21);
        assert_eq!(t.u16("port").unwrap().get(&file, 1999), 1999);
        assert_eq!(t.dict("parity").unwrap().label(&file, 3), "odd");
        assert_eq!(t.bitset("flag").unwrap().get(&file, 5), true);
        assert_eq!(t.bitset("flag").unwrap().get(&file, 6), false);
        let mut n = 0u64;
        t.t64("time").unwrap().for_each_in_range(&file, 0, u64::MAX, |_, _| n += 1).unwrap();
        assert_eq!(n, rows as u64);
        assert!(t.u32("missing").is_err());
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(SegmentView::parse(b"NOTSTORE\0\0\0\0").is_err());
        assert!(SegmentView::parse(b"").is_err());
    }

    #[test]
    fn deterministic_bytes() {
        let build = || {
            let mut tb = TableBuilder::new(3);
            let mut w = Writer::new();
            encode_u32(&mut w, &[9, 8, 7], true);
            tb.column("x", KIND_U32, w);
            let mut seg = SegmentWriter::new();
            seg.table("only", tb.finish());
            seg.finish()
        };
        assert_eq!(build(), build());
    }
}
