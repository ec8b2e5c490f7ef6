//! Decode the rows of Tables 4, 5 and 7 from the store's columns.
//!
//! Each of these tables is one fold over typed rows in `ofh_analysis`
//! ([`Table4::fold`], [`Table5::fold`], [`Table7::fold`]), fed live by the
//! study and here by rows decoded, in the study's order, from the `scan`
//! and `events` tables; this module counts nothing itself.
//!
//! Decoding fails closed with a [`FormatError`]: for a dictionary label
//! outside its enum's known set (it would otherwise count as a value the
//! store never saw), and for scan rows out of (source, addr) order, which
//! Table 4's walk relies on. A known label missing from a dictionary is
//! fine: a source that found nothing writes no label, and counts zero.

use std::net::Ipv4Addr;

use ofh_analysis::rows::{EventRow, ScanRow, ScanSource};
use ofh_analysis::table4::Table4;
use ofh_analysis::table5::Table5;
use ofh_analysis::table7::Table7;
use ofh_analysis::SourceClass;
use ofh_devices::Misconfig;
use ofh_honeypots::HoneypotKind;
use ofh_wire::Protocol;

use crate::build::NONE_LABEL;
use crate::bytes::{FormatError, Result};
use crate::query::StoreReader;
use crate::segment::TableView;

/// A dictionary column of `t` read as `T`: each of its labels is the value
/// among `known` that `label` spells that way, and a label outside `known`
/// is an error.
fn dict_column<'a, T: Copy + 'a>(
    t: &'a TableView,
    file: &'a [u8],
    column: &str,
    known: &[T],
    label: fn(T) -> &'static str,
) -> Result<impl Fn(usize) -> T + 'a> {
    let dict = t.dict(column)?;
    let values: Vec<T> = dict
        .labels
        .iter()
        .map(|l| {
            known
                .iter()
                .copied()
                .find(|&v| label(v) == l)
                .ok_or_else(|| FormatError(format!("unknown {column} label {l:?}")))
        })
        .collect::<Result<_>>()?;
    Ok(move |row| values[dict.code(file, row) as usize])
}

/// The `scan` table's rows, in stored order: each source's records in
/// turn, by address.
pub fn scan_rows(store: &StoreReader) -> Result<impl Iterator<Item = ScanRow> + '_> {
    let (file, t) = (store.bytes(), store.table("scan")?);
    let source = dict_column(t, file, "source", &ScanSource::ALL, ScanSource::label)?;
    let protocol = dict_column(t, file, "protocol", &Protocol::ALL, Protocol::name)?;
    let classes: Vec<Option<Misconfig>> =
        std::iter::once(None).chain(Misconfig::ALL.map(Some)).collect();
    let misconfig = dict_column(t, file, "misconfig", &classes, |m| {
        m.map_or(NONE_LABEL, Misconfig::label)
    })?;
    let addrs = t.u32("addr")?;
    let hp_filtered = t.bitset("hp_filtered")?;
    if !(0..t.rows).map(|row| (source(row), addrs.get(file, row))).is_sorted() {
        return Err(FormatError("scan rows are out of (source, addr) order".into()));
    }
    Ok((0..t.rows).map(move |row| ScanRow {
        source: source(row),
        addr: Ipv4Addr::from(addrs.get(file, row)),
        protocol: protocol(row),
        misconfig: misconfig(row),
        hp_filtered: hp_filtered.get(file, row),
    }))
}

/// The `events` table's rows, in stored (time) order.
pub fn event_rows(store: &StoreReader) -> Result<impl Iterator<Item = EventRow> + '_> {
    let (file, t) = (store.bytes(), store.table("events")?);
    let honeypot = dict_column(t, file, "honeypot", &HoneypotKind::ALL, HoneypotKind::name)?;
    let protocol = dict_column(t, file, "protocol", &Protocol::ALL, Protocol::name)?;
    let src_class = dict_column(t, file, "src_class", &SourceClass::ALL, SourceClass::label)?;
    let srcs = t.u32("src")?;
    Ok((0..t.rows).map(move |row| EventRow {
        honeypot: honeypot(row),
        protocol: protocol(row),
        src: Ipv4Addr::from(srcs.get(file, row)),
        src_class: src_class(row),
    }))
}

/// Table 4 — unique exposed hosts per (source, protocol).
pub fn table4(store: &StoreReader) -> Result<Table4> {
    Ok(Table4::fold(scan_rows(store)?))
}

/// Table 5 — misconfigured ZMap devices per class, honeypot rows filtered.
pub fn table5(store: &StoreReader) -> Result<Table5> {
    Ok(Table5::fold(scan_rows(store)?))
}

/// Table 7 — events per (honeypot, protocol) plus per-honeypot unique
/// source splits, read from the stored `src_class` column.
pub fn table7(store: &StoreReader) -> Result<Table7> {
    Ok(Table7::fold(event_rows(store)?))
}
