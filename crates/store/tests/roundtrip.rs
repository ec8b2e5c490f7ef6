//! Property tests: every column codec must round-trip arbitrary inputs
//! through a full segment (encode → TableBuilder → SegmentWriter → parse),
//! the indexed access paths (zone maps, bitmaps, T64 block directory)
//! must agree with a naive linear scan over the same data, and a corrupt
//! dictionary code must fail the parse.
//!
//! The end-to-end variant — store-derived study tables equal to the
//! in-memory `StudyReport` ones across random seeds — lives in the
//! workspace `tests/store_roundtrip.rs`, where both `ofh-core` and
//! `ofh-store` are visible.

use ofh_store::bytes::Writer;
use ofh_store::column::{
    encode_bitset, encode_t64, encode_u16, encode_u32, DictBuilder, KIND_BITSET, KIND_DICT8,
    KIND_T64, KIND_U16, KIND_U32,
};
use ofh_store::segment::{SegmentView, SegmentWriter, TableBuilder, TableView};
use proptest::prelude::*;

/// A one-table segment holding the given encoded columns.
fn segment(rows: usize, columns: Vec<(&str, u8, Writer)>) -> Vec<u8> {
    let mut table = TableBuilder::new(rows);
    for (name, kind, payload) in columns {
        table.column(name, kind, payload);
    }
    let mut seg = SegmentWriter::new();
    seg.table("t", table.finish());
    seg.finish()
}

/// Build a one-table segment with the given encoded columns and parse it
/// back — every test goes through the same full file path a real store
/// does, so header/offset bugs can't hide.
fn roundtrip(rows: usize, columns: Vec<(&str, u8, Writer)>) -> (Vec<u8>, TableView) {
    let file = segment(rows, columns);
    let view = SegmentView::parse(&file).expect("segment parses");
    let table = view.tables.get("t").expect("table present").clone();
    (file, table)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn u32_roundtrip_and_find_eq(values in prop::collection::vec(0u32..5000, 0..3000)) {
        let mut w = Writer::new();
        encode_u32(&mut w, &values, true);
        let (file, t) = roundtrip(values.len(), vec![("v", KIND_U32, w)]);
        let v = t.u32("v").unwrap();
        for (i, &x) in values.iter().enumerate() {
            prop_assert_eq!(v.get(&file, i), x);
        }
        // Zone-pruned equality search agrees with the linear scan, for a
        // value that exists (usually) and one that never does.
        for needle in [values.first().copied().unwrap_or(7), 1_000_000] {
            let naive: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|&(_, &x)| x == needle)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(v.find_eq(&file, needle), naive);
        }
    }

    #[test]
    fn u16_roundtrip(values in prop::collection::vec(any::<u16>(), 0..3000)) {
        let mut w = Writer::new();
        encode_u16(&mut w, &values);
        let (file, t) = roundtrip(values.len(), vec![("v", KIND_U16, w)]);
        let v = t.u16("v").unwrap();
        for (i, &x) in values.iter().enumerate() {
            prop_assert_eq!(v.get(&file, i), x);
        }
    }

    #[test]
    fn dict_roundtrip_and_bitmap_counts(
        codes in prop::collection::vec(0usize..12, 1..3000),
        corrupt in (any::<prop::sample::Index>(), any::<u8>()),
    ) {
        // Labels drawn from a fixed small alphabet, so bitmap counts are
        // non-trivial; first-appearance order decides the code assignment.
        let alphabet = [
            "Telnet", "CoAP", "MQTT", "AMQP", "XMPP", "UPnP",
            "DE", "US", "CN", "-", "scanning_service", "malicious",
        ];
        let labels: Vec<&str> = codes.iter().map(|&c| alphabet[c]).collect();
        let mut d = DictBuilder::new();
        for l in &labels {
            d.push(l);
        }
        let mut w = Writer::new();
        d.encode(&mut w);
        let mut bad = Writer { buf: w.buf.clone() };
        let (file, t) = roundtrip(labels.len(), vec![("v", KIND_DICT8, w)]);
        let v = t.dict("v").unwrap();
        for (i, &l) in labels.iter().enumerate() {
            prop_assert_eq!(v.label(&file, i), l);
        }
        // Per-label popcount over the bitmap index equals the naive count,
        // and unknown labels have no code.
        for l in alphabet {
            let naive = labels.iter().filter(|&&x| x == l).count() as u64;
            match v.code_of(l) {
                Some(code) => prop_assert_eq!(v.count(&file, code), naive),
                None => prop_assert_eq!(naive, 0),
            }
        }
        prop_assert_eq!(v.code_of("never-stored"), None);

        // A row code at or past the dictionary's length fails the parse,
        // before any read could index past the dictionary. The payload is
        // the label count, the labels (each a one-byte length and its
        // bytes), then one code per row.
        let n = v.labels.len();
        let codes_at = 2 + v.labels.iter().map(|l| 1 + l.len()).sum::<usize>();
        let row = corrupt.0.index(labels.len());
        bad.buf[codes_at + row] = (n + usize::from(corrupt.1) % (256 - n)) as u8;
        let file = segment(labels.len(), vec![("v", KIND_DICT8, bad)]);
        prop_assert!(SegmentView::parse(&file).is_err());
    }

    #[test]
    fn t64_roundtrip_and_range_scan(
        deltas in prop::collection::vec(0u64..100_000, 1..3000),
        window in (0u64..200_000_000, 0u64..10_000_000),
    ) {
        // Sorted input by construction: cumulative sums of random deltas.
        let mut values = Vec::with_capacity(deltas.len());
        let mut acc = 0u64;
        for d in deltas {
            acc += d;
            values.push(acc);
        }
        let mut w = Writer::new();
        encode_t64(&mut w, &values);
        let (file, t) = roundtrip(values.len(), vec![("v", KIND_T64, w)]);
        let v = t.t64("v").unwrap();

        let (start, width) = window;
        let end = start.saturating_add(width);
        let naive: Vec<(usize, u64)> = values
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x >= start && x < end)
            .map(|(i, &x)| (i, x))
            .collect();
        let mut scanned = Vec::new();
        v.for_each_in_range(&file, start, end, |row, x| scanned.push((row, x)))
            .unwrap();
        prop_assert_eq!(scanned, naive);

        // Block directory doubles as a zone map: full-range scan sees all.
        let mut n = 0usize;
        v.for_each_in_range(&file, 0, u64::MAX, |_, _| n += 1).unwrap();
        prop_assert_eq!(n, values.len());
    }

    #[test]
    fn bitset_roundtrip_and_count(bits in prop::collection::vec(any::<bool>(), 0..3000)) {
        let mut w = Writer::new();
        encode_bitset(&mut w, &bits);
        let (file, t) = roundtrip(bits.len(), vec![("v", KIND_BITSET, w)]);
        let v = t.bitset("v").unwrap();
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(v.get(&file, i), b);
        }
        let naive = bits.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(v.count(&file), naive);
    }

    #[test]
    fn mixed_table_roundtrips(rows in 1usize..1500) {
        // One table with all five kinds side by side: alignment padding
        // between columns must not shift any view's reads.
        let addrs: Vec<u32> = (0..rows as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let ports: Vec<u16> = (0..rows as u16).map(|i| i.wrapping_mul(31)).collect();
        let times: Vec<u64> = (0..rows as u64).map(|i| i * 97).collect();
        let bits: Vec<bool> = (0..rows).map(|i| i % 3 == 0).collect();
        let mut d = DictBuilder::new();
        for i in 0..rows {
            d.push(["a", "b", "c"][i % 3]);
        }
        let (mut wa, mut wp, mut wt, mut wb, mut wd) =
            (Writer::new(), Writer::new(), Writer::new(), Writer::new(), Writer::new());
        encode_u32(&mut wa, &addrs, true);
        encode_u16(&mut wp, &ports);
        encode_t64(&mut wt, &times);
        encode_bitset(&mut wb, &bits);
        d.encode(&mut wd);
        let (file, t) = roundtrip(
            rows,
            vec![
                ("addr", KIND_U32, wa),
                ("port", KIND_U16, wp),
                ("time", KIND_T64, wt),
                ("flag", KIND_BITSET, wb),
                ("label", KIND_DICT8, wd),
            ],
        );
        let (va, vp, vb, vd) = (
            t.u32("addr").unwrap(),
            t.u16("port").unwrap(),
            t.bitset("flag").unwrap(),
            t.dict("label").unwrap(),
        );
        for i in 0..rows {
            prop_assert_eq!(va.get(&file, i), addrs[i]);
            prop_assert_eq!(vp.get(&file, i), ports[i]);
            prop_assert_eq!(vb.get(&file, i), bits[i]);
            prop_assert_eq!(vd.label(&file, i), ["a", "b", "c"][i % 3]);
        }
        let mut seen = 0usize;
        t.t64("time")
            .unwrap()
            .for_each_in_range(&file, 0, u64::MAX, |row, x| {
                assert_eq!(x, times[row]);
                seen += 1;
            })
            .unwrap();
        prop_assert_eq!(seen, rows);
    }
}
