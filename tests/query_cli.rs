//! `openforhire query` fails closed on a corrupt store: a dictionary code
//! past its dictionary, a table or column count or a table length the file
//! cannot hold, a label no enum knows, or scan rows out of the order Table
//! 4's walk relies on, is an error with a message and exit code 1, never a
//! panic, an abort or a table that counts the bad rows as something else.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ofh_core::{Study, StudyConfig};
use ofh_store::bytes::{Reader, Writer};
use ofh_store::segment::MAGIC;
use ofh_store::{build_store, StoreInput, StoreReader};

fn query(store: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_openforhire"))
        .arg("query")
        .arg("--store")
        .arg(store)
        .args(args)
        .output()
        .expect("run openforhire")
}

/// Where `needle` starts in `bytes`, which must hold it exactly once.
fn find_once(bytes: &[u8], needle: &[u8]) -> usize {
    let at: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i..].starts_with(needle))
        .collect();
    assert_eq!(at.len(), 1, "{:?} occurs {} times", String::from_utf8_lossy(needle), at.len());
    at[0]
}

/// `bytes` with the one occurrence of `from` replaced by `to`.
fn replace_once(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let at = find_once(bytes, from);
    let mut out = bytes.to_vec();
    out[at..at + from.len()].copy_from_slice(to);
    out
}

/// Where the segment's table count sits, and per table of contents entry
/// the table's name, its offset and where the entry's length field sits.
fn toc(store: &[u8]) -> (usize, Vec<(String, usize, usize)>) {
    let count_at = MAGIC.len() + 4;
    let mut r = Reader::at(store, count_at);
    let tables = (0..r.u32().unwrap())
        .map(|_| {
            let name = r.string().unwrap();
            let off = r.u64().unwrap() as usize;
            let len_at = r.pos;
            r.u64().unwrap();
            (name, off, len_at)
        })
        .collect();
    (count_at, tables)
}

/// `bytes` with `value` written over the bytes at `at`.
fn overwrite(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + value.len()].copy_from_slice(value);
    out
}

/// A dictionary label as the store encodes it: length, then bytes.
fn label(s: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.string(s);
    w.buf
}

#[test]
fn mutated_stores_are_rejected_with_an_error() {
    let dir = std::env::temp_dir().join(format!("ofh-query-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let report = Study::new(StudyConfig::quick(7)).run();
    let store = report.build_store();

    // Row 5 of the scan table: its address, and where its `source` code
    // sits (right after the dictionary's label count and labels).
    let reader = StoreReader::from_bytes(store.clone()).expect("store parses");
    let scan = reader.table("scan").expect("scan table");
    let host = std::net::Ipv4Addr::from(scan.u32("addr").unwrap().get(&store, 5)).to_string();
    let sources = &scan.dict("source").unwrap().labels;
    let mut dict = Writer::new();
    dict.u16(sources.len() as u16);
    for l in sources {
        dict.string(l);
    }
    let codes_at = find_once(&store, &dict.buf) + dict.buf.len();
    let mut corrupt_code = store.clone();
    corrupt_code[codes_at + 5] = 200;

    let write = |name: &str, bytes: &[u8]| -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write store");
        path
    };
    let good = write("good.store", &store);
    let corrupt_code = write("corrupt_code.store", &corrupt_code);
    let renamed_class = write(
        "renamed_class.store",
        &replace_once(&store, &label("malicious"), &label("malicioux")),
    );
    let renamed_source = write(
        "renamed_source.store",
        &replace_once(&store, &label("ZMap Scan"), &label("ZMap Scam")),
    );
    // Counts and a length at their type's maximum: the table count, the
    // scan table's column count (after its u64 row count) and the meta
    // table's length.
    let (count_at, tables) = toc(&store);
    let table = |name: &str| tables.iter().find(|t| t.0 == name).expect("table in TOC");
    let table_count = write("table_count.store", &overwrite(&store, count_at, &[0xFF; 4]));
    let column_count =
        write("column_count.store", &overwrite(&store, table("scan").1 + 8, &[0xFF; 4]));
    let meta_len = write("meta_len.store", &overwrite(&store, table("meta").2, &[0xFF; 8]));
    // Well-formed rows, but the Sonar records come before the ZMap ones.
    let filter = report.fingerprint.filter_set();
    let reordered = write(
        "reordered.store",
        &build_store(&StoreInput {
            zmap: &report.sonar_results,
            sonar: &report.zmap_results,
            ..report.store_input(&filter)
        }),
    );

    let every_query: [&[&str]; 5] =
        [&["info"], &["host", &host], &["table", "4"], &["table", "5"], &["table", "7"]];
    // The control: the unmutated store answers every query.
    for args in every_query {
        let out = query(&good, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} on the good store: {stderr}");
    }
    // Each mutation fails every query that reads what it broke, and says why.
    // The store is parsed at open, so a broken layout fails every query.
    let at_open = [
        (&corrupt_code, "table scan, column source: DICT8 code 200 past its 3 labels"),
        (&table_count, "table count 4294967295 overruns"),
        (&column_count, "table scan, column count 4294967295 overruns"),
        (&meta_len, "table meta outside the file"),
    ];
    let rejected: Vec<(&PathBuf, &[&str], &str)> = at_open
        .iter()
        .flat_map(|&(store, why)| every_query.iter().map(move |&args| (store, args, why)))
        .chain([
            (&renamed_class, &["table", "7"][..], "unknown src_class label \"malicioux\""),
            (&renamed_source, &["table", "4"][..], "unknown source label \"ZMap Scam\""),
            (&renamed_source, &["table", "5"][..], "unknown source label \"ZMap Scam\""),
            (&reordered, &["table", "4"][..], "out of (source, addr) order"),
            (&reordered, &["table", "5"][..], "out of (source, addr) order"),
        ])
        .collect();
    for (store, args, why) in rejected {
        let out = query(store, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{store:?} {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{store:?} {args:?}: {stderr}");
        assert!(stderr.contains(why), "{store:?} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{store:?} {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
