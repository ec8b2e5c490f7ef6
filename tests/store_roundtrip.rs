//! Store round-trip property: the columnar store is a lossless carrier of
//! the study's published aggregates. For random seeds, the rows Tables 4,
//! 5 and 7 fold must decode from the store file equal to the ones the live
//! study yields, the tables recomputed *from the store file* must render
//! byte-identically to the in-memory `StudyReport` ones, and indexed counts
//! must agree with direct tallies over the in-memory artifacts.
//!
//! (Column-codec round-trip properties live in
//! `crates/store/tests/roundtrip.rs`; this file covers the end the paper
//! cares about — the aggregates.)

use ofh_analysis::rows::{EventRow, ScanRow, ScanSource};
use ofh_core::{Study, StudyConfig, StudyReport};
use ofh_store::{tables, Answer, Query, StoreReader};

fn run_quick(seed: u64) -> (StudyReport, StoreReader) {
    let report = Study::new(StudyConfig::quick(seed)).run();
    let reader = StoreReader::from_bytes(report.build_store()).expect("store parses");
    (report, reader)
}

fn rendered(reader: &StoreReader, q: Query) -> String {
    match reader.execute(&q).expect("query executes") {
        Answer::Rendered(s) => s,
        other => panic!("expected rendered text, got {other:?}"),
    }
}

fn count(reader: &StoreReader, q: Query) -> u64 {
    match reader.execute(&q).expect("query executes") {
        Answer::Count(n) => n,
        other => panic!("expected a count, got {other:?}"),
    }
}

/// Equal row streams, reporting the first row that differs.
fn assert_same_rows<T: PartialEq + std::fmt::Debug>(
    what: &str,
    seed: u64,
    stored: &[T],
    live: &[T],
) {
    if let Some(i) = (0..stored.len().max(live.len())).find(|&i| stored.get(i) != live.get(i)) {
        panic!(
            "{what} row {i} diverged at seed {seed}: stored {:?}, live {:?}",
            stored.get(i),
            live.get(i)
        );
    }
}

/// The property, over a handful of deterministic seeds (a full quick study
/// per seed keeps the case count modest).
#[test]
fn store_tables_match_report_across_seeds() {
    for seed in [7u64, 11, 42, 1337, 0xDEAD] {
        let (report, reader) = run_quick(seed);

        // The rows the store decodes are the live study's rows, in order.
        let filter = report.fingerprint.filter_set();
        let sources = [&report.zmap_results, &report.sonar_results, &report.shodan_results];
        let live_scan: Vec<ScanRow> = ScanSource::ALL
            .into_iter()
            .zip(sources)
            .flat_map(|(source, results)| ScanRow::of(source, results, &filter))
            .collect();
        for source in ScanSource::ALL {
            assert!(live_scan.iter().any(|r| r.source == source), "no {source:?} rows");
        }
        let stored_scan: Vec<ScanRow> = tables::scan_rows(&reader).expect("scan rows").collect();
        assert_same_rows("scan", seed, &stored_scan, &live_scan);
        let live_events: Vec<EventRow> = EventRow::of(&report.dataset, &report.rdns).collect();
        assert!(!live_events.is_empty());
        let stored_events: Vec<EventRow> =
            tables::event_rows(&reader).expect("event rows").collect();
        assert_same_rows("event", seed, &stored_events, &live_events);

        assert_eq!(
            rendered(&reader, Query::Table(4)),
            report.table4.render(),
            "table 4 diverged at seed {seed}"
        );
        assert_eq!(
            rendered(&reader, Query::Table(5)),
            report.table5.render(),
            "table 5 diverged at seed {seed}"
        );
        assert_eq!(
            rendered(&reader, Query::Table(7)),
            report.table7.render(),
            "table 7 diverged at seed {seed}"
        );
    }
}

/// Indexed counts agree with direct tallies over the in-memory artifacts,
/// and point lookups return exactly the records the scan tables hold.
#[test]
fn store_counts_match_in_memory_tallies() {
    let (report, reader) = run_quick(7);

    // Unfiltered per-table row counts.
    let scan_rows = report.zmap_results.records.len()
        + report.sonar_results.records.len()
        + report.shodan_results.records.len();
    let no_scan_filter = Query::CountScan {
        source: None,
        protocol: None,
        misconfig: None,
        country: None,
    };
    assert_eq!(count(&reader, no_scan_filter), scan_rows as u64);

    let no_event_filter = Query::CountEvents {
        honeypot: None,
        protocol: None,
        attack_type: None,
        class: None,
    };
    assert_eq!(
        count(&reader, no_event_filter),
        report.dataset.events.len() as u64
    );

    let no_tel_filter = Query::CountTelescope {
        protocol: None,
        country: None,
    };
    assert_eq!(
        count(&reader, no_tel_filter),
        report.telescope.records().count() as u64
    );

    // A bitmap-filtered count equals the naive scan of the source results.
    let zmap_only = Query::CountScan {
        source: Some("ZMap Scan".into()),
        protocol: None,
        misconfig: None,
        country: None,
    };
    assert_eq!(
        count(&reader, zmap_only),
        report.zmap_results.records.len() as u64
    );

    // An unknown label short-circuits to zero rather than erroring.
    let unknown = Query::CountScan {
        source: Some("no-such-source".into()),
        protocol: None,
        misconfig: None,
        country: None,
    };
    assert_eq!(count(&reader, unknown), 0);

    // Every stored zmap record is reachable by point lookup, with the port
    // and protocol it was stored under.
    for record in report.zmap_results.records.iter().take(50) {
        let (addr, port) = (record.addr, record.port);
        let hits = match reader
            .execute(&Query::HostLookup { addr })
            .expect("lookup executes")
        {
            Answer::Hosts(hits) => hits,
            other => panic!("expected host hits, got {other:?}"),
        };
        let hit = hits
            .iter()
            .find(|h| h.source == "ZMap Scan" && h.port == port)
            .unwrap_or_else(|| panic!("no zmap hit for {addr}:{port}"));
        assert_eq!(hit.protocol, record.protocol.name());
    }

    // A full-range time scan sees every event; an empty range sees none.
    let all_events = Query::EventsInRange {
        start_ms: 0,
        end_ms: u64::MAX,
        honeypot: None,
    };
    assert_eq!(
        count(&reader, all_events),
        report.dataset.events.len() as u64
    );
    let none = Query::EventsInRange {
        start_ms: 0,
        end_ms: 0,
        honeypot: None,
    };
    assert_eq!(count(&reader, none), 0);
}
