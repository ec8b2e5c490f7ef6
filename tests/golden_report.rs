//! Golden-file determinism: the quick preset at seed 7 renders a
//! byte-identical report, store, trace and scan export, forever.
//!
//! [`determinism.rs`](determinism.rs) proves runs agree with *each other*;
//! this test pins the output against checked-in references so an
//! optimization that changes event order (and therefore the trace) cannot
//! slip through by perturbing both runs the same way. Regenerate the report
//! with
//! `cargo run --release --example quickstart > tests/golden/quickstart_seed7.txt`
//! — but only after deciding the behavior change is intentional.
//!
//! The store and the trace are pinned by SHA-256, because two events
//! swapped inside one honeypot callback can leave the rendered report
//! unchanged while they reorder the store's event rows. Regenerate both
//! digests with
//! `openforhire study --preset quick --seed 7 --store-out s --trace-out t`
//! and `sha256sum s t`, under the same condition.
//!
//! The ZMap scan export (`ScanResults::to_jsonl`, whose record serializer
//! is written by hand) is pinned the same way: regenerate its digest with
//! `openforhire export scan --preset quick --seed 7 | sha256sum`.
//!
//! So is the metrics snapshot, with its wall-clock fields zeroed
//! (`MetricsSnapshot::zero_wall_clock`, then `serde_json::to_string_pretty`):
//! the determinism suites only compare runs with each other, so a tally that
//! is never flushed, or one counted twice, would pass them. The CLI's
//! `--metrics-out` file keeps the wall clock, so regenerate this digest with
//! `cargo test --release --test golden_report` and take the new value from
//! the failed assertion's `left`, under the same condition.

use ofh_core::intel::sha256;
use ofh_core::{Study, StudyConfig};
use openforhire_suite as _;

const STORE_SHA256: &str = "da70d0875386a80288616cb3716f9d4f16a1265fce0671f1175433821c8fc7a6";
const TRACE_SHA256: &str = "5109ad86c108832e804e5e12f1bb5f7313c2c1b31e3ffa0f63488edc09d2573e";
const SCAN_EXPORT_SHA256: &str = "4559da51745a12c09575cb42703c092cc8ea4b1d1cc994726485948510f0d93f";
const METRICS_SHA256: &str = "a6961339e789fc5684c383c5bb76a8407ea8226d6ac16e3185b3b00a56c0a165";

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn quick_preset_seed7_matches_golden_file() {
    let report = Study::new(StudyConfig::quick(7)).run();
    // The golden file is the quickstart's stdout: render_full + println's \n.
    let rendered = format!("{}\n", report.render_full());
    let golden = include_str!("golden/quickstart_seed7.txt");
    if rendered != golden {
        let diverges = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|i| format!("first divergent line: {}", i + 1))
            .unwrap_or_else(|| "one report is a prefix of the other".into());
        panic!(
            "rendered report diverges from tests/golden/quickstart_seed7.txt \
             ({diverges}; rendered {} bytes, golden {} bytes)",
            rendered.len(),
            golden.len()
        );
    }
    assert_eq!(
        hex(sha256(&report.build_store())),
        STORE_SHA256,
        "store bytes moved"
    );
    let trace = report.trace.to_jsonl("quick", 16);
    assert_eq!(
        hex(sha256(trace.as_bytes())),
        TRACE_SHA256,
        "trace bytes moved"
    );
    assert_eq!(
        hex(sha256(report.zmap_results.to_jsonl().as_bytes())),
        SCAN_EXPORT_SHA256,
        "scan export bytes moved"
    );
    let mut snapshot = report.metrics.clone();
    snapshot.zero_wall_clock();
    let metrics = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    assert_eq!(
        hex(sha256(metrics.as_bytes())),
        METRICS_SHA256,
        "zeroed metrics snapshot moved"
    );
}
