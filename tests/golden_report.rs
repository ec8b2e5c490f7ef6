//! Golden-file determinism: the quick preset at seed 7 renders a
//! byte-identical report, store, trace and scan, events and flowtuples
//! exports, forever, and so does the paper-smoke preset at seed 7.
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
//! The honeypot events and the telescope's FlowTuples are pinned as the
//! CLI exports them (one `serde_json` line per row): regenerate their
//! digests with `openforhire export events --preset quick --seed 7 | sha256sum`
//! and `openforhire export flowtuples --preset quick --seed 7 | sha256sum`.
//!
//! So is the metrics snapshot, with its wall-clock fields zeroed
//! (`MetricsSnapshot::zero_wall_clock`, then `serde_json::to_string_pretty`):
//! the determinism suites only compare runs with each other, so a tally that
//! is never flushed, or one counted twice, would pass them. The CLI's
//! `--metrics-out` file keeps the wall clock, so regenerate this digest with
//! `cargo test --release --test golden_report` and take the new value from
//! the failed assertion's `left`, under the same condition.
//!
//! paper-smoke is the preset that runs the 2^32 address plan, the indexed
//! sweeps and the first-touch agents of every device type, so its seed-7
//! artifacts are pinned the same way, all by SHA-256. Regenerate the
//! report, store and trace digests with
//! `openforhire study --preset paper-smoke --seed 7 --store-out s --trace-out t > r`
//! and `sha256sum r s t`, the scan export's with
//! `openforhire export scan --preset paper-smoke --seed 7 | sha256sum`, the
//! events and flowtuples exports' with
//! `openforhire export events --preset paper-smoke --seed 7 | sha256sum` and
//! `openforhire export flowtuples --preset paper-smoke --seed 7 | sha256sum`,
//! and the zeroed snapshot's as the quick one's.

use ofh_core::intel::sha256;
use ofh_core::{Study, StudyConfig};
use openforhire_suite as _;

const STORE_SHA256: &str = "da70d0875386a80288616cb3716f9d4f16a1265fce0671f1175433821c8fc7a6";
const TRACE_SHA256: &str = "5109ad86c108832e804e5e12f1bb5f7313c2c1b31e3ffa0f63488edc09d2573e";
const SCAN_EXPORT_SHA256: &str = "4559da51745a12c09575cb42703c092cc8ea4b1d1cc994726485948510f0d93f";
const METRICS_SHA256: &str = "a6961339e789fc5684c383c5bb76a8407ea8226d6ac16e3185b3b00a56c0a165";
const EVENTS_EXPORT_SHA256: &str = "a4a369dcdad5c40c27ce314490d2ac919a923d3f5db310b1858f77e812d8f181";
const FLOWTUPLES_EXPORT_SHA256: &str =
    "82314cfa71d45b73cf5cc1856d273ebb3d97ef99a3104b702964886e83e96ff5";

const SMOKE_REPORT_SHA256: &str = "bf4f90f892da2bade9979a57b9062f7c49414c0fdd8806217a7614cc74845e52";
const SMOKE_STORE_SHA256: &str = "7cdb5ea955391a27858a635b07216254812a1223824060fcdb19b4e25ff30ecc";
const SMOKE_TRACE_SHA256: &str = "49e4f6b73be9798039fca375afa5993b3b1ae04d6dc260fa1037a98dd8bdea53";
const SMOKE_SCAN_EXPORT_SHA256: &str = "1889f2fe22ddb671220857d8120a07a5a88130b3284243ca742247b31a20fd56";
const SMOKE_METRICS_SHA256: &str = "1ad4d781c3bf1df65854e6dacbfa608845c203af6e8f7fea00bfff6f98e902d0";
const SMOKE_EVENTS_EXPORT_SHA256: &str =
    "4b8d81610ca45b6848eb3b2aa1c6f882aa1382ceff1ec4be30e20f9312d7547b";
const SMOKE_FLOWTUPLES_EXPORT_SHA256: &str =
    "4a0bf3195e75c73517741167027b4488d1b55c8d902b3bb0668c70de6b1c5196";

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// The SHA-256 of `rows` as `openforhire export` prints them: one
/// `serde_json` line each, newline-terminated.
fn jsonl_sha256<'a, T: serde::Serialize + 'a>(rows: impl IntoIterator<Item = &'a T>) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&serde_json::to_string(row).expect("row serializes"));
        out.push('\n');
    }
    hex(sha256(out.as_bytes()))
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
    assert_eq!(
        jsonl_sha256(&report.dataset.events),
        EVENTS_EXPORT_SHA256,
        "events export bytes moved"
    );
    assert_eq!(
        jsonl_sha256(report.telescope.records()),
        FLOWTUPLES_EXPORT_SHA256,
        "flowtuples export bytes moved"
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

#[test]
fn paper_smoke_seed7_artifacts_are_pinned() {
    let report = Study::new(StudyConfig::paper_smoke(7)).run();
    // The CLI's `study` stdout: render_full + println's \n.
    let rendered = format!("{}\n", report.render_full());
    assert_eq!(
        hex(sha256(rendered.as_bytes())),
        SMOKE_REPORT_SHA256,
        "paper-smoke report bytes moved"
    );
    assert_eq!(
        hex(sha256(&report.build_store())),
        SMOKE_STORE_SHA256,
        "paper-smoke store bytes moved"
    );
    let trace = report.trace.to_jsonl("paper-smoke", 64);
    assert_eq!(
        hex(sha256(trace.as_bytes())),
        SMOKE_TRACE_SHA256,
        "paper-smoke trace bytes moved"
    );
    assert_eq!(
        hex(sha256(report.zmap_results.to_jsonl().as_bytes())),
        SMOKE_SCAN_EXPORT_SHA256,
        "paper-smoke scan export bytes moved"
    );
    assert_eq!(
        jsonl_sha256(&report.dataset.events),
        SMOKE_EVENTS_EXPORT_SHA256,
        "paper-smoke events export bytes moved"
    );
    assert_eq!(
        jsonl_sha256(report.telescope.records()),
        SMOKE_FLOWTUPLES_EXPORT_SHA256,
        "paper-smoke flowtuples export bytes moved"
    );
    let mut snapshot = report.metrics.clone();
    snapshot.zero_wall_clock();
    let metrics = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    assert_eq!(
        hex(sha256(metrics.as_bytes())),
        SMOKE_METRICS_SHA256,
        "paper-smoke zeroed metrics snapshot moved"
    );
}
