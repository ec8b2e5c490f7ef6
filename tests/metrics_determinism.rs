//! The observability layer's determinism contract (`ofh_obs`):
//!
//! 1. Enabling metrics must not perturb the simulation — the report with
//!    observability off is byte-identical to the report with it on.
//! 2. Outside the volatile `host` section, `metrics.json` is a pure
//!    function of `(seed, config)`: byte-identical across worker counts
//!    and across repeated runs at the same seed. The trace is fully
//!    deterministic (spans are keyed on sim-time, never the wall clock).
//!
//! Wall-clock fields (the `host` section: profile tree, query latencies,
//! steals, worker count) are zeroed via
//! [`MetricsSnapshot::zero_wall_clock`] before comparison.

use ofh_core::obs::ObsConfig;
use ofh_core::{Study, StudyConfig, StudyReport};

fn run_quick(seed: u64, workers: usize, obs: ObsConfig) -> StudyReport {
    let mut cfg = StudyConfig::quick(seed);
    cfg.workers = workers;
    cfg.obs = obs;
    Study::new(cfg).run()
}

/// Serialize a report's snapshot with the host section blanked.
fn deterministic_metrics_json(report: &StudyReport) -> String {
    let mut snap = report.metrics.clone();
    snap.zero_wall_clock();
    serde_json::to_string_pretty(&snap).expect("snapshot serializes")
}

/// `metrics.json` (wall-clock fields zeroed) is byte-identical across
/// `--workers 1` and `--workers 8`, and the trace interleaves into the same
/// canonical JSONL stream.
#[test]
fn metrics_identical_across_worker_counts() {
    let a = run_quick(23, 1, ObsConfig::default());
    let b = run_quick(23, 8, ObsConfig::default());
    assert_eq!(
        deterministic_metrics_json(&a),
        deterministic_metrics_json(&b),
        "metrics.json differs between workers=1 and workers=8"
    );
    assert_eq!(
        a.trace.to_jsonl("quick", 16),
        b.trace.to_jsonl("quick", 16),
        "trace differs between workers=1 and workers=8"
    );
    // The host section, by contrast, must record what actually ran.
    assert_eq!(a.metrics.host.workers, 1);
    assert_eq!(b.metrics.host.workers, 8);
}

/// Two runs at the same seed produce byte-identical deterministic sections.
#[test]
fn metrics_identical_across_repeated_runs() {
    let a = run_quick(31, 2, ObsConfig::default());
    let b = run_quick(31, 2, ObsConfig::default());
    assert_eq!(deterministic_metrics_json(&a), deterministic_metrics_json(&b));
    assert_eq!(a.trace.to_jsonl("quick", 16), b.trace.to_jsonl("quick", 16));
}

/// Different seeds must *not* collide (guards against the snapshot being
/// trivially empty).
#[test]
fn metrics_vary_with_seed_and_are_populated() {
    let a = run_quick(23, 1, ObsConfig::default());
    let b = run_quick(24, 1, ObsConfig::default());
    assert_ne!(deterministic_metrics_json(&a), deterministic_metrics_json(&b));
    // The snapshot actually carries the pipeline's instruments.
    let counter_names: Vec<&str> = a.metrics.counters.keys().map(String::as_str).collect();
    for prefix in [
        "scan.probe.sent",
        "scan.response.recorded",
        "honeypot.event",
        "telescope.flow",
        "fingerprint.ac.banners_scanned",
        "attack.task.launched",
        "net.events_processed",
        "net.syns_sent",
    ] {
        assert!(
            counter_names.iter().any(|n| n.starts_with(prefix)),
            "no counter starting with {prefix:?} in {counter_names:?}"
        );
    }
    assert!(!a.metrics.histograms.is_empty(), "no histograms recorded");
    assert!(!a.trace.is_empty(), "no trace spans recorded");
    a.metrics.validate().expect("snapshot validates");
}

/// Observability is an execution knob: turning it off must not change the
/// report (no RNG stream or golden output may depend on it).
#[test]
fn disabling_observability_does_not_perturb_the_report() {
    let on = run_quick(23, 2, ObsConfig::default());
    let off = run_quick(23, 2, ObsConfig::disabled());
    assert_eq!(on.render_full(), off.render_full());
    // With observability off, nothing shard-side is recorded; only the
    // fabric counters folded at merge time remain.
    assert!(off.trace.is_empty());
    assert_eq!(off.metrics.counters["net.events_processed"], on.metrics.counters["net.events_processed"]);
    assert!(!off.metrics.counters.contains_key("telescope.flow{tcp}"));
}

/// Shrinking the trace ring keeps the *newest* spans and reports the
/// eviction count — and never affects metrics.
#[test]
fn bounded_trace_ring_drops_oldest_deterministically() {
    let big = run_quick(23, 1, ObsConfig { trace_capacity: 4096, ..ObsConfig::default() });
    let tiny = run_quick(23, 1, ObsConfig { trace_capacity: 8, ..ObsConfig::default() });
    assert_eq!(
        deterministic_metrics_json(&big),
        deterministic_metrics_json(&tiny),
        "ring capacity must not affect metrics"
    );
    assert_eq!(big.trace.total_emitted, tiny.trace.total_emitted);
    assert!(tiny.trace.total_dropped > big.trace.total_dropped);
    assert!(tiny.trace.len() <= 8 * big.metrics.shards as usize);
    // The retained spans are the tail of the full stream, per shard.
    let last_big = big.trace.spans.last().expect("spans");
    let last_tiny = tiny.trace.spans.last().expect("spans");
    assert_eq!(last_big.1.start_ms, last_tiny.1.start_ms);
}
