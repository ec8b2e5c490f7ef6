//! The regression sentinel: cross-run snapshot diffing.
//!
//! Two snapshots of the same `(seed, preset, shards)` must agree **byte
//! for byte** outside the volatile `host` section — that is the repo's
//! determinism contract, and [`diff_snapshots`] enforces it exactly: the
//! deterministic sections are compared field-by-field (for actionable
//! messages) *and* byte-compared after [`MetricsSnapshot::zero_wall_clock`]
//! (so structural drift no field check anticipated still fails).
//!
//! The `host` section is machine-dependent by design, so it is only ever
//! *threshold*-compared, and only when the caller asks
//! ([`DiffOptions::volatile_pct`]): on a shared CI box, wall-clock noise
//! makes any default volatile gate flaky. Volatile observations are always
//! reported, never silently dropped.
//!
//! `openforhire obsdiff a.json b.json` is the CLI face of this module and
//! exits nonzero on any deterministic drift; ci.sh runs it as a gate.

use std::collections::BTreeMap;

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};

/// Diff tuning.
#[derive(Debug, Clone, Default)]
pub struct DiffOptions {
    /// When set, volatile quantities (profile wall time, latency histogram
    /// means) whose relative difference exceeds this fraction (e.g. `0.25`
    /// = 25%) are reported as failures. `None` = report volatile
    /// differences informationally only.
    pub volatile_pct: Option<f64>,
}

/// The outcome of a snapshot comparison.
#[derive(Debug, Clone, Default)]
pub struct SnapshotDiff {
    /// Deterministic-section drift: any entry here is a contract
    /// violation.
    pub deterministic: Vec<String>,
    /// Volatile quantities that exceeded [`DiffOptions::volatile_pct`].
    pub volatile_exceeded: Vec<String>,
    /// Volatile observations within threshold (informational).
    pub volatile_notes: Vec<String>,
}

impl SnapshotDiff {
    /// No drift that should fail a gate.
    pub fn clean(&self) -> bool {
        self.deterministic.is_empty() && self.volatile_exceeded.is_empty()
    }

    /// Human-readable report (what `obsdiff` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.deterministic.is_empty() {
            out.push_str("deterministic sections: identical\n");
        } else {
            out.push_str(&format!(
                "deterministic sections: {} divergence(s)\n",
                self.deterministic.len()
            ));
            for line in &self.deterministic {
                out.push_str(&format!("  DRIFT {line}\n"));
            }
        }
        for line in &self.volatile_exceeded {
            out.push_str(&format!("  VOLATILE-EXCEEDED {line}\n"));
        }
        for line in &self.volatile_notes {
            out.push_str(&format!("  volatile {line}\n"));
        }
        out
    }
}

/// Relative difference in `[0, 1]` (0 when both are 0).
fn rel(a: u64, b: u64) -> f64 {
    let hi = a.max(b);
    if hi == 0 {
        0.0
    } else {
        (a.abs_diff(b)) as f64 / hi as f64
    }
}

fn diff_maps(
    section: &str,
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
    out: &mut Vec<String>,
) {
    for (k, va) in a {
        match b.get(k) {
            None => out.push(format!("{section} `{k}`: {va} vs missing")),
            Some(vb) if va != vb => out.push(format!("{section} `{k}`: {va} vs {vb}")),
            Some(_) => {}
        }
    }
    for (k, vb) in b {
        if !a.contains_key(k) {
            out.push(format!("{section} `{k}`: missing vs {vb}"));
        }
    }
}

fn diff_hist(name: &str, a: &HistogramSnapshot, b: &HistogramSnapshot, out: &mut Vec<String>) {
    if a == b {
        return;
    }
    if a.count != b.count || a.sum != b.sum {
        out.push(format!(
            "histogram `{name}`: count/sum {}/{} vs {}/{}",
            a.count, a.sum, b.count, b.sum
        ));
    } else {
        out.push(format!("histogram `{name}`: bucket layout differs at equal count/sum"));
    }
}

/// The canonical bytes of a snapshot's deterministic sections.
fn deterministic_bytes(s: &MetricsSnapshot) -> String {
    let mut c = s.clone();
    c.zero_wall_clock();
    serde_json::to_string(&c).expect("snapshot serializes")
}

/// Compare two snapshots: exact on deterministic sections, threshold on
/// the volatile `host` section.
pub fn diff_snapshots(
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    opts: &DiffOptions,
) -> SnapshotDiff {
    let mut d = SnapshotDiff::default();

    // Identity fields: a mismatch here means the two runs are not even
    // comparable — reported as drift so a gate can never accidentally
    // bless an apples-to-oranges comparison.
    if a.schema_version != b.schema_version {
        d.deterministic
            .push(format!("schema_version: {} vs {}", a.schema_version, b.schema_version));
    }
    if a.preset != b.preset {
        d.deterministic.push(format!("preset: `{}` vs `{}`", a.preset, b.preset));
    }
    if a.seed != b.seed {
        d.deterministic.push(format!("seed: {} vs {}", a.seed, b.seed));
    }
    if a.shards != b.shards {
        d.deterministic.push(format!("shards: {} vs {}", a.shards, b.shards));
    }

    diff_maps("counter", &a.counters, &b.counters, &mut d.deterministic);
    diff_maps("gauge", &a.gauges, &b.gauges, &mut d.deterministic);
    for (k, ha) in &a.histograms {
        match b.histograms.get(k) {
            None => d.deterministic.push(format!("histogram `{k}`: present vs missing")),
            Some(hb) => diff_hist(k, ha, hb, &mut d.deterministic),
        }
    }
    for k in b.histograms.keys() {
        if !a.histograms.contains_key(k) {
            d.deterministic.push(format!("histogram `{k}`: missing vs present"));
        }
    }
    if a.per_shard_events != b.per_shard_events {
        let first = a
            .per_shard_events
            .iter()
            .zip(&b.per_shard_events)
            .position(|(x, y)| x != y);
        d.deterministic.push(match first {
            Some(i) => format!(
                "per_shard_events[{i}]: {} vs {}",
                a.per_shard_events[i], b.per_shard_events[i]
            ),
            None => format!(
                "per_shard_events length: {} vs {}",
                a.per_shard_events.len(),
                b.per_shard_events.len()
            ),
        });
    }
    // Belt and braces: the byte-level check catches structural drift the
    // field walks above do not know about (new fields, ordering).
    if d.deterministic.is_empty() && deterministic_bytes(a) != deterministic_bytes(b) {
        d.deterministic
            .push("deterministic sections serialize to different bytes (structural drift)".into());
    }

    // Volatile section: always describe, fail only when thresholded.
    if a.host.workers != b.host.workers {
        d.volatile_notes
            .push(format!("workers: {} vs {} (execution knob)", a.host.workers, b.host.workers));
    }
    let mut volatile = |what: String, r: f64| match opts.volatile_pct {
        Some(pct) if r > pct => d.volatile_exceeded.push(format!("{what} ({:.1}% apart)", r * 100.0)),
        _ => d.volatile_notes.push(what),
    };
    volatile(
        format!(
            "profile wall: {:.1}ms vs {:.1}ms",
            a.host.profile.wall_ns as f64 / 1e6,
            b.host.profile.wall_ns as f64 / 1e6
        ),
        rel(a.host.profile.wall_ns, b.host.profile.wall_ns),
    );
    for (k, ha) in &a.host.latency {
        if let Some(hb) = b.host.latency.get(k) {
            volatile(
                format!("latency `{k}` mean: {:.0}ns vs {:.0}ns", ha.mean(), hb.mean()),
                rel(ha.mean() as u64, hb.mean() as u64),
            );
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricRegistry;

    fn snap(seed: u64) -> MetricsSnapshot {
        let mut reg = MetricRegistry::new();
        reg.count("net.events_processed", "", 1000 + seed);
        reg.gauge_max("net.conns_live", "", 17);
        reg.observe("net.udp_payload_bytes", "", 120);
        let mut s = MetricsSnapshot::from_registry(seed, 16, "quick", &reg, vec![1; 16]);
        s.host.workers = 4;
        s.host.profile.wall_ns = 5_000_000;
        s
    }

    #[test]
    fn identical_snapshots_are_clean() {
        let a = snap(7);
        let mut b = snap(7);
        b.host.workers = 8; // volatile: must not fail
        b.host.profile.wall_ns = 6_200_000;
        let d = diff_snapshots(&a, &b, &DiffOptions::default());
        assert!(d.clean(), "unexpected drift: {}", d.render());
        assert!(d.render().contains("identical"));
        assert!(!d.volatile_notes.is_empty(), "volatile differences are still reported");
    }

    #[test]
    fn counter_drift_is_deterministic_failure() {
        let a = snap(7);
        let mut b = snap(7);
        *b.counters.get_mut("net.events_processed").unwrap() += 1;
        let d = diff_snapshots(&a, &b, &DiffOptions::default());
        assert!(!d.clean());
        assert!(d.render().contains("net.events_processed"));
    }

    #[test]
    fn missing_key_and_identity_drift_detected() {
        let a = snap(7);
        let mut b = snap(7);
        b.counters.remove("net.events_processed");
        b.preset = "standard".into();
        let d = diff_snapshots(&a, &b, &DiffOptions::default());
        assert!(d.deterministic.iter().any(|l| l.contains("missing")));
        assert!(d.deterministic.iter().any(|l| l.contains("preset")));
    }

    #[test]
    fn histogram_drift_detected() {
        let a = snap(7);
        let mut b = snap(7);
        b.histograms.get_mut("net.udp_payload_bytes").unwrap().sum += 5;
        let d = diff_snapshots(&a, &b, &DiffOptions::default());
        assert!(!d.clean());
        assert!(d.render().contains("net.udp_payload_bytes"));
    }

    #[test]
    fn volatile_threshold_gates_only_when_asked() {
        let a = snap(7);
        let mut b = snap(7);
        b.host.profile.wall_ns = a.host.profile.wall_ns * 10;
        assert!(diff_snapshots(&a, &b, &DiffOptions::default()).clean());
        let gated = diff_snapshots(&a, &b, &DiffOptions { volatile_pct: Some(0.25) });
        assert!(!gated.clean());
        assert!(gated.render().contains("VOLATILE-EXCEEDED"));
    }

    #[test]
    fn different_seeds_flagged() {
        let d = diff_snapshots(&snap(7), &snap(8), &DiffOptions::default());
        assert!(d.deterministic.iter().any(|l| l.starts_with("seed")));
    }
}
