//! The `metrics.json` snapshot: a versioned, serializable view of one run's
//! merged metrics, split into a **deterministic** simulation-domain section
//! and a **volatile** host-domain section.
//!
//! The split is the determinism contract made explicit: everything outside
//! [`MetricsSnapshot::host`] is a pure function of `(seed, config)` —
//! byte-identical across worker counts and across repeated runs. The `host`
//! section (wall-clock profile, query latencies, worker count, and the
//! always-zero `steals`) depends on the machine and the scheduler;
//! [`MetricsSnapshot::zero_wall_clock`] blanks it so tests can compare the
//! remainder byte-for-byte.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::metrics::{bucket_lower_bound, Histogram, MetricRegistry};
use crate::profile::ProfileNode;

/// Version of the snapshot schema. Bump on any change to the serialized
/// shape (field added/removed/renamed, bucket layout change).
///
/// v2: deterministic section gains `preset`; the volatile host section
/// gains `steals` (work-stealing count — scheduler-timing dependent) and
/// `latency` (wall-clock query-latency histograms from the QueryEngine).
///
/// v3: the host section drops the payload-pool hit/miss counters (the
/// pool is gone).
pub const SCHEMA_VERSION: u32 = 3;

/// Serializable summary of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `[bucket lower bound, count]` pairs, ascending, touched buckets only.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    pub fn from_histogram(h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: h
                .buckets
                .iter()
                .map(|(&idx, &n)| (bucket_lower_bound(idx), n))
                .collect(),
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The machine-dependent part of a snapshot: everything here may differ
/// between two runs of the same seed and MUST NOT be asserted on in
/// determinism tests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HostStats {
    /// Resolved worker-thread count of the run.
    pub workers: u64,
    /// Always 0: the study's workers take shards from one shared counter,
    /// so no shard is ever stolen. The field stays only because the
    /// end-to-end benchmark (`e2ebench/`) reads it as its `core.steals`
    /// metric; it can go with that metric.
    pub steals: u64,
    /// Wall-clock profile tree (stage → shard → phase).
    pub profile: ProfileNode,
    /// Wall-clock latency histograms, keyed by operation class (e.g.
    /// `query.host`, `query.range`). Values in nanoseconds.
    pub latency: BTreeMap<String, HistogramSnapshot>,
}

/// A full metrics snapshot, as written to `--metrics-out`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Always [`SCHEMA_VERSION`] for snapshots this build writes.
    pub schema_version: u32,
    /// The run's master seed.
    pub seed: u64,
    /// The run's shard count (a simulation parameter).
    pub shards: u32,
    /// Name of the preset (or preset family) that configured the run —
    /// deterministic run identity, like `seed` and `shards`.
    pub preset: String,
    /// Counters, keyed `name` or `name{label}`.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges, merged with `max` across shards.
    pub gauges: BTreeMap<String, u64>,
    /// Log-linear histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Simulation events processed per shard, indexed by shard.
    pub per_shard_events: Vec<u64>,
    /// Machine-dependent statistics — excluded from the determinism
    /// contract.
    pub host: HostStats,
}

impl MetricsSnapshot {
    /// Build the deterministic sections from a merged registry.
    pub fn from_registry(
        seed: u64,
        shards: u32,
        preset: &str,
        registry: &MetricRegistry,
        per_shard_events: Vec<u64>,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            seed,
            shards,
            preset: preset.to_string(),
            counters: registry
                .counters()
                .iter()
                .map(|(k, &v)| (crate::metrics::key_string(k), v))
                .collect(),
            gauges: registry
                .gauges()
                .iter()
                .map(|(k, &v)| (crate::metrics::key_string(k), v))
                .collect(),
            histograms: registry
                .histograms()
                .iter()
                .map(|(k, h)| (crate::metrics::key_string(k), HistogramSnapshot::from_histogram(h)))
                .collect(),
            per_shard_events,
            host: HostStats::default(),
        }
    }

    /// Blank every machine-dependent field (the whole `host` section),
    /// keeping structure: profile node names survive, durations and
    /// counts go to zero. After this, two runs of the same seed must
    /// serialize byte-identically regardless of worker count.
    pub fn zero_wall_clock(&mut self) {
        self.host.workers = 0;
        self.host.steals = 0;
        self.host.profile.zero_wall_clock();
        self.host.latency.clear();
    }

    /// Check this snapshot against the schema this build understands.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema version mismatch: snapshot has {}, this build expects {SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        // Study snapshots carry one entry per shard; query-engine snapshots
        // carry none at all (there is no event loop behind them), so an
        // empty vector is also well-formed.
        if !self.per_shard_events.is_empty() && self.per_shard_events.len() != self.shards as usize
        {
            return Err(format!(
                "per_shard_events has {} entries for {} shards",
                self.per_shard_events.len(),
                self.shards
            ));
        }
        for (name, h) in &self.histograms {
            let bucket_total: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
            if bucket_total != h.count {
                return Err(format!(
                    "histogram {name}: bucket counts sum to {bucket_total}, count is {}",
                    h.count
                ));
            }
        }
        Ok(())
    }

    /// Human-readable summary: the table `full_run` prints. Counters and
    /// gauges one per line; histograms with count / mean / p50 / p99 / max.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "metrics (schema v{}, preset {}, seed {}, {} shards)\n",
            self.schema_version, self.preset, self.seed, self.shards
        ));
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("    {name:<44} {v:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("  gauges (max):\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("    {name:<44} {v:>14}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms:\n");
            out.push_str(&format!(
                "    {:<44} {:>10} {:>10} {:>8} {:>8} {:>10}\n",
                "name", "count", "mean", "p50", "p99", "max"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "    {name:<44} {:>10} {:>10.1} {:>8} {:>8} {:>10}\n",
                    h.count,
                    h.mean(),
                    approx_quantile(h, 0.50),
                    approx_quantile(h, 0.99),
                    h.max
                ));
            }
        }
        if !self.per_shard_events.is_empty() {
            let total: u64 = self.per_shard_events.iter().sum();
            let max = self.per_shard_events.iter().copied().max().unwrap_or(0);
            out.push_str(&format!(
                "  shard events: total {total}, max shard {max}, {} shards\n",
                self.per_shard_events.len()
            ));
        }
        out
    }
}

/// Quantile over a serialized histogram (same semantics as
/// [`Histogram::quantile`]).
fn approx_quantile(h: &HistogramSnapshot, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * h.count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for &(lb, n) in &h.buckets {
        seen += n;
        if seen >= rank {
            return lb;
        }
    }
    h.max
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut reg = MetricRegistry::new();
        reg.count("scan.probe.sent", "telnet", 100);
        reg.count("net.events_processed", "", 12345);
        reg.gauge_max("net.conns_live", "", 17);
        for v in [40u64, 60, 600, 1500] {
            reg.observe("net.udp_bytes", "", v);
        }
        let mut snap = MetricsSnapshot::from_registry(7, 16, "quick", &reg, vec![1; 16]);
        snap.host.workers = 8;
        snap.host.steals = 3;
        snap.host.profile = ProfileNode::leaf("study", std::time::Duration::from_millis(3));
        let mut lat = Histogram::default();
        lat.record(1_500);
        lat.record(90_000);
        snap.host
            .latency
            .insert("query.host".into(), HistogramSnapshot::from_histogram(&lat));
        snap
    }

    #[test]
    fn schema_roundtrip_is_byte_stable() {
        let snap = sample_snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        // Serializing the round-tripped value reproduces the exact bytes.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
        back.validate().expect("round-tripped snapshot validates");
    }

    #[test]
    fn validate_rejects_wrong_version() {
        let mut snap = sample_snapshot();
        snap.schema_version = SCHEMA_VERSION + 1;
        assert!(snap.validate().is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_histogram() {
        let mut snap = sample_snapshot();
        snap.histograms.get_mut("net.udp_bytes").unwrap().count += 1;
        assert!(snap.validate().is_err());
    }

    #[test]
    fn zeroing_blanks_only_host_section() {
        let mut snap = sample_snapshot();
        snap.zero_wall_clock();
        assert_eq!(snap.host.workers, 0);
        assert_eq!(snap.host.steals, 0);
        assert!(snap.host.latency.is_empty());
        assert_eq!(snap.host.profile.wall_ns, 0);
        assert_eq!(snap.host.profile.name, "study", "structure survives");
        assert_eq!(snap.counters["scan.probe.sent{telnet}"], 100);
        assert_eq!(snap.preset, "quick", "preset is deterministic identity");
    }

    #[test]
    fn empty_per_shard_events_is_valid() {
        let mut snap = sample_snapshot();
        snap.per_shard_events.clear();
        snap.validate().expect("query-engine snapshots have no per-shard events");
        snap.per_shard_events = vec![1; 3];
        assert!(snap.validate().is_err(), "partial vectors still rejected");
    }

    #[test]
    fn summary_mentions_everything() {
        let s = sample_snapshot().render_summary();
        assert!(s.contains("scan.probe.sent{telnet}"));
        assert!(s.contains("net.conns_live"));
        assert!(s.contains("net.udp_bytes"));
        assert!(s.contains("shard events"));
    }
}
