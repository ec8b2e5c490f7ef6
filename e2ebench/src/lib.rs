//! Shared pieces of the openforhire end-to-end benchmark (`e2ebench`):
//! the metric tables `BENCHMARK.json` must agree with, the order
//! statistics every metric is reduced with, span self time, and the
//! seeded query mix run against each written store.

use std::net::Ipv4Addr;

use ofh_store::segment::TableView;
use ofh_store::{Query, StoreReader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["quick", "paper-smoke", "paper-slice"];

/// An end-to-end metric: what a user of the pipeline sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every workload reports every one of these in an untraced run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "study_wall_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "session_wall_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

/// A per-layer metric, with the end-to-end metric it should move and the
/// workloads on which it should move it. Reported by traced runs only.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

/// The scan phase is over 80% of their shard time.
const SWEEPS: &[&str] = &["quick", "paper-slice"];
const SMOKE: &[&str] = &["paper-smoke"];
const SLICE: &[&str] = &["paper-slice"];
/// Their sessions' queries are 10–15% of the session; paper-slice's ~5%.
const QUERIES: &[&str] = &["quick", "paper-smoke"];
const ALL: &[&str] = &["quick", "paper-smoke", "paper-slice"];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $moves:literal, $on:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
            on: $on,
        }
    };
}

/// Layers are the workspace crates. Times are medians over the traced
/// sessions of a run; counts are per study, or per session for
/// `store.query.*`. This table is the one record of which end-to-end
/// metric each layer metric should move; on the workloads it does not
/// name, the prediction is no change.
#[rustfmt::skip]
pub const PER_LAYER: &[Layer] = &[
    // ofh-core: stage stamps from the progress callback of `Study::run_with`.
    layer!("core.setup_s", "s", "lower", "study_wall_s", ALL),
    layer!("core.simulate_s", "s", "lower", "study_wall_s", ALL),
    layer!("core.merge_s", "s", "lower", "study_wall_s", SMOKE),
    layer!("core.analysis_s", "s", "lower", "study_wall_s", SLICE),
    // ofh-core: the scheduler, from the snapshot's profile tree.
    layer!("core.shard_cpu_s", "s", "lower", "study_wall_s", SWEEPS),
    layer!("core.shard_skew", "ratio", "lower", "study_wall_s", SWEEPS),
    layer!("core.parallel_efficiency", "ratio", "higher", "study_wall_s", SWEEPS),
    layer!("core.steals", "count", "lower", "study_wall_s", SWEEPS),
    layer!("core.wire_cpu_s", "s", "lower", "study_wall_s", SMOKE),
    layer!("core.extract_cpu_s", "s", "lower", "study_wall_s", SMOKE),
    // ofh-core: getrusage deltas around `Study::run_with`.
    layer!("core.minor_faults", "count", "lower", "study_wall_s", SMOKE),
    layer!("core.sys_s", "s", "lower", "study_wall_s", SMOKE),
    // Global set-up, re-run from outside through the public API.
    layer!("devices.population_build_s", "s", "lower", "study_wall_s", ALL),
    layer!("devices.hosts", "count", "lower", "study_wall_s", ALL),
    layer!("attack.plan_build_s", "s", "lower", "study_wall_s", ALL),
    layer!("attack.actors", "count", "lower", "study_wall_s", ALL),
    layer!("intel.oracles_populate_s", "s", "lower", "study_wall_s", ALL),
    // The event core, from the study's fabric counters.
    layer!("net.events", "count", "lower", "study_wall_s", SWEEPS),
    layer!("net.ns_per_event", "ns", "lower", "study_wall_s", SWEEPS),
    layer!("net.syns_sent", "count", "lower", "study_wall_s", SWEEPS),
    layer!("net.conns_established", "count", "lower", "study_wall_s", SWEEPS),
    layer!("net.tcp_bytes", "B", "lower", "study_wall_s", SWEEPS),
    layer!("net.udp_sent", "count", "lower", "study_wall_s", SWEEPS),
    // Per-shard phases, summed over shards.
    layer!("scan.cpu_s", "s", "lower", "study_wall_s", SWEEPS),
    layer!("scan.ns_per_syn", "ns", "lower", "study_wall_s", SWEEPS),
    layer!("scan.records", "count", "lower", "study_wall_s", SWEEPS),
    layer!("fingerprint.cpu_s", "s", "lower", "study_wall_s", SMOKE),
    layer!("fingerprint.detected", "count", "lower", "study_wall_s", SMOKE),
    layer!("fingerprint.filter_set_s", "s", "lower", "study_wall_s", SLICE),
    layer!("honeypots.month_cpu_s", "s", "lower", "study_wall_s", SLICE),
    layer!("honeypots.events", "count", "lower", "study_wall_s", SLICE),
    layer!("telescope.records", "count", "lower", "study_wall_s", SLICE),
    // Every table and figure, recomputed from outside and timed one by one.
    layer!("analysis.table4_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.table5_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.misconfigured_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.table7_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.table8_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.table10_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.table12_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.table13_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.fig2_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.fig3_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.breakdown_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.fig5_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.fig6_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.fig8_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.fig9_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.infected_s", "s", "lower", "study_wall_s", SLICE),
    layer!("analysis.unattributed_s", "s", "lower", "study_wall_s", SLICE),
    // The store: build, write, open, cold table renders, and the engine's
    // per-class latency, pruning and answer cache.
    layer!("store.build_s", "s", "lower", "session_wall_s", SLICE),
    layer!("store.write_s", "s", "lower", "session_wall_s", SLICE),
    layer!("store.bytes", "B", "lower", "session_wall_s", SLICE),
    layer!("store.rows", "count", "lower", "session_wall_s", SLICE),
    layer!("store.bytes_per_row", "B", "lower", "session_wall_s", SLICE),
    layer!("store.open_s", "s", "lower", "session_wall_s", QUERIES),
    layer!("store.table4_from_store_s", "s", "lower", "session_wall_s", QUERIES),
    // Per session: its queries on the store it wrote, through one engine.
    layer!("store.query.qps", "1/s", "higher", "session_wall_s", QUERIES),
    layer!("store.query.p99_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.host.p50_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.host.p99_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.scan.p50_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.scan.p99_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.events.p50_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.events.p99_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.range.p50_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.range.p99_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.telescope.p50_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.telescope.p99_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.table.p50_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.table.p99_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.info.p50_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.info.p99_us", "us", "lower", "session_wall_s", QUERIES),
    layer!("store.query.rows_pruned.host", "count", "higher", "session_wall_s", QUERIES),
    layer!("store.query.rows_pruned.range", "count", "higher", "session_wall_s", QUERIES),
    layer!("store.query.cache_hits", "count", "higher", "session_wall_s", QUERIES),
    layer!("store.query.cache_misses", "count", "lower", "session_wall_s", QUERIES),
    layer!("store.query.cache_hit_ratio", "ratio", "higher", "session_wall_s", QUERIES),
    // Cost of the benchmark's own spans on the traced studies.
    layer!("obs.trace_overhead_pct", "%", "lower", "study_wall_s", ALL),
];

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted in
/// place); NaN when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorted in place); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Percentile `q` in `[0, 1]` of latency samples in nanoseconds, in
/// microseconds, interpolated like [`quantile`].
pub fn percentile_us(samples_ns: &[u64], q: f64) -> f64 {
    let mut us: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    quantile(&mut us, q)
}

/// Self time of the span `[start, end)`: its length minus the part of it
/// that the union of its children's intervals covers. Children may overlap
/// each other (parallel shards) and may stick out of the parent.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    end.saturating_sub(start) - covered
}

/// Index of a query's class in [`ofh_store::query::QUERY_CLASSES`].
pub fn class_of(q: &Query) -> usize {
    match q {
        Query::HostLookup { .. } => 0,
        Query::CountScan { .. } => 1,
        Query::CountEvents { .. } => 2,
        Query::EventsInRange { .. } => 3,
        Query::CountTelescope { .. } => 4,
        Query::Table(_) => 5,
        Query::Info => 6,
    }
}

/// The seeded mixed-query stream an analyst runs against a store:
///
/// * 40% `HostLookup`, 80% of them on addresses drawn from the store and
///   20% on the reserved 240/4 block, which the zone maps prune;
/// * 35% label counts over scan (15%), events (10%) and telescope (10%)
///   rows, each label set to a value from the store's own dictionaries
///   with probability 1/2;
/// * 15% `EventsInRange` over random 1/64-span windows: always a miss in
///   the engine's 256-entry answer cache, so every one also evicts;
/// * 10% `Table(4|5|7)` / `Info`: four keys, so always cache hits once
///   warm.
///
/// These are the proportions of the mix in `benches/query.rs` of
/// `ofh-bench`. That file keeps its own generator; nothing checks that the
/// two draw the same stream.
pub struct QueryMix {
    rng: StdRng,
    hit_addrs: Vec<u32>,
    scan_sources: Vec<String>,
    scan_protocols: Vec<String>,
    scan_misconfigs: Vec<String>,
    scan_countries: Vec<String>,
    ev_honeypots: Vec<String>,
    ev_attack_types: Vec<String>,
    ev_classes: Vec<String>,
    tel_protocols: Vec<String>,
    tel_countries: Vec<String>,
    t_min: u64,
    span: u64,
}

impl QueryMix {
    pub fn new(reader: &StoreReader, seed: u64) -> ofh_store::bytes::Result<QueryMix> {
        let scan = reader.table("scan")?;
        let events = reader.table("events")?;
        let tel = reader.table("telescope")?;
        let addr_view = scan.u32("addr")?;
        let file = reader.bytes();
        let rows = addr_view.rows();
        if rows == 0 {
            return Err(ofh_store::FormatError("store has no scan rows".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let hit_addrs = (0..4096)
            .map(|_| addr_view.get(file, rng.gen_range(0..rows)))
            .collect();
        let labels = |t: &TableView, col: &str| t.dict(col).map(|d| d.labels.clone());
        let time = events.t64("time")?;
        let (t_min, t_max) = match (time.blocks.first(), time.blocks.last()) {
            (Some(a), Some(b)) => (a.min, b.max),
            _ => (0, 1),
        };
        Ok(QueryMix {
            rng,
            hit_addrs,
            scan_sources: labels(scan, "source")?,
            scan_protocols: labels(scan, "protocol")?,
            scan_misconfigs: labels(scan, "misconfig")?,
            scan_countries: labels(scan, "country")?,
            ev_honeypots: labels(events, "honeypot")?,
            ev_attack_types: labels(events, "attack_type")?,
            ev_classes: labels(events, "src_class")?,
            tel_protocols: labels(tel, "protocol")?,
            tel_countries: labels(tel, "country")?,
            t_min,
            span: (t_max - t_min).max(1),
        })
    }

    /// The next query of the stream.
    pub fn next_query(&mut self) -> Query {
        let rng = &mut self.rng;
        match rng.gen_range(0..100u32) {
            0..=39 => {
                let addr = if rng.gen_bool(0.8) {
                    self.hit_addrs[rng.gen_range(0..self.hit_addrs.len())]
                } else {
                    0xF000_0000 | rng.gen_range(0..0x0FFF_FFFFu32)
                };
                Query::HostLookup {
                    addr: Ipv4Addr::from(addr),
                }
            }
            40..=54 => Query::CountScan {
                source: pick(rng, &self.scan_sources),
                protocol: pick(rng, &self.scan_protocols),
                misconfig: pick(rng, &self.scan_misconfigs),
                country: pick(rng, &self.scan_countries),
            },
            55..=64 => Query::CountEvents {
                honeypot: pick(rng, &self.ev_honeypots),
                protocol: pick(rng, &self.scan_protocols),
                attack_type: pick(rng, &self.ev_attack_types),
                class: pick(rng, &self.ev_classes),
            },
            65..=74 => Query::CountTelescope {
                protocol: pick(rng, &self.tel_protocols),
                country: pick(rng, &self.tel_countries),
            },
            75..=89 => {
                let start = self.t_min + rng.gen_range(0..self.span);
                Query::EventsInRange {
                    start_ms: start,
                    end_ms: start + self.span / 64 + 1,
                    honeypot: pick(rng, &self.ev_honeypots),
                }
            }
            _ => match rng.gen_range(0..4u32) {
                0 => Query::Table(4),
                1 => Query::Table(5),
                2 => Query::Table(7),
                _ => Query::Info,
            },
        }
    }
}

/// A label filter: none half the time, else a uniformly drawn label.
fn pick(rng: &mut StdRng, labels: &[String]) -> Option<String> {
    if labels.is_empty() || rng.gen_bool(0.5) {
        None
    } else {
        Some(labels[rng.gen_range(0..labels.len())].clone())
    }
}
