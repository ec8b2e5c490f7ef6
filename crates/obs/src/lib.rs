//! # ofh-obs — deterministic observability for the openforhire pipeline
//!
//! Three instruments, one determinism contract:
//!
//! 1. **Metrics** ([`MetricRegistry`]) — counters, high-water gauges, and
//!    log-linear histograms. Each shard owns a private registry; registries
//!    merge order-independently at the join barrier, so the merged metrics
//!    are byte-stable across `--workers 1/2/4/8/16`.
//! 2. **Tracing** ([`TraceRing`], [`TraceLog`], [`Span`]) — spans keyed on
//!    *sim-time*, recorded into a bounded per-shard ring and merged into one
//!    canonical stream, emitted as JSONL via `--trace-out`.
//! 3. **Self-profiling** ([`ProfileNode`], [`Stopwatch`]) — scoped
//!    wall-clock timers building a stage → shard → phase tree with an
//!    explicit `wall_ns` / `cpu_ns` split.
//!
//! v2 adds three *explicitly volatile* companions, quarantined from the
//! deterministic artifacts exactly like the host section of the snapshot:
//!
//! 4. **Live telemetry** ([`live`]) — lock-free per-shard progress cells
//!    sampled by a reporter thread into heartbeat lines and an optional
//!    `--live-out` JSONL stream.
//! 5. **Flight recorder** ([`recorder`]) — a bounded per-shard ring of
//!    recent activity, dumped to `flight-<shard>.jsonl` by the panic hook
//!    or at chaos-engine fault windows.
//! 6. **Regression sentinel** ([`diff`]) — cross-run snapshot diffing
//!    behind `openforhire obsdiff`: exact on deterministic sections,
//!    threshold on volatile ones.
//!
//! ## Recording model
//!
//! Instrumented code calls the free functions ([`count`], [`observe`],
//! [`span`], …), which record into whatever [`ShardObs`] is *installed* on
//! the current thread — and no-op when none is. The pipeline installs one
//! `ShardObs` per shard for the duration of that shard's simulation, on the
//! worker thread that runs it (shards never migrate threads mid-run). Unit
//! tests and benches that never call [`install`] therefore run fully
//! un-instrumented.
//!
//! Nothing here may perturb the simulation: recording takes no RNG draws,
//! never reorders events, and reads no wall clock on the recording path.
//! The *only* wall-clock reads live in [`Stopwatch`], whose results feed the
//! profile tree — explicitly outside the determinism contract.

pub mod diff;
pub mod live;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod snapshot;
pub mod trace;

pub use diff::{diff_snapshots, DiffOptions, SnapshotDiff};
pub use live::{LiveProgress, LiveSample, Reporter, ReporterOptions, DEFAULT_HEARTBEAT_MS};
pub use metrics::{
    bucket_index, bucket_lower_bound, key_string, AtomicHistogram, Histogram, MetricKey,
    MetricRegistry,
};
pub use profile::{ProfileNode, Stopwatch};
pub use recorder::{
    install_panic_hook, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY,
    FLIGHT_SCHEMA_VERSION,
};
pub use snapshot::{HistogramSnapshot, HostStats, MetricsSnapshot, SCHEMA_VERSION};
pub use trace::{Span, TraceLog, TraceRing, DEFAULT_TRACE_CAPACITY, TRACE_SCHEMA_VERSION};

use std::cell::RefCell;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// Observability configuration — an execution knob, not a simulation
/// parameter. It is excluded from config serialization (`#[serde(skip)]` at
/// the embedding site) for the same reason `workers` is: two runs differing
/// only in observability settings must produce identical reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Master switch. When false nothing is installed and every recording
    /// call is a branch-on-thread-local no-op.
    pub enabled: bool,
    /// Per-shard trace ring capacity (spans kept per shard).
    pub trace_capacity: usize,
    /// Emit periodic `[live]` heartbeat lines to stderr while a study runs.
    pub heartbeat: bool,
    /// Heartbeat/live-stream sampling interval in wall-clock milliseconds.
    pub heartbeat_ms: u64,
    /// When set, stream live telemetry samples as JSONL to this path
    /// (volatile artifact: wall-clock sampled, never byte-compared).
    pub live_out: Option<String>,
    /// When set, flight-recorder dumps (`flight-<shard>.jsonl`) land in
    /// this directory and the process panic hook is armed.
    pub flight_dir: Option<String>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            heartbeat: false,
            heartbeat_ms: DEFAULT_HEARTBEAT_MS,
            live_out: None,
            flight_dir: None,
        }
    }
}

impl ObsConfig {
    /// Fully disabled observability (for overhead benchmarking).
    pub fn disabled() -> ObsConfig {
        ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        }
    }

    /// Is any live-telemetry output (heartbeat or JSONL stream) requested?
    pub fn live_requested(&self) -> bool {
        self.enabled && (self.heartbeat || self.live_out.is_some())
    }
}

/// One shard's observability state: its private metric registry, trace
/// ring, and flight-recorder ring.
///
/// The flight-dump directory lives *here*, per installed `ShardObs`, not in
/// process-global state: parallel tests run whole studies concurrently, and
/// a global dump directory would let one test's panic scribble into
/// another's artifacts.
#[derive(Debug, Default)]
pub struct ShardObs {
    pub metrics: MetricRegistry,
    pub trace: TraceRing,
    pub flight: FlightRecorder,
    /// Which shard this state belongs to. Names the flight dump file.
    pub shard: u32,
    /// Where this shard's flight dumps go; `None` disables dumping.
    pub flight_dir: Option<PathBuf>,
}

impl ShardObs {
    /// The state the study loop installs for one shard: its identity plus
    /// the trace capacity and flight-dump directory from the config. Every
    /// shard's flight ring holds [`DEFAULT_FLIGHT_CAPACITY`] events.
    pub fn for_shard(shard: u32, cfg: &ObsConfig) -> ShardObs {
        ShardObs {
            metrics: MetricRegistry::new(),
            trace: TraceRing::new(cfg.trace_capacity),
            flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
            shard,
            flight_dir: cfg.flight_dir.as_ref().map(PathBuf::from),
        }
    }
}

thread_local! {
    /// The `ShardObs` recording calls on this thread write into, if any.
    static CURRENT: RefCell<Option<ShardObs>> = const { RefCell::new(None) };
}

/// Install `obs` as this thread's recording target until the returned guard
/// is [`finish`](ObsGuard::finish)ed (which returns the populated `ShardObs`)
/// or dropped. Installs do not nest: the study installs one target per shard
/// on the worker thread that runs it and finishes it before that worker
/// takes the next shard.
#[must_use = "dropping the guard discards the recorded data; call finish()"]
pub fn install(obs: ShardObs) -> ObsGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(obs));
    debug_assert!(prev.is_none(), "install: a recording target is already installed");
    ObsGuard(())
}

/// Guard for an [`install`]; uninstalls the target on finish or drop.
#[derive(Debug)]
pub struct ObsGuard(());

impl ObsGuard {
    /// Uninstall and hand back the recorded data.
    pub fn finish(self) -> ShardObs {
        CURRENT
            .with(|c| c.borrow_mut().take())
            .expect("ObsGuard::finish: nothing installed")
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().take());
    }
}

/// Is a recording target installed on this thread?
#[inline]
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

#[inline]
fn with_obs(f: impl FnOnce(&mut ShardObs)) {
    CURRENT.with(|c| {
        if let Ok(mut slot) = c.try_borrow_mut() {
            if let Some(obs) = slot.as_mut() {
                f(obs);
            }
        }
    });
}

/// Increment counter `name` by `n`. No-op when nothing is installed.
#[inline]
pub fn count(name: &'static str, n: u64) {
    with_obs(|o| o.metrics.count(name, "", n));
}

/// Increment labeled counter `name{label}` by `n`.
#[inline]
pub fn count_l(name: &'static str, label: &'static str, n: u64) {
    with_obs(|o| o.metrics.count(name, label, n));
}

/// Raise high-water gauge `name` to at least `v`.
#[inline]
pub fn gauge_max(name: &'static str, v: u64) {
    with_obs(|o| o.metrics.gauge_max(name, "", v));
}

/// Record `v` into histogram `name`.
#[inline]
pub fn observe(name: &'static str, v: u64) {
    with_obs(|o| o.metrics.observe(name, "", v));
}

/// Fold a locally-accumulated histogram into `name`. The batched form of
/// [`observe`] for hot paths: per-sample code records into a private
/// [`Histogram`] it owns (one bucket bump, no thread-local access, no key
/// lookup), and flushes here once per phase.
pub fn observe_hist(name: &'static str, h: &Histogram) {
    observe_hist_l(name, "", h);
}

/// Fold a locally-accumulated histogram into labeled histogram
/// `name{label}`, as [`observe_hist`] does for unlabeled ones. An empty
/// histogram records nothing, so no key appears for it.
pub fn observe_hist_l(name: &'static str, label: &'static str, h: &Histogram) {
    with_obs(|o| o.metrics.absorb_histogram(name, label, h));
}

/// Record a tracing span. `seq` is assigned by the ring; pass 0.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn span(
    kind: &'static str,
    label: &'static str,
    start_ms: u64,
    end_ms: u64,
    src: u32,
    dst: u32,
    port: u16,
    bytes: u32,
) {
    with_obs(|o| {
        o.trace.push(Span {
            start_ms,
            end_ms,
            kind,
            label,
            src,
            dst,
            port,
            bytes,
            seq: 0,
        });
        // Spans double as flight-recorder entries: the ring then holds the
        // shard's most recent activity when a panic or fault-window dump
        // fires, at the cost of one extra ring store.
        o.flight.push(FlightEvent {
            sim_ms: start_ms,
            kind,
            label,
            a: dst as u64,
            b: bytes as u64,
        });
    });
}

/// Record a raw flight-recorder entry (metric delta, fault transition, …)
/// without emitting a tracing span. No-op when nothing is installed.
#[inline]
pub fn flight(sim_ms: u64, kind: &'static str, label: &'static str, a: u64, b: u64) {
    with_obs(|o| o.flight.push(FlightEvent { sim_ms, kind, label, a, b }));
}

/// Dump the current thread's flight ring to
/// `<flight_dir>/flight-<shard>.jsonl`, returning the path written. `None`
/// when no `ShardObs` is installed, no dump directory is configured, or the
/// ring is empty.
///
/// Called by the panic hook (on the panicking thread, so the thread-local
/// state is directly reachable) and by the chaos engine at fault-window
/// transitions.
pub fn dump_flight(reason: &str) -> Option<PathBuf> {
    CURRENT.with(|c| {
        let slot = c.try_borrow().ok()?;
        let obs = slot.as_ref()?;
        let dir = obs.flight_dir.as_ref()?;
        if obs.flight.is_empty() {
            return None;
        }
        let path = dir.join(format!("flight-{:04}.jsonl", obs.shard));
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, obs.flight.to_jsonl(obs.shard, reason)).ok()?;
        Some(path)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard's recording target with a small trace ring.
    fn target() -> ShardObs {
        let cfg = ObsConfig {
            trace_capacity: 8,
            ..ObsConfig::default()
        };
        ShardObs::for_shard(0, &cfg)
    }

    #[test]
    fn recording_is_noop_without_install() {
        // Must not panic or leak state.
        count("x", 1);
        let mut h = Histogram::default();
        h.record(5);
        observe_hist_l("h", "l", &h);
        span("k", "l", 1, 2, 0, 0, 0, 0);
        assert!(!enabled());
    }

    #[test]
    fn folded_histograms_match_per_sample_recording() {
        let mut local = Histogram::default();
        let per_sample = install(target());
        for v in [3, 17, 900, 17] {
            with_obs(|o| o.metrics.observe("bytes", "tcp", v));
            local.record(v);
        }
        let want = per_sample.finish();
        let folded = install(target());
        observe_hist_l("bytes", "tcp", &local);
        observe_hist_l("bytes", "udp", &Histogram::default());
        let got = folded.finish();
        assert_eq!(got.metrics.histogram("bytes", "tcp"), want.metrics.histogram("bytes", "tcp"));
        assert!(got.metrics.histogram("bytes", "udp").is_none(), "an empty fold made a key");
    }

    #[test]
    fn install_captures_and_finish_returns() {
        let guard = install(target());
        assert!(enabled());
        count("probes", 3);
        count("probes", 4);
        gauge_max("depth", 9);
        observe("bytes", 100);
        span("scan.probe", "telnet", 10, 11, 1, 2, 23, 4);
        let obs = guard.finish();
        assert!(!enabled());
        assert_eq!(obs.metrics.counter("probes", ""), 7);
        assert_eq!(obs.metrics.gauge("depth", ""), 9);
        assert_eq!(obs.metrics.histogram("bytes", "").unwrap().count, 1);
        assert_eq!(obs.trace.emitted(), 1);
    }

    #[test]
    fn dropped_guard_uninstalls() {
        {
            let _guard = install(target());
            count("lost", 1);
            // Dropped without finish: the data is discarded.
        }
        assert!(!enabled());
        let guard = install(target());
        count("kept", 1);
        let got = guard.finish();
        assert_eq!(got.metrics.counter("kept", ""), 1);
        assert_eq!(got.metrics.counter("lost", ""), 0);
    }

    #[test]
    fn obs_config_default_and_disabled() {
        let d = ObsConfig::default();
        assert!(d.enabled);
        assert_eq!(d.trace_capacity, DEFAULT_TRACE_CAPACITY);
        assert!(!d.heartbeat && d.live_out.is_none() && d.flight_dir.is_none());
        assert!(!d.live_requested(), "live output is opt-in");
        assert!(!ObsConfig::disabled().enabled);
        let live = ObsConfig { heartbeat: true, ..ObsConfig::default() };
        assert!(live.live_requested());
        assert!(!ObsConfig { enabled: false, ..live }.live_requested());
    }

    #[test]
    fn spans_feed_the_flight_ring() {
        let guard = install(ShardObs::for_shard(3, &ObsConfig::default()));
        span("scan.probe", "telnet", 10, 11, 1, 2, 23, 4);
        flight(12, "metric.events", "hour", 500, 0);
        let obs = guard.finish();
        assert_eq!(obs.flight.recorded(), 2);
        let kinds: Vec<&str> = obs.flight.iter_ordered().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["scan.probe", "metric.events"]);
    }

    #[test]
    fn dump_flight_writes_per_shard_file() {
        let dir = std::env::temp_dir().join(format!("ofh-flight-{}", std::process::id()));
        let cfg = ObsConfig {
            flight_dir: Some(dir.to_string_lossy().into_owned()),
            ..ObsConfig::default()
        };
        // No ShardObs installed: no dump.
        assert!(dump_flight("panic").is_none());
        let guard = install(ShardObs::for_shard(7, &cfg));
        // Empty ring: still no dump.
        assert!(dump_flight("panic").is_none());
        flight(42, "metric.events", "hour", 9, 0);
        let path = dump_flight("fault-window").expect("dump written");
        assert!(path.ends_with("flight-0007.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"reason\":\"fault-window\""));
        assert!(text.contains("\"sim_ms\":42"));
        drop(guard.finish());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panic_hook_dumps_the_panicking_threads_ring() {
        install_panic_hook();
        install_panic_hook(); // idempotent
        let dir = std::env::temp_dir().join(format!("ofh-panic-{}", std::process::id()));
        let cfg = ObsConfig {
            flight_dir: Some(dir.to_string_lossy().into_owned()),
            ..ObsConfig::default()
        };
        let dir2 = dir.clone();
        let handle = std::thread::spawn(move || {
            let _guard = install(ShardObs::for_shard(5, &cfg));
            flight(1, "metric.events", "hour", 1, 0);
            panic!("flight-recorder smoke");
        });
        assert!(handle.join().is_err());
        let dumped = dir2.join("flight-0005.jsonl");
        let text = std::fs::read_to_string(&dumped).expect("panic hook wrote dump");
        assert!(text.contains("\"reason\":\"panic\""));
        std::fs::remove_dir_all(&dir2).ok();
    }
}
