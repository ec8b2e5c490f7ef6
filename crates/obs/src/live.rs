//! Live telemetry: lock-free per-shard progress cells sampled by a
//! dedicated reporter thread.
//!
//! The recording side is wait-free and effectively free: each shard owns
//! one [`ProgressCell`] (a handful of `AtomicU64`s) and publishes into it
//! from coarse checkpoints only — the simulator's sim-hour rollover, a host
//! materialization, a shed connection — never per event. The sampling side
//! (heartbeat lines on stderr, the optional `--live-out` JSONL stream)
//! reads the wall clock and is therefore volatile by construction: it is
//! quarantined from the determinism contract exactly like the snapshot's
//! `host` section, and it never writes back into any deterministic
//! artifact.
//!
//! Shard threads find their cell through a thread-local installed by the
//! study loop ([`set_cell`]), mirroring how [`crate::install`] routes
//! metric recording: the instrumented crates call free functions
//! ([`tick`], [`spawned`], [`shed`]) that no-op when no cell is installed,
//! so benches and tests run un-instrumented.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default interval between reporter samples.
pub const DEFAULT_HEARTBEAT_MS: u64 = 500;

/// Schema version stamped into every `--live-out` line.
///
/// v2: samples drop the count of shards moved between workers (the
/// study's shard loop moves none).
pub const LIVE_SCHEMA_VERSION: u32 = 2;

/// One shard's progress, published wait-free from the shard's thread and
/// read (racily, which is fine — every field is monotone) by the reporter.
#[derive(Debug, Default)]
pub struct ProgressCell {
    /// Simulated milliseconds this shard has reached.
    pub sim_ms: AtomicU64,
    /// Events the shard's fabric has processed.
    pub events: AtomicU64,
    /// Implicit hosts materialized by first touch.
    pub hosts_spawned: AtomicU64,
    /// Connections shed by deployed-honeypot gates.
    pub conns_shed: AtomicU64,
    /// 1 once the shard has finished.
    pub done: AtomicU64,
}

/// Cross-shard live progress: one cell per shard plus run-wide counters.
/// Shared as `Arc<LiveProgress>` between the study loop, the shard
/// threads, and the reporter.
#[derive(Debug)]
pub struct LiveProgress {
    pub cells: Vec<Arc<ProgressCell>>,
    /// Shards that have run to completion.
    pub shards_done: AtomicU64,
    /// Sim-time each shard must reach (the study end), for progress %.
    pub target_sim_ms: u64,
}

/// One volatile sample of the whole run, folded over every cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSample {
    /// Sum over shards of `min(sim_ms, target)`.
    pub sim_ms_total: u64,
    pub events: u64,
    pub hosts_spawned: u64,
    pub conns_shed: u64,
    pub shards_done: u64,
}

impl LiveProgress {
    pub fn new(shards: u32, target_sim_ms: u64) -> LiveProgress {
        LiveProgress {
            cells: (0..shards).map(|_| Arc::new(ProgressCell::default())).collect(),
            shards_done: AtomicU64::new(0),
            target_sim_ms: target_sim_ms.max(1),
        }
    }

    /// Fold every cell into one sample. Racy reads of monotone counters:
    /// the sample is a consistent-enough lower bound, never an invariant.
    pub fn sample(&self) -> LiveSample {
        let mut s = LiveSample {
            shards_done: self.shards_done.load(Ordering::Relaxed),
            ..LiveSample::default()
        };
        for cell in &self.cells {
            s.sim_ms_total += cell.sim_ms.load(Ordering::Relaxed).min(self.target_sim_ms);
            s.events += cell.events.load(Ordering::Relaxed);
            s.hosts_spawned += cell.hosts_spawned.load(Ordering::Relaxed);
            s.conns_shed += cell.conns_shed.load(Ordering::Relaxed);
        }
        s
    }

    /// Fraction of total simulated time completed, in `[0, 1]`.
    pub fn fraction(&self, s: &LiveSample) -> f64 {
        s.sim_ms_total as f64 / (self.target_sim_ms as f64 * self.cells.len().max(1) as f64)
    }

    /// Mark a shard finished (clamps its sim-time to the target).
    pub fn mark_done(&self, shard: u32) {
        if let Some(cell) = self.cells.get(shard as usize) {
            cell.sim_ms.store(self.target_sim_ms, Ordering::Relaxed);
            if cell.done.swap(1, Ordering::Relaxed) == 0 {
                self.shards_done.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

thread_local! {
    /// The progress cell `tick`/`spawned`/`shed` publish into, if any.
    static CELL: RefCell<Option<Arc<ProgressCell>>> = const { RefCell::new(None) };
}

/// Install (or clear) this thread's progress cell. The study loop installs
/// a shard's cell for the duration of that shard's simulation.
pub fn set_cell(cell: Option<Arc<ProgressCell>>) {
    CELL.with(|c| *c.borrow_mut() = cell);
}

#[inline]
fn with_cell(f: impl FnOnce(&ProgressCell)) {
    CELL.with(|c| {
        if let Ok(slot) = c.try_borrow() {
            if let Some(cell) = slot.as_ref() {
                f(cell);
            }
        }
    });
}

/// Publish the shard's sim-time and event count. Called at coarse
/// checkpoints (the simulator's sim-hour rollover), never per event.
#[inline]
pub fn tick(sim_ms: u64, events: u64) {
    with_cell(|c| {
        c.sim_ms.store(sim_ms, Ordering::Relaxed);
        c.events.store(events, Ordering::Relaxed);
    });
}

/// Count `n` implicit hosts materialized on this shard.
#[inline]
pub fn spawned(n: u64) {
    with_cell(|c| {
        c.hosts_spawned.fetch_add(n, Ordering::Relaxed);
    });
}

/// Count `n` connections shed by a honeypot gate on this shard.
#[inline]
pub fn shed(n: u64) {
    with_cell(|c| {
        c.conns_shed.fetch_add(n, Ordering::Relaxed);
    });
}

/// Reporter configuration (resolved from `ObsConfig` + CLI by the caller).
#[derive(Debug, Clone, Default)]
pub struct ReporterOptions {
    /// Print heartbeat lines to stderr.
    pub heartbeat: bool,
    /// Sample interval in milliseconds (0 = [`DEFAULT_HEARTBEAT_MS`]).
    pub interval_ms: u64,
    /// Append wall-clock-stamped JSONL samples to this file.
    pub live_out: Option<std::path::PathBuf>,
    /// Preset name, echoed into the live stream header for provenance.
    pub preset: String,
    /// Shard count, ditto.
    pub shards: u32,
}

/// A running reporter thread. [`Reporter::stop`] (or drop) emits one final
/// sample and joins the thread.
#[derive(Debug)]
pub struct Reporter {
    /// Stop flag + condvar: the reporter parks on the condvar between
    /// samples, so it costs *zero* wakeups mid-interval (a sliced sleep
    /// would preempt the simulation ~50×/s on a single-core host) while
    /// `stop()` still returns immediately.
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Reporter {
    /// Spawn the sampling thread. Never panics the run: an unwritable
    /// `live_out` path degrades to heartbeat-only with a warning.
    pub fn spawn(progress: Arc<LiveProgress>, opts: ReporterOptions) -> Reporter {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ofh-live".into())
            .spawn(move || run_reporter(&progress, &opts, &flag))
            .expect("spawn live reporter thread");
        Reporter { stop, handle: Some(handle) }
    }

    /// Signal the reporter to emit a final sample and exit, then join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_reporter(progress: &LiveProgress, opts: &ReporterOptions, stop: &(Mutex<bool>, Condvar)) {
    let interval = Duration::from_millis(if opts.interval_ms == 0 {
        DEFAULT_HEARTBEAT_MS
    } else {
        opts.interval_ms
    });
    let start = Instant::now();
    let mut out = opts.live_out.as_ref().and_then(|path| {
        match std::fs::File::create(path) {
            Ok(f) => Some(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("[live] cannot write {}: {e}", path.display());
                None
            }
        }
    });
    if let Some(f) = &mut out {
        let _ = writeln!(
            f,
            "{{\"v\":{LIVE_SCHEMA_VERSION},\"kind\":\"live.header\",\"preset\":\"{}\",\"shards\":{},\"target_sim_ms\":{}}}",
            opts.preset, opts.shards, progress.target_sim_ms
        );
    }
    let (stop_lock, stop_cv) = stop;
    let mut prev = progress.sample();
    let mut prev_at = start;
    loop {
        let stopping = *stop_lock.lock().unwrap();
        let now = Instant::now();
        let s = progress.sample();
        let dt = now.duration_since(prev_at).as_secs_f64().max(1e-9);
        let events_per_s = (s.events.saturating_sub(prev.events)) as f64 / dt;
        let wall_ms = now.duration_since(start).as_millis() as u64;
        let pct = progress.fraction(&s) * 100.0;
        let eta_s = eta_seconds(progress, &s, now.duration_since(start));
        if opts.heartbeat {
            eprintln!("{}", heartbeat_line(progress, &s, pct, events_per_s, eta_s));
        }
        if let Some(f) = &mut out {
            let _ = writeln!(
                f,
                "{{\"v\":{LIVE_SCHEMA_VERSION},\"kind\":\"live.sample\",\"wall_ms\":{wall_ms},\
                 \"pct\":{pct:.1},\"sim_ms\":{},\"events\":{},\"events_per_s\":{:.0},\
                 \"hosts_spawned\":{},\"conns_shed\":{},\"shards_done\":{}}}",
                s.sim_ms_total,
                s.events,
                events_per_s,
                s.hosts_spawned,
                s.conns_shed,
                s.shards_done,
            );
        }
        if stopping {
            break;
        }
        prev = s;
        prev_at = now;
        // Park on the condvar for the whole interval: no intermediate
        // wakeups, and stop() interrupts the wait immediately (a
        // quick-preset run is shorter than one sample).
        let guard = stop_lock.lock().unwrap();
        if !*guard {
            let _ = stop_cv.wait_timeout(guard, interval);
        }
    }
    if let Some(f) = &mut out {
        let _ = f.flush();
    }
}

/// Estimated seconds to completion from overall sim-time throughput
/// (`None` until any progress is visible).
fn eta_seconds(progress: &LiveProgress, s: &LiveSample, elapsed: Duration) -> Option<f64> {
    let total = progress.target_sim_ms as f64 * progress.cells.len().max(1) as f64;
    let done = s.sim_ms_total as f64;
    if done <= 0.0 || elapsed.as_secs_f64() <= 0.0 {
        return None;
    }
    let rate = done / elapsed.as_secs_f64(); // sim-ms per wall-second
    Some(((total - done) / rate).max(0.0))
}

/// Render a count like `1.23M` / `45.6k` / `789`.
pub fn human(n: u64) -> String {
    match n {
        0..=9_999 => n.to_string(),
        10_000..=999_999 => format!("{:.1}k", n as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}M", n as f64 / 1e6),
        _ => format!("{:.2}G", n as f64 / 1e9),
    }
}

fn heartbeat_line(
    progress: &LiveProgress,
    s: &LiveSample,
    pct: f64,
    events_per_s: f64,
    eta_s: Option<f64>,
) -> String {
    let eta = match eta_s {
        Some(t) if t >= 1.0 => format!("{t:.0}s"),
        Some(_) => "<1s".into(),
        None => "--".into(),
    };
    format!(
        "[live] {pct:5.1}% | {} ev ({}/s) | {} hosts | {} shed | {}/{} shards | eta {eta}",
        human(s.events),
        human(events_per_s as u64),
        human(s.hosts_spawned),
        human(s.conns_shed),
        s.shards_done,
        progress.cells.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_noop_without_cell() {
        tick(5, 10);
        spawned(2);
        shed(1);
        // Nothing installed: nothing to observe, and no panic.
    }

    #[test]
    fn cell_publishes_through_thread_local() {
        let progress = LiveProgress::new(2, 1_000);
        set_cell(Some(Arc::clone(&progress.cells[1])));
        tick(400, 77);
        spawned(3);
        shed(2);
        set_cell(None);
        tick(999_999, 1); // no cell installed anymore: discarded
        let s = progress.sample();
        assert_eq!(s.sim_ms_total, 400);
        assert_eq!(s.events, 77);
        assert_eq!(s.hosts_spawned, 3);
        assert_eq!(s.conns_shed, 2);
        assert_eq!(s.shards_done, 0);
    }

    #[test]
    fn sample_clamps_to_target_and_marks_done() {
        let progress = LiveProgress::new(2, 1_000);
        progress.cells[0].sim_ms.store(5_000, Ordering::Relaxed);
        let s = progress.sample();
        assert_eq!(s.sim_ms_total, 1_000, "per-shard sim-time clamps to target");
        assert!((progress.fraction(&s) - 0.5).abs() < 1e-9);
        progress.mark_done(0);
        progress.mark_done(0); // idempotent
        assert_eq!(progress.shards_done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn human_counts() {
        assert_eq!(human(999), "999");
        assert_eq!(human(45_600), "45.6k");
        assert_eq!(human(1_230_000), "1.23M");
    }

    #[test]
    fn reporter_writes_header_and_samples() {
        let dir = std::env::temp_dir().join("ofh_live_reporter_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.jsonl");
        let progress = Arc::new(LiveProgress::new(4, 1_000));
        progress.cells[0].sim_ms.store(250, Ordering::Relaxed);
        progress.cells[0].events.store(123, Ordering::Relaxed);
        let reporter = Reporter::spawn(
            Arc::clone(&progress),
            ReporterOptions {
                heartbeat: false,
                interval_ms: 10,
                live_out: Some(path.clone()),
                preset: "quick".into(),
                shards: 4,
            },
        );
        std::thread::sleep(Duration::from_millis(40));
        reporter.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = lines.next().expect("header line");
        assert!(header.contains("\"live.header\""));
        assert!(header.contains("\"preset\":\"quick\""));
        assert!(header.contains("\"shards\":4"));
        let sample = lines.next().expect("at least one sample");
        assert!(sample.contains("\"live.sample\""));
        assert!(sample.contains("\"events\":123"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heartbeat_line_shape() {
        let progress = LiveProgress::new(8, 100);
        let mut s = progress.sample();
        s.events = 1_230_000;
        let line = heartbeat_line(&progress, &s, 42.5, 250_000.0, Some(38.2));
        assert!(line.starts_with("[live]"));
        assert!(line.contains("42.5%"));
        assert!(line.contains("1.23M ev"));
        assert!(line.contains("eta 38s"));
        let no_eta = heartbeat_line(&progress, &s, 0.0, 0.0, None);
        assert!(no_eta.contains("eta --"));
    }
}
