//! Hot-path microbenchmarks backing DESIGN.md's "Hot-path memory model":
//! event-queue throughput, cached probe templates vs per-address encodes,
//! the dense-table banner matcher against the naive oracle, and the
//! quick-preset cost of the observability and fault knobs.
//!
//! Unlike the criterion benches, this harness also *records* its headline
//! numbers: bench mode rewrites `BENCH_hotpath.json` at the workspace root.
//! Whole-study wall clocks are not timed here; `e2ebench/` owns those.
//! Under `cargo bench ... -- --test` (how ci.sh smokes the bench suite)
//! every body runs exactly once and nothing is written.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ofh_core::{Study, StudyConfig};
use ofh_fingerprint::matcher::naive_find_all;
use ofh_fingerprint::AhoCorasick;
use ofh_honeypots::WildHoneypot;
use ofh_net::event::{EventQueue, HeapQueue};
use ofh_net::{SimTime, TimerWheel};
use ofh_scan::probe;
use ofh_wire::Protocol;

struct Harness {
    smoke: bool,
    results: Vec<(String, f64)>,
}

impl Harness {
    fn new() -> Harness {
        Harness {
            smoke: std::env::args().any(|a| a == "--test"),
            results: Vec::new(),
        }
    }

    /// Measure `f` with the same adaptive loop the vendored criterion uses;
    /// record ns/iter under `name`. Smoke mode runs a single pass.
    fn time<O>(&mut self, name: &str, mut f: impl FnMut() -> O) {
        if self.smoke {
            black_box(f());
            println!("test hotpath/{name} ... ok (single pass)");
            return;
        }
        let t0 = Instant::now();
        black_box(f());
        let first = t0.elapsed().max(Duration::from_nanos(1));
        let iters =
            (Duration::from_millis(300).as_nanos() / first.as_nanos()).clamp(1, 10_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per_iter = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        println!("bench hotpath/{name:<44} {per_iter:>14.1} ns/iter");
        self.results.push((name.to_string(), per_iter));
    }
}

/// One quick-preset study run with the given observability settings and
/// fault schedule; returns the wall clock in seconds.
fn study_run_s(obs: ofh_core::obs::ObsConfig, faults: &str) -> f64 {
    let mut cfg = StudyConfig::quick(7);
    cfg.obs = obs;
    cfg.faults = ofh_core::faults_from_arg(faults).expect("named fault preset");
    let t0 = Instant::now();
    let report = Study::new(cfg).run();
    black_box(report.counters.events_processed);
    t0.elapsed().as_secs_f64()
}

/// Schedule-then-pop churn at a live queue depth of `depth`, with one
/// out-of-order event per eight to exercise the heap lane too.
fn event_queue_churn(depth: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut acc = 0u64;
    for i in 0..depth {
        q.schedule(SimTime(i * 10), i);
    }
    for i in depth..(depth * 4) {
        let jitter = if i % 8 == 0 { 5 } else { 100 + (i % 7) };
        let (t, v) = q.pop().expect("queue stays non-empty");
        acc ^= t.0.wrapping_add(v);
        q.schedule(SimTime(t.0 + jitter), i);
    }
    while let Some((t, v)) = q.pop() {
        acc ^= t.0.wrapping_add(v);
    }
    acc
}

/// The same churn pattern driven through a raw `(tick, seq, payload)` queue —
/// `TimerWheel` and its `HeapQueue` differential oracle share this shape, so
/// one generic body benchmarks both backends on identical workloads.
macro_rules! raw_queue_churn {
    ($queue:expr, $depth:expr) => {{
        let mut q = $queue;
        let depth: u64 = $depth;
        let mut acc = 0u64;
        for i in 0..depth {
            q.insert(i * 10, i, i);
        }
        for i in depth..(depth * 4) {
            let jitter = if i % 8 == 0 { 5 } else { 100 + (i % 7) };
            let (t, _, v) = q.pop().expect("queue stays non-empty");
            acc ^= t.wrapping_add(v);
            q.insert(t + jitter, i, i);
        }
        while let Some((t, _, v)) = q.pop() {
            acc ^= t.wrapping_add(v);
        }
        acc
    }};
}

fn main() {
    let mut h = Harness::new();

    // ---- Event queue ----------------------------------------------------
    h.time("event_queue/schedule_pop_4k", || event_queue_churn(4096));
    h.time("event_queue/wheel_pop_4k", || {
        raw_queue_churn!(TimerWheel::new(), 4096)
    });
    h.time("event_queue/heap_pop_4k", || {
        raw_queue_churn!(HeapQueue::new(), 4096)
    });
    let bench_ns = |h: &Harness, name: &str| {
        h.results
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, ns)| ns)
    };
    if let (Some(wheel_ns), Some(heap_ns)) = (
        bench_ns(&h, "event_queue/schedule_pop_4k"),
        bench_ns(&h, "event_queue/heap_pop_4k"),
    ) {
        // The apples-to-apples number: the heap oracle re-measured in this
        // same run over the identical churn. (A recorded 801 µs pre-PR heap
        // baseline used to be reported too, but it was taken on a faster
        // machine state and no longer reproduces on this container, so the
        // same-run ratio is the one recorded.)
        println!(
            "bench event_queue: same-run heap {heap_ns:.0} ns -> wheel {wheel_ns:.0} ns ({:.1}x)",
            heap_ns / wheel_ns
        );
    }

    // ---- Probe templates vs per-address encodes -------------------------
    let templates = probe::ProbeTemplates::new();
    let mut mid = 0u16;
    h.time("probe/coap_encode_fresh", || {
        mid = mid.wrapping_add(1);
        probe::udp_probe(Protocol::Coap, mid)
    });
    h.time("probe/coap_template_patch", || {
        mid = mid.wrapping_add(1);
        templates.udp_probe(Protocol::Coap, mid)
    });
    h.time("probe/mqtt_encode_fresh", || {
        probe::tcp_opening(Protocol::Mqtt)
    });
    h.time("probe/mqtt_template_clone", || {
        templates.tcp_opening(Protocol::Mqtt)
    });

    // ---- Banner matching: dense table vs naive --------------------------
    let patterns: Vec<Vec<u8>> = WildHoneypot::ALL
        .iter()
        .map(|f| f.signature().to_vec())
        .collect();
    let dense = AhoCorasick::new(&patterns);
    // A realistic corpus: mostly non-matching device banners, a few hits.
    let mut corpus: Vec<Vec<u8>> = (0..64u32)
        .map(|i| {
            format!("\u{ff}\u{fb}\u{1}BusyBox v1.{i}.0 (2020-01-01) built-in shell\r\nlogin: ")
                .into_bytes()
        })
        .collect();
    for f in WildHoneypot::ALL {
        let mut banner = b"prefix ".to_vec();
        banner.extend_from_slice(f.signature());
        corpus.push(banner);
    }
    let bytes: usize = corpus.iter().map(Vec::len).sum();
    h.time("match/dense_table", || {
        corpus.iter().map(|b| dense.find_all(b).len()).sum::<usize>()
    });
    h.time("match/naive", || {
        corpus
            .iter()
            .map(|b| naive_find_all(&patterns, b).len())
            .sum::<usize>()
    });
    if !h.smoke {
        println!("(match corpus: {} banners, {bytes} bytes)", corpus.len());
    }

    // ---- Observability overhead -----------------------------------------
    // The ofh-obs contract: enabling metrics + tracing + profiling costs
    // < 3% end-to-end. Shared-machine noise between individual quick runs
    // exceeds the effect being measured, so: run off/on as back-to-back
    // pairs (adjacent runs share scheduler/thermal conditions), alternate
    // the order within each pair (cancels monotone drift), and take the
    // *median* of the per-pair deltas.
    let obs_overhead = if h.smoke {
        black_box(study_run_s(ofh_core::obs::ObsConfig::default(), "none"));
        println!("test hotpath/obs_overhead ... ok (single pass)");
        None
    } else {
        study_run_s(ofh_core::obs::ObsConfig::disabled(), "none"); // warmup
        let (mut best_off, mut best_on) = (f64::MAX, f64::MAX);
        let mut deltas = Vec::new();
        for i in 0..9 {
            let (off, on) = if i % 2 == 0 {
                let off = study_run_s(ofh_core::obs::ObsConfig::disabled(), "none");
                (off, study_run_s(ofh_core::obs::ObsConfig::default(), "none"))
            } else {
                let on = study_run_s(ofh_core::obs::ObsConfig::default(), "none");
                (study_run_s(ofh_core::obs::ObsConfig::disabled(), "none"), on)
            };
            best_off = best_off.min(off);
            best_on = best_on.min(on);
            deltas.push(on - off);
        }
        deltas.sort_by(f64::total_cmp);
        let median_delta = deltas[deltas.len() / 2];
        let pct = 100.0 * median_delta / best_off;
        println!(
            "bench hotpath/obs_overhead: off {best_off:.3} s | on {best_on:.3} s | median-pair {pct:+.2}%"
        );
        Some((best_off, best_on, pct))
    };

    // ---- Live telemetry + flight recorder overhead ----------------------
    // The v2 additions measured on top of default observability: heartbeat
    // reporter at a deliberately aggressive 100 ms interval, the --live-out
    // JSONL stream, and an armed flight recorder (ring pushes on every span
    // plus the panic hook installed). Same paired-median protocol as
    // obs_overhead; budget < 3%.
    let obs_live_overhead = if h.smoke {
        None
    } else {
        let tmp = std::env::temp_dir().join(format!("ofh-bench-live-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).ok();
        let live_cfg = || ofh_core::obs::ObsConfig {
            heartbeat: true,
            heartbeat_ms: 100,
            live_out: Some(tmp.join("live.jsonl").to_string_lossy().into_owned()),
            flight_dir: Some(tmp.to_string_lossy().into_owned()),
            ..ofh_core::obs::ObsConfig::default()
        };
        let (mut best_off, mut best_on) = (f64::MAX, f64::MAX);
        let mut deltas = Vec::new();
        for i in 0..9 {
            let (off, on) = if i % 2 == 0 {
                let off = study_run_s(ofh_core::obs::ObsConfig::default(), "none");
                (off, study_run_s(live_cfg(), "none"))
            } else {
                let on = study_run_s(live_cfg(), "none");
                (study_run_s(ofh_core::obs::ObsConfig::default(), "none"), on)
            };
            best_off = best_off.min(off);
            best_on = best_on.min(on);
            deltas.push(on - off);
        }
        std::fs::remove_dir_all(&tmp).ok();
        deltas.sort_by(f64::total_cmp);
        let median_delta = deltas[deltas.len() / 2];
        let pct = 100.0 * median_delta / best_off;
        println!(
            "bench hotpath/obs_live_overhead: base {best_off:.3} s | live+flight {best_on:.3} s | median-pair {pct:+.2}%"
        );
        Some((best_off, best_on, pct))
    };

    // ---- Fault overhead --------------------------------------------------
    // What running under an *active* fault schedule costs, measured in the
    // same run: quick preset with the hostile preset schedule vs the none
    // schedule (whose fault checks reduce to one `is_none()` branch).
    // Positive means "faults cost this much". An earlier version compared
    // the none run against a 0.424 s wall clock recorded before the fault
    // engine landed — a different, slower machine state — which printed a
    // confusing negative overhead.
    let fault_overhead = if h.smoke {
        None
    } else {
        let none_s = (0..3)
            .map(|_| study_run_s(ofh_core::obs::ObsConfig::default(), "none"))
            .fold(f64::MAX, f64::min);
        let hostile_s = (0..3)
            .map(|_| study_run_s(ofh_core::obs::ObsConfig::default(), "hostile"))
            .fold(f64::MAX, f64::min);
        let pct = 100.0 * (hostile_s - none_s) / none_s;
        println!(
            "bench hotpath/fault_overhead: none {none_s:.3} s | hostile {hostile_s:.3} s | {pct:+.2}%"
        );
        Some((none_s, hostile_s, pct))
    };

    if h.smoke {
        return;
    }

    // ---- Emit BENCH_hotpath.json ---------------------------------------
    let mut json = String::from("{\n  \"benchmarks_ns_per_iter\": {\n");
    for (i, (name, per)) in h.results.iter().enumerate() {
        let comma = if i + 1 == h.results.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {per:.1}{comma}\n"));
    }
    json.push_str("  },\n");
    if let Some((off, on, pct)) = obs_overhead {
        json.push_str(&format!(
            "  \"obs_overhead\": {{ \"quick_run_obs_off_s\": {off:.3}, \"quick_run_obs_on_s\": {on:.3}, \"overhead_pct\": {pct:.2} }},\n"
        ));
    }
    if let Some((off, on, pct)) = obs_live_overhead {
        // Heartbeat + live stream + armed flight recorder vs default obs.
        json.push_str(&format!(
            "  \"obs_live_overhead\": {{ \"quick_run_live_off_s\": {off:.3}, \"quick_run_live_on_s\": {on:.3}, \"overhead_pct\": {pct:.2} }},\n"
        ));
    }
    if let Some((none_s, hostile_s, pct)) = fault_overhead {
        // Same-run operands, positive = active faults cost this much.
        json.push_str(&format!(
            "  \"fault_overhead\": {{ \"quick_run_none_s\": {none_s:.3}, \"quick_run_hostile_s\": {hostile_s:.3}, \"overhead_pct\": {pct:.2} }},\n"
        ));
    }
    {
        // The primary recorded ratio is heap-vs-wheel from this same run —
        // the old recorded 801 µs heap baseline measured a faster machine
        // state and stopped reproducing here, so it is no longer emitted.
        let same_run = match (
            bench_ns(&h, "event_queue/schedule_pop_4k"),
            bench_ns(&h, "event_queue/heap_pop_4k"),
        ) {
            (Some(w), Some(hp)) => format!("{:.2}", hp / w),
            _ => "null".into(),
        };
        json.push_str(&format!(
            "  \"event_queue\": {{ \"same_run_heap_over_wheel\": {same_run} }}\n"
        ));
    }
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
