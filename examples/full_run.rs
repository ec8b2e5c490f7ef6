//! The EXPERIMENTS.md run: the `full` preset (2^22-address universe,
//! 1:64 scan scale, 1:8 honeypot scale). Prints the complete report.
//!
//! ```sh
//! cargo run --release --example full_run [seed] [workers] [faults]
//! ```
//!
//! `workers` sizes the shard thread pool (0 = one per core). Any value
//! prints the identical report — only the wall clock changes. `faults` is a
//! schedule: `none` (default), `lossy`, `hostile`, or a JSON schedule file
//! (see examples/faults_brownout.json).

use ofh_core::{Study, StudyConfig};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let workers: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(0);
    let faults = std::env::args().nth(3).unwrap_or_else(|| "none".into());
    let t0 = std::time::Instant::now();
    let mut cfg = StudyConfig::full(seed);
    cfg.workers = workers;
    cfg.faults = ofh_core::faults_from_arg(&faults).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    eprintln!("workers: {}", cfg.worker_threads());
    let report = Study::new(cfg).run_with(|phase| {
        eprintln!("[{:>7.1?}] {phase}", t0.elapsed());
    });
    println!("{}", report.render_full());
    // The observability snapshot: metric summary table and the
    // stage → shard → phase profile (wall vs cpu).
    eprint!("{}", report.metrics.render_summary());
    eprint!("{}", report.metrics.host.profile.render(1));
    eprintln!("elapsed: {:?}", t0.elapsed());
}
