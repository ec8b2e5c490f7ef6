//! `--bench scaling` — the published scaling curve.
//!
//! Runs the quick and paper-smoke presets across a shards × workers grid
//! and emits a cores-vs-wall-clock curve into `BENCH_scaling.json` at the
//! workspace root. Reading the file:
//!
//! * **Rows with the same `(preset, shards)` and growing `workers`** are
//!   the execution-scaling curve: identical bytes out (the determinism
//!   suites prove it), wall clock ideally dropping until `workers` reaches
//!   `min(host cores, shards)`. `speedup_x` is against the `workers=1` row
//!   of the same `(preset, shards)`.
//! * **Rows with different `shards`** are *different traces* (shard count
//!   is a semantic knob) — compare their wall clocks, never their outputs.
//!   More shards = more parallelism headroom (the curve keeps rising past
//!   16 workers only at shards ≥ 64) at a small fixed per-shard cost,
//!   visible in the `workers=1` rows.
//! * `host_cores` bounds every curve: on a 1-core container all curves are
//!   flat and the grid only records scheduler overhead. Cells whose
//!   effective worker count (`min(workers, shards)`) exceeds `host_cores`
//!   are marked `flat_curve_expected: true` so curve consumers don't read
//!   their `speedup_x` as a regression.
//!
//! Each preset runs one untimed study before its grid, so the first timed
//! cell (a `workers=1` baseline) is not also the process's first study.
//!
//! Modes: `cargo bench -p ofh-bench --bench scaling` times the full grid;
//! `BENCH_SCALING_MINI=1` runs a bounded 2×2 quick-only grid (CI exercises
//! the harness this way); `BENCH_SCALING_FULL=1` additionally times
//! paper-scale at shards=64 (~minutes); `BENCH_SCALING_OUT=path` redirects
//! the JSON; `-- --test` smokes one cell and writes nothing.

use std::hint::black_box;
use std::time::Instant;

use ofh_core::{Study, StudyConfig};

struct Cell {
    preset: &'static str,
    shards: u32,
    workers: usize,
    wall_s: f64,
    speedup_x: f64,
    /// True when this cell cannot beat the `workers=1` row: its effective
    /// worker count (workers capped at shards) exceeds the host's cores,
    /// so the extra threads time-slice one another. On a 1-core host every
    /// multi-worker cell carries this flag — `speedup_x` there records
    /// scheduler overhead, not a scaling defect.
    flat_curve_expected: bool,
}

fn preset_cfg(preset: &str, seed: u64) -> StudyConfig {
    match preset {
        "quick" => StudyConfig::quick(seed),
        "paper-smoke" => StudyConfig::paper_smoke(seed),
        other => unreachable!("no preset {other} in the scaling grid"),
    }
}

/// Wall clock of one grid cell, best of `reps` (min strips scheduler noise
/// without averaging in cold-cache outliers).
fn time_cell(preset: &str, shards: u32, workers: usize, reps: u32) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let mut cfg = preset_cfg(preset, 7);
        cfg.shards = shards;
        cfg.workers = workers;
        let t0 = Instant::now();
        let report = Study::new(cfg).run();
        black_box(report.counters.events_processed);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        // Smoke mode: one cell through the full path, nothing written.
        let s = time_cell("quick", 16, 1, 1);
        println!("test scaling/quick_16x1 ... ok (single pass, {s:.3} s)");
        return;
    }
    let mini = std::env::var_os("BENCH_SCALING_MINI").is_some();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // The grid. Workers beyond the shard count are capped by the engine to
    // no effect, so each preset stops at its shard count; the worker axis
    // deliberately runs past 16 to show where the old fixed-16 partition
    // plateaued and the 64-way one keeps going (given the cores).
    let grid: Vec<(&'static str, u32, Vec<usize>, u32)> = if mini {
        vec![
            ("quick", 16, vec![1, 2], 1),
            ("quick", 64, vec![1, 2], 1),
        ]
    } else {
        vec![
            ("quick", 16, vec![1, 2, 4, 8, 16], 2),
            ("quick", 64, vec![1, 2, 4, 8, 16, 32, 64], 2),
            ("paper-smoke", 16, vec![1, 4, 16], 2),
            ("paper-smoke", 64, vec![1, 4, 16, 32, 64], 2),
        ]
    };

    let mut cells: Vec<Cell> = Vec::new();
    let mut warmed: Vec<&str> = Vec::new();
    for (preset, shards, workers_axis, reps) in grid {
        // One untimed study per preset before its first cell, so no
        // workers=1 baseline pays for the process's first study (cold
        // caches, first-touch page faults, lazy statics) and inflates
        // every speedup_x of its row.
        if !warmed.contains(&preset) {
            time_cell(preset, shards, 1, 1);
            warmed.push(preset);
        }
        let mut base_s = None;
        for workers in workers_axis {
            let wall_s = time_cell(preset, shards, workers, reps);
            let base = *base_s.get_or_insert(wall_s);
            let speedup_x = base / wall_s.max(1e-9);
            let flat_curve_expected = workers.min(shards as usize) > cores;
            let note = if flat_curve_expected { "  [flat curve expected]" } else { "" };
            println!(
                "bench scaling/{preset}/shards={shards}/workers={workers:<3} {wall_s:>8.3} s  ({speedup_x:.2}x vs workers=1){note}"
            );
            cells.push(Cell { preset, shards, workers, wall_s, speedup_x, flat_curve_expected });
        }
    }

    // Paper-scale is minutes, not seconds: only on request, shards=64,
    // workers=0 (one per core — the documented way to run it).
    let paper_scale = std::env::var_os("BENCH_SCALING_FULL").map(|_| {
        println!("timing paper-scale at shards=64, workers=0 (BENCH_SCALING_FULL set)...");
        let mut cfg = StudyConfig::paper_scale(7);
        cfg.workers = 0;
        let t0 = Instant::now();
        let report = Study::new(cfg).run();
        black_box(report.counters.events_processed);
        let s = t0.elapsed().as_secs_f64();
        println!("bench scaling/paper-scale/shards=64/workers={cores}: {s:.1} s");
        s
    });

    // ---- Emit BENCH_scaling.json ---------------------------------------
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": 1,\n");
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(&format!("  \"mini\": {mini},\n"));
    json.push_str(
        "  \"note\": \"speedup_x is vs the workers=1 row of the same (preset, shards); \
         shard count is a semantic knob (different trace per count), workers a pure \
         execution knob (identical bytes per count). Curves cannot rise past \
         min(host_cores, shards) — cells where the effective worker count exceeds \
         host_cores carry flat_curve_expected: true, and on a 1-core host that is \
         every multi-worker cell (wall clock may even rise with workers there, \
         which is scheduler overhead, not a scaling defect). --workers 0 \
         auto-selects min(host_cores, shards), so auto runs never enter the \
         flat region.\",\n",
    );
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"preset\": \"{}\", \"shards\": {}, \"workers\": {}, \"wall_s\": {:.3}, \"speedup_x\": {:.2}, \"flat_curve_expected\": {} }}{comma}\n",
            c.preset, c.shards, c.workers, c.wall_s, c.speedup_x, c.flat_curve_expected
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"paper_scale_shards64_s\": {}\n",
        paper_scale.map_or("null".into(), |s| format!("{s:.1}"))
    ));
    json.push_str("}\n");

    let path = std::env::var("BENCH_SCALING_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
