//! `e2ebench` — the end-to-end benchmark of the openforhire pipeline.
//!
//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is an analyst's closed loop over the public API: run a
//! study (`Study::run_with`), check its report, write its columnar store
//! (`StudyReport::write_store`), reopen it (`StoreReader::open`) and query
//! it through a `QueryEngine`. The next step starts only when the previous
//! one has returned. The workloads differ in study configuration; README.md
//! says why each exists.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs traced and
//! untraced sessions in pairs on the same seed and prints the per-layer
//! metrics, measured from outside: stage stamps from the progress
//! callback, the snapshot's profile tree and counters, and the set-up,
//! analysis and store calls re-run and timed one by one. The last line of
//! stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the same object is
//! written under the cargo target directory, next to the traced run's
//! `spans-*.jsonl`. Any failed check makes the exit code nonzero.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ofh_core::analysis::figures::{AttackTypeBreakdown, Fig2, Fig3, Fig5, Fig6, Fig8, Fig9};
use ofh_core::analysis::infected::InfectedHosts;
use ofh_core::analysis::table10::Table10;
use ofh_core::analysis::table12::Table12;
use ofh_core::analysis::table13::Table13;
use ofh_core::analysis::table4::Table4;
use ofh_core::analysis::table5::Table5;
use ofh_core::analysis::table7::Table7;
use ofh_core::analysis::AttackDataset;
use ofh_core::attack::plan::{AttackPlan, HoneypotSet, PlanConfig};
use ofh_core::oracles::Oracles;
use ofh_core::study::population_for;
use ofh_core::telescope::TelescopeSummary;
use ofh_core::{Study, StudyConfig, StudyReport};
use ofh_e2ebench::{
    class_of, median, percentile_us, self_time_ns, QueryMix, END_TO_END, PER_LAYER,
};
use ofh_store::query::QUERY_CLASSES;
use ofh_store::{QueryEngine, StoreReader};

const USAGE: &str = "usage: e2ebench --workload quick|paper-smoke|paper-slice \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// `render_full` of the quick preset at seed 7, plus the trailing newline
/// the quickstart example prints.
const GOLDEN_QUICK_SEED7: &str = include_str!("../../tests/golden/quickstart_seed7.txt");

/// Runs cycle through this many seeds derived from `--seed`, so one run's
/// medians do not hang on a few seeds' populations: per-seed median study
/// times of quick and paper-smoke differ by up to 15%.
const SUB_SEEDS: u64 = 16;

/// Every this-many-th query is re-run uncached on `StoreReader::execute`.
const VERIFY_EVERY: usize = 1000;

/// Queries each session runs on the store it wrote, one engine per session.
/// They are 15% or less of a session: query latency moves with the
/// host's load far more than study time does (README.md, "Calibration"),
/// so a query-heavy session would spread past any bound.
const QUERIES_PER_SESSION: usize = 10_000;

/// A workload: the study configuration its sessions run.
struct Workload {
    name: &'static str,
    preset: fn(u64) -> StudyConfig,
}

/// Study worker threads in every workload: the 2 vCPUs of the host the
/// benchmark was calibrated on. At 1 worker the shards run on the main
/// thread with more page faults and kernel time per study, and
/// paper-smoke's run-to-run spread there was 26% against 7% at 2 workers.
const WORKERS: usize = 2;

const WORKLOAD_DEFS: [Workload; 3] = [
    // Dense 2^16 sweep: the scan and event core dominate.
    Workload {
        name: "quick",
        preset: StudyConfig::quick,
    },
    // 2^32 address plan, indexed sweeps, 64 small shards: per-shard fixed
    // costs, merge and allocation churn.
    Workload {
        name: "paper-smoke",
        preset: StudyConfig::paper_smoke,
    },
    // Paper-scale cut down to a sixth of its scan population and half its
    // honeypot traffic: stages, analysis tables and store split as they do
    // at paper scale, and the store and its query working set are the
    // largest.
    Workload {
        name: "paper-slice",
        preset: paper_slice,
    },
];

/// `StudyConfig::paper_scale` at scan scale 1:84 instead of 1:14 and
/// honeypot scale 1:16 instead of 1:8. One paper-scale study takes ~17 s
/// and 1.1 GB; this one ~3 s and ~270 MB. Table 7 grows faster than
/// linearly with the honeypot events and the scan-side tables linearly
/// with the scan records, so both scales shrink to keep their shares of
/// the analysis stage near paper scale's (README.md, "Workloads").
fn paper_slice(seed: u64) -> StudyConfig {
    StudyConfig {
        scan_scale: 84,
        hp_scale: 16,
        preset: "paper-slice".into(),
        ..StudyConfig::paper_scale(seed)
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (7u64, 30.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOAD_DEFS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Seed `k` of the run's cycle; seed 0 is `--seed` itself.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A span recorded by the benchmark around one of its own calls. Spans
/// copied from the snapshot's profile tree carry only a duration.
struct Span {
    run: u32,
    parent: Option<usize>,
    name: String,
    start_ns: Option<u64>,
    end_ns: Option<u64>,
    dur_ns: u64,
}

struct Bench {
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    store_path: PathBuf,
    epoch: Instant,
    /// Off during the warm-up session: checks still count, samples do not.
    recording: bool,
    sessions: u32,
    attempted: u64,
    failed: u64,
    e2e: BTreeMap<&'static str, Vec<f64>>,
    layers: BTreeMap<String, Vec<f64>>,
    spans: Vec<Span>,
    /// The first `render_full` seen for each seed.
    renders: BTreeMap<u64, String>,
    /// Peak RSS after the warm-up session. Later sessions only add the
    /// allocator's history, which varies from run to run.
    first_pass_rss_kb: u64,
}

impl Bench {
    fn new(args: Args) -> Bench {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        let out_dir = target.join("e2ebench");
        let store_path = out_dir.join(format!(
            "{}-{}.store",
            args.workload.name,
            std::process::id()
        ));
        Bench {
            w: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            out_dir,
            store_path,
            epoch: Instant::now(),
            recording: true,
            sessions: 0,
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            spans: Vec::new(),
            renders: BTreeMap::new(),
            first_pass_rss_kb: 0,
        }
    }

    // -- bookkeeping -------------------------------------------------------

    /// Count one check; report and count it as failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("e2ebench: check failed: {}", what());
        }
        ok
    }

    fn check_eq(&mut self, what: &str, got: &str, want: &str) {
        self.check(got == want, || format!("{what} differs from the study's"));
    }

    fn e2e(&mut self, name: &'static str, value: f64) {
        if self.recording {
            self.e2e.entry(name).or_default().push(value);
        }
    }

    fn layer(&mut self, name: impl Into<String>, value: f64) {
        if self.recording {
            self.layers.entry(name.into()).or_default().push(value);
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn span(
        &mut self,
        run: u32,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            run,
            parent,
            name: name.to_string(),
            start_ns: Some(s),
            end_ns: Some(e),
            dur_ns: e.saturating_sub(s),
        });
        self.spans.len() - 1
    }

    fn span_dur(&mut self, run: u32, parent: usize, name: &str, dur_ns: u64) -> usize {
        self.spans.push(Span {
            run,
            parent: Some(parent),
            name: name.to_string(),
            start_ns: None,
            end_ns: None,
            dur_ns,
        });
        self.spans.len() - 1
    }

    /// Run `f`; under a traced session (`parent` set) record its span and
    /// the `<name>_s` layer sample. Returns the result and its seconds.
    fn timed<T>(
        &mut self,
        run: u32,
        parent: Option<usize>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let s = (end - start).as_secs_f64();
        if parent.is_some() {
            self.span(run, parent, name, start, end);
            self.layer(format!("{name}_s"), s);
        }
        (out, s)
    }

    // -- workloads ---------------------------------------------------------

    fn run(&mut self) {
        // Untimed warm-up: lets lazy set-up and the allocator settle. From
        // the start of the process to here is the run's set-up, so work
        // moved out of the measured sessions into one-time set-up shows.
        self.recording = false;
        self.session(self.seed, false);
        self.recording = true;
        self.e2e("setup_s", self.epoch.elapsed().as_secs_f64());
        self.first_pass_rss_kb = usage().max_rss_kb;
        let start = Instant::now();
        // A traced run pairs each traced session with an untraced one on the
        // same seed, so the trace overhead compares like with like.
        let at_least = if self.trace { 2 } else { 1 };
        let mut i = 0u64;
        while i < at_least
            || (self.trace && i % 2 == 1)
            || start.elapsed().as_secs_f64() < self.seconds
        {
            let traced = self.trace && i % 2 == 0;
            let k = if self.trace { i / 2 } else { i };
            self.session(sub_seed(self.seed, k % SUB_SEEDS), traced);
            i += 1;
        }
    }

    /// One analyst session: run a study, check it, write its store, reopen
    /// it and run the session's queries on it.
    fn session(&mut self, seed: u64, traced: bool) {
        let run = self.sessions;
        self.sessions += 1;
        let mut cfg = (self.w.preset)(seed);
        cfg.workers = WORKERS;
        let session_start = Instant::now();
        let root = traced.then(|| self.span(run, None, "session", session_start, session_start));

        let usage0 = usage();
        let mut stamps = Vec::with_capacity(5);
        let t0 = Instant::now();
        let report = Study::new(cfg).run_with(|_| stamps.push(Instant::now()));
        let t1 = Instant::now();
        let usage1 = usage();
        self.attempted += 1;
        // Stages: population, plan and oracles, simulate, merge, analysis.
        if !self.check(stamps.len() == 5, || {
            format!("expected 5 study stages, saw {}", stamps.len())
        }) {
            return;
        }
        let study_s = (t1 - t0).as_secs_f64();
        if !traced {
            self.e2e("study_wall_s", study_s);
        }

        let leaked = report.resilience.leaked_connections;
        self.check(leaked == 0, || format!("{leaked} leaked connections"));
        let rendered = report.render_full();
        let first_of_seed = !self.renders.contains_key(&seed);
        if first_of_seed {
            if report.config.preset == "quick" && seed == 7 {
                let matches = GOLDEN_QUICK_SEED7.strip_suffix('\n') == Some(rendered.as_str());
                self.check(matches, || {
                    "quick seed 7 differs from the golden report".into()
                });
            }
            self.renders.insert(seed, rendered);
        } else {
            let same = self.renders[&seed] == rendered;
            self.check(same, || {
                format!("seed {seed} rendered differently on a rerun")
            });
        }

        if let Some(root) = root {
            self.trace_study(
                &report,
                run,
                root,
                [
                    t0, stamps[0], stamps[1], stamps[2], stamps[3], stamps[4], t1,
                ],
            );
            self.layer(
                "core.minor_faults",
                usage1.minor_faults.saturating_sub(usage0.minor_faults) as f64,
            );
            self.layer("core.sys_s", usage1.sys_s - usage0.sys_s);
        }
        if first_of_seed || traced {
            self.recompute(&report, run, root, (t1 - stamps[4]).as_secs_f64());
        }

        // ---- store: write, reopen, check, query ----------------------------
        if let Some(root) = root {
            let (bytes, _) = self.timed(run, Some(root), "store.build", || report.build_store());
            self.layer("store.bytes", bytes.len() as f64);
        }
        let path = self.store_path.clone();
        let (written, write_s) = self.timed(run, root, "store.write", || report.write_store(&path));
        self.attempted += 1;
        if let Err(e) = written {
            self.failed += 1;
            eprintln!("e2ebench: write_store: {e}");
            return;
        }
        let (opened, open_s) = self.timed(run, root, "store.open", || StoreReader::open(&path));
        self.attempted += 1;
        let reader = match opened {
            Ok(r) => Arc::new(r),
            Err(e) => {
                self.failed += 1;
                eprintln!("e2ebench: StoreReader::open: {e}");
                return;
            }
        };
        if traced {
            let rows: usize = ["scan", "events", "telescope"]
                .iter()
                .map(|t| reader.table(t).map(|t| t.rows).unwrap_or(0))
                .sum();
            self.layer("store.rows", rows as f64);
            self.layer(
                "store.bytes_per_row",
                reader.bytes().len() as f64 / rows.max(1) as f64,
            );
        }
        if first_of_seed || traced {
            let (t4, _) = self.timed(run, root, "store.table4_from_store", || {
                ofh_store::tables::table4(&reader)
            });
            let t4 = t4.map(|t| t.render()).unwrap_or_else(|e| e.to_string());
            self.check_eq("table 4 from the store", &t4, &report.table4.render());
            let t5 = ofh_store::tables::table5(&reader)
                .map(|t| t.render())
                .unwrap_or_else(|e| e.to_string());
            self.check_eq("table 5 from the store", &t5, &report.table5.render());
            let t7 = ofh_store::tables::table7(&reader)
                .map(|t| t.render())
                .unwrap_or_else(|e| e.to_string());
            self.check_eq("table 7 from the store", &t7, &report.table7.render());
        }
        self.attempted += 1;
        match QueryMix::new(&reader, seed) {
            Ok(mut mix) => {
                let engine = QueryEngine::new(reader);
                let query_s = self.run_queries(&engine, &mut mix, run, root);
                // What the analyst waits for; the checks are left out.
                if !traced {
                    self.e2e("session_wall_s", study_s + write_s + open_s + query_s);
                }
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("e2ebench: query mix: {e}");
            }
        }
        if let Some(root) = root {
            let end = self.ns(Instant::now());
            self.spans[root].end_ns = Some(end);
            self.spans[root].dur_ns = end - self.spans[root].start_ns.unwrap_or(end);
        }
    }

    /// Spans and layer samples of one traced study: the stage boundaries
    /// (`t` = call, five progress callbacks, return) and the snapshot's
    /// profile tree and counters.
    fn trace_study(&mut self, report: &StudyReport, run: u32, root: usize, t: [Instant; 7]) {
        let study = self.span(run, Some(root), "core.study", t[0], t[6]);
        let setup = self.span(run, Some(study), "core.setup", t[0], t[3]);
        self.span(run, Some(setup), "devices.population", t[1], t[2]);
        self.span(run, Some(setup), "attack.plan_and_oracles", t[2], t[3]);
        let simulate = self.span(run, Some(study), "core.simulate", t[3], t[4]);
        self.span(run, Some(study), "core.merge", t[4], t[5]);
        self.span(run, Some(study), "core.analysis", t[5], t[6]);
        self.layer("core.study_s", (t[6] - t[0]).as_secs_f64());
        self.layer("core.setup_s", (t[3] - t[0]).as_secs_f64());
        self.layer("core.simulate_s", (t[4] - t[3]).as_secs_f64());
        self.layer("core.merge_s", (t[5] - t[4]).as_secs_f64());
        self.layer("core.analysis_s", (t[6] - t[5]).as_secs_f64());

        let metrics = &report.metrics;
        let Some(sim) = metrics.host.profile.child("simulate") else {
            self.check(false, || "the profile tree has no simulate stage".into());
            return;
        };
        let shards = &sim.children;
        for shard in shards {
            let id = self.span_dur(
                run,
                simulate,
                &format!("core.{}", shard.name),
                shard.wall_ns,
            );
            for phase in &shard.children {
                let name = match phase.name.as_str() {
                    "wire" => "core.wire",
                    "scan" => "scan.sweep",
                    "fingerprint" => "fingerprint.probe",
                    "month" => "honeypots.month",
                    "extract" => "core.extract",
                    other => other,
                };
                self.span_dur(run, id, name, phase.wall_ns);
            }
        }
        let phase_cpu = |name: &str| -> u64 {
            shards
                .iter()
                .filter_map(|s| s.child(name))
                .map(|p| p.cpu_ns)
                .sum()
        };
        let shard_cpu_ns: u64 = shards.iter().map(|s| s.cpu_ns).sum();
        let mut shard_walls: Vec<f64> = shards.iter().map(|s| s.wall_ns as f64).collect();
        let slowest = shard_walls.iter().cloned().fold(0.0, f64::max);
        let workers = metrics.host.workers.max(1) as f64;
        let counters = &report.counters;
        let probes: u64 = metrics
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("scan.probe.sent{"))
            .map(|(_, v)| v)
            .sum();
        let scan_ns = phase_cpu("scan");
        let samples = [
            ("core.shard_cpu_s", shard_cpu_ns as f64 / 1e9),
            ("core.shard_skew", slowest / median(&mut shard_walls)),
            (
                "core.parallel_efficiency",
                shard_cpu_ns as f64 / (sim.wall_ns as f64 * workers),
            ),
            ("core.steals", metrics.host.steals as f64),
            ("core.wire_cpu_s", phase_cpu("wire") as f64 / 1e9),
            ("core.extract_cpu_s", phase_cpu("extract") as f64 / 1e9),
            ("net.events", counters.events_processed as f64),
            (
                "net.ns_per_event",
                shard_cpu_ns as f64 / counters.events_processed.max(1) as f64,
            ),
            ("net.syns_sent", counters.syns_sent as f64),
            ("net.conns_established", counters.conns_established as f64),
            ("net.tcp_bytes", counters.tcp_payload_bytes as f64),
            ("net.udp_sent", counters.udp_datagrams_sent as f64),
            ("scan.cpu_s", scan_ns as f64 / 1e9),
            ("scan.ns_per_syn", scan_ns as f64 / probes.max(1) as f64),
            ("scan.records", report.zmap_results.records.len() as f64),
            ("fingerprint.cpu_s", phase_cpu("fingerprint") as f64 / 1e9),
            ("fingerprint.detected", report.fingerprint.total() as f64),
            ("honeypots.month_cpu_s", phase_cpu("month") as f64 / 1e9),
            ("honeypots.events", report.dataset.events.len() as f64),
            ("telescope.records", report.telescope.total_records() as f64),
        ];
        for (name, value) in samples {
            self.layer(name, value);
        }
    }

    /// Re-run the study's set-up and every table and figure from outside
    /// through the public API, check each against the report, and (in a
    /// traced session) time each one. `analysis_s` is the study's own
    /// analysis stage, which the named spans should account for.
    fn recompute(
        &mut self,
        report: &StudyReport,
        run: u32,
        parent: Option<usize>,
        analysis_s: f64,
    ) {
        let cfg = &report.config;
        let (population, _) = self.timed(run, parent, "devices.population_build", || {
            population_for(cfg)
        });
        let plan_cfg = PlanConfig {
            seed: cfg.seed,
            hp_scale: cfg.hp_scale,
            infected_scale: (cfg.scan_scale / cfg.infected_oversample).max(1),
            universe: cfg.universe,
            month_start: cfg.month_start(),
            month_days: cfg.month_days,
            honeypots: HoneypotSet::in_lab(&cfg.universe),
        };
        let (plan, _) = self.timed(run, parent, "attack.plan_build", || {
            AttackPlan::build(&plan_cfg, &population)
        });
        let (oracles, _) = self.timed(run, parent, "intel.oracles_populate", || {
            Oracles::populate(cfg.seed, &plan, &population)
        });
        if parent.is_some() {
            self.layer("devices.hosts", population.records.len() as f64);
            self.layer("attack.actors", plan.actors.len() as f64);
        }

        let r = report;
        let mut named = 0.0;
        let (filter, s) = self.timed(run, parent, "fingerprint.filter_set", || {
            r.fingerprint.filter_set()
        });
        named += s;
        let (t4, s) = self.timed(run, parent, "analysis.table4", || {
            Table4::compute(&r.zmap_results, &r.sonar_results, &r.shodan_results)
        });
        named += s;
        self.check_eq("table 4", &t4.render(), &r.table4.render());
        let (t5, s) = self.timed(run, parent, "analysis.table5", || {
            Table5::compute(&r.zmap_results, &filter)
        });
        named += s;
        self.check_eq("table 5", &t5.render(), &r.table5.render());
        let (misconfigured, s) = self.timed(run, parent, "analysis.misconfigured", || {
            Table5::misconfigured_addrs(&r.zmap_results, &filter)
        });
        named += s;
        let (t7, s) = self.timed(run, parent, "analysis.table7", || {
            Table7::compute(&r.dataset, &oracles.rdns)
        });
        named += s;
        self.check_eq("table 7", &t7.render(), &r.table7.render());
        let (t8, s) = self.timed(run, parent, "analysis.table8", || {
            let month_start_day = cfg.month_start().day_index();
            let known_scanners = plan
                .service_sources()
                .keys()
                .copied()
                .filter(|a| AttackDataset::is_scanning_service(&oracles.rdns, *a))
                .collect();
            let outage = cfg.faults.outage_minutes_between(
                month_start_day * 86_400_000,
                (month_start_day + cfg.month_days) * 86_400_000,
            );
            TelescopeSummary::compute_gap_aware(
                &r.telescope,
                month_start_day,
                month_start_day + cfg.month_days,
                &known_scanners,
                outage,
            )
        });
        named += s;
        self.check_eq("table 8", &format!("{t8:?}"), &format!("{:?}", r.table8));
        let (t10, s) = self.timed(run, parent, "analysis.table10", || {
            Table10::compute(&misconfigured, &r.geo)
        });
        named += s;
        self.check_eq("table 10", &t10.render(), &r.table10.render());
        let (t12, s) = self.timed(run, parent, "analysis.table12", || {
            Table12::compute(&r.dataset, 11)
        });
        named += s;
        self.check_eq("table 12", &t12.render(), &r.table12.render());
        let (t13, s) = self.timed(run, parent, "analysis.table13", || {
            Table13::compute(&r.dataset, &oracles.malware)
        });
        named += s;
        self.check_eq("table 13", &t13.render(), &r.table13.render());
        let (f2, s) = self.timed(run, parent, "analysis.fig2", || {
            Fig2::compute(&r.zmap_results)
        });
        named += s;
        self.check_eq("fig 2", &f2.render(), &r.fig2.render());
        let (f3, s) = self.timed(run, parent, "analysis.fig3", || {
            Fig3::compute(&r.dataset, &oracles.rdns)
        });
        named += s;
        self.check_eq("fig 3", &f3.render(), &r.fig3.render());
        let (b, s) = self.timed(run, parent, "analysis.breakdown", || {
            AttackTypeBreakdown::compute(&r.dataset)
        });
        named += s;
        self.check_eq("fig 4", &b.render_fig4(), &r.breakdown.render_fig4());
        self.check_eq("fig 7", &b.render_fig7(), &r.breakdown.render_fig7());
        let (f5, s) = self.timed(run, parent, "analysis.fig5", || {
            Fig5::compute(&r.dataset, &oracles.rdns, &oracles.greynoise)
        });
        named += s;
        self.check_eq("fig 5", &f5.render(), &r.fig5.render());
        let (f6, s) = self.timed(run, parent, "analysis.fig6", || {
            Fig6::compute(&r.dataset, &r.telescope, &oracles.rdns, &oracles.virustotal)
        });
        named += s;
        self.check_eq("fig 6", &f6.render(), &r.fig6.render());
        let (f8, s) = self.timed(run, parent, "analysis.fig8", || {
            Fig8::compute(
                &r.dataset,
                cfg.month_start(),
                cfg.month_days,
                &plan.listings,
            )
        });
        named += s;
        self.check_eq("fig 8", &f8.render(), &r.fig8.render());
        let (f9, s) = self.timed(run, parent, "analysis.fig9", || {
            Fig9::compute(&r.dataset, &oracles.rdns)
        });
        named += s;
        self.check_eq("fig 9", &f9.render(), &r.fig9.render());
        let (infected, s) = self.timed(run, parent, "analysis.infected", || {
            InfectedHosts::compute(
                &misconfigured,
                &r.dataset,
                &r.telescope,
                &oracles.virustotal,
                &oracles.censys,
                &oracles.rdns,
            )
        });
        named += s;
        self.check_eq(
            "the infected-host joins",
            &infected.render(),
            &r.infected.render(),
        );
        if parent.is_some() {
            self.layer("analysis.unattributed_s", analysis_s - named);
        }
    }

    /// Run the session's `QUERIES_PER_SESSION` queries on `engine`, one at
    /// a time, timing each; re-run every `VERIFY_EVERY`-th uncached and
    /// compare the answers. Each query is drawn just before it runs, so the
    /// working set is the store and the engine, not a list of queries.
    /// Returns the summed query latency in seconds.
    fn run_queries(
        &mut self,
        engine: &QueryEngine,
        mix: &mut QueryMix,
        run: u32,
        parent: Option<usize>,
    ) -> f64 {
        let (hits0, misses0) = engine.cache_stats();
        let pruned0 = rows_pruned(engine);
        // Per-query samples only feed the per-layer percentiles.
        let mut all = Vec::with_capacity(if self.trace { QUERIES_PER_SESSION } else { 0 });
        let mut by_class: [Vec<u64>; 7] = Default::default();
        let mut busy_ns = 0u64;
        let start = Instant::now();
        for i in 0..QUERIES_PER_SESSION {
            let q = mix.next_query();
            let t = Instant::now();
            let answer = engine.query(&q);
            let ns = t.elapsed().as_nanos() as u64;
            self.attempted += 1;
            match answer {
                Ok(a) => {
                    if i % VERIFY_EVERY == 0 {
                        let uncached = engine.reader().execute(&q);
                        let same = matches!(&uncached, Ok(b) if *b == a);
                        self.check(same, || format!("cached answer differs for {q:?}"));
                    }
                    black_box(a);
                }
                Err(e) => {
                    self.failed += 1;
                    eprintln!("e2ebench: query {q:?}: {e}");
                }
            }
            busy_ns += ns;
            if self.trace {
                all.push(ns);
                by_class[class_of(&q)].push(ns);
            }
        }
        if parent.is_some() {
            self.span(run, parent, "store.query", start, Instant::now());
        }
        let busy_s = busy_ns as f64 / 1e9;
        if !self.trace {
            return busy_s;
        }
        self.layer("store.query.qps", QUERIES_PER_SESSION as f64 / busy_s);
        self.layer("store.query.p99_us", percentile_us(&all, 0.99));
        for (class, samples) in QUERY_CLASSES.iter().zip(by_class.iter_mut()) {
            if !samples.is_empty() {
                self.layer(
                    format!("store.query.{class}.p50_us"),
                    percentile_us(samples, 0.50),
                );
                self.layer(
                    format!("store.query.{class}.p99_us"),
                    percentile_us(samples, 0.99),
                );
            }
        }
        let (hits, misses) = engine.cache_stats();
        let (hits, misses) = ((hits - hits0) as f64, (misses - misses0) as f64);
        self.layer("store.query.cache_hits", hits);
        self.layer("store.query.cache_misses", misses);
        self.layer(
            "store.query.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        let pruned = rows_pruned(engine);
        self.layer(
            "store.query.rows_pruned.host",
            (pruned.0 - pruned0.0) as f64,
        );
        self.layer(
            "store.query.rows_pruned.range",
            (pruned.1 - pruned0.1) as f64,
        );
        busy_s
    }

    // -- results -----------------------------------------------------------

    /// Print every metric of this run's kind, write the result files, and
    /// print the JSON line. Returns the exit code.
    fn finish(mut self) -> i32 {
        let _ = std::fs::remove_file(&self.store_path);
        let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
        if self.trace {
            // Both lists are in session order, one entry per pair.
            let traced = self.layers.get("core.study_s").cloned().unwrap_or_default();
            let untraced = self.e2e.get("study_wall_s").cloned().unwrap_or_default();
            let mut overhead: Vec<f64> = traced
                .iter()
                .zip(&untraced)
                .map(|(t, u)| (t / u - 1.0) * 100.0)
                .collect();
            self.layers
                .insert("obs.trace_overhead_pct".into(), vec![median(&mut overhead)]);
            for l in PER_LAYER {
                let value = self.layers.get_mut(l.name).map_or(f64::NAN, |v| median(v));
                metrics.push((l.name, l.unit, value));
            }
        } else {
            self.e2e
                .insert("peak_rss_mb", vec![self.first_pass_rss_kb as f64 / 1024.0]);
            for m in &END_TO_END {
                let value = self.e2e.get_mut(m.name).map_or(f64::NAN, |v| median(v));
                metrics.push((m.name, m.unit, value));
            }
        }
        for &(name, _, value) in &metrics {
            // Per-layer differences may be negative; nothing may be missing.
            let ok = value.is_finite() && (self.trace || value > 0.0);
            self.check(ok, || format!("metric {name} = {value}"));
        }

        let workload = self.w.name;
        if self.trace {
            for (layer, self_s) in self.self_times() {
                println!("{workload} self.{layer} {self_s} s");
            }
        }
        let mut body = Vec::new();
        for &(name, unit, value) in &metrics {
            println!("{workload} {name} {value} {unit}");
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        self.write_files(&json);
        println!("{json}");
        i32::from(self.failed > 0)
    }

    /// Self time per layer (the span name's first component), summed over
    /// the run and divided by the number of traced sessions: each span's
    /// duration minus the interval its timestamped children cover, minus
    /// the durations of its duration-only children (the profile tree's
    /// shards and phases, which are per-thread time).
    fn self_times(&self) -> BTreeMap<String, f64> {
        let mut timed: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut untimed_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            match (s.parent, s.start_ns, s.end_ns) {
                (Some(p), Some(a), Some(b)) => timed[p].push((a, b)),
                (Some(p), _, _) => untimed_ns[p] += s.dur_ns,
                _ => {}
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = match (s.start_ns, s.end_ns) {
                (Some(a), Some(b)) => self_time_ns(a, b, &timed[i]),
                _ => s.dur_ns,
            }
            .saturating_sub(untimed_ns[i]);
            let layer = s.name.split('.').next().unwrap_or("session").to_string();
            *out.entry(layer).or_default() += self_ns as f64 / 1e9;
        }
        let traced = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .count()
            .max(1) as f64;
        out.values_mut().for_each(|v| *v /= traced);
        out
    }

    fn write_files(&self, json: &str) {
        let tag = format!("{}-seed{}", self.w.name, self.seed);
        let mut files = vec![(
            format!("{tag}-trace{}.json", u8::from(self.trace)),
            format!("{json}\n"),
        )];
        if self.trace {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
            let lines: String = self
                .spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    format!(
                        "{{\"run\": {}, \"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"dur_ns\": {}}}\n",
                        s.run,
                        s.parent.map_or("null".to_string(), |p| p.to_string()),
                        s.name,
                        opt(s.start_ns),
                        opt(s.end_ns),
                        s.dur_ns
                    )
                })
                .collect();
            files.push((format!("spans-{tag}.jsonl"), lines));
        }
        for (name, contents) in files {
            let path = self.out_dir.join(name);
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("e2ebench: could not write {}: {e}", path.display());
            }
        }
    }
}

/// Cumulative (host, range) rows the engine's zone maps and restart
/// directories let it skip.
fn rows_pruned(engine: &QueryEngine) -> (u64, u64) {
    let snap = engine.snapshot();
    let get = |class: &str| {
        snap.counters
            .get(&format!("store.query.rows_pruned{{{class}}}"))
            .copied()
            .unwrap_or(0)
    };
    (get("host"), get("range"))
}

/// Process-wide resource usage, summed over all threads.
#[derive(Default)]
struct Usage {
    minor_faults: u64,
    sys_s: f64,
    max_rss_kb: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn usage() -> Usage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s starting with `ru_maxrss` (KiB) and, fifth, `ru_minflt`.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        _utime: [i64; 2],
        stime: [i64; 2],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable value laid out as the C library's
    // `struct rusage` on this target, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    Usage {
        minor_faults: ru.longs[4] as u64,
        sys_s: ru.stime[0] as f64 + ru.stime[1] as f64 / 1e6,
        max_rss_kb: ru.longs[0] as u64,
    }
}

/// Without getrusage the RSS metric reads 0, which fails the run.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn usage() -> Usage {
    Usage::default()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut bench = Bench::new(args);
    if let Err(e) = std::fs::create_dir_all(&bench.out_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", bench.out_dir.display());
        std::process::exit(2);
    }
    bench.run();
    std::process::exit(bench.finish());
}
