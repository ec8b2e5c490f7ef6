//! Study configuration and scale presets.

use std::net::Ipv4Addr;

use ofh_devices::Universe;
use ofh_net::{FaultSchedule, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How device hosts come to exist inside each shard's simulation.
///
/// Both modes produce byte-identical reports (the equivalence suite in
/// `tests/parallel_determinism.rs` pins this): device agents are boot-inert
/// and their state is a pure function of the generation record, so whether
/// an agent is allocated up front or on first touch is unobservable. The
/// mode is therefore a pure execution knob, excluded from the serialized
/// config like `workers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PopulationMode {
    /// Streaming population: non-infected devices and wild honeypots live in
    /// a struct-of-arrays arena and materialize as agents only when traffic
    /// first reaches them (`ofh_net::HostSpawner`). The only mode that is
    /// feasible at paper scale.
    #[default]
    Implicit,
    /// Every owned host is attached eagerly at shard start — the original
    /// behaviour, retained as the differential baseline.
    Eager,
}

/// Configuration of a full study run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Master seed: same seed ⇒ identical report.
    pub seed: u64,
    /// The simulated Internet's address plan.
    pub universe: Universe,
    /// Scale divisor for the scan-side population (Tables 4/5/6/10 counts
    /// and the §5.3 infected set).
    pub scan_scale: u64,
    /// Scale divisor for honeypot-month traffic (Table 7 volumes, source
    /// pools, Fig. 3–9 data).
    pub hp_scale: u64,
    /// Length of the honeypot deployment (the paper: 30 days of April).
    pub month_days: u64,
    /// Network fault model: a scripted schedule of fault phases (empty
    /// schedule = pristine network).
    #[serde(default)]
    pub faults: FaultSchedule,
    /// Oversampling factor for the §5.3 infected set: infected counts are
    /// divided by `scan_scale / infected_oversample` instead of
    /// `scan_scale`. At heavy scan scales the paper-faithful proportion
    /// (11,118 of 1.8M ≈ 0.6%) rounds the infected set down to ~1 host and
    /// the overlap structure (honeypot-only / telescope-only / both)
    /// vanishes; oversampling keeps the *structure* measurable while the
    /// proportion is noted in EXPERIMENTS.md. Use 1 for strict proportions.
    pub infected_oversample: u64,
    /// Number of deterministic shards the address space is split into: any
    /// power of two in `1..=4096` (`ofh_net::MAX_SHARDS`). This is a
    /// *simulation parameter* (a semantic knob): changing it changes the
    /// (equally valid) trace, so it is serialized with the config — unlike
    /// `workers`, which must never appear in any output. Presets pick a
    /// default; `--shards` overrides it.
    pub shards: u32,
    /// Worker threads executing shards. Pure execution knob: any value
    /// (including 0 = one thread per available core) produces the identical
    /// report, so it is excluded from the serialized config.
    #[serde(skip)]
    pub workers: usize,
    /// Observability settings (metrics, tracing, self-profiling). Also a
    /// pure execution knob — enabling or disabling observability must not
    /// perturb any RNG stream or golden output — so it too stays out of the
    /// serialized config.
    #[serde(skip)]
    pub obs: ofh_obs::ObsConfig,
    /// Host materialization strategy (see [`PopulationMode`]). A pure
    /// execution knob: implicit and eager runs print identical bytes.
    #[serde(skip)]
    pub population: PopulationMode,
    /// Name of the preset this config was built from — run identity for
    /// artifacts (the snapshot's `preset` field, the trace header). Not
    /// serialized with the config: it names the constructor, it does not
    /// configure anything, and two configs differing only in provenance
    /// must stay byte-identical.
    #[serde(skip)]
    pub preset: String,
}

impl StudyConfig {
    /// Quick preset: small universe, heavy scaling — seconds in debug
    /// builds. Used by tests and the quickstart example.
    pub fn quick(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            universe: Universe::new(Ipv4Addr::new(16, 0, 0, 0), 16),
            scan_scale: 8_192,
            hp_scale: 256,
            month_days: 30,
            faults: FaultSchedule::none(),
            infected_oversample: 32,
            shards: 16,
            workers: 1,
            obs: ofh_obs::ObsConfig::default(),
            population: PopulationMode::Implicit,
            preset: "quick".into(),
        }
    }

    /// Standard preset: the examples' default — a 2^20-address Internet,
    /// ~14k exposed devices, a few minutes in release builds.
    pub fn standard(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            universe: Universe::new(Ipv4Addr::new(16, 0, 0, 0), 20),
            scan_scale: 1_024,
            hp_scale: 32,
            month_days: 30,
            faults: FaultSchedule::none(),
            infected_oversample: 8,
            shards: 16,
            workers: 1,
            obs: ofh_obs::ObsConfig::default(),
            population: PopulationMode::Implicit,
            preset: "standard".into(),
        }
    }

    /// Full preset: the EXPERIMENTS.md run — a 2^22-address Internet,
    /// ~225k exposed devices, 1:64 scan scale, 1:8 honeypot scale.
    pub fn full(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            universe: Universe::new(Ipv4Addr::new(16, 0, 0, 0), 22),
            scan_scale: 64,
            hp_scale: 8,
            month_days: 30,
            faults: FaultSchedule::none(),
            infected_oversample: 1,
            shards: 16,
            workers: 1,
            obs: ofh_obs::ObsConfig::default(),
            population: PopulationMode::Implicit,
            preset: "full".into(),
        }
    }

    /// Paper-scale preset: the full 2^32 IPv4 address space with over a
    /// million occupied hosts (scan scale 1:14 of the paper's 14.4M exposed
    /// population). Only viable with the streaming population and the
    /// indexed scan-target mode (both engage automatically); minutes in
    /// release builds with all cores.
    pub fn paper_scale(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            universe: Universe::new(Ipv4Addr::new(0, 0, 0, 0), 32),
            scan_scale: 14,
            hp_scale: 8,
            month_days: 30,
            faults: FaultSchedule::none(),
            infected_oversample: 1,
            // 64 shards so the 2^32 run keeps speeding up past 16 cores.
            // Per-shard fixed costs are small only because every read-only
            // shard input (signature automaton, geo database, the partition
            // of hosts and actors) is built once per study. Built per shard,
            // they took 0.14 s of paper-smoke's ~0.22 s of shard CPU, and the
            // 64 geo database copies ~94 MB of its 131 MB peak RSS (2-vCPU
            // host); built once, wire-up plus fingerprinting is ~7 ms over
            // all 64 shards.
            shards: 64,
            workers: 0,
            obs: ofh_obs::ObsConfig::default(),
            population: PopulationMode::Implicit,
            preset: "paper-scale".into(),
        }
    }

    /// Paper-smoke preset: the same 2^32 address plan as
    /// [`Self::paper_scale`] — every paper-scale code path (streaming hosts,
    /// indexed sweeps, 32-bit offsets) — but down-sampled to quick-preset
    /// scales so CI can cover it in seconds.
    pub fn paper_smoke(seed: u64) -> StudyConfig {
        StudyConfig {
            scan_scale: 16_384,
            hp_scale: 256,
            infected_oversample: 32,
            workers: 1,
            preset: "paper-smoke".into(),
            ..StudyConfig::paper_scale(seed)
        }
    }

    /// The honeypot month starts April 1 (simulation day 31).
    pub fn month_start(&self) -> SimTime {
        SimTime::from_date(ofh_net::SimDate::new(2021, 4, 1))
    }

    /// End of the whole experiment.
    pub fn study_end(&self) -> SimTime {
        self.month_start() + SimDuration::from_days(self.month_days) + SimDuration::from_hours(6)
    }

    /// Resolved worker-thread count: `workers` capped at the shard count
    /// (extra threads would idle). `0` means auto: `min(host cores,
    /// shards)` — never more threads than cores, since past that point
    /// extra workers only add scheduler contention (BENCH_scaling.json
    /// records the flat curve on a 1-core host).
    pub fn worker_threads(&self) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.workers
        };
        requested.min(self.shards.max(1) as usize).max(1)
    }

    /// Sanity-check the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.faults.validate()?;
        if self.scan_scale == 0 || self.hp_scale == 0 || self.infected_oversample == 0 {
            return Err("scales must be nonzero".into());
        }
        if self.shards == 0 || self.shards > ofh_net::MAX_SHARDS || !self.shards.is_power_of_two() {
            return Err(format!(
                "shards must be a power of two in 1..={} (got {})",
                ofh_net::MAX_SHARDS,
                self.shards
            ));
        }
        if self.month_days == 0 || self.month_days > 30 {
            return Err("month_days must be in 1..=30".into());
        }
        // The population must fit the universe.
        let exposed: u64 = ofh_wire::Protocol::SCANNED
            .iter()
            .map(|&p| ofh_devices::population::paper_exposed(p) / self.scan_scale)
            .sum();
        let (_, pop_len) = self.universe.population_space();
        if exposed * 2 > pop_len {
            return Err(format!(
                "population ({exposed} hosts) would overflow the universe's \
                 population region ({pop_len} addresses); increase universe \
                 bits or scan_scale"
            ));
        }
        Ok(())
    }
}

/// Resolve a `--faults` argument into a validated schedule: a named preset
/// (`none`, `lossy`, `hostile`) or a path to a JSON schedule file. A bad
/// name, unreadable file, or invalid schedule fails here — at startup, with
/// a message naming the problem — rather than mid-run.
pub fn faults_from_arg(arg: &str) -> Result<FaultSchedule, String> {
    let schedule = match FaultSchedule::by_name(arg) {
        Some(s) => s,
        None => {
            let text = std::fs::read_to_string(arg).map_err(|e| {
                format!(
                    "--faults: `{arg}` is not a preset (none|lossy|hostile) and \
                     could not be read as a schedule file: {e}"
                )
            })?;
            serde_json::from_str(&text)
                .map_err(|e| format!("--faults: `{arg}` is not a valid fault schedule: {e}"))?
        }
    };
    schedule
        .validate()
        .map_err(|e| format!("--faults: invalid schedule in `{arg}`: {e}"))?;
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        StudyConfig::quick(1).validate().unwrap();
        StudyConfig::standard(1).validate().unwrap();
        StudyConfig::full(1).validate().unwrap();
        StudyConfig::paper_scale(1).validate().unwrap();
        StudyConfig::paper_smoke(1).validate().unwrap();
    }

    #[test]
    fn paper_presets_span_whole_ipv4() {
        let cfg = StudyConfig::paper_scale(1);
        assert_eq!(cfg.universe.size(), 1u64 << 32);
        assert_eq!(cfg.population, PopulationMode::Implicit);
        // The occupied population must clear the paper-scale bar (≥1M).
        let exposed: u64 = ofh_wire::Protocol::SCANNED
            .iter()
            .map(|&p| ofh_devices::population::paper_exposed(p) / cfg.scan_scale)
            .sum();
        assert!(exposed >= 1_000_000, "only {exposed} hosts at paper scale");
        // The smoke preset keeps the address plan but not the cost.
        let smoke = StudyConfig::paper_smoke(1);
        assert_eq!(smoke.universe, cfg.universe);
        assert!(smoke.scan_scale > cfg.scan_scale * 100);
    }

    #[test]
    fn shard_counts_must_be_powers_of_two() {
        let mut cfg = StudyConfig::quick(1);
        for ok in [1u32, 2, 4, 64, 1024, 4096] {
            cfg.shards = ok;
            cfg.validate().unwrap();
        }
        for bad in [0u32, 3, 17, 48, 4097, 8192] {
            cfg.shards = bad;
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("power of two"), "unhelpful error: {err}");
        }
        // The paper-scale preset rides the elastic partition at 64.
        assert_eq!(StudyConfig::paper_scale(1).shards, 64);
        assert_eq!(StudyConfig::paper_smoke(1).shards, 64);
    }

    #[test]
    fn month_starts_april_first() {
        let cfg = StudyConfig::quick(1);
        assert_eq!(cfg.month_start().day_index(), 31);
        assert!(cfg.study_end() > cfg.month_start());
    }

    #[test]
    fn worker_threads_resolution() {
        let mut cfg = StudyConfig::quick(1);
        assert_eq!(cfg.worker_threads(), 1);
        cfg.workers = 64; // capped at the shard count
        assert_eq!(cfg.worker_threads(), 16);
        // Auto (0) resolves to exactly min(host cores, shards): on a
        // 1-core host that is 1 worker no matter the shard count.
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        cfg.workers = 0;
        assert_eq!(cfg.worker_threads(), cores.min(16));
        cfg.shards = 2; // shards below the core count cap auto too
        assert_eq!(cfg.worker_threads(), cores.min(2));
        cfg.shards = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn workers_not_serialized() {
        // Byte-identical reports for any worker count requires the
        // execution knob to stay out of the serialized config.
        let mut a = StudyConfig::quick(1);
        let mut b = StudyConfig::quick(1);
        a.workers = 1;
        b.workers = 8;
        b.obs = ofh_obs::ObsConfig::disabled();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn bad_fault_schedule_rejected_at_load() {
        use ofh_net::FaultPlan;
        let mut cfg = StudyConfig::quick(1);
        cfg.faults = FaultSchedule::uniform(FaultPlan {
            drop_chance: 1.5,
            ..FaultPlan::NONE
        });
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("drop_chance"), "unhelpful error: {err}");
    }

    #[test]
    fn faults_from_arg_resolves_presets_and_files() {
        assert!(faults_from_arg("none").unwrap().is_none());
        assert!(!faults_from_arg("lossy").unwrap().is_none());
        assert!(!faults_from_arg("hostile").unwrap().is_none());
        let err = faults_from_arg("/nonexistent/schedule.json").unwrap_err();
        assert!(err.contains("not a preset"), "unhelpful error: {err}");

        let path = std::env::temp_dir().join("ofh_faults_from_arg_test.json");
        std::fs::write(&path, r#"{"phases":[{"name":"loss","plan":{"drop_chance":0.2}}]}"#)
            .unwrap();
        let s = faults_from_arg(path.to_str().unwrap()).unwrap();
        assert_eq!(s.phases.len(), 1);
        // An out-of-range probability in the file is caught at startup.
        std::fs::write(&path, r#"{"phases":[{"plan":{"drop_chance":2.0}}]}"#).unwrap();
        let err = faults_from_arg(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("invalid schedule"), "unhelpful error: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflowing_population_rejected() {
        let cfg = StudyConfig {
            scan_scale: 1, // full 14M population into a 2^16 universe
            ..StudyConfig::quick(1)
        };
        assert!(cfg.validate().is_err());
    }
}
