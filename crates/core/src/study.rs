//! The orchestrator.
//!
//! A study runs in four stages:
//!
//! 1. **Global setup** — population synthesis, attack plan, oracles, geo
//!    database, the signature automaton, and the partition of every
//!    per-address input into per-shard shares. Seed-only, computed once,
//!    shared read-only by every shard.
//! 2. **Sharded execution** — the address space is split into
//!    [`StudyConfig::shards`] deterministic shards ([`ofh_net::shard`]);
//!    each shard is an independent [`SimNet`] simulating only the devices,
//!    wild honeypots and attackers its shard owns (plus a replica of the
//!    deployed honeypots and the telescope tap, which the whole Internet
//!    talks to). Shards run on [`StudyConfig::workers`] threads.
//! 3. **Deterministic merge** — per-shard artifacts are merged in shard
//!    order (disjoint map unions, stable sorts whose ties keep shard
//!    order), so the merged artifacts depend only on (seed, shards) —
//!    never on the worker count or thread scheduling.
//! 4. **Analysis** — every table and figure is computed once from the
//!    merged artifacts, exactly as before sharding existed.
//!
//! Shard-locality is what makes the split sound: honeypot/device agents
//! keep per-connection state only, attack tasks target only the lab
//! honeypots and the dark space (both replicated per shard), so no packet
//! ever needs to cross a shard boundary.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ofh_analysis::events::AttackDataset;
use ofh_analysis::figures::{AttackTypeBreakdown, Fig2, Fig3, Fig5, Fig6, Fig8, Fig9};
use ofh_analysis::infected::InfectedHosts;
use ofh_analysis::rows::ScanSource;
use ofh_analysis::table10::Table10;
use ofh_analysis::table12::Table12;
use ofh_analysis::table13::Table13;
use ofh_analysis::table4::Table4;
use ofh_analysis::table5::Table5;
use ofh_analysis::table7::Table7;
use ofh_attack::plan::{AttackPlan, HoneypotSet, PlanConfig};
use ofh_attack::{AttackerAgent, InfectedDevice};
use ofh_devices::arena::HostArena;
use ofh_devices::population::{DeviceRecord, Population, PopulationBuilder, PopulationSpec};
use ofh_fingerprint::{engine, FingerprintProber, FingerprintReport, SignatureDb};
use ofh_honeypots::{
    AttackEvent, ConpotHoneypot, CowrieHoneypot, DeployedHoneypot, DionaeaHoneypot,
    HosTaGeHoneypot, ThingPotHoneypot, UPotHoneypot, WildHoneypot, WildHoneypotAgent,
};
use ofh_intel::GeoDb;
use ofh_net::rng::rng_for;
use ofh_net::sim::Counters;
use ofh_net::{
    Agent, AgentId, FastMap, HostSpawner, ShardSpec, SimNet, SimNetConfig, SimTime, Transport,
};
use ofh_obs::{MetricRegistry, MetricsSnapshot, ProfileNode, ShardObs, Stopwatch, TraceLog};
use ofh_scan::{datasets, scan_start, ScanResults, Scanner, ScannerConfig, TargetSpace};
use ofh_telescope::{Telescope, TelescopeSummary};
use rand::Rng;

use crate::config::{PopulationMode, StudyConfig};
use crate::oracles::Oracles;
use crate::report::StudyReport;

/// A configured study, ready to run.
pub struct Study {
    cfg: StudyConfig,
}

/// Read-only inputs shared by every shard worker.
struct ShardInputs<'a> {
    cfg: &'a StudyConfig,
    records: &'a [DeviceRecord],
    plan: &'a AttackPlan,
    honeypots: HoneypotSet,
    infected_tasks: &'a BTreeMap<usize, Vec<ofh_attack::Task>>,
    /// Each shard's share of the per-address inputs, indexed by shard.
    parts: Vec<ShardPart>,
    /// The Table 6 automaton every shard's passive fingerprint stage uses.
    signatures: &'a SignatureDb,
    /// The geo database every telescope tap annotates from; a tap holds a
    /// clone of the `Arc`, never of the database.
    geo: &'a Arc<GeoDb>,
    /// Live-telemetry progress cells (one per shard), present only when the
    /// run asked for a heartbeat or a `--live-out` stream. Volatile: the
    /// reporter thread samples these racily; nothing deterministic reads
    /// them.
    live: Option<std::sync::Arc<ofh_obs::LiveProgress>>,
}

/// One shard's share of the per-address inputs, bucketed by
/// [`ofh_net::shard_of`] once at setup, so no shard walks the records the
/// other shards own. Each list keeps its input's order (record, allocation
/// or plan order): the order a shard attaches its hosts in is the order it
/// would get by filtering the whole input with [`ShardSpec::owns`].
#[derive(Default)]
struct ShardPart {
    /// Devices without bot schedules (indexes into `Population::records`).
    hosts: Vec<usize>,
    /// Infected devices (indexes into `Population::records`, keys of the
    /// bot schedules).
    infected: Vec<usize>,
    wild: Vec<(Ipv4Addr, WildHoneypot)>,
    /// Indexes into `AttackPlan::actors`.
    actors: Vec<usize>,
    /// The shard's sparse scan-target index on paper-scale universes
    /// (`None` keeps the dense range walk). The `Arc` inside makes
    /// per-sweep clones free.
    targets: Option<TargetSpace>,
}

/// Bot schedules per infected device record index.
fn bot_schedules(plan: &AttackPlan) -> BTreeMap<usize, Vec<ofh_attack::Task>> {
    let mut tasks: BTreeMap<usize, Vec<ofh_attack::Task>> = BTreeMap::new();
    for inf in plan.infected.iter().chain(&plan.censys_extra) {
        tasks
            .entry(inf.record_idx)
            .or_default()
            .extend(inf.tasks.iter().cloned());
    }
    tasks
}

/// Bucket devices, infected devices, wild honeypots and attack-plan actors
/// by owning shard: one hash per input, instead of one per input per shard.
fn partition_inputs(
    shards: u32,
    population: &Population,
    infected_tasks: &BTreeMap<usize, Vec<ofh_attack::Task>>,
    wild: &[(Ipv4Addr, WildHoneypot)],
    plan: &AttackPlan,
) -> Vec<ShardPart> {
    let mut parts: Vec<ShardPart> = (0..shards).map(|_| ShardPart::default()).collect();
    let mut infected = infected_tasks.keys().copied().peekable();
    for (i, record) in population.records.iter().enumerate() {
        let part = &mut parts[ofh_net::shard_of(record.addr, shards) as usize];
        if infected.next_if_eq(&i).is_some() {
            part.infected.push(i);
        } else {
            part.hosts.push(i);
        }
    }
    debug_assert!(infected.peek().is_none(), "bot schedule for a missing record");
    for &(addr, family) in wild {
        parts[ofh_net::shard_of(addr, shards) as usize].wild.push((addr, family));
    }
    for (i, actor) in plan.actors.iter().enumerate() {
        parts[ofh_net::shard_of(actor.addr, shards) as usize].actors.push(i);
    }
    parts
}

/// The streaming host population of one shard: non-infected devices live in
/// a struct-of-arrays [`HostArena`], and one directory maps every address
/// the shard owns to its arena slot or wild-honeypot family. Occupancy, the
/// port rule and spawning are each one hash lookup in it; agents
/// materialize on first touch (see [`ofh_net::HostSpawner`] for the
/// contract this satisfies). Infected devices are *excluded* — their
/// `on_boot` schedules bot tasks, so they must exist from simulation start
/// and stay eagerly attached.
///
/// The spawner also answers the port question for every host it owns, from
/// the same rule the agents' guards use, so probes and datagrams to ports a
/// host does not serve never wake it.
struct ShardSpawner {
    arena: HostArena,
    directory: FastMap<u32, Host>,
}

/// A directory entry: where a spawner host's ground truth lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Host {
    /// A device, at this slot of the arena.
    Arena(u32),
    /// A wild honeypot of this family.
    Wild(WildHoneypot),
}

impl ShardSpawner {
    fn build(records: &[DeviceRecord], part: &ShardPart) -> ShardSpawner {
        let arena = HostArena::from_records(part.hosts.iter().map(|&i| &records[i]), |_| true);
        let mut directory = FastMap::default();
        directory.reserve(arena.len() + part.wild.len());
        for (slot, addr) in arena.addrs().enumerate() {
            directory.insert(u32::from(addr), Host::Arena(slot as u32));
        }
        for &(addr, family) in &part.wild {
            let clash = directory.insert(u32::from(addr), Host::Wild(family));
            debug_assert!(clash.is_none(), "wild honeypot on occupied address {addr}");
        }
        ShardSpawner { arena, directory }
    }

    #[inline]
    fn host(&self, addr: Ipv4Addr) -> Option<Host> {
        self.directory.get(&u32::from(addr)).copied()
    }
}

impl HostSpawner for ShardSpawner {
    fn occupied(&self, addr: Ipv4Addr) -> bool {
        self.host(addr).is_some()
    }

    fn spawn(&mut self, addr: Ipv4Addr) -> Option<Box<dyn Agent>> {
        Some(match self.host(addr)? {
            Host::Arena(slot) => self.arena.build_agent(slot as usize),
            Host::Wild(family) => Box::new(WildHoneypotAgent::new(family)),
        })
    }

    fn serves(&self, addr: Ipv4Addr, transport: Transport, port: u16) -> Option<bool> {
        Some(match self.host(addr)? {
            Host::Arena(slot) => self.arena.serves(slot as usize, transport, port),
            // A wild honeypot accepts TCP on its family's port and nothing
            // else (`WildHoneypotAgent::on_tcp_open`; it has no UDP handler).
            Host::Wild(family) => transport == Transport::Tcp && port == family.port(),
        })
    }
}

/// Build the sparse scan-target indexes for a paper-scale universe: every
/// occupied address (devices, wild honeypots, the lab, attackers, the
/// scanning hosts) plus a deterministic stride sample of the telescope's
/// dark space, as offsets from the universe base. ~10^6 entries stand in
/// for 2^32 addresses; sweeps permute over index positions instead.
///
/// The global index is partitioned by shard ownership up front (one hash
/// per offset, once), so each shard's scanner replicas permute an
/// O(index / shards) domain of exclusively-owned targets. Each scanner
/// walks each distinct permutation of its sub-index once; the ownership
/// filter in that walk still runs — it is what keeps the dense-range
/// presets correct — it just never rejects an indexed target anymore.
fn build_scan_index(
    cfg: &StudyConfig,
    population: &Population,
    wild: &[(Ipv4Addr, WildHoneypot)],
    plan: &AttackPlan,
    honeypots: &HoneypotSet,
) -> Vec<TargetSpace> {
    let universe = cfg.universe;
    let base = u32::from(universe.cidr().first());
    let rel = |addr: Ipv4Addr| u32::from(addr).wrapping_sub(base);

    let mut offsets: Vec<u32> = Vec::with_capacity(population.records.len() + wild.len() + 8_192);
    offsets.extend(population.records.iter().map(|r| rel(r.addr)));
    offsets.extend(wild.iter().map(|&(addr, _)| rel(addr)));
    for addr in [
        honeypots.hostage,
        honeypots.upot,
        honeypots.conpot,
        honeypots.thingpot,
        honeypots.cowrie,
        honeypots.dionaea,
    ] {
        offsets.push(rel(addr));
    }
    offsets.extend(plan.actors.iter().map(|a| rel(a.addr)));
    // The four scanning/probing hosts scan each other too, as on the real
    // Internet.
    let scanner = rel(universe.scanner_addr());
    offsets.extend((0..4).map(|i| scanner + i));
    // Dark space, sampled at a stride that yields 4,096 telescope-visible
    // probes per sweep regardless of universe size (bits >= 28 here, so the
    // shift is in 8..=12).
    let dark = universe.dark_space();
    let dark_first = u64::from(rel(dark.first()));
    let stride = 1u64 << (universe.bits - 20);
    let mut o = 0u64;
    while o < dark.len() {
        offsets.push((dark_first + o) as u32);
        o += stride;
    }
    offsets.sort_unstable();
    offsets.dedup();
    let mut per_shard: Vec<Vec<u32>> =
        vec![Vec::with_capacity(offsets.len() / cfg.shards as usize + 1); cfg.shards as usize];
    for off in offsets {
        let addr = Ipv4Addr::from(base.wrapping_add(off));
        per_shard[ofh_net::shard_of(addr, cfg.shards) as usize].push(off);
    }
    // Each per-shard list inherits the global sort, satisfying the
    // sorted/unique index contract.
    per_shard.into_iter().map(TargetSpace::index).collect()
}

/// Everything one shard's simulation produces.
struct ShardOutput {
    zmap: ScanResults,
    sonar: ScanResults,
    shodan: ScanResults,
    fingerprint: FingerprintReport,
    /// Per-honeypot event logs, fixed order (HosTaGe, U-PoT, Conpot,
    /// ThingPot, Cowrie, Dionaea).
    logs: Vec<Vec<AttackEvent>>,
    telescope: Telescope,
    counters: Counters,
    /// Retry/loss accounting summed over every scanner replica the shard ran.
    resilience: ofh_scan::ScanResilience,
    /// Connections the shard's deployed-honeypot replicas shed at their gates.
    conns_shed: u64,
    /// Retry-machinery state still held after the shard drained (scanner
    /// grab/retry maps + prober probe states). Must be 0, faults or not.
    leaked: u64,
    /// The shard's recorded metrics and trace ring (`None` when
    /// observability is disabled).
    obs: Option<ShardObs>,
    /// Per-phase wall clock of this shard (single-threaded: wall == cpu).
    profile: ProfileNode,
}

impl Study {
    /// Create a study. Panics on invalid configuration (configs are code,
    /// not user input).
    pub fn new(cfg: StudyConfig) -> Study {
        cfg.validate().expect("invalid study configuration");
        Study { cfg }
    }

    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// Execute the full methodology and compute every report.
    pub fn run(&self) -> StudyReport {
        self.run_with(|_| {})
    }

    /// Like [`Self::run`], reporting phase transitions to `progress` (the
    /// long presets take a minute; callers may want a heartbeat).
    pub fn run_with(&self, mut progress: impl FnMut(&str)) -> StudyReport {
        let cfg = &self.cfg;
        let universe = cfg.universe;
        let mut rng = rng_for(cfg.seed, "study");
        let study_sw = Stopwatch::start();
        let setup_sw = Stopwatch::start();

        // ---- 1. Populations (global) ----------------------------------
        progress("synthesizing population");
        let mut population = PopulationBuilder::new(PopulationSpec {
            universe,
            scale: cfg.scan_scale,
            seed: cfg.seed,
        })
        .build();

        // Wild honeypots, geo-distributed like devices (Table 6 counts).
        let mut wild: Vec<(Ipv4Addr, WildHoneypot)> = Vec::new();
        for family in WildHoneypot::ALL {
            let n = ((family.paper_count() + cfg.scan_scale / 2) / cfg.scan_scale).max(1);
            for _ in 0..n {
                let (addr, _) = population
                    .allocator
                    .alloc_weighted(&mut rng)
                    .expect("space for wild honeypots");
                wild.push((addr, family));
            }
        }

        // ---- 2. Attack plan and oracles (global) -----------------------
        progress("building attack plan and oracles");
        let honeypots = HoneypotSet::in_lab(&universe);
        let plan_cfg = PlanConfig {
            seed: cfg.seed,
            hp_scale: cfg.hp_scale,
            infected_scale: (cfg.scan_scale / cfg.infected_oversample).max(1),
            universe,
            month_start: cfg.month_start(),
            month_days: cfg.month_days,
            honeypots,
        };
        let plan = AttackPlan::build(&plan_cfg, &population);
        let oracles = Oracles::populate(cfg.seed, &plan, &population);

        // Extend the geo database over the attacker space so telescope
        // records carry source countries for those actors too. Nothing reads
        // the population's copy from here on, so it is moved, not cloned.
        let mut geo = std::mem::take(&mut population.geo);
        let attacker_space = universe.attacker_space();
        let chunk = 1u64 << (32 - geo.prefix_len());
        let mut a = u32::from(attacker_space.first()) as u64;
        while a <= u32::from(attacker_space.last()) as u64 {
            let country = ofh_devices::population::sample_country(&mut rng);
            geo.allocate_block(Ipv4Addr::from(a as u32), country, 64_000 + rng.gen_range(0..400u32));
            a += chunk;
        }

        let infected_tasks = bot_schedules(&plan);

        // Every read-only shard input is built here, once per study: the
        // per-shard shares of the per-address inputs, the signature
        // automaton and the shared geo database.
        let mut parts = partition_inputs(cfg.shards, &population, &infected_tasks, &wild, &plan);
        // Paper-scale universes switch the sweeps to the sparse target
        // index: a dense walk of 2^32 addresses per sweep replica is
        // intractable, and the occupied set plus a dark-space sample is all
        // a probe can ever hit.
        if universe.bits >= 28 {
            let index = build_scan_index(cfg, &population, &wild, &plan, &honeypots);
            for (part, targets) in parts.iter_mut().zip(index) {
                part.targets = Some(targets);
            }
        }
        let signatures = SignatureDb::new();
        let geo = Arc::new(geo);

        // ---- 3. Sharded execution --------------------------------------
        let setup_node = setup_sw.leaf("setup");
        let workers = cfg.worker_threads();
        progress("simulating shards");
        let simulate_sw = Stopwatch::start();
        // Live telemetry and the flight recorder are armed here, not in the
        // shards: the reporter is one process-wide thread sampling every
        // shard's progress cell, and the panic hook is process-wide state.
        if cfg.obs.enabled && cfg.obs.flight_dir.is_some() {
            ofh_obs::install_panic_hook();
        }
        let live = cfg.obs.live_requested().then(|| {
            std::sync::Arc::new(ofh_obs::LiveProgress::new(
                cfg.shards,
                cfg.study_end().as_millis(),
            ))
        });
        let reporter = live.as_ref().map(|lp| {
            ofh_obs::Reporter::spawn(
                lp.clone(),
                ofh_obs::ReporterOptions {
                    heartbeat: cfg.obs.heartbeat,
                    interval_ms: cfg.obs.heartbeat_ms,
                    live_out: cfg.obs.live_out.as_ref().map(std::path::PathBuf::from),
                    preset: cfg.preset.clone(),
                    shards: cfg.shards,
                },
            )
        });
        let inputs = ShardInputs {
            cfg,
            records: &population.records,
            plan: &plan,
            honeypots,
            infected_tasks: &infected_tasks,
            parts,
            signatures: &signatures,
            geo: &geo,
            live,
        };
        // Each worker takes the next unclaimed shard index from one shared
        // counter until none is left. Which worker runs which shard depends
        // on thread timing, but each shard's simulation is a pure function
        // of (inputs, spec) and the outputs are sorted by shard index below,
        // so the merge never sees the difference. `Relaxed` suffices: the
        // counter publishes no data, and the scope's spawn and join order
        // the inputs and outputs.
        let next = AtomicU32::new(0);
        let mut outputs: Vec<(u32, ShardOutput)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        std::iter::from_fn(|| {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            (index < cfg.shards).then_some(index)
                        })
                        .map(|index| {
                            (index, run_shard(&inputs, ShardSpec { index, count: cfg.shards }))
                        })
                        .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        if let Some(r) = reporter {
            r.stop();
        }
        // Free the shard shares before the merge allocates, and end the
        // borrow of `geo` so the merge can unwrap it.
        drop(inputs);
        outputs.sort_by_key(|(index, _)| *index);
        debug_assert!(
            outputs.iter().map(|(index, _)| *index).eq(0..cfg.shards),
            "every shard must run exactly once"
        );
        let mut simulate_node = ProfileNode::new("simulate");
        simulate_node.wall_ns = simulate_sw.elapsed().as_nanos() as u64;

        // ---- 4. Deterministic merge ------------------------------------
        progress("merging shard results");
        let merge_sw = Stopwatch::start();
        let shards = outputs.len();
        let mut zmap_parts = Vec::with_capacity(shards);
        let mut sonar_parts = Vec::with_capacity(shards);
        let mut shodan_parts = Vec::with_capacity(shards);
        let mut telescope_parts = Vec::with_capacity(shards);
        let mut fingerprint_report = FingerprintReport::default();
        let mut logs: Vec<Vec<AttackEvent>> = vec![Vec::new(); 6];
        let mut counters = Counters::default();
        // Metric registries and trace rings merge order-independently
        // (counters sum, gauges max, histograms add bucket-wise; the trace
        // re-sorts on (start, shard, seq)), so the merged observability
        // artifacts — like the report — depend only on (seed, shards).
        let mut registry = MetricRegistry::new();
        let mut trace = TraceLog::default();
        let mut per_shard_events: Vec<u64> = Vec::with_capacity(shards);
        let mut scan_resilience = ofh_scan::ScanResilience::default();
        let mut conns_shed: u64 = 0;
        let mut leaked: u64 = 0;
        for (index, out) in outputs {
            scan_resilience.absorb(&out.resilience);
            conns_shed += out.conns_shed;
            leaked += out.leaked;
            zmap_parts.push(out.zmap);
            sonar_parts.push(out.sonar);
            shodan_parts.push(out.shodan);
            fingerprint_report.absorb(out.fingerprint);
            for (merged, shard_log) in logs.iter_mut().zip(out.logs) {
                merged.extend(shard_log);
            }
            telescope_parts.push(out.telescope);
            counters.absorb(&out.counters);
            per_shard_events.push(out.counters.events_processed);
            if let Some(shard_obs) = out.obs {
                registry.absorb(&shard_obs.metrics);
                trace.absorb(index, shard_obs.trace);
            }
            simulate_node.push_child(out.profile);
        }
        // Shard parts are sorted runs in shard order: one bulk pass each.
        let zmap_results = ScanResults::merge(ScanSource::ZMap.label(), zmap_parts);
        let sonar_results = ScanResults::merge(ScanSource::Sonar.label(), sonar_parts);
        let shodan_results = ScanResults::merge(ScanSource::Shodan.label(), shodan_parts);
        let telescope = Telescope::merge(telescope_parts);
        // The merge dropped the last tap, and with it the last shared handle.
        let geo = Arc::try_unwrap(geo).expect("a telescope tap outlived the merge");
        fingerprint_report.normalize();
        trace.finish();
        // Fold the fabric counters in, so the snapshot carries the network
        // totals (including fault-injection drops/corruptions) without the
        // hot path paying for a second count of each event.
        registry.count("net.events_processed", "", counters.events_processed);
        registry.count("net.events_elided", "", counters.events_elided);
        registry.count("net.syns_sent", "", counters.syns_sent);
        registry.count("net.conns_established", "", counters.conns_established);
        registry.count("net.conns_refused", "", counters.conns_refused);
        registry.count("net.conn_timeouts", "", counters.conn_timeouts);
        registry.count("net.tcp_bytes_total", "", counters.tcp_payload_bytes);
        registry.count("net.udp.sent", "", counters.udp_datagrams_sent);
        registry.count("net.udp.dropped", "", counters.udp_datagrams_dropped);
        registry.count("net.udp.corrupted", "", counters.udp_datagrams_corrupted);
        registry.count("net.udp.duplicated", "", counters.udp_datagrams_duplicated);
        registry.count("net.fault.handshake_drops", "", counters.tcp_handshake_drops);
        registry.count("net.fault.rate_limited", "", counters.tcp_rate_limited);
        registry.count("net.fault.resets_injected", "", counters.tcp_resets_injected);
        registry.count("net.fault.churn_suppressed", "", counters.churn_suppressed);
        registry.count("scan.retry.first_attempt_losses", "", scan_resilience.first_attempt_losses);
        registry.count("scan.retry.issued", "", scan_resilience.retries_issued);
        registry.count("scan.retry.recovered", "", scan_resilience.retries_recovered);
        registry.count("fingerprint.retry.issued", "", fingerprint_report.retries_issued);
        registry.count("fingerprint.retry.recovered", "", fingerprint_report.retries_recovered);
        registry.count("honeypot.conns_shed", "", conns_shed);
        // The dataset merge re-sorts all events by (time, src, src_port);
        // every source address lives in exactly one shard, so the sorted
        // stream is independent of the shard split.
        let dataset = AttackDataset::merge(logs);
        let merge_node = merge_sw.leaf("merge");

        // ---- 5. Analysis ------------------------------------------------
        progress("computing tables and figures");
        let analysis_sw = Stopwatch::start();
        let honeypot_filter = fingerprint_report.filter_set();
        let table4 = Table4::compute(&zmap_results, &sonar_results, &shodan_results);
        let table5 = Table5::compute(&zmap_results, &honeypot_filter);
        let misconfigured = Table5::misconfigured_addrs(&zmap_results, &honeypot_filter);
        let table7 = Table7::compute(&dataset, &oracles.rdns);
        let month_start_day = cfg.month_start().day_index();
        let known_scanners: std::collections::BTreeSet<Ipv4Addr> = plan
            .service_sources()
            .keys()
            .copied()
            .filter(|a| ofh_analysis::AttackDataset::is_scanning_service(&oracles.rdns, *a))
            .collect();
        // Gap-tolerant Table 8: daily averages discount scheduled blackout
        // time overlapping the honeypot month instead of silently averaging
        // over dead air.
        let month_outage_minutes = cfg.faults.outage_minutes_between(
            month_start_day * 86_400_000,
            (month_start_day + cfg.month_days) * 86_400_000,
        );
        let table8 = TelescopeSummary::compute_gap_aware(
            &telescope,
            month_start_day,
            month_start_day + cfg.month_days,
            &known_scanners,
            month_outage_minutes,
        );
        let table10 = Table10::compute(&misconfigured, &geo);
        let table12 = Table12::compute(&dataset, 11);
        let table13 = Table13::compute(&dataset, &oracles.malware);
        let fig2 = Fig2::compute(&zmap_results);
        let fig3 = Fig3::compute(&dataset, &oracles.rdns);
        let breakdown = AttackTypeBreakdown::compute(&dataset);
        let fig5 = Fig5::compute(&dataset, &oracles.rdns, &oracles.greynoise);
        let fig6 = Fig6::compute(&dataset, &telescope, &oracles.rdns, &oracles.virustotal);
        let fig8 = Fig8::compute(&dataset, cfg.month_start(), cfg.month_days, &plan.listings);
        let fig9 = Fig9::compute(&dataset, &oracles.rdns);
        let infected = InfectedHosts::compute(
            &misconfigured,
            &dataset,
            &telescope,
            &oracles.virustotal,
            &oracles.censys,
            &oracles.rdns,
        );
        let resilience = crate::report::ResilienceReport::assemble(
            &scan_resilience,
            &fingerprint_report,
            conns_shed,
            cfg.faults.outage_minutes(),
            &counters,
            leaked,
        );
        let analysis_node = analysis_sw.leaf("analysis");

        // ---- 6. The snapshot: profile tree + merged metrics -------------
        // stage → shard → phase, with the wall/cpu split: a parallel
        // "simulate" stage's cpu (the per-shard clocks summed) may exceed
        // its wall (the coordinator's elapsed time) by up to `workers`×.
        let mut profile = ProfileNode::new("study");
        profile.wall_ns = study_sw.elapsed().as_nanos() as u64;
        profile.push_child(setup_node);
        profile.push_child(simulate_node);
        profile.push_child(merge_node);
        profile.push_child(analysis_node);
        let mut metrics = MetricsSnapshot::from_registry(
            cfg.seed,
            cfg.shards,
            &cfg.preset,
            &registry,
            per_shard_events,
        );
        metrics.host.workers = workers as u64;
        metrics.host.profile = profile;

        StudyReport {
            config: cfg.clone(),
            table4,
            table5,
            fingerprint: fingerprint_report,
            table7,
            table8,
            table10,
            table12,
            table13,
            fig2,
            fig3,
            breakdown,
            fig5,
            fig6,
            fig8,
            fig9,
            infected,
            resilience,
            dataset,
            telescope,
            geo,
            rdns: oracles.rdns,
            zmap_results,
            sonar_results,
            shodan_results,
            population_size: population.records.len(),
            wild_honeypot_count: wild.len(),
            counters,
            metrics,
            trace,
        }
    }
}

/// Simulate one shard: the March scan, fingerprinting, and the April
/// honeypot month — restricted to the addresses this shard owns.
fn run_shard(inputs: &ShardInputs<'_>, spec: ShardSpec) -> ShardOutput {
    let cfg = inputs.cfg;
    let universe = cfg.universe;
    let part = &inputs.parts[spec.index as usize];
    let records = inputs.records;

    // Install this shard's recording target for the duration of its
    // simulation. A shard runs to completion on the worker thread that took
    // it, so everything the instrumented crates record below lands in this
    // shard's private registry and ring.
    let obs_guard = cfg
        .obs
        .enabled
        .then(|| ofh_obs::install(ShardObs::for_shard(spec.index, &cfg.obs)));
    // Point this thread's live-telemetry cell at this shard for the
    // duration of its simulation (cells and shards are 1:1; threads take a
    // cell when they pick a shard up and drop it when done).
    if let Some(lp) = &inputs.live {
        ofh_obs::live::set_cell(Some(lp.cells[spec.index as usize].clone()));
    }
    let shard_sw = Stopwatch::start();
    let mut profile = ProfileNode::new(format!("shard-{:02}", spec.index));
    let phase_sw = Stopwatch::start();

    // ---- Wire up this shard's slice of the simulated Internet ----------
    let mut net = SimNet::new(SimNetConfig {
        seed: spec.seed(cfg.seed, "shard-net"),
        faults: cfg.faults.clone(),
        ..SimNetConfig::default()
    });
    let telescope_tap = net.add_tap(
        universe.dark_space(),
        Box::new(Telescope::new(Arc::clone(inputs.geo))),
    );

    // Devices the shard owns — infected ones get their bot schedules.
    match cfg.population {
        PopulationMode::Eager => {
            // Record order, infected or not.
            let mut devices: Vec<usize> =
                part.hosts.iter().chain(&part.infected).copied().collect();
            devices.sort_unstable();
            for i in devices {
                let record = &records[i];
                let agent = record.build_agent();
                match inputs.infected_tasks.get(&i) {
                    Some(tasks) => {
                        net.attach(record.addr, Box::new(InfectedDevice::new(agent, tasks.clone())));
                    }
                    None => {
                        net.attach(record.addr, agent);
                    }
                }
            }
            for &(addr, family) in &part.wild {
                net.attach(addr, Box::new(WildHoneypotAgent::new(family)));
            }
        }
        PopulationMode::Implicit => {
            // Only infected devices exist from the start (their boot
            // schedules the bot tasks); everything else streams out of the
            // shard's arena on first touch.
            for &i in &part.infected {
                let record = &records[i];
                let tasks = inputs.infected_tasks[&i].clone();
                net.attach(
                    record.addr,
                    Box::new(InfectedDevice::new(record.build_agent(), tasks)),
                );
            }
            net.set_spawner(Box::new(ShardSpawner::build(records, part)));
        }
    }

    // Deployed honeypots are replicated into every shard: each replica
    // receives exactly the traffic of this shard's actors, and the merge
    // concatenates the replica logs back into one deployment.
    let honeypots = inputs.honeypots;
    let deployed = [
        deploy::<HosTaGeHoneypot>(&mut net, honeypots.hostage),
        deploy::<UPotHoneypot>(&mut net, honeypots.upot),
        deploy::<ConpotHoneypot>(&mut net, honeypots.conpot),
        deploy::<ThingPotHoneypot>(&mut net, honeypots.thingpot),
        deploy::<CowrieHoneypot>(&mut net, honeypots.cowrie),
        deploy::<DionaeaHoneypot>(&mut net, honeypots.dionaea),
    ];

    // Attackers the shard owns.
    for &i in &part.actors {
        let actor = &inputs.plan.actors[i];
        net.attach(actor.addr, Box::new(AttackerAgent::new(actor.tasks.clone())));
    }

    // Scanners (ours + the dataset providers): every shard runs a replica
    // that probes only its owned addresses. Each replica walks each of its
    // distinct permutations once, keeping the owned targets in order, and
    // its sweeps that share a seed share that walk.
    let scanner_base = u32::from(universe.scanner_addr());
    let zmap_cfgs: Vec<ScannerConfig> = ofh_wire::Protocol::SCANNED
        .iter()
        .map(|&p| {
            let mut c = ScannerConfig::full(
                p,
                universe.cidr().first(),
                universe.size(),
                scan_start(p),
                spec.seed(cfg.seed ^ 0x5A4D_4150, "scan"),
            );
            c.shard = spec;
            if let Some(ts) = &part.targets {
                c.targets = ts.clone();
            }
            c
        })
        .collect();
    let zmap = Scanner::new(ScanSource::ZMap.label(), zmap_cfgs);
    let scan_end = zmap.estimated_end();
    let zmap_id = net.attach(Ipv4Addr::from(scanner_base), Box::new(zmap));
    let shard_cfgs = |mut cfgs: Vec<ScannerConfig>| {
        for c in &mut cfgs {
            c.shard = spec;
            if let Some(ts) = &part.targets {
                c.targets = ts.clone();
            }
        }
        cfgs
    };
    let sonar = Scanner::new(
        ScanSource::Sonar.label(),
        shard_cfgs(datasets::sonar_configs(
            universe.cidr().first(),
            universe.size(),
            SimTime::ZERO,
            spec.seed(cfg.seed, "sonar"),
        )),
    );
    let shodan = Scanner::new(
        ScanSource::Shodan.label(),
        shard_cfgs(datasets::shodan_configs(
            universe.cidr().first(),
            universe.size(),
            SimTime::ZERO,
            spec.seed(cfg.seed, "shodan"),
        )),
    );
    let sonar_id = net.attach(Ipv4Addr::from(scanner_base + 1), Box::new(sonar));
    let shodan_id = net.attach(Ipv4Addr::from(scanner_base + 2), Box::new(shodan));

    // ---- Scan phase (March) --------------------------------------------
    profile.push_child(phase_sw.leaf("wire"));
    let phase_sw = Stopwatch::start();
    // Under a fault schedule, grabs interrupted near the sweep tail retry
    // with backoff (up to ~4.25 s each, two chained): give the tail room to
    // drain. Fault-free runs keep the original boundary so their traces are
    // byte-for-byte unchanged.
    let scan_end = if cfg.faults.is_none() {
        scan_end
    } else {
        scan_end + ofh_net::SimDuration::from_secs(30)
    };
    net.run_until(scan_end);
    profile.push_child(phase_sw.leaf("scan"));
    let phase_sw = Stopwatch::start();
    let zmap = std::mem::take(
        &mut net
            .agent_downcast_mut::<Scanner>(zmap_id)
            .expect("zmap scanner")
            .results,
    );

    // ---- Fingerprint phase ---------------------------------------------
    let candidates = engine::passive_candidates(inputs.signatures, &zmap);
    let candidate_count = candidates.len();
    let prober_id = net.attach(
        Ipv4Addr::from(scanner_base + 3),
        Box::new(FingerprintProber::new(candidates)),
    );
    net.run_until(net.now() + FingerprintProber::estimated_duration(candidate_count));
    profile.push_child(phase_sw.leaf("fingerprint"));

    // ---- Honeypot month (April) ----------------------------------------
    let phase_sw = Stopwatch::start();
    net.run_until(cfg.study_end());
    // Fold the network's locally-accumulated observability (final partial
    // hour, payload-size histograms, connection high-water mark) into this
    // shard's recording target while it is still installed. The scanners'
    // response tallies and the telescope's flow tallies follow at
    // extraction.
    net.flush_obs();
    profile.push_child(phase_sw.leaf("month"));

    // ---- Extraction -----------------------------------------------------
    let phase_sw = Stopwatch::start();
    let mut resilience = ofh_scan::ScanResilience::default();
    let mut leaked: u64 = 0;
    let prober = net
        .agent_downcast_mut::<FingerprintProber>(prober_id)
        .expect("prober");
    leaked += prober.leaked_state();
    let fingerprint = std::mem::take(&mut prober.report);
    // Fold in the zmap scanner's retry accounting (its results were taken
    // at the scan boundary above, after the retry tail drained).
    {
        let s = net.agent_downcast_mut::<Scanner>(zmap_id).expect("zmap scanner");
        resilience.absorb(&s.resilience);
        leaked += s.leaked_state();
        s.flush_obs();
    }
    let sonar = extract_results(&mut net, sonar_id, &mut resilience, &mut leaked);
    let shodan = extract_results(&mut net, shodan_id, &mut resilience, &mut leaked);

    let mut conns_shed: u64 = 0;
    let mut logs = Vec::with_capacity(deployed.len());
    for (id, drain) in deployed {
        let (events, shed) = drain(&mut net, id);
        logs.push(events);
        conns_shed += shed;
    }
    // Exclude our own measurement infrastructure (the scanning host and
    // the fingerprint prober) from the attack dataset — the paper's
    // pipeline likewise discounts its own probes.
    let own_infra: std::collections::BTreeSet<Ipv4Addr> = (0..4u32)
        .map(|i| Ipv4Addr::from(scanner_base + i))
        .collect();
    for log in &mut logs {
        log.retain(|e| !own_infra.contains(&e.src));
    }
    let mut telescope = std::mem::replace(
        net.tap_downcast_mut::<Telescope>(telescope_tap)
            .expect("telescope tap"),
        Telescope::new(GeoDb::new()),
    );
    telescope.flush_obs();

    profile.push_child(phase_sw.leaf("extract"));
    profile.wall_ns = shard_sw.elapsed().as_nanos() as u64;

    if let Some(lp) = &inputs.live {
        lp.mark_done(spec.index);
        ofh_obs::live::set_cell(None);
    }

    ShardOutput {
        zmap,
        sonar,
        shodan,
        fingerprint,
        logs,
        telescope,
        counters: net.counters(),
        resilience,
        conns_shed,
        leaked,
        obs: obs_guard.map(|g| g.finish()),
        profile,
    }
}

/// Reads a deployed honeypot's month back out of the network
/// ([`DeployedHoneypot::drain`]).
type Drain = fn(&mut SimNet, AgentId) -> (Vec<AttackEvent>, u64);

/// Attach a deployed honeypot of type `H` at `addr`, paired with its drain.
fn deploy<H: DeployedHoneypot>(net: &mut SimNet, addr: Ipv4Addr) -> (AgentId, Drain) {
    fn drain<H: DeployedHoneypot>(net: &mut SimNet, id: AgentId) -> (Vec<AttackEvent>, u64) {
        net.agent_downcast_mut::<H>(id)
            .expect("deployed honeypot")
            .drain()
    }
    (net.attach(addr, Box::new(H::default())), drain::<H>)
}

fn extract_results(
    net: &mut SimNet,
    id: AgentId,
    resilience: &mut ofh_scan::ScanResilience,
    leaked: &mut u64,
) -> ScanResults {
    let s = net.agent_downcast_mut::<Scanner>(id).expect("scanner agent");
    resilience.absorb(&s.resilience);
    *leaked += s.leaked_state();
    s.flush_obs();
    std::mem::take(&mut s.results)
}

/// Ground-truth-free helper used by tests: build just the population.
pub fn population_for(cfg: &StudyConfig) -> Population {
    PopulationBuilder::new(PopulationSpec {
        universe: cfg.universe,
        scale: cfg.scan_scale,
        seed: cfg.seed,
    })
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-time partition gives each shard exactly the inputs that
    /// filtering every input with `ShardSpec::owns` selects, in input
    /// order, and no infected device enters a shard's arena.
    #[test]
    fn partition_matches_per_shard_ownership_filter() {
        let cfg = StudyConfig::quick(7);
        let population = population_for(&cfg);
        let plan = AttackPlan::build(
            &PlanConfig {
                seed: cfg.seed,
                hp_scale: cfg.hp_scale,
                infected_scale: (cfg.scan_scale / cfg.infected_oversample).max(1),
                universe: cfg.universe,
                month_start: cfg.month_start(),
                month_days: cfg.month_days,
                honeypots: HoneypotSet::in_lab(&cfg.universe),
            },
            &population,
        );
        let infected_tasks = bot_schedules(&plan);
        assert!(!infected_tasks.is_empty());
        let wild: Vec<(Ipv4Addr, WildHoneypot)> = (0..200u32)
            .zip(WildHoneypot::ALL.iter().cycle())
            .map(|(i, &family)| (Ipv4Addr::from(0x0a00_0000 + i * 7_919), family))
            .collect();
        let records = &population.records;

        for shards in [1, 16, 64] {
            let parts = partition_inputs(shards, &population, &infected_tasks, &wild, &plan);
            assert_eq!(parts.len(), shards as usize);
            for (spec, part) in ShardSpec::all(shards).zip(&parts) {
                let (infected, hosts): (Vec<usize>, Vec<usize>) = (0..records.len())
                    .filter(|&i| spec.owns(records[i].addr))
                    .partition(|i| infected_tasks.contains_key(i));
                assert_eq!(part.hosts, hosts, "hosts of {spec:?}");
                assert_eq!(part.infected, infected, "infected of {spec:?}");
                let wild_owned: Vec<(Ipv4Addr, WildHoneypot)> =
                    wild.iter().copied().filter(|&(addr, _)| spec.owns(addr)).collect();
                assert_eq!(part.wild, wild_owned, "wild honeypots of {spec:?}");
                let actors: Vec<usize> = (0..plan.actors.len())
                    .filter(|&i| spec.owns(plan.actors[i].addr))
                    .collect();
                assert_eq!(part.actors, actors, "actors of {spec:?}");

                let spawner = ShardSpawner::build(records, part);
                assert_eq!(spawner.arena.len(), part.hosts.len());
                assert!(part.hosts.iter().all(|&i| spawner.occupied(records[i].addr)));
                assert!(part.infected.iter().all(|&i| !spawner.occupied(records[i].addr)));
            }
        }
    }

    /// The lookups the directory replaced: a binary search over the sorted
    /// arena addresses (whose rank is the arena slot), then one over the
    /// sorted wild-honeypot list, with the port rules restated from the
    /// agents' guards.
    struct BinarySearchOracle {
        /// Arena hosts' record indexes, sorted by address: position = slot.
        arena: Vec<(u32, usize)>,
        wild: Vec<(u32, WildHoneypot)>,
    }

    impl BinarySearchOracle {
        fn new(records: &[DeviceRecord], part: &ShardPart) -> BinarySearchOracle {
            let mut arena: Vec<(u32, usize)> =
                part.hosts.iter().map(|&i| (u32::from(records[i].addr), i)).collect();
            arena.sort_unstable();
            let mut wild: Vec<(u32, WildHoneypot)> =
                part.wild.iter().map(|&(a, f)| (u32::from(a), f)).collect();
            wild.sort_unstable_by_key(|&(a, _)| a);
            BinarySearchOracle { arena, wild }
        }

        fn host(&self, addr: Ipv4Addr) -> Option<Host> {
            let a = u32::from(addr);
            if let Ok(slot) = self.arena.binary_search_by_key(&a, |&(x, _)| x) {
                return Some(Host::Arena(slot as u32));
            }
            let i = self.wild.binary_search_by_key(&a, |&(x, _)| x).ok()?;
            Some(Host::Wild(self.wild[i].1))
        }

        fn serves(
            &self,
            records: &[DeviceRecord],
            addr: Ipv4Addr,
            transport: Transport,
            port: u16,
        ) -> Option<bool> {
            Some(match self.host(addr)? {
                Host::Arena(slot) => {
                    let r = &records[self.arena[slot as usize].1];
                    ofh_devices::endpoints::serves(r.protocol, r.port, transport, port)
                }
                Host::Wild(family) => transport == Transport::Tcp && port == family.port(),
            })
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The shard spawner's one hash directory answers `occupied`,
        /// `serves` and `spawn` as the binary searches it replaced did, for
        /// random arenas (a random share of a shard's devices) and wild
        /// lists, at 1, 16 and 64 shards: on every present address, on
        /// absent ones (devices left out or owned elsewhere, neighbours of
        /// present addresses, strays), over TCP and UDP, on every device
        /// and wild-honeypot port plus random ones.
        #[test]
        fn directory_agrees_with_binary_search_oracle(
            seed in 0u64..4,
            shards in proptest::sample::select(vec![1u32, 16, 64]),
            shard_pick in 0u32..64,
            keep_pct in 0u64..=100,
            keep_salt in proptest::arbitrary::any::<u64>(),
            wild_offsets in proptest::collection::vec(
                (proptest::arbitrary::any::<u16>(), 0usize..WildHoneypot::ALL.len()),
                0..=96,
            ),
            strays in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..=16),
            random_ports in proptest::collection::vec(proptest::arbitrary::any::<u16>(), 0..=4),
        ) {
            let cfg = StudyConfig::quick(seed);
            let population = population_for(&cfg);
            let records = &population.records;
            let spec = ShardSpec { index: shard_pick % shards, count: shards };
            let occupied_by_devices: std::collections::BTreeSet<Ipv4Addr> =
                records.iter().map(|r| r.addr).collect();
            let mut part = ShardPart::default();
            for (i, r) in records.iter().enumerate() {
                let kept = ofh_net::rng::splitmix64(keep_salt ^ i as u64) % 100 < keep_pct;
                if spec.owns(r.addr) && kept {
                    part.hosts.push(i);
                }
            }
            let base = u32::from(cfg.universe.cidr().first());
            let mut wild_addrs = std::collections::BTreeSet::new();
            for &(offset, family) in &wild_offsets {
                let addr = Ipv4Addr::from(base + u32::from(offset));
                if spec.owns(addr) && !occupied_by_devices.contains(&addr) && wild_addrs.insert(addr) {
                    part.wild.push((addr, WildHoneypot::ALL[family]));
                }
            }

            let oracle = BinarySearchOracle::new(records, &part);
            let mut spawner = ShardSpawner::build(records, &part);

            let mut probes: Vec<Ipv4Addr> = records.iter().map(|r| r.addr).collect();
            probes.extend(part.wild.iter().map(|&(a, _)| a));
            let neighbours: Vec<Ipv4Addr> = probes
                .iter()
                .flat_map(|&a| [u32::from(a).wrapping_sub(1), u32::from(a).wrapping_add(1)])
                .map(Ipv4Addr::from)
                .collect();
            probes.extend(neighbours);
            probes.extend(strays.iter().map(|&a| Ipv4Addr::from(a)));
            probes.sort_unstable();
            probes.dedup();

            let mut ports: Vec<u16> = records.iter().map(|r| r.port).collect();
            ports.extend(WildHoneypot::ALL.iter().map(|f| f.port()));
            ports.extend([0, 21, 22, 80, 443, 502, 1883, 1900, 2323, 5222, 5672, 5683, 8080]);
            ports.extend(&random_ports);
            ports.sort_unstable();
            ports.dedup();

            let mut present = 0;
            for &addr in &probes {
                let expected = oracle.host(addr);
                present += usize::from(expected.is_some());
                proptest::prop_assert_eq!(spawner.host(addr), expected, "directory entry of {}", addr);
                proptest::prop_assert_eq!(spawner.occupied(addr), expected.is_some(), "occupied({})", addr);
                for transport in [Transport::Tcp, Transport::Udp] {
                    for &port in &ports {
                        proptest::prop_assert_eq!(
                            spawner.serves(addr, transport, port),
                            oracle.serves(records, addr, transport, port),
                            "serves({}, {:?}, {})", addr, transport, port
                        );
                    }
                }
                let spawned = spawner.spawn(addr);
                match expected {
                    None => proptest::prop_assert!(spawned.is_none(), "spawned at empty {}", addr),
                    Some(Host::Arena(slot)) => {
                        let want = records[oracle.arena[slot as usize].1].build_agent();
                        let got = spawned.expect("arena host spawns");
                        proptest::prop_assert_eq!(
                            (&*got as &dyn std::any::Any).type_id(),
                            (&*want as &dyn std::any::Any).type_id(),
                            "agent type at {}", addr
                        );
                    }
                    Some(Host::Wild(family)) => {
                        let got = spawned.expect("wild honeypot spawns");
                        let agent = (&*got as &dyn std::any::Any)
                            .downcast_ref::<WildHoneypotAgent>()
                            .expect("a wild honeypot agent");
                        proptest::prop_assert_eq!(agent.family, family, "family at {}", addr);
                    }
                }
            }
            proptest::prop_assert_eq!(present, part.hosts.len() + part.wild.len());
        }
    }
}
