//! Internet census: the paper's §3.1/§4.1 scan experiment in isolation.
//!
//! Builds the scaled IoT population, runs the ZMap-style sweeps plus the
//! Project Sonar and Shodan dataset providers, applies the honeypot filter,
//! and prints Tables 4, 5, 9 and 10 and Fig. 2 side by side with the
//! paper's values.
//!
//! ```sh
//! cargo run --release --example internet_census [seed]
//! ```

use std::net::Ipv4Addr;

use ofh_core::analysis::figures::Fig2;
use ofh_core::analysis::table10::Table10;
use ofh_core::analysis::table4::Table4;
use ofh_core::analysis::table5::Table5;
use ofh_core::devices::population::{PopulationBuilder, PopulationSpec};
use ofh_core::devices::Universe;
use ofh_core::fingerprint::{engine, FingerprintProber, SignatureDb};
use ofh_core::honeypots::{WildHoneypot, WildHoneypotAgent};
use ofh_core::net::rng::rng_for;
use ofh_core::net::{SimNet, SimNetConfig, SimTime};
use ofh_core::scan::{datasets, scan_start, schedule, Scanner, ScannerConfig};
use ofh_core::wire::Protocol;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let universe = Universe::new(Ipv4Addr::new(16, 0, 0, 0), 18);
    let scale = 4_096;
    let t0 = std::time::Instant::now();

    // ---- Population (+ wild honeypots hiding in it) ---------------------
    let mut population = PopulationBuilder::new(PopulationSpec { universe, scale, seed }).build();
    let mut rng = rng_for(seed, "census");
    let mut net = SimNet::new(SimNetConfig { seed, ..SimNetConfig::default() });
    population.attach_all(&mut net);
    for family in WildHoneypot::ALL {
        let n = ((family.paper_count() + scale / 2) / scale).max(1);
        for _ in 0..n {
            let (addr, _) = population.allocator.alloc_weighted(&mut rng).unwrap();
            net.attach(addr, Box::new(WildHoneypotAgent::new(family)));
        }
    }
    println!(
        "population: {} devices in a 2^{} universe (scale 1:{scale})",
        population.records.len(),
        universe.bits
    );

    // ---- Scan campaigns (Table 9 schedule) ------------------------------
    println!("\n== Table 9: scan dates per protocol ==");
    for p in Protocol::SCANNED {
        println!("  {:<8} {}", p.name(), schedule::scan_date(p));
    }
    let zmap_cfgs: Vec<ScannerConfig> = Protocol::SCANNED
        .iter()
        .map(|&p| {
            ScannerConfig::full(p, universe.cidr().first(), universe.size(), scan_start(p), seed)
        })
        .collect();
    let zmap = Scanner::new("ZMap Scan", zmap_cfgs);
    let scan_end = zmap.estimated_end();
    let scanner_addr = universe.scanner_addr();
    let zmap = net.attach(scanner_addr, Box::new(zmap));
    let sonar = net.attach(
        Ipv4Addr::from(u32::from(scanner_addr) + 1),
        Box::new(Scanner::new(
            "Project Sonar",
            datasets::sonar_configs(universe.cidr().first(), universe.size(), SimTime::ZERO, seed),
        )),
    );
    let shodan = net.attach(
        Ipv4Addr::from(u32::from(scanner_addr) + 2),
        Box::new(Scanner::new(
            "Shodan",
            datasets::shodan_configs(universe.cidr().first(), universe.size(), SimTime::ZERO, seed),
        )),
    );
    net.run_until(scan_end);
    let zmap_results = net.agent_downcast_mut::<Scanner>(zmap).unwrap().take_results();
    let sonar_results = net.agent_downcast_mut::<Scanner>(sonar).unwrap().take_results();
    let shodan_results = net.agent_downcast_mut::<Scanner>(shodan).unwrap().take_results();
    println!(
        "\nscan finished at {} after {} probes",
        net.now(),
        net.counters().syns_sent + net.counters().udp_datagrams_sent
    );

    // ---- Honeypot sanitization ------------------------------------------
    let db = SignatureDb::new();
    let candidates = engine::passive_candidates(&db, &zmap_results);
    let n = candidates.len();
    let prober = net.attach(
        Ipv4Addr::from(u32::from(scanner_addr) + 3),
        Box::new(FingerprintProber::new(candidates)),
    );
    net.run_until(net.now() + FingerprintProber::estimated_duration(n));
    let filter = net
        .agent_downcast::<FingerprintProber>(prober)
        .unwrap()
        .report
        .filter_set();
    println!("honeypot filter: {} instances removed from scan results\n", filter.len());

    // ---- Reports ---------------------------------------------------------
    let table4 = Table4::compute(&zmap_results, &sonar_results, &shodan_results);
    println!("{}", table4.render());
    let table5 = Table5::compute(&zmap_results, &filter);
    println!("{}", table5.render());
    let misconfigured = Table5::misconfigured_addrs(&zmap_results, &filter);
    println!("{}", Table10::compute(&misconfigured, &population.geo).render());
    println!("{}", Fig2::compute(&zmap_results).render());
    eprintln!("elapsed: {:?}", t0.elapsed());
}
