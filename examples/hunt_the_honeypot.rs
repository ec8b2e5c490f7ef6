//! Hunt the honeypot: the paper's §3.2/§4.2 fingerprinting experiment —
//! deploy the nine wild honeypot families among real devices, scan, and
//! show that (a) the passive+active pipeline finds them all, (b) an
//! impostor device wearing a honeypot banner is *not* falsely detected, and
//! (c) without the filter the honeypots would poison Table 5.
//!
//! ```sh
//! cargo run --release --example hunt_the_honeypot [seed]
//! ```

use std::net::Ipv4Addr;

use ofh_core::analysis::table5::Table5;
use ofh_core::devices::endpoints::TelnetDevice;
use ofh_core::devices::population::{PopulationBuilder, PopulationSpec};
use ofh_core::devices::{Misconfig, Universe};
use ofh_core::fingerprint::{engine, FingerprintProber, SignatureDb};
use ofh_core::honeypots::{WildHoneypot, WildHoneypotAgent};
use ofh_core::net::rng::rng_for;
use ofh_core::net::{SimNet, SimNetConfig};
use ofh_core::scan::{scan_start, Scanner, ScannerConfig};
use ofh_core::wire::Protocol;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let universe = Universe::new(Ipv4Addr::new(16, 0, 0, 0), 17);
    let scale = 8_192;
    let t0 = std::time::Instant::now();

    let mut population = PopulationBuilder::new(PopulationSpec { universe, scale, seed }).build();
    let mut rng = rng_for(seed, "hunt");
    let mut net = SimNet::new(SimNetConfig { seed, ..SimNetConfig::default() });
    population.attach_all(&mut net);

    // Deploy the wild honeypots (ground truth kept only for the printout).
    let mut deployed: Vec<(Ipv4Addr, WildHoneypot)> = Vec::new();
    for family in WildHoneypot::ALL {
        let n = ((family.paper_count() + scale / 2) / scale).max(1);
        for _ in 0..n {
            let (addr, _) = population.allocator.alloc_weighted(&mut rng).unwrap();
            net.attach(addr, Box::new(WildHoneypotAgent::new(family)));
            deployed.push((addr, family));
        }
    }
    // An impostor: a *real device* whose banner contains the Anglerfish
    // signature. Passive matching alone would flag it.
    let (impostor_addr, _) = population.allocator.alloc_weighted(&mut rng).unwrap();
    net.attach(
        impostor_addr,
        Box::new(TelnetDevice::new(
            "[root@LocalHost tmp]$ lookalike firmware",
            Some(Misconfig::TelnetNoAuth),
            23,
        )),
    );
    println!(
        "deployed {} wild honeypots + 1 impostor device at {impostor_addr}",
        deployed.len()
    );

    // Telnet scan over the whole universe.
    let cfg = ScannerConfig::full(
        Protocol::Telnet,
        universe.cidr().first(),
        universe.size(),
        scan_start(Protocol::Telnet),
        seed,
    );
    let scanner = Scanner::new("ZMap Scan", vec![cfg]);
    let end = scanner.estimated_end();
    let scanner_addr = universe.scanner_addr();
    let zmap = net.attach(scanner_addr, Box::new(scanner));
    net.run_until(end);
    let results = net.agent_downcast_mut::<Scanner>(zmap).unwrap().take_results();

    // Stage 1 (passive): signature matching over raw banners.
    let db = SignatureDb::new();
    let candidates = engine::passive_candidates(&db, &results);
    println!(
        "passive stage: {} candidates (includes the impostor: {})",
        candidates.len(),
        candidates.iter().any(|&(a, _, _)| a == impostor_addr)
    );

    // Stage 2 (active): static-response confirmation.
    let n = candidates.len();
    let prober = net.attach(
        Ipv4Addr::from(u32::from(scanner_addr) + 1),
        Box::new(FingerprintProber::new(candidates)),
    );
    net.run_until(net.now() + FingerprintProber::estimated_duration(n));
    let report = net.agent_downcast::<FingerprintProber>(prober).unwrap().report.clone();

    println!("\n== Table 6: detected honeypots ==");
    let counts = report.counts();
    for family in WildHoneypot::ALL {
        let truth = deployed.iter().filter(|&&(_, f)| f == family).count();
        println!(
            "  {:<20} detected {:>2} | deployed {:>2} | paper {:>5}",
            family.name(),
            counts.get(&family).copied().unwrap_or(0),
            truth,
            family.paper_count()
        );
    }
    println!(
        "  total detected {} | rejected candidates (impostors) {}",
        report.total(),
        report.rejected.len()
    );
    assert!(
        !report.filter_set().contains(&impostor_addr),
        "the impostor must NOT be confirmed as a honeypot"
    );

    // The sanitization argument: Table 5 with and without the filter.
    let with_filter = Table5::compute(&results, &report.filter_set());
    let without = Table5::compute(&results, &Default::default());
    println!(
        "\nTable 5 sanitization: {} misconfigured Telnet devices with the filter, \
         {} without — {} honeypots would have poisoned the dataset",
        with_filter.total,
        without.total,
        without.total - with_filter.total
    );
    eprintln!("elapsed: {:?}", t0.elapsed());
}
