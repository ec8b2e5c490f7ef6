//! Vantage points: the paper's closing future-work note — "based on the
//! recent work of Wan et al. we see the need for combining geographically
//! distributed scanners" — and its own motivation for self-scanning: "some
//! networks blocklist Shodan, Censys and other scanning services" (§A.3).
//!
//! This example runs the Telnet sweep from three vantage points, each
//! blocked by a different slice of the address space (networks that filter
//! that scanner's origin), and shows that the union recovers coverage no
//! single vantage point achieves.
//!
//! ```sh
//! cargo run --release --example vantage_points [seed]
//! ```

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ofh_core::devices::population::{PopulationBuilder, PopulationSpec};
use ofh_core::devices::Universe;
use ofh_core::net::{Cidr, SimNet, SimNetConfig};
use ofh_core::scan::{scan_start, Scanner, ScannerConfig};
use ofh_core::wire::Protocol;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let universe = Universe::new(Ipv4Addr::new(16, 0, 0, 0), 17);
    let population = PopulationBuilder::new(PopulationSpec {
        universe,
        scale: 8_192,
        seed,
    })
    .build();
    let mut net = SimNet::new(SimNetConfig { seed, ..SimNetConfig::default() });
    population.attach_all(&mut net);
    let telnet_truth = population
        .records
        .iter()
        .filter(|r| r.protocol == Protocol::Telnet)
        .count();

    // Three vantage points; each is filtered by a different third of the
    // population region (networks that block that origin).
    let (pop_base, pop_len) = universe.population_space();
    let third = (pop_len / 3) as u32;
    let blocked_for: Vec<Vec<Cidr>> = (0..3u32)
        .map(|v| {
            // Approximate each third with /24-aligned blocks.
            let start = u32::from(pop_base) + v * third;
            (0..third / 256)
                .map(|i| Cidr::new(Ipv4Addr::from(start + i * 256), 24).expect("aligned"))
                .collect()
        })
        .collect();

    let scanner_base = u32::from(universe.scanner_addr());
    let mut ids = Vec::new();
    for (v, blocks) in blocked_for.iter().enumerate() {
        let mut cfg = ScannerConfig::full(
            Protocol::Telnet,
            universe.cidr().first(),
            universe.size(),
            scan_start(Protocol::Telnet),
            seed + v as u64,
        );
        for b in blocks {
            cfg.blocklist.insert(*b);
        }
        let scanner = Scanner::new(format!("vantage-{v}"), vec![cfg]);
        let end = scanner.estimated_end();
        let id = net.attach(Ipv4Addr::from(scanner_base + v as u32), Box::new(scanner));
        ids.push((id, end));
    }
    let end = ids.iter().map(|&(_, e)| e).max().unwrap();
    net.run_until(end);

    let mut union: BTreeSet<Ipv4Addr> = BTreeSet::new();
    println!("Telnet hosts in the population: {telnet_truth}\n");
    for (v, &(id, _)) in ids.iter().enumerate() {
        let found = net
            .agent_downcast_mut::<Scanner>(id)
            .unwrap()
            .take_results()
            .unique_addrs(Protocol::Telnet);
        println!(
            "vantage-{v}: sees {:>5} hosts ({:.1}% — one third of the space filters it)",
            found.len(),
            found.len() as f64 * 100.0 / telnet_truth as f64
        );
        union.extend(found);
    }
    println!(
        "\nunion of all vantage points: {} hosts ({:.1}%)",
        union.len(),
        union.len() as f64 * 100.0 / telnet_truth as f64
    );
    assert_eq!(union.len(), telnet_truth, "combined vantage points recover full coverage");
    println!("combined coverage is complete — the Wan et al. argument, measured.");
}
