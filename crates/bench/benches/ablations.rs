//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * `zmap_permutation` — cyclic-group iteration vs a linear sweep
//!   (correctness-neutral; the permutation buys subnet spread, quantified
//!   in the printed diagnostic, at what iteration cost?);
//! * `cidr_trie` — trie membership vs linear blocklist scan;
//! * `banner_match` — Aho-Corasick signature matching vs naive per-pattern
//!   search over realistic banners;
//! * `single_vs_multi_port` — the Telnet 23-only sweep (Project Sonar's
//!   view) vs the 23+2323 sweep (ours): the Table 4 delta's cost side.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::net::Ipv4Addr;

use ofh_devices::population::{PopulationBuilder, PopulationSpec};
use ofh_devices::Universe;
use ofh_fingerprint::matcher::naive_find_all;
use ofh_fingerprint::SignatureDb;
use ofh_honeypots::WildHoneypot;
use ofh_net::{Cidr, CidrSet, SimNet, SimNetConfig};
use ofh_scan::{scan_start, AddressPermutation, Scanner, ScannerConfig};
use ofh_wire::Protocol;

fn zmap_permutation(c: &mut Criterion) {
    let size = 1u64 << 18;
    let mut g = c.benchmark_group("ablation/zmap_permutation");
    g.throughput(Throughput::Elements(size));
    g.bench_function("cyclic_group", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in AddressPermutation::new(size, 4) {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.bench_function("linear_sweep", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in 0..size {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.finish();

    // Diagnostic (printed once): subnet spread in the first 256 probes.
    let perm: Vec<u64> = AddressPermutation::new(size, 4).take(256).collect();
    let spread: std::collections::HashSet<u64> = perm.iter().map(|v| v >> 10).collect();
    eprintln!(
        "[ablation] permutation hits {} distinct /22-equivalents in its first \
         256 probes; a linear sweep hits 1",
        spread.len()
    );
}

fn cidr_trie(c: &mut Criterion) {
    // A FireHOL-ish blocklist: 512 prefixes.
    let blocks: Vec<Cidr> = (0..512u32)
        .map(|i| Cidr::new(Ipv4Addr::from(i << 20), 12 + (i % 12) as u8).unwrap())
        .collect();
    let set = CidrSet::from_blocks(blocks);
    let probes: Vec<Ipv4Addr> = (0..4_096u32).map(|i| Ipv4Addr::from(i * 1_048_573)).collect();
    let mut g = c.benchmark_group("ablation/cidr_blocklist");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("trie", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for &p in &probes {
                hits += set.contains(p) as u32;
            }
            black_box(hits)
        })
    });
    g.bench_function("linear", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for &p in &probes {
                hits += set.contains_linear(p) as u32;
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn banner_match(c: &mut Criterion) {
    let db = SignatureDb::new();
    let patterns: Vec<Vec<u8>> = WildHoneypot::ALL.iter().map(|f| f.signature().to_vec()).collect();
    // A mixed corpus: mostly benign banners, some honeypots.
    let mut corpus: Vec<Vec<u8>> = Vec::new();
    for i in 0..2_000u32 {
        corpus.push(match i % 10 {
            0 => {
                let mut b = WildHoneypot::ALL[(i as usize / 10) % 9].signature().to_vec();
                b.extend_from_slice(b"\r\n$ ");
                b
            }
            1 => b"\xff\xfb\x01\xff\xfb\x03PK5001Z login:\r\nlogin: ".to_vec(),
            2 => b"192.168.0.64 login:".to_vec(),
            _ => format!("Welcome to device-{i}\r\nlogin: ").into_bytes(),
        });
    }
    let mut g = c.benchmark_group("ablation/banner_match");
    g.throughput(Throughput::Elements(corpus.len() as u64));
    g.bench_function("aho_corasick", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for banner in &corpus {
                hits += db.match_banner(banner).is_some() as u32;
            }
            black_box(hits)
        })
    });
    g.bench_function("naive", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for banner in &corpus {
                hits += (!naive_find_all(&patterns, banner).is_empty()) as u32;
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn single_vs_multi_port(c: &mut Criterion) {
    let universe = Universe::new(Ipv4Addr::new(16, 0, 0, 0), 14);
    let run = |ports: Vec<u16>| {
        let seed = 3;
        let population = PopulationBuilder::new(PopulationSpec {
            universe,
            scale: 65_536,
            seed,
        })
        .build();
        let mut net = SimNet::new(SimNetConfig { seed, ..SimNetConfig::default() });
        population.attach_all(&mut net);
        let mut cfg = ScannerConfig::full(
            Protocol::Telnet,
            universe.cidr().first(),
            universe.size(),
            scan_start(Protocol::Telnet),
            seed,
        );
        cfg.ports = ports;
        let scanner = Scanner::new("bench", vec![cfg]);
        let end = scanner.estimated_end();
        let id = net.attach(universe.scanner_addr(), Box::new(scanner));
        net.run_until(end);
        net.agent_downcast_mut::<Scanner>(id).unwrap().take_results().exposed_hosts(Protocol::Telnet)
    };
    let mut g = c.benchmark_group("ablation/telnet_ports");
    g.sample_size(10);
    g.bench_function("port_23_only(sonar_view)", |b| b.iter(|| black_box(run(vec![23]))));
    g.bench_function("ports_23_and_2323(zmap_view)", |b| {
        b.iter(|| black_box(run(vec![23, 2_323])))
    });
    g.finish();
    eprintln!(
        "[ablation] 23-only finds {} Telnet hosts; 23+2323 finds {} — the Table 4 delta",
        run(vec![23]),
        run(vec![23, 2_323])
    );
}

criterion_group!(benches, zmap_permutation, cidr_trie, banner_match, single_vs_multi_port);
criterion_main!(benches);
