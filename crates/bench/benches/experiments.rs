//! Per-experiment benchmarks: each group times the pipeline that
//! regenerates one of the paper's tables/figures (at bench scale), so
//! regressions in any stage of the reproduction show up here.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::net::Ipv4Addr;

use ofh_core::{Study, StudyConfig};
use ofh_devices::population::{PopulationBuilder, PopulationSpec};
use ofh_devices::Universe;
use ofh_fingerprint::{engine, FingerprintProber, SignatureDb};
use ofh_honeypots::{WildHoneypot, WildHoneypotAgent};
use ofh_net::{SimNet, SimNetConfig, SimTime};
use ofh_scan::{scan_start, Scanner, ScannerConfig};
use ofh_wire::Protocol;

fn bench_universe() -> Universe {
    Universe::new(Ipv4Addr::new(16, 0, 0, 0), 14)
}

/// One Telnet sweep over a populated universe: the Table 4/5 engine.
fn scan_sweep(seed: u64) -> ofh_scan::ScanResults {
    let universe = bench_universe();
    let population = PopulationBuilder::new(PopulationSpec {
        universe,
        scale: 65_536,
        seed,
    })
    .build();
    let mut net = SimNet::new(SimNetConfig { seed, ..SimNetConfig::default() });
    population.attach_all(&mut net);
    let cfg = ScannerConfig::full(
        Protocol::Telnet,
        universe.cidr().first(),
        universe.size(),
        scan_start(Protocol::Telnet),
        seed,
    );
    let scanner = Scanner::new("ZMap Scan", vec![cfg]);
    let end = scanner.estimated_end();
    let id = net.attach(universe.scanner_addr(), Box::new(scanner));
    net.run_until(end);
    net.agent_downcast_mut::<Scanner>(id).unwrap().take_results()
}

fn table4_and_5(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);
    g.bench_function("table4_table5_scan_sweep", |b| {
        b.iter(|| black_box(scan_sweep(3)).len())
    });
    let results = scan_sweep(3);
    g.bench_function("table5_classify", |b| {
        b.iter(|| {
            black_box(
                ofh_analysis::table5::Table5::compute(&results, &Default::default()).total,
            )
        })
    });
    g.finish();
}

fn table6_fingerprint(c: &mut Criterion) {
    let universe = bench_universe();
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);
    g.bench_function("table6_fingerprint_hunt", |b| {
        b.iter(|| {
            let seed = 5;
            let mut net = SimNet::new(SimNetConfig { seed, ..SimNetConfig::default() });
            let lab = universe.honeypot_lab();
            // Deploy one instance of every family.
            let mut addr = u32::from(lab.first());
            let mut candidates = Vec::new();
            for family in WildHoneypot::ALL {
                if family == WildHoneypot::Kippo {
                    continue;
                }
                let a = Ipv4Addr::from(addr);
                addr += 1;
                net.attach(a, Box::new(WildHoneypotAgent::new(family)));
                candidates.push((a, 23u16, family));
            }
            let n = candidates.len();
            let prober = net.attach(
                universe.scanner_addr(),
                Box::new(FingerprintProber::new(candidates)),
            );
            net.run_until(SimTime::ZERO + FingerprintProber::estimated_duration(n));
            black_box(net.agent_downcast::<FingerprintProber>(prober).unwrap().report.total())
        })
    });
    // Passive stage alone over realistic scan results.
    let results = scan_sweep(5);
    let db = SignatureDb::new();
    g.bench_function("table6_passive_matching", |b| {
        b.iter(|| black_box(engine::passive_candidates(&db, &results).len()))
    });
    g.finish();
}

/// The honeypot-month and telescope experiments, and the headline join,
/// all ride the full study; bench it at a tiny preset.
fn full_study(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);
    let cfg = StudyConfig {
        universe: Universe::new(Ipv4Addr::new(16, 0, 0, 0), 14),
        scan_scale: 65_536,
        hp_scale: 2_048,
        month_days: 10,
        ..StudyConfig::quick(11)
    };
    g.bench_function("table7_table8_headline_full_study", |b| {
        b.iter(|| {
            let report = Study::new(cfg.clone()).run();
            black_box((report.table7.total_events, report.infected.total))
        })
    });
    g.finish();
}

fn figures(c: &mut Criterion) {
    let results = scan_sweep(7);
    let mut g = c.benchmark_group("experiments");
    g.bench_function("fig2_device_types", |b| {
        b.iter(|| black_box(ofh_analysis::figures::Fig2::compute(&results).cells.len()))
    });
    // Figs 3/4/5/7/8/9 over a synthetic event log.
    let report = Study::new(StudyConfig {
        universe: Universe::new(Ipv4Addr::new(16, 0, 0, 0), 14),
        scan_scale: 65_536,
        hp_scale: 1_024,
        month_days: 10,
        ..StudyConfig::quick(13)
    })
    .run();
    g.bench_function("fig4_fig7_attack_typing", |b| {
        b.iter(|| {
            black_box(
                ofh_analysis::figures::AttackTypeBreakdown::compute(&report.dataset)
                    .cells
                    .len(),
            )
        })
    });
    g.bench_function("fig8_timeline", |b| {
        b.iter(|| {
            black_box(
                ofh_analysis::figures::Fig8::compute(
                    &report.dataset,
                    report.config.month_start(),
                    report.config.month_days,
                    &[],
                )
                .per_day
                .len(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, table4_and_5, table6_fingerprint, full_study, figures);
criterion_main!(benches);
