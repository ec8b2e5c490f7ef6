//! Property tests for the analysis layer: totality and partition invariants
//! over arbitrary event streams, and differential checks of the one-pass
//! source classification, the dataset's flood flags, Tables 4 and 5 and
//! Fig. 2 against naive references.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ofh_analysis::events::{
    register_service_rdns, AttackDataset, AttackType, SourceClass, DDOS_AGGREGATE_PER_MINUTE,
    DOS_EVENTS_PER_MINUTE,
};
use ofh_analysis::figures::{AttackTypeBreakdown, Fig2};
use ofh_analysis::table4::Table4;
use ofh_analysis::table5::Table5;
use ofh_analysis::table7::Table7;
use ofh_devices::{DeviceType, Misconfig, PROFILES};
use ofh_honeypots::{AttackEvent, EventKind, HoneypotKind};
use ofh_intel::ReverseDns;
use ofh_net::SimTime;
use ofh_scan::{HostRecord, ScanResults};
use ofh_wire::Protocol;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Connection),
        (1usize..2000).prop_map(|len| EventKind::Datagram { len }),
        Just(EventKind::Discovery),
        ("[a-z]{1,8}", "[a-z0-9!]{0,8}", any::<bool>()).prop_map(|(u, p, s)| {
            EventKind::LoginAttempt {
                username: u,
                password: p,
                success: s,
            }
        }),
        "[a-z ./:-]{1,24}".prop_map(|line| EventKind::Command { line }),
        prop::collection::vec(any::<u8>(), 0..32).prop_map(|payload| EventKind::PayloadDrop {
            payload,
            url: None,
        }),
        "[a-z/]{1,12}".prop_map(|t| EventKind::DataWrite { target: t }),
        "[a-z/]{1,12}".prop_map(|t| EventKind::DataRead { target: t }),
        "/[a-z/]{0,12}".prop_map(|p| EventKind::HttpRequest { path: p }),
        "[A-Za-z0-9 -]{1,16}".prop_map(|n| EventKind::ExploitSignature { name: n }),
    ]
}

fn arb_event() -> impl Strategy<Value = AttackEvent> {
    (
        0u64..2_000_000_000,
        prop::sample::select(vec!["HosTaGe", "U-Pot", "Conpot", "ThingPot", "Cowrie", "Dionaea"]),
        prop::sample::select(Protocol::ALL.to_vec()),
        any::<u32>(),
        any::<u16>(),
        arb_kind(),
    )
        .prop_map(|(t, honeypot, protocol, src, src_port, kind)| AttackEvent {
            time: SimTime(t),
            honeypot,
            protocol,
            src: Ipv4Addr::from(src),
            src_port,
            kind,
        })
}

/// The dense generator's source pool: few enough sources that
/// (honeypot, src) pairs recur and minutes fill up.
const DENSE_SOURCES: u32 = 8;

fn dense_src(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000 + i)
}

fn arb_benign_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Connection),
        (1usize..2000).prop_map(|len| EventKind::Datagram { len }),
        Just(EventKind::Discovery),
        "/[a-z]{0,6}".prop_map(|path| EventKind::HttpRequest { path }),
    ]
}

/// One source's burst of `count` events to one (honeypot, protocol) within
/// one of the first three minutes. Sizes straddle the ">6 events" rule and
/// the single-source flood threshold (30/min).
fn arb_burst() -> impl Strategy<Value = Vec<AttackEvent>> {
    (
        0..DENSE_SOURCES,
        prop::sample::select(vec!["Cowrie", "U-Pot", "HosTaGe"]),
        prop::sample::select(vec![Protocol::Telnet, Protocol::Upnp]),
        0u64..3,
        prop_oneof![3 => 1usize..=6, 1 => 7usize..=20, 2 => 25usize..=45],
        prop_oneof![4 => arb_benign_kind(), 1 => arb_kind()],
        0u64..60_000,
    )
        .prop_map(|(src, honeypot, protocol, minute, count, kind, offset)| {
            (0..count as u64)
                .map(|i| AttackEvent {
                    time: SimTime(minute * 60_000 + (offset + i * 1_300) % 60_000),
                    honeypot,
                    protocol,
                    src: dense_src(src),
                    src_port: 40_000 + i as u16,
                    kind: kind.clone(),
                })
                .collect()
        })
}

/// A swarm: 3–10 pool sources, each sending 1–14 benign datagrams, all
/// into one (honeypot, protocol, minute). Totals straddle the aggregate
/// flood threshold (60/min), so light participants are malicious only
/// through the distributed-flood rule.
fn arb_swarm() -> impl Strategy<Value = Vec<AttackEvent>> {
    (
        prop::sample::select(vec!["Cowrie", "U-Pot", "HosTaGe"]),
        prop::sample::select(vec![Protocol::Telnet, Protocol::Upnp]),
        0u64..3,
        prop::collection::vec((0..DENSE_SOURCES, 1usize..=14), 3..=10),
    )
        .prop_map(|(honeypot, protocol, minute, members)| {
            members
                .into_iter()
                .enumerate()
                .flat_map(|(m, (src, count))| {
                    (0..count as u64).map(move |i| AttackEvent {
                        time: SimTime(minute * 60_000 + (m as u64 * 4_001 + i * 700) % 60_000),
                        honeypot,
                        protocol,
                        src: dense_src(src),
                        src_port: 50_000 + i as u16,
                        kind: EventKind::Datagram { len: 64 },
                    })
                })
                .collect()
        })
}

/// A dense dataset (bursts plus at most one swarm) and the bitmask of
/// pool sources registered as scanning services.
fn arb_dense() -> impl Strategy<Value = (Vec<AttackEvent>, u8)> {
    (
        prop::collection::vec(arb_burst(), 0..14),
        prop::option::of(arb_swarm()),
        any::<u8>(),
    )
        .prop_map(|(bursts, swarm, registered)| {
            let events = bursts
                .into_iter()
                .flatten()
                .chain(swarm.into_iter().flatten())
                .collect();
            (events, registered)
        })
}

fn dense_rdns(registered: u8) -> ReverseDns {
    let mut rdns = ReverseDns::new();
    for i in (0..DENSE_SOURCES).filter(|i| registered & (1 << i) != 0) {
        register_service_rdns(&mut rdns, dense_src(i), "Shodan");
    }
    rdns
}

/// The reference classifier: scan every event of the pair, recomputing the
/// flood flags from the raw events (the per-pair loop `classify_source`
/// ran before the dataset summarized pairs at merge time).
fn naive_classify(
    events: &[AttackEvent],
    rdns: &ReverseDns,
    honeypot: &str,
    src: Ipv4Addr,
) -> SourceClass {
    if AttackDataset::is_scanning_service(rdns, src) {
        return SourceClass::ScanningService;
    }
    let single_source_flood = |protocol: Protocol| {
        let mut per_minute: BTreeMap<u64, usize> = BTreeMap::new();
        for o in events
            .iter()
            .filter(|o| o.src == src && o.honeypot == honeypot && o.protocol == protocol)
        {
            *per_minute.entry(o.time.minute_index()).or_insert(0) += 1;
        }
        per_minute.values().any(|&n| n >= DOS_EVENTS_PER_MINUTE)
    };
    let aggregate_flood = |protocol: Protocol, minute: u64| {
        events
            .iter()
            .filter(|o| {
                o.honeypot == honeypot && o.protocol == protocol && o.time.minute_index() == minute
            })
            .count()
            >= DDOS_AGGREGATE_PER_MINUTE
    };
    let mut malicious = false;
    let mut count = 0usize;
    for e in events
        .iter()
        .filter(|e| e.honeypot == honeypot && e.src == src)
    {
        count += 1;
        malicious |= matches!(
            e.kind,
            EventKind::LoginAttempt { .. }
                | EventKind::PayloadDrop { .. }
                | EventKind::DataWrite { .. }
                | EventKind::ExploitSignature { .. }
        ) || single_source_flood(e.protocol)
            || aggregate_flood(e.protocol, e.time.minute_index());
    }
    if malicious || count > 6 {
        SourceClass::Malicious
    } else {
        SourceClass::Unknown
    }
}

/// `classify_source` and Table 7's per-honeypot splits agree with the
/// naive per-event scan, including on (honeypot, src) pairs the dataset
/// never saw.
fn check_against_naive(events: Vec<AttackEvent>, rdns: &ReverseDns) {
    let ds = AttackDataset::merge(vec![events.clone()]);
    let mut lookups: BTreeSet<Ipv4Addr> = events.iter().map(|e| e.src).collect();
    lookups.extend((0..DENSE_SOURCES + 2).map(dense_src));
    let t7 = Table7::compute(&ds, rdns);
    for hp in HoneypotKind::ALL.map(HoneypotKind::name) {
        for &src in &lookups {
            assert_eq!(
                ds.classify_source(rdns, hp, src),
                naive_classify(&events, rdns, hp, src),
                "{hp} {src}"
            );
        }
        let (mut scanning, mut malicious, mut unknown) = (0, 0, 0);
        let seen: BTreeSet<Ipv4Addr> = ds.honeypot_events(hp).map(|e| e.src).collect();
        for &src in &seen {
            match naive_classify(&events, rdns, hp, src) {
                SourceClass::ScanningService => scanning += 1,
                SourceClass::Malicious => malicious += 1,
                SourceClass::Unknown => unknown += 1,
            }
        }
        let s = t7.sources_of(hp);
        assert_eq!(
            (s.scanning, s.malicious, s.unknown),
            (scanning, malicious, unknown),
            "{hp}"
        );
    }
}

/// The flood flags and source summaries as `AttackDataset::merge` built
/// them before it counted in hash tables: B-trees keyed by honeypot name.
/// Kept as the oracle for the hash tables.
struct TreeOracle {
    dos_sources: BTreeSet<(Ipv4Addr, &'static str, Protocol)>,
    dos_minutes: BTreeSet<(&'static str, Protocol, u64)>,
    /// (events, malicious) per (honeypot, src).
    summaries: BTreeMap<(&'static str, Ipv4Addr), (usize, bool)>,
}

impl TreeOracle {
    fn new(events: &[AttackEvent]) -> TreeOracle {
        let mut per_minute: BTreeMap<(Ipv4Addr, &'static str, Protocol, u64), usize> =
            BTreeMap::new();
        let mut aggregate: BTreeMap<(&'static str, Protocol, u64), usize> = BTreeMap::new();
        for e in events {
            let minute = e.time.minute_index();
            *per_minute.entry((e.src, e.honeypot, e.protocol, minute)).or_insert(0) += 1;
            *aggregate.entry((e.honeypot, e.protocol, minute)).or_insert(0) += 1;
        }
        let mut oracle = TreeOracle {
            dos_sources: per_minute
                .into_iter()
                .filter(|(_, n)| *n >= DOS_EVENTS_PER_MINUTE)
                .map(|((src, hp, proto, _), _)| (src, hp, proto))
                .collect(),
            dos_minutes: aggregate
                .into_iter()
                .filter(|(_, n)| *n >= DDOS_AGGREGATE_PER_MINUTE)
                .map(|(key, _)| key)
                .collect(),
            summaries: BTreeMap::new(),
        };
        for e in events {
            let malicious = matches!(
                e.kind,
                EventKind::LoginAttempt { .. }
                    | EventKind::PayloadDrop { .. }
                    | EventKind::DataWrite { .. }
                    | EventKind::ExploitSignature { .. }
            ) || oracle.in_flood(e);
            let summary = oracle.summaries.entry((e.honeypot, e.src)).or_default();
            summary.0 += 1;
            summary.1 |= malicious;
        }
        oracle
    }

    fn in_flood(&self, e: &AttackEvent) -> bool {
        self.dos_sources.contains(&(e.src, e.honeypot, e.protocol))
            || self.dos_minutes.contains(&(e.honeypot, e.protocol, e.time.minute_index()))
    }

    fn classify(&self, rdns: &ReverseDns, honeypot: &'static str, src: Ipv4Addr) -> SourceClass {
        if AttackDataset::is_scanning_service(rdns, src) {
            return SourceClass::ScanningService;
        }
        match self.summaries.get(&(honeypot, src)) {
            Some(&(events, malicious)) if malicious || events > 6 => SourceClass::Malicious,
            _ => SourceClass::Unknown,
        }
    }
}

/// The merged dataset's flood flags, DoS source count and source classes
/// equal the B-tree oracle's. The flags are probed with a datagram at every
/// event's (src, honeypot, protocol, minute), at the same place on every
/// honeypot, from a source no event has, and a day later, so single-source
/// and distributed floods are each seen alone.
fn check_against_tree_oracle(events: Vec<AttackEvent>, rdns: &ReverseDns) {
    let ds = AttackDataset::merge(vec![events.clone()]);
    let oracle = TreeOracle::new(&events);
    let stranger = Ipv4Addr::new(203, 0, 113, 1);
    for e in &events {
        for honeypot in HoneypotKind::ALL.map(HoneypotKind::name) {
            for (src, time) in [
                (e.src, e.time),
                (stranger, e.time),
                (e.src, SimTime(e.time.0 + 86_400_000)),
            ] {
                let probe = AttackEvent {
                    time,
                    honeypot,
                    protocol: e.protocol,
                    src,
                    src_port: 0,
                    kind: EventKind::Datagram { len: 1 },
                };
                assert_eq!(
                    ds.attack_type(&probe) == AttackType::Dos,
                    oracle.in_flood(&probe),
                    "{probe:?}"
                );
            }
        }
    }
    let dos_sources: BTreeSet<Ipv4Addr> = oracle.dos_sources.iter().map(|k| k.0).collect();
    assert_eq!(ds.dos_source_count(), dos_sources.len());
    let mut lookups: BTreeSet<Ipv4Addr> = events.iter().map(|e| e.src).collect();
    lookups.extend((0..DENSE_SOURCES + 2).map(dense_src));
    for honeypot in HoneypotKind::ALL.map(HoneypotKind::name) {
        for &src in &lookups {
            assert_eq!(
                ds.classify_source(rdns, honeypot, src),
                oracle.classify(rdns, honeypot, src),
                "{honeypot} {src}"
            );
        }
    }
}

/// Fig. 2 as it was counted before it walked the records' order: a set of
/// addresses per (protocol, device type), and untyped records per protocol.
/// Kept as the oracle for the one-walk count.
fn fig2_by_sets(results: &ScanResults) -> Fig2 {
    let mut cells: BTreeMap<(Protocol, DeviceType), BTreeSet<Ipv4Addr>> = BTreeMap::new();
    let mut unidentified: BTreeMap<Protocol, u64> = BTreeMap::new();
    for r in &results.records {
        match r.device() {
            Some(profile) => {
                cells.entry((r.protocol, profile.device_type)).or_default().insert(r.addr);
            }
            None => *unidentified.entry(r.protocol).or_insert(0) += 1,
        }
    }
    Fig2 {
        cells: cells.into_iter().map(|((p, t), set)| (p, t, set.len() as u64)).collect(),
        unidentified,
    }
}

/// Responses ZTag types: every catalog profile's identifier under its own
/// protocol and under a second one, plus untyped text.
fn typed_responses() -> Vec<(Protocol, String)> {
    PROFILES
        .iter()
        .flat_map(|p| [(p.protocol, p.identifier.to_string()), (Protocol::Telnet, p.identifier.to_string())])
        .chain([(Protocol::Telnet, "login:".into()), (Protocol::Coap, String::new())])
        .collect()
}

#[test]
fn typed_responses_type_every_profile() {
    let typed: BTreeSet<&str> = typed_responses()
        .iter()
        .filter_map(|(protocol, text)| {
            HostRecord::new(Ipv4Addr::LOCALHOST, 1, *protocol, text.as_str(), Vec::new()).device()
        })
        .map(|profile| profile.name)
        .collect();
    assert_eq!(typed.len(), PROFILES.len());
}

/// The classifier-relevant (protocol, response) pairs: at least one hit
/// per `Misconfig` class and near misses for each protocol.
const RESPONSES: [(Protocol, &str); 16] = [
    (Protocol::Telnet, "root@cam:~$ "),
    (Protocol::Telnet, "BusyBox v1.19\n$ "),
    (Protocol::Telnet, "192.168.0.64 login:"),
    (Protocol::Mqtt, "MQTT Connection Code:0"),
    (Protocol::Mqtt, "MQTT Connection Code:5"),
    (Protocol::Amqp, "Version: 2.7.1"),
    (Protocol::Amqp, "Version: 3.8.9 PLAIN"),
    (Protocol::Xmpp, "<mechanism>ANONYMOUS</mechanism>"),
    (Protocol::Xmpp, "<mechanism>PLAIN</mechanism>"),
    (Protocol::Xmpp, "<mechanism>PLAIN</mechanism><required/>"),
    (Protocol::Coap, "220-Admin"),
    (Protocol::Coap, "220 connected"),
    (Protocol::Coap, "</sensors/temp>"),
    (Protocol::Coap, "4.04 Not Found"),
    (Protocol::Upnp, "ST: upnp:rootdevice"),
    (Protocol::Upnp, "HTTP/1.1 404"),
];

/// Records over a pool of 40 addresses, up to three ports per protocol,
/// so addresses repeat across classes and the filter removes some.
fn arb_record() -> impl Strategy<Value = HostRecord> {
    (0u32..40, 0u16..3, prop::sample::select(RESPONSES.to_vec())).prop_map(
        |(addr, port_offset, (protocol, response))| {
            HostRecord::new(
                Ipv4Addr::from(0xc0a8_0000 + addr),
                protocol.port() + port_offset,
                protocol,
                response,
                response.as_bytes(),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every event gets exactly one attack type, and the per-protocol
    /// breakdown partitions the dataset (cells sum to the event count).
    #[test]
    fn attack_typing_is_a_partition(events in prop::collection::vec(arb_event(), 0..300)) {
        let n = events.len() as u64;
        let ds = AttackDataset::merge(vec![events]);
        let breakdown = AttackTypeBreakdown::compute(&ds);
        let total: u64 = breakdown.cells.iter().map(|(_, _, _, c)| c).sum();
        prop_assert_eq!(total, n);
        // Per-protocol shares sum to 1 wherever a protocol has events.
        for p in Protocol::ALL {
            let per = breakdown.per_protocol(p);
            let sum: u64 = per.values().sum();
            if sum > 0 {
                let share_sum: f64 = per
                    .keys()
                    .map(|&ty| breakdown.share(p, ty))
                    .sum();
                prop_assert!((share_sum - 1.0).abs() < 1e-9);
            }
        }
    }

    /// Table 7's source classification partitions each honeypot's unique
    /// sources: scanning + malicious + unknown = distinct sources seen.
    #[test]
    fn table7_sources_partition(events in prop::collection::vec(arb_event(), 0..300)) {
        let ds = AttackDataset::merge(vec![events]);
        let rdns = ReverseDns::new();
        let t7 = Table7::compute(&ds, &rdns);
        for hp in ["HosTaGe", "U-Pot", "Conpot", "ThingPot", "Cowrie", "Dionaea"] {
            let distinct: std::collections::BTreeSet<Ipv4Addr> =
                ds.honeypot_events(hp).map(|e| e.src).collect();
            let s = t7.sources_of(hp);
            prop_assert_eq!(s.scanning + s.malicious + s.unknown, distinct.len(), "{}", hp);
        }
        // Row events also sum to the dataset size.
        let total: u64 = t7.rows.iter().map(|r| r.events).sum();
        prop_assert_eq!(total, ds.len() as u64);
    }

    /// Source classes are stable (same input, same class) and never
    /// scanning-service without an rDNS registration.
    #[test]
    fn classification_without_rdns_never_scanning(
        events in prop::collection::vec(arb_event(), 1..120),
    ) {
        let ds = AttackDataset::merge(vec![events]);
        let rdns = ReverseDns::new();
        for e in &ds.events {
            let c = ds.classify_source(&rdns, e.honeypot, e.src);
            prop_assert_ne!(c, SourceClass::ScanningService);
            prop_assert_eq!(c, ds.classify_source(&rdns, e.honeypot, e.src));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense streams: recurring pairs, floods of both kinds, rDNS-registered
    /// sources and absent pairs — the one-pass classification matches the
    /// naive per-event scan.
    #[test]
    fn source_classes_match_naive_scan_dense(case in arb_dense()) {
        let (events, registered) = case;
        check_against_naive(events, &dense_rdns(registered));
    }

    /// Sparse streams over random sources and a month of time.
    #[test]
    fn source_classes_match_naive_scan_sparse(
        events in prop::collection::vec(arb_event(), 0..200),
    ) {
        check_against_naive(events, &ReverseDns::new());
    }

    /// The hash-table flood flags and summaries equal the B-tree oracle on
    /// dense streams: floods of both kinds, recurring pairs and rDNS
    /// registrations.
    #[test]
    fn merge_matches_tree_oracle_dense(case in arb_dense()) {
        let (events, registered) = case;
        check_against_tree_oracle(events, &dense_rdns(registered));
    }

    /// The same on sparse streams over random sources and a month of time.
    #[test]
    fn merge_matches_tree_oracle_sparse(events in prop::collection::vec(arb_event(), 0..200)) {
        check_against_tree_oracle(events, &ReverseDns::new());
    }

    /// The one-walk Fig. 2 equals the set-based count: addresses repeat
    /// across ports, protocols and device types.
    #[test]
    fn fig2_one_walk_matches_address_sets(
        records in prop::collection::vec((0u32..40, 0u16..3, any::<usize>()), 0..160),
    ) {
        let responses = typed_responses();
        let mut results = ScanResults::new("ZMap Scan");
        for (addr, port_offset, response) in records {
            let (protocol, text) = &responses[response % responses.len()];
            results.insert(HostRecord::new(
                Ipv4Addr::from(0xc0a8_0000 + addr),
                protocol.port() + port_offset,
                *protocol,
                text.as_str(),
                text.as_bytes(),
            ));
        }
        let got = Fig2::compute(&results);
        let want = fig2_by_sets(&results);
        prop_assert_eq!(got.render(), want.render());
        prop_assert_eq!(got.cells, want.cells);
        prop_assert_eq!(got.unidentified, want.unidentified);
    }

    /// The one-walk Table 4 counts equal the per-protocol `exposed_hosts`
    /// reference. Every ZMap source holds one host on two Telnet ports and
    /// one on three protocols, and the Shodan source is empty.
    #[test]
    fn table4_one_walk_matches_exposed_hosts(
        zmap in prop::collection::vec(arb_record(), 0..120),
        sonar in prop::collection::vec(arb_record(), 0..120),
    ) {
        let source = |name: &str, records: Vec<HostRecord>| {
            let mut results = ScanResults::new(name);
            for r in records {
                results.insert(r);
            }
            results
        };
        let fixed = |addr: u32, protocol: Protocol, port: u16| {
            HostRecord::new(Ipv4Addr::from(0xc0a8_0100 + addr), port, protocol, "", Vec::new())
        };
        let mut zmap = source("ZMap Scan", zmap);
        for r in [
            fixed(0, Protocol::Telnet, 23),
            fixed(0, Protocol::Telnet, 2323),
            fixed(1, Protocol::Telnet, 23),
            fixed(1, Protocol::Mqtt, 1883),
            fixed(1, Protocol::Coap, 5683),
        ] {
            zmap.insert(r);
        }
        let sonar = source("Project Sonar", sonar);
        let shodan = ScanResults::new("Shodan");

        let t4 = Table4::compute(&zmap, &sonar, &shodan);
        let mut expected: Vec<(Protocol, u64, Option<u64>, u64)> = Protocol::SCANNED
            .iter()
            .map(|&p| {
                (
                    p,
                    zmap.exposed_hosts(p) as u64,
                    ofh_scan::datasets::sonar_coverage(p).map(|_| sonar.exposed_hosts(p) as u64),
                    shodan.exposed_hosts(p) as u64,
                )
            })
            .collect();
        expected.sort_by_key(|&(_, zmap, _, _)| zmap);
        let rows: Vec<(Protocol, u64, Option<u64>, u64)> =
            t4.rows.iter().map(|r| (r.protocol, r.zmap, r.sonar, r.shodan)).collect();
        prop_assert_eq!(rows, expected);
    }

    /// The one-pass Table 5 and misconfigured-address set equal filtering
    /// first (`remove_addrs`) and classifying per class afterwards.
    #[test]
    fn table5_one_pass_matches_filter_then_classify(
        records in prop::collection::vec(arb_record(), 0..120),
        filter in prop::collection::vec(0u32..40, 0..12),
    ) {
        let mut results = ScanResults::new("ZMap Scan");
        for r in records {
            results.insert(r);
        }
        let filter: BTreeSet<Ipv4Addr> =
            filter.into_iter().map(|a| Ipv4Addr::from(0xc0a8_0000 + a)).collect();

        let mut filtered = results.clone();
        let removed = filtered.remove_addrs(&filter);
        let mut expected: Vec<(Misconfig, u64)> = Misconfig::ALL
            .iter()
            .map(|&c| (c, filtered.misconfigured_addrs(c).len() as u64))
            .collect();
        expected.sort_by_key(|&(_, n)| n);

        let t5 = Table5::compute(&results, &filter);
        let rows: Vec<(Misconfig, u64)> = t5.rows.iter().map(|r| (r.class, r.devices)).collect();
        prop_assert_eq!(rows, expected);
        prop_assert_eq!(t5.total, filtered.all_misconfigured().len() as u64);
        prop_assert_eq!(t5.honeypots_filtered, removed);
        prop_assert_eq!(
            Table5::misconfigured_addrs(&results, &filter),
            filtered.all_misconfigured()
        );
    }
}
