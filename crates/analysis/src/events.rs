//! The merged honeypot dataset: source classification and attack typing.
//!
//! The paper's pipeline (§4.3): reverse-look-up every source; sources
//! registered to known scanning services are "scanning-service traffic";
//! sources exhibiting malicious behaviour (brute force, droppers, poisoning,
//! floods, exploits) are "malicious"; the rest — one-off unknown scans — are
//! "unknown/suspicious". DoS is detected from per-source-per-minute rates,
//! not from actor ground truth.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ofh_honeypots::{AttackEvent, EventKind};
use ofh_intel::ReverseDns;
use ofh_net::{FastMap, FastSet};
use ofh_wire::Protocol;
use serde::Serialize;

/// Per-source classification (Table 7's starred columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SourceClass {
    ScanningService,
    Malicious,
    Unknown,
}

impl SourceClass {
    pub const ALL: [SourceClass; 3] = [
        SourceClass::ScanningService,
        SourceClass::Malicious,
        SourceClass::Unknown,
    ];

    /// The stable label of this class, as the study store's `src_class`
    /// dictionary spells it.
    pub const fn label(self) -> &'static str {
        match self {
            SourceClass::ScanningService => "scanning_service",
            SourceClass::Malicious => "malicious",
            SourceClass::Unknown => "unknown",
        }
    }
}

/// Attack types (Figs. 4 and 7 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum AttackType {
    Scanning,
    BruteForce,
    MalwareDeployment,
    DataPoisoning,
    Dos,
    Exploit,
    Scraping,
}

impl AttackType {
    pub const ALL: [AttackType; 7] = [
        AttackType::Scanning,
        AttackType::BruteForce,
        AttackType::MalwareDeployment,
        AttackType::DataPoisoning,
        AttackType::Dos,
        AttackType::Exploit,
        AttackType::Scraping,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            AttackType::Scanning => "Scanning/Discovery",
            AttackType::BruteForce => "Brute force",
            AttackType::MalwareDeployment => "Malware deployment",
            AttackType::DataPoisoning => "Data poisoning",
            AttackType::Dos => "DoS",
            AttackType::Exploit => "Exploit",
            AttackType::Scraping => "Web scraping",
        }
    }
}

/// Flood threshold: this many events from one source to one honeypot
/// protocol within one minute is a DoS, not scanning.
pub const DOS_EVENTS_PER_MINUTE: usize = 30;

/// Aggregate flood threshold: this many events to one honeypot protocol
/// within one minute — regardless of source — is a *distributed* DoS
/// episode (botnet swarms send few packets per source; the target still
/// drowns).
pub const DDOS_AGGREGATE_PER_MINUTE: usize = 60;

/// Sources with more than this many events on one honeypot are recurring
/// traffic, hence malicious (§4.3.1), whatever their event kinds.
const RECURRING_EVENTS: usize = 6;

/// What source classification needs to know about one (honeypot, src)
/// pair, derived once when the dataset is merged.
#[derive(Default)]
struct SourceSummary {
    events: usize,
    /// Some event was of a malicious kind or fell in a flood episode
    /// (single-source or distributed).
    malicious: bool,
}

/// The merged honeypot event dataset.
///
/// The flood flags and source summaries are hash tables keyed by honeypot
/// name: they are only looked up, or counted whole, never iterated in an
/// order an output could see. The keys are simulated sources and the
/// honeypots' own names, which the fast hasher is meant for.
pub struct AttackDataset {
    pub events: Vec<AttackEvent>,
    /// Minute-rate DoS flags per (src, honeypot, protocol).
    dos_sources: FastSet<(Ipv4Addr, &'static str, Protocol)>,
    /// Aggregate (distributed) flood episodes per (honeypot, protocol,
    /// minute).
    dos_minutes: FastSet<(&'static str, Protocol, u64)>,
    /// Per-(honeypot, src) classification inputs, one entry per pair seen.
    source_summaries: FastMap<(&'static str, Ipv4Addr), SourceSummary>,
}

impl AttackDataset {
    /// Merge per-honeypot logs into one time-ordered dataset and detect
    /// flood episodes (single-source and distributed).
    pub fn merge(logs: Vec<Vec<AttackEvent>>) -> AttackDataset {
        let mut events: Vec<AttackEvent> = logs.into_iter().flatten().collect();
        events.sort_by_key(|e| (e.time, e.src, e.src_port));
        // Flood detection by per-minute rates.
        let mut per_minute: FastMap<(Ipv4Addr, &'static str, Protocol, u64), usize> =
            FastMap::default();
        let mut aggregate: FastMap<(&'static str, Protocol, u64), usize> = FastMap::default();
        for e in &events {
            let minute = e.time.minute_index();
            *per_minute
                .entry((e.src, e.honeypot, e.protocol, minute))
                .or_insert(0) += 1;
            *aggregate.entry((e.honeypot, e.protocol, minute)).or_insert(0) += 1;
        }
        let dos_sources = per_minute
            .into_iter()
            .filter(|(_, n)| *n >= DOS_EVENTS_PER_MINUTE)
            .map(|((src, hp, proto, _), _)| (src, hp, proto))
            .collect();
        let dos_minutes = aggregate
            .into_iter()
            .filter(|(_, n)| *n >= DDOS_AGGREGATE_PER_MINUTE)
            .map(|(key, _)| key)
            .collect();
        let mut dataset = AttackDataset {
            events,
            dos_sources,
            dos_minutes,
            source_summaries: FastMap::default(),
        };
        let mut summaries: FastMap<(&'static str, Ipv4Addr), SourceSummary> = FastMap::default();
        for e in &dataset.events {
            let summary = summaries.entry((e.honeypot, e.src)).or_default();
            summary.events += 1;
            // Malicious event kinds and flood participation — single-source
            // or as part of a distributed swarm — are malicious behaviour.
            summary.malicious |= matches!(
                e.kind,
                EventKind::LoginAttempt { .. }
                    | EventKind::PayloadDrop { .. }
                    | EventKind::DataWrite { .. }
                    | EventKind::ExploitSignature { .. }
            ) || dataset.in_flood(e);
        }
        dataset.source_summaries = summaries;
        dataset
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All distinct source addresses.
    pub fn sources(&self) -> BTreeSet<Ipv4Addr> {
        self.events.iter().map(|e| e.src).collect()
    }

    /// Whether `src` is a known scanning service, by reverse lookup against
    /// scanner-registered domains (the paper's §4.3.1 method).
    pub fn is_scanning_service(rdns: &ReverseDns, src: Ipv4Addr) -> bool {
        rdns.domain_of(src).is_some_and(|d| d.ends_with(".scanner.example"))
    }

    /// Classify one source seen by one honeypot. A pair with no events is
    /// `Unknown` unless rDNS names a scanning service.
    pub fn classify_source(
        &self,
        rdns: &ReverseDns,
        honeypot: &'static str,
        src: Ipv4Addr,
    ) -> SourceClass {
        if Self::is_scanning_service(rdns, src) {
            return SourceClass::ScanningService;
        }
        match self.source_summaries.get(&(honeypot, src)) {
            // Recurring non-service traffic and malicious payloads are
            // malicious (§4.3.1).
            Some(s) if s.malicious || s.events > RECURRING_EVENTS => SourceClass::Malicious,
            _ => SourceClass::Unknown,
        }
    }

    /// Whether `event` falls in a single-source or aggregate flood episode.
    fn in_flood(&self, event: &AttackEvent) -> bool {
        self.dos_sources
            .contains(&(event.src, event.honeypot, event.protocol))
            || self.dos_minutes.contains(&(
                event.honeypot,
                event.protocol,
                event.time.minute_index(),
            ))
    }

    /// Attack type of one event, given the dataset's flood flags.
    pub fn attack_type(&self, event: &AttackEvent) -> AttackType {
        if self.in_flood(event) {
            // Everything in a flood episode is DoS traffic.
            if matches!(
                event.kind,
                EventKind::Datagram { .. } | EventKind::HttpRequest { .. } | EventKind::Connection
                    | EventKind::ExploitSignature { .. }
            ) {
                return AttackType::Dos;
            }
        }
        match &event.kind {
            EventKind::LoginAttempt { .. } => AttackType::BruteForce,
            EventKind::PayloadDrop { .. } => AttackType::MalwareDeployment,
            EventKind::Command { line } => {
                if line.contains("wget") || line.contains("curl") {
                    AttackType::MalwareDeployment
                } else {
                    AttackType::BruteForce
                }
            }
            EventKind::DataWrite { .. } => AttackType::DataPoisoning,
            EventKind::ExploitSignature { .. } => AttackType::Exploit,
            EventKind::HttpRequest { .. } => AttackType::Scraping,
            EventKind::Connection
            | EventKind::Datagram { .. }
            | EventKind::Discovery
            | EventKind::DataRead { .. } => AttackType::Scanning,
        }
    }

    /// Events on a given honeypot.
    pub fn honeypot_events<'a>(
        &'a self,
        honeypot: &'a str,
    ) -> impl Iterator<Item = &'a AttackEvent> + 'a {
        self.events.iter().filter(move |e| e.honeypot == honeypot)
    }

    /// Sources that triggered a DoS flag anywhere.
    pub fn dos_source_count(&self) -> usize {
        self.dos_sources
            .iter()
            .map(|(src, _, _)| *src)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Register a scanning-service source in the reverse-DNS oracle using the
/// convention `is_scanning_service` resolves: `<host>.<service>.scanner.example`.
pub fn register_service_rdns(rdns: &mut ReverseDns, addr: Ipv4Addr, service: &str) {
    let slug: String = service
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    rdns.register(
        addr,
        &format!("probe-{}.{}.scanner.example", u32::from(addr), slug),
        ofh_intel::rdns::DomainInfo::default(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::SimTime;

    fn event(src: &str, honeypot: &'static str, t: u64, kind: EventKind) -> AttackEvent {
        AttackEvent {
            time: SimTime(t),
            honeypot,
            protocol: Protocol::Telnet,
            src: src.parse().unwrap(),
            src_port: 5555,
            kind,
        }
    }

    #[test]
    fn merge_sorts_by_time() {
        let ds = AttackDataset::merge(vec![
            vec![event("1.1.1.1", "Cowrie", 50, EventKind::Connection)],
            vec![event("2.2.2.2", "HosTaGe", 10, EventKind::Connection)],
        ]);
        assert_eq!(ds.len(), 2);
        assert!(ds.events[0].time < ds.events[1].time);
        assert_eq!(ds.sources().len(), 2);
    }

    #[test]
    fn scanning_service_by_rdns() {
        let mut rdns = ReverseDns::new();
        register_service_rdns(&mut rdns, "9.9.9.9".parse().unwrap(), "Shodan");
        let ds = AttackDataset::merge(vec![vec![event(
            "9.9.9.9",
            "Cowrie",
            1,
            EventKind::Connection,
        )]]);
        assert_eq!(
            ds.classify_source(&rdns, "Cowrie", "9.9.9.9".parse().unwrap()),
            SourceClass::ScanningService
        );
    }

    #[test]
    fn malicious_by_behaviour_unknown_otherwise() {
        let rdns = ReverseDns::new();
        let ds = AttackDataset::merge(vec![vec![
            event("3.3.3.3", "Cowrie", 1, EventKind::Connection),
            event(
                "3.3.3.3",
                "Cowrie",
                2,
                EventKind::LoginAttempt {
                    username: "admin".into(),
                    password: "admin".into(),
                    success: false,
                },
            ),
            event("4.4.4.4", "Cowrie", 3, EventKind::Connection),
        ]]);
        assert_eq!(
            ds.classify_source(&rdns, "Cowrie", "3.3.3.3".parse().unwrap()),
            SourceClass::Malicious
        );
        assert_eq!(
            ds.classify_source(&rdns, "Cowrie", "4.4.4.4".parse().unwrap()),
            SourceClass::Unknown
        );
    }

    #[test]
    fn flood_detected_by_rate() {
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push(event(
                "5.5.5.5",
                "U-Pot",
                1_000 + i * 100, // all within one minute
                EventKind::Datagram { len: 64 },
            ));
        }
        let ds = AttackDataset::merge(vec![events]);
        assert_eq!(ds.dos_source_count(), 1);
        assert_eq!(ds.attack_type(&ds.events[0]), AttackType::Dos);
        // Slow drip from another source is scanning, not DoS.
        let slow: Vec<AttackEvent> = (0..10u64)
            .map(|i| event("6.6.6.6", "U-Pot", i * 120_000, EventKind::Datagram { len: 64 }))
            .collect();
        let ds2 = AttackDataset::merge(vec![slow]);
        assert_eq!(ds2.attack_type(&ds2.events[0]), AttackType::Scanning);
    }

    #[test]
    fn attack_typing() {
        let ds = AttackDataset::merge(vec![]);
        let cases: Vec<(EventKind, AttackType)> = vec![
            (
                EventKind::LoginAttempt {
                    username: "a".into(),
                    password: "b".into(),
                    success: false,
                },
                AttackType::BruteForce,
            ),
            (
                EventKind::PayloadDrop { payload: vec![1], url: None },
                AttackType::MalwareDeployment,
            ),
            (
                EventKind::Command { line: "wget http://x/m".into() },
                AttackType::MalwareDeployment,
            ),
            (EventKind::DataWrite { target: "t".into() }, AttackType::DataPoisoning),
            (
                EventKind::ExploitSignature { name: "x".into() },
                AttackType::Exploit,
            ),
            (EventKind::HttpRequest { path: "/".into() }, AttackType::Scraping),
            (EventKind::Discovery, AttackType::Scanning),
        ];
        for (kind, expect) in cases {
            let e = event("8.8.8.8", "HosTaGe", 0, kind);
            assert_eq!(ds.attack_type(&e), expect);
        }
    }
}
