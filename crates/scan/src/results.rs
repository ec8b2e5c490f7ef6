//! Scan-result datasets.
//!
//! A [`HostRecord`] is what one responsive (address, port) pair produced;
//! a [`ScanResults`] is the per-source dataset (our ZMap scan, the Sonar
//! index, the Shodan index) with the counting and correlation operations
//! §3.1.3 and §4.1 perform on them.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ofh_devices::Misconfig;
use ofh_wire::Protocol;
use serde::{Deserialize, Serialize};

use crate::classify::classify_response;
use crate::ztag;

/// One responsive host as recorded by a scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostRecord {
    pub addr: Ipv4Addr,
    pub port: u16,
    pub protocol: Protocol,
    /// Normalized banner/response text (what goes into "the database").
    pub response: String,
    /// Raw response bytes as received. Honeypot fingerprinting matches
    /// signatures against these — several Table 6 signatures are IAC byte
    /// sequences that normalization strips.
    #[serde(default)]
    pub raw: Vec<u8>,
}

impl HostRecord {
    /// Apply the Table 2/3 classifier.
    pub fn misconfig(&self) -> Option<Misconfig> {
        classify_response(self.protocol, &self.response)
    }

    /// Apply the ZTag device tagger.
    pub fn device(&self) -> Option<&'static ofh_devices::DeviceProfile> {
        ztag::tag_device(self.protocol, &self.response)
    }
}

/// A scan-result dataset from one source.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScanResults {
    /// Source label ("ZMap Scan", "Project Sonar", "Shodan").
    pub source: String,
    /// Records keyed by (address, port) for deterministic iteration.
    pub records: BTreeMap<(Ipv4Addr, u16), HostRecord>,
}

impl ScanResults {
    pub fn new(source: impl Into<String>) -> Self {
        ScanResults {
            source: source.into(),
            records: BTreeMap::new(),
        }
    }

    pub fn insert(&mut self, record: HostRecord) {
        self.records.insert((record.addr, record.port), record);
    }

    /// Merge per-shard datasets of one source. Collecting the concatenated
    /// parts builds the map in bulk (`BTreeMap`'s `FromIterator` stable-sorts
    /// the sorted shard runs once, then builds the tree from the sorted
    /// sequence) instead of inserting record by record. The parts' key sets
    /// must be disjoint: a shard only probes the addresses it owns.
    pub fn merge(source: impl Into<String>, parts: impl IntoIterator<Item = ScanResults>) -> Self {
        let parts: Vec<ScanResults> = parts.into_iter().collect();
        let total: usize = parts.iter().map(ScanResults::len).sum();
        let records: BTreeMap<_, _> = parts.into_iter().flat_map(|p| p.records).collect();
        debug_assert_eq!(records.len(), total, "an (addr, port) key appears in two parts");
        ScanResults {
            source: source.into(),
            records,
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Unique responsive hosts for a protocol (Table 4 cells: a host
    /// counts once even if seen on two ports, e.g. Telnet 23+2323).
    pub fn exposed_hosts(&self, protocol: Protocol) -> usize {
        self.unique_addrs(protocol).len()
    }

    /// [`Self::exposed_hosts`] for every protocol in one walk. Records are
    /// keyed by (address, port), so one host's records are adjacent and
    /// each (address, protocol) pair is counted the first time it shows.
    pub fn exposed_hosts_by_protocol(&self) -> BTreeMap<Protocol, usize> {
        let mut counts = BTreeMap::new();
        let mut host = None;
        let mut seen: Vec<Protocol> = Vec::new();
        for r in self.records.values() {
            if host != Some(r.addr) {
                host = Some(r.addr);
                seen.clear();
            }
            if !seen.contains(&r.protocol) {
                seen.push(r.protocol);
                *counts.entry(r.protocol).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The set of unique addresses responsive on a protocol.
    pub fn unique_addrs(&self, protocol: Protocol) -> BTreeSet<Ipv4Addr> {
        self.records
            .values()
            .filter(|r| r.protocol == protocol)
            .map(|r| r.addr)
            .collect()
    }

    /// Unique addresses classified into a given misconfiguration.
    pub fn misconfigured_addrs(&self, class: Misconfig) -> BTreeSet<Ipv4Addr> {
        self.records
            .values()
            .filter(|r| r.misconfig() == Some(class))
            .map(|r| r.addr)
            .collect()
    }

    /// All misconfigured addresses across classes.
    pub fn all_misconfigured(&self) -> BTreeSet<Ipv4Addr> {
        self.records
            .values()
            .filter(|r| r.misconfig().is_some())
            .map(|r| r.addr)
            .collect()
    }

    /// Remove every record whose address is in `filter` (the honeypot
    /// sanitization step). Returns how many records were dropped.
    pub fn remove_addrs(&mut self, filter: &BTreeSet<Ipv4Addr>) -> usize {
        let before = self.records.len();
        self.records.retain(|(addr, _), _| !filter.contains(addr));
        before - self.records.len()
    }

    /// Export as JSON lines (the paper stores scan output in a database;
    /// we persist the same rows as JSONL).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records.values() {
            out.push_str(&serde_json::to_string(r).expect("record serializes"));
            out.push('\n');
        }
        out
    }

    /// Import from JSON lines.
    pub fn from_jsonl(source: &str, data: &str) -> Result<Self, serde_json::Error> {
        let mut results = ScanResults::new(source);
        for line in data.lines() {
            if line.trim().is_empty() {
                continue;
            }
            results.insert(serde_json::from_str(line)?);
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(addr: &str, port: u16, proto: Protocol, response: &str) -> HostRecord {
        HostRecord {
            addr: addr.parse().unwrap(),
            port,
            protocol: proto,
            response: response.into(),
            raw: response.as_bytes().to_vec(),
        }
    }

    #[test]
    fn exposed_counts_unique_hosts_across_ports() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record("10.0.0.1", 23, Protocol::Telnet, "login:"));
        rs.insert(record("10.0.0.1", 2323, Protocol::Telnet, "login:"));
        rs.insert(record("10.0.0.2", 23, Protocol::Telnet, "$ "));
        rs.insert(record("10.0.0.2", 1883, Protocol::Mqtt, "MQTT Connection Code:0"));
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.exposed_hosts(Protocol::Telnet), 2);
        let by_protocol = rs.exposed_hosts_by_protocol();
        assert_eq!(by_protocol[&Protocol::Telnet], 2);
        assert_eq!(by_protocol[&Protocol::Mqtt], 1);
        assert_eq!(by_protocol.len(), 2);
    }

    #[test]
    fn misconfig_sets() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record("10.0.0.1", 23, Protocol::Telnet, "root@x:~$ "));
        rs.insert(record("10.0.0.2", 23, Protocol::Telnet, "login:"));
        rs.insert(record("10.0.0.3", 1883, Protocol::Mqtt, "MQTT Connection Code:0"));
        assert_eq!(rs.misconfigured_addrs(Misconfig::TelnetNoAuthRoot).len(), 1);
        assert_eq!(rs.all_misconfigured().len(), 2);
    }

    #[test]
    fn honeypot_filter_removes_records() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record("10.0.0.1", 23, Protocol::Telnet, "[root@LocalHost tmp]$\r\n$ "));
        rs.insert(record("10.0.0.2", 23, Protocol::Telnet, "$ "));
        let mut filter = BTreeSet::new();
        filter.insert("10.0.0.1".parse().unwrap());
        assert_eq!(rs.remove_addrs(&filter), 1);
        assert_eq!(rs.all_misconfigured().len(), 1);
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut rs = ScanResults::new("Shodan");
        rs.insert(record("10.0.0.9", 5683, Protocol::Coap, "CoAP 2.05\n/x\n"));
        let jsonl = rs.to_jsonl();
        let back = ScanResults::from_jsonl("Shodan", &jsonl).unwrap();
        assert_eq!(back.records, rs.records);
    }
}
