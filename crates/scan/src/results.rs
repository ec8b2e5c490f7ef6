//! Scan-result datasets.
//!
//! A [`HostRecord`] is what one responsive (address, port) pair produced;
//! a [`ScanResults`] is the per-source dataset (our ZMap scan, the Sonar
//! index, the Shodan index) with the counting and correlation operations
//! §3.1.3 and §4.1 perform on them.
//!
//! Scan responses repeat heavily (a device model answers every probe with
//! the same banner), so a record does not own its response: it shares one
//! immutable `Banner` per distinct (protocol, raw bytes) with every other
//! record of its dataset that received the same bytes. The banner carries
//! the Table 2/3 and ZTag labels, computed once when the dataset first sees
//! the response.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

use ofh_devices::{DeviceProfile, Misconfig};
use ofh_net::FastMap;
use ofh_wire::Protocol;
use serde::{value, DeError, Deserialize, Serialize, Value};

use crate::classify::classify_response;
use crate::probe::normalize_response;
use crate::ztag;

/// One scan response and its labels. Immutable: the labels are a pure
/// function of (protocol, text), set once by the constructor.
#[derive(Debug, PartialEq, Eq)]
struct Banner {
    /// Normalized banner/response text (what goes into "the database").
    text: String,
    /// Raw response bytes as received. Honeypot fingerprinting matches
    /// signatures against these — several Table 6 signatures are IAC byte
    /// sequences that normalization strips.
    raw: Arc<[u8]>,
    /// The Table 2/3 classifier's verdict on `text`.
    misconfig: Option<Misconfig>,
    /// The ZTag device tagger's verdict on `text`.
    device: Option<&'static DeviceProfile>,
}

impl Banner {
    fn new(protocol: Protocol, text: String, raw: Arc<[u8]>) -> Banner {
        Banner {
            misconfig: classify_response(protocol, &text),
            device: ztag::tag_device(protocol, &text),
            text,
            raw,
        }
    }
}

/// One responsive host as recorded by a scan: the (address, port) probed,
/// the protocol spoken there, and the response with its labels.
///
/// The response is shared, not owned: records that received the same bytes
/// over the same protocol point at one `Banner` (see
/// [`ScanResults::record`]), so `misconfig()` and `device()` read labels
/// computed once per distinct response and can never disagree with
/// `response()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRecord {
    pub addr: Ipv4Addr,
    pub port: u16,
    pub protocol: Protocol,
    banner: Arc<Banner>,
}

impl HostRecord {
    /// A record over a banner of its own, labelled from `response`. `raw`
    /// is kept as given and not normalized: this is how fixtures and
    /// imported rows state a record. A scan builds its records with
    /// [`ScanResults::record`] instead.
    pub fn new(
        addr: Ipv4Addr,
        port: u16,
        protocol: Protocol,
        response: impl Into<String>,
        raw: impl Into<Arc<[u8]>>,
    ) -> HostRecord {
        let banner = Banner::new(protocol, response.into(), raw.into());
        HostRecord {
            addr,
            port,
            protocol,
            banner: Arc::new(banner),
        }
    }

    /// Normalized banner/response text (what goes into "the database").
    pub fn response(&self) -> &str {
        &self.banner.text
    }

    /// Raw response bytes as received.
    pub fn raw(&self) -> &[u8] {
        &self.banner.raw
    }

    /// The Table 2/3 classifier's verdict on the response.
    pub fn misconfig(&self) -> Option<Misconfig> {
        self.banner.misconfig
    }

    /// The ZTag device tagger's verdict on the response.
    pub fn device(&self) -> Option<&'static DeviceProfile> {
        self.banner.device
    }
}

/// A record's JSON is `addr, port, protocol, response, raw`, in that order;
/// the labels are not serialized, since they follow from the response.
impl Serialize for HostRecord {
    fn to_value(&self) -> Value {
        let field = |name: &str, v: Value| (Value::Str(name.into()), v);
        Value::Map(vec![
            field("addr", self.addr.to_value()),
            field("port", self.port.to_value()),
            field("protocol", self.protocol.to_value()),
            field("response", self.response().to_value()),
            field("raw", self.raw().to_value()),
        ])
    }
}

/// Rebuilds the labels from the response through [`HostRecord::new`]. A
/// missing `raw` reads as empty.
impl Deserialize for HostRecord {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map().ok_or_else(|| value::type_err("map", v, "HostRecord"))?;
        let field = |name: &str| {
            value::get(m, name)
                .ok_or_else(|| DeError::custom(format!("HostRecord: missing field `{name}`")))
        };
        let raw = match value::get(m, "raw") {
            Some(x) => Vec::<u8>::from_value(x)?,
            None => Vec::new(),
        };
        Ok(HostRecord::new(
            Ipv4Addr::from_value(field("addr")?)?,
            u16::from_value(field("port")?)?,
            Protocol::from_value(field("protocol")?)?,
            String::from_value(field("response")?)?,
            raw,
        ))
    }
}

/// A scan-result dataset from one source.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScanResults {
    /// Source label ("ZMap Scan", "Project Sonar", "Shodan").
    pub source: String,
    /// Records keyed by (address, port) for deterministic iteration.
    pub records: BTreeMap<(Ipv4Addr, u16), HostRecord>,
    /// The banners [`Self::record`] has built, by protocol and raw bytes.
    /// Only looked up, never iterated, so its order cannot reach an output.
    /// The keys are responses of simulated hosts, which the fast hasher is
    /// meant for.
    #[serde(skip)]
    interned: FastMap<Protocol, FastMap<Arc<[u8]>, Arc<Banner>>>,
}

impl ScanResults {
    pub fn new(source: impl Into<String>) -> Self {
        ScanResults {
            source: source.into(),
            ..ScanResults::default()
        }
    }

    pub fn insert(&mut self, record: HostRecord) {
        self.records.insert((record.addr, record.port), record);
    }

    /// Record the response `raw` that (addr, port) gave over `protocol`.
    ///
    /// The dataset interns responses by (protocol, raw bytes): the first
    /// time it sees a response it normalizes it
    /// ([`normalize_response`]), classifies it (Tables 2/3) and tags it
    /// (ZTag) once; every later record of the same bytes over the same
    /// protocol shares that banner, at the cost of one hash lookup. The
    /// protocol is part of the key because the same bytes label
    /// differently per protocol (`$ ` is an open Telnet console and
    /// nothing over XMPP). The record equals
    /// `HostRecord::new(addr, port, protocol, normalize_response(protocol, raw), raw)`.
    pub fn record(&mut self, addr: Ipv4Addr, port: u16, protocol: Protocol, raw: &[u8]) {
        let by_raw = self.interned.entry(protocol).or_default();
        let banner = match by_raw.get(raw) {
            Some(banner) => Arc::clone(banner),
            None => {
                let raw: Arc<[u8]> = raw.into();
                let text = normalize_response(protocol, &raw);
                let banner = Arc::new(Banner::new(protocol, text, Arc::clone(&raw)));
                by_raw.insert(raw, Arc::clone(&banner));
                banner
            }
        };
        self.insert(HostRecord {
            addr,
            port,
            protocol,
            banner,
        });
    }

    /// Merge per-shard datasets of one source. Collecting the concatenated
    /// parts builds the map in bulk (`BTreeMap`'s `FromIterator` stable-sorts
    /// the sorted shard runs once, then builds the tree from the sorted
    /// sequence) instead of inserting record by record. The parts' key sets
    /// must be disjoint: a shard only probes the addresses it owns.
    ///
    /// Records keep the banners their shard interned: the merged dataset
    /// holds one banner per distinct response *per shard*, already
    /// labelled, and starts with an empty intern table of its own.
    pub fn merge(source: impl Into<String>, parts: impl IntoIterator<Item = ScanResults>) -> Self {
        let parts: Vec<ScanResults> = parts.into_iter().collect();
        let total: usize = parts.iter().map(ScanResults::len).sum();
        let records: BTreeMap<_, _> = parts.into_iter().flat_map(|p| p.records).collect();
        debug_assert_eq!(records.len(), total, "an (addr, port) key appears in two parts");
        ScanResults {
            source: source.into(),
            records,
            ..ScanResults::default()
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
        HostRecord::new(addr.parse().unwrap(), port, proto, response, response.as_bytes())
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
        assert_eq!(rs.exposed_hosts(Protocol::Mqtt), 1);
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
