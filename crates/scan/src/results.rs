//! Scan-result datasets.
//!
//! A [`HostRecord`] is what one responsive (address, port) pair produced;
//! a [`ScanResults`] is the per-source dataset (our ZMap scan, the Sonar
//! index, the Shodan index) with the counting and correlation operations
//! §3.1.3 and §4.1 perform on them.
//!
//! A scan fills a [`ScanCapture`]: one push per response, in arrival order.
//! [`ScanCapture::seal`] sorts the capture once into a `ScanResults`, whose
//! records are sorted by (address, port), one per key, from then on.
//!
//! Scan responses repeat heavily (a device model answers every probe with
//! the same banner), so a record does not own its response: it shares one
//! immutable `Banner` per distinct (protocol, raw bytes) with every other
//! record of its capture that received the same bytes. The banner carries
//! the Table 2/3 and ZTag labels, computed once per distinct label input
//! (see [`ScanCapture::record`]).

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

use ofh_devices::{DeviceProfile, Misconfig};
use ofh_net::FastMap;
use ofh_wire::coap::Message;
use ofh_wire::Protocol;
use serde::{value, DeError, Deserialize, Serialize, Value};

use crate::classify::classify_response;
use crate::probe::normalize_response;
use crate::ztag;

/// What the tables read of a response: its normalized text and the labels
/// of that text. A pure function of (protocol, text), so records whose raw
/// bytes differ only where the text does not look may share one.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Labels {
    /// Normalized banner/response text (what goes into "the database").
    text: Arc<str>,
    /// The Table 2/3 classifier's verdict on `text`.
    misconfig: Option<Misconfig>,
    /// The ZTag device tagger's verdict on `text`.
    device: Option<&'static DeviceProfile>,
}

impl Labels {
    fn new(protocol: Protocol, text: String) -> Labels {
        Labels {
            misconfig: classify_response(protocol, &text),
            device: ztag::tag_device(protocol, &text),
            text: text.into(),
        }
    }
}

/// One scan response and its labels. Immutable.
#[derive(Debug, PartialEq, Eq)]
struct Banner {
    /// Raw response bytes as received. Honeypot fingerprinting matches
    /// signatures against these — several Table 6 signatures are IAC byte
    /// sequences that normalization strips — and the scan export writes
    /// them.
    raw: Arc<[u8]>,
    labels: Labels,
}

/// One responsive host as recorded by a scan: the (address, port) probed,
/// the protocol spoken there, and the response with its labels. 16 bytes.
///
/// The response is shared, not owned: records that received the same bytes
/// over the same protocol point at one `Banner` (see
/// [`ScanCapture::record`]), so `misconfig()` and `device()` read labels
/// computed once per distinct response and can never disagree with
/// `response()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRecord {
    pub addr: Ipv4Addr,
    pub port: u16,
    pub protocol: Protocol,
    banner: Arc<Banner>,
}

/// The sort key of (addr, port): the address in the high bits, so keys
/// order as the (address, port) pairs do.
fn key(addr: Ipv4Addr, port: u16) -> u64 {
    u64::from(u32::from(addr)) << 16 | u64::from(port)
}

impl HostRecord {
    /// A record over a banner of its own, labelled from `response`. `raw`
    /// is kept as given and not normalized: this is how fixtures and
    /// imported rows state a record. A scan builds its records with
    /// [`ScanCapture::record`] instead.
    pub fn new(
        addr: Ipv4Addr,
        port: u16,
        protocol: Protocol,
        response: impl Into<String>,
        raw: impl Into<Arc<[u8]>>,
    ) -> HostRecord {
        let banner = Banner {
            raw: raw.into(),
            labels: Labels::new(protocol, response.into()),
        };
        HostRecord {
            addr,
            port,
            protocol,
            banner: Arc::new(banner),
        }
    }

    fn key(&self) -> u64 {
        key(self.addr, self.port)
    }

    /// Normalized banner/response text (what goes into "the database").
    pub fn response(&self) -> &str {
        &self.banner.labels.text
    }

    /// Raw response bytes as received.
    pub fn raw(&self) -> &[u8] {
        &self.banner.raw
    }

    /// The Table 2/3 classifier's verdict on the response.
    pub fn misconfig(&self) -> Option<Misconfig> {
        self.banner.labels.misconfig
    }

    /// The ZTag device tagger's verdict on the response.
    pub fn device(&self) -> Option<&'static DeviceProfile> {
        self.banner.labels.device
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

/// A scan's responses as they arrive, before [`ScanCapture::seal`] sorts
/// them into a [`ScanResults`].
#[derive(Debug, Default)]
pub struct ScanCapture {
    source: String,
    /// In arrival order; a key may repeat (fault duplicates).
    records: Vec<HostRecord>,
    /// The banners [`Self::record`] has built, per protocol (by
    /// discriminant) by raw bytes. The tables are only looked up, never
    /// iterated, so their order cannot reach an output. The keys are
    /// responses of simulated hosts, which the fast hasher is meant for.
    banners: [FastMap<Arc<[u8]>, Arc<Banner>>; Protocol::ALL.len()],
    /// CoAP labels by [`coap_label_key`].
    coap_labels: FastMap<Box<[u8]>, Labels>,
    /// Scratch buffer for the label key.
    key: Vec<u8>,
}

/// The bytes a CoAP response's labels depend on: `raw` with the message id
/// zeroed. A reply echoes its probe's message id, so every response of a
/// scan has raw bytes of its own, but its text (code, payload and link
/// format) never reads the id, and neither does whether it decodes.
fn coap_label_key<'a>(raw: &[u8], buf: &'a mut Vec<u8>) -> &'a [u8] {
    buf.clear();
    buf.extend_from_slice(raw);
    if let Some(id) = buf.get_mut(Message::MESSAGE_ID_RANGE) {
        id.fill(0);
    }
    buf
}

impl ScanCapture {
    pub fn new(source: impl Into<String>) -> Self {
        ScanCapture {
            source: source.into(),
            ..ScanCapture::default()
        }
    }

    /// Responses recorded so far, repeats included.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record the response `raw` that (addr, port) gave over `protocol`:
    /// one push.
    ///
    /// The capture interns responses in two levels. The first keys a banner
    /// by (protocol, raw bytes): records of the same bytes over the same
    /// protocol share one banner and one raw buffer, at the cost of one
    /// hash lookup. The protocol is part of the key because the same bytes
    /// label differently per protocol (`$ ` is an open Telnet console and
    /// nothing over XMPP). On a miss, the second level shares the labels:
    /// the response is normalized ([`normalize_response`]), classified
    /// (Tables 2/3) and tagged (ZTag) once per distinct label input. For
    /// CoAP that input is [`coap_label_key`], so the labels are built once
    /// per listing rather than once per echoed message id; for every other
    /// protocol it is the raw bytes themselves, which the first level
    /// already keys. The record equals
    /// `HostRecord::new(addr, port, protocol, normalize_response(protocol, raw), raw)`.
    pub fn record(&mut self, addr: Ipv4Addr, port: u16, protocol: Protocol, raw: &[u8]) {
        let banners = &mut self.banners[protocol as usize];
        let banner = match banners.get(raw) {
            Some(banner) => Arc::clone(banner),
            None => {
                let label = || Labels::new(protocol, normalize_response(protocol, raw));
                let labels = match protocol {
                    Protocol::Coap => {
                        let key = coap_label_key(raw, &mut self.key);
                        match self.coap_labels.get(key) {
                            Some(labels) => labels.clone(),
                            None => {
                                let labels = label();
                                self.coap_labels.insert(key.into(), labels.clone());
                                labels
                            }
                        }
                    }
                    _ => label(),
                };
                let raw: Arc<[u8]> = raw.into();
                let banner = Arc::new(Banner {
                    raw: Arc::clone(&raw),
                    labels,
                });
                banners.insert(raw, Arc::clone(&banner));
                banner
            }
        };
        self.records.push(HostRecord {
            addr,
            port,
            protocol,
            banner,
        });
    }

    /// The dataset of what was captured: one stable sort by (address,
    /// port). Where a key repeats, the last record captured wins, as a
    /// map insert would have it.
    pub fn seal(self) -> ScanResults {
        ScanResults::sealed(self.source, self.records)
    }
}

/// A dataset's records, sorted by (address, port) with one record per key,
/// so iteration is deterministic and a host's records are adjacent. Outside
/// this module it is a read-only slice, so that order holds by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedRecords(Vec<HostRecord>);

impl std::ops::Deref for SortedRecords {
    type Target = [HostRecord];

    fn deref(&self) -> &[HostRecord] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a SortedRecords {
    type Item = &'a HostRecord;
    type IntoIter = std::slice::Iter<'a, HostRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A scan-result dataset from one source.
#[derive(Debug, Clone, Default)]
pub struct ScanResults {
    /// Source label ("ZMap Scan", "Project Sonar", "Shodan").
    pub source: String,
    /// The records, by (address, port).
    pub records: SortedRecords,
}

impl ScanResults {
    pub fn new(source: impl Into<String>) -> Self {
        ScanResults {
            source: source.into(),
            records: SortedRecords::default(),
        }
    }

    /// `records` in (address, port) order, the last of each key kept.
    fn sealed(source: String, mut records: Vec<HostRecord>) -> Self {
        records.sort_by_key(HostRecord::key);
        records.dedup_by(|later, kept| {
            let same = later.key() == kept.key();
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        ScanResults {
            source,
            records: SortedRecords(records),
        }
    }

    /// Add a record, replacing the one at its (address, port) if any: the
    /// fixture form of [`ScanCapture::record`] then [`ScanCapture::seal`].
    pub fn insert(&mut self, record: HostRecord) {
        let records = &mut self.records.0;
        match records.binary_search_by_key(&record.key(), HostRecord::key) {
            Ok(i) => records[i] = record,
            Err(i) => records.insert(i, record),
        }
    }

    /// The record at (addr, port), by binary search.
    pub fn get(&self, addr: Ipv4Addr, port: u16) -> Option<&HostRecord> {
        let i = self.records.binary_search_by_key(&key(addr, port), HostRecord::key).ok()?;
        Some(&self.records[i])
    }

    /// Merge per-shard datasets of one source into one vector of exact
    /// size, with one sort on the `u64` key. The parts' key sets must be
    /// disjoint (a shard only probes the addresses it owns), so the keys
    /// are unique and an unstable sort gives the one order there is; it
    /// also measured a little faster than a stable sort over the parts'
    /// sorted runs.
    ///
    /// Records keep the banners their shard interned: the merged dataset
    /// holds one banner per distinct response *per shard*, already
    /// labelled.
    pub fn merge(source: impl Into<String>, parts: impl IntoIterator<Item = ScanResults>) -> Self {
        let parts: Vec<ScanResults> = parts.into_iter().collect();
        let mut records = Vec::with_capacity(parts.iter().map(ScanResults::len).sum());
        for part in parts {
            records.extend(part.records.0);
        }
        records.sort_unstable_by_key(HostRecord::key);
        debug_assert!(
            records.windows(2).all(|w| w[0].key() < w[1].key()),
            "an (addr, port) key appears in two parts"
        );
        ScanResults {
            source: source.into(),
            records: SortedRecords(records),
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
            .iter()
            .filter(|r| r.protocol == protocol)
            .map(|r| r.addr)
            .collect()
    }

    /// Unique addresses classified into a given misconfiguration.
    pub fn misconfigured_addrs(&self, class: Misconfig) -> BTreeSet<Ipv4Addr> {
        self.records
            .iter()
            .filter(|r| r.misconfig() == Some(class))
            .map(|r| r.addr)
            .collect()
    }

    /// All misconfigured addresses across classes.
    pub fn all_misconfigured(&self) -> BTreeSet<Ipv4Addr> {
        self.records
            .iter()
            .filter(|r| r.misconfig().is_some())
            .map(|r| r.addr)
            .collect()
    }

    /// Remove every record whose address is in `filter` (the honeypot
    /// sanitization step). Returns how many records were dropped.
    pub fn remove_addrs(&mut self, filter: &BTreeSet<Ipv4Addr>) -> usize {
        let before = self.records.len();
        self.records.0.retain(|r| !filter.contains(&r.addr));
        before - self.records.len()
    }

    /// Export as JSON lines (the paper stores scan output in a database;
    /// we persist the same rows as JSONL).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&serde_json::to_string(r).expect("record serializes"));
            out.push('\n');
        }
        out
    }

    /// Import from JSON lines, sealed as a capture is: sorted, the last
    /// line of a repeated (address, port) kept.
    pub fn from_jsonl(source: &str, data: &str) -> Result<Self, serde_json::Error> {
        let records = data
            .lines()
            .filter(|line| !line.trim().is_empty())
            .map(serde_json::from_str)
            .collect::<Result<Vec<HostRecord>, _>>()?;
        Ok(ScanResults::sealed(source.into(), records))
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
    fn insert_and_get_keep_the_sort() {
        let mut rs = ScanResults::new("ZMap Scan");
        // Out of order, one key twice, two ports of one address, and an
        // address whose low octets would sort it last byte by byte.
        for (addr, port, response) in [
            ("10.0.0.9", 23, "a"),
            ("10.0.0.1", 2323, "b"),
            ("10.0.0.1", 23, "c"),
            ("10.0.0.200", 23, "d"),
            ("10.0.0.9", 23, "e"),
            ("9.255.255.255", 65535, "f"),
        ] {
            rs.insert(record(addr, port, Protocol::Telnet, response));
        }
        let keys: Vec<(Ipv4Addr, u16)> = rs.records.iter().map(|r| (r.addr, r.port)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(keys, sorted);
        assert_eq!(rs.len(), 5);
        let at = |addr: &str, port| rs.get(addr.parse().unwrap(), port).map(HostRecord::response);
        assert_eq!(at("10.0.0.9", 23), Some("e"), "the later insert replaces");
        assert_eq!(at("10.0.0.1", 2323), Some("b"));
        assert_eq!(at("9.255.255.255", 65535), Some("f"));
        assert_eq!(at("10.0.0.1", 24), None);
        assert_eq!(at("10.0.0.2", 23), None);
        for r in &rs.records {
            assert_eq!(rs.get(r.addr, r.port), Some(r));
        }
    }

    #[test]
    fn seal_sorts_and_keeps_the_last_of_a_key() {
        let mut capture = ScanCapture::new("Shodan");
        for (addr, raw) in [(3u32, "x"), (1, "y"), (3, "z"), (2, "w"), (3, "v")] {
            capture.record(Ipv4Addr::from(addr), 23, Protocol::Telnet, raw.as_bytes());
        }
        assert_eq!(capture.len(), 5);
        let sealed = capture.seal();
        assert_eq!(sealed.source, "Shodan");
        let rows: Vec<(u32, &[u8])> =
            sealed.records.iter().map(|r| (u32::from(r.addr), r.raw())).collect();
        assert_eq!(rows, [(1, &b"y"[..]), (2, b"w"), (3, b"v")]);
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
