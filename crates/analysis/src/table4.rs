//! Table 4 — exposed systems on the Internet by protocol and source.

use std::collections::BTreeSet;

use ofh_scan::ScanResults;
use ofh_wire::Protocol;
use serde::Serialize;

use crate::render::{thousands, Table};
use crate::rows::{ScanRow, ScanSource};

/// The paper's Table 4 values for side-by-side comparison.
pub fn paper_value(protocol: Protocol, source: &str) -> Option<u64> {
    let v = match (protocol, source) {
        (Protocol::Amqp, "ZMap Scan") => 34_542,
        (Protocol::Xmpp, "ZMap Scan") => 423_867,
        (Protocol::Coap, "ZMap Scan") => 618_650,
        (Protocol::Upnp, "ZMap Scan") => 1_381_940,
        (Protocol::Mqtt, "ZMap Scan") => 4_842_465,
        (Protocol::Telnet, "ZMap Scan") => 7_096_465,
        (Protocol::Coap, "Project Sonar") => 438_098,
        (Protocol::Upnp, "Project Sonar") => 395_331,
        (Protocol::Mqtt, "Project Sonar") => 3_921_585,
        (Protocol::Telnet, "Project Sonar") => 6_004_956,
        (Protocol::Amqp, "Shodan") => 18_701,
        (Protocol::Xmpp, "Shodan") => 315_861,
        (Protocol::Coap, "Shodan") => 590_740,
        (Protocol::Upnp, "Shodan") => 433_571,
        (Protocol::Mqtt, "Shodan") => 162_216,
        (Protocol::Telnet, "Shodan") => 188_291,
        _ => return None,
    };
    Some(v)
}

/// One Table 4 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    pub protocol: Protocol,
    pub zmap: u64,
    /// `None` = "NA" (Sonar has no AMQP/XMPP datasets).
    pub sonar: Option<u64>,
    pub shodan: u64,
}

/// The computed Table 4.
#[derive(Debug, Clone, Serialize)]
pub struct Table4 {
    pub rows: Vec<Table4Row>,
}

impl Table4 {
    /// [`Table4::fold`] over the three sources' datasets.
    pub fn compute(zmap: &ScanResults, sonar: &ScanResults, shodan: &ScanResults) -> Table4 {
        let none = BTreeSet::new();
        let sources = ScanSource::ALL.into_iter().zip([zmap, sonar, shodan]);
        Table4::fold(sources.flat_map(|(source, results)| ScanRow::of(source, results, &none)))
    }

    /// Unique responsive hosts per (source, protocol): a host counts once
    /// even if seen on two ports, e.g. Telnet 23+2323. One walk: the rows
    /// come in (source, addr) order, so one host's rows are adjacent and
    /// each (source, addr, protocol) is counted the first time it shows.
    pub fn fold(rows: impl IntoIterator<Item = ScanRow>) -> Table4 {
        // Indexed by discriminant; each `ALL` holds every variant.
        let mut counts = [[0u64; Protocol::ALL.len()]; ScanSource::ALL.len()];
        let mut host = None;
        let mut seen: Vec<Protocol> = Vec::new();
        for r in rows {
            if host != Some((r.source, r.addr)) {
                host = Some((r.source, r.addr));
                seen.clear();
            }
            if !seen.contains(&r.protocol) {
                seen.push(r.protocol);
                counts[r.source as usize][r.protocol as usize] += 1;
            }
        }
        let count = |source: ScanSource, p: Protocol| counts[source as usize][p as usize];
        // Table 4 is ordered ascending by the ZMap column.
        let mut rows: Vec<Table4Row> = Protocol::SCANNED
            .iter()
            .map(|&p| Table4Row {
                protocol: p,
                zmap: count(ScanSource::ZMap, p),
                sonar: ofh_scan::datasets::sonar_coverage(p).map(|_| count(ScanSource::Sonar, p)),
                shodan: count(ScanSource::Shodan, p),
            })
            .collect();
        rows.sort_by_key(|r| r.zmap);
        Table4 { rows }
    }

    pub fn total_zmap(&self) -> u64 {
        self.rows.iter().map(|r| r.zmap).sum()
    }

    pub fn row(&self, protocol: Protocol) -> &Table4Row {
        self.rows
            .iter()
            .find(|r| r.protocol == protocol)
            .expect("all scanned protocols present")
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 4: #Exposed systems on the Internet by protocol and source",
            &["Protocol", "ZMap Scan", "Project Sonar", "Shodan"],
        );
        for r in &self.rows {
            t.row(&[
                r.protocol.name().into(),
                thousands(r.zmap),
                r.sonar.map(thousands).unwrap_or_else(|| "NA".into()),
                thousands(r.shodan),
            ]);
        }
        t.row(&[
            "Total".into(),
            thousands(self.total_zmap()),
            thousands(self.rows.iter().filter_map(|r| r.sonar).sum()),
            thousands(self.rows.iter().map(|r| r.shodan).sum()),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_scan::HostRecord;

    fn results(source: &str, counts: &[(Protocol, usize)]) -> ScanResults {
        let mut rs = ScanResults::new(source);
        let mut next = 0x1000_0000u32;
        for &(proto, n) in counts {
            for _ in 0..n {
                rs.insert(HostRecord::new(
                    std::net::Ipv4Addr::from(next),
                    proto.port(),
                    proto,
                    "x",
                    Vec::new(),
                ));
                next += 1;
            }
        }
        rs
    }

    #[test]
    fn computes_and_orders_rows() {
        let mut zmap = results(
            "ZMap Scan",
            &[(Protocol::Telnet, 70), (Protocol::Mqtt, 48), (Protocol::Amqp, 3)],
        );
        // A host seen on a second Telnet port counts once.
        let first = zmap.records[0].addr;
        zmap.insert(HostRecord::new(first, 2323, Protocol::Telnet, "x", Vec::new()));
        let sonar = results("Project Sonar", &[(Protocol::Telnet, 60)]);
        let shodan = results("Shodan", &[(Protocol::Telnet, 2)]);
        let t4 = Table4::compute(&zmap, &sonar, &shodan);
        assert_eq!(t4.rows.last().unwrap().protocol, Protocol::Telnet);
        assert_eq!(t4.row(Protocol::Telnet).zmap, 70);
        assert_eq!(t4.row(Protocol::Amqp).sonar, None);
        assert_eq!(t4.row(Protocol::Telnet).sonar, Some(60));
        let rendered = t4.render();
        assert!(rendered.contains("NA"));
        assert!(rendered.contains("Total"));
    }

    #[test]
    fn paper_values_present() {
        assert_eq!(paper_value(Protocol::Telnet, "ZMap Scan"), Some(7_096_465));
        assert_eq!(paper_value(Protocol::Amqp, "Project Sonar"), None);
    }
}
