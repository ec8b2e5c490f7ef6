//! Table 5 — misconfigured devices per protocol/vulnerability, after the
//! honeypot-sanitization filter.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ofh_devices::Misconfig;
use ofh_scan::ScanResults;
use serde::Serialize;

use crate::render::{thousands, Table};
use crate::rows::{ScanRow, ScanSource};

/// One Table 5 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table5Row {
    pub class: Misconfig,
    pub devices: u64,
}

/// The computed Table 5.
#[derive(Debug, Clone, Serialize)]
pub struct Table5 {
    pub rows: Vec<Table5Row>,
    pub total: u64,
    /// How many records the honeypot filter removed before counting.
    pub honeypots_filtered: usize,
}

impl Table5 {
    /// [`Table5::fold`] over the ZMap scan `results`, skipping
    /// `honeypot_filter` addresses (the §4.2 sanitization step).
    pub fn compute(results: &ScanResults, honeypot_filter: &BTreeSet<Ipv4Addr>) -> Table5 {
        Table5::fold(ScanRow::of(ScanSource::ZMap, results, honeypot_filter))
    }

    /// Unique misconfigured ZMap hosts per class, honeypot-filtered rows
    /// left out. One walk, reading each row's class: the rows come in
    /// (source, addr) order, so one host's rows are adjacent and each
    /// (addr, class) is counted the first time it shows, as is each
    /// misconfigured addr for the total.
    pub fn fold(rows: impl IntoIterator<Item = ScanRow>) -> Table5 {
        // Indexed by discriminant; `Misconfig::ALL` holds every variant.
        let mut per_class = [0u64; Misconfig::ALL.len()];
        let mut total = 0u64;
        let mut honeypots_filtered = 0usize;
        let mut host = None;
        let mut seen: Vec<Misconfig> = Vec::new();
        for r in rows {
            if r.source != ScanSource::ZMap {
                continue;
            }
            if r.hp_filtered {
                honeypots_filtered += 1;
                continue;
            }
            let Some(class) = r.misconfig else {
                continue;
            };
            if host != Some(r.addr) {
                host = Some(r.addr);
                seen.clear();
                total += 1;
            }
            if !seen.contains(&class) {
                seen.push(class);
                per_class[class as usize] += 1;
            }
        }
        let mut rows: Vec<Table5Row> = Misconfig::ALL
            .iter()
            .map(|&class| Table5Row {
                class,
                devices: per_class[class as usize],
            })
            .collect();
        // Table 5 is ordered ascending by count.
        rows.sort_by_key(|r| r.devices);
        Table5 {
            rows,
            total,
            honeypots_filtered,
        }
    }

    pub fn row(&self, class: Misconfig) -> &Table5Row {
        self.rows.iter().find(|r| r.class == class).expect("all classes present")
    }

    /// The misconfigured address set (input to the §5.3 join).
    pub fn misconfigured_addrs(
        results: &ScanResults,
        honeypot_filter: &BTreeSet<Ipv4Addr>,
    ) -> BTreeSet<Ipv4Addr> {
        results
            .records
            .iter()
            .filter(|r| !honeypot_filter.contains(&r.addr) && r.misconfig().is_some())
            .map(|r| r.addr)
            .collect()
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 5: Total misconfigured devices per protocol",
            &["Protocol", "Vulnerability", "#Devices found", "Paper"],
        );
        for r in &self.rows {
            t.row(&[
                r.class.protocol().name().into(),
                r.class.vulnerability().into(),
                thousands(r.devices),
                thousands(r.class.paper_count()),
            ]);
        }
        t.row(&[
            "".into(),
            "Total".into(),
            thousands(self.total),
            thousands(ofh_devices::misconfig::PAPER_TOTAL),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_scan::HostRecord;
    use ofh_wire::Protocol;

    fn record(addr: u32, proto: Protocol, response: &str) -> HostRecord {
        HostRecord::new(Ipv4Addr::from(addr), proto.port(), proto, response, response.as_bytes())
    }

    #[test]
    fn counts_and_filters() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record(1, Protocol::Telnet, "root@x:~$ "));
        rs.insert(record(2, Protocol::Telnet, "$ "));
        rs.insert(record(3, Protocol::Telnet, "login:"));
        rs.insert(record(4, Protocol::Mqtt, "MQTT Connection Code:0"));
        // A honeypot that would otherwise count as TelnetNoAuth.
        rs.insert(record(5, Protocol::Telnet, "[root@LocalHost tmp]$\r\n$ "));

        let mut filter = BTreeSet::new();
        filter.insert(Ipv4Addr::from(5u32));

        let t5 = Table5::compute(&rs, &filter);
        assert_eq!(t5.honeypots_filtered, 1);
        assert_eq!(t5.row(Misconfig::TelnetNoAuthRoot).devices, 1);
        assert_eq!(t5.row(Misconfig::TelnetNoAuth).devices, 1);
        assert_eq!(t5.row(Misconfig::MqttNoAuth).devices, 1);
        assert_eq!(t5.total, 3);

        // Without the filter, the honeypot poisons the count — the paper's
        // sanitization argument.
        let unfiltered = Table5::compute(&rs, &BTreeSet::new());
        assert_eq!(unfiltered.total, 4);
    }

    #[test]
    fn misconfigured_addr_set() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record(1, Protocol::Telnet, "root@x:~$ "));
        rs.insert(record(2, Protocol::Telnet, "login:"));
        let set = Table5::misconfigured_addrs(&rs, &BTreeSet::new());
        assert_eq!(set.len(), 1);
        assert!(set.contains(&Ipv4Addr::from(1u32)));
    }
}
