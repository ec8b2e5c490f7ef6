//! Typed rows: the columns Tables 4, 5 and 7 read.
//!
//! Each of those tables is one fold over rows (`Table4::fold`,
//! `Table5::fold`, `Table7::fold`). The live study yields the rows from its
//! datasets ([`ScanRow::of`], [`EventRow::of`]), and `ofh_store::tables`
//! decodes the same rows, in the same order, from a store's columns.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ofh_devices::Misconfig;
use ofh_honeypots::HoneypotKind;
use ofh_intel::ReverseDns;
use ofh_scan::ScanResults;
use ofh_wire::Protocol;

use crate::events::{AttackDataset, SourceClass};

/// The three scan-result sources, in Table 4's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScanSource {
    ZMap,
    Sonar,
    Shodan,
}

impl ScanSource {
    pub const ALL: [ScanSource; 3] = [ScanSource::ZMap, ScanSource::Sonar, ScanSource::Shodan];

    /// The dataset's label, as the study names it and the store spells it.
    pub const fn label(self) -> &'static str {
        match self {
            ScanSource::ZMap => "ZMap Scan",
            ScanSource::Sonar => "Project Sonar",
            ScanSource::Shodan => "Shodan",
        }
    }
}

/// One scan record, as Tables 4 and 5 read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRow {
    pub source: ScanSource,
    pub addr: Ipv4Addr,
    pub protocol: Protocol,
    pub misconfig: Option<Misconfig>,
    /// Whether the address is a confirmed honeypot (the §4.2 filter).
    pub hp_filtered: bool,
}

impl ScanRow {
    /// One source's rows, in record order: by (address, port), so a host's
    /// rows are adjacent.
    pub fn of<'a>(
        source: ScanSource,
        results: &'a ScanResults,
        honeypot_filter: &'a BTreeSet<Ipv4Addr>,
    ) -> impl Iterator<Item = ScanRow> + 'a {
        results.records.iter().map(move |r| ScanRow {
            source,
            addr: r.addr,
            protocol: r.protocol,
            misconfig: r.misconfig(),
            hp_filtered: honeypot_filter.contains(&r.addr),
        })
    }
}

/// One honeypot event, as Table 7 reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRow {
    pub honeypot: HoneypotKind,
    pub protocol: Protocol,
    pub src: Ipv4Addr,
    /// The class of (honeypot, src), the same on each of the pair's rows.
    pub src_class: SourceClass,
}

impl EventRow {
    /// The dataset's events on deployed honeypots in time order, each with
    /// its source's class.
    pub fn of<'a>(
        dataset: &'a AttackDataset,
        rdns: &'a ReverseDns,
    ) -> impl Iterator<Item = EventRow> + 'a {
        dataset.events.iter().filter_map(move |e| {
            Some(EventRow {
                honeypot: HoneypotKind::ALL.into_iter().find(|hp| hp.name() == e.honeypot)?,
                protocol: e.protocol,
                src: e.src,
                src_class: dataset.classify_source(rdns, e.honeypot, e.src),
            })
        })
    }
}
