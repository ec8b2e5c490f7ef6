//! The telescope tap: captures observations into minute-binned FlowTuple
//! files.

use std::collections::BTreeMap;
use std::sync::Arc;

use ofh_intel::GeoDb;
use ofh_net::sim::FlowTap;
use ofh_net::FlowObservation;

use crate::flowtuple::FlowTuple;

/// The `telescope.flow` labels, in the order `Telescope::obs_flows` counts.
const TRANSPORTS: [&str; 2] = ["tcp", "udp"];

/// The telescope: attach as a [`FlowTap`] over the universe's dark space.
///
/// Records are grouped into per-minute files ("the files are stored on a
/// minute basis, and hence there are 1,440 files generated per day", §3.4).
pub struct Telescope {
    /// minute index -> records in that minute.
    minutes: BTreeMap<u64, Vec<FlowTuple>>,
    /// Read-only annotation source, shared by every tap of a sharded study.
    geo: Arc<GeoDb>,
    total: u64,
    /// Flows observed per transport (TCP, UDP) and their IP lengths,
    /// tallied here and folded into the metrics by [`Telescope::flush_obs`].
    obs_flows: [u64; 2],
    obs_ip_len: ofh_obs::Histogram,
}

impl Telescope {
    /// A telescope annotating flows from `geo`. Pass an `Arc` to share one
    /// database between many taps, or a plain [`GeoDb`] for a private one.
    pub fn new(geo: impl Into<Arc<GeoDb>>) -> Telescope {
        Telescope {
            minutes: BTreeMap::new(),
            geo: geo.into(),
            total: 0,
            obs_flows: [0; 2],
            obs_ip_len: ofh_obs::Histogram::default(),
        }
    }

    /// Fold the flow tallies into the installed metrics as
    /// `telescope.flow{transport}` and `telescope.ip_len`, and reset them.
    /// Call once capture is over, while the shard's observability target
    /// is still installed. A transport with no flow records nothing.
    pub fn flush_obs(&mut self) {
        for (transport, flows) in TRANSPORTS.into_iter().zip(self.obs_flows) {
            if flows > 0 {
                ofh_obs::count_l("telescope.flow", transport, flows);
            }
        }
        ofh_obs::observe_hist("telescope.ip_len", &self.obs_ip_len);
        self.obs_flows = [0; 2];
        self.obs_ip_len = ofh_obs::Histogram::default();
    }

    /// Total records captured.
    pub fn total_records(&self) -> u64 {
        self.total
    }

    /// Number of non-empty minute files.
    pub fn minute_file_count(&self) -> usize {
        self.minutes.len()
    }

    /// Records of one minute file.
    pub fn minute_file(&self, minute: u64) -> &[FlowTuple] {
        self.minutes.get(&minute).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate all records in time order.
    pub fn records(&self) -> impl Iterator<Item = &FlowTuple> {
        self.minutes.values().flatten()
    }

    /// Minute files in a half-open day range [from_day, to_day).
    pub fn records_in_days(&self, from_day: u64, to_day: u64) -> impl Iterator<Item = &FlowTuple> {
        let from = from_day * 1_440;
        let to = to_day * 1_440;
        self.minutes
            .range(from..to)
            .flat_map(|(_, recs)| recs.iter())
    }

    /// Merge per-shard captures, in shard order, into one. Every shard's
    /// records are appended to their minute files and each file is then
    /// stable-sorted once by the flow key (time, addresses, ports,
    /// protocol). Records that tie on the key keep shard order, then
    /// capture order, so the merged capture is a pure function of the parts
    /// and their order. The merged telescope only serves reads; its geo
    /// database is empty and the parts' databases are released.
    pub fn merge(parts: impl IntoIterator<Item = Telescope>) -> Telescope {
        let mut merged = Telescope::new(GeoDb::new());
        for part in parts {
            merged.total += part.total;
            for (minute, mut recs) in part.minutes {
                merged.minutes.entry(minute).or_default().append(&mut recs);
            }
        }
        for file in merged.minutes.values_mut() {
            file.sort_by_key(|r| (r.time, r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.protocol));
        }
        merged
    }

    /// Export one minute file as JSON lines (CAIDA's FlowTuple v4 is JSON).
    pub fn minute_file_jsonl(&self, minute: u64) -> String {
        let mut out = String::new();
        for r in self.minute_file(minute) {
            out.push_str(&serde_json::to_string(r).expect("flowtuple serializes"));
            out.push('\n');
        }
        out
    }
}

impl FlowTap for Telescope {
    fn observe(&mut self, obs: &FlowObservation) {
        let tally = match obs.transport {
            ofh_net::Transport::Tcp => 0,
            ofh_net::Transport::Udp => 1,
        };
        let transport = TRANSPORTS[tally];
        self.obs_flows[tally] += 1;
        self.obs_ip_len.record(obs.ip_len as u64);
        ofh_obs::span(
            "telescope.flow",
            transport,
            obs.time.0,
            obs.time.0,
            u32::from(obs.src),
            u32::from(obs.dst),
            obs.dst_port,
            obs.ip_len as u32,
        );
        let (country, asn) = self.geo.lookup(obs.src);
        let ft = FlowTuple::from_observation(obs, country.code(), asn);
        self.minutes.entry(obs.time.minute_index()).or_default().push(ft);
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, FlowKind, SimTime, Transport};

    fn obs_at(t: u64, dst_port: u16) -> FlowObservation {
        FlowObservation {
            time: SimTime(t),
            src: ip(1, 2, 3, 4),
            dst: ip(16, 0, 0, 9),
            src_port: 40_000,
            dst_port,
            transport: Transport::Tcp,
            kind: FlowKind::TcpSyn,
            ttl: 40,
            tcp_flags: FlowObservation::SYN,
            tcp_window: 65_535,
            ip_len: 60,
            payload: Default::default(),
            spoofed: false,
        }
    }

    #[test]
    fn minute_binning() {
        let mut t = Telescope::new(GeoDb::new());
        t.observe(&obs_at(10_000, 23)); // minute 0
        t.observe(&obs_at(59_999, 23)); // minute 0
        t.observe(&obs_at(60_000, 1883)); // minute 1
        t.observe(&obs_at(86_400_000 + 5, 5683)); // day 1, minute 1440
        assert_eq!(t.total_records(), 4);
        assert_eq!(t.minute_file_count(), 3);
        assert_eq!(t.minute_file(0).len(), 2);
        assert_eq!(t.minute_file(1).len(), 1);
        assert_eq!(t.minute_file(1_440).len(), 1);
        assert_eq!(t.records_in_days(0, 1).count(), 3);
        assert_eq!(t.records_in_days(1, 2).count(), 1);
    }

    #[test]
    fn jsonl_export() {
        let mut t = Telescope::new(GeoDb::new());
        t.observe(&obs_at(0, 23));
        let jsonl = t.minute_file_jsonl(0);
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"dst_port\":23"));
    }

    #[test]
    fn merge_sorts_each_minute_file() {
        // Split one observation stream across two telescopes and merge
        // them: the minute files come out in flow-key order, and ties keep
        // shard order.
        let mut late_port = obs_at(20_000, 1883);
        late_port.src_port = 50_000;
        let mut tie = obs_at(10_000, 23);
        tie.ttl = 99;
        let all = [late_port, obs_at(20_000, 1883), obs_at(70_000, 23), obs_at(10_000, 23), tie];
        let split = |idx: &[usize]| {
            let mut t = Telescope::new(GeoDb::new());
            for &i in idx {
                t.observe(&all[i]);
            }
            t
        };
        let t = Telescope::merge([split(&[0, 2, 4]), split(&[1, 3])]);
        assert_eq!(t.total_records(), 5);
        assert_eq!(t.minute_file_count(), 2);
        let minute0: Vec<(u64, u16, u8)> = t
            .minute_file(0)
            .iter()
            .map(|r| (r.time.0, r.src_port, r.ttl))
            .collect();
        assert_eq!(
            minute0,
            [(10_000, 40_000, 99), (10_000, 40_000, 40), (20_000, 40_000, 40), (20_000, 50_000, 40)]
        );
        assert_eq!(t.minute_file(1).len(), 1);
    }

    #[test]
    fn geo_metadata_applied() {
        let mut geo = GeoDb::new();
        geo.allocate_slash16(ip(1, 2, 0, 0), ofh_intel::Country::Germany, 3320);
        let mut t = Telescope::new(geo);
        t.observe(&obs_at(0, 23));
        let rec = &t.minute_file(0)[0];
        assert_eq!(rec.country.as_str(), "DE");
        assert_eq!(rec.asn, Some(3320));
    }
}
