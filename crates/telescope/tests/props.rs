//! Property tests for the telescope: FlowTuple derivation, minute-file
//! binning over arbitrary observation streams, and the shard merge.

use ofh_intel::GeoDb;
use ofh_net::sim::FlowTap;
use ofh_net::{FlowKind, FlowObservation, SimTime, Transport};
use ofh_telescope::{FlowTuple, Telescope};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn arb_observation() -> impl Strategy<Value = FlowObservation> {
    (
        0u64..10_000_000_000,
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<bool>(),
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
        any::<bool>(),
    )
        .prop_map(
            |(t, src, dst, sp, dp, tcp, ttl, flags, window, len, spoofed)| FlowObservation {
                time: SimTime(t),
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                src_port: sp,
                dst_port: dp,
                transport: if tcp { Transport::Tcp } else { Transport::Udp },
                kind: if tcp { FlowKind::TcpSyn } else { FlowKind::UdpDatagram },
                ttl,
                tcp_flags: if tcp { flags | FlowObservation::SYN } else { 0 },
                tcp_window: if tcp { window } else { 0 },
                ip_len: len,
                payload: Default::default(),
                spoofed,
            },
        )
}

/// Observations drawn from a narrow key space: a few times within two
/// minutes, two sources, two ports and both transports, so many flows tie
/// on the sort key while differing in TTL, window and length.
fn arb_tied_observation() -> impl Strategy<Value = FlowObservation> {
    (
        0u64..4,
        0u32..2,
        0u16..2,
        any::<bool>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(t, src, dp, tcp, ttl, window, len)| FlowObservation {
            time: SimTime(t * 40_000),
            src: Ipv4Addr::from(0x0102_0300 + src),
            dst: Ipv4Addr::new(16, 0, 0, 9),
            src_port: 40_000,
            dst_port: 23 + dp,
            transport: if tcp { Transport::Tcp } else { Transport::Udp },
            kind: if tcp { FlowKind::TcpSyn } else { FlowKind::UdpDatagram },
            ttl,
            tcp_flags: if tcp { FlowObservation::SYN } else { 0 },
            tcp_window: if tcp { window } else { 0 },
            ip_len: len,
            payload: Default::default(),
            spoofed: false,
        })
}

/// The fold the sharded merge used to run: absorb the shards one at a time,
/// appending each shard's records to their minute files and stable-sorting
/// every touched file after each shard.
fn fold_oracle(parts: &[Telescope]) -> BTreeMap<u64, Vec<FlowTuple>> {
    let mut minutes: BTreeMap<u64, Vec<FlowTuple>> = BTreeMap::new();
    for part in parts {
        let mut shard: BTreeMap<u64, Vec<FlowTuple>> = BTreeMap::new();
        for rec in part.records() {
            shard.entry(rec.time.minute_index()).or_default().push(rec.clone());
        }
        for (minute, mut recs) in shard {
            let file = minutes.entry(minute).or_default();
            file.append(&mut recs);
            file.sort_by(|a, b| {
                (a.time, a.src_ip, a.dst_ip, a.src_port, a.dst_port, a.protocol)
                    .cmp(&(b.time, b.src_ip, b.dst_ip, b.src_port, b.dst_port, b.protocol))
            });
        }
    }
    minutes
}

proptest! {
    /// `Telescope::merge` equals the one-shard-at-a-time fold, ties and
    /// empty shards included.
    #[test]
    fn merge_matches_per_shard_fold(
        shards in prop::collection::vec(
            prop::collection::vec(arb_tied_observation(), 0..40),
            0..6,
        ),
    ) {
        let capture = |obs: &[FlowObservation]| {
            let mut t = Telescope::new(GeoDb::new());
            for o in obs {
                t.observe(o);
            }
            t
        };
        let expected = fold_oracle(&shards.iter().map(|s| capture(s)).collect::<Vec<_>>());
        let merged = Telescope::merge(shards.iter().map(|s| capture(s)));
        let total: usize = shards.iter().map(Vec::len).sum();
        prop_assert_eq!(merged.total_records() as usize, total);
        prop_assert_eq!(merged.minute_file_count(), expected.len());
        for (minute, recs) in &expected {
            prop_assert_eq!(merged.minute_file(*minute), recs.as_slice());
        }
    }

    /// Every observation lands in exactly one minute file; totals add up and
    /// records appear in time order within the full iteration.
    #[test]
    fn binning_partitions_records(obs in prop::collection::vec(arb_observation(), 0..200)) {
        let mut t = Telescope::new(GeoDb::new());
        for o in &obs {
            t.observe(o);
        }
        prop_assert_eq!(t.total_records() as usize, obs.len());
        let mut iterated = 0usize;
        let mut last_minute = 0u64;
        for rec in t.records() {
            let minute = rec.time.minute_index();
            prop_assert!(minute >= last_minute, "records out of minute order");
            last_minute = minute;
            iterated += 1;
        }
        prop_assert_eq!(iterated, obs.len());
    }

    /// FlowTuple derivation is faithful: protocol numbers, SYN-only fields,
    /// masscan flag.
    #[test]
    fn flowtuple_faithful(o in arb_observation()) {
        let ft = FlowTuple::from_observation(&o, "US", None);
        prop_assert_eq!(ft.protocol, o.transport.protocol_number());
        prop_assert_eq!(ft.src_ip, o.src);
        prop_assert_eq!(ft.is_spoofed, o.spoofed);
        match o.transport {
            Transport::Udp => {
                prop_assert_eq!(ft.tcp_syn_window, 0);
                prop_assert!(!ft.is_masscan);
            }
            Transport::Tcp => {
                prop_assert_eq!(ft.tcp_syn_window, o.tcp_window);
                prop_assert_eq!(ft.is_masscan, o.tcp_window == 1024);
            }
        }
        // JSON roundtrip.
        let json = serde_json::to_string(&ft).unwrap();
        let back: FlowTuple = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, ft);
    }
}
