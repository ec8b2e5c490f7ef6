//! Property tests for the scanning layer.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ofh_scan::probe::normalize_response;
use ofh_scan::{classify_response, ztag, AddressPermutation, HostRecord, ScanResults};
use ofh_wire::mqtt::{ConnectReturnCode, Packet};
use ofh_wire::{amqp, coap, Protocol};
use proptest::prelude::*;

/// Disjoint per-shard datasets: a set of distinct (address, port) keys, each
/// dealt to one of `shards` parts (some parts may stay empty).
fn arb_disjoint_parts() -> impl Strategy<Value = Vec<ScanResults>> {
    (
        1usize..8,
        prop::collection::vec(((0u32..64, 0u16..4), (any::<u8>(), "[a-z]{0,6}")), 0..150),
    )
        .prop_map(|(shards, records)| {
            let keys: BTreeMap<(u32, u16), (u8, String)> = records.into_iter().collect();
            let mut parts: Vec<ScanResults> =
                (0..shards).map(|_| ScanResults::new("ZMap Scan")).collect();
            for ((addr, port), (deal, response)) in keys {
                parts[deal as usize % shards].insert(HostRecord::new(
                    Ipv4Addr::from(0x0a00_0000 + addr),
                    23 + port,
                    Protocol::Telnet,
                    response.as_str(),
                    response.as_bytes(),
                ));
            }
            parts
        })
}

/// Raw responses as a scan receives them: wire-encoded CoAP, MQTT and AMQP
/// frames, Telnet text with and without `$` and `root@` (one behind IAC
/// negotiation that normalization strips), SSDP replies with and without
/// `rootdevice`, the empty buffer, and `$ ` under two protocols that label
/// it differently.
fn response_pool() -> Vec<(Protocol, Vec<u8>)> {
    let request = coap::Message::well_known_core_request(7);
    let coap = |links: &str| coap::Message::content_response(&request, links).encode();
    let connack = |return_code| {
        Packet::ConnAck {
            session_present: false,
            return_code,
        }
        .encode()
    };
    let mut open_broker = connack(ConnectReturnCode::Accepted);
    open_broker.extend(
        Packet::Publish {
            topic: "homeassistant/light/kitchen".into(),
            packet_id: None,
            payload: b"on".to_vec(),
            qos: 0,
            retain: true,
        }
        .encode(),
    );
    let amqp = |version: &str, mechanisms: &str| {
        let start = amqp::ConnectionStart {
            version_major: 0,
            version_minor: 9,
            server_properties: vec![
                ("product".into(), "RabbitMQ".into()),
                ("version".into(), version.into()),
            ],
            mechanisms: mechanisms.into(),
            locales: "en_US".into(),
        };
        amqp::Frame {
            frame_type: amqp::frame_type::METHOD,
            channel: 0,
            payload: start.encode_method(),
        }
        .encode()
    };
    let ssdp = |st: &str| {
        format!("HTTP/1.1 200 OK\r\nST: {st}\r\nSERVER: Linux/2.x UPnP/1.0 Avtech/1.0\r\n\r\n")
            .into_bytes()
    };
    vec![
        (Protocol::Coap, coap("</ndm/login>;title=\"Login\"")),
        (Protocol::Coap, coap("</qlink>;title=\"Qlink-ACK Resource\"")),
        (Protocol::Mqtt, open_broker),
        (Protocol::Mqtt, connack(ConnectReturnCode::NotAuthorized)),
        (Protocol::Amqp, amqp("2.7.1", "ANONYMOUS PLAIN")),
        (Protocol::Amqp, amqp("3.8.9", "PLAIN AMQPLAIN")),
        (Protocol::Telnet, b"192.168.0.64 login: ".to_vec()),
        (Protocol::Telnet, b"\xff\xfb\x01\xff\xfb\x03BusyBox v1.19\r\n$ ".to_vec()),
        (Protocol::Telnet, b"root@router:~$ ".to_vec()),
        (Protocol::Upnp, ssdp("upnp:rootdevice")),
        (Protocol::Upnp, ssdp("urn:schemas-upnp-org:device:MediaServer:1")),
        (Protocol::Telnet, Vec::new()),
        (Protocol::Coap, Vec::new()),
        (Protocol::Telnet, b"$ ".to_vec()),
        (Protocol::Xmpp, b"$ ".to_vec()),
    ]
}

/// A stream of grabs with heavy repetition: few addresses, two ports per
/// protocol, and every response drawn from [`response_pool`].
fn arb_grabs() -> impl Strategy<Value = Vec<(Ipv4Addr, u16, Protocol, Vec<u8>)>> {
    prop::collection::vec((0u32..24, 0u16..2, prop::sample::select(response_pool())), 0..160)
        .prop_map(|grabs| {
            grabs
                .into_iter()
                .map(|(addr, port, (protocol, raw))| {
                    (Ipv4Addr::from(0x0a00_0000 + addr), protocol.port() + port, protocol, raw)
                })
                .collect()
        })
}

#[test]
fn pool_reuses_bytes_that_label_differently_per_protocol() {
    let text = |protocol| normalize_response(protocol, b"$ ");
    assert_ne!(
        classify_response(Protocol::Telnet, &text(Protocol::Telnet)),
        classify_response(Protocol::Xmpp, &text(Protocol::Xmpp))
    );
}

proptest! {
    /// Interning is invisible: every record `ScanResults::record` builds
    /// equals the one-off record of its normalized response, carries the
    /// labels the classifier and ZTag give that text, and exports and
    /// re-imports identically. Records of one (protocol, raw) share one raw
    /// buffer; the same bytes under two protocols do not.
    #[test]
    fn interned_records_match_one_off_records(grabs in arb_grabs()) {
        let mut interned = ScanResults::new("ZMap Scan");
        let mut one_off = ScanResults::new("ZMap Scan");
        for (addr, port, protocol, raw) in &grabs {
            interned.record(*addr, *port, *protocol, raw);
            let text = normalize_response(*protocol, raw);
            one_off.insert(HostRecord::new(*addr, *port, *protocol, text, raw.as_slice()));
        }
        prop_assert_eq!(interned.len(), one_off.len());
        for (got, want) in interned.records.values().zip(one_off.records.values()) {
            prop_assert_eq!((got.addr, got.port, got.protocol), (want.addr, want.port, want.protocol));
            prop_assert_eq!(got.response(), want.response());
            prop_assert_eq!(got.raw(), want.raw());
            prop_assert_eq!(got.misconfig(), want.misconfig());
            prop_assert_eq!(got.device(), want.device());
            prop_assert_eq!(got.misconfig(), classify_response(got.protocol, got.response()));
            prop_assert_eq!(got.device(), ztag::tag_device(got.protocol, got.response()));
        }

        let mut buffers: BTreeMap<&[u8], BTreeMap<Protocol, *const u8>> = BTreeMap::new();
        for r in interned.records.values() {
            let first = buffers.entry(r.raw()).or_default().entry(r.protocol).or_insert(r.raw().as_ptr());
            prop_assert_eq!(*first, r.raw().as_ptr(), "a second buffer for one (protocol, raw)");
        }
        for per_protocol in buffers.values() {
            let distinct: BTreeSet<_> = per_protocol.values().collect();
            prop_assert_eq!(distinct.len(), per_protocol.len(), "two protocols share a buffer");
        }

        let jsonl = interned.to_jsonl();
        prop_assert_eq!(&jsonl, &one_off.to_jsonl());
        let back = ScanResults::from_jsonl("ZMap Scan", &jsonl).unwrap();
        prop_assert_eq!(&back.records, &interned.records);
    }

    /// The bulk merge equals folding the parts in with `BTreeMap::extend`,
    /// the record-by-record union it replaced.
    #[test]
    fn merge_matches_extend_fold(parts in arb_disjoint_parts()) {
        let mut expected = BTreeMap::new();
        for part in &parts {
            expected.extend(part.records.clone());
        }
        let merged = ScanResults::merge("ZMap Scan", parts);
        prop_assert_eq!(merged.source.as_str(), "ZMap Scan");
        prop_assert_eq!(merged.records, expected);
    }

    /// The address permutation is a bijection over arbitrary sizes.
    #[test]
    fn permutation_bijection(size in 1u64..30_000, seed in any::<u64>()) {
        let mut seen = vec![false; size as usize];
        let mut count = 0u64;
        for v in AddressPermutation::new(size, seed) {
            prop_assert!(v < size);
            prop_assert!(!seen[v as usize], "value {v} visited twice");
            seen[v as usize] = true;
            count += 1;
        }
        prop_assert_eq!(count, size);
    }

    /// Two permutations with the same (size, seed) are identical; different
    /// seeds differ (for non-degenerate sizes).
    #[test]
    fn permutation_seed_sensitivity(size in 100u64..5_000, seed in any::<u64>()) {
        let a: Vec<u64> = AddressPermutation::new(size, seed).take(32).collect();
        let b: Vec<u64> = AddressPermutation::new(size, seed).take(32).collect();
        prop_assert_eq!(&a, &b);
        let c: Vec<u64> = AddressPermutation::new(size, seed.wrapping_add(1)).take(32).collect();
        prop_assert_ne!(&a, &c);
    }

    /// The misconfiguration classifier is total over arbitrary text and
    /// only ever returns a class belonging to the probed protocol.
    #[test]
    fn classifier_total_and_protocol_consistent(text in "\\PC{0,300}") {
        for proto in Protocol::SCANNED {
            if let Some(class) = classify_response(proto, &text) {
                prop_assert_eq!(class.protocol(), proto);
            }
        }
    }

    /// Classifier rules are monotone under concatenation for the positive
    /// indicators: appending the indicator to arbitrary text always flags.
    #[test]
    fn indicators_always_fire(prefix in "[a-zA-Z0-9 :.\\r\\n]{0,80}") {
        use ofh_devices::Misconfig;
        let cases = [
            (Protocol::Mqtt, "MQTT Connection Code:0", Misconfig::MqttNoAuth),
            (Protocol::Upnp, "ST: upnp:rootdevice", Misconfig::UpnpReflection),
            (Protocol::Coap, "220-Admin </x>", Misconfig::CoapNoAuthAdmin),
            (Protocol::Amqp, "Version: 2.7.1", Misconfig::AmqpNoAuth),
        ];
        for (proto, indicator, expect) in cases {
            let text = format!("{prefix}{indicator}");
            prop_assert_eq!(classify_response(proto, &text), Some(expect), "{}", proto);
        }
    }
}
