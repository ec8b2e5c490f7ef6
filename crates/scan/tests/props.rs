//! Property tests for the scanning layer.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

use ofh_devices::{DeviceRecord, Misconfig, PROFILES};
use ofh_intel::Country;
use ofh_net::{ip, Agent, NetCtx, Payload, SimNet, SimNetConfig, SimTime, SockAddr};
use ofh_scan::probe::{normalize_response, udp_probe};
use ofh_scan::{
    classify_response, ztag, AddressPermutation, HostRecord, ScanCapture, ScanResults,
};
use ofh_wire::coap::Message;
use ofh_wire::mqtt::{ConnectReturnCode, Packet};
use ofh_wire::{amqp, coap, Protocol};
use proptest::prelude::*;

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

/// The scanner's CoAP probe, sent with one message id to every target;
/// keeps each reply.
struct CoapProber {
    targets: Vec<Ipv4Addr>,
    message_id: u16,
    replies: BTreeMap<Ipv4Addr, Vec<u8>>,
}

impl Agent for CoapProber {
    fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
        let probe = udp_probe(Protocol::Coap, self.message_id).expect("CoAP probe");
        for &addr in &self.targets {
            ctx.udp_send(40_000, SockAddr::new(addr, Protocol::Coap.port()), probe.clone());
        }
    }

    fn on_udp(&mut self, _ctx: &mut NetCtx<'_>, _port: u16, peer: SockAddr, payload: &Payload) {
        self.replies.insert(peer.addr, payload.to_vec());
    }
}

/// What catalog-built CoAP devices answer the scanner's `/.well-known/core`
/// probe carrying `message_id`: one device per catalog row (every profile,
/// then none) and posture (configured, or one of the three CoAP
/// misconfigurations).
fn catalog_replies(message_id: u16) -> Vec<Vec<u8>> {
    let postures = [
        None,
        Some(Misconfig::CoapReflection),
        Some(Misconfig::CoapNoAuth),
        Some(Misconfig::CoapNoAuthAdmin),
    ];
    let rows = PROFILES.iter().map(Some).chain([None]);
    let mut net = SimNet::new(SimNetConfig::default());
    let mut targets = Vec::new();
    for (profile, misconfig) in rows.flat_map(|p| postures.map(|m| (p, m))) {
        let addr = Ipv4Addr::from(u32::from(ip(16, 4, 0, 0)) + targets.len() as u32);
        let device = DeviceRecord {
            addr,
            protocol: Protocol::Coap,
            profile,
            misconfig,
            country: Country::Usa,
            port: Protocol::Coap.port(),
            default_creds: None,
        };
        net.attach(addr, device.build_agent());
        targets.push(addr);
    }
    let prober = CoapProber {
        targets,
        message_id,
        replies: BTreeMap::new(),
    };
    let id = net.attach(ip(16, 3, 0, 1), Box::new(prober));
    net.run_until(SimTime(60_000));
    let prober = net.agent_downcast::<CoapProber>(id).expect("prober");
    assert_eq!(prober.replies.len(), prober.targets.len(), "a device did not answer");
    prober.replies.values().cloned().collect()
}

/// Every catalog CoAP listing as sent with message id 0.
fn catalog_listings() -> &'static [Vec<u8>] {
    static LISTINGS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    LISTINGS.get_or_init(|| catalog_replies(0))
}

#[test]
fn catalog_replies_differ_only_in_the_echoed_message_id() {
    let id = 0xBEEF_u16;
    for (zero, echoed) in catalog_listings().iter().zip(catalog_replies(id)) {
        let mut patched = zero.clone();
        patched[Message::MESSAGE_ID_RANGE].copy_from_slice(&id.to_be_bytes());
        assert_eq!(patched, echoed);
    }
    let texts: BTreeSet<String> =
        catalog_listings().iter().map(|raw| normalize_response(Protocol::Coap, raw)).collect();
    assert!(texts.len() >= 4, "only {} distinct listings", texts.len());
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
    /// Interning is invisible: every record a capture builds equals the
    /// one-off record of its normalized response, carries the labels the
    /// classifier and ZTag give that text, and exports and re-imports
    /// identically. Records of one (protocol, raw) share one raw buffer;
    /// the same bytes under two protocols do not.
    #[test]
    fn interned_records_match_one_off_records(grabs in arb_grabs()) {
        let mut capture = ScanCapture::new("ZMap Scan");
        let mut one_off = ScanResults::new("ZMap Scan");
        for (addr, port, protocol, raw) in &grabs {
            capture.record(*addr, *port, *protocol, raw);
            let text = normalize_response(*protocol, raw);
            one_off.insert(HostRecord::new(*addr, *port, *protocol, text, raw.as_slice()));
        }
        prop_assert_eq!(capture.len(), grabs.len());
        let interned = capture.seal();
        prop_assert_eq!(interned.len(), one_off.len());
        for (got, want) in interned.records.iter().zip(&one_off.records) {
            prop_assert_eq!((got.addr, got.port, got.protocol), (want.addr, want.port, want.protocol));
            prop_assert_eq!(got.response(), want.response());
            prop_assert_eq!(got.raw(), want.raw());
            prop_assert_eq!(got.misconfig(), want.misconfig());
            prop_assert_eq!(got.device(), want.device());
            prop_assert_eq!(got.misconfig(), classify_response(got.protocol, got.response()));
            prop_assert_eq!(got.device(), ztag::tag_device(got.protocol, got.response()));
        }

        let mut buffers: BTreeMap<&[u8], BTreeMap<Protocol, *const u8>> = BTreeMap::new();
        for r in &interned.records {
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

    /// Capture, then seal, then merge equals inserting every grab, in
    /// order, into one `BTreeMap` keyed by (address, port): sorted, one
    /// record per key, the last grab of a key kept. The grabs are dealt to
    /// shards as a study deals them: the owning shard is a function of the
    /// address (here a random table over the 64 addresses, taken modulo the
    /// shard count, so some parts stay empty), and an (address, port) may
    /// be recorded twice, as fault duplicates are. The addresses spread
    /// over the whole space and the ports include both extremes, so a key
    /// that ordered by anything but (address, port) would show.
    #[test]
    fn capture_seal_merge_matches_map_insert(
        shards in 1usize..9,
        owner in prop::collection::vec(any::<u8>(), 64),
        grabs in prop::collection::vec((0u32..64, 0u16..3, 0usize..64), 0..200),
    ) {
        let pool = response_pool();
        let mut captures: Vec<ScanCapture> =
            (0..shards).map(|_| ScanCapture::new("Project Sonar")).collect();
        let mut oracle: BTreeMap<(Ipv4Addr, u16), HostRecord> = BTreeMap::new();
        for &(host, port, response) in &grabs {
            let addr = Ipv4Addr::from(host.wrapping_mul(0x9E37_79B9));
            let port = [0, 23, u16::MAX][port as usize];
            let (protocol, raw) = &pool[response % pool.len()];
            captures[owner[host as usize] as usize % shards].record(addr, port, *protocol, raw);
            let text = normalize_response(*protocol, raw);
            oracle.insert((addr, port), HostRecord::new(addr, port, *protocol, text, raw.as_slice()));
        }
        let merged = ScanResults::merge("Project Sonar", captures.into_iter().map(ScanCapture::seal));
        prop_assert_eq!(merged.source.as_str(), "Project Sonar");
        prop_assert_eq!(merged.records.to_vec(), oracle.into_values().collect::<Vec<_>>());
    }

    /// The CoAP label table is exact: records of every catalog listing,
    /// three each, with random message ids and some with one more byte of
    /// the header, token or options changed, equal their one-off records,
    /// although the capture labels each listing once rather than once per
    /// message id.
    #[test]
    fn coap_listings_label_as_one_off_records(
        grabs in prop::collection::vec(
            (any::<u16>(), prop::option::of((0usize..8, any::<u8>()))),
            3 * catalog_listings().len(),
        ),
    ) {
        let listings = catalog_listings();
        let mut capture = ScanCapture::new("ZMap Scan");
        let mut oracle = ScanResults::new("ZMap Scan");
        for (i, (message_id, edit)) in grabs.into_iter().enumerate() {
            let mut raw = listings[i % listings.len()].clone();
            raw[Message::MESSAGE_ID_RANGE].copy_from_slice(&message_id.to_be_bytes());
            if let Some((at, value)) = edit {
                if let Some(byte) = raw.get_mut(at) {
                    *byte = value;
                }
            }
            let addr = Ipv4Addr::from(0x0a00_0000 + i as u32);
            let port = Protocol::Coap.port();
            capture.record(addr, port, Protocol::Coap, &raw);
            let text = normalize_response(Protocol::Coap, &raw);
            oracle.insert(HostRecord::new(addr, port, Protocol::Coap, text, raw));
        }
        prop_assert_eq!(capture.seal().records, oracle.records);
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
