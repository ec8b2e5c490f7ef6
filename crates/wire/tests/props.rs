//! Property tests for the protocol codecs: encode/decode roundtrips on
//! structured inputs, and decode-never-panics on arbitrary bytes (the
//! honeypots face hostile traffic; a codec panic would be a DoS).

use ofh_wire::{amqp, coap, ftp, http, modbus, mqtt, s7, smb, ssdp, ssh, telnet, xmpp};
use proptest::prelude::*;

// ---- structured roundtrips ----

fn topic_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_/$#+-]{1,40}"
}

proptest! {
    #[test]
    fn mqtt_connect_roundtrip(
        client_id in "[a-zA-Z0-9_-]{0,23}",
        username in proptest::option::of("[a-z]{1,12}"),
        password in proptest::option::of(prop::collection::vec(any::<u8>(), 0..16)),
        keep_alive in any::<u16>(),
        clean in any::<bool>(),
    ) {
        let p = mqtt::Packet::Connect {
            client_id, username, password, keep_alive, clean_session: clean,
        };
        let wire = p.encode();
        let (back, used) = mqtt::Packet::decode(&wire).unwrap();
        prop_assert_eq!(back, p);
        prop_assert_eq!(used, wire.len());
    }

    #[test]
    fn mqtt_publish_roundtrip(
        topic in topic_strategy(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
        qos in 0u8..=1,
        retain in any::<bool>(),
    ) {
        let p = mqtt::Packet::Publish {
            packet_id: if qos > 0 { Some(7) } else { None },
            topic, payload, qos, retain,
        };
        let (back, _) = mqtt::Packet::decode(&p.encode()).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn mqtt_remaining_length_roundtrip(len in 0usize..(1 << 20)) {
        let mut out = Vec::new();
        mqtt::encode_remaining_length(len, &mut out);
        let (v, used) = mqtt::decode_remaining_length(&out).unwrap();
        prop_assert_eq!(v, len);
        prop_assert_eq!(used, out.len());
    }

    #[test]
    fn coap_roundtrip(
        mid in any::<u16>(),
        token in prop::collection::vec(any::<u8>(), 0..=8),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        // Option numbers must grow; generate deltas and accumulate.
        deltas in prop::collection::vec(1u16..400, 0..6),
        values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 0..6),
    ) {
        let mut number = 0u16;
        let options: Vec<coap::CoapOption> = deltas
            .iter()
            .zip(values.iter())
            .map(|(d, v)| {
                number += d;
                coap::CoapOption { number, value: v.clone() }
            })
            .collect();
        let m = coap::Message {
            msg_type: coap::MsgType::Confirmable,
            code: coap::Code::GET,
            message_id: mid,
            token,
            options,
            payload,
        };
        let back = coap::Message::decode(&m.encode()).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn telnet_roundtrip(
        texts in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..32), 1..6),
    ) {
        // Alternate text and negotiations; parse(encode(x)) == x requires
        // adjacent text runs to be separated, which negotiations guarantee.
        let mut items = Vec::new();
        for (i, t) in texts.into_iter().enumerate() {
            items.push(telnet::TelnetItem::Text(t));
            items.push(telnet::TelnetItem::Negotiation(
                [telnet::Verb::Will, telnet::Verb::Do][i % 2],
                (i % 40) as u8,
            ));
        }
        let wire = telnet::encode_stream(&items);
        prop_assert_eq!(telnet::parse_stream(&wire).unwrap(), items);
    }

    #[test]
    fn amqp_connection_start_roundtrip(
        version in "[0-9]\\.[0-9]\\.[0-9]",
        mechanisms in "(PLAIN|ANONYMOUS|PLAIN AMQPLAIN)",
        props in prop::collection::vec(("[a-z_]{1,12}", "[ -~]{0,24}"), 0..5),
    ) {
        let start = amqp::ConnectionStart {
            version_major: 0,
            version_minor: 9,
            server_properties: {
                let mut p = props;
                p.push(("version".to_string(), version));
                p
            },
            mechanisms,
            locales: "en_US".into(),
        };
        let frame = amqp::Frame {
            frame_type: amqp::frame_type::METHOD,
            channel: 0,
            payload: start.encode_method(),
        };
        let (back, _) = amqp::Frame::decode(&frame.encode()).unwrap();
        let method = amqp::ConnectionStart::decode_method(&back.payload).unwrap();
        prop_assert_eq!(method, start);
    }

    #[test]
    fn xmpp_features_roundtrip(
        from in "[a-z][a-z0-9.-]{0,20}",
        id in "[a-zA-Z0-9]{1,12}",
        plain in any::<bool>(),
        anon in any::<bool>(),
        tls in prop::option::of(any::<bool>()),
    ) {
        let mut mechanisms = Vec::new();
        if plain { mechanisms.push(xmpp::Mechanism::Plain); }
        if anon { mechanisms.push(xmpp::Mechanism::Anonymous); }
        let f = xmpp::StreamFeatures {
            from, id,
            starttls: tls.map(|req| if req { xmpp::TlsPolicy::Required } else { xmpp::TlsPolicy::Optional }),
            mechanisms,
            version: None,
        };
        let back = xmpp::StreamFeatures::parse(&f.render()).unwrap();
        prop_assert_eq!(back, f);
    }

    #[test]
    fn http_roundtrip(
        path in "/[a-zA-Z0-9/_.-]{0,30}",
        body in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // render() injects Content-Length when a body is present, so compare
        // the semantic fields rather than the raw header list.
        let r = http::Request::post(&path, body);
        let back = http::Request::parse(&r.render()).unwrap();
        prop_assert_eq!(&back.method, &r.method);
        prop_assert_eq!(&back.path, &r.path);
        prop_assert_eq!(&back.body, &r.body);
        prop_assert_eq!(back.header("Host"), r.header("Host"));
    }

    #[test]
    fn ftp_roundtrip(verb in "[A-Z]{3,4}", arg in proptest::option::of("[ -~]{1,30}")) {
        let c = ftp::Command::new(&verb, arg.as_deref());
        prop_assert_eq!(ftp::Command::parse(&c.render()).unwrap(), c);
    }

    #[test]
    fn smb_roundtrip(
        command in any::<u8>(),
        status in any::<u32>(),
        mid in any::<u16>(),
        data in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let m = smb::SmbMessage { command, status, flags2: 0xC853, mid, data };
        prop_assert_eq!(smb::SmbMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn modbus_roundtrip(
        tid in any::<u16>(),
        unit in any::<u8>(),
        function in any::<u8>(),
        data in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let f = modbus::Frame { transaction_id: tid, unit_id: unit, function, data };
        prop_assert_eq!(modbus::Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn s7_roundtrip(
        pdu_type in prop::sample::select(vec![1u8, 2, 3, 7]),
        pdu_ref in any::<u16>(),
        parameters in prop::collection::vec(any::<u8>(), 0..32),
        data in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let m = s7::S7Message { pdu_type, pdu_ref, parameters, data };
        prop_assert_eq!(s7::S7Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn ssh_roundtrip(software in "[a-zA-Z0-9_.]{1,20}", comments in proptest::option::of("[ -~]{1,20}")) {
        let id = match &comments {
            Some(c) => ssh::Identification::with_comments(&software, c),
            None => ssh::Identification::new(&software),
        };
        prop_assert_eq!(ssh::Identification::parse(&id.render()).unwrap(), id);
    }

    #[test]
    fn ssdp_roundtrip(
        // Header values are whitespace-trimmed on parse, so interior spaces
        // only.
        server in "[a-zA-Z0-9./-]([a-zA-Z0-9 ./-]{0,38}[a-zA-Z0-9./-])?",
        uuid in "[a-f0-9-]{8,36}",
    ) {
        let m = ssdp::SsdpMessage::discovery_response(&server, &uuid, "http://192.168.0.1/desc.xml");
        let back = ssdp::SsdpMessage::parse(&m.render()).unwrap();
        prop_assert_eq!(back, m);
    }
}

// ---- the borrowing M-SEARCH check ----

/// SSDP datagrams: the scanner's probe, a device's discovery reply, or a
/// start line and header lines drawn from probe-like and broken ones,
/// joined by CRLF, sometimes with a blank line and a body after them.
fn arb_ssdp_text() -> impl Strategy<Value = String> {
    let reply = ssdp::SsdpMessage::discovery_response("Linux UPnP/1.0", "1234", "http://h/d.xml");
    let built = (
        prop::sample::select(vec![
            "M-SEARCH * HTTP/1.1",
            "M-SEARCH * HTTP/1.0",
            "M-SEARCH *",
            "M-SEARCH * HTTP/2",
            "M-SEARCHING HTTP/1.1",
            "m-search * HTTP/1.1",
            " M-SEARCH * HTTP/1.1",
            "NOTIFY * HTTP/1.1",
            "HTTP/1.1 200 OK",
            "",
        ]),
        prop::collection::vec(
            prop::sample::select(vec![
                "HOST: 239.255.255.250:1900",
                "MAN: \"ssdp:discover\"",
                "MX: 3",
                "ST: ssdp:all",
                "ST:",
                ":",
                "no colon",
                "",
            ]),
            0..6,
        ),
        "[ -~]{0,12}",
    )
        .prop_map(|(start, headers, body)| {
            let mut text = start.to_string();
            for h in headers {
                text.push_str("\r\n");
                text.push_str(h);
            }
            text.push_str("\r\n\r\n");
            text.push_str(&body);
            text
        });
    prop_oneof![Just(ssdp::msearch_all()), Just(reply.render()), built]
}

/// `text` with each edit applied at a char position taken modulo its
/// length: replace (0), insert (1) or delete (2).
fn edit(text: &str, edits: &[(usize, char, u8)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(at, c, op) in edits {
        let at = at % (chars.len() + 1);
        match op {
            0 if at < chars.len() => chars[at] = c,
            2 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `ssdp::is_msearch` accepts exactly what parsing and then asking the
    /// message accepts, on valid datagrams and on mutated ones.
    #[test]
    fn msearch_check_matches_parse(
        text in arb_ssdp_text(),
        edits in prop::collection::vec(
            (
                any::<usize>(),
                prop::sample::select(vec!['\r', '\n', ':', ' ', 'M', '-', 'H', '1', '0', 'x']),
                0u8..3,
            ),
            0..4,
        ),
    ) {
        let text = edit(&text, &edits);
        let parsed = ssdp::SsdpMessage::parse(&text).is_ok_and(|m| m.is_msearch());
        prop_assert_eq!(ssdp::is_msearch(&text), parsed, "{:?}", text);
    }
}

#[test]
fn msearch_check_sees_both_answers() {
    assert!(ssdp::is_msearch(&ssdp::msearch_all()));
    assert!(ssdp::is_msearch("M-SEARCH * HTTP/1.1"));
    assert!(!ssdp::is_msearch("M-SEARCH * HTTP/1.1\r\nno colon\r\n\r\n"));
    assert!(ssdp::is_msearch("M-SEARCH * HTTP/1.1\r\n\r\nno colon after the blank line"));
    assert!(!ssdp::is_msearch("NOTIFY * HTTP/1.1\r\nNT: upnp:rootdevice\r\n\r\n"));
    assert!(!ssdp::is_msearch("M-SEARCH *\r\nST: ssdp:all\r\n\r\n"));
}

// ---- decode never panics on arbitrary bytes ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoders_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = mqtt::Packet::decode(&bytes);
        let _ = coap::Message::decode(&bytes);
        let _ = telnet::parse_stream(&bytes);
        let _ = telnet::visible_text(&bytes);
        let _ = amqp::Frame::decode(&bytes);
        let _ = amqp::ConnectionStart::decode_method(&bytes);
        let _ = smb::SmbMessage::decode(&bytes);
        let _ = modbus::Frame::decode(&bytes);
        let _ = s7::S7Message::decode(&bytes);
        let _ = http::Request::parse(&bytes);
        let _ = http::Response::parse(&bytes);
    }

    #[test]
    fn text_decoders_never_panic(text in "\\PC{0,256}") {
        let _ = xmpp::StreamFeatures::parse(&text);
        let _ = ssdp::SsdpMessage::parse(&text);
        let _ = ssh::Identification::parse(&text);
        let _ = ftp::Command::parse(&text);
        let _ = ftp::Reply::parse(&text);
        let _ = coap::parse_link_format(&text);
        let _ = ssdp::DeviceDescription::parse(&text);
    }
}
