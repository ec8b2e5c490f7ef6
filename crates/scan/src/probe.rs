//! Per-protocol application probes and response normalization.
//!
//! A probe has up to three parts, mirroring ZMap + ZGrab + the paper's
//! custom UDP scripts:
//!
//! 1. what (if anything) to send immediately after the transport opens;
//! 2. what to send after the first response (MQTT's wildcard SUBSCRIBE);
//! 3. how to normalize the collected bytes into the text the classifier and
//!    tagger operate on — the "banner" the paper stores in its database.

use ofh_net::{FastMap, Payload};
use ofh_wire::coap::{parse_link_format, Message};
use ofh_wire::mqtt::Packet;
use ofh_wire::ssdp::msearch_all;
use ofh_wire::xmpp::client_stream_open;
use ofh_wire::Protocol;

/// The opening application payload for a TCP grab (`None` = just listen,
/// e.g. Telnet banners arrive unprompted).
pub fn tcp_opening(protocol: Protocol) -> Option<Vec<u8>> {
    match protocol {
        Protocol::Telnet => None,
        Protocol::Mqtt => Some(
            Packet::Connect {
                client_id: "zgrab".into(),
                username: None,
                password: None,
                keep_alive: 60,
                clean_session: true,
            }
            .encode(),
        ),
        Protocol::Amqp => Some(ofh_wire::amqp::PROTOCOL_HEADER.to_vec()),
        Protocol::Xmpp => Some(client_stream_open("scan-target").into_bytes()),
        _ => None,
    }
}

/// A follow-up payload after the first response arrived. Only MQTT uses
/// this: after `CONNACK 0`, subscribe to `#` so the broker lists its topics
/// ("all the topics and channels on the target host are listed", §3.1.3).
pub fn tcp_followup(protocol: Protocol, first_response: &[u8]) -> Option<Vec<u8>> {
    if protocol != Protocol::Mqtt {
        return None;
    }
    match Packet::decode(first_response) {
        Ok((
            Packet::ConnAck {
                return_code: ofh_wire::mqtt::ConnectReturnCode::Accepted,
                ..
            },
            _,
        )) => Some(
            Packet::Subscribe {
                packet_id: 1,
                topics: vec![("#".into(), 0)],
            }
            .encode(),
        ),
        _ => None,
    }
}

/// The UDP probe datagram for response-based protocols (Table 3).
pub fn udp_probe(protocol: Protocol, message_id: u16) -> Option<Vec<u8>> {
    match protocol {
        Protocol::Coap => Some(Message::well_known_core_request(message_id).encode()),
        Protocol::Upnp => Some(msearch_all().into_bytes()),
        _ => None,
    }
}

/// Pre-encoded probe payloads, built once per scanner.
///
/// Probe bytes are identical for every address a sweep touches except the
/// CoAP message id, so re-encoding them per probe is pure waste — on the
/// full preset that is millions of MQTT CONNECT and CoAP GET encodes. The
/// cache encodes each probe once:
///
/// * TCP openings and the SSDP discover are address-invariant; handing one
///   out clones a shared [`Payload`] (a refcount bump, no bytes move);
/// * the CoAP request varies only in its 16-bit message id, which
///   [`ProbeTemplates::udp_probe`] patches into a copy of the template
///   at [`Message::MESSAGE_ID_RANGE`].
///
/// An oracle test asserts every cached/patched probe is byte-identical to a
/// fresh [`tcp_opening`]/[`udp_probe`] encode.
#[derive(Debug, Default)]
pub struct ProbeTemplates {
    tcp: FastMap<Protocol, Payload>,
    udp: FastMap<Protocol, Payload>,
}

impl ProbeTemplates {
    /// Encode every scanned protocol's probes up front.
    pub fn new() -> ProbeTemplates {
        let mut t = ProbeTemplates::default();
        for proto in Protocol::SCANNED {
            if let Some(bytes) = tcp_opening(proto) {
                t.tcp.insert(proto, Payload::from(bytes));
            }
            if let Some(bytes) = udp_probe(proto, 0) {
                t.udp.insert(proto, Payload::from(bytes));
            }
        }
        t
    }

    /// The cached opening payload for a TCP grab (see [`tcp_opening`]).
    pub fn tcp_opening(&self, protocol: Protocol) -> Option<Payload> {
        self.tcp.get(&protocol).cloned()
    }

    /// The UDP probe datagram for `protocol` carrying `message_id`
    /// (see [`udp_probe`]). CoAP patches the id into a copy of the
    /// template; everything else clones the shared template.
    pub fn udp_probe(&self, protocol: Protocol, message_id: u16) -> Option<Payload> {
        let template = self.udp.get(&protocol)?;
        if protocol != Protocol::Coap {
            return Some(template.clone());
        }
        let mut buf = template.to_vec();
        buf[Message::MESSAGE_ID_RANGE].copy_from_slice(&message_id.to_be_bytes());
        Some(Payload::from(buf))
    }
}

/// Normalize collected response bytes into banner text for classification
/// and tagging. This is the string the paper's pipeline would store in its
/// database.
pub fn normalize_response(protocol: Protocol, raw: &[u8]) -> String {
    match protocol {
        Protocol::Telnet => {
            String::from_utf8_lossy(&ofh_wire::telnet::visible_text(raw)).into_owned()
        }
        Protocol::Mqtt => {
            let mut out = String::new();
            let mut rest = raw;
            while let Ok((packet, used)) = Packet::decode(rest) {
                match packet {
                    Packet::ConnAck { return_code, .. } => {
                        out.push_str(&format!(
                            "MQTT Connection Code:{}\n",
                            return_code.code()
                        ));
                    }
                    Packet::Publish { topic, .. } => {
                        out.push_str(&format!("topic: {topic}\n"));
                    }
                    _ => {}
                }
                if used >= rest.len() {
                    break;
                }
                rest = &rest[used..];
            }
            out
        }
        Protocol::Amqp => {
            let mut out = String::new();
            if let Ok((frame, _)) = ofh_wire::amqp::Frame::decode(raw) {
                if let Ok(start) = ofh_wire::amqp::ConnectionStart::decode_method(&frame.payload) {
                    if let Some(product) = start.property("product") {
                        out.push_str(&format!("Product: {product}\n"));
                    }
                    if let Some(version) = start.property("version") {
                        out.push_str(&format!("Version: {version}\n"));
                    }
                    out.push_str(&format!("Mechanisms: {}\n", start.mechanisms));
                }
            }
            out
        }
        Protocol::Xmpp => String::from_utf8_lossy(raw).into_owned(),
        Protocol::Coap => {
            let Ok(msg) = Message::decode(raw) else {
                return String::new();
            };
            let mut out = format!("CoAP {}\n", msg.code);
            let body = String::from_utf8_lossy(&msg.payload).into_owned();
            out.push_str(&body);
            out.push('\n');
            // Normalize link-format entries into "path" + "attr: value"
            // lines so Table 11 identifiers match directly.
            let link_part = match body.find('<') {
                Some(i) => &body[i..],
                None => "",
            };
            for entry in parse_link_format(link_part) {
                out.push_str(&format!("{}\n", entry.path));
                for (k, v) in &entry.attrs {
                    out.push_str(&format!("{k}: {v}\n"));
                }
            }
            out
        }
        Protocol::Upnp => String::from_utf8_lossy(raw).into_owned(),
        _ => String::from_utf8_lossy(raw).into_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_wire::mqtt::ConnectReturnCode;

    #[test]
    fn telnet_listens_silently() {
        assert!(tcp_opening(Protocol::Telnet).is_none());
    }

    #[test]
    fn mqtt_probe_is_anonymous_connect() {
        let probe = tcp_opening(Protocol::Mqtt).unwrap();
        let (p, _) = Packet::decode(&probe).unwrap();
        assert!(matches!(
            p,
            Packet::Connect {
                username: None,
                password: None,
                ..
            }
        ));
    }

    #[test]
    fn mqtt_followup_only_after_code_zero() {
        let accepted = Packet::ConnAck {
            session_present: false,
            return_code: ConnectReturnCode::Accepted,
        }
        .encode();
        assert!(tcp_followup(Protocol::Mqtt, &accepted).is_some());
        let denied = Packet::ConnAck {
            session_present: false,
            return_code: ConnectReturnCode::NotAuthorized,
        }
        .encode();
        assert!(tcp_followup(Protocol::Mqtt, &denied).is_none());
        assert!(tcp_followup(Protocol::Telnet, &accepted).is_none());
    }

    #[test]
    fn udp_probes_match_the_papers_scripts() {
        let coap = udp_probe(Protocol::Coap, 7).unwrap();
        let msg = Message::decode(&coap).unwrap();
        assert_eq!(msg.uri_path(), ".well-known/core");
        let ssdp = String::from_utf8(udp_probe(Protocol::Upnp, 0).unwrap()).unwrap();
        assert!(ssdp.contains("ssdp:discover"));
        assert!(udp_probe(Protocol::Telnet, 0).is_none());
    }

    #[test]
    fn templates_match_fresh_encodes() {
        let t = ProbeTemplates::new();
        for proto in Protocol::SCANNED {
            assert_eq!(
                t.tcp_opening(proto).map(|p| p.to_vec()),
                tcp_opening(proto),
                "cached TCP opening diverges for {proto:?}"
            );
            // The patched CoAP id must reproduce a fresh encode for any id,
            // including the extremes and ids wider than one byte.
            for mid in [0u16, 1, 0x34, 0x1234, 0x7fff, 0xfffe, u16::MAX] {
                assert_eq!(
                    t.udp_probe(proto, mid).map(|p| p.to_vec()),
                    udp_probe(proto, mid),
                    "cached UDP probe diverges for {proto:?} mid {mid}"
                );
            }
        }
    }

    #[test]
    fn normalization_mqtt() {
        let mut raw = Packet::ConnAck {
            session_present: false,
            return_code: ConnectReturnCode::Accepted,
        }
        .encode();
        raw.extend(
            Packet::Publish {
                topic: "homeassistant/light/k".into(),
                packet_id: None,
                payload: b"on".to_vec(),
                qos: 0,
                retain: true,
            }
            .encode(),
        );
        let text = normalize_response(Protocol::Mqtt, &raw);
        assert!(text.contains("MQTT Connection Code:0"));
        assert!(text.contains("topic: homeassistant/light/k"));
    }

    #[test]
    fn normalization_coap_exposes_attrs() {
        let req = Message::well_known_core_request(1);
        let resp = Message::content_response(
            &req,
            "220 </ndm/login>,</qlink>;title=\"Qlink-ACK Resource\"",
        );
        let text = normalize_response(Protocol::Coap, &resp.encode());
        assert!(text.contains("220 "));
        assert!(text.contains("/ndm/login"));
        assert!(text.contains("title: Qlink-ACK Resource"));
    }

    #[test]
    fn normalization_never_panics_on_garbage() {
        for proto in Protocol::SCANNED {
            let _ = normalize_response(proto, &[0xFF, 0x00, 0x80, 0x13]);
            let _ = normalize_response(proto, b"");
        }
    }
}
