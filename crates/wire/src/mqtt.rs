//! MQTT 3.1.1 — packet codec.
//!
//! The paper scans port 1883 and flags brokers that answer a CONNECT (with no
//! credentials) with CONNACK return code 0 — "Connection Accepted with no
//! auth" (Table 2). Attackers then SUBSCRIBE to `$SYS/#` or PUBLISH poisoned
//! data into topics (§5.1.2). This module implements the packet subset those
//! behaviours need: CONNECT, CONNACK, SUBSCRIBE, SUBACK, PUBLISH, PINGREQ,
//! PINGRESP, DISCONNECT, with the standard variable-length "remaining length"
//! encoding.

use crate::error::WireError;

/// Sanity cap on the remaining-length field (the spec allows ~256 MB; no
/// packet in this study is near that).
const MAX_REMAINING: usize = 1 << 20;

/// CONNACK return codes (MQTT 3.1.1 §3.2.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectReturnCode {
    /// 0 — connection accepted. On an unauthenticated CONNECT this is the
    /// paper's misconfiguration indicator.
    Accepted,
    /// 1 — unacceptable protocol version.
    BadProtocolVersion,
    /// 2 — identifier rejected.
    IdentifierRejected,
    /// 3 — server unavailable.
    ServerUnavailable,
    /// 4 — bad user name or password.
    BadCredentials,
    /// 5 — not authorized.
    NotAuthorized,
}

impl ConnectReturnCode {
    pub const fn code(self) -> u8 {
        match self {
            ConnectReturnCode::Accepted => 0,
            ConnectReturnCode::BadProtocolVersion => 1,
            ConnectReturnCode::IdentifierRejected => 2,
            ConnectReturnCode::ServerUnavailable => 3,
            ConnectReturnCode::BadCredentials => 4,
            ConnectReturnCode::NotAuthorized => 5,
        }
    }

    pub const fn from_code(b: u8) -> Option<Self> {
        match b {
            0 => Some(ConnectReturnCode::Accepted),
            1 => Some(ConnectReturnCode::BadProtocolVersion),
            2 => Some(ConnectReturnCode::IdentifierRejected),
            3 => Some(ConnectReturnCode::ServerUnavailable),
            4 => Some(ConnectReturnCode::BadCredentials),
            5 => Some(ConnectReturnCode::NotAuthorized),
            _ => None,
        }
    }
}

/// An MQTT control packet (3.1.1 subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    Connect {
        client_id: String,
        username: Option<String>,
        password: Option<Vec<u8>>,
        keep_alive: u16,
        clean_session: bool,
    },
    ConnAck {
        session_present: bool,
        return_code: ConnectReturnCode,
    },
    Subscribe {
        packet_id: u16,
        /// (topic filter, requested QoS) pairs.
        topics: Vec<(String, u8)>,
    },
    SubAck {
        packet_id: u16,
        /// Granted QoS per topic, 0x80 = failure.
        return_codes: Vec<u8>,
    },
    Publish {
        topic: String,
        /// Present when QoS > 0.
        packet_id: Option<u16>,
        payload: Vec<u8>,
        qos: u8,
        retain: bool,
    },
    PingReq,
    PingResp,
    Disconnect,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u16(out, b.len() as u16);
    out.extend_from_slice(b);
}

/// Encode the MQTT variable-length integer.
pub fn encode_remaining_length(mut len: usize, out: &mut Vec<u8>) {
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if len == 0 {
            break;
        }
    }
}

/// Decode the variable-length integer; returns (value, bytes consumed).
pub fn decode_remaining_length(bytes: &[u8]) -> Result<(usize, usize), WireError> {
    let mut value = 0usize;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate().take(4) {
        value |= ((b & 0x7F) as usize) << shift;
        if b & 0x80 == 0 {
            if value > MAX_REMAINING {
                return Err(WireError::TooLarge {
                    what: "mqtt remaining length",
                    len: value,
                });
            }
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    if bytes.len() >= 4 {
        Err(WireError::invalid(
            "mqtt remaining length",
            "continuation bit set on 4th byte",
        ))
    } else {
        Err(WireError::truncated("mqtt remaining length", 1))
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        if self.remaining() < 1 {
            return Err(WireError::truncated(what, 1));
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }
    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        if self.remaining() < 2 {
            return Err(WireError::truncated(what, 2 - self.remaining()));
        }
        let v = u16::from_be_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::truncated(what, n - self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn lp_bytes(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.u16(what)? as usize;
        self.take(len, what)
    }
    fn lp_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let b = self.lp_bytes(what)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::invalid(what, "not UTF-8"))
    }
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

impl Packet {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let (first, body) = match self {
            Packet::Connect {
                client_id,
                username,
                password,
                keep_alive,
                clean_session,
            } => {
                let mut b = Vec::new();
                put_str(&mut b, "MQTT");
                b.push(4); // protocol level 4 = 3.1.1
                let mut flags = 0u8;
                if *clean_session {
                    flags |= 0x02;
                }
                if username.is_some() {
                    flags |= 0x80;
                }
                if password.is_some() {
                    flags |= 0x40;
                }
                b.push(flags);
                put_u16(&mut b, *keep_alive);
                put_str(&mut b, client_id);
                if let Some(u) = username {
                    put_str(&mut b, u);
                }
                if let Some(p) = password {
                    put_bytes(&mut b, p);
                }
                (0x10, b)
            }
            Packet::ConnAck {
                session_present,
                return_code,
            } => (
                0x20,
                vec![u8::from(*session_present), return_code.code()],
            ),
            Packet::Subscribe { packet_id, topics } => {
                let mut b = Vec::new();
                put_u16(&mut b, *packet_id);
                for (t, qos) in topics {
                    put_str(&mut b, t);
                    b.push(*qos);
                }
                (0x82, b) // reserved flags 0b0010 are mandatory
            }
            Packet::SubAck {
                packet_id,
                return_codes,
            } => {
                let mut b = Vec::new();
                put_u16(&mut b, *packet_id);
                b.extend_from_slice(return_codes);
                (0x90, b)
            }
            Packet::Publish {
                topic,
                packet_id,
                payload,
                qos,
                retain,
            } => {
                let mut b = Vec::new();
                put_str(&mut b, topic);
                if *qos > 0 {
                    put_u16(&mut b, packet_id.unwrap_or(0));
                }
                b.extend_from_slice(payload);
                let first = 0x30 | (qos << 1) | u8::from(*retain);
                (first, b)
            }
            Packet::PingReq => (0xC0, Vec::new()),
            Packet::PingResp => (0xD0, Vec::new()),
            Packet::Disconnect => (0xE0, Vec::new()),
        };
        let mut out = vec![first];
        encode_remaining_length(body.len(), &mut out);
        out.extend_from_slice(&body);
        out
    }

    /// Decode one packet; returns the packet and total bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Packet, usize), WireError> {
        if bytes.is_empty() {
            return Err(WireError::truncated("mqtt fixed header", 1));
        }
        let first = bytes[0];
        let (rem_len, rl_bytes) = decode_remaining_length(&bytes[1..])?;
        let total = 1 + rl_bytes + rem_len;
        if bytes.len() < total {
            return Err(WireError::truncated("mqtt body", total - bytes.len()));
        }
        let mut r = Reader::new(&bytes[1 + rl_bytes..total]);
        let packet = match first >> 4 {
            1 => {
                let proto = r.lp_str("mqtt protocol name")?;
                if proto != "MQTT" && proto != "MQIsdp" {
                    return Err(WireError::invalid("mqtt protocol name", proto));
                }
                let _level = r.u8("mqtt protocol level")?;
                let flags = r.u8("mqtt connect flags")?;
                let keep_alive = r.u16("mqtt keep alive")?;
                let client_id = r.lp_str("mqtt client id")?;
                let username = if flags & 0x80 != 0 {
                    Some(r.lp_str("mqtt username")?)
                } else {
                    None
                };
                let password = if flags & 0x40 != 0 {
                    Some(r.lp_bytes("mqtt password")?.to_vec())
                } else {
                    None
                };
                Packet::Connect {
                    client_id,
                    username,
                    password,
                    keep_alive,
                    clean_session: flags & 0x02 != 0,
                }
            }
            2 => {
                let ack_flags = r.u8("mqtt connack flags")?;
                let code = r.u8("mqtt connack code")?;
                Packet::ConnAck {
                    session_present: ack_flags & 1 != 0,
                    return_code: ConnectReturnCode::from_code(code).ok_or_else(|| {
                        WireError::invalid("mqtt connack code", code.to_string())
                    })?,
                }
            }
            8 => {
                let packet_id = r.u16("mqtt subscribe id")?;
                let mut topics = Vec::new();
                while r.remaining() > 0 {
                    let t = r.lp_str("mqtt topic filter")?;
                    let qos = r.u8("mqtt requested qos")?;
                    topics.push((t, qos));
                }
                Packet::Subscribe { packet_id, topics }
            }
            9 => {
                let packet_id = r.u16("mqtt suback id")?;
                Packet::SubAck {
                    packet_id,
                    return_codes: r.rest().to_vec(),
                }
            }
            3 => {
                let qos = (first >> 1) & 0x03;
                if qos == 3 {
                    return Err(WireError::invalid("mqtt publish qos", "3"));
                }
                let retain = first & 0x01 != 0;
                let topic = r.lp_str("mqtt publish topic")?;
                let packet_id = if qos > 0 {
                    Some(r.u16("mqtt publish id")?)
                } else {
                    None
                };
                Packet::Publish {
                    topic,
                    packet_id,
                    payload: r.rest().to_vec(),
                    qos,
                    retain,
                }
            }
            12 => Packet::PingReq,
            13 => Packet::PingResp,
            14 => Packet::Disconnect,
            t => {
                return Err(WireError::invalid("mqtt packet type", t.to_string()));
            }
        };
        Ok((packet, total))
    }

    /// Remove and decode every complete packet at the front of a stream
    /// buffer, in order. A partial packet stays buffered for the next
    /// segment; so do bytes that fail to decode, which stall the stream
    /// (an MQTT peer cannot resynchronise past garbage).
    pub fn drain(buf: &mut Vec<u8>) -> Vec<Packet> {
        let mut packets = Vec::new();
        let mut used = 0;
        while let Ok((packet, n)) = Packet::decode(&buf[used..]) {
            packets.push(packet);
            used += n;
        }
        buf.drain(..used);
        packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_connect() {
        let p = Packet::Connect {
            client_id: "zgrab".into(),
            username: None,
            password: None,
            keep_alive: 60,
            clean_session: true,
        };
        let wire = p.encode();
        // fixed header, remaining length 17
        assert_eq!(&wire[..2], &[0x10, 17]);
        // protocol name "MQTT" level 4
        assert_eq!(&wire[2..9], &[0, 4, b'M', b'Q', b'T', b'T', 4]);
        assert_eq!(wire[9], 0x02); // clean session only
        let (back, used) = Packet::decode(&wire).unwrap();
        assert_eq!(back, p);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn golden_connack_accepted() {
        // The paper's misconfiguration indicator: "MQTT Connection Code: 0".
        let p = Packet::ConnAck {
            session_present: false,
            return_code: ConnectReturnCode::Accepted,
        };
        assert_eq!(p.encode(), vec![0x20, 2, 0, 0]);
    }

    #[test]
    fn connack_not_authorized() {
        let p = Packet::ConnAck {
            session_present: false,
            return_code: ConnectReturnCode::NotAuthorized,
        };
        let wire = p.encode();
        assert_eq!(wire, vec![0x20, 2, 0, 5]);
        let (back, _) = Packet::decode(&wire).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn subscribe_sys_topics() {
        let p = Packet::Subscribe {
            packet_id: 1,
            topics: vec![("$SYS/#".into(), 0), ("#".into(), 0)],
        };
        let (back, _) = Packet::decode(&p.encode()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn publish_roundtrip_qos0_and_1() {
        for (qos, packet_id) in [(0u8, None), (1u8, Some(77))] {
            let p = Packet::Publish {
                topic: "homeassistant/light/state".into(),
                packet_id,
                payload: b"poisoned".to_vec(),
                qos,
                retain: qos == 1,
            };
            let (back, _) = Packet::decode(&p.encode()).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn credentials_roundtrip() {
        let p = Packet::Connect {
            client_id: "bot".into(),
            username: Some("admin".into()),
            password: Some(b"admin".to_vec()),
            keep_alive: 30,
            clean_session: false,
        };
        let (back, _) = Packet::decode(&p.encode()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn control_packets() {
        for p in [Packet::PingReq, Packet::PingResp, Packet::Disconnect] {
            let wire = p.encode();
            assert_eq!(wire.len(), 2);
            let (back, _) = Packet::decode(&wire).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn remaining_length_multi_byte() {
        let mut out = Vec::new();
        encode_remaining_length(321, &mut out);
        assert_eq!(out, vec![0xC1, 0x02]); // 321 = 0x141 -> 0b1100_0001, 0b0000_0010
        assert_eq!(decode_remaining_length(&out).unwrap(), (321, 2));
    }

    #[test]
    fn remaining_length_limits() {
        assert!(matches!(
            decode_remaining_length(&[0x80, 0x80, 0x80, 0x80]),
            Err(WireError::Invalid { .. })
        ));
        assert!(matches!(
            decode_remaining_length(&[0x80]),
            Err(WireError::Truncated { .. })
        ));
        // Over the sanity cap.
        let mut out = Vec::new();
        encode_remaining_length(MAX_REMAINING + 1, &mut out);
        assert!(matches!(
            decode_remaining_length(&out),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn drain_takes_complete_packets_and_keeps_the_rest() {
        // Two packets plus the first half of a third.
        let third = Packet::Publish {
            topic: "a/b".into(),
            packet_id: None,
            payload: b"xyz".to_vec(),
            qos: 0,
            retain: false,
        }
        .encode();
        let mut buf = Packet::PingReq.encode();
        buf.extend_from_slice(&Packet::Disconnect.encode());
        buf.extend_from_slice(&third[..4]);
        assert_eq!(
            Packet::drain(&mut buf),
            vec![Packet::PingReq, Packet::Disconnect]
        );
        assert_eq!(buf, &third[..4]);
        buf.extend_from_slice(&third[4..]);
        assert_eq!(Packet::drain(&mut buf).len(), 1);
        assert!(buf.is_empty());

        // Garbage stalls the stream: nothing decodes, nothing is consumed.
        let mut junk = vec![0x00, 0x00, 0xFF];
        assert!(Packet::drain(&mut junk).is_empty());
        assert_eq!(junk, vec![0x00, 0x00, 0xFF]);

        let mut empty = Vec::new();
        assert!(Packet::drain(&mut empty).is_empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Packet::decode(&[]).is_err());
        assert!(Packet::decode(&[0x00, 0x00]).is_err()); // type 0 is reserved
        assert!(Packet::decode(&[0x20, 2, 0, 99]).is_err()); // unknown connack code
    }
}
