//! AMQP broker device behaviour.
//!
//! Banner-grab flow: the client sends the 8-byte protocol header; the broker
//! answers with `Connection.Start`, whose server-properties disclose product
//! and version. A misconfigured broker (`AmqpNoAuth`) runs one of the
//! known-vulnerable RabbitMQ versions from Table 2 (2.7.1 / 2.8.4) and
//! offers `ANONYMOUS`; a configured one runs a modern version and requires
//! `PLAIN` credentials. Poisoning publishes after an anonymous handshake are
//! counted (§5.1.2 observed queue flooding to the point of DoS).

use std::sync::OnceLock;

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision, Transport};
use ofh_wire::amqp::{frame_type, ConnectionStart, Frame, PROTOCOL_HEADER};
use ofh_wire::{ports, Protocol};

use super::{ConnList, Responses};
use crate::misconfig::Misconfig;

/// The broker versions the population runs: a modern default, and the two
/// vulnerable versions of Table 2.
const VERSIONS: [&str; 3] = ["3.8.9", "2.7.1", "2.8.4"];

/// The `Connection.Start` frame a broker answers the protocol header with;
/// its server-properties disclose product and version.
fn connection_start(misconfig: Option<Misconfig>, version: &str) -> Vec<u8> {
    let mechanisms = if matches!(misconfig, Some(Misconfig::AmqpNoAuth)) {
        "ANONYMOUS PLAIN"
    } else {
        "PLAIN AMQPLAIN"
    };
    let start = ConnectionStart {
        version_major: 0,
        version_minor: 9,
        server_properties: vec![
            ("product".into(), "RabbitMQ".into()),
            ("version".into(), version.into()),
            ("platform".into(), "Erlang/OTP".into()),
        ],
        mechanisms: mechanisms.into(),
        locales: "en_US".into(),
    };
    Frame {
        frame_type: frame_type::METHOD,
        channel: 0,
        payload: start.encode_method(),
    }
    .encode()
}

/// `Connection.Start` frames by (offers ANONYMOUS, index in [`VERSIONS`]),
/// encoded once per process.
fn start_frames() -> &'static [[Box<[u8]>; 3]; 2] {
    static TABLE: OnceLock<[[Box<[u8]>; 3]; 2]> = OnceLock::new();
    TABLE.get_or_init(|| {
        [None, Some(Misconfig::AmqpNoAuth)]
            .map(|m| VERSIONS.map(|v| connection_start(m, v).into_boxed_slice()))
    })
}

/// A simulated AMQP broker on an IoT gateway.
pub struct AmqpDevice {
    pub misconfig: Option<Misconfig>,
    /// Ground truth: frames received after the handshake (publish flood /
    /// poisoning volume).
    pub post_handshake_frames: u64,
    /// The `Connection.Start` frame advertising the broker version.
    start: Responses<[u8]>,
    started: ConnList<bool>,
}

impl AmqpDevice {
    pub fn new(misconfig: Option<Misconfig>) -> Self {
        // The vulnerable versions of Table 2 on misconfigured brokers; the
        // population builder alternates 2.7.1 and 2.8.4 across them.
        let version = if misconfig.is_some() { "2.7.1" } else { "3.8.9" };
        AmqpDevice {
            misconfig,
            post_handshake_frames: 0,
            start: start_frame(misconfig, version),
            started: ConnList::default(),
        }
    }

    /// Override the advertised version (population builder alternates 2.7.1
    /// and 2.8.4 across the vulnerable population).
    pub fn with_version(mut self, version: &str) -> Self {
        self.start = start_frame(self.misconfig, version);
        self
    }
}

/// The start frame for `misconfig` and `version`: shared for the
/// population's versions, encoded here for any other.
fn start_frame(misconfig: Option<Misconfig>, version: &str) -> Responses<[u8]> {
    let anonymous = usize::from(matches!(misconfig, Some(Misconfig::AmqpNoAuth)));
    match VERSIONS.iter().position(|v| *v == version) {
        Some(i) => Responses::Shared(&*start_frames()[anonymous][i]),
        None => connection_start(misconfig, version).into(),
    }
}

impl Agent for AmqpDevice {
    fn on_tcp_open(
        &mut self,
        _ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        _peer: SockAddr,
    ) -> TcpDecision {
        if !super::serves(Protocol::Amqp, ports::AMQP, Transport::Tcp, local_port) {
            return TcpDecision::Refuse;
        }
        self.started.insert(conn, false);
        TcpDecision::accept()
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let started = self.started.get(conn).copied().unwrap_or(false);
        if !started {
            if data.starts_with(&PROTOCOL_HEADER) {
                self.started.insert(conn, true);
                ctx.tcp_send(conn, self.start.payload());
            } else {
                // Spec: a server that receives a bad header replies with the
                // header it expects and closes. The closer gets no
                // `on_tcp_closed`, so the entry goes here.
                ctx.tcp_send(conn, Payload::from_static(&PROTOCOL_HEADER));
                ctx.tcp_close(conn);
                self.started.remove(conn);
            }
            return;
        }
        // Post-handshake traffic: count frames (publish floods, poisoning).
        let mut rest = data.as_slice();
        while let Ok((_, used)) = Frame::decode(rest) {
            self.post_handshake_frames += 1;
            rest = &rest[used..];
            if rest.is_empty() {
                break;
            }
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.started.remove(conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};

    struct AmqpProbe {
        dst: SockAddr,
        send_bad_header: bool,
        publish_after: bool,
        start: Option<ConnectionStart>,
        closed: bool,
    }

    impl Agent for AmqpProbe {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.tcp_connect(self.dst);
        }
        fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
            if self.send_bad_header {
                ctx.tcp_send(conn, b"HTTP/1.1 GET /\r\n".to_vec());
            } else {
                ctx.tcp_send(conn, PROTOCOL_HEADER.to_vec());
            }
        }
        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
            if let Ok((frame, _)) = Frame::decode(data) {
                self.start = ConnectionStart::decode_method(&frame.payload).ok();
                if self.publish_after {
                    let junk = Frame {
                        frame_type: frame_type::BODY,
                        channel: 1,
                        payload: b"poison".to_vec(),
                    };
                    ctx.tcp_send(conn, junk.encode());
                }
            }
        }
        fn on_tcp_closed(&mut self, _c: &mut NetCtx<'_>, _conn: ConnToken) {
            self.closed = true;
        }
    }

    fn probe(device: AmqpDevice, bad_header: bool, publish: bool) -> (AmqpProbe, u64) {
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 9, 0, 1);
        let did = net.attach(daddr, Box::new(device));
        let pid = net.attach(
            ip(16, 9, 0, 2),
            Box::new(AmqpProbe {
                dst: SockAddr::new(daddr, 5672),
                send_bad_header: bad_header,
                publish_after: publish,
                start: None,
                closed: false,
            }),
        );
        net.run_until(SimTime(30_000));
        let p = net.agent_downcast::<AmqpProbe>(pid).unwrap();
        let probe = AmqpProbe {
            dst: p.dst,
            send_bad_header: p.send_bad_header,
            publish_after: p.publish_after,
            start: p.start.clone(),
            closed: p.closed,
        };
        let frames = net
            .agent_downcast::<AmqpDevice>(did)
            .unwrap()
            .post_handshake_frames;
        (probe, frames)
    }

    #[test]
    fn vulnerable_broker_banners_old_version_and_anonymous() {
        let (p, _) = probe(AmqpDevice::new(Some(Misconfig::AmqpNoAuth)), false, false);
        let start = p.start.unwrap();
        assert_eq!(start.property("version"), Some("2.7.1"));
        assert!(start.mechanisms.contains("ANONYMOUS"));
    }

    #[test]
    fn configured_broker_requires_plain() {
        let (p, _) = probe(AmqpDevice::new(None), false, false);
        let start = p.start.unwrap();
        assert_eq!(start.property("version"), Some("3.8.9"));
        assert!(!start.mechanisms.contains("ANONYMOUS"));
    }

    #[test]
    fn version_override() {
        let dev = AmqpDevice::new(Some(Misconfig::AmqpNoAuth)).with_version("2.8.4");
        let (p, _) = probe(dev, false, false);
        assert_eq!(p.start.unwrap().property("version"), Some("2.8.4"));
    }

    #[test]
    fn bad_header_closed() {
        let (p, _) = probe(AmqpDevice::new(None), true, false);
        assert!(p.start.is_none());
        assert!(p.closed);
    }

    #[test]
    fn bad_headers_leave_no_connection_state() {
        /// Opens `left` connections one after another, each with a bad header.
        struct Junk {
            dst: SockAddr,
            left: u32,
        }
        impl Agent for Junk {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.tcp_connect(self.dst);
            }
            fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
                ctx.tcp_send(conn, b"GET / HTTP/1.1\r\n".to_vec());
            }
            fn on_tcp_closed(&mut self, ctx: &mut NetCtx<'_>, _conn: ConnToken) {
                self.left -= 1;
                if self.left > 0 {
                    ctx.tcp_connect(self.dst);
                }
            }
        }
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 9, 0, 1);
        let did = net.attach(daddr, Box::new(AmqpDevice::new(None)));
        let jid = net.attach(
            ip(16, 9, 0, 2),
            Box::new(Junk {
                dst: SockAddr::new(daddr, 5672),
                left: 50,
            }),
        );
        net.run_until(SimTime(600_000));
        assert_eq!(net.agent_downcast::<Junk>(jid).unwrap().left, 0);
        assert!(net
            .agent_downcast::<AmqpDevice>(did)
            .unwrap()
            .started
            .is_empty());
    }

    #[test]
    fn post_handshake_frames_counted() {
        let (_, frames) = probe(AmqpDevice::new(Some(Misconfig::AmqpNoAuth)), false, true);
        assert_eq!(frames, 1);
    }

    #[test]
    fn shared_start_frames_match_the_per_connection_encoder() {
        let mut postures = vec![None];
        postures.extend(Misconfig::ALL.map(Some));
        for m in postures {
            for version in ["3.8.9", "2.7.1", "2.8.4"] {
                let dev = AmqpDevice::new(m).with_version(version);
                assert!(matches!(dev.start, Responses::Shared(_)));
                // As every connection encoded it before the shared table.
                let mechanisms = if m == Some(Misconfig::AmqpNoAuth) {
                    "ANONYMOUS PLAIN"
                } else {
                    "PLAIN AMQPLAIN"
                };
                let start = ConnectionStart {
                    version_major: 0,
                    version_minor: 9,
                    server_properties: vec![
                        ("product".into(), "RabbitMQ".into()),
                        ("version".into(), version.into()),
                        ("platform".into(), "Erlang/OTP".into()),
                    ],
                    mechanisms: mechanisms.into(),
                    locales: "en_US".into(),
                };
                let want = Frame {
                    frame_type: frame_type::METHOD,
                    channel: 0,
                    payload: start.encode_method(),
                }
                .encode();
                assert_eq!(&*dev.start, &want[..], "{m:?} {version}");
            }
        }
    }
}
