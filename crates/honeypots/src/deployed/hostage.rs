//! HosTaGe — the mobile multi-protocol low-interaction honeypot.
//!
//! Deployed as an "Arduino board with IoT protocols" (Table 7): Telnet,
//! MQTT, AMQP, CoAP, SSH, HTTP and SMB on one host. HosTaGe receives the
//! most attack events of any honeypot in Table 7 (73,763), and its CoAP
//! smoke-sensor profile is the reflection-attack magnet of §5.1.3.

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision};
use ofh_wire::amqp::{frame_type, ConnectionStart, Frame, PROTOCOL_HEADER};
use ofh_wire::coap::{render_link_format, Code, LinkEntry, Message, MsgType};
use ofh_wire::mqtt::Packet;
use ofh_wire::{ports, Protocol};

use crate::deployed::common::{
    extract_url, looks_like_binary, LoginMachine, LoginState, LoginStep, Sessions,
};
use crate::deployed::DeployedHoneypot;
use crate::events::{AttackEvent, EventKind, EventLog};

/// Per-connection state: the Telnet/SSH login dialogue and the AMQP
/// handshake progress.
#[derive(Debug, Default)]
struct Conn {
    login: LoginState,
    amqp_started: bool,
}

impl AsMut<LoginState> for Conn {
    fn as_mut(&mut self) -> &mut LoginState {
        &mut self.login
    }
}

/// The HosTaGe honeypot agent.
pub struct HosTaGeHoneypot {
    pub log: EventLog,
    telnet: LoginMachine,
    ssh: LoginMachine,
    sessions: Sessions<Conn>,
}

impl Default for HosTaGeHoneypot {
    fn default() -> Self {
        Self::new()
    }
}

impl HosTaGeHoneypot {
    pub fn new() -> Self {
        let mut telnet = LoginMachine::new(2);
        telnet.accept_creds.push(("admin".into(), "admin".into()));
        let ssh = LoginMachine::new(2);
        HosTaGeHoneypot {
            log: EventLog::new("HosTaGe"),
            telnet,
            ssh,
            sessions: Sessions::default(),
        }
    }

    fn coap_resources() -> Vec<LinkEntry> {
        vec![
            LinkEntry {
                path: "/sensors/smoke".into(),
                attrs: vec![("rt".into(), "smoke-sensor".into()), ("obs".into(), String::new())],
            },
            LinkEntry {
                path: "/sensors/temp".into(),
                attrs: vec![("rt".into(), "temperature".into())],
            },
        ]
    }
}

impl DeployedHoneypot for HosTaGeHoneypot {
    fn drain(&mut self) -> (Vec<AttackEvent>, u64) {
        (std::mem::take(&mut self.log.events), self.sessions.shed())
    }
}

impl Agent for HosTaGeHoneypot {
    fn on_tcp_open(
        &mut self,
        ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        peer: SockAddr,
    ) -> TcpDecision {
        let protocol = match local_port {
            ports::TELNET | ports::TELNET_ALT => Protocol::Telnet,
            ports::MQTT => Protocol::Mqtt,
            ports::AMQP => Protocol::Amqp,
            ports::SSH => Protocol::Ssh,
            ports::HTTP => Protocol::Http,
            ports::SMB => Protocol::Smb,
            _ => return TcpDecision::Refuse,
        };
        if !self
            .sessions
            .admit(&mut self.log, ctx.now(), conn, protocol, peer)
        {
            return TcpDecision::Refuse;
        }
        match protocol {
            Protocol::Telnet => {
                TcpDecision::accept_with(b"Arduino IoT Gateway\r\nlogin: ".to_vec())
            }
            Protocol::Ssh => {
                TcpDecision::accept_with(b"SSH-2.0-OpenSSH_7.4 ArduinoIoT\r\n".to_vec())
            }
            _ => TcpDecision::accept(),
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let Some(s) = self.sessions.get_mut(conn) else {
            return;
        };
        let now = ctx.now();
        match s.protocol {
            Protocol::Telnet | Protocol::Ssh => {
                if looks_like_binary(data) {
                    let drop = EventKind::PayloadDrop {
                        payload: data.to_vec(),
                        url: None,
                    };
                    s.log(&mut self.log, now, drop);
                    return;
                }
                let ssh = s.protocol == Protocol::Ssh;
                let machine = if ssh { &self.ssh } else { &self.telnet };
                for line in s.lines(data) {
                    if line.starts_with("SSH-") {
                        ctx.tcp_send(conn, "KEXINIT\n"); // see cowrie.rs
                        continue;
                    }
                    if ssh && s.ssh_auth(ctx, conn, &mut self.log, machine, &line) {
                        continue;
                    }
                    match machine.feed(&mut s.state.login, &line) {
                        LoginStep::Prompt(p) => ctx.tcp_send(conn, p),
                        LoginStep::Attempt {
                            username,
                            password,
                            success,
                        } => {
                            let attempt = EventKind::LoginAttempt {
                                username,
                                password,
                                success,
                            };
                            s.log(&mut self.log, now, attempt);
                            ctx.tcp_send(conn, if success { "$ " } else { "login: " });
                        }
                        LoginStep::Command(cmd) => {
                            if let Some(url) = extract_url(&cmd) {
                                let drop = EventKind::PayloadDrop {
                                    payload: Vec::new(),
                                    url: Some(url),
                                };
                                s.log(&mut self.log, now, drop);
                            }
                            s.log(&mut self.log, now, EventKind::Command { line: cmd });
                            ctx.tcp_send(conn, "$ ");
                        }
                    }
                }
            }
            Protocol::Mqtt => {
                s.buf.extend_from_slice(data);
                for packet in Packet::drain(&mut s.buf) {
                    // Beyond the shared broker, HosTaGe logs credentials
                    // and answers keep-alives.
                    match &packet {
                        Packet::Connect {
                            username: Some(u),
                            password: Some(p),
                            ..
                        } => {
                            let attempt = EventKind::LoginAttempt {
                                username: u.clone(),
                                password: String::from_utf8_lossy(p).into_owned(),
                                success: true,
                            };
                            s.log(&mut self.log, now, attempt);
                        }
                        Packet::PingReq => ctx.tcp_send(conn, Packet::PingResp.encode()),
                        _ => {}
                    }
                    s.mqtt_broker(ctx, conn, &mut self.log, packet);
                }
            }
            Protocol::Amqp => {
                if !s.state.amqp_started && data.starts_with(&PROTOCOL_HEADER) {
                    s.state.amqp_started = true;
                    let start = ConnectionStart {
                        version_major: 0,
                        version_minor: 9,
                        server_properties: vec![
                            ("product".into(), "RabbitMQ".into()),
                            ("version".into(), "2.7.1".into()),
                        ],
                        mechanisms: "ANONYMOUS PLAIN".into(),
                        locales: "en_US".into(),
                    };
                    ctx.tcp_send(
                        conn,
                        Frame {
                            frame_type: frame_type::METHOD,
                            channel: 0,
                            payload: start.encode_method(),
                        }
                        .encode(),
                    );
                } else if s.state.amqp_started {
                    // Publishes / floods: every frame is a data write.
                    let mut rest = data.as_slice();
                    while let Ok((_, used)) = Frame::decode(rest) {
                        s.log(
                            &mut self.log,
                            now,
                            EventKind::DataWrite {
                                target: "amqp-queue".into(),
                            },
                        );
                        rest = &rest[used..];
                        if rest.is_empty() {
                            break;
                        }
                    }
                }
            }
            Protocol::Http => s.http_page(
                ctx,
                conn,
                &mut self.log,
                data,
                b"<html><title>Arduino IoT Gateway</title><form>login</form></html>",
                "ArduinoWebServer/1.0",
            ),
            Protocol::Smb => s.smb_lure(ctx, conn, &mut self.log, data),
            _ => {}
        }
    }

    fn on_udp(&mut self, ctx: &mut NetCtx<'_>, local_port: u16, peer: SockAddr, payload: &Payload) {
        if local_port != ports::COAP {
            return;
        }
        let now = ctx.now();
        let Ok(req) = Message::decode(payload) else {
            self.log.log(
                now,
                Protocol::Coap,
                peer.addr,
                peer.port,
                EventKind::Datagram { len: payload.len() },
            );
            return;
        };
        if req.code == Code::GET && req.uri_path() == ".well-known/core" {
            self.log.log(now, Protocol::Coap, peer.addr, peer.port, EventKind::Discovery);
            let body = render_link_format(&Self::coap_resources());
            ctx.udp_send(local_port, peer, Message::content_response(&req, &body).encode());
        } else if matches!(req.code, Code::PUT | Code::POST) {
            self.log.log(
                now,
                Protocol::Coap,
                peer.addr,
                peer.port,
                EventKind::DataWrite { target: req.uri_path() },
            );
            let reply = Message {
                msg_type: MsgType::Acknowledgement,
                code: Code::CHANGED,
                message_id: req.message_id,
                token: req.token.clone(),
                options: vec![],
                payload: Vec::new(),
            };
            ctx.udp_send(local_port, peer, reply.encode());
        } else {
            self.log.log(
                now,
                Protocol::Coap,
                peer.addr,
                peer.port,
                EventKind::Datagram { len: payload.len() },
            );
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.sessions.close(conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};
    use ofh_wire::http;
    use ofh_wire::smb::{command as smb_cmd, SmbMessage};

    struct Driver {
        dst: SockAddr,
        udp: Option<Vec<u8>>,
        tcp_script: Vec<Vec<u8>>,
        step: usize,
        got_udp: Vec<Vec<u8>>,
    }

    impl Agent for Driver {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            if let Some(p) = self.udp.take() {
                ctx.udp_send(41_000, self.dst, p);
            } else {
                ctx.tcp_connect(self.dst);
            }
        }
        fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
            if self.step < self.tcp_script.len() {
                let m = self.tcp_script[self.step].clone();
                self.step += 1;
                ctx.tcp_send(conn, m);
            }
        }
        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, _d: &Payload) {
            if self.step < self.tcp_script.len() {
                let m = self.tcp_script[self.step].clone();
                self.step += 1;
                ctx.tcp_send(conn, m);
            }
        }
        fn on_udp(&mut self, _c: &mut NetCtx<'_>, _p: u16, _peer: SockAddr, payload: &Payload) {
            self.got_udp.push(payload.to_vec());
        }
    }

    fn run(port: u16, udp: Option<Vec<u8>>, tcp_script: Vec<Vec<u8>>) -> (EventLog, Vec<Vec<u8>>) {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 11);
        let hid = net.attach(haddr, Box::new(HosTaGeHoneypot::new()));
        let did = net.attach(
            ip(16, 1, 0, 98),
            Box::new(Driver {
                dst: SockAddr::new(haddr, port),
                udp,
                tcp_script,
                step: 0,
                got_udp: Vec::new(),
            }),
        );
        net.run_until(SimTime(120_000));
        let got_udp = net.agent_downcast::<Driver>(did).unwrap().got_udp.clone();
        let h = net.agent_downcast_mut::<HosTaGeHoneypot>(hid).unwrap();
        (std::mem::take(&mut h.log), got_udp)
    }

    #[test]
    fn coap_discovery_answered_and_logged() {
        let probe = Message::well_known_core_request(5).encode();
        let (log, replies) = run(5683, Some(probe), vec![]);
        assert!(log.events.iter().any(|e| matches!(e.kind, EventKind::Discovery)));
        let reply = Message::decode(&replies[0]).unwrap();
        assert!(String::from_utf8_lossy(&reply.payload).contains("smoke-sensor"));
    }

    #[test]
    fn coap_put_is_poisoning() {
        let mut put = Message::well_known_core_request(6);
        put.code = Code::PUT;
        let (log, _) = run(5683, Some(put.encode()), vec![]);
        assert!(log
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::DataWrite { .. })));
    }

    #[test]
    fn mqtt_connect_and_publish_logged() {
        let connect = Packet::Connect {
            client_id: "bot".into(),
            username: None,
            password: None,
            keep_alive: 0,
            clean_session: true,
        }
        .encode();
        let publish = Packet::Publish {
            topic: "arduino/state".into(),
            packet_id: None,
            payload: b"poison".to_vec(),
            qos: 0,
            retain: false,
        }
        .encode();
        let (log, _) = run(1883, None, vec![connect, publish]);
        assert!(log.events.iter().any(|e| e.protocol == Protocol::Mqtt
            && matches!(&e.kind, EventKind::DataWrite { target } if target == "arduino/state")));
    }

    #[test]
    fn smb_trans2_flagged_as_exploit() {
        let msg = SmbMessage {
            command: smb_cmd::TRANS2,
            status: 0,
            flags2: 0,
            mid: 1,
            data: b"exploit".to_vec(),
        };
        let (log, _) = run(445, None, vec![msg.encode()]);
        assert!(log.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::ExploitSignature { name } if name.contains("Trans2")
        )));
    }

    #[test]
    fn http_request_logged_with_path() {
        let req = http::Request::get("/admin/login").render();
        let (log, _) = run(80, None, vec![req]);
        assert!(log.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::HttpRequest { path } if path == "/admin/login"
        )));
    }

    #[test]
    fn amqp_handshake_then_flood_counts_writes() {
        let mut flood = Vec::new();
        for _ in 0..3 {
            flood.extend_from_slice(
                &Frame {
                    frame_type: frame_type::BODY,
                    channel: 1,
                    payload: b"x".to_vec(),
                }
                .encode(),
            );
        }
        let (log, _) = run(5672, None, vec![PROTOCOL_HEADER.to_vec(), flood]);
        let writes = log
            .events
            .iter()
            .filter(|e| e.protocol == Protocol::Amqp && matches!(e.kind, EventKind::DataWrite { .. }))
            .count();
        assert_eq!(writes, 3);
    }
}
