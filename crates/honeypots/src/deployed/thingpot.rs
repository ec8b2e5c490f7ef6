//! ThingPot — the XMPP IoT honeypot.
//!
//! Deployed as a "Philips Hue Bridge" (Table 7): XMPP plus an HTTP frontend.
//! §5.1.2 records brute-force logins against the Hue system, dictionary
//! attacks, and malware logging in as anonymous users to flip the light
//! state (probing their write privileges).

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision};
use ofh_wire::xmpp::{Mechanism, StreamFeatures};
use ofh_wire::{ports, Protocol};

use crate::deployed::common::Sessions;
use crate::deployed::DeployedHoneypot;
use crate::events::{AttackEvent, EventKind, EventLog};

/// The ThingPot honeypot agent. Each session's state is whether the
/// client has opened its XMPP stream.
pub struct ThingPotHoneypot {
    pub log: EventLog,
    sessions: Sessions<bool>,
}

impl Default for ThingPotHoneypot {
    fn default() -> Self {
        Self::new()
    }
}

impl ThingPotHoneypot {
    pub fn new() -> Self {
        ThingPotHoneypot {
            log: EventLog::new("ThingPot"),
            sessions: Sessions::default(),
        }
    }

    fn features() -> StreamFeatures {
        StreamFeatures {
            from: "philips-hue".into(),
            id: "tp1".into(),
            starttls: None,
            mechanisms: vec![Mechanism::Plain, Mechanism::Anonymous],
            version: Some("ejabberd-2.1.11".into()),
        }
    }
}

impl DeployedHoneypot for ThingPotHoneypot {
    fn drain(&mut self) -> (Vec<AttackEvent>, u64) {
        (std::mem::take(&mut self.log.events), self.sessions.shed())
    }
}

impl Agent for ThingPotHoneypot {
    fn on_tcp_open(
        &mut self,
        ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        peer: SockAddr,
    ) -> TcpDecision {
        let protocol = match local_port {
            ports::XMPP_CLIENT | ports::XMPP_SERVER => Protocol::Xmpp,
            ports::HTTP => Protocol::Http,
            _ => return TcpDecision::Refuse,
        };
        if !self
            .sessions
            .admit(&mut self.log, ctx.now(), conn, protocol, peer)
        {
            return TcpDecision::Refuse;
        }
        TcpDecision::accept()
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let Some(s) = self.sessions.get_mut(conn) else {
            return;
        };
        let now = ctx.now();
        let peer = s.peer;
        // HTTP frontend, on either port.
        if data.starts_with(b"GET") || data.starts_with(b"POST") {
            let bridge = b"{\"bridgeid\":\"001788FFFE23A189\",\"name\":\"Philips hue\"}";
            s.http_page(ctx, conn, &mut self.log, data, bridge, "nginx");
            return;
        }
        let text = String::from_utf8_lossy(data).into_owned();
        if !s.state {
            if text.contains("<stream:stream") {
                s.state = true;
                ctx.tcp_send(conn, Self::features().render().into_bytes());
            }
            return;
        }
        if text.contains("mechanism='ANONYMOUS'") {
            self.log.log(
                now,
                Protocol::Xmpp,
                peer.addr,
                peer.port,
                EventKind::LoginAttempt {
                    username: "anonymous".into(),
                    password: String::new(),
                    success: true,
                },
            );
            ctx.tcp_send(conn, "<success xmlns='urn:ietf:params:xml:ns:xmpp-sasl'/>");
        } else if text.contains("mechanism='PLAIN'") {
            // PLAIN carries base64("\0user\0pass"); we log the raw blob the
            // same way ThingPot's logs keep the SASL exchange.
            let blob = text
                .split('>')
                .nth(1)
                .unwrap_or("")
                .split('<')
                .next()
                .unwrap_or("")
                .to_string();
            self.log.log(
                now,
                Protocol::Xmpp,
                peer.addr,
                peer.port,
                EventKind::LoginAttempt {
                    username: blob,
                    password: String::new(),
                    success: false,
                },
            );
            ctx.tcp_send(
                conn,
                "<failure xmlns='urn:ietf:params:xml:ns:xmpp-sasl'><not-authorized/></failure>",
            );
        } else if text.contains("<iq") && text.contains("type='set'") {
            self.log.log(
                now,
                Protocol::Xmpp,
                peer.addr,
                peer.port,
                EventKind::DataWrite { target: "hue-lights".into() },
            );
            ctx.tcp_send(conn, "<iq type='result'/>");
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
    use ofh_wire::xmpp::client_stream_open;

    struct XmppBot {
        dst: SockAddr,
        script: Vec<String>,
        step: usize,
    }

    impl Agent for XmppBot {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.tcp_connect(self.dst);
        }
        fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
            ctx.tcp_send(conn, client_stream_open("philips-hue").into_bytes());
        }
        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, _d: &Payload) {
            if self.step < self.script.len() {
                let m = self.script[self.step].clone();
                self.step += 1;
                ctx.tcp_send(conn, m.into_bytes());
            }
        }
    }

    #[test]
    fn anonymous_login_then_light_poisoning() {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 13);
        let hid = net.attach(haddr, Box::new(ThingPotHoneypot::new()));
        net.attach(
            ip(16, 1, 0, 95),
            Box::new(XmppBot {
                dst: SockAddr::new(haddr, 5222),
                script: vec![
                    "<auth xmlns='urn:ietf:params:xml:ns:xmpp-sasl' mechanism='ANONYMOUS'/>".into(),
                    "<iq type='set'><light state='off'/></iq>".into(),
                ],
                step: 0,
            }),
        );
        net.run_until(SimTime(60_000));
        let h = net.agent_downcast::<ThingPotHoneypot>(hid).unwrap();
        assert!(h.log.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::LoginAttempt { username, success: true, .. } if username == "anonymous"
        )));
        assert!(h
            .log
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::DataWrite { target } if target == "hue-lights")));
    }

    #[test]
    fn http_frontend_serves_bridge_json() {
        struct Web {
            dst: SockAddr,
            body: Vec<u8>,
        }
        impl Agent for Web {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.tcp_connect(self.dst);
            }
            fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
                ctx.tcp_send(conn, http::Request::get("/api/config").render());
            }
            fn on_tcp_data(&mut self, _c: &mut NetCtx<'_>, _conn: ConnToken, data: &Payload) {
                self.body.extend_from_slice(data);
            }
        }
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 13);
        let hid = net.attach(haddr, Box::new(ThingPotHoneypot::new()));
        let wid = net.attach(
            ip(16, 1, 0, 94),
            Box::new(Web { dst: SockAddr::new(haddr, 80), body: Vec::new() }),
        );
        net.run_until(SimTime(60_000));
        let body = net.agent_downcast::<Web>(wid).unwrap().body.clone();
        assert!(String::from_utf8_lossy(&body).contains("Philips hue"));
        let h = net.agent_downcast::<ThingPotHoneypot>(hid).unwrap();
        assert!(h.log.events.iter().any(|e| e.protocol == Protocol::Http));
    }
}
