//! XMPP server device behaviour.
//!
//! Banner-grab flow: the client opens a stream; the server answers with its
//! stream header and `<stream:features>`. The two Table 2 indicators:
//! `MECHANISM <PLAIN>` (credentials in the clear — `XmppNoEncryption`) and
//! `MECHANISM <ANONYMOUS>` (login without credentials —
//! `XmppAnonymousLogin`, 143,986 devices in Table 5). ThingPot-style
//! brute-force and anonymous state-change attacks (§5.1.2) ride on the same
//! exchange.

use std::collections::HashMap;

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision, Transport};
use ofh_wire::xmpp::{Mechanism, StreamFeatures, TlsPolicy};
use ofh_wire::{ports, Protocol};

use crate::misconfig::Misconfig;

/// A simulated XMPP server on an IoT device.
pub struct XmppDevice {
    pub misconfig: Option<Misconfig>,
    /// JID domain advertised in the stream header.
    pub domain: String,
    /// Ground truth: anonymous logins performed.
    pub anonymous_logins: u64,
    /// Ground truth: state-change commands received from anonymous sessions
    /// (the light-toggling malware of §5.1.2).
    pub state_changes: u64,
    opened: HashMap<ConnToken, bool>,
}

impl XmppDevice {
    pub fn new(misconfig: Option<Misconfig>, domain: impl Into<String>) -> Self {
        XmppDevice {
            misconfig,
            domain: domain.into(),
            anonymous_logins: 0,
            state_changes: 0,
            opened: HashMap::new(),
        }
    }

    fn features(&self) -> StreamFeatures {
        let (starttls, mechanisms) = match self.misconfig {
            Some(Misconfig::XmppAnonymousLogin) => {
                (None, vec![Mechanism::Anonymous, Mechanism::Plain])
            }
            Some(Misconfig::XmppNoEncryption) => (None, vec![Mechanism::Plain]),
            _ => (
                Some(TlsPolicy::Required),
                vec![Mechanism::ScramSha1],
            ),
        };
        StreamFeatures {
            from: self.domain.clone(),
            id: "s1".into(),
            starttls,
            mechanisms,
            version: None,
        }
    }
}

impl Agent for XmppDevice {
    fn on_tcp_open(
        &mut self,
        _ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        _peer: SockAddr,
    ) -> TcpDecision {
        if !super::serves(
            Protocol::Xmpp,
            ports::XMPP_CLIENT,
            Transport::Tcp,
            local_port,
        ) {
            return TcpDecision::Refuse;
        }
        self.opened.insert(conn, false);
        TcpDecision::accept()
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let text = String::from_utf8_lossy(data).into_owned();
        let opened = self.opened.get(&conn).copied().unwrap_or(false);
        if !opened {
            if text.contains("<stream:stream") {
                self.opened.insert(conn, true);
                ctx.tcp_send(conn, self.features().render().into_bytes());
            }
            return;
        }
        // SASL auth attempts.
        if text.contains("mechanism='ANONYMOUS'") || text.contains("mechanism=\"ANONYMOUS\"") {
            if matches!(self.misconfig, Some(Misconfig::XmppAnonymousLogin)) {
                self.anonymous_logins += 1;
                ctx.tcp_send(conn, "<success xmlns='urn:ietf:params:xml:ns:xmpp-sasl'/>");
            } else {
                ctx.tcp_send(
                    conn,
                    "<failure xmlns='urn:ietf:params:xml:ns:xmpp-sasl'><not-authorized/></failure>",
                );
            }
            return;
        }
        if text.contains("mechanism='PLAIN'") || text.contains("mechanism=\"PLAIN\"") {
            // No credential store on these devices: PLAIN always fails, but
            // the secret just crossed the wire — the misconfiguration.
            ctx.tcp_send(
                conn,
                "<failure xmlns='urn:ietf:params:xml:ns:xmpp-sasl'><not-authorized/></failure>",
            );
            return;
        }
        // IQ set = state change (e.g. toggling Hue lights).
        if text.contains("<iq") && text.contains("type='set'") {
            self.state_changes += 1;
            ctx.tcp_send(conn, "<iq type='result'/>");
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.opened.remove(&conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};
    use ofh_wire::xmpp::client_stream_open;

    struct XmppProbe {
        dst: SockAddr,
        then_send: Vec<String>,
        features: Option<StreamFeatures>,
        replies: Vec<String>,
        sent: usize,
    }

    impl Agent for XmppProbe {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.tcp_connect(self.dst);
        }
        fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
            ctx.tcp_send(conn, client_stream_open("target").into_bytes());
        }
        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
            let text = String::from_utf8_lossy(data).into_owned();
            if self.features.is_none() {
                self.features = StreamFeatures::parse(&text).ok();
            } else {
                self.replies.push(text);
            }
            if self.sent < self.then_send.len() {
                let msg = self.then_send[self.sent].clone();
                self.sent += 1;
                ctx.tcp_send(conn, msg.into_bytes());
            }
        }
    }

    fn probe(device: XmppDevice, then_send: Vec<String>) -> (Option<StreamFeatures>, Vec<String>, u64, u64) {
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 10, 0, 1);
        let did = net.attach(daddr, Box::new(device));
        let pid = net.attach(
            ip(16, 10, 0, 2),
            Box::new(XmppProbe {
                dst: SockAddr::new(daddr, 5222),
                then_send,
                features: None,
                replies: Vec::new(),
                sent: 0,
            }),
        );
        net.run_until(SimTime(30_000));
        let p = net.agent_downcast::<XmppProbe>(pid).unwrap();
        let (features, replies) = (p.features.clone(), p.replies.clone());
        let d = net.agent_downcast::<XmppDevice>(did).unwrap();
        (features, replies, d.anonymous_logins, d.state_changes)
    }

    #[test]
    fn anonymous_device_advertises_anonymous() {
        let (features, _, _, _) = probe(
            XmppDevice::new(Some(Misconfig::XmppAnonymousLogin), "hue-bridge"),
            vec![],
        );
        let f = features.unwrap();
        assert!(f.offers(Mechanism::Anonymous));
        assert!(f.starttls.is_none());
    }

    #[test]
    fn plain_device_advertises_plain_only() {
        let (features, _, _, _) = probe(
            XmppDevice::new(Some(Misconfig::XmppNoEncryption), "gw"),
            vec![],
        );
        let f = features.unwrap();
        assert!(f.offers(Mechanism::Plain));
        assert!(!f.offers(Mechanism::Anonymous));
    }

    #[test]
    fn secure_device_requires_tls_and_scram() {
        let (features, _, _, _) = probe(XmppDevice::new(None, "secure"), vec![]);
        let f = features.unwrap();
        assert_eq!(f.starttls, Some(TlsPolicy::Required));
        assert!(f.offers(Mechanism::ScramSha1));
        assert!(!f.offers(Mechanism::Plain));
    }

    #[test]
    fn anonymous_login_then_state_change() {
        let (_, replies, logins, changes) = probe(
            XmppDevice::new(Some(Misconfig::XmppAnonymousLogin), "hue"),
            vec![
                "<auth xmlns='urn:ietf:params:xml:ns:xmpp-sasl' mechanism='ANONYMOUS'/>".into(),
                "<iq type='set'><light state='off'/></iq>".into(),
            ],
        );
        assert!(replies.iter().any(|r| r.contains("<success")));
        assert_eq!(logins, 1);
        assert_eq!(changes, 1);
    }

    #[test]
    fn anonymous_rejected_on_secure_device() {
        let (_, replies, logins, _) = probe(
            XmppDevice::new(None, "secure"),
            vec!["<auth xmlns='urn:ietf:params:xml:ns:xmpp-sasl' mechanism='ANONYMOUS'/>".into()],
        );
        assert!(replies.iter().any(|r| r.contains("<failure")));
        assert_eq!(logins, 0);
    }
}
