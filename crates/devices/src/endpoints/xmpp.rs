//! XMPP server device behaviour.
//!
//! Banner-grab flow: the client opens a stream; the server answers with its
//! stream header and `<stream:features>`. The two Table 2 indicators:
//! `MECHANISM <PLAIN>` (credentials in the clear — `XmppNoEncryption`) and
//! `MECHANISM <ANONYMOUS>` (login without credentials —
//! `XmppAnonymousLogin`, 143,986 devices in Table 5). ThingPot-style
//! brute-force and anonymous state-change attacks (§5.1.2) ride on the same
//! exchange.

use std::sync::OnceLock;

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision, Transport};
use ofh_wire::xmpp::{Mechanism, StreamFeatures, TlsPolicy};
use ofh_wire::{ports, Protocol};

use super::{text, ConnList, Responses};
use crate::misconfig::Misconfig;

/// The JID domain every device of the population advertises.
const GATEWAY_DOMAIN: &str = "iot-gateway";

const SASL_SUCCESS: &str = "<success xmlns='urn:ietf:params:xml:ns:xmpp-sasl'/>";
const SASL_FAILURE: &str =
    "<failure xmlns='urn:ietf:params:xml:ns:xmpp-sasl'><not-authorized/></failure>";

/// Which stream features a device with `misconfig` offers: TLS required
/// with SCRAM, PLAIN only, or ANONYMOUS and PLAIN.
fn posture(misconfig: Option<Misconfig>) -> usize {
    match misconfig {
        Some(Misconfig::XmppAnonymousLogin) => 2,
        Some(Misconfig::XmppNoEncryption) => 1,
        _ => 0,
    }
}

/// The stream header and `<stream:features>` a device sends once a client
/// opens its stream.
fn features(domain: &str, misconfig: Option<Misconfig>) -> Vec<u8> {
    let (starttls, mechanisms) = match posture(misconfig) {
        2 => (None, vec![Mechanism::Anonymous, Mechanism::Plain]),
        1 => (None, vec![Mechanism::Plain]),
        _ => (Some(TlsPolicy::Required), vec![Mechanism::ScramSha1]),
    };
    StreamFeatures {
        from: domain.to_string(),
        id: "s1".into(),
        starttls,
        mechanisms,
        version: None,
    }
    .render()
    .into_bytes()
}

/// The population's stream features per [`posture`], encoded once per
/// process.
fn gateway_features() -> &'static [Box<[u8]>; 3] {
    static TABLE: OnceLock<[Box<[u8]>; 3]> = OnceLock::new();
    TABLE.get_or_init(|| {
        [None, Some(Misconfig::XmppNoEncryption), Some(Misconfig::XmppAnonymousLogin)]
            .map(|m| features(GATEWAY_DOMAIN, m).into_boxed_slice())
    })
}

/// A simulated XMPP server on an IoT device.
pub struct XmppDevice {
    pub misconfig: Option<Misconfig>,
    /// Ground truth: anonymous logins performed.
    pub anonymous_logins: u64,
    /// Ground truth: state-change commands received from anonymous sessions
    /// (the light-toggling malware of §5.1.2).
    pub state_changes: u64,
    /// Stream features advertising the JID domain in the stream header.
    features: Responses<[u8]>,
    opened: ConnList<bool>,
}

impl XmppDevice {
    /// A server for `domain`; the population's domain shares its encoded
    /// features, any other is encoded once here.
    pub fn new(misconfig: Option<Misconfig>, domain: &str) -> Self {
        let features = if domain == GATEWAY_DOMAIN {
            Responses::Shared(&*gateway_features()[posture(misconfig)])
        } else {
            features(domain, misconfig).into()
        };
        XmppDevice {
            misconfig,
            anonymous_logins: 0,
            state_changes: 0,
            features,
            opened: ConnList::default(),
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
        let text_in = String::from_utf8_lossy(data);
        let opened = self.opened.get(conn).copied().unwrap_or(false);
        if !opened {
            if text_in.contains("<stream:stream") {
                self.opened.insert(conn, true);
                ctx.tcp_send(conn, self.features.payload());
            }
            return;
        }
        // SASL auth attempts.
        if text_in.contains("mechanism='ANONYMOUS'")
            || text_in.contains("mechanism=\"ANONYMOUS\"")
        {
            if matches!(self.misconfig, Some(Misconfig::XmppAnonymousLogin)) {
                self.anonymous_logins += 1;
                ctx.tcp_send(conn, text(SASL_SUCCESS));
            } else {
                ctx.tcp_send(conn, text(SASL_FAILURE));
            }
            return;
        }
        if text_in.contains("mechanism='PLAIN'") || text_in.contains("mechanism=\"PLAIN\"") {
            // No credential store on these devices: PLAIN always fails, but
            // the secret just crossed the wire — the misconfiguration.
            ctx.tcp_send(conn, text(SASL_FAILURE));
            return;
        }
        // IQ set = state change (e.g. toggling Hue lights).
        if text_in.contains("<iq") && text_in.contains("type='set'") {
            self.state_changes += 1;
            ctx.tcp_send(conn, text("<iq type='result'/>"));
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.opened.remove(conn);
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

    #[test]
    fn shared_features_match_the_per_stream_renderer() {
        let mut postures = vec![None];
        postures.extend(Misconfig::ALL.map(Some));
        for m in postures {
            let dev = XmppDevice::new(m, GATEWAY_DOMAIN);
            assert!(matches!(dev.features, Responses::Shared(_)));
            // As every stream rendered it before the shared table.
            let (starttls, mechanisms) = match m {
                Some(Misconfig::XmppAnonymousLogin) => {
                    (None, vec![Mechanism::Anonymous, Mechanism::Plain])
                }
                Some(Misconfig::XmppNoEncryption) => (None, vec![Mechanism::Plain]),
                _ => (Some(TlsPolicy::Required), vec![Mechanism::ScramSha1]),
            };
            let want = StreamFeatures {
                from: "iot-gateway".into(),
                id: "s1".into(),
                starttls,
                mechanisms,
                version: None,
            }
            .render();
            assert_eq!(&*dev.features, want.as_bytes(), "{m:?}");
        }
    }
}
