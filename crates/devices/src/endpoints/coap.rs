//! CoAP device behaviour.
//!
//! Four postures, matching Table 3's response indicators:
//!
//! * `CoapNoAuthAdmin` — responses begin `220-Admin` (admin-access session);
//! * `CoapNoAuth` — responses begin `220` (connected session, full access
//!   to resources; the `x1C` full-access marker appears on GETs);
//! * `CoapReflection` — plain `/.well-known/core` resource disclosure: the
//!   device answers anyone, making it a DoS amplification reflector (the
//!   response is far larger than the 21-byte query);
//! * configured — `4.01 Unauthorized` to everything (exposed but safe).

use ofh_net::Payload;
use ofh_net::{Agent, NetCtx, SockAddr, Transport};
use ofh_wire::coap::{render_link_format, Code, LinkEntry, Message, MsgType};
use ofh_wire::{ports, Protocol};

use crate::misconfig::Misconfig;

/// A simulated CoAP-speaking IoT device.
pub struct CoapDevice {
    pub misconfig: Option<Misconfig>,
    /// The device's resource tree (seeded from its profile — e.g. a router
    /// exposing `/ndm/login`).
    pub resources: Vec<LinkEntry>,
    /// Ground truth: datagrams answered (amplification volume measure).
    pub responses_sent: u64,
    /// Ground truth: PUT/POST poisoning writes accepted.
    pub poison_writes: u64,
}

impl CoapDevice {
    pub fn new(misconfig: Option<Misconfig>, resources: Vec<LinkEntry>) -> Self {
        CoapDevice {
            misconfig,
            resources,
            responses_sent: 0,
            poison_writes: 0,
        }
    }

    fn session_prefix(&self) -> Option<&'static str> {
        match self.misconfig {
            Some(Misconfig::CoapNoAuthAdmin) => Some("220-Admin "),
            Some(Misconfig::CoapNoAuth) => Some("220 "),
            _ => None,
        }
    }
}

impl Agent for CoapDevice {
    fn on_udp(&mut self, ctx: &mut NetCtx<'_>, local_port: u16, peer: SockAddr, payload: &Payload) {
        if !super::serves(Protocol::Coap, ports::COAP, Transport::Udp, local_port) {
            return;
        }
        let Ok(req) = Message::decode(payload) else {
            return; // malformed datagrams are dropped, never crash
        };
        if !req.code.is_request() {
            return;
        }
        let reply = match self.misconfig {
            None => {
                // Exposed but properly configured: an explicit 4.01.
                Message {
                    msg_type: MsgType::Acknowledgement,
                    code: Code::UNAUTHORIZED,
                    message_id: req.message_id,
                    token: req.token.clone(),
                    options: vec![],
                    payload: Vec::new(),
                }
            }
            Some(_) => {
                let path = req.uri_path();
                if req.code == Code::GET && path == ".well-known/core" {
                    let body = match self.session_prefix() {
                        Some(prefix) => {
                            format!("{prefix}{}", render_link_format(&self.resources))
                        }
                        None => render_link_format(&self.resources),
                    };
                    Message::content_response(&req, &body)
                } else if req.code == Code::GET {
                    // Resource read; no-auth sessions reveal full access.
                    let known = self.resources.iter().any(|r| r.path.trim_start_matches('/') == path);
                    let body = if !known {
                        String::new()
                    } else if self.session_prefix().is_some() {
                        format!("x1C {path} content")
                    } else {
                        format!("{path} content")
                    };
                    let mut m = Message::content_response(&req, &body);
                    if !known {
                        m.code = Code::NOT_FOUND;
                    }
                    m
                } else if matches!(req.code, Code::PUT | Code::POST)
                    && self.session_prefix().is_some()
                {
                    // Poisoning write accepted on no-auth sessions.
                    self.poison_writes += 1;
                    Message {
                        msg_type: MsgType::Acknowledgement,
                        code: Code::CHANGED,
                        message_id: req.message_id,
                        token: req.token.clone(),
                        options: vec![],
                        payload: Vec::new(),
                    }
                } else {
                    Message {
                        msg_type: MsgType::Acknowledgement,
                        code: Code::FORBIDDEN,
                        message_id: req.message_id,
                        token: req.token.clone(),
                        options: vec![],
                        payload: Vec::new(),
                    }
                }
            }
        };
        self.responses_sent += 1;
        ctx.udp_send(local_port, peer, reply.encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, Agent, ConnToken, SimNet, SimNetConfig, SimTime};

    struct CoapProbe {
        dst: SockAddr,
        request: Message,
        reply: Option<Message>,
    }

    impl Agent for CoapProbe {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.udp_send(40_001, self.dst, self.request.encode());
        }
        fn on_udp(&mut self, _c: &mut NetCtx<'_>, _p: u16, _peer: SockAddr, payload: &Payload) {
            self.reply = Message::decode(payload).ok();
        }
        fn on_tcp_closed(&mut self, _c: &mut NetCtx<'_>, _conn: ConnToken) {}
    }

    fn probe(device: CoapDevice, request: Message) -> (Option<Message>, u64, u64) {
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 7, 0, 1);
        let did = net.attach(daddr, Box::new(device));
        let pid = net.attach(
            ip(16, 7, 0, 2),
            Box::new(CoapProbe {
                dst: SockAddr::new(daddr, 5683),
                request,
                reply: None,
            }),
        );
        net.run_until(SimTime(30_000));
        let reply = net.agent_downcast::<CoapProbe>(pid).unwrap().reply.clone();
        let d = net.agent_downcast::<CoapDevice>(did).unwrap();
        (reply, d.responses_sent, d.poison_writes)
    }

    fn router_resources() -> Vec<LinkEntry> {
        vec![
            LinkEntry {
                path: "/ndm/login".into(),
                attrs: vec![],
            },
            LinkEntry {
                path: "/sensors/temp".into(),
                attrs: vec![("rt".into(), "temperature".into())],
            },
        ]
    }

    #[test]
    fn reflection_device_discloses_resources() {
        let (reply, sent, _) = probe(
            CoapDevice::new(Some(Misconfig::CoapReflection), router_resources()),
            Message::well_known_core_request(1),
        );
        let reply = reply.unwrap();
        assert_eq!(reply.code, Code::CONTENT);
        let body = String::from_utf8_lossy(&reply.payload).to_string();
        assert!(body.contains("/ndm/login"));
        assert!(!body.starts_with("220"));
        assert_eq!(sent, 1);
        // Amplification: response dwarfs the 21-byte probe.
        assert!(reply.encode().len() > Message::well_known_core_request(1).encode().len());
    }

    #[test]
    fn admin_session_marker() {
        let (reply, _, _) = probe(
            CoapDevice::new(Some(Misconfig::CoapNoAuthAdmin), router_resources()),
            Message::well_known_core_request(2),
        );
        let body = String::from_utf8_lossy(&reply.unwrap().payload).to_string();
        assert!(body.starts_with("220-Admin "), "got {body:?}");
    }

    #[test]
    fn noauth_session_marker_and_full_access() {
        let (reply, _, _) = probe(
            CoapDevice::new(Some(Misconfig::CoapNoAuth), router_resources()),
            Message::well_known_core_request(3),
        );
        let body = String::from_utf8_lossy(&reply.unwrap().payload).to_string();
        assert!(body.starts_with("220 "), "got {body:?}");

        // Reading a resource exposes the x1C full-access marker.
        let mut get = Message::well_known_core_request(4);
        get.options = vec![
            ofh_wire::coap::CoapOption {
                number: ofh_wire::coap::option_num::URI_PATH,
                value: b"sensors".to_vec(),
            },
            ofh_wire::coap::CoapOption {
                number: ofh_wire::coap::option_num::URI_PATH,
                value: b"temp".to_vec(),
            },
        ];
        let (reply, _, _) = probe(
            CoapDevice::new(Some(Misconfig::CoapNoAuth), router_resources()),
            get,
        );
        let body = String::from_utf8_lossy(&reply.unwrap().payload).to_string();
        assert!(body.starts_with("x1C"), "got {body:?}");
    }

    #[test]
    fn configured_device_says_unauthorized() {
        let (reply, _, _) = probe(
            CoapDevice::new(None, router_resources()),
            Message::well_known_core_request(5),
        );
        assert_eq!(reply.unwrap().code, Code::UNAUTHORIZED);
    }

    #[test]
    fn poisoning_write_counted() {
        let mut put = Message::well_known_core_request(6);
        put.code = Code::PUT;
        put.payload = b"poison".to_vec();
        let (reply, _, writes) = probe(
            CoapDevice::new(Some(Misconfig::CoapNoAuth), router_resources()),
            put,
        );
        assert_eq!(reply.unwrap().code, Code::CHANGED);
        assert_eq!(writes, 1);
    }

    #[test]
    fn reflection_device_refuses_writes() {
        let mut put = Message::well_known_core_request(7);
        put.code = Code::PUT;
        let (reply, _, writes) = probe(
            CoapDevice::new(Some(Misconfig::CoapReflection), router_resources()),
            put,
        );
        assert_eq!(reply.unwrap().code, Code::FORBIDDEN);
        assert_eq!(writes, 0);
    }

    #[test]
    fn garbage_datagram_ignored() {
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 7, 0, 1);
        let did = net.attach(
            daddr,
            Box::new(CoapDevice::new(Some(Misconfig::CoapReflection), vec![])),
        );
        struct Garbage {
            dst: SockAddr,
        }
        impl Agent for Garbage {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.udp_send(40_002, self.dst, vec![0xFF, 0x00, 0x01]);
            }
        }
        net.attach(
            ip(16, 7, 0, 2),
            Box::new(Garbage {
                dst: SockAddr::new(daddr, 5683),
            }),
        );
        net.run_until(SimTime(30_000));
        assert_eq!(net.agent_downcast::<CoapDevice>(did).unwrap().responses_sent, 0);
    }
}
