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

use std::sync::OnceLock;

use ofh_net::Payload;
use ofh_net::{Agent, NetCtx, SockAddr, Transport};
use ofh_wire::coap::{render_link_format, Code, LinkEntry, Message};
use ofh_wire::{ports, Protocol};

use super::{catalog_row, row_profiles, Responses};
use crate::misconfig::Misconfig;
use crate::profiles::DeviceProfile;

/// CoAP resource tree advertising a profile's identity.
fn resources_for(profile: Option<&DeviceProfile>) -> Vec<LinkEntry> {
    let mut entries = vec![LinkEntry {
        path: "/sensors/temp".into(),
        attrs: vec![("rt".into(), "temperature".into())],
    }];
    if let Some(p) = profile {
        if let Some(title) = p.identifier.strip_prefix("title: ") {
            entries.push(LinkEntry {
                path: "/qlink".into(),
                attrs: vec![("title".into(), title.to_string())],
            });
        } else {
            entries.push(LinkEntry {
                path: p.identifier.to_string(),
                attrs: vec![],
            });
        }
    }
    entries
}

/// The session marker a misconfigured posture puts before its resource
/// listing, by [`session`] index: none for a reflector, `220-Admin ` for an
/// admin session, `220 ` for a user session.
const SESSION_PREFIXES: [&str; 3] = ["", "220-Admin ", "220 "];

/// Which of [`SESSION_PREFIXES`] a misconfigured device shows.
fn session(misconfig: Misconfig) -> usize {
    match misconfig {
        Misconfig::CoapNoAuthAdmin => 1,
        Misconfig::CoapNoAuth => 2,
        _ => 0,
    }
}

/// An encoded reply to `req` minus its header and token: the options and
/// payload of a 2.05 Content carrying `body`.
fn content_tail(body: &str) -> Vec<u8> {
    let mut m = Message::content_response(&Message::well_known_core_request(0), body);
    m.token.clear();
    m.encode().split_off(4)
}

/// A reply to `req`: an acknowledgement header with `code` that echoes the
/// request's message id and token, then `tail`, the encoded options and
/// payload. Byte for byte what `Message::encode` gives for the same reply.
fn reply(req: &Message, code: Code, tail: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + req.token.len() + tail.len());
    // RFC 7252 §3: version 1, type Acknowledgement (2), token length.
    out.push(0x60 | req.token.len() as u8);
    out.push(code.0);
    out.extend_from_slice(&req.message_id.to_be_bytes());
    out.extend_from_slice(&req.token);
    out.extend_from_slice(tail);
    out
}

/// A device's resource tree and its `/.well-known/core` listing, encoded
/// once per session marker.
pub(crate) struct Resources {
    entries: Vec<LinkEntry>,
    /// [`content_tail`] of the listing, per [`session`] index.
    core: [Box<[u8]>; 3],
}

impl Resources {
    fn new(entries: Vec<LinkEntry>) -> Resources {
        let listing = render_link_format(&entries);
        Resources {
            core: SESSION_PREFIXES
                .map(|prefix| content_tail(&format!("{prefix}{listing}")).into_boxed_slice()),
            entries,
        }
    }

    fn knows(&self, path: &str) -> bool {
        self.entries.iter().any(|r| r.path.trim_start_matches('/') == path)
    }
}

/// Every catalog row's resources ([`catalog_row`]), encoded once per process.
fn resource_table() -> &'static [Resources] {
    static TABLE: OnceLock<Vec<Resources>> = OnceLock::new();
    TABLE.get_or_init(|| {
        row_profiles()
            .map(|profile| Resources::new(resources_for(profile)))
            .collect()
    })
}

/// A simulated CoAP-speaking IoT device.
pub struct CoapDevice {
    pub misconfig: Option<Misconfig>,
    /// Ground truth: datagrams answered (amplification volume measure).
    pub responses_sent: u64,
    /// Ground truth: PUT/POST poisoning writes accepted.
    pub poison_writes: u64,
    /// The device's resource tree (seeded from its profile — e.g. a router
    /// exposing `/ndm/login`).
    resources: Responses<Resources>,
}

impl CoapDevice {
    /// A device with its own resource tree, its listing encoded once here.
    pub fn new(misconfig: Option<Misconfig>, resources: Vec<LinkEntry>) -> Self {
        Self::with_resources(Responses::Own(Box::new(Resources::new(resources))), misconfig)
    }

    /// A device of the catalog: its resources are a shared table row.
    pub(crate) fn cataloged(
        profile: Option<&'static DeviceProfile>,
        misconfig: Option<Misconfig>,
    ) -> Self {
        let resources = match catalog_row(profile) {
            Some(row) => Responses::Shared(&resource_table()[row]),
            None => Responses::Own(Box::new(Resources::new(resources_for(profile)))),
        };
        Self::with_resources(resources, misconfig)
    }

    fn with_resources(resources: Responses<Resources>, misconfig: Option<Misconfig>) -> Self {
        CoapDevice {
            misconfig,
            responses_sent: 0,
            poison_writes: 0,
            resources,
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
            // Exposed but properly configured: an explicit 4.01.
            None => reply(&req, Code::UNAUTHORIZED, &[]),
            Some(m) => {
                let session = session(m);
                let path = req.uri_path();
                if req.code == Code::GET && path == ".well-known/core" {
                    reply(&req, Code::CONTENT, &self.resources.core[session])
                } else if req.code == Code::GET {
                    // Resource read; no-auth sessions reveal full access.
                    if !self.resources.knows(&path) {
                        reply(&req, Code::NOT_FOUND, &content_tail(""))
                    } else if session != 0 {
                        reply(&req, Code::CONTENT, &content_tail(&format!("x1C {path} content")))
                    } else {
                        reply(&req, Code::CONTENT, &content_tail(&format!("{path} content")))
                    }
                } else if matches!(req.code, Code::PUT | Code::POST) && session != 0 {
                    // Poisoning write accepted on no-auth sessions.
                    self.poison_writes += 1;
                    reply(&req, Code::CHANGED, &[])
                } else {
                    reply(&req, Code::FORBIDDEN, &[])
                }
            }
        };
        self.responses_sent += 1;
        ctx.udp_send(local_port, peer, reply);
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

    /// The `/.well-known/core` reply as every datagram encoded it before the
    /// shared table: a whole `Message` built from the request.
    fn core_reply_per_datagram(
        misconfig: Misconfig,
        entries: &[LinkEntry],
        req: &Message,
    ) -> Vec<u8> {
        let listing = render_link_format(entries);
        let body = match misconfig {
            Misconfig::CoapNoAuthAdmin => format!("220-Admin {listing}"),
            Misconfig::CoapNoAuth => format!("220 {listing}"),
            _ => listing,
        };
        Message::content_response(req, &body).encode()
    }

    #[test]
    fn shared_listings_match_the_per_datagram_encoder() {
        let req = Message::well_known_core_request(0x1234);
        for profile in row_profiles() {
            let entries = resources_for(profile);
            for m in Misconfig::ALL {
                let dev = CoapDevice::cataloged(profile, Some(m));
                assert!(matches!(dev.resources, Responses::Shared(_)));
                assert_eq!(dev.resources.entries, entries);
                let got = reply(&req, Code::CONTENT, &dev.resources.core[session(m)]);
                assert_eq!(got, core_reply_per_datagram(m, &entries, &req), "{profile:?} {m:?}");
            }
        }
    }

    proptest::proptest! {
        /// Header and token echoed in front of a cached tail equal a whole
        /// `Message::encode`, for any message id and token.
        #[test]
        fn replies_echo_any_message_id_and_token(
            message_id in proptest::prelude::any::<u16>(),
            token in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=8),
            session_ix in 0usize..3,
        ) {
            let mut req = Message::well_known_core_request(message_id);
            req.token = token;
            let resources = Resources::new(router_resources());
            let misconfig = [
                Misconfig::CoapReflection,
                Misconfig::CoapNoAuthAdmin,
                Misconfig::CoapNoAuth,
            ][session_ix];
            proptest::prop_assert_eq!(
                reply(&req, Code::CONTENT, &resources.core[session(misconfig)]),
                core_reply_per_datagram(misconfig, &router_resources(), &req)
            );
            let bare = Message {
                msg_type: ofh_wire::coap::MsgType::Acknowledgement,
                code: Code::UNAUTHORIZED,
                message_id,
                token: req.token.clone(),
                options: vec![],
                payload: vec![],
            };
            proptest::prop_assert_eq!(reply(&req, Code::UNAUTHORIZED, &[]), bare.encode());
        }
    }
}
