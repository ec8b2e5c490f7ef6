//! UPnP/SSDP device behaviour.
//!
//! A misconfigured stack (`UpnpReflection`) answers any `ssdp:discover` with
//! a root-device disclosure — the Table 3 indicator and the largest
//! misconfiguration class of Table 5 — followed by the device-description
//! block the ZTag engine identifies models from (`Friendly Name:`,
//! `Model Name:`, Appendix Table 11). An exposed-but-configured stack
//! answers with a bare service ST (no root device, no description): the port
//! is provably open, but nothing is disclosed.
//!
//! *Substitution note* (documented in DESIGN.md): real UPnP serves the
//! description XML over HTTP at `LOCATION`; we append the description text
//! to the SSDP response so the single UDP exchange carries the same
//! information content the paper's pipeline extracted.

use std::sync::OnceLock;

use ofh_net::Payload;
use ofh_net::{Agent, NetCtx, SockAddr, Transport};
use ofh_wire::ssdp::{self, DeviceDescription, SsdpMessage};
use ofh_wire::{ports, Protocol};

use super::{catalog_row, row_profiles, Responses};
use crate::misconfig::Misconfig;
use crate::profiles::DeviceProfile;

/// USN uuid of every simulated stack.
const UUID: &str = "5a34308c-1a2c-4546-ac5d-7663dd01dca1";

/// `SERVER:` value and description block for a UPnP profile.
fn identity_for(profile: Option<&DeviceProfile>) -> (String, DeviceDescription) {
    let mut server = "Linux/2.x UPnP/1.0 Generic/1.0".to_string();
    let mut d = DeviceDescription::default();
    if let Some(p) = profile {
        let id = p.identifier;
        if let Some(v) = id.strip_prefix("Server: ") {
            server = v.to_string();
        } else if let Some(v) = id.strip_prefix("Friendly Name: ") {
            d.friendly_name = v.to_string();
        } else if let Some(v) = id.strip_prefix("Model Name: ") {
            d.model_name = v.to_string();
        } else if let Some(v) = id.strip_prefix("Manufacturer: ") {
            d.manufacturer = v.to_string();
        } else if let Some(v) = id.strip_prefix("Model Description: ") {
            d.model_description = v.to_string();
        } else if let Some(v) = id.strip_prefix("Model Number: ") {
            d.model_number = v.to_string();
        }
    }
    (server, d)
}

/// The whole reply a device sends to every discovery probe.
fn discovery_reply(
    misconfig: Option<Misconfig>,
    server: &str,
    description: &DeviceDescription,
) -> Vec<u8> {
    let reply = match misconfig {
        Some(Misconfig::UpnpReflection) => {
            let resp = SsdpMessage::discovery_response(
                server,
                UUID,
                "http://192.168.0.1:16537/rootDesc.xml",
            );
            // Append the description block (see module docs).
            format!("{}{}", resp.render(), description.render())
        }
        _ => {
            // Configured: advertise a single service, disclose nothing.
            let resp = SsdpMessage {
                start_line: "HTTP/1.1 200 OK".into(),
                headers: vec![
                    ("CACHE-CONTROL".into(), "max-age=120".into()),
                    ("ST".into(), "urn:schemas-upnp-org:service:ConnectionManager:1".into()),
                    ("EXT".into(), String::new()),
                ],
            };
            resp.render()
        }
    };
    reply.into_bytes()
}

/// Discovery replies encoded once per process: the reflecting reply of
/// every catalog row ([`catalog_row`]), and the configured stacks' one
/// bare reply, which discloses no identity.
struct Replies {
    reflecting: Vec<Box<[u8]>>,
    bare: Box<[u8]>,
}

fn replies() -> &'static Replies {
    static TABLE: OnceLock<Replies> = OnceLock::new();
    TABLE.get_or_init(|| Replies {
        reflecting: row_profiles()
            .map(|profile| {
                let (server, description) = identity_for(profile);
                discovery_reply(Some(Misconfig::UpnpReflection), &server, &description)
                    .into_boxed_slice()
            })
            .collect(),
        bare: discovery_reply(None, "", &DeviceDescription::default()).into_boxed_slice(),
    })
}

/// A simulated SSDP/UPnP-speaking IoT device.
pub struct UpnpDevice {
    pub misconfig: Option<Misconfig>,
    /// Ground truth: discovery responses emitted (reflection volume).
    pub responses_sent: u64,
    /// The discovery reply: the `SERVER:` header (e.g.
    /// `Linux/2.x UPnP/1.0 Avtech/1.0`) and the description block (friendly
    /// name, model) of a reflecting stack, or a bare service advert.
    reply: Responses<[u8]>,
}

impl UpnpDevice {
    /// A device with its own identity, its reply encoded once here.
    pub fn new(misconfig: Option<Misconfig>, server: &str, description: DeviceDescription) -> Self {
        Self::with_reply(discovery_reply(misconfig, server, &description).into(), misconfig)
    }

    /// A device of the catalog: its reply is a shared table entry.
    pub(crate) fn cataloged(
        profile: Option<&'static DeviceProfile>,
        misconfig: Option<Misconfig>,
    ) -> Self {
        let reply = match (misconfig, catalog_row(profile)) {
            (Some(Misconfig::UpnpReflection), Some(row)) => {
                Responses::Shared(&*replies().reflecting[row])
            }
            (Some(Misconfig::UpnpReflection), None) => {
                let (server, description) = identity_for(profile);
                discovery_reply(misconfig, &server, &description).into()
            }
            _ => Responses::Shared(&*replies().bare),
        };
        Self::with_reply(reply, misconfig)
    }

    fn with_reply(reply: Responses<[u8]>, misconfig: Option<Misconfig>) -> Self {
        UpnpDevice {
            misconfig,
            responses_sent: 0,
            reply,
        }
    }
}

impl Agent for UpnpDevice {
    fn on_udp(&mut self, ctx: &mut NetCtx<'_>, local_port: u16, peer: SockAddr, payload: &Payload) {
        if !super::serves(Protocol::Upnp, ports::SSDP, Transport::Udp, local_port) {
            return;
        }
        if !std::str::from_utf8(payload).is_ok_and(ssdp::is_msearch) {
            return;
        }
        self.responses_sent += 1;
        ctx.udp_send(local_port, peer, self.reply.payload());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};
    use ofh_wire::ssdp::msearch_all;

    struct Discoverer {
        dst: SockAddr,
        reply: Option<String>,
    }

    impl Agent for Discoverer {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.udp_send(40_003, self.dst, msearch_all().into_bytes());
        }
        fn on_udp(&mut self, _c: &mut NetCtx<'_>, _p: u16, _peer: SockAddr, payload: &Payload) {
            self.reply = Some(String::from_utf8_lossy(payload).into_owned());
        }
    }

    fn discover(device: UpnpDevice) -> Option<String> {
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 8, 0, 1);
        net.attach(daddr, Box::new(device));
        let pid = net.attach(
            ip(16, 8, 0, 2),
            Box::new(Discoverer {
                dst: SockAddr::new(daddr, 1900),
                reply: None,
            }),
        );
        net.run_until(SimTime(30_000));
        net.agent_downcast::<Discoverer>(pid).unwrap().reply.clone()
    }

    fn hue() -> DeviceDescription {
        DeviceDescription {
            friendly_name: "Philips hue".into(),
            manufacturer: "Signify".into(),
            model_name: "Philips hue bridge 2015".into(),
            model_description: String::new(),
            model_number: "BSB002".into(),
        }
    }

    #[test]
    fn reflector_discloses_rootdevice_and_model() {
        let reply = discover(UpnpDevice::new(
            Some(Misconfig::UpnpReflection),
            "Linux/3.14 UPnP/1.0 IpBridge/1.16.0",
            hue(),
        ))
        .unwrap();
        assert!(reply.contains("upnp:rootdevice"));
        assert!(reply.contains("Model Name: Philips hue bridge 2015"));
        assert!(reply.contains("SERVER: Linux/3.14 UPnP/1.0 IpBridge/1.16.0"));
        // Amplification: response ≫ the probe.
        assert!(reply.len() > msearch_all().len() * 2);
    }

    #[test]
    fn configured_device_discloses_nothing() {
        let reply = discover(UpnpDevice::new(None, "SecureStack/1.0", hue())).unwrap();
        assert!(!reply.contains("rootdevice"));
        assert!(!reply.contains("Model Name"));
        assert!(reply.contains("200 OK")); // still provably exposed
    }

    #[test]
    fn non_msearch_ignored() {
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 8, 0, 1);
        let did = net.attach(
            daddr,
            Box::new(UpnpDevice::new(Some(Misconfig::UpnpReflection), "X", hue())),
        );
        struct Notifier {
            dst: SockAddr,
        }
        impl Agent for Notifier {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.udp_send(40_004, self.dst, b"NOTIFY * HTTP/1.1\r\n\r\n".to_vec());
                ctx.udp_send(40_004, self.dst, vec![0xFF, 0xFE]);
            }
        }
        net.attach(ip(16, 8, 0, 2), Box::new(Notifier { dst: SockAddr::new(daddr, 1900) }));
        net.run_until(SimTime(30_000));
        assert_eq!(net.agent_downcast::<UpnpDevice>(did).unwrap().responses_sent, 0);
    }

    /// The reply as every datagram rendered it before the shared table.
    fn reply_per_datagram(misconfig: Option<Misconfig>, profile: Option<&DeviceProfile>) -> String {
        let (server, description) = identity_for(profile);
        match misconfig {
            Some(Misconfig::UpnpReflection) => {
                let resp = SsdpMessage::discovery_response(
                    &server,
                    "5a34308c-1a2c-4546-ac5d-7663dd01dca1",
                    "http://192.168.0.1:16537/rootDesc.xml",
                );
                format!("{}{}", resp.render(), description.render())
            }
            _ => "HTTP/1.1 200 OK\r\nCACHE-CONTROL: max-age=120\r\n\
                  ST: urn:schemas-upnp-org:service:ConnectionManager:1\r\nEXT: \r\n\r\n"
                .to_string(),
        }
    }

    #[test]
    fn shared_replies_match_the_per_datagram_renderer() {
        let mut postures = vec![None];
        postures.extend(Misconfig::ALL.map(Some));
        for profile in row_profiles() {
            for &m in &postures {
                let dev = UpnpDevice::cataloged(profile, m);
                assert!(matches!(dev.reply, Responses::Shared(_)));
                let want = reply_per_datagram(m, profile);
                assert_eq!(&*dev.reply, want.as_bytes(), "{profile:?} {m:?}");
                let (server, description) = identity_for(profile);
                assert_eq!(&*UpnpDevice::new(m, &server, description).reply, &*dev.reply);
            }
        }
    }
}
