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

use ofh_net::Payload;
use ofh_net::{Agent, NetCtx, SockAddr, Transport};
use ofh_wire::ssdp::{DeviceDescription, SsdpMessage};
use ofh_wire::{ports, Protocol};

use crate::misconfig::Misconfig;

/// A simulated SSDP/UPnP-speaking IoT device.
pub struct UpnpDevice {
    pub misconfig: Option<Misconfig>,
    /// The `SERVER:` header value (e.g. `Linux/2.x UPnP/1.0 Avtech/1.0`).
    pub server: String,
    /// Description document (friendly name / model).
    pub description: DeviceDescription,
    /// USN uuid.
    pub uuid: String,
    /// Ground truth: discovery responses emitted (reflection volume).
    pub responses_sent: u64,
}

impl UpnpDevice {
    pub fn new(
        misconfig: Option<Misconfig>,
        server: impl Into<String>,
        description: DeviceDescription,
    ) -> Self {
        UpnpDevice {
            misconfig,
            server: server.into(),
            description,
            uuid: "5a34308c-1a2c-4546-ac5d-7663dd01dca1".into(),
            responses_sent: 0,
        }
    }
}

impl Agent for UpnpDevice {
    fn on_udp(&mut self, ctx: &mut NetCtx<'_>, local_port: u16, peer: SockAddr, payload: &Payload) {
        if !super::serves(Protocol::Upnp, ports::SSDP, Transport::Udp, local_port) {
            return;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return;
        };
        let Ok(msg) = SsdpMessage::parse(text) else {
            return;
        };
        if !msg.is_msearch() {
            return;
        }
        let reply = match self.misconfig {
            Some(Misconfig::UpnpReflection) => {
                let resp = SsdpMessage::discovery_response(
                    &self.server,
                    &self.uuid,
                    "http://192.168.0.1:16537/rootDesc.xml",
                );
                // Append the description block (see module docs).
                format!("{}{}", resp.render(), self.description.render())
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
        self.responses_sent += 1;
        ctx.udp_send(local_port, peer, reply.into_bytes());
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
}
