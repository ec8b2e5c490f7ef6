//! U-Pot — the UPnP honeypot framework.
//!
//! Deployed with the "Belkin Wemo smart switch" image (Table 7). U-Pot
//! received a large number of discovery requests followed by UDP flood DoS —
//! more than 80% of its traffic was part of DoS attacks (§5.1.3). The agent
//! answers `ssdp:discover` with the Wemo root-device description (via a
//! limited UPnP stack, mirroring the paper's GUPnP-based low-interaction
//! image) and logs every datagram.

use ofh_net::Payload;
use ofh_net::{Agent, NetCtx, SockAddr};
use ofh_wire::ssdp::{DeviceDescription, SsdpMessage};
use ofh_wire::{ports, Protocol};

use crate::deployed::DeployedHoneypot;
use crate::events::{AttackEvent, EventKind, EventLog};

/// The U-Pot honeypot agent.
pub struct UPotHoneypot {
    pub log: EventLog,
}

impl Default for UPotHoneypot {
    fn default() -> Self {
        Self::new()
    }
}

impl UPotHoneypot {
    pub fn new() -> Self {
        UPotHoneypot {
            log: EventLog::new("U-Pot"),
        }
    }

    fn wemo() -> DeviceDescription {
        DeviceDescription {
            friendly_name: "Wemo Switch".into(),
            manufacturer: "Belkin International Inc.".into(),
            model_name: "Socket".into(),
            model_description: "Belkin Plugin Socket 1.0".into(),
            model_number: "1.0".into(),
        }
    }
}

impl DeployedHoneypot for UPotHoneypot {
    /// U-Pot is UDP-only (SSDP): it has no connections to shed.
    fn drain(&mut self) -> (Vec<AttackEvent>, u64) {
        (std::mem::take(&mut self.log.events), 0)
    }
}

impl Agent for UPotHoneypot {
    fn on_udp(&mut self, ctx: &mut NetCtx<'_>, local_port: u16, peer: SockAddr, payload: &Payload) {
        if local_port != ports::SSDP {
            return;
        }
        let now = ctx.now();
        let text = String::from_utf8_lossy(payload);
        match SsdpMessage::parse(&text) {
            Ok(msg) if msg.is_msearch() => {
                self.log.log(now, Protocol::Upnp, peer.addr, peer.port, EventKind::Discovery);
                let resp = SsdpMessage::discovery_response(
                    "Unspecified, UPnP/1.0, Unspecified",
                    "Socket-1_0-221450K0102F2E",
                    "http://10.22.22.1:49153/setup.xml",
                );
                let body = format!("{}{}", resp.render(), Self::wemo().render());
                ctx.udp_send(local_port, peer, body.into_bytes());
            }
            _ => {
                // Flood datagrams / garbage: logged, never answered
                // (responding would amplify the attacker's flood).
                self.log.log(
                    now,
                    Protocol::Upnp,
                    peer.addr,
                    peer.port,
                    EventKind::Datagram { len: payload.len() },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};
    use ofh_wire::ssdp::msearch_all;

    struct Flood {
        dst: SockAddr,
        discoveries: u32,
        junk: u32,
        reply: Option<String>,
    }

    impl Agent for Flood {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            for _ in 0..self.discoveries {
                ctx.udp_send(42_000, self.dst, msearch_all().into_bytes());
            }
            for i in 0..self.junk {
                ctx.udp_send(42_000, self.dst, vec![i as u8; 64]);
            }
        }
        fn on_udp(&mut self, _c: &mut NetCtx<'_>, _p: u16, _peer: SockAddr, payload: &Payload) {
            self.reply = Some(String::from_utf8_lossy(payload).into_owned());
        }
    }

    #[test]
    fn discovery_answered_with_wemo_description() {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 14);
        let hid = net.attach(haddr, Box::new(UPotHoneypot::new()));
        let fid = net.attach(
            ip(16, 1, 0, 93),
            Box::new(Flood {
                dst: SockAddr::new(haddr, 1900),
                discoveries: 1,
                junk: 0,
                reply: None,
            }),
        );
        net.run_until(SimTime(60_000));
        let reply = net.agent_downcast::<Flood>(fid).unwrap().reply.clone().unwrap();
        assert!(reply.contains("Belkin"));
        assert!(reply.contains("upnp:rootdevice"));
        let h = net.agent_downcast::<UPotHoneypot>(hid).unwrap();
        assert!(h.log.events.iter().any(|e| matches!(e.kind, EventKind::Discovery)));
    }

    #[test]
    fn flood_datagrams_logged_not_answered() {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 14);
        let hid = net.attach(haddr, Box::new(UPotHoneypot::new()));
        let fid = net.attach(
            ip(16, 1, 0, 93),
            Box::new(Flood {
                dst: SockAddr::new(haddr, 1900),
                discoveries: 0,
                junk: 50,
                reply: None,
            }),
        );
        net.run_until(SimTime(60_000));
        assert!(net.agent_downcast::<Flood>(fid).unwrap().reply.is_none());
        let h = net.agent_downcast::<UPotHoneypot>(hid).unwrap();
        let floods = h
            .log
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Datagram { .. }))
            .count();
        assert_eq!(floods, 50);
    }
}
