//! The port rule cannot drift from the agents it describes.
//!
//! [`endpoints::serves`] answers the fabric's stateless-probe question
//! (`HostSpawner::serves`) without building an agent, so it must say exactly
//! what the agents do. For each protocol the population exposes, configured
//! and misconfigured, and for every well-known port plus a few others, a
//! SYN must be accepted exactly when the rule says TCP is served, and a
//! well-formed request datagram must get a reply exactly when it says UDP
//! is served. The arena's answer must be the rule's.

use std::net::Ipv4Addr;

use ofh_devices::endpoints;
use ofh_devices::{DeviceRecord, HostArena, Misconfig};
use ofh_intel::Country;
use ofh_net::{
    ip, Agent, ConnToken, NetCtx, Payload, SimNet, SimNetConfig, SimTime, SockAddr, Transport,
};
use ofh_wire::coap::Message;
use ofh_wire::ssdp::msearch_all;
use ofh_wire::Protocol;

/// Sends one SYN and the given request datagrams to `dst`, and records what
/// came back.
struct Client {
    dst: SockAddr,
    requests: Vec<Vec<u8>>,
    established: bool,
    replies: usize,
}

impl Agent for Client {
    fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
        ctx.tcp_connect(self.dst);
        for request in &self.requests {
            ctx.udp_send(40_000, self.dst, request.clone());
        }
    }

    fn on_tcp_established(&mut self, _ctx: &mut NetCtx<'_>, _conn: ConnToken) {
        self.established = true;
    }

    fn on_udp(&mut self, _ctx: &mut NetCtx<'_>, _port: u16, _peer: SockAddr, _p: &Payload) {
        self.replies += 1;
    }
}

/// Every population device shape: each exposed protocol with no
/// misconfiguration and with each of its own, on each port its records use.
fn records() -> Vec<DeviceRecord> {
    let mut out = Vec::new();
    for protocol in Protocol::SCANNED {
        let misconfigs = std::iter::once(None).chain(
            Misconfig::ALL
                .into_iter()
                .filter(|m| m.protocol() == protocol)
                .map(Some),
        );
        for misconfig in misconfigs {
            let mut record_ports = vec![protocol.port()];
            if protocol == Protocol::Telnet {
                record_ports.extend_from_slice(protocol.extra_ports());
            }
            for port in record_ports {
                out.push(DeviceRecord {
                    addr: ip(10, 0, 0, 1),
                    protocol,
                    profile: None,
                    misconfig,
                    country: Country::Other,
                    port,
                    default_creds: None,
                });
            }
        }
    }
    out
}

/// Every protocol's ports, plus HTTP and the ends of the range.
fn ports() -> Vec<u16> {
    let mut ports: Vec<u16> = Protocol::ALL
        .iter()
        .flat_map(|p| std::iter::once(p.port()).chain(p.extra_ports().iter().copied()))
        .chain([80, 0, 65_535])
        .collect();
    ports.sort_unstable();
    ports.dedup();
    ports
}

/// A well-formed request for the device's protocol; devices of the other
/// protocols get both.
fn requests(protocol: Protocol) -> Vec<Vec<u8>> {
    let coap = Message::well_known_core_request(1).encode();
    let ssdp = msearch_all().into_bytes();
    match protocol {
        Protocol::Coap => vec![coap],
        Protocol::Upnp => vec![ssdp],
        _ => vec![coap, ssdp],
    }
}

#[test]
fn agents_accept_and_answer_exactly_where_the_rule_says() {
    let mut checked = 0;
    for record in records() {
        let arena = HostArena::from_records([&record], |_| true);
        for port in ports() {
            let dst = SockAddr::new(record.addr, port);
            let mut net = SimNet::new(SimNetConfig::default());
            net.attach(record.addr, record.build_agent());
            let client = net.attach(
                Ipv4Addr::new(10, 0, 0, 2),
                Box::new(Client {
                    dst,
                    requests: requests(record.protocol),
                    established: false,
                    replies: 0,
                }),
            );
            net.run_until(SimTime(10_000));
            let c = net.agent_downcast::<Client>(client).unwrap();
            let shape = format!(
                "{:?} {:?} on {} → port {port}",
                record.protocol, record.misconfig, record.port
            );
            for (transport, observed) in [
                (Transport::Tcp, c.established),
                (Transport::Udp, c.replies > 0),
            ] {
                let rule = endpoints::serves(record.protocol, record.port, transport, port);
                assert_eq!(
                    observed, rule,
                    "{shape} {transport:?}: agent and rule disagree"
                );
                assert_eq!(
                    arena.serves(0, transport, port),
                    rule,
                    "{shape} {transport:?}: arena"
                );
            }
            checked += 1;
        }
    }
    // 19 device shapes over 16 ports.
    assert_eq!(checked, 19 * 16);
}
