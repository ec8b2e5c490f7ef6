//! Behavioural device agents.
//!
//! One module per protocol; each agent speaks real `ofh-wire` bytes over the
//! simulator. A device's security posture is captured by its optional
//! [`Misconfig`](crate::misconfig::Misconfig): misconfigured devices exhibit
//! exactly the banner/response indicators of Tables 2 and 3, properly
//! configured (but exposed) devices answer in ways that prove the port is
//! open without revealing a vulnerability — reproducing the gap between
//! Table 4 (exposed) and Table 5 (misconfigured).

pub mod amqp;
pub mod coap;
pub mod future;
pub mod mqtt;
pub mod telnet;
pub mod upnp;
pub mod xmpp;

pub use amqp::AmqpDevice;
pub use coap::CoapDevice;
pub use future::{OpcUaDevice, Tr069Device};
pub use mqtt::MqttDevice;
pub use telnet::TelnetDevice;
pub use upnp::UpnpDevice;
pub use xmpp::XmppDevice;

use ofh_net::Transport;
use ofh_wire::{ports, Protocol};

/// The port rule of the device population: whether a device speaking
/// `protocol`, listening on `record_port`, serves `port` over `transport`.
///
/// Only Telnet devices read `record_port` (23, or 2323 for the alternate
/// population); every other protocol serves its fixed ports. Every
/// population endpoint's `on_tcp_open` / `on_udp` guard is this call, and so
/// is [`HostArena::serves`](crate::HostArena::serves), which answers the
/// fabric's stateless-probe question (`ofh_net::HostSpawner::serves`)
/// without building the agent. A `false` here means the agent refuses the
/// SYN or ignores the datagram with no other effect.
pub fn serves(protocol: Protocol, record_port: u16, transport: Transport, port: u16) -> bool {
    match (protocol, transport) {
        (Protocol::Telnet, Transport::Tcp) => port == record_port,
        (Protocol::Mqtt, Transport::Tcp) => port == ports::MQTT,
        (Protocol::Amqp, Transport::Tcp) => port == ports::AMQP,
        (Protocol::Xmpp, Transport::Tcp) => {
            port == ports::XMPP_CLIENT || port == ports::XMPP_SERVER
        }
        (Protocol::Coap, Transport::Udp) => port == ports::COAP,
        (Protocol::Upnp, Transport::Udp) => port == ports::SSDP,
        _ => false,
    }
}
