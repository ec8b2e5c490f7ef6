//! Behavioural device agents.
//!
//! One module per protocol; each agent speaks real `ofh-wire` bytes over the
//! simulator. A device's security posture is captured by its optional
//! [`Misconfig`](crate::misconfig::Misconfig): misconfigured devices exhibit
//! exactly the banner/response indicators of Tables 2 and 3, properly
//! configured (but exposed) devices answer in ways that prove the port is
//! open without revealing a vulnerability — reproducing the gap between
//! Table 4 (exposed) and Table 5 (misconfigured).
//!
//! ## Lean agents
//!
//! Every device of the population becomes an agent the first time a packet
//! reaches it, and most answer a few scanner grabs and are dropped with
//! their shard. So an agent built from the catalog
//! ([`DeviceRecord::build_agent`](crate::DeviceRecord::build_agent)) is one
//! heap block:
//!
//! * **Shared responses.** A response whose bytes depend only on the
//!   device's generation inputs (its catalog profile, its posture, for AMQP
//!   its version) is encoded once per process, into one immutable table
//!   per device type that is built on first use from the catalog. Rows are
//!   keyed by the profile's position in [`PROFILES`](crate::PROFILES)
//!   ([`catalog_row`]), never by a reference's address. The agent borrows
//!   its entry ([`Responses`]) and sends it as a
//!   [`Payload::from_static`] slice: no encode, no allocation, and no
//!   reference count that the workers would bounce between their caches.
//!   A device built outside the catalog (tests, examples) encodes its own
//!   entry once, at construction, with the same code.
//! * **Borrowed identity.** Banners, credentials, topics and resources are
//!   `&'static` catalog data, not owned copies.
//! * **A connection list** ([`ConnList`]) instead of a hash map per agent:
//!   it searches linearly and keeps its first connection inline, so a device
//!   with one connection open allocates nothing for it.

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

use std::ops::Deref;

use ofh_net::{ConnToken, Payload, Transport};
use ofh_wire::{ports, Protocol};

use crate::profiles::{self, DeviceProfile, PROFILES};

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

/// The row of a shared response table that serves a device with `profile`:
/// the profile's position in [`PROFILES`], or the row after the catalog's
/// last for a device with no profile. `None` for a profile that is not a
/// catalog entry; such a device encodes its own responses.
pub(crate) fn catalog_row(profile: Option<&DeviceProfile>) -> Option<usize> {
    match profile {
        Some(p) => profiles::position(p),
        None => Some(PROFILES.len()),
    }
}

/// The profile each row of a shared response table serves, in row order
/// (see [`catalog_row`]).
pub(crate) fn row_profiles() -> impl Iterator<Item = Option<&'static DeviceProfile>> {
    PROFILES.iter().map(Some).chain([None])
}

/// A device's encoded responses: its entry in a process-wide table, or its
/// own copy for a device built outside the catalog.
pub(crate) enum Responses<T: ?Sized + 'static> {
    Shared(&'static T),
    Own(Box<T>),
}

impl<T: ?Sized> Deref for Responses<T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Responses::Shared(t) => t,
            Responses::Own(t) => t,
        }
    }
}

impl Responses<[u8]> {
    /// The bytes as a payload: a shared entry is sent as a static slice,
    /// without copying; a device's own entry is copied.
    pub(crate) fn payload(&self) -> Payload {
        match self {
            Responses::Shared(bytes) => Payload::from_static(bytes),
            Responses::Own(bytes) => Payload::from(&bytes[..]),
        }
    }
}

impl From<Vec<u8>> for Responses<[u8]> {
    fn from(bytes: Vec<u8>) -> Self {
        Responses::Own(bytes.into_boxed_slice())
    }
}

/// A fixed text reply as a static payload (`Payload::from(&str)` copies).
pub(crate) fn text(reply: &'static str) -> Payload {
    Payload::from_static(reply.as_bytes())
}

/// One device's per-connection state, keyed by connection token.
///
/// A device usually has one connection open (a scanner's grab), and an
/// attacker opens a few: the list searches linearly and keeps its first
/// entry inline, so it allocates only when a second connection is open at
/// once. Nothing iterates it, so removal may reorder entries.
#[derive(Debug)]
pub struct ConnList<S> {
    /// The first entry; `None` only while the list is empty.
    head: Option<(ConnToken, S)>,
    tail: Vec<(ConnToken, S)>,
}

impl<S> Default for ConnList<S> {
    fn default() -> Self {
        ConnList {
            head: None,
            tail: Vec::new(),
        }
    }
}

impl<S> ConnList<S> {
    /// Where `conn` is: 0 for the head, `i + 1` for `tail[i]`.
    fn slot(&self, conn: ConnToken) -> Option<usize> {
        if self.head.as_ref()?.0 == conn {
            return Some(0);
        }
        self.tail.iter().position(|(c, _)| *c == conn).map(|i| i + 1)
    }

    fn at(&mut self, slot: usize) -> &mut S {
        match slot {
            0 => &mut self.head.as_mut().expect("occupied head").1,
            i => &mut self.tail[i - 1].1,
        }
    }

    /// Set `conn`'s state, replacing any it had.
    pub fn insert(&mut self, conn: ConnToken, state: S) {
        match self.slot(conn) {
            Some(slot) => *self.at(slot) = state,
            None if self.head.is_none() => self.head = Some((conn, state)),
            None => self.tail.push((conn, state)),
        }
    }

    pub fn get(&self, conn: ConnToken) -> Option<&S> {
        match self.slot(conn)? {
            0 => self.head.as_ref().map(|(_, s)| s),
            i => Some(&self.tail[i - 1].1),
        }
    }

    pub fn get_mut(&mut self, conn: ConnToken) -> Option<&mut S> {
        let slot = self.slot(conn)?;
        Some(self.at(slot))
    }

    /// `conn`'s state, inserting `S::default()` if it has none.
    pub fn get_or_default(&mut self, conn: ConnToken) -> &mut S
    where
        S: Default,
    {
        let slot = match self.slot(conn) {
            Some(slot) => slot,
            None => {
                self.insert(conn, S::default());
                self.slot(conn).expect("just inserted")
            }
        };
        self.at(slot)
    }

    /// Drop `conn`'s state, returning it.
    pub fn remove(&mut self, conn: ConnToken) -> Option<S> {
        match self.slot(conn)? {
            0 => {
                let next = self.tail.pop();
                std::mem::replace(&mut self.head, next).map(|(_, s)| s)
            }
            i => Some(self.tail.swap_remove(i - 1).1),
        }
    }

    pub fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.tail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// One step of a device's connection traffic.
    #[derive(Debug, Clone)]
    enum Step {
        Open(u64, u32),
        Data(u64, u32),
        Close(u64),
        Reset(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        // Up to 8 connections per device, as attackers open several.
        let conn = 0u64..8;
        prop_oneof![
            (conn.clone(), any::<u32>()).prop_map(|(c, v)| Step::Open(c, v)),
            (conn.clone(), any::<u32>()).prop_map(|(c, v)| Step::Data(c, v)),
            conn.clone().prop_map(Step::Close),
            conn.prop_map(Step::Reset),
        ]
    }

    proptest! {
        /// Opens, data, closes and resets in any interleaving leave the
        /// list holding exactly what a `HashMap` would.
        #[test]
        fn conn_list_matches_a_hash_map(steps in proptest::collection::vec(step(), 0..64)) {
            let mut list: ConnList<u32> = ConnList::default();
            let mut oracle: HashMap<u64, u32> = HashMap::new();
            for step in steps {
                match step {
                    Step::Open(c, v) => {
                        list.insert(ConnToken(c), v);
                        oracle.insert(c, v);
                    }
                    Step::Data(c, v) => {
                        // Half the handlers update a known connection's
                        // state, half create it on first data (MQTT's
                        // stream buffer).
                        if v % 2 == 0 {
                            if let Some(s) = list.get_mut(ConnToken(c)) {
                                *s = s.wrapping_add(v);
                            }
                            if let Some(s) = oracle.get_mut(&c) {
                                *s = s.wrapping_add(v);
                            }
                        } else {
                            *list.get_or_default(ConnToken(c)) ^= v;
                            *oracle.entry(c).or_default() ^= v;
                        }
                    }
                    Step::Close(c) | Step::Reset(c) => {
                        prop_assert_eq!(list.remove(ConnToken(c)), oracle.remove(&c));
                    }
                }
                prop_assert_eq!(list.len(), oracle.len());
                prop_assert_eq!(list.is_empty(), oracle.is_empty());
                for c in 0..8 {
                    prop_assert_eq!(list.get(ConnToken(c)), oracle.get(&c));
                }
            }
        }
    }

    #[test]
    fn one_connection_stays_inline() {
        let mut list = ConnList::default();
        list.insert(ConnToken(7), "grab");
        assert_eq!(list.tail.capacity(), 0, "the first connection allocated");
        assert_eq!(list.remove(ConnToken(7)), Some("grab"));
        assert!(list.is_empty());
    }
}
