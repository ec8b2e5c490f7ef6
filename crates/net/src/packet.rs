//! Packet- and flow-level observations, and the shared [`Payload`] buffer
//! every packet carries.
//!
//! The simulator's transport is session-based, but two consumers need a
//! packet's-eye view: the network telescope (which records one FlowTuple per
//! flow it sees) and the per-host pcap-style capture the paper analyses with
//! `tcpdump`. [`FlowObservation`] is the common record both are fed with.
//!
//! ## Payload memory model
//!
//! A [`Payload`] is an immutable, cheaply cloneable byte buffer: cloning
//! bumps a reference count (or copies a pointer for static data), never the
//! bytes. The fabric moves one `Payload` from sender to event queue to
//! receiver to capture tap without copying; a probe template encoded once
//! can back millions of in-flight packets. A payload that must differ from
//! its source (a patched CoAP message id, a fault-corrupted datagram) is
//! copied into a fresh `Vec` and wrapped with `Payload::from`. See
//! DESIGN.md ("Hot-path memory model").

use std::net::Ipv4Addr;
use std::ops::Deref;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

#[derive(Debug, Clone)]
enum Repr {
    /// Borrowed static bytes (protocol constants, greetings): zero-cost
    /// clone, no allocation ever.
    Static(&'static [u8]),
    /// Shared ownership of a plain `Vec`.
    Shared(Arc<Vec<u8>>),
}

/// An immutable, cheaply cloneable packet payload. See the module docs for
/// the memory model.
#[derive(Debug, Clone)]
pub struct Payload(Repr);

impl Payload {
    /// The empty payload (a bare SYN, a zero-length datagram).
    pub fn empty() -> Payload {
        Payload(Repr::Static(&[]))
    }

    /// Wrap static bytes without copying.
    pub fn from_static(bytes: &'static [u8]) -> Payload {
        Payload(Repr::Static(bytes))
    }

    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(v) => v.as_slice(),
        }
    }

    /// Copy the bytes into a fresh `Vec` (for long-term storage outside the
    /// packet path).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl Deref for Payload {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload(Repr::Shared(Arc::new(v)))
    }
}

impl From<String> for Payload {
    fn from(s: String) -> Payload {
        Payload::from(s.into_bytes())
    }
}

impl From<&str> for Payload {
    fn from(s: &str) -> Payload {
        Payload::from(s.as_bytes())
    }
}

/// Copies borrowed slices of unknown origin.
impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload::from(s.to_vec())
    }
}

/// Byte-string literals (`b"login: "`) are static: wrapped without copying.
impl<const N: usize> From<&'static [u8; N]> for Payload {
    fn from(s: &'static [u8; N]) -> Payload {
        Payload::from_static(s)
    }
}

impl From<&Payload> for Payload {
    fn from(p: &Payload) -> Payload {
        p.clone()
    }
}

/// Serializes exactly as `Vec<u8>` does (a JSON array of numbers), so the
/// payload swap is invisible in exported datasets.
impl Serialize for Payload {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.as_slice().iter().map(|&b| serde::Value::U64(b as u64)).collect())
    }
}

impl Deserialize for Payload {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Vec::<u8>::from_value(v).map(Payload::from)
    }
}

/// Transport protocol of a simulated packet/flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Transport {
    Tcp,
    Udp,
}

impl Transport {
    /// IANA protocol number, as recorded in FlowTuple's `protocol` field.
    pub const fn protocol_number(self) -> u8 {
        match self {
            Transport::Tcp => 6,
            Transport::Udp => 17,
        }
    }
}

/// What kind of packet a flow observation describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowKind {
    /// TCP connection attempt (SYN).
    TcpSyn,
    /// Data on an established TCP connection.
    TcpData,
    /// A UDP datagram.
    UdpDatagram,
}

/// A single observed packet, as seen by a capture tap.
///
/// Field selection mirrors what the CAIDA FlowTuple format records per flow
/// (source/destination, ports, protocol, TTL, TCP flags, lengths) plus the
/// payload for honeypot-side pcap analysis. Taps on unoccupied space (the
/// telescope) only ever see first packets, because nothing answers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowObservation {
    pub time: SimTime,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    pub transport: Transport,
    pub kind: FlowKind,
    /// IP TTL as it arrives at the observation point.
    pub ttl: u8,
    /// TCP flags byte (SYN=0x02, ACK=0x10, …); zero for UDP.
    pub tcp_flags: u8,
    /// Advertised TCP window in the SYN; zero for UDP. Scanning tools have
    /// characteristic values (masscan: 1024, ZMap: 65535), which is how the
    /// telescope computes its `is_masscan` flag — mirroring how CAIDA derives
    /// the flag from packet quirks rather than from ground truth.
    pub tcp_window: u16,
    /// Total IP packet length in bytes.
    pub ip_len: u16,
    /// Application payload carried by this packet (empty for a bare SYN).
    /// Shared with the in-flight packet — cloning an observation bumps a
    /// refcount instead of copying bytes.
    pub payload: Payload,
    /// Whether the sender marked this packet as having a spoofed source
    /// (simulation ground truth used to populate FlowTuple's `is_spoofed`).
    pub spoofed: bool,
}

impl FlowObservation {
    /// TCP flag constants.
    pub const SYN: u8 = 0x02;
    pub const ACK: u8 = 0x10;
    pub const PSH: u8 = 0x08;
    pub const RST: u8 = 0x04;
    pub const FIN: u8 = 0x01;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ip;

    #[test]
    fn payload_conversions_preserve_bytes() {
        let from_static = Payload::from(b"hello");
        let from_vec = Payload::from(b"hello".to_vec());
        let from_slice = Payload::from(&b"hello"[..]);
        assert_eq!(from_static, from_vec);
        assert_eq!(from_vec, from_slice);
        assert_eq!(&*from_static, b"hello");
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn payload_clone_shares_bytes() {
        let p = Payload::from(vec![1u8, 2, 3]);
        let q = p.clone();
        assert_eq!(p.as_slice().as_ptr(), q.as_slice().as_ptr());
    }

    #[test]
    fn payload_serde_matches_vec_format() {
        let p = Payload::from(vec![1u8, 2, 3]);
        assert_eq!(
            serde_json::to_string(&p).unwrap(),
            serde_json::to_string(&vec![1u8, 2, 3]).unwrap()
        );
        let back: Payload = serde_json::from_str("[1,2,3]").unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(Transport::Tcp.protocol_number(), 6);
        assert_eq!(Transport::Udp.protocol_number(), 17);
    }

    #[test]
    fn observation_roundtrips_json() {
        let obs = FlowObservation {
            time: SimTime(1234),
            src: ip(1, 2, 3, 4),
            dst: ip(5, 6, 7, 8),
            src_port: 40000,
            dst_port: 23,
            transport: Transport::Tcp,
            kind: FlowKind::TcpSyn,
            ttl: 48,
            tcp_flags: FlowObservation::SYN,
            tcp_window: 65535,
            ip_len: 40,
            payload: Payload::empty(),
            spoofed: false,
        };
        let json = serde_json::to_string(&obs).unwrap();
        let back: FlowObservation = serde_json::from_str(&json).unwrap();
        assert_eq!(obs, back);
    }
}
