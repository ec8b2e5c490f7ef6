//! The FlowTuple record format.

use std::net::Ipv4Addr;

use ofh_intel::Country;
use ofh_net::{FlowObservation, SimTime, Transport};
use serde::{DeError, Deserialize, Serialize, Value};

/// Masscan's characteristic SYN window (how `is_masscan` is derived).
pub const MASSCAN_SYN_WINDOW: u16 = 1024;

/// One FlowTuple record, field-for-field what §3.4 lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowTuple {
    pub time: SimTime,
    pub src_ip: Ipv4Addr,
    pub dst_ip: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    /// IANA protocol number (6 = TCP, 17 = UDP).
    pub protocol: u8,
    pub ttl: u8,
    pub tcp_flags: u8,
    pub ip_len: u16,
    /// TCP-SYN packet length (0 for non-SYN/UDP).
    pub tcp_syn_len: u16,
    /// TCP-SYN window (0 for non-SYN/UDP).
    pub tcp_syn_window: u16,
    /// Packets aggregated into this flow record.
    pub packet_cnt: u32,
    /// Source country code (from the geolocation database).
    pub country: CountryCode,
    /// Source ASN, when known.
    pub asn: Option<u32>,
    pub is_spoofed: bool,
    pub is_masscan: bool,
}

impl FlowTuple {
    /// Build a record from a raw observation plus geo metadata.
    pub fn from_observation(
        obs: &FlowObservation,
        country: &'static str,
        asn: Option<u32>,
    ) -> FlowTuple {
        let is_syn = obs.transport == Transport::Tcp && obs.tcp_flags & FlowObservation::SYN != 0;
        FlowTuple {
            time: obs.time,
            src_ip: obs.src,
            dst_ip: obs.dst,
            src_port: obs.src_port,
            dst_port: obs.dst_port,
            protocol: obs.transport.protocol_number(),
            ttl: obs.ttl,
            tcp_flags: obs.tcp_flags,
            ip_len: obs.ip_len,
            tcp_syn_len: if is_syn { obs.ip_len } else { 0 },
            tcp_syn_window: if is_syn { obs.tcp_window } else { 0 },
            packet_cnt: 1,
            country: CountryCode(country),
            asn,
            is_spoofed: obs.spoofed,
            is_masscan: is_syn && obs.tcp_window == MASSCAN_SYN_WINDOW,
        }
    }

    /// The studied protocol this flow targets, if any (by destination port).
    pub fn target_protocol(&self) -> Option<ofh_wire::Protocol> {
        ofh_wire::Protocol::from_port(self.dst_port)
    }
}

/// A country code as [`Country::code`] spells it, held as that static
/// string, so a flow carries it without a heap block of its own. Its JSON is
/// the bare code; reading one back accepts only a code of a [`Country`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountryCode(&'static str);

impl CountryCode {
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl Serialize for CountryCode {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for CountryCode {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let code = String::from_value(v)?;
        Country::ALL
            .iter()
            .map(|c| c.code())
            .find(|&c| c == code)
            .map(CountryCode)
            .ok_or_else(|| DeError::custom(format!("unknown country code {code:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, FlowKind};

    fn obs(window: u16, flags: u8, transport: Transport) -> FlowObservation {
        FlowObservation {
            time: SimTime(77),
            src: ip(1, 2, 3, 4),
            dst: ip(16, 0, 1, 2),
            src_port: 45000,
            dst_port: 23,
            transport,
            kind: FlowKind::TcpSyn,
            ttl: 44,
            tcp_flags: flags,
            tcp_window: window,
            ip_len: 60,
            payload: Default::default(),
            spoofed: false,
        }
    }

    #[test]
    fn masscan_detected_from_window() {
        let ft = FlowTuple::from_observation(
            &obs(MASSCAN_SYN_WINDOW, FlowObservation::SYN, Transport::Tcp),
            "US",
            Some(64500),
        );
        assert!(ft.is_masscan);
        assert_eq!(ft.tcp_syn_window, 1024);
        let zmap = FlowTuple::from_observation(
            &obs(65_535, FlowObservation::SYN, Transport::Tcp),
            "US",
            None,
        );
        assert!(!zmap.is_masscan);
    }

    #[test]
    fn udp_has_no_syn_fields() {
        let ft = FlowTuple::from_observation(&obs(0, 0, Transport::Udp), "DE", None);
        assert_eq!(ft.protocol, 17);
        assert_eq!(ft.tcp_syn_len, 0);
        assert_eq!(ft.tcp_syn_window, 0);
        assert!(!ft.is_masscan);
    }

    #[test]
    fn target_protocol_by_port() {
        let ft = FlowTuple::from_observation(
            &obs(65_535, FlowObservation::SYN, Transport::Tcp),
            "US",
            None,
        );
        assert_eq!(ft.target_protocol(), Some(ofh_wire::Protocol::Telnet));
    }

    #[test]
    fn serializes() {
        let ft = FlowTuple::from_observation(
            &obs(65_535, FlowObservation::SYN, Transport::Tcp),
            "US",
            Some(3320),
        );
        let json = serde_json::to_string(&ft).unwrap();
        assert!(json.contains(r#""country":"US""#), "{json}");
        let back: FlowTuple = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ft);
        let unknown = json.replace(r#""country":"US""#, r#""country":"ZZ""#);
        assert!(serde_json::from_str::<FlowTuple>(&unknown).is_err());
    }
}
