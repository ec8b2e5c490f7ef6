//! The misconfiguration taxonomy — Tables 2, 3 and 5.
//!
//! NIST's definition, which the paper adopts: "an incorrect or suboptimal
//! configuration of an information system or system component that may lead
//! to vulnerabilities". Each variant is one row of Table 5, carrying the
//! banner/response indicator from Table 2/3 and the paper's device count.

use ofh_wire::Protocol;
use serde::{Deserialize, Serialize};

/// One misconfiguration class (a Table 5 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Misconfig {
    /// CoAP: `220-Admin` response — admin-access connection.
    CoapNoAuthAdmin,
    /// AMQP: vulnerable version / no auth required.
    AmqpNoAuth,
    /// Telnet: banner contains `$` — unauthenticated console access.
    TelnetNoAuth,
    /// XMPP: offers `PLAIN` — credentials without encryption.
    XmppNoEncryption,
    /// CoAP: `220` connected session without auth.
    CoapNoAuth,
    /// Telnet: `root@xxx:~$` / `admin@xxx:~$` — unauthenticated *root* console.
    TelnetNoAuthRoot,
    /// MQTT: CONNACK code 0 to an unauthenticated CONNECT.
    MqttNoAuth,
    /// XMPP: offers `ANONYMOUS` — login without credentials.
    XmppAnonymousLogin,
    /// CoAP: answers `/.well-known/core` to anyone — usable as a reflector.
    CoapReflection,
    /// UPnP/SSDP: answers `ssdp:discover` with a root device — reflector.
    UpnpReflection,
}

impl Misconfig {
    /// All classes, in Table 5 (ascending count) order.
    pub const ALL: [Misconfig; 10] = [
        Misconfig::CoapNoAuthAdmin,
        Misconfig::AmqpNoAuth,
        Misconfig::TelnetNoAuth,
        Misconfig::XmppNoEncryption,
        Misconfig::CoapNoAuth,
        Misconfig::TelnetNoAuthRoot,
        Misconfig::MqttNoAuth,
        Misconfig::XmppAnonymousLogin,
        Misconfig::CoapReflection,
        Misconfig::UpnpReflection,
    ];

    /// The stable label of this class: its variant name, as the study
    /// store's dictionaries spell it.
    pub const fn label(self) -> &'static str {
        match self {
            Misconfig::CoapNoAuthAdmin => "CoapNoAuthAdmin",
            Misconfig::AmqpNoAuth => "AmqpNoAuth",
            Misconfig::TelnetNoAuth => "TelnetNoAuth",
            Misconfig::XmppNoEncryption => "XmppNoEncryption",
            Misconfig::CoapNoAuth => "CoapNoAuth",
            Misconfig::TelnetNoAuthRoot => "TelnetNoAuthRoot",
            Misconfig::MqttNoAuth => "MqttNoAuth",
            Misconfig::XmppAnonymousLogin => "XmppAnonymousLogin",
            Misconfig::CoapReflection => "CoapReflection",
            Misconfig::UpnpReflection => "UpnpReflection",
        }
    }

    pub const fn protocol(self) -> Protocol {
        match self {
            Misconfig::CoapNoAuthAdmin | Misconfig::CoapNoAuth | Misconfig::CoapReflection => {
                Protocol::Coap
            }
            Misconfig::AmqpNoAuth => Protocol::Amqp,
            Misconfig::TelnetNoAuth | Misconfig::TelnetNoAuthRoot => Protocol::Telnet,
            Misconfig::XmppNoEncryption | Misconfig::XmppAnonymousLogin => Protocol::Xmpp,
            Misconfig::MqttNoAuth => Protocol::Mqtt,
            Misconfig::UpnpReflection => Protocol::Upnp,
        }
    }

    /// The vulnerability label used in Table 5.
    pub const fn vulnerability(self) -> &'static str {
        match self {
            Misconfig::CoapNoAuthAdmin => "No auth, admin access",
            Misconfig::AmqpNoAuth => "No auth",
            Misconfig::TelnetNoAuth => "No auth",
            Misconfig::XmppNoEncryption => "No encryption",
            Misconfig::CoapNoAuth => "No auth",
            Misconfig::TelnetNoAuthRoot => "No auth, root access",
            Misconfig::MqttNoAuth => "No auth",
            Misconfig::XmppAnonymousLogin => "Anonymous login",
            Misconfig::CoapReflection => "Reflection-attack resource",
            Misconfig::UpnpReflection => "Reflection-attack resource",
        }
    }

    /// The paper's Table 5 device count for this class.
    pub const fn paper_count(self) -> u64 {
        match self {
            Misconfig::CoapNoAuthAdmin => 427,
            Misconfig::AmqpNoAuth => 2_731,
            Misconfig::TelnetNoAuth => 4_013,
            Misconfig::XmppNoEncryption => 5_421,
            Misconfig::CoapNoAuth => 9_067,
            Misconfig::TelnetNoAuthRoot => 22_887,
            Misconfig::MqttNoAuth => 102_891,
            Misconfig::XmppAnonymousLogin => 143_986,
            Misconfig::CoapReflection => 543_341,
            Misconfig::UpnpReflection => 998_129,
        }
    }

    /// Whether this class makes the device usable as a DoS reflector.
    pub const fn is_reflection(self) -> bool {
        matches!(self, Misconfig::CoapReflection | Misconfig::UpnpReflection)
    }

    /// Whether this class lets an adversary *take control* (bot infection is
    /// possible) rather than merely abuse the device as a reflector.
    pub const fn is_infectable(self) -> bool {
        matches!(
            self,
            Misconfig::TelnetNoAuth
                | Misconfig::TelnetNoAuthRoot
                | Misconfig::MqttNoAuth
                | Misconfig::XmppAnonymousLogin
                | Misconfig::AmqpNoAuth
                | Misconfig::CoapNoAuthAdmin
                | Misconfig::CoapNoAuth
        )
    }
}

/// The paper's total misconfigured-device count (Table 5 bottom row).
pub const PAPER_TOTAL: u64 = 1_832_893;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_paper_total() {
        let sum: u64 = Misconfig::ALL.iter().map(|m| m.paper_count()).sum();
        assert_eq!(sum, PAPER_TOTAL);
    }

    #[test]
    fn table5_order_is_ascending() {
        let counts: Vec<u64> = Misconfig::ALL.iter().map(|m| m.paper_count()).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn reflection_dominates() {
        // The two reflection classes account for >80% of Table 5.
        let reflect: u64 = Misconfig::ALL
            .iter()
            .filter(|m| m.is_reflection())
            .map(|m| m.paper_count())
            .sum();
        assert!(reflect as f64 / PAPER_TOTAL as f64 > 0.8);
    }

    #[test]
    fn protocols_match_table5() {
        assert_eq!(Misconfig::UpnpReflection.protocol(), Protocol::Upnp);
        assert_eq!(Misconfig::TelnetNoAuthRoot.protocol(), Protocol::Telnet);
        assert_eq!(Misconfig::XmppAnonymousLogin.protocol(), Protocol::Xmpp);
    }

    #[test]
    fn labels_are_variant_names() {
        // The study store's `misconfig` dictionary holds these labels, so
        // they must stay exactly the Debug spelling the format started with.
        for m in Misconfig::ALL {
            assert_eq!(m.label(), format!("{m:?}"));
        }
    }

    #[test]
    fn infectable_and_reflection_are_disjoint() {
        for m in Misconfig::ALL {
            assert!(!(m.is_reflection() && m.is_infectable()), "{m:?}");
        }
    }
}
