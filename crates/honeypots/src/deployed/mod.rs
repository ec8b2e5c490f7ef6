//! The six deployed honeypots of Fig. 1 / Table 7.
//!
//! | honeypot | simulated device profile | protocols |
//! |---|---|---|
//! | HosTaGe  | Arduino board with IoT protocols | Telnet, MQTT, AMQP, CoAP, SSH, HTTP, SMB |
//! | U-Pot    | Belkin Wemo smart switch | UPnP |
//! | Conpot   | Siemens S7 PLC | SSH, Telnet, S7, HTTP (+ Modbus, §5.1.4) |
//! | ThingPot | Philips Hue Bridge | XMPP, HTTP |
//! | Cowrie   | SSH server with IoT banner | SSH, Telnet |
//! | Dionaea  | Arduino IoT device with frontend | HTTP, MQTT, FTP, SMB |
//!
//! Every agent logs raw [`AttackEvent`](crate::events::AttackEvent)s; nothing
//! is classified at capture time.
//!
//! **Session layer** ([`common`]): each of the five TCP honeypots keeps its
//! connections in one [`Sessions`](common::Sessions) table, and the
//! services several of them emulate exist there once. Shared code never
//! branches on which honeypot calls it; each honeypot's file keeps what its
//! emulated product does (banners, prompts, event order, protocol replies).
//!
//! **SSH substitution** (see DESIGN.md): the SSH *transport* (KEX, cipher
//! negotiation) adds nothing to the study — the paper's data is credentials,
//! commands, and dropped binaries. After the standard identification-string
//! exchange, our simulated SSH speaks a plaintext line protocol
//! (`AUTH <user> <pass>` → `OK`/`DENIED`, then command lines), preserving
//! exactly the observables the honeypots log.

pub mod common;
pub mod conpot;
pub mod cowrie;
pub mod dionaea;
pub mod hostage;
pub mod thingpot;
pub mod upot;

use ofh_net::Agent;

use crate::events::AttackEvent;

pub use conpot::ConpotHoneypot;
pub use cowrie::CowrieHoneypot;
pub use dionaea::DionaeaHoneypot;
pub use hostage::HosTaGeHoneypot;
pub use thingpot::ThingPotHoneypot;
pub use upot::UPotHoneypot;

/// What a study reads back from a deployed honeypot after the month.
pub trait DeployedHoneypot: Agent + Default {
    /// Take the logged events, leaving the log empty, and the number of
    /// connections the flood gate refused.
    fn drain(&mut self) -> (Vec<AttackEvent>, u64);
}

/// Identifies a deployed honeypot (Table 7 row group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HoneypotKind {
    HosTaGe,
    UPot,
    Conpot,
    ThingPot,
    Cowrie,
    Dionaea,
}

impl HoneypotKind {
    pub const ALL: [HoneypotKind; 6] = [
        HoneypotKind::HosTaGe,
        HoneypotKind::UPot,
        HoneypotKind::Conpot,
        HoneypotKind::ThingPot,
        HoneypotKind::Cowrie,
        HoneypotKind::Dionaea,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            HoneypotKind::HosTaGe => "HosTaGe",
            HoneypotKind::UPot => "U-Pot",
            HoneypotKind::Conpot => "Conpot",
            HoneypotKind::ThingPot => "ThingPot",
            HoneypotKind::Cowrie => "Cowrie",
            HoneypotKind::Dionaea => "Dionaea",
        }
    }

    /// The device profile the honeypot simulates (Table 7 column 2).
    pub const fn device_profile(self) -> &'static str {
        match self {
            HoneypotKind::HosTaGe => "Arduino Board with IoT Protocols",
            HoneypotKind::UPot => "Belkin Wemo smart switch",
            HoneypotKind::Conpot => "Siemens S7 PLC",
            HoneypotKind::ThingPot => "Philips Hue Bridge",
            HoneypotKind::Cowrie => "SSH Server with IoT banner",
            HoneypotKind::Dionaea => "Arduino IoT device with frontend",
        }
    }
}

impl std::fmt::Display for HoneypotKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_table7() {
        assert_eq!(HoneypotKind::ALL.len(), 6);
        assert_eq!(HoneypotKind::UPot.name(), "U-Pot");
        assert_eq!(
            HoneypotKind::Conpot.device_profile(),
            "Siemens S7 PLC"
        );
    }
}
