//! # ofh-honeypots — deployed and wild honeypots
//!
//! Two distinct roles, matching the paper:
//!
//! 1. **Deployed honeypots** ([`deployed`]) — the six state-of-the-art IoT
//!    honeypots the authors ran for April 2021 (Cowrie, HosTaGe, Dionaea,
//!    ThingPot, U-Pot, Conpot; Fig. 1 / Table 7). Each is an [`ofh_net::Agent`]
//!    that simulates its device profile, answers in real protocol bytes, and
//!    logs every interaction as a raw [`AttackEvent`]. The event log is the
//!    dataset behind Table 7 and Figs. 3, 4, 7, 8, 9 and Tables 12/13.
//!
//! 2. **Wild honeypots** ([`wild`]) — the nine honeypot families other people
//!    run on the Internet (Table 6: HoneyPy, Cowrie, MTPot, Telnet-IoT,
//!    Conpot, Kippo, Kako, Hontel, Anglerfish). They carry the static banner
//!    signatures the paper fingerprints, and they *would poison* the
//!    misconfigured-device counts if not filtered — which is exactly the
//!    sanitization experiment (8,192 filtered instances).

pub mod deployed;
pub mod events;
pub mod wild;

pub use deployed::{
    ConpotHoneypot, CowrieHoneypot, DeployedHoneypot, DionaeaHoneypot, HoneypotKind,
    HosTaGeHoneypot, ThingPotHoneypot, UPotHoneypot,
};
pub use events::{AttackEvent, EventKind, EventLog};
pub use wild::{WildHoneypot, WildHoneypotAgent};
