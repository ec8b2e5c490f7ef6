//! # ofh-telescope — the /8 network telescope
//!
//! Models the CAIDA UCSD network telescope of §3.4: a routed block of
//! address space carrying no legitimate traffic, passively recording every
//! unsolicited packet. The simulated telescope covers the universe's dark
//! space — exactly **1/256 of the simulated Internet**, matching the real
//! telescope's /8 = 1/256 of IPv4.
//!
//! Captured traffic is stored as **FlowTuple** records with the field set
//! the paper enumerates (source/destination, ports, timestamp, protocol,
//! TTL, TCP flags, IP length, SYN length, SYN window, packet count, country
//! code, ASN, `is_spoofed`, `is_masscan`), binned into per-minute files
//! (1,440 per day, §3.4).
//!
//! `is_masscan` is *derived from packet features* (masscan's fixed SYN
//! window of 1024), mirroring how CAIDA computes the flag from packet
//! quirks. `is_spoofed` is taken from the sender's ground-truth spoofing
//! flag, standing in for CAIDA's spoofed-source heuristics.

pub mod aggregate;
pub mod flowtuple;
pub mod telescope;

pub use aggregate::{DailyProtocolStats, TelescopeSummary};
pub use flowtuple::{CountryCode, FlowTuple};
pub use telescope::Telescope;
