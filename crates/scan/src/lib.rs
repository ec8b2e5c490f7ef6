//! # ofh-scan — Internet-wide scanning (the ZMap / ZGrab / ZTag analogue)
//!
//! Implements the paper's §3.1 measurement pipeline over the simulated
//! Internet:
//!
//! * [`iterator`] — ZMap's address iteration: a pseudorandom permutation of
//!   the target space built from a cyclic multiplicative group modulo a
//!   prime, so probes spread evenly over networks instead of hammering one
//!   subnet (Durumeric et al., USENIX Security '13);
//! * [`probe`] — per-protocol application probes: Telnet banner reads, MQTT
//!   unauthenticated CONNECT + wildcard SUBSCRIBE, AMQP protocol header,
//!   XMPP stream open, CoAP `/.well-known/core`, SSDP `ssdp:discover`;
//! * [`scanner`] — the scanning agent: paced sweeps, fixed source port,
//!   blocklists (ZMap default + FireHOL-style), response collection,
//!   host records;
//! * [`classify`] — the misconfiguration classifier implementing the
//!   indicators of Tables 2 (banner-based, TCP) and 3 (response-based, UDP);
//! * [`ztag`] — device-type annotation from banners/responses (Appendix
//!   Table 11, Fig. 2);
//! * [`datasets`] — the open-dataset providers (Project Sonar, Shodan) as
//!   independent scanners with their own coverage models — Table 4's
//!   source-to-source deltas are *measured*, not transcribed;
//! * [`schedule`] — the scan calendar of Appendix Table 9;
//! * [`results`] — the scan capture and the sorted scan-result dataset
//!   with merge/count/export.

pub mod bitset;
pub mod classify;
pub mod datasets;
pub mod iterator;
pub mod probe;
pub mod results;
pub mod scanner;
pub mod schedule;
pub mod ztag;

pub use classify::classify_response;
pub use iterator::AddressPermutation;
pub use results::{HostRecord, ScanCapture, ScanResults, SortedRecords};
pub use scanner::{RetryPolicy, ScanResilience, Scanner, ScannerConfig, TargetSpace};
pub use schedule::scan_start;
