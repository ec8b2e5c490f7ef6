//! # ofh-fingerprint — honeypot fingerprinting
//!
//! Implements §3.2: detect honeypots among scan results so they can be
//! filtered from the misconfigured-device dataset (8,192 filtered in the
//! paper, Table 6). The approach follows the authors' multistage framework
//! (Srinivasa et al.) and the banner techniques of Morishita et al. and
//! Vetterl et al.:
//!
//! 1. **Passive stage** ([`signatures`], [`matcher`]) — match the raw
//!    banners already collected by the scan against the static signatures
//!    each honeypot family ships with. Matching uses a multi-pattern
//!    Aho-Corasick automaton (the `banner_match` ablation bench compares it
//!    with the naive scan).
//! 2. **Active stage** ([`engine`]) — probe each passive candidate twice
//!    with junk input: low-interaction honeypots replay a *static response*,
//!    while real devices' shells react to the input. Candidates that answer
//!    identically (and keep serving their banner) are confirmed.

pub mod engine;
pub mod matcher;
pub mod signatures;

pub use engine::{Detection, FingerprintProber, FingerprintReport};
pub use matcher::AhoCorasick;
pub use signatures::SignatureDb;
