//! Property tests for the fingerprint matcher: the Aho-Corasick automaton
//! must agree with the naive oracle on arbitrary pattern sets and haystacks,
//! and the passive stage, which matches each distinct banner buffer once,
//! must agree with matching every record on its own.

use std::net::Ipv4Addr;

use ofh_fingerprint::engine::passive_candidates;
use ofh_fingerprint::matcher::{naive_find_all, AhoCorasick};
use ofh_fingerprint::SignatureDb;
use ofh_obs::{MetricRegistry, ObsConfig, ShardObs};
use ofh_scan::{HostRecord, ScanCapture};
use ofh_wire::Protocol;
use proptest::prelude::*;

/// The counters the passive stage records, each as its registry holds it
/// (`None` when the key was never created).
fn ac_counters(metrics: &MetricRegistry) -> Vec<(&'static str, Option<u64>)> {
    [
        "fingerprint.ac.banners_scanned",
        "fingerprint.ac.bytes_scanned",
        "fingerprint.ac.matches",
    ]
    .into_iter()
    .map(|name| (name, metrics.counters().get(&(name, "")).copied()))
    .collect()
}

/// Banners to repeat across records: every Table 6 signature bare and
/// wrapped in other bytes, two signatures in one banner (two matches),
/// device banners that match nothing, and the empty response.
fn banner_pool(db: &SignatureDb) -> Vec<Vec<u8>> {
    let mut pool: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"\xff\xfb\x01\xff\xfb\x03PK5001Z login:\r\nlogin: ".to_vec(),
        b"SSH-2.0-dropbear_2019.78\r\n".to_vec(),
        b"$ ".to_vec(),
    ];
    for family in db.families() {
        let signature = family.signature();
        pool.push(signature.to_vec());
        pool.push([b"motd\r\n".as_slice(), signature, b"\r\n$ "].concat());
    }
    let [a, b, ..] = db.families() else {
        unreachable!("Table 6 has more than two families")
    };
    pool.push([a.signature(), b"\r\n", b.signature()].concat());
    pool
}

proptest! {
    /// Differential test: the dense automaton vs naive search, arbitrary
    /// inputs.
    #[test]
    fn automaton_matches_naive(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..12), 1..8),
        haystack in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let expected = naive_find_all(&patterns, &haystack);
        let ac = AhoCorasick::new(&patterns);
        prop_assert_eq!(ac.find_all(&haystack), expected);
    }

    /// The production entry point and its ablation oracle agree on
    /// arbitrary banners, with or without an embedded signature.
    #[test]
    fn match_banner_agrees_with_naive(
        prefix in prop::collection::vec(any::<u8>(), 0..64),
        suffix in prop::collection::vec(any::<u8>(), 0..64),
        embed in prop::option::of(0usize..9),
    ) {
        let db = SignatureDb::new();
        let mut banner = prefix;
        if let Some(which) = embed {
            banner.extend_from_slice(db.families()[which].signature());
        }
        banner.extend_from_slice(&suffix);
        prop_assert_eq!(db.match_banner(&banner), db.match_banner_naive(&banner));
    }

    /// Patterns embedded at arbitrary positions are always found.
    #[test]
    fn embedded_patterns_found(
        prefix in prop::collection::vec(any::<u8>(), 0..64),
        suffix in prop::collection::vec(any::<u8>(), 0..64),
        which in 0usize..9,
    ) {
        let db = SignatureDb::new();
        let family = db.families()[which];
        let mut haystack = prefix;
        haystack.extend_from_slice(family.signature());
        haystack.extend_from_slice(&suffix);
        // Some signature may be a substring of another's context; at minimum
        // *a* family must match, and if unique, the right one.
        let found = db.match_banner(&haystack);
        prop_assert!(found.is_some(), "embedded signature not found");
    }

    /// Random haystacks essentially never match (no signature is trivial).
    #[test]
    fn random_noise_rarely_matches(haystack in prop::collection::vec(any::<u8>(), 0..64)) {
        let db = SignatureDb::new();
        // The shortest signature is 9 specific bytes (Cowrie's IAC prefix);
        // the chance of random bytes containing any signature is ~2^-72.
        if haystack.len() < 20 {
            prop_assert_eq!(db.match_banner(&haystack), None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `passive_candidates` matches each distinct raw buffer once: its
    /// candidates, in record order, equal `match_banner` run on every
    /// record, and the `fingerprint.ac.*` counters it records equal the
    /// per-record sums. The records come from `ScanCapture::record` with
    /// heavily repeated banners (one shared buffer per protocol and
    /// bytes), plus one-off `HostRecord::new` records whose bytes equal
    /// pooled ones but sit in buffers of their own.
    #[test]
    fn passive_candidates_match_the_per_record_oracle(
        grabs in prop::collection::vec((0u32..256, 0usize..24, 0usize..6), 0..160),
        one_offs in prop::collection::vec((0u32..256, 0usize..24), 0..24),
    ) {
        let db = SignatureDb::new();
        let pool = banner_pool(&db);
        let mut capture = ScanCapture::new("ZMap Scan");
        for &(host, banner, protocol) in &grabs {
            let protocol = Protocol::SCANNED[protocol];
            let port = 1_000 + protocol as u16;
            capture.record(Ipv4Addr::from(0x1000_0000 + host), port, protocol, &pool[banner % pool.len()]);
        }
        let mut results = capture.seal();
        for &(host, banner) in &one_offs {
            let raw = pool[banner % pool.len()].clone();
            results.insert(HostRecord::new(Ipv4Addr::from(0x1000_0000 + host), 2_323, Protocol::Telnet, "", raw));
        }

        let guard = ofh_obs::install(ShardObs::for_shard(0, &ObsConfig::default()));
        let candidates = passive_candidates(&db, &results);
        let memo = guard.finish();

        let guard = ofh_obs::install(ShardObs::for_shard(0, &ObsConfig::default()));
        let expected: Vec<_> = results
            .records
            .iter()
            .filter_map(|r| db.match_banner(r.raw()).map(|family| (r.addr, r.port, family)))
            .collect();
        let oracle = guard.finish();

        prop_assert_eq!(candidates, expected);
        prop_assert_eq!(ac_counters(&memo.metrics), ac_counters(&oracle.metrics));
    }
}
