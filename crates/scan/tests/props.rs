//! Property tests for the scanning layer.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ofh_scan::{classify_response, AddressPermutation, HostRecord, ScanResults};
use ofh_wire::Protocol;
use proptest::prelude::*;

/// Disjoint per-shard datasets: a set of distinct (address, port) keys, each
/// dealt to one of `shards` parts (some parts may stay empty).
fn arb_disjoint_parts() -> impl Strategy<Value = Vec<ScanResults>> {
    (
        1usize..8,
        prop::collection::vec(((0u32..64, 0u16..4), (any::<u8>(), "[a-z]{0,6}")), 0..150),
    )
        .prop_map(|(shards, records)| {
            let keys: BTreeMap<(u32, u16), (u8, String)> = records.into_iter().collect();
            let mut parts: Vec<ScanResults> =
                (0..shards).map(|_| ScanResults::new("ZMap Scan")).collect();
            for ((addr, port), (deal, response)) in keys {
                parts[deal as usize % shards].insert(HostRecord {
                    addr: Ipv4Addr::from(0x0a00_0000 + addr),
                    port: 23 + port,
                    protocol: Protocol::Telnet,
                    raw: response.as_bytes().to_vec(),
                    response,
                });
            }
            parts
        })
}

proptest! {
    /// The bulk merge equals folding the parts in with `BTreeMap::extend`,
    /// the record-by-record union it replaced.
    #[test]
    fn merge_matches_extend_fold(parts in arb_disjoint_parts()) {
        let mut expected = BTreeMap::new();
        for part in &parts {
            expected.extend(part.records.clone());
        }
        let merged = ScanResults::merge("ZMap Scan", parts);
        prop_assert_eq!(merged.source.as_str(), "ZMap Scan");
        prop_assert_eq!(merged.records, expected);
    }

    /// The address permutation is a bijection over arbitrary sizes.
    #[test]
    fn permutation_bijection(size in 1u64..30_000, seed in any::<u64>()) {
        let mut seen = vec![false; size as usize];
        let mut count = 0u64;
        for v in AddressPermutation::new(size, seed) {
            prop_assert!(v < size);
            prop_assert!(!seen[v as usize], "value {v} visited twice");
            seen[v as usize] = true;
            count += 1;
        }
        prop_assert_eq!(count, size);
    }

    /// Two permutations with the same (size, seed) are identical; different
    /// seeds differ (for non-degenerate sizes).
    #[test]
    fn permutation_seed_sensitivity(size in 100u64..5_000, seed in any::<u64>()) {
        let a: Vec<u64> = AddressPermutation::new(size, seed).take(32).collect();
        let b: Vec<u64> = AddressPermutation::new(size, seed).take(32).collect();
        prop_assert_eq!(&a, &b);
        let c: Vec<u64> = AddressPermutation::new(size, seed.wrapping_add(1)).take(32).collect();
        prop_assert_ne!(&a, &c);
    }

    /// The misconfiguration classifier is total over arbitrary text and
    /// only ever returns a class belonging to the probed protocol.
    #[test]
    fn classifier_total_and_protocol_consistent(text in "\\PC{0,300}") {
        for proto in Protocol::SCANNED {
            if let Some(class) = classify_response(proto, &text) {
                prop_assert_eq!(class.protocol(), proto);
            }
        }
    }

    /// Classifier rules are monotone under concatenation for the positive
    /// indicators: appending the indicator to arbitrary text always flags.
    #[test]
    fn indicators_always_fire(prefix in "[a-zA-Z0-9 :.\\r\\n]{0,80}") {
        use ofh_devices::Misconfig;
        let cases = [
            (Protocol::Mqtt, "MQTT Connection Code:0", Misconfig::MqttNoAuth),
            (Protocol::Upnp, "ST: upnp:rootdevice", Misconfig::UpnpReflection),
            (Protocol::Coap, "220-Admin </x>", Misconfig::CoapNoAuthAdmin),
            (Protocol::Amqp, "Version: 2.7.1", Misconfig::AmqpNoAuth),
        ];
        for (proto, indicator, expect) in cases {
            let text = format!("{prefix}{indicator}");
            prop_assert_eq!(classify_response(proto, &text), Some(expect), "{}", proto);
        }
    }
}
