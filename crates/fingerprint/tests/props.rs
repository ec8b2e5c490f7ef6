//! Property tests for the fingerprint matcher: the Aho-Corasick automaton
//! must agree with the naive oracle on arbitrary pattern sets and haystacks.

use ofh_fingerprint::matcher::{naive_find_all, AhoCorasick};
use ofh_fingerprint::SignatureDb;
use proptest::prelude::*;

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
