//! The honeypot signature database — Table 6 as matchable patterns.

use ofh_honeypots::WildHoneypot;

use crate::matcher::AhoCorasick;

/// The signature database: one pattern per wild-honeypot family, compiled
/// into a single automaton.
#[derive(Debug, Clone)]
pub struct SignatureDb {
    families: Vec<WildHoneypot>,
    automaton: AhoCorasick,
    patterns: Vec<Vec<u8>>,
}

impl Default for SignatureDb {
    fn default() -> Self {
        Self::new()
    }
}

impl SignatureDb {
    /// Build from the Table 6 signature set.
    pub fn new() -> SignatureDb {
        let families: Vec<WildHoneypot> = WildHoneypot::ALL.to_vec();
        let patterns: Vec<Vec<u8>> = families.iter().map(|f| f.signature().to_vec()).collect();
        let automaton = AhoCorasick::new(&patterns);
        SignatureDb {
            families,
            automaton,
            patterns,
        }
    }

    /// The family whose signature occurs in `banner`, if any. When multiple
    /// match (signatures are designed disjoint, but banners are attacker
    /// controlled), the longest pattern wins.
    pub fn match_banner(&self, banner: &[u8]) -> Option<WildHoneypot> {
        let (family, matches) = self.match_quietly(banner);
        count_scanned(1, banner.len() as u64, matches);
        family
    }

    /// [`Self::match_banner`] without the metrics: the family, plus how
    /// many signature occurrences the automaton found. For callers that
    /// tally the `fingerprint.ac.*` counters themselves.
    pub(crate) fn match_quietly(&self, banner: &[u8]) -> (Option<WildHoneypot>, u64) {
        let hits = self.automaton.find_all(banner);
        let matches = hits.len() as u64;
        let family = hits
            .into_iter()
            .max_by_key(|&i| self.patterns[i as usize].len())
            .map(|i| self.families[i as usize]);
        (family, matches)
    }

    /// Naive per-pattern matching (ablation oracle).
    pub fn match_banner_naive(&self, banner: &[u8]) -> Option<WildHoneypot> {
        crate::matcher::naive_find_all(&self.patterns, banner)
            .into_iter()
            .max_by_key(|&i| self.patterns[i as usize].len())
            .map(|i| self.families[i as usize])
    }

    pub fn families(&self) -> &[WildHoneypot] {
        &self.families
    }
}

/// Record `banners` scanned banners of `bytes` bytes in total, holding
/// `matches` signature occurrences, in the `fingerprint.ac.*` counters.
/// Keys appear as per-banner recording would create them: the first two
/// once any banner is scanned, `matches` once any signature occurs.
pub(crate) fn count_scanned(banners: u64, bytes: u64, matches: u64) {
    if banners > 0 {
        ofh_obs::count("fingerprint.ac.banners_scanned", banners);
        ofh_obs::count("fingerprint.ac.bytes_scanned", bytes);
    }
    if matches > 0 {
        ofh_obs::count("fingerprint.ac.matches", matches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_signature_matches_itself() {
        let db = SignatureDb::new();
        for f in WildHoneypot::ALL {
            let mut banner = f.signature().to_vec();
            banner.extend_from_slice(b"\r\n$ ");
            assert_eq!(db.match_banner(&banner), Some(f), "{f}");
        }
    }

    #[test]
    fn real_device_banners_do_not_match() {
        let db = SignatureDb::new();
        // Device banners from Table 11 + the generic forms the population
        // builder emits. None may fire a signature (zero false positives).
        let banners: Vec<Vec<u8>> = vec![
            b"\xff\xfb\x01\xff\xfb\x03PK5001Z login:\r\nlogin: ".to_vec(),
            b"\xff\xfb\x01\xff\xfb\x03192.168.0.64 login:\r\nroot@device:~$ ".to_vec(),
            b"\xff\xfb\x01\xff\xfb\x03BusyBox v1.31.0 (2020-01-01)\r\n$ ".to_vec(),
            b"SSH-2.0-dropbear_2019.78\r\n".to_vec(),
            b"Welcome to DCS-6620\r\nlogin: ".to_vec(),
        ];
        for b in banners {
            assert_eq!(db.match_banner(&b), None, "false positive on {b:?}");
        }
    }

    #[test]
    fn automaton_agrees_with_naive() {
        let db = SignatureDb::new();
        for f in WildHoneypot::ALL {
            let mut banner = b"prefix ".to_vec();
            banner.extend_from_slice(f.signature());
            assert_eq!(db.match_banner(&banner), db.match_banner_naive(&banner));
        }
        assert_eq!(db.match_banner(b"junk"), db.match_banner_naive(b"junk"));
    }
}
