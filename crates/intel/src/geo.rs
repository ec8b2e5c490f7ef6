//! IP geolocation — the `ipgeolocation.io` stand-in.
//!
//! Table 10 breaks the 1.8M misconfigured devices down by country (USA 27%,
//! China 13%, Russia 9.1%, …) and FlowTuple records carry country code and
//! ASN. The simulation assigns each /16-aligned allocation to a country+ASN
//! when the population is generated; [`GeoDb`] answers lookups from those
//! allocations, so the analysis pipeline resolves countries the same way the
//! paper does (by database lookup, not by asking the device).

use std::fmt;
use std::net::Ipv4Addr;

use ofh_net::FastMap;
use serde::{Deserialize, Serialize};

/// Countries reported in the paper's Table 10, plus `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Country {
    Usa,
    China,
    Russia,
    Taiwan,
    Germany,
    Philippines,
    Uk,
    Brazil,
    India,
    Thailand,
    HongKong,
    SouthKorea,
    Israel,
    Canada,
    Bangladesh,
    France,
    Japan,
    Italy,
    Other,
}

impl Country {
    /// ISO 3166-1 alpha-2 code (as FlowTuple records it).
    pub const fn code(self) -> &'static str {
        match self {
            Country::Usa => "US",
            Country::China => "CN",
            Country::Russia => "RU",
            Country::Taiwan => "TW",
            Country::Germany => "DE",
            Country::Philippines => "PH",
            Country::Uk => "GB",
            Country::Brazil => "BR",
            Country::India => "IN",
            Country::Thailand => "TH",
            Country::HongKong => "HK",
            Country::SouthKorea => "KR",
            Country::Israel => "IL",
            Country::Canada => "CA",
            Country::Bangladesh => "BD",
            Country::France => "FR",
            Country::Japan => "JP",
            Country::Italy => "IT",
            Country::Other => "--",
        }
    }

    /// Display name used in Table 10.
    pub const fn name(self) -> &'static str {
        match self {
            Country::Usa => "USA",
            Country::China => "China",
            Country::Russia => "Russia",
            Country::Taiwan => "Taiwan",
            Country::Germany => "Germany",
            Country::Philippines => "Philippines",
            Country::Uk => "UK",
            Country::Brazil => "Brazil",
            Country::India => "India",
            Country::Thailand => "Thailand",
            Country::HongKong => "Hong Kong",
            Country::SouthKorea => "South Korea",
            Country::Israel => "Israel",
            Country::Canada => "Canada",
            Country::Bangladesh => "Bangladesh",
            Country::France => "France",
            Country::Japan => "Japan",
            Country::Italy => "Italy",
            Country::Other => "Other countries",
        }
    }

    /// Every country, in declaration order.
    pub const ALL: [Country; 19] = [
        Country::Usa,
        Country::China,
        Country::Russia,
        Country::Taiwan,
        Country::Germany,
        Country::Philippines,
        Country::Uk,
        Country::Brazil,
        Country::India,
        Country::Thailand,
        Country::HongKong,
        Country::SouthKorea,
        Country::Israel,
        Country::Canada,
        Country::Bangladesh,
        Country::France,
        Country::Japan,
        Country::Italy,
        Country::Other,
    ];

    /// All named countries (excluding `Other`), in Table 10 order.
    pub const TABLE10: [Country; 17] = [
        Country::Usa,
        Country::China,
        Country::Russia,
        Country::Taiwan,
        Country::Germany,
        Country::Philippines,
        Country::Uk,
        Country::Brazil,
        Country::India,
        Country::Thailand,
        Country::HongKong,
        Country::SouthKorea,
        Country::Israel,
        Country::Canada,
        Country::Bangladesh,
        Country::France,
        Country::Japan,
    ];

    /// The paper's Table 10 population shares (fractions summing to ~1.0,
    /// with `Other` absorbing the remainder). Used by the population builder
    /// to place devices, and by EXPERIMENTS.md as the expected baseline.
    pub const fn table10_share(self) -> f64 {
        match self {
            Country::Usa => 0.27,
            Country::China => 0.13,
            Country::Russia => 0.091,
            Country::Taiwan => 0.089,
            Country::Germany => 0.078,
            Country::Philippines => 0.062,
            Country::Uk => 0.058,
            Country::Brazil => 0.033,
            Country::India => 0.032,
            Country::Thailand => 0.027,
            Country::HongKong => 0.025,
            Country::SouthKorea => 0.025,
            Country::Israel => 0.021,
            Country::Canada => 0.019,
            Country::Bangladesh => 0.011,
            Country::France => 0.009,
            Country::Japan => 0.007,
            Country::Italy => 0.0,
            Country::Other => 0.013,
        }
    }
}

impl fmt::Display for Country {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An address-to-(country, ASN) database built from prefix-aligned
/// allocations.
///
/// Allocation at fixed prefix granularity (default /16, the typical RIR
/// allocation grain) keeps lookups O(1): the upper `prefix_len` bits index a
/// sparse map. Small test universes can use finer grains (e.g. /24). The
/// keys are simulated address prefixes, never outside input, and the map
/// is only looked up, so it uses the fabric's fast hasher.
#[derive(Debug, Clone)]
pub struct GeoDb {
    prefix_len: u8,
    slots: FastMap<u32, (Country, u32)>,
}

impl Default for GeoDb {
    fn default() -> Self {
        Self::new()
    }
}

impl GeoDb {
    /// A /16-granular database (the real-world default).
    pub fn new() -> Self {
        Self::with_prefix(16)
    }

    /// A database whose allocations are /`prefix_len` blocks.
    pub fn with_prefix(prefix_len: u8) -> Self {
        assert!((1..=32).contains(&prefix_len));
        GeoDb {
            prefix_len,
            slots: FastMap::default(),
        }
    }

    fn key(&self, addr: Ipv4Addr) -> u32 {
        u32::from(addr) >> (32 - self.prefix_len)
    }

    /// The allocation granularity in prefix bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Register the block containing `addr` as belonging to `country`/`asn`.
    pub fn allocate_block(&mut self, addr: Ipv4Addr, country: Country, asn: u32) {
        let key = self.key(addr);
        self.slots.insert(key, (country, asn));
    }

    /// Register the /16 containing `addr` (panics unless the database uses
    /// /16 granularity; kept as the common-case named API).
    pub fn allocate_slash16(&mut self, addr: Ipv4Addr, country: Country, asn: u32) {
        assert_eq!(self.prefix_len, 16, "database granularity is not /16");
        self.allocate_block(addr, country, asn);
    }

    /// The country and ASN of `addr` in one lookup: `Country::Other` and
    /// no ASN outside every allocated block.
    pub fn lookup(&self, addr: Ipv4Addr) -> (Country, Option<u32>) {
        match self.slots.get(&self.key(addr)) {
            Some(&(country, asn)) => (country, Some(asn)),
            None => (Country::Other, None),
        }
    }

    pub fn country_of(&self, addr: Ipv4Addr) -> Country {
        self.lookup(addr).0
    }

    pub fn asn_of(&self, addr: Ipv4Addr) -> Option<u32> {
        self.lookup(addr).1
    }

    /// Number of allocated blocks.
    pub fn allocated(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = Country::TABLE10
            .iter()
            .map(|c| c.table10_share())
            .sum::<f64>()
            + Country::Other.table10_share();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn table10_ordering_matches_paper() {
        // Shares must be non-increasing in Table 10 order (USA first).
        let shares: Vec<f64> = Country::TABLE10.iter().map(|c| c.table10_share()).collect();
        assert!(shares.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(Country::TABLE10[0], Country::Usa);
    }

    #[test]
    fn geodb_lookup() {
        let mut db = GeoDb::new();
        db.allocate_slash16("100.64.0.0".parse().unwrap(), Country::Germany, 3320);
        assert_eq!(db.country_of("100.64.7.9".parse().unwrap()), Country::Germany);
        assert_eq!(db.asn_of("100.64.7.9".parse().unwrap()), Some(3320));
        assert_eq!(db.country_of("100.65.0.1".parse().unwrap()), Country::Other);
        assert_eq!(db.asn_of("100.65.0.1".parse().unwrap()), None);
        assert_eq!(db.lookup("100.64.7.9".parse().unwrap()), (Country::Germany, Some(3320)));
        assert_eq!(db.lookup("100.65.0.1".parse().unwrap()), (Country::Other, None));
        assert_eq!(db.allocated(), 1);
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<&str> = Country::TABLE10.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Country::TABLE10.len());
    }
}
