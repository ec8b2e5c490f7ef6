//! Population synthesis.
//!
//! Generates the simulated Internet's IoT population from the paper's
//! published marginals, scaled by a configurable factor:
//!
//! * per-protocol **exposed** host counts — Table 4's ZMap column;
//! * per-class **misconfigured** counts — Table 5;
//! * **country** distribution — Table 10 (devices are placed in
//!   country-allocated address blocks registered in a [`GeoDb`]);
//! * **device types** — profiles from Appendix Table 11, weight-sampled;
//! * **alternate ports** — ~15% of Telnet devices listen only on 2323
//!   (exactly the hosts Project Sonar's port-23-only scan misses, the
//!   mechanism behind Table 4's ZMap-vs-Sonar delta);
//! * **default credentials** — a slice of configured Telnet devices accept
//!   Table 12 entries (the bot-infectable weak population).
//!
//! The builder's [`DeviceRecord`]s are generation ground truth; the analysis
//! pipeline re-measures everything over the network.

use std::net::Ipv4Addr;

use ofh_intel::{Country, GeoDb};
use ofh_net::rng::rng_for;
use ofh_net::{Agent, SimNet};
use ofh_wire::{ports, Protocol};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::credentials::{dictionary_for, CredentialEntry};
use crate::endpoints::{AmqpDevice, CoapDevice, MqttDevice, TelnetDevice, UpnpDevice, XmppDevice};
use crate::misconfig::Misconfig;
use crate::profiles::{profiles_for, DeviceProfile};
use crate::universe::Universe;

/// Paper Table 4, ZMap column: exposed hosts per protocol.
pub const fn paper_exposed(protocol: Protocol) -> u64 {
    match protocol {
        Protocol::Amqp => 34_542,
        Protocol::Xmpp => 423_867,
        Protocol::Coap => 618_650,
        Protocol::Upnp => 1_381_940,
        Protocol::Mqtt => 4_842_465,
        Protocol::Telnet => 7_096_465,
        _ => 0,
    }
}

/// Fraction of Telnet devices listening only on 2323 (derived from Table 4:
/// Sonar, scanning only port 23, sees 6,004,956 of ZMap's 7,096,465).
pub const TELNET_ALT_PORT_FRACTION: f64 = 0.154;

/// Fraction of configured Telnet devices that accept a Table 12 default
/// credential (the weak, bot-infectable population).
pub const DEFAULT_CRED_FRACTION: f64 = 0.05;

/// Specification for a synthetic population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationSpec {
    pub universe: Universe,
    /// Divide every paper count by this factor (1 = full paper scale).
    pub scale: u64,
    pub seed: u64,
}

impl PopulationSpec {
    /// A paper count scaled down, rounded, but never rounding a non-zero
    /// class out of existence (small Table 5 cells must stay visible).
    pub fn scaled(&self, paper: u64) -> u64 {
        if paper == 0 {
            return 0;
        }
        ((paper + self.scale / 2) / self.scale).max(1)
    }
}

/// One generated device (generation ground truth).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRecord {
    pub addr: Ipv4Addr,
    pub protocol: Protocol,
    /// Identified profile, when the device is one of Table 11's models.
    #[serde(skip)]
    pub profile: Option<&'static DeviceProfile>,
    pub misconfig: Option<Misconfig>,
    pub country: Country,
    /// Listening port (Telnet devices may use 2323).
    pub port: u16,
    /// Default credentials the device accepts, if weakly configured.
    #[serde(skip)]
    pub default_creds: Option<&'static CredentialEntry>,
}

/// Per-country address allocator over the population region.
#[derive(Debug, Clone)]
pub struct CountryAllocator {
    /// (first address, length) chunks per country index.
    chunks: Vec<Vec<(u32, u32)>>,
    cursors: Vec<(usize, u32)>,
    countries: Vec<Country>,
}

impl CountryAllocator {
    fn index_of(&self, country: Country) -> Option<usize> {
        self.countries.iter().position(|&c| c == country)
    }

    /// Allocate the next free address in `country`'s space.
    pub fn alloc(&mut self, country: Country) -> Option<Ipv4Addr> {
        let ci = self.index_of(country)?;
        loop {
            let (chunk_idx, offset) = self.cursors[ci];
            let chunk = *self.chunks[ci].get(chunk_idx)?;
            if offset < chunk.1 {
                self.cursors[ci] = (chunk_idx, offset + 1);
                return Some(Ipv4Addr::from(chunk.0 + offset));
            }
            self.cursors[ci] = (chunk_idx + 1, 0);
        }
    }

    /// Allocate in a country chosen by Table 10 weights.
    pub fn alloc_weighted(&mut self, rng: &mut impl Rng) -> Option<(Ipv4Addr, Country)> {
        let country = sample_country(rng);
        // Fall back to any country with space if the sampled one is full.
        if let Some(addr) = self.alloc(country) {
            return Some((addr, country));
        }
        for &c in &self.countries.clone() {
            if let Some(addr) = self.alloc(c) {
                return Some((addr, c));
            }
        }
        None
    }
}

/// Sample a country by Table 10 share.
pub fn sample_country(rng: &mut impl Rng) -> Country {
    let mut x: f64 = rng.gen();
    for c in Country::TABLE10 {
        let s = c.table10_share();
        if x < s {
            return c;
        }
        x -= s;
    }
    Country::Other
}

/// The generated population.
pub struct Population {
    pub spec: PopulationSpec,
    pub records: Vec<DeviceRecord>,
    pub geo: GeoDb,
    /// Allocator for placing additional residents (wild honeypots, dedicated
    /// attacker hosts needing in-population addresses).
    pub allocator: CountryAllocator,
}

/// Builder for [`Population`].
pub struct PopulationBuilder {
    spec: PopulationSpec,
}

impl PopulationBuilder {
    pub fn new(spec: PopulationSpec) -> Self {
        PopulationBuilder { spec }
    }

    /// Generate the population.
    pub fn build(self) -> Population {
        let spec = self.spec;
        let mut rng = rng_for(spec.seed, "population");
        let (pop_base, pop_len) = spec.universe.population_space();

        // ---- Carve the population region into country chunks ----
        // Chunk granularity: /24 for small universes, /16 for IPv4-scale.
        let chunk_prefix: u8 = if spec.universe.bits <= 26 { 24 } else { 16 };
        let chunk_size: u32 = 1u32 << (32 - chunk_prefix);
        let n_chunks = (pop_len / chunk_size as u64) as usize;
        assert!(
            n_chunks >= 32,
            "population region too small for country allocation ({n_chunks} chunks)"
        );

        let mut geo = GeoDb::with_prefix(chunk_prefix);
        let mut countries: Vec<Country> = Country::TABLE10.to_vec();
        countries.push(Country::Other);
        let mut chunks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); countries.len()];

        // Assign chunks to countries proportionally to Table 10 shares, with
        // a shuffled order so countries are interleaved across the region.
        let mut order: Vec<usize> = (0..n_chunks).collect();
        order.shuffle(&mut rng);
        let base_u = u32::from(pop_base);
        for (rank, &chunk_idx) in order.iter().enumerate() {
            let frac = rank as f64 / n_chunks as f64;
            let country_idx = country_for_fraction(frac, &countries);
            let first = base_u + chunk_idx as u32 * chunk_size;
            chunks[country_idx].push((first, chunk_size));
            geo.allocate_block(
                Ipv4Addr::from(first),
                countries[country_idx],
                64_500 + (chunk_idx % 500) as u32,
            );
        }
        let cursors = vec![(0usize, 0u32); countries.len()];
        let mut allocator = CountryAllocator {
            chunks,
            cursors,
            countries: countries.clone(),
        };

        // ---- Generate devices protocol by protocol ----
        let mut records = Vec::new();
        for protocol in Protocol::SCANNED {
            let exposed = spec.scaled(paper_exposed(protocol));
            // Misconfiguration classes for this protocol, Table 5 counts.
            let classes: Vec<(Misconfig, u64)> = Misconfig::ALL
                .iter()
                .filter(|m| m.protocol() == protocol)
                .map(|&m| (m, spec.scaled(m.paper_count())))
                .collect();
            let misconf_total: u64 = classes.iter().map(|(_, n)| n).sum();
            // At extreme scales the never-round-to-zero rule can push the sum
            // of misconfigured classes past the rounded exposed count; keep
            // every Table 5 class visible by bumping exposure to match.
            let exposed = exposed.max(misconf_total);

            // Profile assignment pool (weighted), empty for XMPP/AMQP.
            let profile_pool = profiles_for(protocol);
            let total_weight: u32 = profile_pool.iter().map(|p| p.weight).sum();

            let telnet_dict = dictionary_for(Protocol::Telnet);

            let mut class_iter = classes.iter();
            let mut current = class_iter.next();
            let mut emitted_in_class = 0u64;

            for i in 0..exposed {
                // Misconfiguration: fill classes in order, then configured.
                let misconfig = loop {
                    match current {
                        Some((m, n)) => {
                            if emitted_in_class < *n {
                                emitted_in_class += 1;
                                break Some(*m);
                            }
                            current = class_iter.next();
                            emitted_in_class = 0;
                        }
                        None => break None,
                    }
                };

                let (addr, country) = allocator
                    .alloc_weighted(&mut rng)
                    .expect("population region exhausted");

                let profile = if total_weight > 0 {
                    let mut w = rng.gen_range(0..total_weight);
                    profile_pool
                        .iter()
                        .find(|p| {
                            if w < p.weight {
                                true
                            } else {
                                w -= p.weight;
                                false
                            }
                        })
                        .copied()
                } else {
                    None
                };

                let port = if protocol == Protocol::Telnet
                    && rng.gen_bool(TELNET_ALT_PORT_FRACTION)
                {
                    ports::TELNET_ALT
                } else {
                    protocol.port()
                };

                // Weak default credentials on a slice of *configured* Telnet
                // devices (misconfigured ones need no credentials at all).
                let default_creds = if protocol == Protocol::Telnet
                    && misconfig.is_none()
                    && rng.gen_bool(DEFAULT_CRED_FRACTION)
                {
                    let total: u64 = telnet_dict.iter().map(|c| c.paper_count as u64).sum();
                    let mut pick = rng.gen_range(0..total);
                    telnet_dict
                        .iter()
                        .find(|c| {
                            if pick < c.paper_count as u64 {
                                true
                            } else {
                                pick -= c.paper_count as u64;
                                false
                            }
                        })
                        .copied()
                } else {
                    None
                };

                let _ = i;
                records.push(DeviceRecord {
                    addr,
                    protocol,
                    profile,
                    misconfig,
                    country,
                    port,
                    default_creds,
                });
            }
        }

        Population {
            spec,
            records,
            geo,
            allocator,
        }
    }
}

/// Map a uniform fraction in [0,1) onto a country index by cumulative share.
fn country_for_fraction(frac: f64, countries: &[Country]) -> usize {
    let mut cum = 0.0;
    for (i, c) in countries.iter().enumerate() {
        cum += c.table10_share();
        if frac < cum {
            return i;
        }
    }
    countries.len() - 1
}

impl DeviceRecord {
    /// Instantiate the behavioural agent for this record: one heap block,
    /// the agent's own. Its identity borrows the catalog, and every response
    /// its generation inputs fix is a shared table entry (see
    /// [`endpoints`](crate::endpoints), "Lean agents").
    pub fn build_agent(&self) -> Box<dyn Agent> {
        match self.protocol {
            Protocol::Telnet => {
                let mut dev = TelnetDevice::cataloged(self.profile, self.misconfig, self.port);
                if let Some(c) = self.default_creds {
                    dev = dev.with_credentials(c.username, c.password);
                }
                Box::new(dev)
            }
            Protocol::Mqtt => Box::new(MqttDevice::cataloged(self.profile, self.misconfig)),
            Protocol::Coap => Box::new(CoapDevice::cataloged(self.profile, self.misconfig)),
            Protocol::Upnp => Box::new(UpnpDevice::cataloged(self.profile, self.misconfig)),
            Protocol::Amqp => {
                let dev = AmqpDevice::new(self.misconfig);
                // Alternate the two vulnerable Table 2 versions across the
                // *misconfigured* population; configured brokers keep their
                // modern default.
                if self.misconfig.is_some() {
                    let version = if u32::from(self.addr) % 2 == 0 { "2.7.1" } else { "2.8.4" };
                    Box::new(dev.with_version(version))
                } else {
                    Box::new(dev)
                }
            }
            Protocol::Xmpp => Box::new(XmppDevice::new(self.misconfig, "iot-gateway")),
            other => unreachable!("population never exposes {other}"),
        }
    }
}

impl Population {
    /// Attach every device to the network.
    pub fn attach_all(&self, net: &mut SimNet) {
        for r in &self.records {
            net.attach(r.addr, r.build_agent());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> PopulationSpec {
        PopulationSpec {
            universe: Universe::new(Ipv4Addr::new(16, 0, 0, 0), 20),
            scale: 2_048,
            seed: 11,
        }
    }

    #[test]
    fn scaled_counts_preserve_small_classes() {
        let spec = small_spec();
        assert_eq!(spec.scaled(0), 0);
        assert!(spec.scaled(427) >= 1, "smallest Table 5 class must survive");
        assert_eq!(spec.scaled(2_048_000), 1_000);
    }

    #[test]
    fn population_counts_match_scaled_marginals() {
        let spec = small_spec();
        let pop = PopulationBuilder::new(spec).build();
        for proto in Protocol::SCANNED {
            let expect = spec.scaled(paper_exposed(proto));
            let got = pop.records.iter().filter(|r| r.protocol == proto).count() as u64;
            assert_eq!(got, expect, "{proto} exposed count");
        }
        for m in Misconfig::ALL {
            let expect = spec.scaled(m.paper_count());
            let got = pop
                .records
                .iter()
                .filter(|r| r.misconfig == Some(m))
                .count() as u64;
            assert_eq!(got, expect, "{m:?} count");
        }
    }

    #[test]
    fn addresses_unique_and_in_population_region() {
        let spec = small_spec();
        let pop = PopulationBuilder::new(spec).build();
        let (pop_base, pop_len) = spec.universe.population_space();
        let base = u32::from(pop_base);
        let mut addrs: Vec<u32> = pop.records.iter().map(|r| u32::from(r.addr)).collect();
        let n = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), n, "duplicate addresses");
        assert!(addrs.iter().all(|&a| a >= base && (a - base) as u64 <= pop_len));
    }

    #[test]
    fn geo_db_agrees_with_records() {
        let pop = PopulationBuilder::new(small_spec()).build();
        for r in pop.records.iter().take(500) {
            assert_eq!(pop.geo.country_of(r.addr), r.country, "{}", r.addr);
        }
    }

    #[test]
    fn country_shares_roughly_match_table10() {
        let pop = PopulationBuilder::new(small_spec()).build();
        let total = pop.records.len() as f64;
        let usa = pop
            .records
            .iter()
            .filter(|r| r.country == Country::Usa)
            .count() as f64;
        let share = usa / total;
        assert!((0.20..0.34).contains(&share), "USA share {share}");
        // Ordering: USA must dominate China.
        let china = pop
            .records
            .iter()
            .filter(|r| r.country == Country::China)
            .count() as f64;
        assert!(usa > china);
    }

    #[test]
    fn telnet_alternate_port_population_exists() {
        let pop = PopulationBuilder::new(small_spec()).build();
        let telnet: Vec<_> = pop
            .records
            .iter()
            .filter(|r| r.protocol == Protocol::Telnet)
            .collect();
        let alt = telnet.iter().filter(|r| r.port == ports::TELNET_ALT).count();
        let frac = alt as f64 / telnet.len() as f64;
        assert!((0.10..0.21).contains(&frac), "alt-port fraction {frac}");
    }

    #[test]
    fn some_telnet_devices_have_default_creds() {
        let pop = PopulationBuilder::new(small_spec()).build();
        let weak = pop
            .records
            .iter()
            .filter(|r| r.default_creds.is_some())
            .count();
        assert!(weak > 0);
        // Only configured Telnet devices carry credentials.
        assert!(pop
            .records
            .iter()
            .filter(|r| r.default_creds.is_some())
            .all(|r| r.protocol == Protocol::Telnet && r.misconfig.is_none()));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PopulationBuilder::new(small_spec()).build();
        let b = PopulationBuilder::new(small_spec()).build();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn agents_build_for_every_record() {
        let pop = PopulationBuilder::new(PopulationSpec {
            universe: Universe::new(Ipv4Addr::new(16, 0, 0, 0), 20),
            scale: 16_384,
            seed: 3,
        })
        .build();
        for r in &pop.records {
            let _agent = r.build_agent(); // must not panic
        }
    }

    #[test]
    fn allocator_supports_additional_residents() {
        let mut pop = PopulationBuilder::new(small_spec()).build();
        let extra = pop.allocator.alloc(Country::Germany).unwrap();
        assert_eq!(pop.geo.country_of(extra), Country::Germany);
        // Must not collide with any existing record.
        assert!(pop.records.iter().all(|r| r.addr != extra));
    }
}
