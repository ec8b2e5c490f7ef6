//! Struct-of-arrays storage for a streaming (first-touch) device population.
//!
//! At paper scale the universe holds millions of occupied addresses. Keeping
//! a boxed agent per host from the start of the simulation means millions of
//! heap allocations before the first packet flies — and most of that state is
//! untouched until a scanner or attacker actually reaches the address. A
//! [`HostArena`] instead keeps the *generation ground truth* (everything a
//! [`DeviceRecord`] holds) in parallel column vectors sorted by address:
//!
//! * the arena answers by slot, not by address: its owner maps addresses
//!   to slots (the study's shard spawner keeps one hash directory over its
//!   arena slots and wild honeypots, so occupancy, the port rule and
//!   spawning are one lookup each), and [`HostArena::addrs`] lists each
//!   slot's address in ascending order to build that map from;
//! * per-host agents are built on demand ([`HostArena::build_agent`]) when a
//!   packet first arrives, which is exactly the `HostSpawner` contract in
//!   `ofh_net` — generation is a pure function of the stored columns, so
//!   first-touch order cannot change what spawns;
//! * the columns are plain `Copy` data (`&'static` profile/credential refs,
//!   small enums): cloning a shard's slice of the arena is a handful of
//!   memcpys, no deep clones.
//!
//! The arena never learns *which* hosts were touched — that bookkeeping lives
//! in the fabric (`SimNet::materialized_count`), keeping the arena read-only
//! and shareable after construction.

use std::net::Ipv4Addr;

use ofh_intel::Country;
use ofh_net::{Agent, Transport};
use ofh_wire::Protocol;

use crate::credentials::CredentialEntry;
use crate::misconfig::Misconfig;
use crate::population::DeviceRecord;
use crate::profiles::DeviceProfile;

/// Sorted struct-of-arrays store of device records, indexed by address.
#[derive(Debug, Clone, Default)]
pub struct HostArena {
    /// Sorted, deduplicated host addresses — the search column.
    addrs: Vec<u32>,
    protocols: Vec<Protocol>,
    misconfigs: Vec<Option<Misconfig>>,
    countries: Vec<Country>,
    ports: Vec<u16>,
    profiles: Vec<Option<&'static DeviceProfile>>,
    creds: Vec<Option<&'static CredentialEntry>>,
}

impl HostArena {
    /// Build an arena from every record accepted by `keep`, sorted by
    /// address. Input order is irrelevant: two arenas built from the same
    /// record set are identical columns.
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = &'a DeviceRecord>,
        mut keep: impl FnMut(&DeviceRecord) -> bool,
    ) -> HostArena {
        let mut picked: Vec<&DeviceRecord> = records.into_iter().filter(|r| keep(r)).collect();
        picked.sort_by_key(|r| u32::from(r.addr));
        let mut arena = HostArena::default();
        for r in picked {
            debug_assert!(
                arena.addrs.last() != Some(&u32::from(r.addr)),
                "duplicate host address {}",
                r.addr
            );
            arena.addrs.push(u32::from(r.addr));
            arena.protocols.push(r.protocol);
            arena.misconfigs.push(r.misconfig);
            arena.countries.push(r.country);
            arena.ports.push(r.port);
            arena.profiles.push(r.profile);
            arena.creds.push(r.default_creds);
        }
        arena
    }

    /// Number of hosts stored.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Arena slot for `addr`, if occupied: a binary search over the sorted
    /// address column. The test oracle for slot order; production callers
    /// keep their own address map.
    #[cfg(test)]
    fn lookup(&self, addr: Ipv4Addr) -> Option<usize> {
        self.addrs.binary_search(&u32::from(addr)).ok()
    }

    /// Whether `addr` is an arena host (test oracle, as [`Self::lookup`]).
    #[cfg(test)]
    fn contains(&self, addr: Ipv4Addr) -> bool {
        self.lookup(addr).is_some()
    }

    /// Reassemble the full record stored at `slot` (columns → struct).
    pub fn record(&self, slot: usize) -> DeviceRecord {
        DeviceRecord {
            addr: Ipv4Addr::from(self.addrs[slot]),
            protocol: self.protocols[slot],
            profile: self.profiles[slot],
            misconfig: self.misconfigs[slot],
            country: self.countries[slot],
            port: self.ports[slot],
            default_creds: self.creds[slot],
        }
    }

    /// Whether the host at `slot` serves `port` over `transport` — the
    /// agent's own port guard ([`crate::endpoints::serves`]) answered from
    /// the protocol and port columns, without building the agent.
    #[inline]
    pub fn serves(&self, slot: usize, transport: Transport, port: u16) -> bool {
        crate::endpoints::serves(self.protocols[slot], self.ports[slot], transport, port)
    }

    /// Instantiate the behavioural agent for `slot`. Pure function of the
    /// stored columns: calling it twice (or in two different simulations)
    /// yields agents with identical behaviour.
    pub fn build_agent(&self, slot: usize) -> Box<dyn Agent> {
        self.record(slot).build_agent()
    }

    /// Iterate the stored addresses in ascending order, which is slot
    /// order: the `i`th address is the host at slot `i`.
    pub fn addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.addrs.iter().map(|&a| Ipv4Addr::from(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{PopulationBuilder, PopulationSpec};
    use crate::universe::Universe;

    fn test_pop() -> crate::population::Population {
        PopulationBuilder::new(PopulationSpec {
            universe: Universe::new(Ipv4Addr::new(16, 0, 0, 0), 16),
            scale: 8_192,
            seed: 11,
        })
        .build()
    }

    #[test]
    fn arena_round_trips_every_record() {
        let pop = test_pop();
        let arena = HostArena::from_records(&pop.records, |_| true);
        assert_eq!(arena.len(), pop.records.len());
        for r in &pop.records {
            let slot = arena.lookup(r.addr).expect("record address present");
            assert_eq!(&arena.record(slot), r, "{}", r.addr);
        }
    }

    #[test]
    fn build_is_order_independent() {
        let pop = test_pop();
        let forward = HostArena::from_records(&pop.records, |_| true);
        let reversed: Vec<&DeviceRecord> = pop.records.iter().rev().collect();
        let backward = HostArena::from_records(reversed.into_iter(), |_| true);
        assert_eq!(forward.addrs, backward.addrs);
        for slot in 0..forward.len() {
            assert_eq!(forward.record(slot), backward.record(slot));
        }
    }

    #[test]
    fn first_touch_generation_is_idempotent() {
        // The spawner contract: what materializes for an address must depend
        // only on the address, never on touch order or repetition.
        let pop = test_pop();
        let arena = HostArena::from_records(&pop.records, |_| true);
        let addr = pop.records[pop.records.len() / 2].addr;
        let slot = arena.lookup(addr).unwrap();
        assert_eq!(arena.record(slot), arena.record(slot));
        // Agents build without panicking, twice.
        let _ = arena.build_agent(slot);
        let _ = arena.build_agent(slot);
    }

    #[test]
    fn filter_partitions_exactly() {
        // Shard-style split: two complementary filters cover the population
        // with no overlap and no loss.
        let pop = test_pop();
        let even = HostArena::from_records(&pop.records, |r| u32::from(r.addr) % 2 == 0);
        let odd = HostArena::from_records(&pop.records, |r| u32::from(r.addr) % 2 == 1);
        assert_eq!(even.len() + odd.len(), pop.records.len());
        for r in &pop.records {
            assert!(
                even.contains(r.addr) ^ odd.contains(r.addr),
                "{} must live in exactly one partition",
                r.addr
            );
        }
    }

    #[test]
    fn misses_are_clean() {
        let pop = test_pop();
        let arena = HostArena::from_records(&pop.records, |_| true);
        assert!(!arena.contains(Ipv4Addr::new(15, 255, 255, 255)));
        assert!(arena.lookup(Ipv4Addr::new(17, 0, 0, 0)).is_none());
        let empty = HostArena::from_records(&pop.records, |_| false);
        assert!(empty.is_empty());
        assert!(!empty.contains(pop.records[0].addr));
    }
}
