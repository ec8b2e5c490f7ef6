//! A device agent built from the catalog is one heap block.
//!
//! The study builds an agent the first time a packet reaches a device, and
//! drops it with its shard, so every block an agent takes is one malloc and
//! one free per device per study. `DeviceRecord::build_agent` borrows the
//! device's identity from the catalog and its responses from the shared
//! tables, so it allocates only the agent's `Box`. A counting global
//! allocator checks that for every catalog profile in every posture.
//!
//! Allocations are counted per thread, so tests running in parallel in this
//! binary cannot disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use ofh_devices::credentials::dictionary_for;
use ofh_devices::{DeviceRecord, Misconfig, PROFILES};
use ofh_intel::Country;
use ofh_wire::Protocol;

struct Counting;

thread_local! {
    /// Blocks allocated on this thread. `const`-initialized with no
    /// destructor, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// plain thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from this allocator with `layout`; the caller
        // upholds `new_size`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Every record the population can generate, up to address and country:
/// each protocol with no profile and with each catalog profile of its own,
/// in every posture of that protocol, at both AMQP address parities, and
/// Telnet also on 2323 and with each default credential.
fn records() -> Vec<DeviceRecord> {
    let record = |protocol, profile, misconfig, addr: u32| DeviceRecord {
        addr: Ipv4Addr::from(addr),
        protocol,
        profile,
        misconfig,
        country: Country::Usa,
        port: protocol.port(),
        default_creds: None,
    };
    let mut out = Vec::new();
    for protocol in Protocol::SCANNED {
        let mut postures = vec![None];
        postures.extend(Misconfig::ALL.into_iter().filter(|m| m.protocol() == protocol).map(Some));
        let profiles = PROFILES
            .iter()
            .filter(|p| p.protocol == protocol)
            .map(Some)
            .chain([None]);
        for profile in profiles {
            for &misconfig in &postures {
                for addr in [0x1000_0000, 0x1000_0001] {
                    out.push(record(protocol, profile, misconfig, addr));
                }
            }
        }
    }
    let telnet = out.iter().find(|r| r.protocol == Protocol::Telnet).unwrap().clone();
    out.push(DeviceRecord { port: 2323, ..telnet.clone() });
    for c in dictionary_for(Protocol::Telnet) {
        out.push(DeviceRecord { default_creds: Some(c), ..telnet.clone() });
    }
    out
}

#[test]
fn build_agent_allocates_only_the_agent() {
    let records = records();
    assert!(records.len() > 2 * PROFILES.len(), "{} records", records.len());
    // Warm the shared tables: each is built once per process, on first use.
    for r in &records {
        drop(r.build_agent());
    }
    for r in &records {
        let before = allocs();
        let agent = r.build_agent();
        let blocks = allocs() - before;
        drop(agent);
        assert_eq!(
            blocks,
            1,
            "{} agent for {:?} in posture {:?} took {blocks} heap blocks",
            r.protocol,
            r.profile.map(|p| p.name),
            r.misconfig
        );
    }
}
