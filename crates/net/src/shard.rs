//! Deterministic elastic address-space sharding.
//!
//! The study engine splits the simulated Internet into **2^k** shards
//! (`k` in `0..=12`, i.e. any power-of-two count in 1..=4096) and runs each
//! shard as an independent [`crate::SimNet`]. Shard ownership is a pure
//! function of the address (the low bits of a SplitMix64 hash, selected by
//! mask), so the partition — and therefore every shard's event trace —
//! depends only on the master seed and the shard *count*, never on how many
//! worker threads execute the shards. That is what makes the merged study
//! report byte-identical for any worker count.
//!
//! Two knobs, two contracts:
//!
//! * **Shard count is a semantic knob.** Each count is a *different* (but
//!   equally valid) partition: per-shard RNG streams are re-keyed by shard
//!   index, and sweep/replica boundaries move with the partition, so
//!   `shards=16` and `shards=64` produce different — individually
//!   deterministic — traces. The count is serialized with the config.
//! * **Worker count is a pure execution knob.** For a *fixed* shard count
//!   the report is byte-identical at any worker count (see
//!   `tests/parallel_determinism.rs` and ci.sh's scaling-smoke stage),
//!   which is why it is `#[serde(skip)]`.
//!
//! The hash (rather than a contiguous range split) matters: populations are
//! geographically clustered in address space, and a range split would give
//! some shards all the devices and others none. SplitMix64 scatters
//! neighbouring addresses across shards, so load stays balanced at every
//! supported count. Power-of-two counts make ownership a mask of hash bits:
//! the partition at count 2^k refines the partition at 2^(k-1) (each shard
//! splits in two), and `owns` costs one hash + one AND where a scanner
//! filters a permutation walk (once per distinct permutation per shard,
//! when the scanner is built).

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::rng::{derive_seed_indexed, splitmix64};

/// Salt folded into the ownership hash so shard assignment is unrelated to
/// any other SplitMix64 use of the raw address (e.g. latency jitter).
const SHARD_SALT: u64 = 0x5348_4152_4421_6f66; // "SHARD!of"

/// Largest supported shard count (2^12). The partition is elastic below
/// this: any power of two in `1..=MAX_SHARDS` is a valid count.
pub const MAX_SHARDS: u32 = 4_096;

/// One shard of a fixed-size partition of the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This shard's index in `0..count`.
    pub index: u32,
    /// Total number of shards in the partition (a power of two ≤ 4096).
    pub count: u32,
}

impl ShardSpec {
    /// The degenerate single-shard partition (owns every address).
    pub const WHOLE: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// All shards of a `count`-way partition.
    pub fn all(count: u32) -> impl Iterator<Item = ShardSpec> {
        let count = count.max(1);
        debug_assert!(
            count.is_power_of_two() && count <= MAX_SHARDS,
            "shard count {count} is not a power of two in 1..={MAX_SHARDS}"
        );
        (0..count).map(move |index| ShardSpec { index, count })
    }

    /// Whether this shard owns `addr`. Exactly one shard of a partition
    /// owns any given address.
    #[inline]
    pub fn owns(&self, addr: Ipv4Addr) -> bool {
        shard_of(addr, self.count) == self.index
    }

    /// Seed for this shard's event fabric / RNG streams: the master seed
    /// re-keyed by (label, shard index). Distinct per (label, index) —
    /// property-tested across the full 4096-shard range in
    /// `crates/net/tests/shard_props.rs` — and never colliding with the
    /// unsharded `derive_seed` streams because of the label. The *count* is
    /// deliberately not folded in: index `i` keeps its streams when the
    /// partition grows, so what changes between counts is exactly which
    /// addresses a stream governs (the partition), nothing else.
    pub fn seed(&self, master: u64, label: &str) -> u64 {
        derive_seed_indexed(master, label, self.index as u64)
    }

    /// How many of the `size` addresses starting at `base` this shard owns.
    /// O(size) in the general case; the single-shard partition answers
    /// immediately.
    pub fn owned_in(&self, base: Ipv4Addr, size: u64) -> u64 {
        if self.count <= 1 {
            return size;
        }
        let first = u32::from(base) as u64;
        (0..size)
            .filter(|off| shard_of(Ipv4Addr::from((first + off) as u32), self.count) == self.index)
            .count() as u64
    }
}

/// The shard (in `0..shards`) that owns `addr`. `shards` must be a power of
/// two ≤ [`MAX_SHARDS`] (enforced by `StudyConfig::validate`); ownership is
/// the low `log2(shards)` bits of the salted address hash.
#[inline]
pub fn shard_of(addr: Ipv4Addr, shards: u32) -> u32 {
    debug_assert!(
        shards >= 1 && shards.is_power_of_two() && shards <= MAX_SHARDS,
        "shard count {shards} is not a power of two in 1..={MAX_SHARDS}"
    );
    if shards <= 1 {
        return 0;
    }
    (splitmix64(u64::from(u32::from(addr)) ^ SHARD_SALT) & (shards as u64 - 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip;

    #[test]
    fn ownership_is_a_partition() {
        for shards in [1u32, 2, 8, 16, 64] {
            for a in 0..512u32 {
                let addr = Ipv4Addr::from(0x1000_0000 + a);
                let owners: Vec<u32> = ShardSpec::all(shards)
                    .filter(|s| s.owns(addr))
                    .map(|s| s.index)
                    .collect();
                assert_eq!(owners.len(), 1, "addr {addr} owned by {owners:?}");
                assert_eq!(owners[0], shard_of(addr, shards));
            }
        }
    }

    #[test]
    fn doubling_the_count_refines_the_partition() {
        // Mask ownership means every shard of a 2^(k-1) partition splits
        // into exactly shards {i, i + 2^(k-1)} of the 2^k partition.
        for a in 0..4_096u32 {
            let addr = Ipv4Addr::from(0x2000_0000 + a * 37);
            for k in 1..=6u32 {
                let fine = shard_of(addr, 1 << k);
                let coarse = shard_of(addr, 1 << (k - 1));
                assert_eq!(fine & ((1 << (k - 1)) - 1), coarse, "addr {addr} k {k}");
            }
        }
    }

    #[test]
    fn owned_counts_sum_to_size() {
        let base = ip(16, 0, 0, 0);
        let size = 4_096u64;
        for shards in [16u32, 64] {
            let total: u64 = ShardSpec::all(shards).map(|s| s.owned_in(base, size)).sum();
            assert_eq!(total, size);
        }
    }

    #[test]
    fn shards_are_balanced() {
        // Hash sharding must spread a contiguous range roughly evenly —
        // the point of hashing instead of range-splitting.
        let base = ip(16, 0, 0, 0);
        let size = 16_384u64;
        for s in ShardSpec::all(16) {
            let owned = s.owned_in(base, size);
            let ideal = size / 16;
            assert!(
                owned > ideal / 2 && owned < ideal * 2,
                "shard {} owns {owned} of {size} (ideal {ideal})",
                s.index
            );
        }
    }

    #[test]
    fn whole_owns_everything() {
        assert!(ShardSpec::WHOLE.owns(ip(1, 2, 3, 4)));
        assert_eq!(ShardSpec::WHOLE.owned_in(ip(16, 0, 0, 0), 1 << 20), 1 << 20);
    }

    #[test]
    fn seeds_differ_per_shard_and_label() {
        let a = ShardSpec { index: 0, count: 16 }.seed(7, "net");
        let b = ShardSpec { index: 1, count: 16 }.seed(7, "net");
        let c = ShardSpec { index: 0, count: 16 }.seed(7, "scan");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn growing_the_partition_keeps_a_shards_streams() {
        // Elasticity contract: the partition moves with the count, the
        // streams do not — shard 3 of 64 draws the same randomness as
        // shard 3 of 16.
        let small = ShardSpec { index: 3, count: 16 };
        let large = ShardSpec { index: 3, count: 64 };
        assert_eq!(small.seed(7, "shard-net"), large.seed(7, "shard-net"));
    }
}
