//! Property-based tests for the elastic sharding layer: shard-derived RNG
//! streams must be pairwise independent (no positional collisions), and
//! shard ownership must be a true partition — balanced within tolerance and
//! summing exactly to the domain — at every supported power-of-two count.

use std::net::Ipv4Addr;

use ofh_net::rng::rng_for_indexed;
use ofh_net::{shard_of, ShardSpec, MAX_SHARDS};
use proptest::prelude::*;
use rand::Rng;

/// The elastic range: every count the partition supports, from the
/// degenerate single shard through the 4096-way maximum.
const ELASTIC_COUNTS: [u32; 6] = [1, 2, 4, 64, 1024, 4096];

/// Sibling shard RNG streams never collide position-wise: for any master
/// seed and pair of distinct shards, the first 10k u64 draws differ at
/// every position. A collision would mean two shards replay each other's
/// randomness and their merged traces lose independence.
#[test]
fn sibling_shard_streams_never_collide() {
    for master in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
        let specs: Vec<ShardSpec> = ShardSpec::all(4).collect();
        let streams: Vec<Vec<u64>> = specs
            .iter()
            .map(|s| {
                let mut rng = rng_for_indexed(s.seed(master, "shard-net"), "stream", 0);
                (0..10_000).map(|_| rng.gen::<u64>()).collect()
            })
            .collect();
        for a in 0..streams.len() {
            for b in (a + 1)..streams.len() {
                let collisions = streams[a]
                    .iter()
                    .zip(&streams[b])
                    .filter(|(x, y)| x == y)
                    .count();
                assert_eq!(
                    collisions, 0,
                    "shards {a} and {b} collided under master {master:#x}"
                );
            }
        }
    }
}

/// The same independence at the elastic extremes: sampled shard pairs of a
/// 4096-way partition — including the far corners — draw positionally
/// disjoint streams for every re-keyed label.
#[test]
fn extreme_count_streams_stay_independent() {
    let indices = [0u32, 1, 63, 64, 1023, 2048, 4094, 4095];
    for label in ["shard-net", "scan"] {
        let streams: Vec<Vec<u64>> = indices
            .iter()
            .map(|&index| {
                let spec = ShardSpec { index, count: MAX_SHARDS };
                let mut rng = rng_for_indexed(spec.seed(7, label), "stream", 0);
                (0..2_000).map(|_| rng.gen::<u64>()).collect()
            })
            .collect();
        for a in 0..streams.len() {
            for b in (a + 1)..streams.len() {
                let collisions = streams[a]
                    .iter()
                    .zip(&streams[b])
                    .filter(|(x, y)| x == y)
                    .count();
                assert_eq!(
                    collisions, 0,
                    "shards {} and {} collided under label {label}",
                    indices[a], indices[b]
                );
            }
        }
    }
}

/// Balance and exact coverage across the whole elastic range, in one walk:
/// a single histogram of `shard_of` over a contiguous 2^22 range shows (a)
/// per-shard counts summing exactly to the range size at every count, and
/// (b) every shard within [½, 2]× of its ideal share — a spread the study's
/// shard loop absorbs, since a worker done with a light shard takes the
/// next one from the shared counter.
#[test]
fn elastic_counts_balance_within_tolerance_and_cover_exactly() {
    let base = u32::from(Ipv4Addr::new(16, 0, 0, 0));
    let size = 1u64 << 22;
    // Counting at the maximum refinement once is enough: ownership at any
    // coarser power of two is the mask of the same hash bits, so coarse
    // histograms are exact sums of fine buckets.
    let mut fine = vec![0u64; MAX_SHARDS as usize];
    for off in 0..size {
        fine[shard_of(Ipv4Addr::from(base + off as u32), MAX_SHARDS) as usize] += 1;
    }
    for count in ELASTIC_COUNTS {
        let mut owned = vec![0u64; count as usize];
        for (bucket, n) in fine.iter().enumerate() {
            owned[bucket & (count as usize - 1)] += n;
        }
        assert_eq!(owned.iter().sum::<u64>(), size, "coverage at count {count}");
        let ideal = size / count as u64;
        for (index, &n) in owned.iter().enumerate() {
            assert!(
                n > ideal / 2 && n < ideal * 2,
                "count {count}: shard {index} owns {n} (ideal {ideal})"
            );
        }
    }
    // The coarse histograms really are refinements of each other (spot-check
    // the mask identity the fold above relies on).
    for off in (0..size).step_by(4_097) {
        let addr = Ipv4Addr::from(base + off as u32);
        assert_eq!(shard_of(addr, 64), shard_of(addr, MAX_SHARDS) & 63);
    }
}

proptest! {
    /// Every address in an arbitrary CIDR-aligned range is owned by exactly
    /// one shard, and per-shard owned counts sum to the range size — shard
    /// ownership is a true partition at every power-of-two count.
    #[test]
    fn shard_ownership_partitions_cidr_range(
        base in any::<u32>(),
        bits in 0u32..=12,
        k in 0u32..=6,
    ) {
        let count = 1u32 << k;
        let size = 1u64 << bits;
        let base = Ipv4Addr::from(base & !((size - 1) as u32)); // CIDR-align
        let specs: Vec<ShardSpec> = ShardSpec::all(count).collect();
        let mut owned = vec![0u64; count as usize];
        for off in 0..size {
            let addr = Ipv4Addr::from(u32::from(base).wrapping_add(off as u32));
            let owners: Vec<u32> = specs
                .iter()
                .filter(|s| s.owns(addr))
                .map(|s| s.index)
                .collect();
            prop_assert_eq!(owners.len(), 1, "addr {} owners {:?}", addr, owners);
            prop_assert_eq!(owners[0], shard_of(addr, count));
            owned[owners[0] as usize] += 1;
        }
        // owned_in agrees with the direct walk, and counts sum to the size.
        for s in &specs {
            prop_assert_eq!(s.owned_in(base, size), owned[s.index as usize]);
        }
        prop_assert_eq!(owned.iter().sum::<u64>(), size);
    }

    /// Shard seeds are injective over (shard, label) for a fixed master —
    /// across the full elastic index range: distinct shards or distinct
    /// stream labels never share a re-keyed seed.
    #[test]
    fn shard_seeds_unique(master in any::<u64>()) {
        let labels = ["shard-net", "scan", "sonar", "shodan"];
        let mut seen = std::collections::BTreeSet::new();
        for spec in ShardSpec::all(MAX_SHARDS) {
            for label in labels {
                prop_assert!(
                    seen.insert(spec.seed(master, label)),
                    "seed collision at shard {} label {}", spec.index, label
                );
            }
        }
    }
}
