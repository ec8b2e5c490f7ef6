//! Hierarchical timer wheel: the event-queue core at paper scale.
//!
//! A binary heap pays `O(log n)` pointer-chasing sifts per operation, and at
//! paper scale (tens of millions of pending timeout backstops per shard) the
//! sift path stops fitting in cache. The classic alternative (Varghese &
//! Lauck's hashed/hierarchical timing wheels) buckets timers by time instead:
//! scheduling is an array push, and expiry walks an occupancy bitmap.
//!
//! ## Structure
//!
//! Time is the simulator's millisecond tick ([`crate::time::SimTime`]'s raw
//! `u64`). The innermost level (level 0) has [`L0_SLOTS`] = 256 one-tick
//! slots — wide on purpose: the simulator's dominant schedules (packet
//! latencies, retry backoffs, per-tick follow-ups) land within a few hundred
//! ticks of *now* and go straight into level 0, never paying a cascade.
//! Above it sit ten 64-slot levels; level `l ≥ 1` slots are `256·64^(l-1)`
//! ticks wide, so a tick decomposes as one 8-bit group plus ten 6-bit groups
//! (8 + 10·6 = 68 ≥ 64 bits — the wheel covers the full `u64` tick range
//! with no overflow list).
//!
//! An item with expiry `t` lives at the **highest level where `t` differs
//! from the wheel's base time `base`**: level 0 holds items expiring inside
//! the current 256-tick window, level 1 the current 16384-tick window, and
//! so on. When `base` advances into a higher-level slot, that slot's items
//! *cascade* down (each item re-places at a lower level, at most [`LEVELS`]
//! moves over its lifetime).
//!
//! ## Deterministic ordering contract
//!
//! The simulator's determinism rests on popping events in exact global
//! `(time, seq)` order — ties in simulated time break by insertion sequence
//! number (and each address shard owns an independent wheel, so the full
//! tie-break is `(time, shard, seq)` with the shard implicit). The wheel
//! guarantees this bit-for-bit compatibly with a binary heap:
//!
//! * All items in one level-0 slot share the *same* expiry tick (they agree
//!   with `base` on every bit above the bottom 8, and on the slot index
//!   below), and every bucket at every level stays seq-ascending by
//!   construction (pushes are seq-monotone, and a cascade batch — itself
//!   seq-ascending — only lands in empty lower levels), so draining a
//!   level-0 slot into the `ready` queue is a reversal, not a sort.
//! * Items scheduled *for the current tick while the current tick drains*
//!   carry strictly larger seqs than anything already in `ready`, so
//!   re-draining the slot after `ready` empties preserves global seq order.
//! * One occupancy bit per bucket (4×`u64` for level 0, one `u64` per upper
//!   level, level-major like the buckets) finds the next expiry in
//!   `O(levels)` — no tick-by-tick scan across empty gaps, which is what
//!   makes a millisecond-grained wheel viable over a 61-day simulation.
//!
//! The differential property test (`tests/wheel_props.rs`) drives this wheel
//! and the retained binary-heap oracle ([`crate::event::HeapQueue`]) with
//! identical schedule/cancel/pop interleavings and requires identical pop
//! sequences.

use crate::fasthash::FastSet;

/// Bits consumed by the innermost level: 256 one-tick slots, so schedules up
/// to ~a quarter second of sim time ahead never cascade.
const L0_BITS: u32 = 8;
/// Innermost-level slot count.
pub const L0_SLOTS: usize = 1 << L0_BITS;
/// Bits consumed per upper level: 64 slots.
const BITS: u32 = 6;
/// Slots per upper level.
pub const SLOTS: usize = 1 << BITS;
/// Upper (cascading) levels above level 0.
const UPPER_LEVELS: usize = 10;
/// Total levels: 8 + 10·6 = 68 bits cover every `u64` tick.
pub const LEVELS: usize = UPPER_LEVELS + 1;
/// Buckets across all levels, level-major (level 0 first).
const BUCKETS: usize = L0_SLOTS + UPPER_LEVELS * SLOTS;

// Each upper level is exactly one occupancy word and level 0 a whole number
// of words, so bucket `i`'s bit is bit `i % 64` of word `i / 64`.
const _: () = assert!(BITS == 6 && L0_BITS >= 6);

/// A hierarchical timer wheel ordered by `(tick, seq)`.
///
/// The caller assigns strictly increasing, unique `seq` values (the event
/// queue's insertion counter) and never inserts a tick earlier than the last
/// popped tick — exactly the discipline [`crate::event::EventQueue`]
/// enforces by clamping schedules to `now`.
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// [`BUCKETS`] seq-ascending buckets, level-major (level 0 first):
    /// `(tick, seq, payload)`.
    slots: Vec<Vec<(u64, u64, E)>>,
    /// One bit per bucket, set iff the bucket is non-empty.
    occ: [u64; BUCKETS / 64],
    /// Reference time all placements are relative to. Advances to the tick
    /// of each drained slot; never exceeds the earliest pending expiry.
    base: u64,
    /// The current tick's items awaiting pop, in *descending* seq order so
    /// the next pop is an O(1) `Vec::pop` off the back (a deque's ring
    /// indexing costs more than it buys here).
    ready: Vec<(u64, E)>,
    /// Expiry tick of everything in `ready`.
    ready_tick: u64,
    /// Tombstones for [`Self::cancel`]; consumed lazily as items surface.
    cancelled: FastSet<u64>,
    /// Live (non-cancelled, un-popped) item count.
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The level at which a tick differing from `base` is stored: 0 when they
/// agree above the bottom [`L0_BITS`] bits, otherwise the upper level owning
/// the highest differing bit.
#[inline]
fn level_for(base: u64, tick: u64) -> usize {
    let diff = base ^ tick;
    if diff < (1 << L0_BITS) {
        0
    } else {
        1 + ((63 - diff.leading_zeros() - L0_BITS) / BITS) as usize
    }
}

/// Bucket index in the level-major `slots` array.
#[inline]
fn slot_index(level: usize, tick: u64) -> usize {
    if level == 0 {
        (tick & (L0_SLOTS as u64 - 1)) as usize
    } else {
        let shift = L0_BITS + BITS * (level as u32 - 1);
        L0_SLOTS + (level - 1) * SLOTS + ((tick >> shift) & (SLOTS as u64 - 1)) as usize
    }
}

impl<E> TimerWheel<E> {
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(BUCKETS);
        slots.resize_with(BUCKETS, Vec::new);
        TimerWheel {
            slots,
            occ: [0; BUCKETS / 64],
            base: 0,
            ready: Vec::new(),
            ready_tick: 0,
            cancelled: FastSet::default(),
            len: 0,
        }
    }

    /// Insert an item expiring at `tick`. `seq` must be unique and `tick`
    /// must not precede the last popped tick.
    pub fn insert(&mut self, tick: u64, seq: u64, payload: E) {
        debug_assert!(tick >= self.base, "tick {tick} precedes wheel base {}", self.base);
        self.place(tick, seq, payload);
        self.len += 1;
    }

    /// File an item into its bucket relative to the current `base`.
    #[inline]
    fn place(&mut self, tick: u64, seq: u64, payload: E) {
        let idx = slot_index(level_for(self.base, tick), tick);
        self.slots[idx].push((tick, seq, payload));
        self.occ[idx >> 6] |= 1 << (idx & 63);
    }

    /// The bucket holding the global minimum: the lowest occupied slot of
    /// the lowest occupied level. Every occupied slot at level `l` agrees
    /// with `base` above its group and exceeds `base`'s group at `l` (level
    /// 0 may equal it), so the first set occupancy bit in level-major order
    /// is that bucket. Level-0 words below `base`'s slot are provably empty
    /// and skipped.
    #[inline]
    fn first_slot(&self) -> Option<usize> {
        let from = (self.base as usize & (L0_SLOTS - 1)) >> 6;
        (from..self.occ.len())
            .find(|&w| self.occ[w] != 0)
            .map(|w| w * 64 + self.occ[w].trailing_zeros() as usize)
    }

    /// Cancel a pending item by its `seq`. The item must still be pending
    /// (scheduled, not yet popped or cancelled); the tombstone is consumed
    /// lazily when the item would surface.
    pub fn cancel(&mut self, seq: u64) {
        if self.cancelled.insert(seq) {
            self.len -= 1;
        }
    }

    /// Pop the earliest `(tick, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, E)> {
        if !self.ensure_ready() {
            return None;
        }
        let (seq, payload) = self.ready.pop().expect("ensure_ready");
        self.len -= 1;
        Some((self.ready_tick, seq, payload))
    }

    /// The earliest `(tick, seq)` without popping.
    ///
    /// Crucially this does **not** cascade: `base` must never advance past
    /// an event that was merely peeked (the simulator peeks at far-future
    /// phase timers while the current phase still schedules near-term
    /// events, and every insert requires `tick >= base`). Instead the
    /// candidate slot (see [`Self::first_slot`]) is scanned for its
    /// earliest `(tick, seq)`. Tombstoned items are pruned along the way so
    /// the answer matches what [`Self::pop`] would return.
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        if self.skim_ready() {
            let &(seq, _) = self.ready.last().expect("skim_ready");
            return Some((self.ready_tick, seq));
        }
        loop {
            let idx = self.first_slot()?;
            if !self.cancelled.is_empty() {
                let cancelled = &mut self.cancelled;
                self.slots[idx].retain(|&(_, seq, _)| !cancelled.remove(&seq));
            }
            if let Some(best) = self.slots[idx]
                .iter()
                .map(|&(tick, seq, _)| (tick, seq))
                .min()
            {
                return Some(best);
            }
            self.occ[idx >> 6] &= !(1 << (idx & 63));
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Make `ready` hold the earliest pending tick's items (next-to-pop end
    /// non-cancelled). Returns `false` iff nothing is pending.
    fn ensure_ready(&mut self) -> bool {
        loop {
            if self.skim_ready() {
                return true;
            }
            let Some(idx) = self.first_slot() else {
                return false;
            };
            self.occ[idx >> 6] &= !(1 << (idx & 63));
            if idx < L0_SLOTS {
                // All items in a level-0 slot share one tick and are
                // seq-ascending: reversing them yields `ready`'s
                // descending-seq order with no sort. Draining in place
                // (disjoint field borrows: `ready` vs `slots`) keeps the
                // slot's buffer, so steady-state churn never touches the
                // allocator.
                let tick = (self.base & !(L0_SLOTS as u64 - 1)) | idx as u64;
                debug_assert!(tick >= self.base);
                debug_assert!(self.slots[idx].iter().all(|&(t, _, _)| t == tick));
                debug_assert!(self.slots[idx].windows(2).all(|w| w[0].1 < w[1].1));
                self.base = tick;
                self.ready_tick = tick;
                self.ready
                    .extend(self.slots[idx].drain(..).rev().map(|(_, seq, p)| (seq, p)));
                continue;
            }
            // Enter the upper-level slot's window and cascade its items
            // down. A cascade only ever moves items to *lower* levels (the
            // placement invariant), so the source bucket is never refilled
            // while it drains; it is taken out and put back empty to keep
            // its buffer.
            let l = (idx - L0_SLOTS) / SLOTS;
            let slot = (idx - L0_SLOTS) % SLOTS;
            let shift = L0_BITS + BITS * l as u32;
            // Mask selecting the groups *above* this level (the slot's
            // enclosing window); the top level's window is all of time.
            let window = match shift + BITS {
                w if w >= 64 => 0,
                w => !((1u64 << w) - 1),
            };
            let new_base = (self.base & window) | ((slot as u64) << shift);
            debug_assert!(new_base > self.base);
            self.base = new_base;
            let mut items = std::mem::take(&mut self.slots[idx]);
            for (tick, seq, payload) in items.drain(..) {
                debug_assert!(level_for(new_base, tick) <= l);
                self.place(tick, seq, payload);
            }
            self.slots[idx] = items;
        }
    }

    /// Drop tombstoned items off the back of `ready` (the next-to-pop end);
    /// `true` iff a live item remains.
    fn skim_ready(&mut self) -> bool {
        while let Some(&(seq, _)) = self.ready.last() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&seq) {
                self.ready.pop();
            } else {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<&'static str>) -> Vec<(u64, u64, &'static str)> {
        std::iter::from_fn(|| w.pop()).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.insert(30, 0, "c");
        w.insert(10, 1, "a");
        w.insert(10, 2, "a2");
        w.insert(20, 3, "b");
        assert_eq!(
            drain(&mut w),
            vec![(10, 1, "a"), (10, 2, "a2"), (20, 3, "b"), (30, 0, "c")]
        );
    }

    #[test]
    fn far_future_items_cross_levels() {
        let mut w = TimerWheel::new();
        // One item per level boundary: small offsets plus window crossings.
        let ticks = [1u64, 255, 256, 16_383, 16_384, 1 << 20, 1 << 30, 5_356_800_000];
        for (i, &t) in ticks.iter().enumerate() {
            w.insert(t, i as u64, "x");
        }
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|(t, _, _)| t).collect();
        let mut sorted = ticks.to_vec();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn same_tick_insert_during_drain_preserves_seq_order() {
        let mut w = TimerWheel::new();
        w.insert(5, 0, "first");
        w.insert(5, 1, "second");
        assert_eq!(w.pop(), Some((5, 0, "first")));
        // Scheduled for the tick currently draining: larger seq, pops after.
        w.insert(5, 2, "third");
        assert_eq!(w.pop(), Some((5, 1, "second")));
        assert_eq!(w.pop(), Some((5, 2, "third")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancel_removes_item() {
        let mut w = TimerWheel::new();
        w.insert(10, 0, "keep");
        w.insert(10, 1, "drop");
        w.insert(20, 2, "keep2");
        w.cancel(1);
        assert_eq!(w.len(), 2);
        assert_eq!(drain(&mut w), vec![(10, 0, "keep"), (20, 2, "keep2")]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimerWheel::new();
        w.insert(1 << 20, 7, "far");
        w.insert(3, 9, "near");
        assert_eq!(w.peek(), Some((3, 9)));
        assert_eq!(w.pop(), Some((3, 9, "near")));
        assert_eq!(w.peek(), Some((1 << 20, 7)));
        assert_eq!(w.pop(), Some((1 << 20, 7, "far")));
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn empty_gaps_are_skipped_not_walked() {
        // A 61-day gap (5.3e9 ticks) must resolve via bitmaps, not ticks.
        let mut w = TimerWheel::new();
        w.insert(5_356_800_000, 0, "month-end");
        assert_eq!(w.pop(), Some((5_356_800_000, 0, "month-end")));
    }
}
