//! Hierarchical timer wheel: the O(1) scheduler hot path.
//!
//! Six levels of 64 slots each. A slot at level `l` spans `64^l` ticks,
//! one tick being `2^tick_shift` nanoseconds (default 1024 ns), so the
//! wheel covers `64^6` ticks ≈ 19 hours before far-future events are
//! parked in the outermost slot and re-sorted as time approaches.
//! Schedule is O(1); dispatch amortizes one bucket cascade per level
//! rollover. A bucket is a chain through the payload slab's slots, so
//! the allocator is touched only to grow capacity, never in steady state.
//!
//! Determinism: events whose tick has been reached sit in a small `ready`
//! heap ordered by `(time, sequence)` — the same total order the binary
//! heap backend uses. Because every event still inside the wheel is in a
//! strictly later tick than everything in `ready`, popping `ready` yields
//! the global `(time, sequence)` minimum: the wheel replays byte-for-byte
//! identical to [`EventQueue`](crate::queue::EventQueue).

use std::collections::BinaryHeap;

use crate::sched::{Entry, Scheduler, Slab};
use crate::time::Nanos;

/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels.
const LEVELS: usize = 6;
/// Tick granularity: `2^10` ns = 1.024 µs per tick. Sub-tick ordering is
/// exact regardless — same-tick events sort by `(at, seq)` in the ready
/// heap — the tick only bounds bucket residency.
const TICK_SHIFT: u32 = 10;

/// A hierarchical-timer-wheel [`Scheduler`] backend.
pub struct TimerWheel<E> {
    /// `LEVELS * SLOTS` buckets, level-major: the slab slot of each
    /// bucket's first entry, chained through `links`. A bucket owns no
    /// storage, so filing an entry never allocates.
    heads: Vec<Option<u32>>,
    /// Per slab slot: the entry filed there and the slot of the next
    /// entry in its bucket. Grows only with the slab.
    links: Vec<(Entry, Option<u32>)>,
    /// One occupancy bitmap per level: bit `s` set iff bucket `s` holds
    /// entries. Finding the next expiring slot is a rotate + ctz.
    occupied: [u64; LEVELS],
    /// Entries whose tick has been reached, ordered by `(at, seq)`.
    ready: BinaryHeap<Entry>,
    slab: Slab<E>,
    seq: u64,
    now: Nanos,
    /// The wheel's current tick; `ready` holds only entries at or before
    /// it, the wheel only entries strictly after it.
    cur_tick: u64,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel at time zero.
    pub fn new() -> TimerWheel<E> {
        TimerWheel {
            heads: vec![None; LEVELS * SLOTS],
            links: Vec::new(),
            occupied: [0; LEVELS],
            ready: BinaryHeap::new(),
            slab: Slab::new(),
            seq: 0,
            now: Nanos::ZERO,
            cur_tick: 0,
        }
    }

    /// Stages `e` if its tick has been reached, files it in the wheel
    /// otherwise.
    fn place(&mut self, e: Entry) {
        let tick = e.at.as_nanos() >> TICK_SHIFT;
        if tick <= self.cur_tick {
            self.ready.push(e);
        } else {
            let (level, slot) = self.position(tick);
            let head = &mut self.heads[level * SLOTS + slot];
            let link = (e, head.replace(e.slot));
            let i = e.slot as usize;
            if i >= self.links.len() {
                self.links.resize(i + 1, link);
            }
            self.links[i] = link;
            self.occupied[level] |= 1 << slot;
        }
    }

    /// Picks the wheel position for an event in tick `tick > cur_tick`.
    ///
    /// The level is the innermost whose slot index for `tick` is within
    /// 63 slots of the current position — that guarantees the chosen slot
    /// starts strictly after `cur_tick`, so nothing is filed into a slot
    /// that already expired.
    fn position(&self, tick: u64) -> (usize, usize) {
        let mask = SLOTS as u64 - 1;
        let mut level = 0usize;
        loop {
            let shift = SLOT_BITS * level as u32;
            let dist = (tick >> shift) - (self.cur_tick >> shift);
            if dist < SLOTS as u64 {
                return (level, ((tick >> shift) & mask) as usize);
            }
            if level == LEVELS - 1 {
                // Beyond the wheel horizon: park in the farthest
                // outermost slot; the cascade re-sorts it as time
                // approaches.
                let units = (self.cur_tick >> shift) + (SLOTS as u64 - 1);
                return (level, (units & mask) as usize);
            }
            level += 1;
        }
    }

    /// The next expiring slot across all levels: `(expiry_tick, level,
    /// slot)` minimal by expiry. Ties prefer the outermost level so
    /// cascades land before their tick's level-0 bucket is delivered.
    fn next_slot(&self) -> Option<(u64, usize, usize)> {
        let mask = SLOTS as u64 - 1;
        let mut best: Option<(u64, usize, usize)> = None;
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let pos = ((self.cur_tick >> shift) & mask) as u32;
            let dist = u64::from(occ.rotate_right(pos).trailing_zeros());
            let units = (self.cur_tick >> shift) + dist;
            let expiry = units << shift;
            // `<=` keeps the highest level among equal expiries: levels
            // iterate innermost-first.
            if best.is_none_or(|(b, _, _)| expiry <= b) {
                best = Some((expiry, level, (units & mask) as usize));
            }
        }
        best
    }

    /// Advances the wheel until `ready` holds the earliest pending
    /// entries (cascading outer levels as needed); `ready` stays empty
    /// only when nothing is pending anywhere.
    fn refill(&mut self) {
        loop {
            let Some((expiry, level, slot)) = self.next_slot() else {
                return;
            };
            if !self.ready.is_empty() && expiry > self.cur_tick {
                // Everything still in the wheel is in a strictly later
                // tick than the entries already staged.
                return;
            }
            let mut next = self.heads[level * SLOTS + slot].take();
            self.occupied[level] &= !(1u64 << slot);
            self.cur_tick = self.cur_tick.max(expiry);
            // A level-0 bucket's tick has been reached, so `place` stages
            // it; an outer one cascades one or more levels down (or
            // straight to `ready` once its tick is reached).
            while let Some(i) = next {
                let (e, after) = self.links[i as usize];
                next = after;
                self.place(e);
            }
            if level == 0 {
                return;
            }
        }
    }
}

impl<E> Scheduler<E> for TimerWheel<E> {
    fn now(&self) -> Nanos {
        self.now
    }

    fn schedule_at(&mut self, at: Nanos, payload: E) {
        let entry = Entry {
            at: at.max(self.now),
            seq: self.seq,
            slot: self.slab.insert(payload),
        };
        self.seq += 1;
        self.place(entry);
    }

    fn pop_until(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        if self.ready.is_empty() {
            self.refill();
        }
        if self.ready.peek()?.at > deadline {
            return None;
        }
        let e = self.ready.pop()?;
        self.now = e.at;
        Some((e.at, self.slab.take(e.slot)))
    }

    fn len(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimerWheel::new();
        // One event per level distance, scheduled shuffled.
        let times = [
            Nanos(3),                    // ready (tick 0)
            Nanos(50 << 10),             // level 0
            Nanos(5_000 << 10),          // level 1
            Nanos(300_000 << 10),        // level 2
            Nanos(20_000_000 << 10),     // level 3
            Nanos(1_200_000_000 << 10),  // level 4
            Nanos(70_000_000_000 << 10), // level 5
        ];
        for (i, t) in times.iter().enumerate().rev() {
            w.schedule_at(*t, i);
        }
        assert_eq!(w.len(), times.len());
        for (i, t) in times.iter().enumerate() {
            // The deadline test is exact at every level: one nanosecond
            // early pops nothing, the event's own time pops it.
            assert_eq!(w.pop_until(Nanos(t.as_nanos() - 1)), None, "event {i}");
            assert_eq!(w.pop_until(*t), Some((*t, i)), "event {i}");
        }
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut w = TimerWheel::new();
        for i in 0..100 {
            w.schedule_at(Nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(w.pop(), Some((Nanos(5), i)));
        }
    }

    #[test]
    fn same_tick_different_nanos_stay_ordered() {
        let mut w = TimerWheel::new();
        // All inside one 1024 ns tick, scheduled out of order.
        w.schedule_at(Nanos(900), "c");
        w.schedule_at(Nanos(100), "a");
        w.schedule_at(Nanos(500), "b");
        assert_eq!(w.pop(), Some((Nanos(100), "a")));
        assert_eq!(w.pop(), Some((Nanos(500), "b")));
        assert_eq!(w.pop(), Some((Nanos(900), "c")));
    }

    #[test]
    fn beyond_horizon_events_cascade_back() {
        let mut w = TimerWheel::new();
        // Far beyond the 64^6-tick horizon.
        let far = Nanos((1u64 << 36) * 1024 * 3);
        w.schedule_at(far, "far");
        w.schedule_at(Nanos(10), "near");
        assert_eq!(w.pop(), Some((Nanos(10), "near")));
        assert_eq!(w.pop(), Some((far, "far")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaves_schedules_during_drain() {
        let mut w = TimerWheel::new();
        w.schedule_at(Nanos(1000), 1u32);
        assert_eq!(w.pop(), Some((Nanos(1000), 1)));
        // Past times clamp to now; future ones land correctly even after
        // the wheel has advanced.
        w.schedule_at(Nanos(10), 2);
        w.schedule_in(Nanos(100), 3);
        assert_eq!(w.pop(), Some((Nanos(1000), 2)));
        assert_eq!(w.pop(), Some((Nanos(1100), 3)));
    }
}
