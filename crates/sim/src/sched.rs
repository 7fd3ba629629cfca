//! The scheduling API: a [`Scheduler`] trait over pluggable backends.
//!
//! [`EventQueue`] (binary heap) is the oracle:
//! small, obviously correct, comparison-based. [`TimerWheel`]
//! (hierarchical timer wheel) is the default hot path: O(1) schedule,
//! allocation-free dispatch in steady state. Both pop strictly in
//! `(time, sequence)` order, so for the same schedule calls they produce
//! byte-identical runs — `tests/scheduler.rs` holds them to that.
//!
//! A scheduled event cannot be cancelled: nothing simulated cancels a
//! timer (a handler that no longer wants its event ignores it when it
//! fires), so every entry a backend holds is live. Payloads sit in a
//! slot-recycled slab; the heap and the wheel's ready run move only
//! 24-byte keys.

use crate::queue::EventQueue;
use crate::time::Nanos;
use crate::wheel::TimerWheel;

/// A deterministic discrete-event scheduler.
///
/// The contract every backend must honour:
///
/// * events pop in `(time, schedule order)` order — FIFO among equal
///   timestamps, which is what makes whole-system runs replayable;
/// * `schedule_at` clamps times in the past to `now()`, so handlers stay
///   monotone;
/// * `pop_until` advances `now()` to the popped event's timestamp and
///   pops nothing due after its deadline;
/// * `len`/`is_empty` count pending events exactly.
pub trait Scheduler<E> {
    /// Current virtual time (the timestamp of the last popped event).
    fn now(&self) -> Nanos;

    /// Schedules `payload` at absolute time `at` (clamped to `now()`).
    fn schedule_at(&mut self, at: Nanos, payload: E);

    /// Schedules `payload` after a relative delay from now.
    fn schedule_in(&mut self, delay: Nanos, payload: E) {
        let at = self.now() + delay;
        self.schedule_at(at, payload)
    }

    /// Pops the earliest pending event if it is due at or before
    /// `deadline`, advancing virtual time; `None` when nothing is. One
    /// call per event: an event loop needs no separate peek.
    ///
    /// Takes `&mut self` even when it pops nothing so the wheel can
    /// cascade its levels — the deadline is compared with the exact
    /// earliest time, not a lower bound.
    fn pop_until(&mut self, deadline: Nanos) -> Option<(Nanos, E)>;

    /// Pops the earliest pending event, advancing virtual time.
    fn pop(&mut self) -> Option<(Nanos, E)> {
        self.pop_until(Nanos::MAX)
    }

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Event storage shared by both backends: one slot per pending event,
/// holding its payload and what the backend keeps beside it (`M`:
/// nothing for the heap, the key and bucket link for the wheel). Slots
/// are recycled through a free list, so the hot path never touches the
/// allocator.
pub(crate) struct Slab<E, M = ()> {
    slots: Vec<(Option<E>, M)>,
    free: Vec<u32>,
}

impl<E, M> Slab<E, M> {
    pub(crate) fn new() -> Slab<E, M> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Inlined, like the wheel's `schedule_at`, so the payload and the
    /// wheel's key are stored into the slot straight from registers and
    /// the caller's frame, not copied through one more stack frame.
    #[inline]
    pub(crate) fn insert_with(&mut self, payload: E, meta: M) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = (Some(payload), meta);
            slot
        } else {
            self.slots.push((Some(payload), meta));
            u32::try_from(self.slots.len() - 1).expect("slab capacity")
        }
    }

    /// Takes the payload of a pending entry, freeing its slot.
    pub(crate) fn take(&mut self, slot: u32) -> E {
        self.free.push(slot);
        self.slots[slot as usize]
            .0
            .take()
            .expect("a pending entry owns its slot")
    }

    /// What the backend keeps beside a slot's payload.
    pub(crate) fn meta(&self, slot: u32) -> &M {
        &self.slots[slot as usize].1
    }

    pub(crate) fn meta_mut(&mut self, slot: u32) -> &mut M {
        &mut self.slots[slot as usize].1
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl<E> Slab<E> {
    pub(crate) fn insert(&mut self, payload: E) -> u32 {
        self.insert_with(payload, ())
    }
}

/// A pending-event key: the `(time, sequence)` a backend orders by and
/// the slab slot holding the payload.
#[derive(Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) at: Nanos,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl Entry {
    /// The pop order, earliest first (`Ord` is its reverse, for
    /// `BinaryHeap`).
    pub(crate) fn key(&self) -> (Nanos, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first with
        // a FIFO tiebreak on the schedule sequence number.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which [`Scheduler`] backend a simulation uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Comparison-based binary heap — the correctness oracle.
    Heap,
    /// Hierarchical timer wheel — the default hot path.
    #[default]
    Wheel,
}

/// A [`Scheduler`] whose backend is chosen at construction time.
///
/// This is what the systems embed: config picks [`SchedulerKind`], the
/// event loop stays backend-agnostic.
pub enum EventSched<E> {
    /// Binary-heap backend ([`EventQueue`]).
    Heap(EventQueue<E>),
    /// Timer-wheel backend ([`TimerWheel`]).
    Wheel(TimerWheel<E>),
}

impl<E> EventSched<E> {
    /// Creates an empty scheduler of the requested kind at time zero.
    pub fn new(kind: SchedulerKind) -> EventSched<E> {
        match kind {
            SchedulerKind::Heap => EventSched::Heap(EventQueue::new()),
            SchedulerKind::Wheel => EventSched::Wheel(TimerWheel::new()),
        }
    }

    /// The backend this scheduler dispatches to.
    pub fn kind(&self) -> SchedulerKind {
        match self {
            EventSched::Heap(_) => SchedulerKind::Heap,
            EventSched::Wheel(_) => SchedulerKind::Wheel,
        }
    }
}

impl<E> Default for EventSched<E> {
    fn default() -> Self {
        EventSched::new(SchedulerKind::default())
    }
}

impl<E> Scheduler<E> for EventSched<E> {
    fn now(&self) -> Nanos {
        match self {
            EventSched::Heap(q) => q.now(),
            EventSched::Wheel(w) => w.now(),
        }
    }

    fn schedule_at(&mut self, at: Nanos, payload: E) {
        let _prof = kite_prof::leaf(kite_prof::Phase::SchedPush);
        match self {
            EventSched::Heap(q) => q.schedule_at(at, payload),
            EventSched::Wheel(w) => w.schedule_at(at, payload),
        }
    }

    fn pop_until(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        let _prof = kite_prof::leaf(kite_prof::Phase::SchedPop);
        match self {
            EventSched::Heap(q) => q.pop_until(deadline),
            EventSched::Wheel(w) => w.pop_until(deadline),
        }
    }

    fn len(&self) -> usize {
        match self {
            EventSched::Heap(q) => q.len(),
            EventSched::Wheel(w) => w.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_sched_dispatches_to_both_backends() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let mut s: EventSched<u32> = EventSched::new(kind);
            assert_eq!(s.kind(), kind);
            s.schedule_at(Nanos(20), 2);
            s.schedule_at(Nanos(10), 1);
            assert_eq!(s.len(), 2);
            assert_eq!(s.pop_until(Nanos(9)), None);
            assert_eq!(s.pop_until(Nanos(10)), Some((Nanos(10), 1)));
            assert_eq!(s.pop(), Some((Nanos(20), 2)));
            assert_eq!(s.pop(), None);
            assert!(s.is_empty());
        }
    }
}
