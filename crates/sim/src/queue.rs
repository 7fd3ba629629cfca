//! The binary-heap scheduler backend — the correctness oracle.
//!
//! [`EventQueue`] is a priority queue keyed on virtual time with a FIFO
//! tiebreak: two events scheduled for the same instant pop in the order they
//! were pushed. That stability is what makes the whole reproduction
//! deterministic — `BinaryHeap` alone would break ties arbitrarily.

use std::collections::BinaryHeap;

use crate::sched::{Entry, Scheduler, Slab};
use crate::time::Nanos;

/// A stable discrete-event queue (binary-heap backend).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    slab: Slab<E>,
    seq: u64,
    now: Nanos,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Slab::new(),
            seq: 0,
            now: Nanos::ZERO,
        }
    }
}

impl<E> Scheduler<E> for EventQueue<E> {
    fn now(&self) -> Nanos {
        self.now
    }

    /// Times in the past are clamped to `now` — an event can never pop
    /// before the current instant, which keeps handlers monotone.
    fn schedule_at(&mut self, at: Nanos, payload: E) {
        self.heap.push(Entry {
            at: at.max(self.now),
            seq: self.seq,
            slot: self.slab.insert(payload),
        });
        self.seq += 1;
    }

    fn pop_until(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        if self.heap.peek()?.at > deadline {
            return None;
        }
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, self.slab.take(e.slot)))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(30), "c");
        q.schedule_at(Nanos(10), "a");
        q.schedule_at(Nanos(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_until(Nanos(9)), None, "nothing due yet");
        assert_eq!(q.now(), Nanos::ZERO);
        assert_eq!(q.pop_until(Nanos(10)), Some((Nanos(10), "a")));
        assert_eq!(q.pop(), Some((Nanos(20), "b")));
        assert_eq!(q.pop(), Some((Nanos(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Nanos(5), i)));
        }
    }

    #[test]
    fn now_advances_and_clamps_past_schedules() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(100), "x");
        q.pop();
        assert_eq!(q.now(), Nanos(100));
        // Scheduling in the past clamps to now.
        q.schedule_at(Nanos(50), "y");
        assert_eq!(q.pop(), Some((Nanos(100), "y")));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(100), "x");
        q.pop();
        q.schedule_in(Nanos(5), "y");
        assert_eq!(q.pop(), Some((Nanos(105), "y")));
    }
}
