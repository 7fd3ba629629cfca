//! Extent allocator: first-fit over a coalescing free list.
//!
//! Files are stored as extents (contiguous block runs). Allocation prefers
//! one contiguous run but will split across free fragments — after enough
//! create/delete churn (the Filebench fileserver personality), files
//! fragment and storage workloads issue shorter, more scattered I/O, which
//! is exactly the effect the paper's macrobenchmarks exercise.

use std::collections::BTreeMap;

/// A contiguous run of blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// First block of the run.
    pub start: u64,
    /// Number of blocks.
    pub len: u64,
}

/// First-fit extent allocator with free-list coalescing.
#[derive(Clone, Debug)]
pub struct ExtentAllocator {
    /// start -> len of each free run.
    free: BTreeMap<u64, u64>,
    free_blocks: u64,
}

impl ExtentAllocator {
    /// Creates an allocator over `total` blocks, all free.
    pub fn new(total: u64) -> ExtentAllocator {
        let mut free = BTreeMap::new();
        if total > 0 {
            free.insert(0, total);
        }
        ExtentAllocator {
            free,
            free_blocks: total,
        }
    }

    /// Currently free blocks.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Allocates `n` blocks, preferring contiguity. Returns the extents,
    /// or `None` if space is insufficient (nothing is allocated then).
    pub fn alloc(&mut self, n: u64) -> Option<Vec<Extent>> {
        if n == 0 {
            return Some(Vec::new());
        }
        if n > self.free_blocks {
            return None;
        }
        // Pass 1: a single run that fits entirely (first fit).
        let whole = self
            .free
            .iter()
            .find(|&(_, &len)| len >= n)
            .map(|(&s, _)| s);
        if let Some(start) = whole {
            let len = self.free.remove(&start).expect("present");
            if len > n {
                self.free.insert(start + n, len - n);
            }
            self.free_blocks -= n;
            return Some(vec![Extent { start, len: n }]);
        }
        // Pass 2: gather fragments front to back.
        let mut out = Vec::new();
        let mut need = n;
        let mut taken = Vec::new();
        for (&s, &len) in self.free.iter() {
            let take = len.min(need);
            taken.push((s, len, take));
            out.push(Extent {
                start: s,
                len: take,
            });
            need -= take;
            if need == 0 {
                break;
            }
        }
        debug_assert_eq!(need, 0, "free_blocks accounting guaranteed space");
        for (s, len, take) in taken {
            self.free.remove(&s);
            if len > take {
                self.free.insert(s + take, len - take);
            }
        }
        self.free_blocks -= n;
        Some(out)
    }

    /// Frees an extent, coalescing with neighbors.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on double-free detected via overlap with an
    /// existing free run.
    pub fn free_extent(&mut self, e: Extent) {
        if e.len == 0 {
            return;
        }
        let mut start = e.start;
        let mut len = e.len;
        // Coalesce with the predecessor.
        if let Some((&ps, &pl)) = self.free.range(..start).next_back() {
            debug_assert!(ps + pl <= start, "double free / overlap");
            if ps + pl == start {
                self.free.remove(&ps);
                start = ps;
                len += pl;
            }
        }
        // Coalesce with the successor.
        if let Some((&ns, &nl)) = self.free.range(start + len..).next() {
            if ns == start + len {
                self.free.remove(&ns);
                len += nl;
            }
        }
        debug_assert!(
            self.free.range(start..start + len).next().is_none(),
            "double free / overlap"
        );
        self.free.insert(start, len);
        self.free_blocks += e.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_when_possible() {
        let mut a = ExtentAllocator::new(100);
        let e = a.alloc(10).unwrap();
        assert_eq!(e, vec![Extent { start: 0, len: 10 }]);
        assert_eq!(a.free_blocks(), 90);
    }

    #[test]
    fn exhaustion_returns_none_without_side_effects() {
        let mut a = ExtentAllocator::new(10);
        assert!(a.alloc(11).is_none());
        assert_eq!(a.free_blocks(), 10);
        assert!(a.alloc(10).is_some());
        assert!(a.alloc(1).is_none());
    }

    #[test]
    fn fragmentation_and_gathering() {
        let mut a = ExtentAllocator::new(30);
        let e1 = a.alloc(10).unwrap();
        let _e2 = a.alloc(10).unwrap();
        let e3 = a.alloc(10).unwrap();
        // Free the first and third runs: two fragments of 10.
        a.free_extent(e1[0]);
        a.free_extent(e3[0]);
        // Asking for 15 must span both fragments.
        let e = a.alloc(15).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.iter().map(|x| x.len).sum::<u64>(), 15);
    }

    #[test]
    fn coalescing_rebuilds_contiguity() {
        let mut a = ExtentAllocator::new(30);
        let e1 = a.alloc(10).unwrap();
        let e2 = a.alloc(10).unwrap();
        let e3 = a.alloc(10).unwrap();
        a.free_extent(e2[0]);
        a.free_extent(e1[0]);
        a.free_extent(e3[0]);
        let e = a.alloc(30).unwrap();
        assert_eq!(e, vec![Extent { start: 0, len: 30 }]);
    }

    #[test]
    fn zero_len_ops_are_noops() {
        let mut a = ExtentAllocator::new(10);
        assert_eq!(a.alloc(0), Some(vec![]));
        a.free_extent(Extent { start: 5, len: 0 });
        assert_eq!(a.free_blocks(), 10);
    }

    #[test]
    fn accounting_invariant_under_churn() {
        let mut a = ExtentAllocator::new(1000);
        let mut held: Vec<Vec<Extent>> = Vec::new();
        // Deterministic churn pattern.
        for i in 0..200u64 {
            if i % 3 != 2 {
                if let Some(e) = a.alloc(1 + i % 17) {
                    held.push(e);
                }
            } else if !held.is_empty() {
                let es = held.remove((i as usize * 7) % held.len());
                for e in es {
                    a.free_extent(e);
                }
            }
        }
        let held_total: u64 = held.iter().flatten().map(|e| e.len).sum();
        assert_eq!(a.free_blocks() + held_total, 1000);
    }
}
