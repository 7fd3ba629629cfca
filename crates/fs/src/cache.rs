//! Page cache model: decides which reads hit the device.
//!
//! The cache tracks *which* device blocks are resident, not their bytes —
//! data always lives on the (sparse, real) device model, so correctness
//! never depends on the cache; only I/O counts and therefore timing do.
//! The paper flushes read buffers and sizes datasets beyond RAM precisely
//! so the device path is exercised; [`ReadCache::drop_all`] reproduces the
//! flush.

use std::collections::HashMap;

/// An LRU set of resident device blocks.
#[derive(Clone, Debug)]
pub struct ReadCache {
    capacity: usize,
    // block -> last-use tick.
    resident: HashMap<u64, u64>,
    tick: u64,
}

impl ReadCache {
    /// Creates a cache holding up to `capacity` blocks.
    pub fn new(capacity: usize) -> ReadCache {
        ReadCache {
            capacity,
            resident: HashMap::new(),
            tick: 0,
        }
    }

    /// Checks residency of a block, updating recency. Returns `true` on a
    /// hit.
    pub fn access(&mut self, block: u64) -> bool {
        self.tick += 1;
        if let Some(t) = self.resident.get_mut(&block) {
            *t = self.tick;
            true
        } else {
            false
        }
    }

    /// Inserts a block (after a device read or a write), evicting LRU.
    pub fn insert(&mut self, block: u64) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.resident.len() >= self.capacity && !self.resident.contains_key(&block) {
            // Evict the least recently used entry. Linear scan is fine: the
            // cache is consulted per multi-KiB block, not per byte.
            if let Some((&lru, _)) = self.resident.iter().min_by_key(|&(_, &t)| t) {
                self.resident.remove(&lru);
            }
        }
        self.resident.insert(block, self.tick);
    }

    /// Invalidates one block (file deletion).
    pub fn invalidate(&mut self, block: u64) {
        self.resident.remove(&block);
    }

    /// Drops everything (`echo 3 > /proc/sys/vm/drop_caches`).
    pub fn drop_all(&mut self) {
        self.resident.clear();
    }

    /// Resident block count.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = ReadCache::new(4);
        assert!(!c.access(1));
        c.insert(1);
        assert!(c.access(1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ReadCache::new(2);
        c.insert(1);
        c.insert(2);
        c.access(1); // 1 is now MRU
        c.insert(3); // evicts 2
        assert!(c.access(1));
        assert!(!c.access(2));
        assert!(c.access(3));
    }

    #[test]
    fn capacity_respected() {
        let mut c = ReadCache::new(3);
        for b in 0..10 {
            c.insert(b);
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn drop_all_empties() {
        let mut c = ReadCache::new(8);
        c.insert(1);
        c.insert(2);
        c.drop_all();
        assert!(c.is_empty());
        assert!(!c.access(1));
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut c = ReadCache::new(0);
        c.insert(1);
        assert!(!c.access(1));
    }

    #[test]
    fn invalidate_single() {
        let mut c = ReadCache::new(8);
        c.insert(1);
        c.insert(2);
        c.invalidate(1);
        assert!(!c.access(1));
        assert!(c.access(2));
    }
}
