//! Page cache model: decides which reads hit the device.
//!
//! The cache tracks *which* device blocks are resident, not their bytes —
//! data always lives on the (sparse, real) device model, so correctness
//! never depends on the cache; only I/O counts and therefore timing do.
//! The paper flushes read buffers and sizes datasets beyond RAM precisely
//! so the device path is exercised; [`ReadCache::drop_all`] reproduces the
//! flush.

use std::collections::{BTreeMap, HashMap};

/// An LRU set of resident device blocks.
#[derive(Clone, Debug)]
pub struct ReadCache {
    capacity: usize,
    // block -> last-use tick, and the same pairs keyed by tick. Every
    // access and insert takes a fresh tick, so the first entry of
    // `by_use` is the one least recently used block.
    resident: HashMap<u64, u64>,
    by_use: BTreeMap<u64, u64>,
    tick: u64,
}

impl ReadCache {
    /// Creates a cache holding up to `capacity` blocks.
    pub fn new(capacity: usize) -> ReadCache {
        ReadCache {
            capacity,
            resident: HashMap::new(),
            by_use: BTreeMap::new(),
            tick: 0,
        }
    }

    /// Checks residency of a block, updating recency. Returns `true` on a
    /// hit.
    pub fn access(&mut self, block: u64) -> bool {
        self.tick += 1;
        let Some(t) = self.resident.get_mut(&block) else {
            return false;
        };
        self.by_use.remove(t);
        *t = self.tick;
        self.by_use.insert(self.tick, block);
        true
    }

    /// Inserts a block (after a device read or a write), evicting the
    /// least recently used one when full; returns the evicted block.
    pub fn insert(&mut self, block: u64) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let mut evicted = None;
        if self.resident.len() >= self.capacity && !self.resident.contains_key(&block) {
            if let Some((_, lru)) = self.by_use.pop_first() {
                self.resident.remove(&lru);
                evicted = Some(lru);
            }
        }
        if let Some(old) = self.resident.insert(block, self.tick) {
            self.by_use.remove(&old);
        }
        self.by_use.insert(self.tick, block);
        evicted
    }

    /// Invalidates one block (file deletion).
    pub fn invalidate(&mut self, block: u64) {
        if let Some(t) = self.resident.remove(&block) {
            self.by_use.remove(&t);
        }
    }

    /// Drops everything (`echo 3 > /proc/sys/vm/drop_caches`).
    pub fn drop_all(&mut self) {
        self.resident.clear();
        self.by_use.clear();
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
        assert_eq!(c.insert(3), Some(2));
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
        assert_eq!(c.resident.len(), 3);
    }

    #[test]
    fn drop_all_empties() {
        let mut c = ReadCache::new(8);
        c.insert(1);
        c.insert(2);
        c.drop_all();
        assert!(c.resident.is_empty());
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

    /// The reference: block -> last-use tick only, and an eviction scans
    /// every resident block for the oldest tick.
    struct ScanLru {
        capacity: usize,
        resident: HashMap<u64, u64>,
        tick: u64,
    }

    impl ScanLru {
        fn access(&mut self, block: u64) -> bool {
            self.tick += 1;
            self.resident
                .get_mut(&block)
                .map(|t| *t = self.tick)
                .is_some()
        }

        fn insert(&mut self, block: u64) -> Option<u64> {
            if self.capacity == 0 {
                return None;
            }
            self.tick += 1;
            let mut evicted = None;
            if self.resident.len() >= self.capacity && !self.resident.contains_key(&block) {
                let (&lru, _) = self.resident.iter().min_by_key(|&(_, &t)| t)?;
                self.resident.remove(&lru);
                evicted = Some(lru);
            }
            self.resident.insert(block, self.tick);
            evicted
        }
    }

    /// Over seeded mixes of accesses, inserts, invalidations and flushes,
    /// the tick-ordered cache evicts exactly the block the full scan picks,
    /// and both agree on every hit.
    #[test]
    fn evicts_the_block_a_full_scan_picks() {
        for seed in 0..16 {
            let mut rng = kite_sim::Pcg::new(seed, 0x4c5255);
            let capacity = rng.index(32);
            let blocks = 2 * capacity as u64 + rng.range_u64(1, capacity as u64 + 2);
            let mut cache = ReadCache::new(capacity);
            let mut reference = ScanLru {
                capacity,
                resident: HashMap::new(),
                tick: 0,
            };
            let mut evictions = 0;
            for step in 0..4_000 {
                let b = rng.range_u64(0, blocks);
                match rng.index(1000) {
                    0..=449 => {
                        assert_eq!(
                            cache.access(b),
                            reference.access(b),
                            "seed {seed} step {step}"
                        )
                    }
                    450..=969 => {
                        let victim = cache.insert(b);
                        assert_eq!(victim, reference.insert(b), "seed {seed} step {step}");
                        evictions += victim.is_some() as usize;
                    }
                    970..=997 => {
                        cache.invalidate(b);
                        reference.resident.remove(&b);
                    }
                    _ => {
                        cache.drop_all();
                        reference.resident.clear();
                    }
                }
                assert_eq!(cache.resident.len(), reference.resident.len());
            }
            assert!(capacity == 0 || evictions > 0, "seed {seed} never evicted");
        }
    }
}
