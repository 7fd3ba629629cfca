//! Spare payload buffers.
//!
//! A buffer that carried a payload to its last reader goes back to the
//! component that allocates that kind of buffer, and that component's
//! next operation reuses it instead of calling the allocator
//! (DESIGN.md §19, "Payload buffers go back to the site that allocates
//! them"). Four components keep a list: blkfront for read buffers,
//! netfront for received frames, the network client for the frames it
//! sends, and netback for its single-slot Tx frames.

use std::collections::VecDeque;

/// Capacity a [`Spares`] list keeps at most, in bytes: measured to hold
/// the benchmark workloads' recycled buffers with peak RSS flat.
const MAX_BYTES: usize = 256 * 1024;

/// Emptied byte buffers waiting for reuse, oldest first.
#[derive(Debug, Default)]
pub struct Spares {
    bufs: VecDeque<Vec<u8>>,
    bytes: usize,
}

impl Spares {
    /// An empty buffer with capacity for at least `n` bytes: the spare
    /// that fits most tightly, up to `2n`, newest first so it is likely
    /// still in cache; or a new allocation of exactly `n` when none fits.
    pub fn take(&mut self, n: usize) -> Vec<u8> {
        let fits = n..=n.saturating_mul(2);
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.bufs.iter().enumerate().rev() {
            let cap = b.capacity();
            if fits.contains(&cap) && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
                if cap == n {
                    break;
                }
            }
        }
        let Some((i, cap)) = best else {
            return Vec::with_capacity(n);
        };
        self.bytes -= cap;
        self.bufs.remove(i).expect("index from the scan")
    }

    /// Keeps `v`, emptied, for a later [`take`](Self::take); past the
    /// byte cap the oldest spares are dropped.
    pub fn put(&mut self, mut v: Vec<u8>) {
        let cap = v.capacity();
        if cap == 0 || cap > MAX_BYTES {
            return;
        }
        v.clear();
        self.bytes += cap;
        self.bufs.push_back(v);
        while self.bytes > MAX_BYTES {
            let old = self.bufs.pop_front().expect("bytes are counted");
            self.bytes -= old.capacity();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spares(caps: &[usize]) -> Spares {
        let mut s = Spares::default();
        for &c in caps {
            s.put(Vec::with_capacity(c));
        }
        s
    }

    #[test]
    fn take_picks_the_tightest_fit_newest_first() {
        let mut s = spares(&[300, 200, 150, 200]);
        let first = s.take(150);
        assert_eq!(first.capacity(), 150, "an exact fit");
        // Two 200s fit 120 equally well; the newer one goes first, and
        // 300 is past twice the request.
        let newest = s.bufs.back().expect("kept").as_ptr();
        let v = s.take(120);
        assert_eq!((v.capacity(), v.as_ptr()), (200, newest));
        assert_eq!(s.take(120).capacity(), 200);
        let fresh = s.take(120);
        assert_eq!(fresh.capacity(), 120, "nothing fits: exactly n");
        assert_eq!(s.bytes, 300);
    }

    #[test]
    fn put_empties_the_buffer_and_drops_the_oldest_past_the_cap() {
        let mut s = Spares::default();
        let mut v = vec![0xa5u8; 4096];
        v.shrink_to_fit();
        s.put(v);
        let v = s.take(4096);
        assert!(v.is_empty() && v.capacity() >= 4096);
        for _ in 0..MAX_BYTES / 4096 + 3 {
            s.put(Vec::with_capacity(4096));
        }
        assert_eq!((s.bufs.len(), s.bytes), (MAX_BYTES / 4096, MAX_BYTES));
        s.put(Vec::with_capacity(MAX_BYTES + 1));
        s.put(Vec::new());
        assert_eq!(
            s.bytes, MAX_BYTES,
            "an oversized or empty buffer is not kept"
        );
    }
}
