//! Simulated machine memory.
//!
//! All inter-domain data movement in the reproduction goes through real
//! 4 KiB pages owned by domains, so grant-table bugs (out-of-bounds copies,
//! writes through read-only grants, use-after-revoke) are actual detectable
//! failures rather than modeling hand-waves.

use crate::domain::{DomainId, DomainTable};
use crate::error::{Result, XenError};

/// Size of one machine page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// A machine frame number — a global handle to one page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageId(pub u64);

struct Frame {
    owner: DomainId,
    data: Box<[u8; PAGE_SIZE]>,
}

/// All machine memory, indexed by [`PageId`].
///
/// Pages are never physically reused after free, which turns use-after-free
/// into a deterministic [`XenError::BadPage`] instead of silent corruption.
#[derive(Default)]
pub struct MachineMemory {
    frames: Vec<Option<Frame>>,
}

impl MachineMemory {
    /// Creates an empty memory.
    pub fn new() -> MachineMemory {
        MachineMemory::default()
    }

    /// Allocates a zeroed page for `owner`, honoring its reservation.
    pub fn alloc(&mut self, domains: &mut DomainTable, owner: DomainId) -> Result<PageId> {
        let dom = domains.get_mut(owner)?;
        if dom.pages_allocated >= dom.page_limit() {
            return Err(XenError::OutOfMemory);
        }
        dom.pages_allocated += 1;
        let id = PageId(self.frames.len() as u64);
        self.frames.push(Some(Frame {
            owner,
            data: Box::new([0u8; PAGE_SIZE]),
        }));
        Ok(id)
    }

    /// Frees a page. Only the owner may free.
    pub fn free(&mut self, domains: &mut DomainTable, owner: DomainId, page: PageId) -> Result<()> {
        let slot = self
            .frames
            .get_mut(page.0 as usize)
            .ok_or(XenError::BadPage)?;
        match slot {
            Some(f) if f.owner == owner => {
                *slot = None;
                if let Ok(d) = domains.get_mut(owner) {
                    d.pages_allocated = d.pages_allocated.saturating_sub(1);
                }
                Ok(())
            }
            Some(_) => Err(XenError::Perm),
            None => Err(XenError::BadPage),
        }
    }

    /// The owner of a page.
    pub fn owner(&self, page: PageId) -> Result<DomainId> {
        self.frame(page).map(|f| f.owner)
    }

    fn frame(&self, page: PageId) -> Result<&Frame> {
        self.frames
            .get(page.0 as usize)
            .and_then(|f| f.as_ref())
            .ok_or(XenError::BadPage)
    }

    fn frame_mut(&mut self, page: PageId) -> Result<&mut Frame> {
        self.frames
            .get_mut(page.0 as usize)
            .and_then(|f| f.as_mut())
            .ok_or(XenError::BadPage)
    }

    /// Read-only view of a page's bytes.
    pub fn page(&self, page: PageId) -> Result<&[u8; PAGE_SIZE]> {
        self.frame(page).map(|f| &*f.data)
    }

    /// Mutable view of a page's bytes.
    ///
    /// This is the *hypervisor's* view: grant permission checks are done by
    /// the grant table before handing callers a page id to use here.
    pub fn page_mut(&mut self, page: PageId) -> Result<&mut [u8; PAGE_SIZE]> {
        self.frame_mut(page).map(|f| &mut *f.data)
    }

    /// Copies `len` bytes from one page to another, slice to slice: no
    /// intermediate buffer on either path.
    ///
    /// A range reaching past the end of either page is
    /// [`XenError::OutOfBounds`]; a freed or never-allocated page on
    /// either side is [`XenError::BadPage`]. `src` and `dst` may be the
    /// same page as long as the two ranges do not overlap (an overlapping
    /// copy is also `OutOfBounds`).
    pub fn copy(
        &mut self,
        src: PageId,
        src_off: usize,
        dst: PageId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        if src_off + len > PAGE_SIZE || dst_off + len > PAGE_SIZE {
            return Err(XenError::OutOfBounds);
        }
        if src == dst {
            let overlap = src_off < dst_off + len && dst_off < src_off + len;
            if overlap && len > 0 {
                return Err(XenError::OutOfBounds);
            }
            let f = self.frame_mut(src)?;
            let (a, b) = if src_off < dst_off {
                let (l, r) = f.data.split_at_mut(dst_off);
                (&l[src_off..src_off + len], &mut r[..len])
            } else {
                let (l, r) = f.data.split_at_mut(src_off);
                (&r[..len], &mut l[dst_off..dst_off + len])
            };
            b.copy_from_slice(a);
            return Ok(());
        }
        // Distinct pages: borrow both frames at once so the bytes move
        // slice to slice. The indices differ, so the lookup only fails for
        // a page past the end of the table; a freed one is a `None` slot.
        let Ok([Some(s), Some(d)]) = self
            .frames
            .get_disjoint_mut([src.0 as usize, dst.0 as usize])
        else {
            return Err(XenError::BadPage);
        };
        d.data[dst_off..dst_off + len].copy_from_slice(&s.data[src_off..src_off + len]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainKind;

    fn setup() -> (MachineMemory, DomainTable, DomainId, DomainId) {
        let mut t = DomainTable::new();
        let d0 = t.create("Domain-0", DomainKind::Dom0, 64, 4);
        let dd = t.create("dd", DomainKind::Driver, 1, 1); // 256-page limit
        (MachineMemory::new(), t, d0, dd)
    }

    #[test]
    fn alloc_zeroed_and_owned() {
        let (mut m, mut t, d0, _) = setup();
        let p = m.alloc(&mut t, d0).unwrap();
        assert_eq!(m.owner(p).unwrap(), d0);
        assert!(m.page(p).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn reservation_enforced() {
        let (mut m, mut t, _, dd) = setup();
        for _ in 0..256 {
            m.alloc(&mut t, dd).unwrap();
        }
        assert_eq!(m.alloc(&mut t, dd), Err(XenError::OutOfMemory));
    }

    #[test]
    fn free_returns_quota_and_forbids_reuse() {
        let (mut m, mut t, _, dd) = setup();
        let p = m.alloc(&mut t, dd).unwrap();
        m.free(&mut t, dd, p).unwrap();
        assert_eq!(m.page(p).err(), Some(XenError::BadPage));
        assert_eq!(m.free(&mut t, dd, p), Err(XenError::BadPage));
        assert_eq!(t.get(dd).unwrap().pages_allocated, 0);
    }

    #[test]
    fn only_owner_frees() {
        let (mut m, mut t, d0, dd) = setup();
        let p = m.alloc(&mut t, dd).unwrap();
        assert_eq!(m.free(&mut t, d0, p), Err(XenError::Perm));
    }

    #[test]
    fn copy_moves_bytes() {
        let (mut m, mut t, d0, dd) = setup();
        let a = m.alloc(&mut t, d0).unwrap();
        let b = m.alloc(&mut t, dd).unwrap();
        m.page_mut(a).unwrap()[100..104].copy_from_slice(b"kite");
        m.copy(a, 100, b, 200, 4).unwrap();
        assert_eq!(&m.page(b).unwrap()[200..204], b"kite");
    }

    #[test]
    fn copy_bounds_checked() {
        let (mut m, mut t, d0, _) = setup();
        let a = m.alloc(&mut t, d0).unwrap();
        let b = m.alloc(&mut t, d0).unwrap();
        assert_eq!(m.copy(a, 4000, b, 0, 200), Err(XenError::OutOfBounds));
        assert_eq!(m.copy(a, 0, b, 4000, 200), Err(XenError::OutOfBounds));
        // Exactly at the boundary is fine.
        m.copy(a, 4000, b, 0, 96).unwrap();
    }

    #[test]
    fn same_page_disjoint_copy_allowed() {
        let (mut m, mut t, d0, _) = setup();
        let a = m.alloc(&mut t, d0).unwrap();
        m.page_mut(a).unwrap()[0..4].copy_from_slice(b"abcd");
        m.copy(a, 0, a, 8, 4).unwrap();
        assert_eq!(&m.page(a).unwrap()[8..12], b"abcd");
        // Reverse direction too.
        m.copy(a, 8, a, 100, 4).unwrap();
        assert_eq!(&m.page(a).unwrap()[100..104], b"abcd");
    }

    #[test]
    fn same_page_overlap_rejected() {
        let (mut m, mut t, d0, _) = setup();
        let a = m.alloc(&mut t, d0).unwrap();
        assert_eq!(m.copy(a, 0, a, 2, 4), Err(XenError::OutOfBounds));
    }
}
