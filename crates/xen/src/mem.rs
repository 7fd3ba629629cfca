//! Simulated machine memory.
//!
//! All inter-domain data movement in the reproduction goes through real
//! 4 KiB pages owned by domains, so grant-table bugs (out-of-bounds copies,
//! writes through read-only grants, use-after-revoke) are actual detectable
//! failures rather than modeling hand-waves.
//!
//! A page is *reserved* at [`MachineMemory::alloc`] — owner, quota and a
//! [`PageId`] that is never reused are all settled there — but *backed*
//! by a 4 KiB buffer only on its first write ([`MachineMemory::page_mut`],
//! or as the destination of [`MachineMemory::copy`]). Until then every
//! read sees one shared page of zeros, which is exactly what a freshly
//! allocated page holds, so laziness changes no byte anyone can observe:
//! it only stops a build from zero-filling pool pages a run never
//! touches. All checks (ownership, bounds, unknown pages) are made on the
//! reservation and fail the same whether or not the page is backed.

use crate::domain::{DomainId, DomainTable};
use crate::error::{Result, XenError};

/// Size of one machine page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// What every page nothing has written yet reads as.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// A machine frame number — a global handle to one page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageId(pub u64);

/// The end of the range `off..off + len`, if it stays inside one page.
fn page_end(off: usize, len: usize) -> Result<usize> {
    off.checked_add(len)
        .filter(|&end| end <= PAGE_SIZE)
        .ok_or(XenError::OutOfBounds)
}

/// A page's bytes: `None` until the first write.
struct Backing(Option<Box<[u8; PAGE_SIZE]>>);

impl Backing {
    fn bytes(&self) -> &[u8; PAGE_SIZE] {
        self.0.as_deref().unwrap_or(&ZERO_PAGE)
    }

    fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.0.get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }
}

/// One machine frame: its owner and its bytes.
struct Frame(DomainId, Backing);

// The table keeps a slot for every page ever allocated: 16 bytes each.
const _: () = assert!(std::mem::size_of::<Frame>() == 16);

/// All machine memory, indexed by [`PageId`]. A page id past the table is
/// [`XenError::BadPage`].
#[derive(Default)]
pub struct MachineMemory {
    frames: Vec<Frame>,
}

impl MachineMemory {
    /// Creates an empty memory.
    pub fn new() -> MachineMemory {
        MachineMemory::default()
    }

    /// Allocates a zeroed page for `owner`, honoring its reservation. The
    /// page is backed on its first write.
    pub fn alloc(&mut self, domains: &mut DomainTable, owner: DomainId) -> Result<PageId> {
        let dom = domains.get_mut(owner)?;
        if dom.pages_allocated >= dom.page_limit() {
            return Err(XenError::OutOfMemory);
        }
        dom.pages_allocated += 1;
        let id = PageId(self.frames.len() as u64);
        self.frames.push(Frame(owner, Backing(None)));
        Ok(id)
    }

    /// Makes room in the page table for `pages` more allocations.
    pub fn reserve(&mut self, pages: usize) {
        self.frames.reserve(pages);
    }

    /// The owner of a page.
    pub fn owner(&self, page: PageId) -> Result<DomainId> {
        self.frame(page).map(|(owner, _)| owner)
    }

    fn frame(&self, page: PageId) -> Result<(DomainId, &Backing)> {
        match self.frames.get(page.0 as usize) {
            Some(Frame(owner, data)) => Ok((*owner, data)),
            None => Err(XenError::BadPage),
        }
    }

    fn backing_mut(&mut self, page: PageId) -> Result<&mut Backing> {
        match self.frames.get_mut(page.0 as usize) {
            Some(Frame(_, data)) => Ok(data),
            None => Err(XenError::BadPage),
        }
    }

    /// Read-only view of a page's bytes. Backs nothing: an unwritten page
    /// reads as zeros.
    pub fn page(&self, page: PageId) -> Result<&[u8; PAGE_SIZE]> {
        self.frame(page).map(|(_, data)| data.bytes())
    }

    /// Mutable view of a page's bytes, backing the page if nothing has
    /// written it yet.
    ///
    /// This is the *hypervisor's* view: grant permission checks are done by
    /// the grant table before handing callers a page id to use here.
    pub fn page_mut(&mut self, page: PageId) -> Result<&mut [u8; PAGE_SIZE]> {
        self.backing_mut(page).map(Backing::bytes_mut)
    }

    /// Bytes `off..off + len` of a page. Backs nothing; a range past the
    /// page's end is [`XenError::OutOfBounds`].
    pub(crate) fn read(&self, page: PageId, off: usize, len: usize) -> Result<&[u8]> {
        let end = page_end(off, len)?;
        Ok(&self.page(page)?[off..end])
    }

    /// Writes `bytes` into a page at `off`, backing it. Checked like
    /// [`MachineMemory::copy`]: bounds first, then the page, and a failed
    /// write backs nothing.
    pub(crate) fn write(&mut self, page: PageId, off: usize, bytes: &[u8]) -> Result<()> {
        let end = page_end(off, bytes.len())?;
        self.page_mut(page)?[off..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Copies `len` bytes from one page to another, slice to slice: no
    /// intermediate buffer on either path.
    ///
    /// A range reaching past the end of either page is
    /// [`XenError::OutOfBounds`]; a never-allocated page on either side
    /// is [`XenError::BadPage`]. `src` and `dst` may be the
    /// same page as long as the two ranges do not overlap (an overlapping
    /// copy is also `OutOfBounds`). A copy that succeeds backs `dst`; a
    /// failed one backs nothing.
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
            let data = self.backing_mut(src)?.bytes_mut();
            let (a, b) = if src_off < dst_off {
                let (l, r) = data.split_at_mut(dst_off);
                (&l[src_off..src_off + len], &mut r[..len])
            } else {
                let (l, r) = data.split_at_mut(src_off);
                (&r[..len], &mut l[dst_off..dst_off + len])
            };
            b.copy_from_slice(a);
            return Ok(());
        }
        // Distinct pages: borrow both frames at once so the bytes move
        // slice to slice. The indices differ, so the lookup only fails for
        // a page past the end of the table.
        let Ok([Frame(_, s), Frame(_, d)]) = self
            .frames
            .get_disjoint_mut([src.0 as usize, dst.0 as usize])
        else {
            return Err(XenError::BadPage);
        };
        d.bytes_mut()[dst_off..dst_off + len].copy_from_slice(&s.bytes()[src_off..src_off + len]);
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

    impl MachineMemory {
        /// Pages that have a buffer behind them.
        pub(crate) fn backed_pages(&self) -> usize {
            self.frames
                .iter()
                .filter(|f| matches!(f, Frame(_, Backing(Some(_)))))
                .count()
        }
    }

    #[test]
    fn unwritten_page_reads_zeros_and_backs_nothing() {
        let (mut m, mut t, d0, _) = setup();
        let p = m.alloc(&mut t, d0).unwrap();
        assert!(m.page(p).unwrap().iter().all(|&b| b == 0));
        assert_eq!(m.backed_pages(), 0);
    }

    #[test]
    fn first_page_mut_backs_exactly_one_page() {
        let (mut m, mut t, d0, _) = setup();
        let (a, b) = (m.alloc(&mut t, d0).unwrap(), m.alloc(&mut t, d0).unwrap());
        m.page_mut(a).unwrap()[7] = 1;
        assert_eq!(m.backed_pages(), 1);
        m.page_mut(a).unwrap()[8] = 2;
        assert_eq!(m.backed_pages(), 1, "a backed page stays the one buffer");
        assert_eq!(&m.page(a).unwrap()[7..9], &[1, 2]);
        assert!(m.page(b).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn copy_from_unbacked_source_writes_zeros() {
        let (mut m, mut t, d0, _) = setup();
        let (src, dst) = (m.alloc(&mut t, d0).unwrap(), m.alloc(&mut t, d0).unwrap());
        m.page_mut(dst).unwrap().fill(0xff);
        m.copy(src, 0, dst, 16, 32).unwrap();
        let page = m.page(dst).unwrap();
        assert!(page[16..48].iter().all(|&b| b == 0));
        assert!(page[..16].iter().chain(&page[48..]).all(|&b| b == 0xff));
        assert_eq!(m.backed_pages(), 1, "the source stays unbacked");
    }

    #[test]
    fn copy_into_unbacked_destination_backs_it() {
        let (mut m, mut t, d0, dd) = setup();
        let (src, dst) = (m.alloc(&mut t, d0).unwrap(), m.alloc(&mut t, dd).unwrap());
        m.page_mut(src).unwrap()[..4].copy_from_slice(b"kite");
        m.copy(src, 0, dst, 100, 4).unwrap();
        assert_eq!(m.backed_pages(), 2);
        assert_eq!(&m.page(dst).unwrap()[100..104], b"kite");
    }

    #[test]
    fn failed_copy_backs_nothing() {
        let (mut m, mut t, d0, dd) = setup();
        let (a, b) = (m.alloc(&mut t, d0).unwrap(), m.alloc(&mut t, dd).unwrap());
        assert_eq!(m.copy(a, 4000, b, 0, 200), Err(XenError::OutOfBounds));
        assert_eq!(m.copy(a, 0, a, 2, 4), Err(XenError::OutOfBounds));
        assert_eq!(m.copy(PageId(99), 0, b, 0, 4), Err(XenError::BadPage));
        assert_eq!(m.copy(a, 0, PageId(99), 0, 4), Err(XenError::BadPage));
        assert_eq!(m.backed_pages(), 0);
    }

    #[test]
    fn same_page_copy_on_unbacked_page() {
        let (mut m, mut t, d0, _) = setup();
        let a = m.alloc(&mut t, d0).unwrap();
        m.copy(a, 0, a, 100, 8).unwrap();
        assert!(m.page(a).unwrap().iter().all(|&b| b == 0));
    }
}
