//! Grant tables: Xen's page-sharing permission mechanism.
//!
//! A domain *grants* a peer access to one of its pages and hands the peer a
//! [`GrantRef`]. The peer can then either *map* the page (getting direct
//! access until it unmaps) or ask the hypervisor to *copy* bytes in or out
//! (`GNTTABOP_copy` — the "hypervisor copy" that Kite's netback uses, since
//! the hypervisor has all machine memory mapped).
//!
//! Permission checks are real: mapping a grant issued to a different domain,
//! mapping a read-only grant writable or copying into one, or using a
//! revoked grant all fail deterministically, which the security tests rely
//! on.

use std::collections::HashMap;

use crate::domain::{slot_mut, DomainId};
use crate::error::{Result, XenError};
use crate::mem::{MachineMemory, PageId, PAGE_SIZE};

/// A grant reference: an index into the granting domain's grant table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GrantRef(pub u32);

/// A handle to an active grant mapping, returned by [`GrantTables::map`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MapHandle(u64);

#[derive(Clone, Debug)]
struct GrantEntry {
    peer: DomainId,
    page: PageId,
    readonly: bool,
    map_count: u32,
}

/// One domain's grant table.
#[derive(Clone, Debug, Default)]
struct GrantTable {
    entries: Vec<Option<GrantEntry>>,
    free: Vec<u32>,
}

impl GrantTable {
    fn insert(&mut self, e: GrantEntry) -> GrantRef {
        if let Some(idx) = self.free.pop() {
            self.entries[idx as usize] = Some(e);
            GrantRef(idx)
        } else {
            self.entries.push(Some(e));
            GrantRef(self.entries.len() as u32 - 1)
        }
    }

    fn get(&self, r: GrantRef) -> Result<&GrantEntry> {
        self.entries
            .get(r.0 as usize)
            .and_then(|e| e.as_ref())
            .ok_or(XenError::BadGrant)
    }

    fn get_mut(&mut self, r: GrantRef) -> Result<&mut GrantEntry> {
        self.entries
            .get_mut(r.0 as usize)
            .and_then(|e| e.as_mut())
            .ok_or(XenError::BadGrant)
    }

    fn remove(&mut self, r: GrantRef) -> Result<GrantEntry> {
        let slot = self
            .entries
            .get_mut(r.0 as usize)
            .ok_or(XenError::BadGrant)?;
        let e = slot.take().ok_or(XenError::BadGrant)?;
        self.free.push(r.0);
        Ok(e)
    }
}

/// Details of an active mapping.
#[derive(Clone, Copy, Debug)]
pub struct Mapping {
    /// The mapping handle (needed for unmap).
    pub handle: MapHandle,
    /// The machine page now accessible to the mapper.
    pub page: PageId,
}

#[derive(Clone, Debug)]
struct MapRecord {
    mapper: DomainId,
    granter: DomainId,
    gref: GrantRef,
}

/// Per-direction descriptor for a grant copy.
#[derive(Clone, Copy, Debug)]
pub enum CopySide {
    /// A page the calling domain owns directly.
    Local { page: PageId, offset: usize },
    /// A foreign page referenced via a grant issued *to the caller*.
    Grant {
        granter: DomainId,
        gref: GrantRef,
        offset: usize,
    },
    /// The caller's own buffer number `buf` of the list the copy is given
    /// ([`Hypervisor::grant_copy_with`](crate::Hypervisor::grant_copy_with)),
    /// at `offset`: a driver's frame itself, so the bytes need no page of
    /// the driver's to stage through. `limit` is the length the caller
    /// validated for that frame, and no op reads or writes at or past it,
    /// however large the buffer is: a frame built in a reused buffer is
    /// bounded exactly as one allocated at its length. As a source the
    /// range must also lie inside the buffer's length. As a destination it
    /// must also lie inside the buffer's capacity, the memory the caller
    /// already holds, so a copy never reallocates it: bytes inside the
    /// length are overwritten and the rest appended, and a frame allocated
    /// with room for a whole chain fills fragment by fragment and is never
    /// zero-filled. Anything past either bound is
    /// [`XenError::OutOfBounds`].
    Buffer {
        buf: usize,
        offset: usize,
        limit: usize,
    },
}

/// Writes `bytes` into `buf` at `at`, inside `limit` and its capacity:
/// what lies inside its length is overwritten and the rest appended. A
/// gap between the length and `at`, left by an earlier op that failed, is
/// zero-filled, so each op lands at its offset whatever became of the
/// others, as in a page.
fn write_into(buf: &mut Vec<u8>, at: usize, limit: usize, bytes: &[u8]) -> Result<()> {
    at.checked_add(bytes.len())
        .filter(|&end| end <= limit.min(buf.capacity()))
        .ok_or(XenError::OutOfBounds)?;
    if at > buf.len() {
        buf.resize(at, 0);
    }
    let (over, tail) = bytes.split_at((buf.len() - at).min(bytes.len()));
    buf[at..at + over.len()].copy_from_slice(over);
    buf.extend_from_slice(tail);
    Ok(())
}

/// One copy descriptor in a batched `GNTTABOP_copy` (`gnttab_copy_t`).
#[derive(Clone, Copy, Debug)]
pub struct GrantCopyOp {
    /// Where the bytes come from.
    pub src: CopySide,
    /// Where the bytes go.
    pub dst: CopySide,
    /// Bytes to move; with the offsets, must stay within one page.
    pub len: usize,
}

/// How a driver issues its grant copies (migration switch for benches and
/// equivalence tests; production paths use [`CopyMode::Batched`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CopyMode {
    /// One `GNTTABOP_copy` hypercall carrying the whole op array.
    #[default]
    Batched,
    /// The legacy shape: one hypercall per op.
    SingleOp,
}

/// All grant tables in the machine plus the active-mapping registry.
#[derive(Default)]
pub struct GrantTables {
    /// Indexed by `DomainId.0`: domain ids are dense and never reused, so
    /// a domain's table is a slot, as in Xen's `struct domain`. Only a
    /// granter's own [`GrantTables::grant_access`] or
    /// [`GrantTables::reserve`] extends it.
    tables: Vec<GrantTable>,
    maps: HashMap<MapHandle, MapRecord>,
    next_handle: u64,
}

impl GrantTables {
    /// Creates an empty set of tables.
    pub fn new() -> GrantTables {
        GrantTables::default()
    }

    fn table(&self, d: DomainId) -> Result<&GrantTable> {
        self.tables.get(d.0 as usize).ok_or(XenError::BadGrant)
    }

    fn table_mut(&mut self, d: DomainId) -> Result<&mut GrantTable> {
        self.tables.get_mut(d.0 as usize).ok_or(XenError::BadGrant)
    }

    /// `granter` grants `peer` access to `page`.
    ///
    /// The granter must own the page.
    pub fn grant_access(
        &mut self,
        mem: &MachineMemory,
        granter: DomainId,
        peer: DomainId,
        page: PageId,
        readonly: bool,
    ) -> Result<GrantRef> {
        if mem.owner(page)? != granter {
            return Err(XenError::Perm);
        }
        Ok(slot_mut(&mut self.tables, granter).insert(GrantEntry {
            peer,
            page,
            readonly,
            map_count: 0,
        }))
    }

    /// Makes room in `granter`'s table for `n` more grants beyond the
    /// free entries it already has.
    pub fn reserve(&mut self, granter: DomainId, n: usize) {
        let table = slot_mut(&mut self.tables, granter);
        table.entries.reserve(n.saturating_sub(table.free.len()));
    }

    /// `granter` revokes a grant it previously issued.
    ///
    /// Fails with [`XenError::GrantInUse`] while the peer still has it
    /// mapped (mirroring `gnttab_end_foreign_access_ref` returning busy).
    pub fn end_access(&mut self, granter: DomainId, gref: GrantRef) -> Result<()> {
        let table = self.table_mut(granter)?;
        if table.get(gref)?.map_count > 0 {
            return Err(XenError::GrantInUse);
        }
        table.remove(gref).map(|_| ())
    }

    /// `mapper` maps a grant issued by `granter`, read-only or writable
    /// (`GNTMAP_readonly`): a writable map of a read-only grant fails with
    /// [`XenError::ReadOnlyGrant`].
    pub fn map(
        &mut self,
        mapper: DomainId,
        granter: DomainId,
        gref: GrantRef,
        readonly: bool,
    ) -> Result<Mapping> {
        let entry = self.table_mut(granter)?.get_mut(gref)?;
        if entry.peer != mapper {
            return Err(XenError::BadGrant);
        }
        if entry.readonly && !readonly {
            return Err(XenError::ReadOnlyGrant);
        }
        entry.map_count += 1;
        let page = entry.page;
        let handle = MapHandle(self.next_handle);
        self.next_handle += 1;
        self.maps.insert(
            handle,
            MapRecord {
                mapper,
                granter,
                gref,
            },
        );
        Ok(Mapping { handle, page })
    }

    /// Drops the busy count a torn-down mapping held on its grant.
    fn release(&mut self, rec: &MapRecord) {
        if let Ok(entry) = self
            .table_mut(rec.granter)
            .and_then(|t| t.get_mut(rec.gref))
        {
            entry.map_count = entry.map_count.saturating_sub(1);
        }
    }

    /// Reclaims everything a dead domain holds: drops all mappings it
    /// established (releasing the granters' busy counts) and its own
    /// grant table. What Xen does on domain destruction — the peers'
    /// grants become revocable again without the dead domain's help.
    /// Returns the number of mappings torn down.
    pub fn reclaim_domain(&mut self, dead: DomainId) -> usize {
        let handles: Vec<MapHandle> = self
            .maps
            .iter()
            .filter(|(_, r)| r.mapper == dead)
            .map(|(&h, _)| h)
            .collect();
        let n = handles.len();
        for h in handles {
            let rec = self.maps.remove(&h).expect("collected above");
            self.release(&rec);
        }
        if let Ok(table) = self.table_mut(dead) {
            *table = GrantTable::default();
        }
        n
    }

    /// `mapper` unmaps a previously established mapping.
    pub fn unmap(&mut self, mapper: DomainId, handle: MapHandle) -> Result<()> {
        let rec = self.maps.get(&handle).ok_or(XenError::BadGrant)?;
        if rec.mapper != mapper {
            return Err(XenError::Perm);
        }
        let rec = self.maps.remove(&handle).expect("checked above");
        self.release(&rec);
        Ok(())
    }

    /// Checks the caller's right to one side of a grant copy: a grant
    /// resolves to the [`CopySide::Local`] page it names, a local page and
    /// a buffer of the caller's own stay as they are.
    fn resolve(
        &self,
        mem: &MachineMemory,
        caller: DomainId,
        side: CopySide,
        writing: bool,
    ) -> Result<CopySide> {
        match side {
            CopySide::Local { page, .. } => {
                if mem.owner(page)? != caller {
                    return Err(XenError::Perm);
                }
                Ok(side)
            }
            CopySide::Grant {
                granter,
                gref,
                offset,
            } => {
                let entry = self.table(granter)?.get(gref)?;
                if entry.peer != caller {
                    return Err(XenError::BadGrant);
                }
                if writing && entry.readonly {
                    return Err(XenError::ReadOnlyGrant);
                }
                Ok(CopySide::Local {
                    page: entry.page,
                    offset,
                })
            }
            CopySide::Buffer { .. } => Ok(side),
        }
    }

    /// Hypervisor copy (`GNTTABOP_copy`): moves `op.len` bytes from
    /// `op.src` to `op.dst` on behalf of `caller`.
    ///
    /// Each side is a local page, a grant issued to the caller, or one of
    /// the caller's `bufs` ([`CopySide::Buffer`]); at most one side may be
    /// a buffer. Offsets+len must stay within a single page, as in Xen. A
    /// failed copy moves nothing.
    pub fn copy(
        &self,
        mem: &mut MachineMemory,
        caller: DomainId,
        op: &GrantCopyOp,
        bufs: &mut [Vec<u8>],
    ) -> Result<()> {
        let len = op.len;
        if len > PAGE_SIZE {
            return Err(XenError::OutOfBounds);
        }
        let src = self.resolve(mem, caller, op.src, false)?;
        let dst = self.resolve(mem, caller, op.dst, true)?;
        match (src, dst) {
            (
                CopySide::Local {
                    page: sp,
                    offset: so,
                },
                CopySide::Local {
                    page: dp,
                    offset: dof,
                },
            ) => mem.copy(sp, so, dp, dof, len),
            (
                CopySide::Local { page, offset },
                CopySide::Buffer {
                    buf,
                    offset: at,
                    limit,
                },
            ) => {
                let bytes = mem.read(page, offset, len)?;
                let buf = bufs.get_mut(buf).ok_or(XenError::OutOfBounds)?;
                write_into(buf, at, limit, bytes)
            }
            (
                CopySide::Buffer {
                    buf,
                    offset: at,
                    limit,
                },
                CopySide::Local { page, offset },
            ) => {
                let bytes = bufs
                    .get(buf)
                    .and_then(|b| b.get(at..at.checked_add(len).filter(|&end| end <= limit)?))
                    .ok_or(XenError::OutOfBounds)?;
                mem.write(page, offset, bytes)
            }
            // Two of the caller's own buffers: not a hypervisor copy.
            _ => Err(XenError::Inval),
        }
    }

    /// Number of active mappings held by `mapper` (leak checks in tests).
    pub fn active_maps(&self, mapper: DomainId) -> usize {
        self.maps.values().filter(|m| m.mapper == mapper).count()
    }

    /// Number of live grant entries issued by `granter`.
    pub fn live_grants(&self, granter: DomainId) -> usize {
        self.table(granter)
            .map_or(0, |t| t.entries.iter().filter(|e| e.is_some()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainKind, DomainTable};

    struct Fix {
        mem: MachineMemory,
        doms: DomainTable,
        gt: GrantTables,
        guest: DomainId,
        driver: DomainId,
    }

    fn fix() -> Fix {
        let mut doms = DomainTable::new();
        doms.create("Domain-0", DomainKind::Dom0, 64, 4);
        let driver = doms.create("dd", DomainKind::Driver, 64, 1);
        let guest = doms.create("guest", DomainKind::Guest, 64, 2);
        Fix {
            mem: MachineMemory::new(),
            doms,
            gt: GrantTables::new(),
            guest,
            driver,
        }
    }

    impl Fix {
        /// One copy on the driver's behalf, with no buffers of its own.
        fn copy(&mut self, src: CopySide, dst: CopySide, len: usize) -> Result<()> {
            let op = GrantCopyOp { src, dst, len };
            self.gt.copy(&mut self.mem, self.driver, &op, &mut [])
        }
    }

    #[test]
    fn grant_map_unmap_roundtrip() {
        let mut f = fix();
        let page = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        f.mem.page_mut(page).unwrap()[0..4].copy_from_slice(b"data");
        let gref =
            f.gt.grant_access(&f.mem, f.guest, f.driver, page, false)
                .unwrap();
        let m = f.gt.map(f.driver, f.guest, gref, false).unwrap();
        assert_eq!(m.page, page);
        assert_eq!(&f.mem.page(m.page).unwrap()[0..4], b"data");
        f.gt.unmap(f.driver, m.handle).unwrap();
        f.gt.end_access(f.guest, gref).unwrap();
        assert_eq!(f.gt.live_grants(f.guest), 0);
        assert_eq!(f.gt.active_maps(f.driver), 0);
    }

    #[test]
    fn writable_map_of_a_readonly_grant_fails() {
        let mut f = fix();
        let page = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let gref =
            f.gt.grant_access(&f.mem, f.guest, f.driver, page, true)
                .unwrap();
        assert_eq!(
            f.gt.map(f.driver, f.guest, gref, false).err(),
            Some(XenError::ReadOnlyGrant)
        );
        assert_eq!(f.gt.active_maps(f.driver), 0);
        // A read-only map of it succeeds.
        let m = f.gt.map(f.driver, f.guest, gref, true).unwrap();
        assert_eq!(m.page, page);
        f.gt.unmap(f.driver, m.handle).unwrap();
        f.gt.end_access(f.guest, gref).unwrap();
    }

    #[test]
    fn cannot_grant_unowned_page() {
        let mut f = fix();
        let page = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        assert_eq!(
            f.gt.grant_access(&f.mem, f.driver, f.guest, page, false),
            Err(XenError::Perm)
        );
    }

    #[test]
    fn wrong_peer_cannot_map() {
        let mut f = fix();
        let page = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let gref =
            f.gt.grant_access(&f.mem, f.guest, f.driver, page, false)
                .unwrap();
        // Dom0 was not the grant peer.
        assert_eq!(
            f.gt.map(DomainId::DOM0, f.guest, gref, false).err(),
            Some(XenError::BadGrant)
        );
    }

    #[test]
    fn revoke_while_mapped_is_busy() {
        let mut f = fix();
        let page = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let gref =
            f.gt.grant_access(&f.mem, f.guest, f.driver, page, false)
                .unwrap();
        let m = f.gt.map(f.driver, f.guest, gref, false).unwrap();
        assert_eq!(f.gt.end_access(f.guest, gref), Err(XenError::GrantInUse));
        f.gt.unmap(f.driver, m.handle).unwrap();
        f.gt.end_access(f.guest, gref).unwrap();
    }

    #[test]
    fn use_after_revoke_fails() {
        let mut f = fix();
        let page = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let gref =
            f.gt.grant_access(&f.mem, f.guest, f.driver, page, false)
                .unwrap();
        f.gt.end_access(f.guest, gref).unwrap();
        assert_eq!(
            f.gt.map(f.driver, f.guest, gref, false).err(),
            Some(XenError::BadGrant)
        );
    }

    #[test]
    fn copy_from_guest_grant() {
        let mut f = fix();
        let gpage = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let dpage = f.mem.alloc(&mut f.doms, f.driver).unwrap();
        f.mem.page_mut(gpage).unwrap()[128..133].copy_from_slice(b"hello");
        let gref =
            f.gt.grant_access(&f.mem, f.guest, f.driver, gpage, true)
                .unwrap();
        f.copy(
            CopySide::Grant {
                granter: f.guest,
                gref,
                offset: 128,
            },
            CopySide::Local {
                page: dpage,
                offset: 0,
            },
            5,
        )
        .unwrap();
        assert_eq!(&f.mem.page(dpage).unwrap()[0..5], b"hello");
    }

    #[test]
    fn copy_to_readonly_grant_rejected() {
        let mut f = fix();
        let gpage = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let dpage = f.mem.alloc(&mut f.doms, f.driver).unwrap();
        let gref =
            f.gt.grant_access(&f.mem, f.guest, f.driver, gpage, true)
                .unwrap();
        let err = f.copy(
            CopySide::Local {
                page: dpage,
                offset: 0,
            },
            CopySide::Grant {
                granter: f.guest,
                gref,
                offset: 0,
            },
            4,
        );
        assert_eq!(err, Err(XenError::ReadOnlyGrant));
        assert_eq!(f.mem.backed_pages(), 0, "a refused copy backs nothing");
    }

    #[test]
    fn unknown_granter_fails_and_grows_no_table() {
        let mut f = fix();
        let page = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let dpage = f.mem.alloc(&mut f.doms, f.driver).unwrap();
        let gref =
            f.gt.grant_access(&f.mem, f.guest, f.driver, page, false)
                .unwrap();
        let tables = f.gt.tables.len();
        let ghost = DomainId(u16::MAX);
        assert_eq!(
            f.gt.map(f.driver, ghost, gref, false).err(),
            Some(XenError::BadGrant)
        );
        assert_eq!(f.gt.end_access(ghost, gref), Err(XenError::BadGrant));
        let copy = f.copy(
            CopySide::Grant {
                granter: ghost,
                gref,
                offset: 0,
            },
            CopySide::Local {
                page: dpage,
                offset: 0,
            },
            4,
        );
        assert_eq!(copy, Err(XenError::BadGrant));
        assert_eq!(f.gt.live_grants(ghost), 0);
        assert_eq!(f.gt.reclaim_domain(ghost), 0);
        assert_eq!(f.gt.tables.len(), tables);
        assert_eq!(f.mem.backed_pages(), 0);
    }

    #[test]
    fn copy_with_foreign_local_page_rejected() {
        let mut f = fix();
        let gpage = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let dpage = f.mem.alloc(&mut f.doms, f.driver).unwrap();
        // Driver tries to use the guest's page as its "local" side.
        let err = f.copy(
            CopySide::Local {
                page: gpage,
                offset: 0,
            },
            CopySide::Local {
                page: dpage,
                offset: 0,
            },
            4,
        );
        assert_eq!(err, Err(XenError::Perm));
    }

    #[test]
    fn copy_len_capped_at_page() {
        let mut f = fix();
        let a = f.mem.alloc(&mut f.doms, f.driver).unwrap();
        let b = f.mem.alloc(&mut f.doms, f.driver).unwrap();
        let err = f.copy(
            CopySide::Local { page: a, offset: 0 },
            CopySide::Local { page: b, offset: 0 },
            PAGE_SIZE + 1,
        );
        assert_eq!(err, Err(XenError::OutOfBounds));
    }

    /// A frame built in a reused buffer is bounded by the length the
    /// caller validated, not by the buffer: with a spare of twice the
    /// slot's size, an op past the slot is refused and moves nothing.
    #[test]
    fn an_op_past_a_buffers_limit_is_out_of_bounds_whatever_its_capacity() {
        const SLOT: usize = 6;
        let mut f = fix();
        let (guest, driver) = (f.guest, f.driver);
        let page = f.mem.alloc(&mut f.doms, guest).unwrap();
        f.mem.page_mut(page).unwrap()[..8].copy_from_slice(b"abcdefgh");
        let dst_page = f.mem.alloc(&mut f.doms, driver).unwrap();
        let gref =
            f.gt.grant_access(&f.mem, guest, driver, page, true)
                .unwrap();
        let grant = |offset| CopySide::Grant {
            granter: guest,
            gref,
            offset,
        };
        let frame = |offset| CopySide::Buffer {
            buf: 0,
            offset,
            limit: SLOT,
        };
        let mut bufs = vec![Vec::with_capacity(2 * SLOT)];
        let mut copy = |src, dst, len| {
            let op = GrantCopyOp { src, dst, len };
            f.gt.copy(&mut f.mem, driver, &op, &mut bufs)
        };
        assert_eq!(
            copy(grant(0), frame(0), SLOT + 1),
            Err(XenError::OutOfBounds)
        );
        assert_eq!(
            copy(grant(0), frame(SLOT - 2), 4),
            Err(XenError::OutOfBounds)
        );
        assert_eq!(copy(grant(0), frame(0), SLOT), Ok(()));
        let local = CopySide::Local {
            page: dst_page,
            offset: 0,
        };
        let short = CopySide::Buffer {
            buf: 0,
            offset: 2,
            limit: 4,
        };
        assert_eq!(copy(short, local, 3), Err(XenError::OutOfBounds));
        assert_eq!(bufs, [b"abcdef"], "only the op inside the limit landed");
        assert_eq!(bufs[0].capacity(), 2 * SLOT);
        assert!(f.mem.page(dst_page).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn grant_refs_are_recycled() {
        let mut f = fix();
        let page = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let r1 =
            f.gt.grant_access(&f.mem, f.guest, f.driver, page, false)
                .unwrap();
        f.gt.end_access(f.guest, r1).unwrap();
        let r2 =
            f.gt.grant_access(&f.mem, f.guest, f.driver, page, false)
                .unwrap();
        assert_eq!(r1, r2, "freed slot should be reused");
    }

    #[test]
    fn unmap_wrong_domain_rejected() {
        let mut f = fix();
        let page = f.mem.alloc(&mut f.doms, f.guest).unwrap();
        let gref =
            f.gt.grant_access(&f.mem, f.guest, f.driver, page, false)
                .unwrap();
        let m = f.gt.map(f.driver, f.guest, gref, false).unwrap();
        assert_eq!(f.gt.unmap(f.guest, m.handle), Err(XenError::Perm));
    }
}
