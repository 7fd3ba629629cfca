//! The one way the guest lends pages to a driver domain: a fixed set of
//! granted pages, addressed by id, each at all times either free or out
//! with the backend, once. A backend naming a page it does not hold is
//! refused in O(1) and changes nothing.

use kite_xen::{DevicePaths, GrantRef, Hypervisor, PageId, Result};

use crate::Refusal;

/// Netfront's Tx and Rx buffers, blkfront's data and indirect pages.
pub(crate) struct GrantPool {
    pages: Vec<(PageId, GrantRef)>,
    /// Per page: lent and not yet released (xen-netfront's `TX_PENDING`).
    out: Vec<bool>,
    free: Vec<u16>,
}

impl GrantPool {
    /// Allocates `n` pages in the frontend's domain, granting each to
    /// the backend's as it goes. Ids pop lowest first.
    pub fn new(hv: &mut Hypervisor, paths: &DevicePaths, n: usize, readonly: bool) -> Result<Self> {
        let pages = hv.alloc_granted(paths.front, paths.back, n, readonly)?;
        let (out, free) = (vec![false; n], (0..n as u16).rev().collect());
        Ok(GrantPool { pages, out, free })
    }

    pub fn alloc(&mut self) -> Option<u16> {
        let id = self.free.pop()?;
        self.out[id as usize] = true;
        Some(id)
    }

    /// Takes page `id` back from the backend, unless it is past the pool
    /// or not out.
    pub fn release(&mut self, id: u16) -> std::result::Result<(), Refusal> {
        match self.out.get_mut(id as usize) {
            None => Err(Refusal::BadId),
            Some(false) => Err(Refusal::UnknownId),
            Some(out) => {
                *out = false;
                self.free.push(id);
                Ok(())
            }
        }
    }

    pub fn available(&self) -> usize {
        self.free.len()
    }

    pub fn is_out(&self, id: u16) -> bool {
        self.out[id as usize]
    }

    pub fn page(&self, id: u16) -> PageId {
        self.pages[id as usize].0
    }

    pub fn gref(&self, id: u16) -> GrantRef {
        self.pages[id as usize].1
    }

    /// Pages out, after checking each page is free or out, once (panics
    /// otherwise). O(pool): an audit, never on a data path.
    pub fn assert_sound(&self) -> usize {
        let mut free = vec![false; self.out.len()];
        for &id in &self.free {
            assert!(!free[id as usize], "page {id} is free twice");
            free[id as usize] = true;
        }
        for (id, (&out, free)) in self.out.iter().zip(free).enumerate() {
            assert!(out != free, "page {id}: free {free}, out {out}");
        }
        self.out.len() - self.free.len()
    }
}
