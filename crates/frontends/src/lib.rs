//! Guest-side PV frontends.
//!
//! These are the *unmodified* drivers every Xen guest already ships —
//! Kite's claim is precisely that its unikernel backends interoperate with
//! stock frontends. [`netfront::Netfront`] and [`blkfront::Blkfront`]
//! speak the byte-exact ring ABIs from `kite-xen` and negotiate through
//! xenstore exactly as Linux's drivers do.

pub mod blkfront;
pub mod netfront;

pub use blkfront::{BlkCompletion, Blkfront};
pub use netfront::{FrontOp, Netfront, RspRejects};
