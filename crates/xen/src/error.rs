//! Error type shared by all hypervisor subsystems.

use core::fmt;

use crate::domain::DomainId;

/// Errors returned by simulated hypercalls and xenstore operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XenError {
    /// The referenced domain does not exist.
    NoSuchDomain(DomainId),
    /// The referenced page does not exist or was freed.
    BadPage,
    /// A grant reference is invalid, revoked, or granted to another domain.
    BadGrant,
    /// A grant cannot be ended/revoked because it is still mapped.
    GrantInUse,
    /// Access beyond page bounds.
    OutOfBounds,
    /// Writing through a read-only grant mapping.
    ReadOnlyGrant,
    /// The referenced event-channel port is invalid or closed.
    BadPort,
    /// The event channel is not in the expected state for the operation.
    PortInUse,
    /// Xenstore: path does not exist.
    NoEnt,
    /// Xenstore: permission denied for the calling domain.
    Perm,
    /// Xenstore: transaction conflicted and must be retried.
    Again,
    /// Xenstore: invalid path syntax.
    Inval,
    /// Xenstore: unknown transaction id.
    BadTransaction,
    /// The ring is full; the producer must wait for the consumer.
    RingFull,
    /// The ring indices are corrupt (consumer overtook producer).
    RingCorrupt,
    /// PCI device is not assignable or already assigned.
    PciUnavailable,
    /// Domain memory allocation failed (over its reservation).
    OutOfMemory,
    /// Xenstore: per-domain node quota exhausted.
    Quota,
}

impl fmt::Display for XenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XenError::NoSuchDomain(d) => write!(f, "no such domain {d:?}"),
            XenError::BadPage => write!(f, "bad page reference"),
            XenError::BadGrant => write!(f, "bad grant reference"),
            XenError::GrantInUse => write!(f, "grant still mapped"),
            XenError::OutOfBounds => write!(f, "access beyond page bounds"),
            XenError::ReadOnlyGrant => write!(f, "write through read-only grant"),
            XenError::BadPort => write!(f, "bad event-channel port"),
            XenError::PortInUse => write!(f, "event-channel port in use"),
            XenError::NoEnt => write!(f, "xenstore: no such node"),
            XenError::Perm => write!(f, "xenstore: permission denied"),
            XenError::Again => write!(f, "xenstore: transaction conflict"),
            XenError::Inval => write!(f, "xenstore: invalid path"),
            XenError::BadTransaction => write!(f, "xenstore: unknown transaction"),
            XenError::RingFull => write!(f, "ring full"),
            XenError::RingCorrupt => write!(f, "ring indices corrupt"),
            XenError::PciUnavailable => write!(f, "pci device unavailable"),
            XenError::OutOfMemory => write!(f, "domain out of memory"),
            XenError::Quota => write!(f, "xenstore: node quota exhausted"),
        }
    }
}

impl std::error::Error for XenError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = core::result::Result<T, XenError>;
