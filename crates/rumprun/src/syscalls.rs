//! Syscall surface accounting.
//!
//! In rumprun, "system calls" are ordinary function calls — but they are
//! still the semantic interface to the rump kernel, and the paper's
//! Figure 4a counts how many of them each image needs: **14** for the
//! network domain and **18** for the storage domain, versus 171 for even a
//! minimal Ubuntu driver domain. Everything not needed is discarded at link
//! time, which is the mechanism behind the CVE mitigations of Table 3.

use std::collections::BTreeSet;

/// A set of syscall names (order-independent, deduplicated).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyscallSet {
    names: BTreeSet<&'static str>,
}

impl SyscallSet {
    /// Builds a set from names.
    pub fn from_names(names: &[&'static str]) -> SyscallSet {
        SyscallSet {
            names: names.iter().copied().collect(),
        }
    }

    /// Number of syscalls in the set.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }
}

/// The 14 syscalls the Kite **network** domain links in.
pub fn kite_network_syscalls() -> SyscallSet {
    SyscallSet::from_names(&[
        "exit",
        "read",
        "write",
        "open",
        "close",
        "ioctl",
        "poll",
        "mmap",
        "munmap",
        "clock_gettime",
        "socket",
        "bind",
        "sendmsg",
        "recvmsg",
    ])
}

/// The 18 syscalls the Kite **storage** domain links in.
pub fn kite_storage_syscalls() -> SyscallSet {
    SyscallSet::from_names(&[
        "exit",
        "read",
        "write",
        "open",
        "close",
        "ioctl",
        "poll",
        "mmap",
        "munmap",
        "clock_gettime",
        "fstat",
        "lseek",
        "pread",
        "pwrite",
        "fsync",
        "mount",
        "unmount",
        "statvfs",
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_match() {
        assert_eq!(kite_network_syscalls().len(), 14, "Fig 4a: network = 14");
        assert_eq!(kite_storage_syscalls().len(), 18, "Fig 4a: storage = 18");
    }

    #[test]
    fn dangerous_syscalls_absent() {
        // The Table 3 CVE carriers must not be reachable from Kite images.
        for bad in [
            "init_module",
            "execve",
            "clone",
            "modify_ldt",
            "ftruncate",
            "mremap",
            "timer_create",
            "rename",
            "unlink",
            "chmod",
            "setsockopt",
        ] {
            assert!(!kite_network_syscalls().contains(bad), "net has {bad}");
        }
        for bad in ["init_module", "execve", "clone", "modify_ldt"] {
            assert!(!kite_storage_syscalls().contains(bad), "storage has {bad}");
        }
    }

    #[test]
    fn set_algebra() {
        let u = SyscallSet::from_names(&["read", "write", "close", "write"]);
        assert_eq!(u.len(), 3);
        assert_eq!(
            u.names.iter().copied().collect::<Vec<_>>(),
            ["close", "read", "write"]
        );
        assert!(u.contains("close"));
        assert!(!SyscallSet::default().contains("read"));
        assert!(SyscallSet::default().is_empty());
    }

    #[test]
    fn network_and_storage_share_a_core() {
        let net = kite_network_syscalls();
        let st = kite_storage_syscalls();
        for core in ["read", "write", "open", "close", "poll"] {
            assert!(net.contains(core) && st.contains(core));
        }
        // Storage has no sockets; network has no file sync.
        assert!(!st.contains("socket"));
        assert!(!net.contains("fsync"));
    }
}
