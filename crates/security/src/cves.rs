//! CVE database and mitigation analysis (Figure 1a, Table 3, §5.1.1).
//!
//! Each CVE record names the syscalls (or userspace components) it needs
//! to be exploitable. A domain mitigates a CVE when *none* of the CVE's
//! required syscalls are linked into its image — the paper's Table 3
//! methodology made executable.

use kite_rumprun::SyscallSet;

/// How a CVE reaches the kernel/userspace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttackVector {
    /// Via specific syscalls (Table 3).
    Syscalls,
    /// Via the xen-utils/libxl toolstack in the domain.
    Toolstack,
}

/// One CVE record.
#[derive(Clone, Debug)]
pub struct Cve {
    /// CVE identifier.
    pub id: &'static str,
    /// Syscalls the exploit path requires (empty for non-syscall vectors).
    pub syscalls: &'static [&'static str],
    /// Vector class.
    pub vector: AttackVector,
}

/// The 11 CVEs of Table 3.
pub fn table3_cves() -> Vec<Cve> {
    vec![
        Cve {
            id: "CVE-2021-35039",
            syscalls: &["init_module"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2019-3901",
            syscalls: &["execve"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2018-18281",
            syscalls: &["ftruncate", "mremap"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2018-1068",
            syscalls: &["setsockopt"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2017-18344",
            syscalls: &["timer_create"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2017-17053",
            syscalls: &["modify_ldt", "clone"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2016-6198",
            syscalls: &["rename"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2016-6197",
            syscalls: &["rename", "unlink"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2014-3180",
            syscalls: &["nanosleep"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2009-0028",
            syscalls: &["clone"],
            vector: AttackVector::Syscalls,
        },
        Cve {
            id: "CVE-2009-0835",
            syscalls: &["chmod", "stat"],
            vector: AttackVector::Syscalls,
        },
    ]
}

/// Non-syscall CVE classes the paper cites: libxl/xen-utils issues.
pub fn environment_cves() -> Vec<Cve> {
    vec![
        Cve {
            id: "CVE-2016-4963",
            syscalls: &[],
            vector: AttackVector::Toolstack,
        },
        Cve {
            id: "CVE-2013-2072",
            syscalls: &[],
            vector: AttackVector::Toolstack,
        },
    ]
}

/// A domain's exposure characteristics.
#[derive(Clone, Debug)]
pub struct DomainSurface {
    /// Linked/available syscalls.
    pub syscalls: SyscallSet,
    /// Does the domain carry xen-utils/libxl?
    pub has_toolstack: bool,
}

impl DomainSurface {
    /// The Kite network driver domain.
    pub fn kite_network() -> DomainSurface {
        DomainSurface {
            syscalls: kite_rumprun::kite_network_syscalls(),
            has_toolstack: false,
        }
    }

    /// The Kite storage driver domain.
    pub fn kite_storage() -> DomainSurface {
        DomainSurface {
            syscalls: kite_rumprun::kite_storage_syscalls(),
            has_toolstack: false,
        }
    }

    /// The Ubuntu driver domain baseline.
    pub fn ubuntu() -> DomainSurface {
        DomainSurface {
            syscalls: kite_linux::ubuntu_driver_domain_syscalls(),
            has_toolstack: true,
        }
    }

    /// Whether this domain mitigates `cve` by construction.
    pub fn mitigates(&self, cve: &Cve) -> bool {
        match cve.vector {
            AttackVector::Syscalls => !cve.syscalls.iter().any(|s| self.syscalls.contains(s)),
            AttackVector::Toolstack => !self.has_toolstack,
        }
    }

    /// The Table 3 verdict: which of the given CVEs are mitigated.
    pub fn mitigated<'a>(&self, cves: &'a [Cve]) -> Vec<&'a Cve> {
        cves.iter().filter(|c| self.mitigates(c)).collect()
    }
}

/// Figure 1a's context data: driver CVE counts per year (cve.mitre.org,
/// as read off the paper's chart).
pub fn driver_cves_by_year() -> Vec<(u32, u32, u32)> {
    // (year, linux_driver_cves, windows_driver_cves)
    vec![
        (2015, 28, 18),
        (2016, 44, 26),
        (2017, 95, 55),
        (2018, 82, 63),
        (2019, 103, 82),
        (2020, 110, 98),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kite_mitigates_all_table3() {
        let cves = table3_cves();
        assert_eq!(cves.len(), 11, "Table 3 lists 11 CVEs");
        let net = DomainSurface::kite_network();
        let st = DomainSurface::kite_storage();
        assert_eq!(
            net.mitigated(&cves).len(),
            11,
            "network domain mitigates all"
        );
        assert_eq!(
            st.mitigated(&cves).len(),
            11,
            "storage domain mitigates all"
        );
    }

    #[test]
    fn ubuntu_mitigates_none_of_table3() {
        let cves = table3_cves();
        let ub = DomainSurface::ubuntu();
        let mitigated = ub.mitigated(&cves);
        assert!(
            mitigated.len() <= 2,
            "most Table 3 syscalls are essential to Linux: {mitigated:?}"
        );
        // The headline ones are definitely present.
        assert!(!ub.mitigates(&cves[0]), "init_module is required");
        assert!(!ub.mitigates(&cves[1]), "execve is required");
    }

    #[test]
    fn environment_cves_blocked_by_unikernelization() {
        let ub = DomainSurface::ubuntu();
        let kite = DomainSurface::kite_network();
        for cve in environment_cves() {
            assert!(!ub.mitigates(&cve), "{} hits Ubuntu", cve.id);
            assert!(kite.mitigates(&cve), "{} blocked on Kite", cve.id);
        }
    }

    #[test]
    fn cve_year_series_grows() {
        let series = driver_cves_by_year();
        assert!(series.len() >= 5);
        assert!(series.last().unwrap().1 > series.first().unwrap().1);
    }
}
