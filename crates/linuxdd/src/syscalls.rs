//! The Linux syscall surface of an Ubuntu-based driver domain.
//!
//! Figure 4a: even a minimal Ubuntu driver domain exercises **171**
//! syscalls — the kernel plus systemd, udev, shells, Python (for xen-utils)
//! and the xl toolstack each pull in their share, and most cannot be
//! removed without breaking boot. The list below names them; the paper's
//! CVE analysis (Table 3) then follows mechanically from set membership.

use kite_rumprun::SyscallSet;

/// The 171 syscalls observed in use by a minimal Ubuntu 18.04 driver
/// domain (kernel boot + systemd + udev + xl devd + bridge scripts).
pub fn ubuntu_driver_domain_syscalls() -> SyscallSet {
    SyscallSet::from_names(UBUNTU_DD_SYSCALLS)
}

const UBUNTU_DD_SYSCALLS: &[&str] = &[
    "clone",
    "fork",
    "execve",
    "exit",
    "exit_group",
    "wait4",
    "kill",
    "getpid",
    "getppid",
    "gettid",
    "setsid",
    "setpgid",
    "prctl",
    "arch_prctl",
    "set_tid_address",
    "futex",
    "sched_yield",
    "sched_getaffinity",
    "sched_setaffinity",
    "nanosleep",
    "clock_nanosleep",
    "brk",
    "mmap",
    "munmap",
    "mprotect",
    "mremap",
    "madvise",
    "modify_ldt",
    "open",
    "openat",
    "close",
    "read",
    "write",
    "readv",
    "writev",
    "pread64",
    "pwrite64",
    "lseek",
    "stat",
    "fstat",
    "lstat",
    "newfstatat",
    "access",
    "readlink",
    "readlinkat",
    "rename",
    "unlink",
    "unlinkat",
    "symlink",
    "mkdir",
    "mkdirat",
    "rmdir",
    "chdir",
    "getcwd",
    "chmod",
    "fchmod",
    "chown",
    "fchown",
    "umask",
    "ftruncate",
    "fallocate",
    "fsync",
    "fdatasync",
    "sync",
    "dup",
    "dup2",
    "dup3",
    "pipe",
    "pipe2",
    "fcntl",
    "getdents",
    "getdents64",
    "utimensat",
    "statfs",
    "fstatfs",
    "getxattr",
    "setxattr",
    "ioctl",
    "sendfile",
    "select",
    "poll",
    "ppoll",
    "epoll_create1",
    "epoll_ctl",
    "epoll_wait",
    "epoll_pwait",
    "eventfd2",
    "timerfd_create",
    "timerfd_settime",
    "signalfd4",
    "inotify_init1",
    "inotify_add_watch",
    "inotify_rm_watch",
    "rt_sigaction",
    "rt_sigprocmask",
    "rt_sigreturn",
    "rt_sigsuspend",
    "rt_sigtimedwait",
    "sigaltstack",
    "pause",
    "clock_gettime",
    "clock_getres",
    "gettimeofday",
    "times",
    "timer_create",
    "timer_settime",
    "getitimer",
    "setitimer",
    "getuid",
    "geteuid",
    "getgid",
    "getegid",
    "setuid",
    "setgid",
    "setgroups",
    "getgroups",
    "setresuid",
    "setresgid",
    "capget",
    "capset",
    "socket",
    "socketpair",
    "bind",
    "connect",
    "listen",
    "accept",
    "accept4",
    "getsockname",
    "getpeername",
    "sendto",
    "recvfrom",
    "sendmsg",
    "recvmsg",
    "sendmmsg",
    "shutdown",
    "setsockopt",
    "getsockopt",
    "init_module",
    "finit_module",
    "delete_module",
    "mount",
    "umount2",
    "pivot_root",
    "chroot",
    "reboot",
    "sysinfo",
    "uname",
    "sethostname",
    "getrlimit",
    "setrlimit",
    "prlimit64",
    "getrusage",
    "getpriority",
    "setpriority",
    "personality",
    "seccomp",
    "bpf",
    "perf_event_open",
    "memfd_create",
    "getrandom",
    "name_to_handle_at",
    "ptrace",
    "keyctl",
    "add_key",
    "io_setup",
    "io_submit",
    "io_getevents",
    "io_destroy",
    "unshare",
    "setns",
    "kcmp",
];

#[cfg(test)]
mod tests {
    use super::*;
    use kite_rumprun::kite_network_syscalls;

    #[test]
    fn ubuntu_surface_is_171() {
        assert_eq!(
            ubuntu_driver_domain_syscalls().len(),
            171,
            "Figure 4a: Ubuntu driver domain uses 171 syscalls"
        );
    }

    #[test]
    fn roughly_10x_kite() {
        let ratio =
            ubuntu_driver_domain_syscalls().len() as f64 / kite_network_syscalls().len() as f64;
        assert!(
            ratio >= 10.0,
            "paper claims 10x reduction; ratio={ratio:.1}"
        );
    }

    #[test]
    fn dangerous_syscalls_present_in_linux() {
        let s = ubuntu_driver_domain_syscalls();
        for essential in ["clone", "execve", "init_module", "modify_ldt", "mount"] {
            assert!(
                s.contains(essential),
                "{essential} is required by Linux boot"
            );
        }
    }
}
