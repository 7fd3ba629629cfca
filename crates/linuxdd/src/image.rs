//! Linux driver-domain image model (Figure 4b).
//!
//! The paper measures only the kernel + modules for fairness (user space
//! excluded) and still finds the Linux image ~10x the Kite image: a distro
//! kernel is ≈50 MiB and its module tree adds the rest.

const MIB: u64 = 1024 * 1024;

/// One piece of the Linux image.
#[derive(Clone, Debug)]
pub struct LinuxImagePart {
    /// Name.
    pub name: &'static str,
    /// Size in bytes.
    pub size_bytes: u64,
}

/// The measured composition of an Ubuntu 18.04 (5.0 kernel) driver domain.
pub fn ubuntu_image_parts() -> Vec<LinuxImagePart> {
    vec![
        LinuxImagePart {
            name: "vmlinuz (kernel)",
            size_bytes: 50 * MIB,
        },
        LinuxImagePart {
            name: "/lib/modules drivers",
            size_bytes: 120 * MIB,
        },
        LinuxImagePart {
            name: "/lib/modules fs+net+crypto",
            size_bytes: 38 * MIB,
        },
        LinuxImagePart {
            name: "initrd",
            size_bytes: 9 * MIB,
        },
    ]
}

/// Total Linux image bytes (kernel + modules + initrd).
pub fn ubuntu_image_bytes() -> u64 {
    ubuntu_image_parts().iter().map(|p| p.size_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_rumprun::kite_network_image;

    #[test]
    fn linux_image_about_10x_kite() {
        let linux = ubuntu_image_bytes() as f64;
        let kite = kite_network_image().total_bytes as f64;
        let ratio = linux / kite;
        assert!(
            (8.0..13.0).contains(&ratio),
            "Figure 4b: Linux ≈10x Kite, got {ratio:.1}x"
        );
    }

    #[test]
    fn kernel_alone_is_50mib() {
        let kernel = ubuntu_image_parts()
            .into_iter()
            .find(|p| p.name.contains("vmlinuz"))
            .unwrap();
        assert_eq!(kernel.size_bytes, 50 * MIB, "paper: kernel alone ≈50MB");
    }
}
