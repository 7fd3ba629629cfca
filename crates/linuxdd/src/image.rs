//! Linux driver-domain image model (Figure 4b).
//!
//! The paper measures only the kernel + modules for fairness (user space
//! excluded) and still finds the Linux image ~10x the Kite image: a distro
//! kernel is ≈50 MiB and its module tree adds the rest.

use kite_rumprun::Image;

const MIB: u64 = 1024 * 1024;

/// The measured composition of an Ubuntu 18.04 (5.0 kernel) driver
/// domain: kernel, modules and initrd.
pub fn ubuntu_image() -> Image {
    Image::new(vec![
        ("vmlinuz (kernel)", 50 * MIB),
        ("/lib/modules drivers", 120 * MIB),
        ("/lib/modules fs+net+crypto", 38 * MIB),
        ("initrd", 9 * MIB),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_rumprun::kite_network_image;

    #[test]
    fn linux_image_about_10x_kite() {
        let linux = ubuntu_image().total_bytes as f64;
        let kite = kite_network_image().total_bytes as f64;
        let ratio = linux / kite;
        assert!(
            (8.0..13.0).contains(&ratio),
            "Figure 4b: Linux ≈10x Kite, got {ratio:.1}x"
        );
    }

    #[test]
    fn kernel_alone_is_50mib() {
        let (_, kernel) = ubuntu_image()
            .parts
            .into_iter()
            .find(|(name, _)| name.contains("vmlinuz"))
            .unwrap();
        assert_eq!(kernel, 50 * MIB, "paper: kernel alone ≈50MB");
    }
}
