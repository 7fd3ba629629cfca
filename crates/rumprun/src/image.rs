//! Unikernel image composition and size model.
//!
//! A Kite VM image is a static link of exactly the components one driver
//! domain needs — the paper's Figure 4b measures the result at roughly a
//! tenth of a Linux kernel + modules. The images below are assembled
//! from a component catalog, accumulating the bytes each pulls in; the
//! syscall surface (Figure 4a) is [`crate::syscalls`]'s. The Linux
//! baseline's kernel + modules is an [`Image`] of its own parts
//! (`kite_linux::ubuntu_image`).

/// A linked image: its labelled parts and their total.
#[derive(Clone, Debug)]
pub struct Image {
    /// Each linked component's name and contribution in bytes.
    pub parts: Vec<(&'static str, u64)>,
    /// Total size in bytes.
    pub total_bytes: u64,
}

impl Image {
    /// Links `parts` into an image.
    pub fn new(parts: Vec<(&'static str, u64)>) -> Image {
        let total_bytes = parts.iter().map(|&(_, bytes)| bytes).sum();
        Image { parts, total_bytes }
    }
}

const MIB: u64 = 1024 * 1024;
const KIB: u64 = 1024;

fn base_components() -> Vec<(&'static str, u64)> {
    vec![
        ("bmk-core", 1536 * KIB),
        ("xen-interface", 512 * KIB),
        ("rump-base", 2 * MIB),
        ("rumpuser", 256 * KIB),
        ("libc", 1792 * KIB),
        ("xenbus+xenstore (HVM ext)", 60 * KIB),
    ]
}

/// The Kite **network** driver-domain image (≈21 MiB, per Figure 4b).
pub fn kite_network_image() -> Image {
    let mut parts = base_components();
    parts.extend([
        ("net-faction", 3 * MIB),
        ("tcpip-stack", 2560 * KIB),
        ("bpf+if-framework", 1536 * KIB),
        ("ixg(4) 82599 driver", 6 * MIB),
        ("bridge(4)", MIB),
        ("netback", 140 * KIB),
        ("bridging app + ifconfig/brconfig", 512 * KIB),
        ("pci+intr glue", MIB),
    ]);
    Image::new(parts)
}

/// The Kite **storage** driver-domain image (≈20 MiB).
pub fn kite_storage_image() -> Image {
    let mut parts = base_components();
    parts.extend([
        ("block-faction (vnode)", 2560 * KIB),
        ("vfs core", 2 * MIB),
        ("nvme(4) driver", 5 * MIB),
        ("blkback", 96 * KIB),
        ("block status app", 384 * KIB),
        ("pci+intr glue", MIB),
        ("scsipi compat", 1536 * KIB),
    ]);
    Image::new(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_image_size_in_paper_range() {
        let img = kite_network_image();
        let mib = img.total_bytes as f64 / MIB as f64;
        // Paper: "entire rumprun OS image is ≈22MB".
        assert!((18.0..24.0).contains(&mib), "network image = {mib:.1} MiB");
    }

    #[test]
    fn storage_image_size_in_paper_range() {
        let img = kite_storage_image();
        let mib = img.total_bytes as f64 / MIB as f64;
        assert!((16.0..24.0).contains(&mib), "storage image = {mib:.1} MiB");
    }

    /// Whether `img` links a part named `name`.
    fn links(img: &Image, name: &str) -> bool {
        img.parts.iter().any(|&(part, _)| part == name)
    }

    #[test]
    fn network_image_has_no_block_driver() {
        let img = kite_network_image();
        assert!(!links(&img, "nvme(4) driver"));
        assert!(links(&img, "netback"));
    }

    #[test]
    fn storage_image_has_no_netback() {
        let img = kite_storage_image();
        assert!(!links(&img, "netback"));
        assert!(links(&img, "blkback"));
    }

    #[test]
    fn image_sums_its_parts() {
        let img = Image::new(vec![("a", 100), ("b", 50)]);
        assert_eq!(img.total_bytes, 150);
        assert_eq!(img.parts.len(), 2);
    }
}
