//! Unikernel image composition and size model.
//!
//! A Kite VM image is a static link of exactly the components one driver
//! domain needs — the paper's Figure 4b measures the result at roughly a
//! tenth of a Linux kernel + modules. The images below are assembled
//! from a component catalog, accumulating the bytes each pulls in; the
//! syscall surface (Figure 4a) is [`crate::syscalls`]'s.

/// What layer of the rumprun stack a component belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ComponentKind {
    /// Bare-metal kernel layer (threads, MM, interrupts, Xen interface).
    Bmk,
    /// Rump kernel base (allocation, locking, vfs core).
    RumpBase,
    /// A rump kernel faction (net, block/vnode).
    Faction,
    /// A physical device driver reused from NetBSD.
    Driver,
    /// A library (libc, TCP/IP stack, …).
    Library,
    /// Kite's own additions (backends, xenbus/xenstore, apps).
    Kite,
}

/// One linkable component.
#[derive(Clone, Debug)]
pub struct Component {
    /// Name, e.g. `netback`, `ixg(4)`.
    pub name: &'static str,
    /// Stack layer.
    pub kind: ComponentKind,
    /// Contribution to the image in bytes.
    pub size_bytes: u64,
}

impl Component {
    /// A component of `size_bytes`.
    pub fn new(name: &'static str, kind: ComponentKind, size_bytes: u64) -> Component {
        Component {
            name,
            kind,
            size_bytes,
        }
    }
}

/// A finished image.
#[derive(Clone, Debug)]
pub struct Image {
    /// Image name (`netbackend`, `blkbackend`).
    pub name: String,
    /// Included components.
    pub components: Vec<Component>,
    /// Total size in bytes.
    pub total_bytes: u64,
}

impl Image {
    /// Links `components` into an image named `name`.
    pub fn new(name: impl Into<String>, components: Vec<Component>) -> Image {
        let total_bytes = components.iter().map(|c| c.size_bytes).sum();
        Image {
            name: name.into(),
            components,
            total_bytes,
        }
    }
}

const MIB: u64 = 1024 * 1024;
const KIB: u64 = 1024;

fn base_components() -> Vec<Component> {
    vec![
        Component::new("bmk-core", ComponentKind::Bmk, 1536 * KIB),
        Component::new("xen-interface", ComponentKind::Bmk, 512 * KIB),
        Component::new("rump-base", ComponentKind::RumpBase, 2 * MIB),
        Component::new("rumpuser", ComponentKind::RumpBase, 256 * KIB),
        Component::new("libc", ComponentKind::Library, 1792 * KIB),
        Component::new("xenbus+xenstore (HVM ext)", ComponentKind::Kite, 60 * KIB),
    ]
}

/// The Kite **network** driver-domain image (≈21 MiB, per Figure 4b).
pub fn kite_network_image() -> Image {
    let mut components = base_components();
    components.extend([
        Component::new("net-faction", ComponentKind::Faction, 3 * MIB),
        Component::new("tcpip-stack", ComponentKind::Library, 2560 * KIB),
        Component::new("bpf+if-framework", ComponentKind::Faction, 1536 * KIB),
        Component::new("ixg(4) 82599 driver", ComponentKind::Driver, 6 * MIB),
        Component::new("bridge(4)", ComponentKind::Driver, MIB),
        Component::new("netback", ComponentKind::Kite, 140 * KIB),
        Component::new(
            "bridging app + ifconfig/brconfig",
            ComponentKind::Kite,
            512 * KIB,
        ),
        Component::new("pci+intr glue", ComponentKind::Driver, MIB),
    ]);
    Image::new("netbackend", components)
}

/// The Kite **storage** driver-domain image (≈20 MiB).
pub fn kite_storage_image() -> Image {
    let mut components = base_components();
    components.extend([
        Component::new("block-faction (vnode)", ComponentKind::Faction, 2560 * KIB),
        Component::new("vfs core", ComponentKind::RumpBase, 2 * MIB),
        Component::new("nvme(4) driver", ComponentKind::Driver, 5 * MIB),
        Component::new("blkback", ComponentKind::Kite, 96 * KIB),
        Component::new("block status app", ComponentKind::Kite, 384 * KIB),
        Component::new("pci+intr glue", ComponentKind::Driver, MIB),
        Component::new("scsipi compat", ComponentKind::Driver, 1536 * KIB),
    ]);
    Image::new("blkbackend", components)
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

    #[test]
    fn network_image_has_no_block_driver() {
        let img = kite_network_image();
        assert!(img.components.iter().all(|c| c.name != "nvme(4) driver"));
        assert!(img.components.iter().any(|c| c.name == "netback"));
    }

    #[test]
    fn storage_image_has_no_netback() {
        let img = kite_storage_image();
        assert!(img.components.iter().all(|c| c.name != "netback"));
        assert!(img.components.iter().any(|c| c.name == "blkback"));
    }

    #[test]
    fn image_sums_its_components() {
        let img = Image::new(
            "t",
            vec![
                Component::new("a", ComponentKind::Bmk, 100),
                Component::new("b", ComponentKind::Kite, 50),
            ],
        );
        assert_eq!(img.total_bytes, 150);
        assert_eq!(img.components.len(), 2);
    }
}
