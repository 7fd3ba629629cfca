//! Network PV device ABI (`xen/include/public/io/netif.h`).
//!
//! Netfront and netback exchange fixed-layout request/response structs over
//! two rings: **Tx** (guest → backend) and **Rx** (backend → guest). The
//! layouts below match the x86-64 ABI byte-for-byte, so the ring math
//! (slot counts, paper's batching behaviour) is identical to real Xen:
//! 256 Tx slots and 256 Rx slots per 4 KiB ring page.

use crate::grant::GrantRef;
use crate::ring::{ring_size, RingEntry};

/// Tx flag: more fragments follow (`NETTXF_more_data`).
pub const NETTXF_MORE_DATA: u16 = 4;
/// Tx flag: an extra-info slot follows (`NETTXF_extra_info`).
pub const NETTXF_EXTRA_INFO: u16 = 8;

/// Rx flag: packet data already validated (`NETRXF_data_validated`).
pub const NETRXF_DATA_VALIDATED: u16 = 1;
/// Rx flag: more fragments of this packet follow (`NETRXF_more_data`).
pub const NETRXF_MORE_DATA: u16 = 4;

/// Response status: success.
pub const NETIF_RSP_OKAY: i16 = 0;
/// Response status: generic error.
pub const NETIF_RSP_ERROR: i16 = -1;
/// Response status for a slot that carried a [`NetifExtraInfo`] rather
/// than packet data (`NETIF_RSP_NULL`). The ring protocol produces
/// exactly one response per consumed request slot, so extra-info slots
/// are answered too — with a status the frontend must skip.
pub const NETIF_RSP_NULL: i16 = 1;

/// `XEN_NETIF_EXTRA_TYPE_GSO`: the extra-info slot describes a GSO
/// super-frame.
pub const XEN_NETIF_EXTRA_TYPE_GSO: u8 = 1;

/// Largest super-frame a GSO descriptor chain may carry, in bytes
/// (matches Linux's 64 KiB GSO limit).
pub const NETIF_MAX_GSO_FRAME: usize = 65536;

/// Most data fragments one descriptor chain may span: a 64 KiB
/// super-frame across 4 KiB granted pages, plus slack for an unaligned
/// first fragment. Chains longer than this are malformed.
pub const NETIF_MAX_TX_CHAIN: usize = NETIF_MAX_GSO_FRAME / crate::mem::PAGE_SIZE + 1;

/// A GSO descriptor (`struct netif_extra_info`). It does not travel in
/// a struct of its own: the frontend encodes it into the Tx ring slot
/// immediately after a request flagged [`NETTXF_EXTRA_INFO`], exactly
/// like Xen's request/extra-info union.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetifExtraInfo {
    /// Extra-info discriminator (`XEN_NETIF_EXTRA_TYPE_*`).
    pub kind: u8,
    /// Maximum segment size the NIC should cut the super-frame into
    /// (the flow's MSS); `gso.size` in real Xen.
    pub gso_size: u16,
    /// Number of wire segments the sender claims the super-frame
    /// resolves to. Real Xen derives this in the backend; carrying the
    /// guest's claim lets the backend cross-check it (SoK validation).
    pub gso_segs: u16,
    /// Total payload bytes across every data fragment of the chain.
    pub total_len: u32,
}

impl NetifExtraInfo {
    /// Encodes the descriptor into a Tx ring slot. Real Xen overlays
    /// `struct netif_extra_info` on the request union; this mapping is
    /// the same idea with the fields spelled out:
    /// `gref` carries `total_len`, `offset` carries `gso_size`,
    /// `flags` carries `gso_segs`, `id` carries the extra type, and
    /// `size` is zero.
    pub fn to_tx_slot(self) -> NetifTxRequest {
        NetifTxRequest {
            gref: GrantRef(self.total_len),
            offset: self.gso_size,
            flags: self.gso_segs,
            id: self.kind as u16,
            size: 0,
        }
    }

    /// Decodes an extra-info descriptor from a Tx ring slot (the slot
    /// following a request flagged `NETTXF_EXTRA_INFO`).
    pub fn from_tx_slot(slot: &NetifTxRequest) -> Self {
        NetifExtraInfo {
            kind: slot.id as u8,
            gso_size: slot.offset,
            gso_segs: slot.flags,
            total_len: slot.gref.0,
        }
    }
}

/// A transmit request: the guest offers `size` bytes at `offset` within the
/// page granted via `gref`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetifTxRequest {
    /// Grant for the page holding packet data.
    pub gref: GrantRef,
    /// Byte offset of the data within the granted page.
    pub offset: u16,
    /// `NETTXF_*` flags.
    pub flags: u16,
    /// Frontend-chosen id echoed in the response.
    pub id: u16,
    /// Packet (or fragment) length in bytes.
    pub size: u16,
}

impl RingEntry for NetifTxRequest {
    const SIZE: usize = 12;
    fn write_to(&self, buf: &mut [u8]) {
        buf[0..4].copy_from_slice(&self.gref.0.to_le_bytes());
        buf[4..6].copy_from_slice(&self.offset.to_le_bytes());
        buf[6..8].copy_from_slice(&self.flags.to_le_bytes());
        buf[8..10].copy_from_slice(&self.id.to_le_bytes());
        buf[10..12].copy_from_slice(&self.size.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        NetifTxRequest {
            gref: GrantRef(u32::from_le_bytes(buf[0..4].try_into().unwrap())),
            offset: u16::from_le_bytes(buf[4..6].try_into().unwrap()),
            flags: u16::from_le_bytes(buf[6..8].try_into().unwrap()),
            id: u16::from_le_bytes(buf[8..10].try_into().unwrap()),
            size: u16::from_le_bytes(buf[10..12].try_into().unwrap()),
        }
    }
}

/// A transmit response: `status` for the request with matching `id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetifTxResponse {
    /// Echoed request id.
    pub id: u16,
    /// `NETIF_RSP_*` status.
    pub status: i16,
}

impl RingEntry for NetifTxResponse {
    const SIZE: usize = 4;
    fn write_to(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.id.to_le_bytes());
        buf[2..4].copy_from_slice(&self.status.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        NetifTxResponse {
            id: u16::from_le_bytes(buf[0..2].try_into().unwrap()),
            status: i16::from_le_bytes(buf[2..4].try_into().unwrap()),
        }
    }
}

/// A receive request: the guest posts an empty granted page for the backend
/// to fill with an incoming packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetifRxRequest {
    /// Frontend-chosen id echoed in the response.
    pub id: u16,
    /// Grant for the empty buffer page (backend copies into it).
    pub gref: GrantRef,
}

impl RingEntry for NetifRxRequest {
    const SIZE: usize = 8;
    fn write_to(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.id.to_le_bytes());
        buf[2..4].copy_from_slice(&0u16.to_le_bytes()); // pad
        buf[4..8].copy_from_slice(&self.gref.0.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        NetifRxRequest {
            id: u16::from_le_bytes(buf[0..2].try_into().unwrap()),
            gref: GrantRef(u32::from_le_bytes(buf[4..8].try_into().unwrap())),
        }
    }
}

/// A receive response: non-negative `status` is the packet length written
/// into the posted buffer at `offset`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetifRxResponse {
    /// Echoed request id.
    pub id: u16,
    /// Offset of data within the buffer page.
    pub offset: u16,
    /// `NETRXF_*` flags (unused by this reproduction).
    pub flags: u16,
    /// Packet length, or a negative `NETIF_RSP_*` error.
    pub status: i16,
}

impl RingEntry for NetifRxResponse {
    const SIZE: usize = 8;
    fn write_to(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.id.to_le_bytes());
        buf[2..4].copy_from_slice(&self.offset.to_le_bytes());
        buf[4..6].copy_from_slice(&self.flags.to_le_bytes());
        buf[6..8].copy_from_slice(&self.status.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        NetifRxResponse {
            id: u16::from_le_bytes(buf[0..2].try_into().unwrap()),
            offset: u16::from_le_bytes(buf[2..4].try_into().unwrap()),
            flags: u16::from_le_bytes(buf[4..6].try_into().unwrap()),
            status: i16::from_le_bytes(buf[6..8].try_into().unwrap()),
        }
    }
}

/// Slot count of the Rx ring (matches Xen's `NET_RX_RING_SIZE` = 256).
pub const NET_RX_RING_SIZE: u32 = ring_size(NetifRxRequest::SIZE, NetifRxResponse::SIZE);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sizes_match_xen() {
        assert_eq!(ring_size(NetifTxRequest::SIZE, NetifTxResponse::SIZE), 256);
        assert_eq!(NET_RX_RING_SIZE, 256);
    }

    #[test]
    fn tx_request_roundtrip() {
        let r = NetifTxRequest {
            gref: GrantRef(0xabcd1234),
            offset: 64,
            flags: NETTXF_MORE_DATA | NETTXF_EXTRA_INFO,
            id: 17,
            size: 1514,
        };
        let mut buf = [0u8; NetifTxRequest::SIZE];
        r.write_to(&mut buf);
        assert_eq!(NetifTxRequest::read_from(&buf), r);
    }

    #[test]
    fn tx_response_roundtrip_negative_status() {
        let r = NetifTxResponse {
            id: 9,
            status: NETIF_RSP_ERROR,
        };
        let mut buf = [0u8; NetifTxResponse::SIZE];
        r.write_to(&mut buf);
        assert_eq!(NetifTxResponse::read_from(&buf), r);
    }

    #[test]
    fn extra_info_roundtrips_through_a_tx_slot() {
        let e = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 1448,
            gso_segs: 43,
            total_len: 61824,
        };
        let slot = e.to_tx_slot();
        // The carrier slot serializes like any other Tx request.
        let mut buf = [0u8; NetifTxRequest::SIZE];
        slot.write_to(&mut buf);
        let back = NetifExtraInfo::from_tx_slot(&NetifTxRequest::read_from(&buf));
        assert_eq!(back, e);
        assert_eq!(slot.size, 0, "extra slots carry no packet data");
    }

    #[test]
    fn every_entry_defines_every_slot_byte() {
        use crate::ring::assert_defines_every_byte;
        let req = NetifTxRequest {
            gref: GrantRef(7),
            offset: 0,
            flags: NETTXF_EXTRA_INFO,
            id: 3,
            size: 60,
        };
        assert_defines_every_byte(&req);
        let extra = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 1448,
            gso_segs: 2,
            total_len: 2000,
        };
        assert_defines_every_byte(&extra.to_tx_slot());
        assert_defines_every_byte(&NetifTxResponse {
            id: 3,
            status: NETIF_RSP_OKAY,
        });
        assert_defines_every_byte(&NetifRxRequest {
            id: 0,
            gref: GrantRef(0),
        });
        assert_defines_every_byte(&NetifRxResponse {
            id: 1,
            offset: 0,
            flags: NETRXF_MORE_DATA,
            status: 0,
        });
    }

    #[test]
    fn chain_bounds_cover_a_64k_super_frame() {
        assert_eq!(NETIF_MAX_GSO_FRAME, 65536);
        // 16 full pages of data plus one slot of slack; with the
        // extra-info slot a maximal chain still fits a 256-slot ring.
        assert_eq!(NETIF_MAX_TX_CHAIN, 17);
        let tx_ring = ring_size(NetifTxRequest::SIZE, NetifTxResponse::SIZE);
        assert!(NETIF_MAX_TX_CHAIN + 1 < tx_ring as usize);
    }

    #[test]
    fn rx_roundtrips() {
        let req = NetifRxRequest {
            id: 3,
            gref: GrantRef(77),
        };
        let mut buf = [0u8; NetifRxRequest::SIZE];
        req.write_to(&mut buf);
        assert_eq!(NetifRxRequest::read_from(&buf), req);

        let rsp = NetifRxResponse {
            id: 3,
            offset: 0,
            flags: 0,
            status: 1514,
        };
        let mut buf = [0u8; NetifRxResponse::SIZE];
        rsp.write_to(&mut buf);
        assert_eq!(NetifRxResponse::read_from(&buf), rsp);
    }
}
