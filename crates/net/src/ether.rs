//! Ethernet II framing.

use core::fmt;

/// A 48-bit MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Locally administered unicast address derived from a small id —
    /// handy for deterministic scenario construction.
    pub fn local(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// True for group (multicast/broadcast) addresses.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 1 == 1
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values used by the reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else.
    Other(u16),
}

impl EtherType {
    /// The wire value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Parses a wire value.
    pub fn from_value(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// Length of the Ethernet II header.
pub const ETH_HEADER_LEN: usize = 14;
/// Standard Ethernet MTU (payload bytes).
pub const ETH_MTU: usize = 1500;
/// Per-frame wire overhead beyond the header+payload: preamble (8) +
/// FCS (4) + inter-frame gap (12).
pub const ETH_WIRE_OVERHEAD: usize = 24;
/// Largest standard (non-jumbo) frame: header + one MTU of payload.
pub const ETH_FRAME_MAX: usize = ETH_HEADER_LEN + ETH_MTU;
/// IPv4 header length (no options).
pub const IPV4_HEADER_LEN: usize = 20;
/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;
/// Ethernet + IPv4 + UDP headers — what a TSO engine replicates onto
/// every segment it cuts from a super-frame.
pub const TSO_HEADERS_LEN: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;
/// Largest per-segment payload a TSO engine emits: one MTU minus the
/// replicated L3/L4 headers.
pub const TSO_MSS: usize = ETH_MTU - IPV4_HEADER_LEN - UDP_HEADER_LEN;

/// Wire cost of transmitting `frame_len` bytes of guest-visible frame.
///
/// A frame that fits the standard MTU serializes as-is. A super-frame
/// is cut into MSS-sized segments by the NIC's TSO engine, which
/// replicates the Ethernet/IP/UDP headers onto each extra segment and
/// pays [`ETH_WIRE_OVERHEAD`] per segment. Returns
/// `(total wire bytes, segment count)`; the receive side coalesces the
/// segments back into one frame (LRO), so the segment count never
/// appears above the NIC on either end.
pub fn tso_wire_cost(frame_len: usize) -> (u64, u32) {
    if frame_len <= ETH_FRAME_MAX {
        return ((frame_len + ETH_WIRE_OVERHEAD) as u64, 1);
    }
    let payload = frame_len - TSO_HEADERS_LEN;
    let segs = payload.div_ceil(TSO_MSS);
    let bytes = frame_len + (segs - 1) * TSO_HEADERS_LEN + segs * ETH_WIRE_OVERHEAD;
    (bytes as u64, segs as u32)
}

/// The length of the frame whose first bytes are `head`, as its IPv4
/// header's total-length field claims it: a size hint, read unchecked
/// (the frame is validated when it is parsed). `None` when `head` is not
/// the start of an IPv4 frame.
pub fn frame_len_hint(head: &[u8]) -> Option<usize> {
    let ip = head.get(ETH_HEADER_LEN..ETH_HEADER_LEN + 4)?;
    let ipv4 = head[12..14] == EtherType::Ipv4.value().to_be_bytes() && ip[0] >> 4 == 4;
    ipv4.then(|| ETH_HEADER_LEN + u16::from_be_bytes([ip[2], ip[3]]) as usize)
}

/// The 14-byte Ethernet II header.
pub fn header(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> [u8; ETH_HEADER_LEN] {
    let mut h = [0u8; ETH_HEADER_LEN];
    h[0..6].copy_from_slice(&dst.0);
    h[6..12].copy_from_slice(&src.0);
    h[12..14].copy_from_slice(&ethertype.value().to_be_bytes());
    h
}

/// An Ethernet frame over its payload bytes `P`: an owned `Vec<u8>` when
/// built for sending, a `&[u8]` into the wire buffer when parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EthernetFrame<P = Vec<u8>> {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Payload bytes.
    pub payload: P,
}

impl<'a> EthernetFrame<&'a [u8]> {
    /// Parses wire bytes; the payload borrows from `bytes` (a buffer, a
    /// slice of one, or an outer view's `payload`). The codecs' `decode`s
    /// are generic over the buffer so that `decode(&vec)`, `decode(slice)`
    /// and `decode(&view.payload)` all type-check without a needless `&`.
    pub fn decode<B: AsRef<[u8]> + ?Sized>(bytes: &'a B) -> Option<Self> {
        let (header, payload) = bytes.as_ref().split_at_checked(ETH_HEADER_LEN)?;
        Some(EthernetFrame {
            dst: MacAddr(header[0..6].try_into().ok()?),
            src: MacAddr(header[6..12].try_into().ok()?),
            ethertype: EtherType::from_value(u16::from_be_bytes([header[12], header[13]])),
            payload,
        })
    }
}

impl<P: AsRef<[u8]>> EthernetFrame<P> {
    /// Builds a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: P) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// Serializes into wire bytes (header + payload, no FCS).
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload.as_ref();
        let mut out = Vec::with_capacity(ETH_HEADER_LEN + payload.len());
        out.extend_from_slice(&header(self.dst, self.src, self.ethertype));
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_len_hint_reads_the_ipv4_total_length() {
        let (a, b) = (MacAddr::local(1), MacAddr::local(2));
        let (ip_a, ip_b) = ([10, 0, 0, 1].into(), [10, 0, 0, 2].into());
        for len in [0, 1, 1472, 9_000] {
            let frame =
                crate::UdpDatagram::new(1, 2, vec![7u8; len]).encode_frame(b, a, ip_a, ip_b);
            assert_eq!(frame_len_hint(&frame[..42]), Some(frame.len()));
        }
        let arp = EthernetFrame::new(b, a, EtherType::Arp, [0u8; 28]).encode();
        assert_eq!(frame_len_hint(&arp), None);
        assert_eq!(frame_len_hint(&[0u8; 17]), None, "too short to say");
    }

    #[test]
    fn mac_display_and_flags() {
        let m = MacAddr([0x02, 0, 0, 0, 0, 0x2a]);
        assert_eq!(m.to_string(), "02:00:00:00:00:2a");
        assert!(!m.is_multicast());
        assert!(MacAddr::BROADCAST.is_multicast());
    }

    #[test]
    fn local_macs_unique_and_unicast() {
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        assert_ne!(a, b);
        assert!(!a.is_multicast());
    }

    #[test]
    fn tso_wire_cost_segments_super_frames() {
        // An MTU-sized frame is one segment with flat overhead.
        assert_eq!(
            tso_wire_cost(ETH_FRAME_MAX),
            ((ETH_FRAME_MAX + ETH_WIRE_OVERHEAD) as u64, 1)
        );
        assert_eq!(tso_wire_cost(98), (122, 1));
        // One byte over: two segments, one replicated header stack.
        let (bytes, segs) = tso_wire_cost(ETH_FRAME_MAX + 1);
        assert_eq!(segs, 2);
        assert_eq!(
            bytes,
            (ETH_FRAME_MAX + 1 + TSO_HEADERS_LEN + 2 * ETH_WIRE_OVERHEAD) as u64
        );
        // A 64 KiB super-frame cuts into ceil(payload / MSS) segments
        // and every segment fits the wire MTU.
        let frame = 61824 + TSO_HEADERS_LEN;
        let (bytes, segs) = tso_wire_cost(frame);
        assert_eq!(segs, (61824_u32).div_ceil(TSO_MSS as u32));
        assert!(bytes > frame as u64);
        let per_seg_payload = 61824_usize.div_ceil(segs as usize);
        assert!(per_seg_payload + TSO_HEADERS_LEN <= ETH_FRAME_MAX);
    }

    #[test]
    fn frame_roundtrip() {
        let f = EthernetFrame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            EtherType::Ipv4,
            &b"hello world"[..],
        );
        let bytes = f.encode();
        assert_eq!(EthernetFrame::decode(&bytes), Some(f));
    }

    #[test]
    fn short_frame_rejected() {
        assert_eq!(EthernetFrame::decode(&[0u8; 13]), None);
    }

    #[test]
    fn ethertype_values() {
        assert_eq!(EtherType::Ipv4.value(), 0x0800);
        assert_eq!(EtherType::from_value(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from_value(0x86dd), EtherType::Other(0x86dd));
    }

    #[test]
    fn an_mtu_frame_costs_1538_wire_bytes() {
        // Full MTU: 14 + 1500 + 24 of preamble, FCS and inter-frame gap.
        let f = EthernetFrame::new(
            MacAddr::local(2),
            MacAddr::local(1),
            EtherType::Ipv4,
            vec![0; ETH_MTU],
        );
        assert_eq!(tso_wire_cost(f.encode().len()), (1538, 1));
    }
}
