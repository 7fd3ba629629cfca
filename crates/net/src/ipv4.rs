//! IPv4 header encoding/decoding with real checksums.

use std::net::Ipv4Addr;

use crate::checksum;

/// IP protocol numbers used here.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProto {
    /// Wire value.
    pub fn value(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// Parses a wire value.
    pub fn from_value(v: u8) -> IpProto {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// Length of the option-less IPv4 header.
pub const IPV4_HEADER_LEN: usize = 20;
/// The TTL [`Ipv4Packet::new`] stamps.
pub const DEFAULT_TTL: u8 = 64;

/// The 20-byte option-less header, with a correct checksum, of a packet
/// carrying `payload_len` bytes.
pub fn header(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: IpProto,
    ttl: u8,
    ident: u16,
    payload_len: usize,
) -> [u8; IPV4_HEADER_LEN] {
    let total = IPV4_HEADER_LEN + payload_len;
    let mut h = [0u8; IPV4_HEADER_LEN];
    h[0] = 0x45; // version 4, IHL 5
    h[2..4].copy_from_slice(&(total as u16).to_be_bytes());
    h[4..6].copy_from_slice(&ident.to_be_bytes());
    h[6] = 0x40; // DF
    h[8] = ttl;
    h[9] = proto.value();
    h[12..16].copy_from_slice(&src.octets());
    h[16..20].copy_from_slice(&dst.octets());
    let c = checksum::checksum(&h);
    h[10..12].copy_from_slice(&c.to_be_bytes());
    h
}

/// An IPv4 packet over its payload bytes `P`: an owned `Vec<u8>` when
/// built for sending, a `&[u8]` into the wire buffer when parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ipv4Packet<P = Vec<u8>> {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub proto: IpProto,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (used by fragmentation; we never fragment).
    pub ident: u16,
    /// Payload bytes.
    pub payload: P,
}

impl<'a> Ipv4Packet<&'a [u8]> {
    /// Parses and validates header length + checksum; the payload
    /// borrows from `bytes` (a buffer, a slice of one, or an outer
    /// view's `payload`), cut at the header's total length.
    pub fn decode<B: AsRef<[u8]> + ?Sized>(bytes: &'a B) -> Option<Self> {
        let bytes = bytes.as_ref();
        if bytes.len() < IPV4_HEADER_LEN || bytes[0] != 0x45 {
            return None;
        }
        if !checksum::verify(&bytes[..IPV4_HEADER_LEN]) {
            return None;
        }
        let total = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        if total < IPV4_HEADER_LEN || total > bytes.len() {
            return None;
        }
        Some(Ipv4Packet {
            src: Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]),
            dst: Ipv4Addr::new(bytes[16], bytes[17], bytes[18], bytes[19]),
            proto: IpProto::from_value(bytes[9]),
            ttl: bytes[8],
            ident: u16::from_be_bytes([bytes[4], bytes[5]]),
            payload: &bytes[IPV4_HEADER_LEN..total],
        })
    }
}

impl<P: AsRef<[u8]>> Ipv4Packet<P> {
    /// Builds a packet with a default TTL of 64.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, payload: P) -> Self {
        Ipv4Packet {
            src,
            dst,
            proto,
            ttl: DEFAULT_TTL,
            ident: 0,
            payload,
        }
    }

    /// Serializes with a correct header checksum.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload.as_ref();
        let mut out = Vec::with_capacity(IPV4_HEADER_LEN + payload.len());
        out.extend_from_slice(&header(
            self.src,
            self.dst,
            self.proto,
            self.ttl,
            self.ident,
            payload.len(),
        ));
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn roundtrip() {
        let p = Ipv4Packet::new(
            ip("192.168.0.10"),
            ip("192.168.0.1"),
            IpProto::Udp,
            &[1u8, 2, 3][..],
        );
        let bytes = p.encode();
        assert_eq!(Ipv4Packet::decode(&bytes), Some(p));
    }

    #[test]
    fn checksum_corruption_detected() {
        let p = Ipv4Packet::new(ip("10.0.0.1"), ip("10.0.0.2"), IpProto::Tcp, vec![0; 8]);
        let mut bytes = p.encode();
        bytes[15] ^= 0xff; // mangle src
        assert_eq!(Ipv4Packet::decode(&bytes), None);
    }

    #[test]
    fn truncated_rejected() {
        let p = Ipv4Packet::new(ip("10.0.0.1"), ip("10.0.0.2"), IpProto::Udp, vec![0; 100]);
        let bytes = p.encode();
        assert_eq!(Ipv4Packet::decode(&bytes[..50]), None);
    }

    #[test]
    fn trailing_padding_ignored() {
        // Ethernet pads short frames; decode must use the total-length field.
        let p = Ipv4Packet::new(ip("10.0.0.1"), ip("10.0.0.2"), IpProto::Udp, vec![7; 4]);
        let mut bytes = p.encode();
        bytes.extend_from_slice(&[0u8; 22]); // pad to 60
        let q = Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(q.payload, vec![7; 4]);
    }

    #[test]
    fn proto_values() {
        assert_eq!(IpProto::Udp.value(), 17);
        assert_eq!(IpProto::from_value(6), IpProto::Tcp);
        assert_eq!(IpProto::from_value(89), IpProto::Other(89));
    }
}
