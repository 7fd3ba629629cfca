//! UDP datagram encoding with pseudo-header checksums.

use std::net::Ipv4Addr;

use crate::checksum;
use crate::ether::{self, EtherType, MacAddr, ETH_HEADER_LEN, TSO_HEADERS_LEN};
use crate::ipv4::{self, IpProto, DEFAULT_TTL, IPV4_HEADER_LEN};

/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram over its payload bytes `P`: an owned `Vec<u8>` when
/// built for sending, a `&[u8]` into the wire buffer when parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdpDatagram<P = Vec<u8>> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: P,
}

impl<'a> UdpDatagram<&'a [u8]> {
    /// Parses and verifies (when a checksum is present); the payload
    /// borrows from `bytes` (a buffer, a slice of one, or an outer
    /// view's `payload`), cut at the header's length field.
    pub fn decode<B: AsRef<[u8]> + ?Sized>(
        bytes: &'a B,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Option<Self> {
        let bytes = bytes.as_ref();
        if bytes.len() < UDP_HEADER_LEN {
            return None;
        }
        let len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        if len < UDP_HEADER_LEN || len > bytes.len() {
            return None;
        }
        let wire_sum = u16::from_be_bytes([bytes[6], bytes[7]]);
        if wire_sum != 0 {
            let acc = checksum::pseudo_header_sum(src, dst, 17, len as u16);
            if checksum::finish(checksum::sum(&bytes[..len], acc)) != 0 {
                return None;
            }
        }
        Some(UdpDatagram {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            payload: &bytes[UDP_HEADER_LEN..len],
        })
    }
}

impl<P: AsRef<[u8]>> UdpDatagram<P> {
    /// Builds a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: P) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// The UDP header, its checksum taken over the IPv4 pseudo-header,
    /// the header and the payload where it lies.
    fn udp_header(&self, src: Ipv4Addr, dst: Ipv4Addr) -> [u8; UDP_HEADER_LEN] {
        let payload = self.payload.as_ref();
        let len = (UDP_HEADER_LEN + payload.len()) as u16;
        let mut h = [0u8; UDP_HEADER_LEN];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..6].copy_from_slice(&len.to_be_bytes());
        // The header is an even number of bytes, so summing it and the
        // payload apart is summing the datagram as one buffer.
        let acc = checksum::pseudo_header_sum(src, dst, 17, len);
        let mut c = checksum::finish(checksum::sum(payload, checksum::sum(&h, acc)));
        if c == 0 {
            c = 0xffff; // RFC 768: transmitted-zero means "no checksum"
        }
        h[6..8].copy_from_slice(&c.to_be_bytes());
        h
    }

    /// Serializes with a checksum over the IPv4 pseudo-header.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let payload = self.payload.as_ref();
        let mut out = Vec::with_capacity(UDP_HEADER_LEN + payload.len());
        out.extend_from_slice(&self.udp_header(src, dst));
        out.extend_from_slice(payload);
        out
    }

    /// The Ethernet + IPv4 + UDP header that precedes this datagram's
    /// payload in its frame, checksums included. The payload is read, not
    /// copied: a sender lays the header and the payload down wherever the
    /// frame is to live, and [`UdpDatagram::encode_frame`] is this header
    /// followed by the payload.
    pub fn frame_header(
        &self,
        eth_dst: MacAddr,
        eth_src: MacAddr,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> [u8; TSO_HEADERS_LEN] {
        const UDP_AT: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN;
        let udp_len = UDP_HEADER_LEN + self.payload.as_ref().len();
        let ip = ipv4::header(src, dst, IpProto::Udp, DEFAULT_TTL, 0, udp_len);
        let mut h = [0u8; TSO_HEADERS_LEN];
        h[..ETH_HEADER_LEN].copy_from_slice(&ether::header(eth_dst, eth_src, EtherType::Ipv4));
        h[ETH_HEADER_LEN..UDP_AT].copy_from_slice(&ip);
        h[UDP_AT..].copy_from_slice(&self.udp_header(src, dst));
        h
    }

    /// The whole Ethernet + IPv4 + UDP frame carrying this datagram,
    /// built in one buffer: byte-identical to nesting the three
    /// `new(..).encode()` calls, without their intermediate copies.
    pub fn encode_frame(
        &self,
        eth_dst: MacAddr,
        eth_src: MacAddr,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Vec<u8> {
        let payload = self.payload.as_ref();
        let mut out = Vec::with_capacity(TSO_HEADERS_LEN + payload.len());
        out.extend_from_slice(&self.frame_header(eth_dst, eth_src, src, dst));
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
    fn roundtrip_with_checksum() {
        let d = UdpDatagram::new(5001, 5201, &b"nuttcp payload"[..]);
        let bytes = d.encode(ip("10.0.0.5"), ip("10.0.0.9"));
        assert_eq!(
            UdpDatagram::decode(&bytes, ip("10.0.0.5"), ip("10.0.0.9")),
            Some(d)
        );
    }

    #[test]
    fn payload_corruption_detected() {
        let d = UdpDatagram::new(1, 2, vec![9; 64]);
        let mut bytes = d.encode(ip("10.0.0.5"), ip("10.0.0.9"));
        bytes[20] ^= 0xff;
        assert_eq!(
            UdpDatagram::decode(&bytes, ip("10.0.0.5"), ip("10.0.0.9")),
            None
        );
    }

    #[test]
    fn wrong_pseudo_header_detected() {
        let d = UdpDatagram::new(1, 2, vec![9; 16]);
        let bytes = d.encode(ip("10.0.0.5"), ip("10.0.0.9"));
        // NAT rewrote the source without fixing the checksum.
        assert_eq!(
            UdpDatagram::decode(&bytes, ip("10.0.0.6"), ip("10.0.0.9")),
            None
        );
    }

    #[test]
    fn trailing_ethernet_padding_ignored() {
        let d = UdpDatagram::new(1, 2, vec![3; 4]);
        let mut bytes = d.encode(ip("10.0.0.5"), ip("10.0.0.9"));
        bytes.extend_from_slice(&[0; 30]);
        let q = UdpDatagram::decode(&bytes, ip("10.0.0.5"), ip("10.0.0.9")).unwrap();
        assert_eq!(q.payload, vec![3; 4]);
    }

    #[test]
    fn empty_payload_ok() {
        let d = UdpDatagram::new(68, 67, &[][..]);
        let bytes = d.encode(ip("0.0.0.0"), ip("255.255.255.255"));
        assert_eq!(
            UdpDatagram::decode(&bytes, ip("0.0.0.0"), ip("255.255.255.255")),
            Some(d)
        );
    }
}
