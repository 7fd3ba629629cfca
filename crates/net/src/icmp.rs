//! ICMP echo (ping) encoding.

use std::net::Ipv4Addr;

use crate::checksum;
use crate::ether::{self, EtherType, MacAddr, ETH_HEADER_LEN};
use crate::ipv4::{self, IpProto, DEFAULT_TTL, IPV4_HEADER_LEN};

/// Length of an echo message's header: type, code, checksum,
/// identifier and sequence.
const ICMP_HEADER_LEN: usize = 8;

/// Length of the Ethernet + IPv4 + ICMP header in front of an echo's
/// payload: as long as the Ethernet + IPv4 + UDP one.
const ECHO_HEADERS_LEN: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + ICMP_HEADER_LEN;

/// ICMP message subset used by the latency experiments, over its
/// payload bytes `P`: an owned `Vec<u8>` when built for sending, a
/// `&[u8]` into the wire buffer when parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IcmpMessage<P = Vec<u8>> {
    /// Echo request (type 8).
    EchoRequest {
        /// Identifier (ping process id).
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Payload (timestamp etc.).
        payload: P,
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier echoed from the request.
        ident: u16,
        /// Sequence echoed from the request.
        seq: u16,
        /// Payload echoed from the request.
        payload: P,
    },
}

impl<'a> IcmpMessage<&'a [u8]> {
    /// Parses and verifies; the payload borrows from `bytes` (a buffer,
    /// a slice of one, or an outer view's `payload`).
    pub fn decode<B: AsRef<[u8]> + ?Sized>(bytes: &'a B) -> Option<Self> {
        let bytes = bytes.as_ref();
        if bytes.len() < 8 || !checksum::verify(bytes) {
            return None;
        }
        let ident = u16::from_be_bytes([bytes[4], bytes[5]]);
        let seq = u16::from_be_bytes([bytes[6], bytes[7]]);
        let payload = &bytes[8..];
        match (bytes[0], bytes[1]) {
            (8, 0) => Some(IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            }),
            (0, 0) => Some(IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            }),
            _ => None,
        }
    }
}

impl<P: AsRef<[u8]>> IcmpMessage<P> {
    /// The message's type, identifier, sequence and payload.
    fn fields(&self) -> (u8, u16, u16, &[u8]) {
        match self {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => (8, *ident, *seq, payload.as_ref()),
            IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            } => (0, *ident, *seq, payload.as_ref()),
        }
    }

    /// The ICMP header, its checksum summed over the header and the
    /// payload where it lies.
    fn icmp_header(&self) -> [u8; ICMP_HEADER_LEN] {
        let (ty, ident, seq, payload) = self.fields();
        let mut h = [0u8; ICMP_HEADER_LEN];
        h[0] = ty; // code 0, checksum 0 until summed
        h[4..6].copy_from_slice(&ident.to_be_bytes());
        h[6..8].copy_from_slice(&seq.to_be_bytes());
        // The header is an even number of bytes, so summing it and the
        // payload apart is summing the message as one buffer.
        let c = checksum::finish(checksum::sum(payload, checksum::sum(&h, 0)));
        h[2..4].copy_from_slice(&c.to_be_bytes());
        h
    }

    /// The Ethernet + IPv4 + ICMP header that precedes this message's
    /// payload in its frame, checksums included: what
    /// [`UdpDatagram::frame_header`](crate::UdpDatagram::frame_header) is
    /// for a datagram. The payload is read, not copied; the frame is this
    /// header followed by the payload.
    pub fn frame_header(
        &self,
        eth_dst: MacAddr,
        eth_src: MacAddr,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> [u8; ECHO_HEADERS_LEN] {
        const ICMP_AT: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN;
        let icmp_len = ICMP_HEADER_LEN + self.fields().3.len();
        let ip = ipv4::header(src, dst, IpProto::Icmp, DEFAULT_TTL, 0, icmp_len);
        let mut h = [0u8; ECHO_HEADERS_LEN];
        h[..ETH_HEADER_LEN].copy_from_slice(&ether::header(eth_dst, eth_src, EtherType::Ipv4));
        h[ETH_HEADER_LEN..ICMP_AT].copy_from_slice(&ip);
        h[ICMP_AT..].copy_from_slice(&self.icmp_header());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ICMP message alone: its header, then its payload.
    fn encode<P: AsRef<[u8]>>(m: &IcmpMessage<P>) -> Vec<u8> {
        [&m.icmp_header()[..], m.fields().3].concat()
    }

    #[test]
    fn echo_roundtrip() {
        let req = IcmpMessage::EchoRequest {
            ident: 0x1234,
            seq: 7,
            payload: &[0xab; 56][..],
        };
        let bytes = encode(&req);
        assert_eq!(IcmpMessage::decode(&bytes), Some(req));
        let rep = IcmpMessage::EchoReply {
            ident: 0x1234,
            seq: 7,
            payload: &[0xab; 56][..],
        };
        assert_eq!(IcmpMessage::decode(&encode(&rep)), Some(rep));
    }

    #[test]
    fn corruption_detected() {
        let req = IcmpMessage::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![1, 2, 3],
        };
        let mut bytes = encode(&req);
        bytes[9] ^= 0x80;
        assert_eq!(IcmpMessage::decode(&bytes), None);
    }

    #[test]
    fn short_rejected() {
        assert_eq!(IcmpMessage::decode(&[8, 0, 0]), None);
    }
}
