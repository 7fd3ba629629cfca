//! Deterministic RSS-style flow steering.
//!
//! Multi-queue VIFs spread packets across queues with a hash of the flow
//! identity — exactly what hardware receive-side scaling (RSS) and Xen's
//! multi-queue netback do. The hash here is the classic Toeplitz
//! construction over the IPv4 4-tuple `(src ip, dst ip, src port,
//! dst port)` with a *fixed* key, so steering is a pure function of the
//! packet bytes: the same flow always lands on the same queue (per-flow
//! ordering is preserved) and every run of the simulator steers
//! identically (seed-stable by construction — the key never changes).
//!
//! Non-IP traffic (ARP, unknown ethertypes) and IP traffic without ports
//! hashes over what identity it has (MAC pair, IP pair), so all traffic
//! steers deterministically, not just UDP/TCP.

use crate::ether::ETH_HEADER_LEN;

/// The 40-byte Toeplitz key from the Microsoft RSS verification suite —
/// fixed so steering never depends on a scenario seed.
pub const RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Longest input the Toeplitz hash takes under a 40-byte key: every
/// input bit needs the 32 key bits that follow it.
const TOEPLITZ_MAX_INPUT: usize = RSS_KEY.len() - 4;

/// The Toeplitz hash of `data` under [`RSS_KEY`]: for every set bit of
/// the input (most-significant first), the 32-bit window of the key
/// starting at that bit position is XORed into the result. `data` may
/// be at most 36 bytes.
fn toeplitz(data: &[u8]) -> u32 {
    debug_assert!(data.len() <= TOEPLITZ_MAX_INPUT, "key too short for input");
    // 64-bit shift register: the top 32 bits are the current key window.
    let (head, tail) = RSS_KEY.split_at(8);
    let mut reg = u64::from_be_bytes(head.try_into().expect("8 bytes"));
    let mut hash = 0u32;
    for (i, &b) in data.iter().enumerate() {
        for bit in (0..8).rev() {
            if (b >> bit) & 1 == 1 {
                hash ^= (reg >> 32) as u32;
            }
            reg <<= 1;
        }
        // The byte's 8 shifts cleared the low 8 bits; refill them with
        // the next key byte so the window keeps sliding.
        reg |= u64::from(tail.get(i).copied().unwrap_or(0));
    }
    hash
}

/// The flow hash of a raw Ethernet frame.
///
/// IPv4 TCP/UDP hashes the 4-tuple; other IPv4 traffic hashes the
/// address pair; everything else (ARP and friends) hashes the MAC pair.
/// All paths go through the Toeplitz hash under [`RSS_KEY`].
pub fn flow_hash(frame: &[u8]) -> u32 {
    if frame.len() >= ETH_HEADER_LEN {
        let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
        let ip = &frame[ETH_HEADER_LEN..];
        // IPv4, version 4, IHL >= 5, header present.
        if ethertype == 0x0800 && ip.len() >= 20 && ip[0] >> 4 == 4 {
            let ihl = (ip[0] & 0x0f) as usize * 4;
            let proto = ip[9];
            let mut input = [0u8; 12];
            input[0..4].copy_from_slice(&ip[12..16]);
            input[4..8].copy_from_slice(&ip[16..20]);
            // src ip, dst ip, then for TCP (6) / UDP (17) the ports —
            // the first 4 bytes past the IP header.
            if (proto == 6 || proto == 17) && ip.len() >= ihl + 4 {
                input[8..12].copy_from_slice(&ip[ihl..ihl + 4]);
                return toeplitz(&input);
            }
            return toeplitz(&input[..8]);
        }
        // Non-IP: steer on the MAC pair (dst + src).
        return toeplitz(&frame[..12]);
    }
    toeplitz(frame)
}

/// The queue a frame steers to under an `nqueues`-queue layout.
pub fn steer(frame: &[u8], nqueues: u32) -> u32 {
    if nqueues <= 1 {
        0
    } else {
        flow_hash(frame) % nqueues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ether::{EtherType, EthernetFrame, MacAddr};
    use crate::ipv4::{IpProto, Ipv4Packet};
    use crate::udp::UdpDatagram;
    use std::net::Ipv4Addr;

    /// The published Microsoft RSS verification suite (IPv4): source,
    /// destination, then the hash of the address pair and of the
    /// 4-tuple.
    const RSS_VECTORS: [(&str, &str, u32, u32); 5] = [
        (
            "66.9.149.187:2794",
            "161.142.100.80:1766",
            0x323e_8fc2,
            0x51cc_c178,
        ),
        (
            "199.92.111.2:14230",
            "65.69.140.83:4739",
            0xd718_262a,
            0xc626_b0ea,
        ),
        (
            "24.19.198.95:12898",
            "12.22.207.184:38024",
            0xd2d0_a5de,
            0x5c2b_394a,
        ),
        (
            "38.27.205.30:48228",
            "209.142.163.6:2217",
            0x8298_9176,
            0xafc7_327f,
        ),
        (
            "153.39.163.191:44251",
            "202.188.127.2:1303",
            0x5d18_09c5,
            0x10e8_28a2,
        ),
    ];

    #[test]
    fn toeplitz_matches_rss_verification_suite() {
        for (src, dst, ip_hash, tuple_hash) in RSS_VECTORS {
            let src: std::net::SocketAddrV4 = src.parse().unwrap();
            let dst: std::net::SocketAddrV4 = dst.parse().unwrap();
            let mut input = [0u8; 12];
            input[..4].copy_from_slice(&src.ip().octets());
            input[4..8].copy_from_slice(&dst.ip().octets());
            input[8..10].copy_from_slice(&src.port().to_be_bytes());
            input[10..].copy_from_slice(&dst.port().to_be_bytes());
            for (data, want) in [(&input[..8], ip_hash), (&input[..], tuple_hash)] {
                assert_eq!(toeplitz(data), want, "{data:?}");
            }
        }
    }

    fn udp_frame(src_port: u16, dst_port: u16) -> Vec<u8> {
        let src = Ipv4Addr::new(10, 0, 0, 2);
        let dst = Ipv4Addr::new(10, 0, 0, 9);
        let udp = UdpDatagram::new(src_port, dst_port, vec![0xab; 64]).encode(src, dst);
        let ip = Ipv4Packet::new(src, dst, IpProto::Udp, udp).encode();
        EthernetFrame::new(MacAddr::local(9), MacAddr::local(2), EtherType::Ipv4, ip).encode()
    }

    #[test]
    fn same_flow_same_queue_different_flows_spread() {
        let n = 4;
        let q = steer(&udp_frame(5000, 9999), n);
        // Identical 4-tuple (payload differs) → identical queue.
        assert_eq!(steer(&udp_frame(5000, 9999), n), q);
        // A sweep of source ports must hit more than one queue.
        let mut seen = std::collections::BTreeSet::new();
        for p in 5000..5032 {
            seen.insert(steer(&udp_frame(p, 9999), n));
        }
        assert!(seen.len() > 1, "steering never spread: {seen:?}");
        assert!(seen.iter().all(|&q| q < n));
    }

    #[test]
    fn single_queue_layout_always_steers_to_zero() {
        for p in 5000..5008 {
            assert_eq!(steer(&udp_frame(p, 9999), 1), 0);
            assert_eq!(steer(&udp_frame(p, 9999), 0), 0);
        }
    }

    #[test]
    fn non_ip_frames_steer_on_mac_pair() {
        let arp = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::local(7),
            EtherType::Arp,
            vec![0; 28],
        )
        .encode();
        let a = steer(&arp, 8);
        assert_eq!(steer(&arp, 8), a);
        // A short/garbage frame still hashes without panicking.
        let _ = steer(&[1, 2, 3], 8);
    }
}
