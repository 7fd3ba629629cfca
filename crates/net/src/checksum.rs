//! The Internet checksum (RFC 1071) shared by IPv4/ICMP/UDP/TCP.

use std::net::Ipv4Addr;

/// Adds the one's-complement sum over `data` to `initial`: a partial
/// sum for [`finish`] to fold, or for another `sum` to continue.
///
/// One's-complement addition is byte-order independent up to a final
/// swap (RFC 1071 §2B), so the bulk goes eight bytes a step — the
/// native-endian 32-bit halves of each `u64` into a 64-bit accumulator
/// — and only the folded 16-bit result is put in network order; the
/// tail of at most seven bytes takes the 16-bit loop.
pub fn sum(data: &[u8], initial: u32) -> u32 {
    let mut words = data.chunks_exact(8);
    let mut wide = 0u64;
    for w in &mut words {
        let w = u64::from_ne_bytes(w.try_into().expect("chunks of 8"));
        wide += (w & 0xffff_ffff) + (w >> 32);
    }
    // 64 -> 16 bits: each step adds the carries back in (end-around).
    wide = (wide & 0xffff_ffff) + (wide >> 32);
    wide = (wide & 0xffff) + (wide >> 16 & 0xffff) + (wide >> 32);
    wide = (wide & 0xffff) + (wide >> 16);
    wide = (wide & 0xffff) + (wide >> 16);
    let mut acc = initial + u32::from(u16::from_be(wide as u16));
    let mut chunks = words.remainder().chunks_exact(2);
    for c in &mut chunks {
        acc += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Folds a partial sum and complements it into a checksum field value.
pub fn finish(mut acc: u32) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    !(acc as u16)
}

/// One-shot checksum of a buffer.
pub fn checksum(data: &[u8]) -> u16 {
    finish(sum(data, 0))
}

/// Partial sum of the TCP/UDP pseudo-header.
pub fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) -> u32 {
    let mut acc = 0u32;
    acc = sum(&src.octets(), acc);
    acc = sum(&dst.octets(), acc);
    acc += u32::from(proto);
    acc += u32::from(len);
    acc
}

/// Verifies a buffer whose checksum field is included: valid iff the
/// folded sum is zero.
pub fn verify(data: &[u8]) -> bool {
    finish(sum(data, 0)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Classic example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    /// The kernel this module shipped with: big-endian 16-bit words, one
    /// at a time. The reference `sum` is checked against.
    fn sum16(data: &[u8], initial: u32) -> u32 {
        let mut acc = initial;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            acc += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            acc += u32::from(u16::from_be_bytes([*last, 0]));
        }
        acc
    }

    #[test]
    fn wide_kernel_matches_the_16_bit_reference() {
        let mut rng = kite_sim::Pcg::new(0x636b73756d, 1);
        let mut buf = vec![0u8; 64 * 1024 + 8];
        rng.fill_bytes(&mut buf);
        // Every short length (each tail size, with and without bulk
        // words), then random lengths up to a 64 KiB super-frame — at
        // every start offset into the buffer, since `sum` is handed
        // slices at arbitrary alignment.
        let lens = (0..=130).chain((0..200).map(|_| rng.index(64 * 1024 + 1)));
        for len in lens.collect::<Vec<_>>() {
            let initial = rng.next_u32() >> 12; // an unfolded partial sum
            for start in 0..8 {
                let data = &buf[start..start + len];
                assert_eq!(
                    finish(sum(data, initial)),
                    finish(sum16(data, initial)),
                    "len {len} start {start} initial {initial:#x}"
                );
            }
        }
        // The two zeros of one's-complement arithmetic stay apart.
        assert_eq!(checksum(&[0u8; 64]), 0xffff);
        assert_eq!(checksum(&[0xffu8; 64]), 0);
    }

    #[test]
    fn odd_length_padded() {
        assert_eq!(checksum(&[0xff]), finish(sum(&[0xff, 0x00], 0)));
    }

    #[test]
    fn verify_detects_corruption() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11];
        // Append a checksum making the whole thing sum to zero.
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn pseudo_header_changes_sum() {
        let a = pseudo_header_sum(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            17,
            8,
        );
        let b = pseudo_header_sum(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.3".parse().unwrap(),
            17,
            8,
        );
        assert_ne!(finish(a), finish(b));
    }
}
