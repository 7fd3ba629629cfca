//! Property-based tests over the core data structures and protocols.
//!
//! Randomized cases are driven by the workspace's own deterministic
//! [`Pcg`] generator (no external property-testing dependency, which the
//! offline build cannot fetch): every test derives its cases from a fixed
//! seed, so failures replay bit-for-bit.

use kite::core::{provision_device, BackendDevice, BackendManager, NetbackInstance};
use kite::frontends::Netfront;
use kite::fs::{ExtentAllocator, Fs};
use kite::net::{
    checksum, DhcpMessage, DhcpMessageType, EtherType, EthernetFrame, IcmpMessage, IpProto,
    Ipv4Packet, MacAddr, UdpDatagram,
};
use kite::rumprun::kite_profile;
use kite::sim::{CpuPool, Nanos, Pcg, Scheduler};
use kite::system::{BackendOs, GSO_UDP};
use kite::xen::netif::{NetifRxRequest, NetifTxRequest, NetifTxResponse};
use kite::xen::ring::{BackRing, FrontRing, RingEntry};
use kite::xen::xenbus::{FEATURE_GSO_KEY, MQ_MAX_QUEUES_KEY};
use kite::xen::{
    CopyMode, DeviceKind, DevicePaths, DomainId, DomainKind, GrantRef, HypercallKind, Hypervisor,
    PageId, XenError, XenbusState, PAGE_SIZE,
};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Toy ring entry.
#[derive(Clone, Debug, PartialEq, Eq)]
struct E(u64);
impl RingEntry for E {
    const SIZE: usize = 8;
    fn write_to(&self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.0.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        E(u64::from_le_bytes(buf[..8].try_into().unwrap()))
    }
}

fn random_bytes(rng: &mut Pcg, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// The shared-ring protocol never loses, duplicates or reorders entries
/// under arbitrary interleavings of produce/consume steps.
#[test]
fn ring_fifo_under_arbitrary_interleaving() {
    let mut rng = Pcg::new(0x41, 1);
    for _ in 0..100 {
        let nops = rng.index(299) + 1;
        let mut page = vec![0u8; 4096];
        let mut front: FrontRing<E, E> = FrontRing::init(&mut page);
        let mut back: BackRing<E, E> = BackRing::attach();
        let mut next = 0u64;
        let mut expect_req = 0u64;
        let mut expect_rsp = 0u64;
        let mut served = std::collections::VecDeque::new();
        for _ in 0..nops {
            match rng.index(4) {
                0 => {
                    if !front.full() {
                        front.push_request(&mut page, &E(next)).unwrap();
                        next += 1;
                        front.push_requests(&mut page);
                    }
                }
                1 => {
                    if let Some(r) = back.consume_request(&page).unwrap() {
                        assert_eq!(r.0, expect_req, "requests FIFO");
                        expect_req += 1;
                        served.push_back(r.0);
                    }
                }
                2 => {
                    if let Some(v) = served.front().copied() {
                        if back.free_responses() > 0 && back.push_response(&mut page, &E(v)).is_ok()
                        {
                            served.pop_front();
                            back.push_responses(&mut page);
                        }
                    }
                }
                _ => {
                    if let Some(r) = front.consume_response(&page).unwrap() {
                        assert_eq!(r.0, expect_rsp, "responses FIFO");
                        expect_rsp += 1;
                    }
                }
            }
        }
    }
}

/// Ethernet/IPv4/UDP stacking round-trips arbitrary payloads.
#[test]
fn packet_stack_roundtrip() {
    let mut rng = Pcg::seeded(0x9a11);
    for _ in 0..64 {
        let plen = rng.index(1400);
        let payload = random_bytes(&mut rng, plen);
        let sp = rng.range_u64(1, 65535) as u16;
        let dp = rng.range_u64(1, 65535) as u16;
        let src = "10.1.2.3".parse().unwrap();
        let dst = "10.4.5.6".parse().unwrap();
        let udp = UdpDatagram::new(sp, dp, payload.clone());
        let ip = Ipv4Packet::new(src, dst, IpProto::Udp, udp.encode(src, dst));
        let eth = EthernetFrame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            EtherType::Ipv4,
            ip.encode(),
        );
        let bytes = eth.encode();

        let eth2 = EthernetFrame::decode(&bytes).unwrap();
        assert_eq!(eth2.ethertype, EtherType::Ipv4);
        let ip2 = Ipv4Packet::decode(&eth2.payload).unwrap();
        assert_eq!(ip2.src, src);
        let udp2 = UdpDatagram::decode(&ip2.payload, src, dst).unwrap();
        assert_eq!(udp2.payload, payload);
        assert_eq!((udp2.src_port, udp2.dst_port), (sp, dp));
    }
}

/// Any single-bit corruption in an IPv4 header is detected (exhaustive
/// over all 160 header bits — no sampling needed).
#[test]
fn ipv4_header_bitflip_detected() {
    for bit in 0..(20 * 8) {
        let ip = Ipv4Packet::new(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            IpProto::Tcp,
            vec![1, 2, 3],
        );
        let mut bytes = ip.encode();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Either the version check or the checksum must catch it.
        assert!(Ipv4Packet::decode(&bytes).is_none() || bit / 8 >= 20);
    }
}

/// What a UDP-in-IPv4-in-Ethernet frame parses to.
#[derive(Debug, PartialEq, Eq)]
struct ParsedUdp {
    macs: (MacAddr, MacAddr),
    ips: (Ipv4Addr, Ipv4Addr),
    ports: (u16, u16),
    payload: Vec<u8>,
}

/// The oracle for [`view_udp_parse`]: the receive-side validation the
/// owned-payload decoders performed before the codec became borrowed
/// views, written out flat over the raw bytes.
fn reference_udp_parse(b: &[u8]) -> Option<ParsedUdp> {
    let be16 = |at: &[u8]| u16::from_be_bytes([at[0], at[1]]);
    if b.len() < 14 || be16(&b[12..]) != 0x0800 {
        return None;
    }
    let ip = &b[14..];
    if ip.len() < 20 || ip[0] != 0x45 || !checksum::verify(&ip[..20]) {
        return None;
    }
    let total = be16(&ip[2..]) as usize;
    if total < 20 || total > ip.len() || ip[9] != 17 {
        return None;
    }
    let src = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
    let udp = &ip[20..total];
    if udp.len() < 8 {
        return None;
    }
    let len = be16(&udp[4..]) as usize;
    if len < 8 || len > udp.len() {
        return None;
    }
    if be16(&udp[6..]) != 0 {
        let acc = checksum::pseudo_header_sum(src, dst, 17, len as u16);
        if checksum::finish(checksum::sum(&udp[..len], acc)) != 0 {
            return None;
        }
    }
    Some(ParsedUdp {
        macs: (
            MacAddr(b[0..6].try_into().unwrap()),
            MacAddr(b[6..12].try_into().unwrap()),
        ),
        ips: (src, dst),
        ports: (be16(udp), be16(&udp[2..])),
        payload: udp[8..len].to_vec(),
    })
}

/// The same parse through the borrowed views, as the endpoint stacks do it.
fn view_udp_parse(b: &[u8]) -> Option<ParsedUdp> {
    let eth = EthernetFrame::decode(b)?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::decode(eth.payload)?;
    if ip.proto != IpProto::Udp {
        return None;
    }
    let udp = UdpDatagram::decode(ip.payload, ip.src, ip.dst)?;
    Some(ParsedUdp {
        macs: (eth.dst, eth.src),
        ips: (ip.src, ip.dst),
        ports: (udp.src_port, udp.dst_port),
        payload: udp.payload.to_vec(),
    })
}

/// The single-buffer frame builder emits the nested encoders' bytes for
/// every payload length up to a GSO super-frame, and the borrowed parsers
/// accept and reject exactly what the flat reference does: every
/// single-bit flip in the 42 header bytes, every truncation, Ethernet
/// padding to the 60-byte minimum, and a zero (absent) UDP checksum.
#[test]
fn single_buffer_builder_and_views_match_the_nested_codec() {
    let mut rng = Pcg::seeded(0xc0dec);
    let (dmac, smac) = (MacAddr::local(0xcc01), MacAddr::local(0xaa01));
    let src: Ipv4Addr = "192.168.1.100".parse().unwrap();
    let dst: Ipv4Addr = "192.168.1.10".parse().unwrap();
    let build = |sp: u16, dp: u16, payload: &[u8]| {
        let nested = EthernetFrame::new(
            dmac,
            smac,
            EtherType::Ipv4,
            Ipv4Packet::new(
                src,
                dst,
                IpProto::Udp,
                UdpDatagram::new(sp, dp, payload.to_vec()).encode(src, dst),
            )
            .encode(),
        )
        .encode();
        let single = UdpDatagram::new(sp, dp, payload).encode_frame(dmac, smac, src, dst);
        assert_eq!(single, nested, "payload of {} bytes", payload.len());
        assert_eq!(single.capacity(), single.len(), "sized once, up front");
        single
    };

    // Lengths around the padding, MTU and chunking edges, then seeded ones.
    let mut lens = vec![
        0,
        1,
        17,
        18,
        19,
        1471,
        1472,
        1473,
        4000,
        GSO_UDP - 1,
        GSO_UDP,
    ];
    lens.extend((0..24).map(|_| rng.index(GSO_UDP + 1)));
    for len in lens {
        let payload = random_bytes(&mut rng, len);
        let (sp, dp) = (rng.next_u32() as u16, rng.next_u32() as u16);
        let frame = build(sp, dp, &payload);
        let parsed = view_udp_parse(&frame).expect("own frame parses");
        assert_eq!(Some(&parsed), reference_udp_parse(&frame).as_ref());
        assert_eq!(parsed.macs, (dmac, smac));
        assert_eq!(parsed.ips, (src, dst));
        assert_eq!(parsed.ports, (sp, dp));
        assert_eq!(parsed.payload, payload);
    }

    let payload = random_bytes(&mut rng, 32);
    let frame = build(1200, 9999, &payload);
    // Every single-bit flip in the Ethernet + IPv4 + UDP headers.
    let mut rejected = 0;
    for bit in 0..42 * 8 {
        let mut f = frame.clone();
        f[bit / 8] ^= 1 << (bit % 8);
        let got = view_udp_parse(&f);
        assert_eq!(got, reference_udp_parse(&f), "bit {bit}");
        if (14 * 8..42 * 8).contains(&bit) {
            assert_eq!(got, None, "IPv4/UDP header flip at bit {bit} accepted");
        }
        rejected += got.is_none() as usize;
    }
    // The MAC flips (96 bits) are the only ones a parser may accept.
    assert_eq!(rejected, 42 * 8 - 96);
    // A flipped payload bit fails the UDP checksum.
    let mut f = frame.clone();
    *f.last_mut().unwrap() ^= 0x40;
    assert_eq!(view_udp_parse(&f), None);
    assert_eq!(reference_udp_parse(&f), None);
    // Truncation at every length, which covers every header boundary.
    for cut in 0..frame.len() {
        assert_eq!(view_udp_parse(&frame[..cut]), None, "cut at {cut}");
        assert_eq!(reference_udp_parse(&frame[..cut]), None, "cut at {cut}");
    }
    // Short frames padded to the Ethernet minimum parse to the unpadded
    // payload: the length fields, not the buffer, bound each layer.
    for len in 0..=18 {
        let payload = random_bytes(&mut rng, len);
        let mut f = build(7, 9, &payload);
        f.resize(60, 0);
        let parsed = view_udp_parse(&f).expect("padded frame parses");
        assert_eq!(Some(&parsed), reference_udp_parse(&f).as_ref());
        assert_eq!(parsed.payload, payload);
    }
    // A zero UDP checksum means "not computed": the payload is accepted
    // unverified, flipped bit and all.
    let mut f = frame.clone();
    f[40..42].fill(0);
    *f.last_mut().unwrap() ^= 0x40;
    let parsed = view_udp_parse(&f).expect("checksum-less datagram parses");
    assert_eq!(Some(&parsed), reference_udp_parse(&f).as_ref());
    assert_eq!(parsed.payload, f[42..]);
}

/// An ICMP echo message as RFC 792 lays it out, checksummed as one
/// buffer: the nested reference the one-buffer echo builder is held to.
fn reference_icmp_echo(ty: u8, ident: u16, seq: u16, payload: &[u8]) -> Vec<u8> {
    let mut m = vec![ty, 0, 0, 0];
    m.extend_from_slice(&ident.to_be_bytes());
    m.extend_from_slice(&seq.to_be_bytes());
    m.extend_from_slice(payload);
    let c = checksum::checksum(&m);
    m[2..4].copy_from_slice(&c.to_be_bytes());
    m
}

/// The ICMP echo's one-buffer builder: `frame_header` followed by the
/// payload is byte for byte `EthernetFrame(Ipv4Packet(ICMP)).encode()`,
/// for requests and replies with every payload length up to a full MTU
/// (0..=1472 bytes, odd ones included), and the decoders accept it.
#[test]
fn icmp_echo_builder_matches_the_nested_codec() {
    let mut rng = Pcg::seeded(0x1c4);
    let (dmac, smac) = (MacAddr::local(0xaa01), MacAddr::local(0xcc01));
    let src: Ipv4Addr = "192.168.1.10".parse().unwrap();
    let dst: Ipv4Addr = "192.168.1.100".parse().unwrap();
    for len in 0..=1472 {
        let payload = random_bytes(&mut rng, len);
        let (ident, seq) = (rng.next_u32() as u16, rng.next_u32() as u16);
        let payload = &payload[..];
        let echoes = [
            (
                8,
                IcmpMessage::EchoRequest {
                    ident,
                    seq,
                    payload,
                },
            ),
            (
                0,
                IcmpMessage::EchoReply {
                    ident,
                    seq,
                    payload,
                },
            ),
        ];
        for (ty, msg) in echoes {
            let icmp = reference_icmp_echo(ty, ident, seq, payload);
            let ip = Ipv4Packet::new(src, dst, IpProto::Icmp, icmp).encode();
            let nested = EthernetFrame::new(dmac, smac, EtherType::Ipv4, ip).encode();
            let frame = [&msg.frame_header(dmac, smac, src, dst)[..], payload].concat();
            assert_eq!(frame, nested, "type {ty}, payload of {len} bytes");
            let eth = EthernetFrame::decode(&frame).expect("own frame parses");
            let ip = Ipv4Packet::decode(eth.payload).expect("own packet parses");
            assert_eq!((ip.proto, ip.src, ip.dst), (IpProto::Icmp, src, dst));
            assert_eq!(IcmpMessage::decode(ip.payload), Some(msg));
        }
    }
}

/// `MachineMemory::copy` between distinct pages moves exactly the
/// requested bytes whichever page has the lower frame number, reports a
/// never-allocated page on either side as `BadPage`, and bounds both
/// ranges at the 4096-byte page end.
#[test]
fn machine_memory_copy_between_distinct_pages() {
    let mut rng = Pcg::seeded(0x3e3);
    let mut hv = Hypervisor::new();
    let d0 = hv.create_domain("Domain-0", DomainKind::Dom0, 64, 1);
    let lo = hv.alloc_page(d0).unwrap();
    let hi = hv.alloc_page(d0).unwrap();
    assert!(lo < hi);
    for (src, dst) in [(lo, hi), (hi, lo)] {
        for _ in 0..64 {
            let src_off = rng.index(PAGE_SIZE);
            let dst_off = rng.index(PAGE_SIZE);
            let len = rng.index(PAGE_SIZE - src_off.max(dst_off) + 1);
            let pattern = random_bytes(&mut rng, PAGE_SIZE);
            hv.mem.page_mut(src).unwrap().copy_from_slice(&pattern);
            hv.mem.page_mut(dst).unwrap().fill(0);
            hv.mem.copy(src, src_off, dst, dst_off, len).unwrap();
            let got = hv.mem.page(dst).unwrap();
            assert_eq!(got[dst_off..dst_off + len], pattern[src_off..src_off + len]);
            assert!(got[..dst_off].iter().all(|&b| b == 0));
            assert!(got[dst_off + len..].iter().all(|&b| b == 0));
            assert_eq!(hv.mem.page(src).unwrap()[..], pattern[..], "source intact");
        }
        // The last byte of a page is reachable; one past it is not.
        hv.mem.copy(src, 0, dst, 0, PAGE_SIZE).unwrap();
        hv.mem
            .copy(src, PAGE_SIZE - 1, dst, PAGE_SIZE - 1, 1)
            .unwrap();
        hv.mem.copy(src, PAGE_SIZE, dst, PAGE_SIZE, 0).unwrap();
        for (so, dof, len) in [(1, 0, PAGE_SIZE), (0, 1, PAGE_SIZE), (PAGE_SIZE, 0, 1)] {
            assert_eq!(
                hv.mem.copy(src, so, dst, dof, len),
                Err(XenError::OutOfBounds)
            );
        }
    }
    // A page never allocated is BadPage on either side — and the live
    // page is left untouched.
    let mid = hv.alloc_page(d0).unwrap();
    hv.mem.page_mut(lo).unwrap().fill(0x5a);
    let never = PageId(1 << 40);
    for (src, dst) in [(lo, never), (never, lo), (mid, never), (never, mid)] {
        assert_eq!(hv.mem.copy(src, 0, dst, 0, 16), Err(XenError::BadPage));
    }
    assert!(hv.mem.page(lo).unwrap().iter().all(|&b| b == 0x5a));
}

/// ICMP echo round-trips: the message behind the headers
/// `frame_header` writes decodes to what was built.
#[test]
fn icmp_roundtrip() {
    let mut rng = Pcg::seeded(0x1c3);
    let (mac, ip) = (MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 1));
    const ICMP_AT: usize = 14 + 20;
    for _ in 0..64 {
        let plen = rng.index(256);
        let payload = random_bytes(&mut rng, plen);
        let m = IcmpMessage::EchoRequest {
            ident: rng.next_u32() as u16,
            seq: rng.next_u32() as u16,
            payload: &payload[..],
        };
        let icmp = [&m.frame_header(mac, mac, ip, ip)[ICMP_AT..], &payload].concat();
        assert_eq!(IcmpMessage::decode(&icmp), Some(m));
    }
}

/// DHCP messages round-trip with arbitrary option combinations.
#[test]
fn dhcp_roundtrip() {
    let mut rng = Pcg::seeded(0xd4c7);
    for _ in 0..64 {
        let mut m = DhcpMessage::client(
            DhcpMessageType::Request,
            rng.next_u32(),
            MacAddr::local(rng.next_u32()),
        );
        m.requested_ip = rng
            .chance(0.5)
            .then(|| std::net::Ipv4Addr::from(rng.next_u32()));
        m.lease_secs = rng.chance(0.5).then(|| rng.next_u32());
        assert_eq!(DhcpMessage::decode(&m.encode()), Some(m));
    }
}

/// The extent allocator conserves blocks under arbitrary churn.
#[test]
fn allocator_conserves_blocks() {
    let mut rng = Pcg::seeded(0xa110c);
    for _ in 0..64 {
        let total = 2048;
        let mut a = ExtentAllocator::new(total);
        let mut held: Vec<Vec<kite::fs::Extent>> = Vec::new();
        for _ in 0..rng.index(199) + 1 {
            let free = rng.chance(0.5);
            let n = rng.range_u64(1, 40);
            if free && !held.is_empty() {
                for e in held.pop().unwrap() {
                    a.free_extent(e);
                }
            } else if let Some(e) = a.alloc(n) {
                assert_eq!(e.iter().map(|x| x.len).sum::<u64>(), n);
                held.push(e);
            }
            let held_total: u64 = held.iter().flatten().map(|e| e.len).sum();
            assert_eq!(a.free_blocks() + held_total, total);
        }
    }
}

/// Allocated extents never overlap.
#[test]
fn allocator_never_overlaps() {
    let mut rng = Pcg::seeded(0xa110d);
    for _ in 0..64 {
        let mut a = ExtentAllocator::new(4096);
        let mut used = std::collections::HashSet::new();
        for _ in 0..rng.index(59) + 1 {
            let n = rng.range_u64(1, 64);
            if let Some(extents) = a.alloc(n) {
                for e in extents {
                    for b in e.start..e.start + e.len {
                        assert!(used.insert(b), "block {} double-allocated", b);
                    }
                }
            }
        }
    }
}

/// FS write-then-read returns exactly the written range through the
/// device-I/O plans (byte accounting, cache on or off).
#[test]
fn fs_read_covers_written_range() {
    let mut rng = Pcg::seeded(0xf5);
    for _ in 0..32 {
        let mut fs = Fs::format(4096, 8);
        let ino = fs.create("f").unwrap();
        let mut size = 0u64;
        for _ in 0..rng.index(19) + 1 {
            let off = rng.range_u64(0, 64) * 512;
            let len = rng.index(16383) + 1;
            if fs.write(ino, off, len).is_ok() {
                size = size.max(off + len as u64);
            }
        }
        assert_eq!(fs.size(ino).unwrap(), size);
        if size > 0 {
            fs.drop_caches();
            let plan = fs.read(ino, 0, size as usize).unwrap();
            // A dropped cache serves nothing: the device I/Os cover it all.
            let covered: usize = plan.device_ios.iter().map(|io| io.bytes).sum();
            assert_eq!(covered, size as usize);
        }
    }
}

/// Grant copy moves exactly the requested bytes regardless of offsets.
#[test]
fn grant_copy_exact() {
    let mut rng = Pcg::seeded(0x9c0);
    for _ in 0..128 {
        let src_off = rng.index(4096);
        let dst_off = rng.index(4096);
        let len = rng.index(4096 - src_off.max(dst_off) + 1);
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 64, 1);
        let dd = hv.create_domain("dd", DomainKind::Driver, 64, 1);
        let gu = hv.create_domain("gu", DomainKind::Guest, 64, 1);
        let sp = hv.alloc_page(gu).unwrap();
        let dp = hv.alloc_page(dd).unwrap();
        for (i, b) in hv.mem.page_mut(sp).unwrap().iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let gref = hv.grant_access(gu, dd, sp, true).unwrap();
        let src = kite::xen::CopySide::Grant {
            granter: gu,
            gref,
            offset: src_off,
        };
        let to = |dst| kite::xen::GrantCopyOp { src, dst, len };
        let batch = hv.grant_copy_ops(
            dd,
            &[to(kite::xen::CopySide::Local {
                page: dp,
                offset: dst_off,
            })],
            kite::xen::CopyMode::Batched,
        );
        assert!(batch.all_ok() && batch.ops == 1);
        // The same bytes appended to a buffer of the caller's own.
        let mut bufs = vec![Vec::with_capacity(dst_off + len)];
        bufs[0].resize(dst_off, 0);
        let appended = hv.grant_copy_with(
            dd,
            &[to(kite::xen::CopySide::Buffer {
                buf: 0,
                offset: dst_off,
                limit: dst_off + len,
            })],
            &mut bufs,
            kite::xen::CopyMode::Batched,
        );
        assert!(appended.all_ok() && appended.bytes == len);
        let dst = hv.mem.page(dp).unwrap();
        assert_eq!(bufs[0][..], dst[..dst_off + len]);
        for i in 0..len {
            assert_eq!(dst[dst_off + i], ((src_off + i) % 251) as u8);
        }
        // Bytes outside the window stay zero.
        for (i, &b) in dst.iter().enumerate() {
            if i < dst_off || i >= dst_off + len {
                assert_eq!(b, 0);
            }
        }
    }
}

/// Xenstore transactions are serializable: a conflicting commit fails,
/// a retry applied after sees the latest value.
#[test]
fn xenstore_counter_increments_serially() {
    let mut rng = Pcg::seeded(0x5e1);
    for _ in 0..32 {
        let mut hv = Hypervisor::new();
        let d0 = hv.create_domain("Domain-0", DomainKind::Dom0, 64, 1);
        hv.store.write(d0, None, "/counter", "0").unwrap();
        let mut expected = 0u64;
        for _ in 0..rng.index(39) + 1 {
            let conflict = rng.chance(0.5);
            // The concurrent writer interferes only with the first
            // attempt; the retry then commits cleanly (as a real racing
            // writer eventually quiesces).
            let mut pending_conflict = conflict;
            loop {
                let tx = hv.store.tx_start(d0);
                let v: u64 = hv
                    .store
                    .read(d0, Some(tx), "/counter")
                    .unwrap()
                    .parse()
                    .unwrap();
                if pending_conflict {
                    hv.store
                        .write(d0, None, "/counter", &(v + 1).to_string())
                        .unwrap();
                    expected += 1;
                    pending_conflict = false;
                }
                hv.store
                    .write(d0, Some(tx), "/counter", &(v + 1).to_string())
                    .unwrap();
                match hv.store.tx_end(d0, tx, true) {
                    Ok(()) => {
                        expected += 1;
                        break;
                    }
                    Err(kite::xen::XenError::Again) => {
                        assert!(conflict, "spurious conflict");
                        continue;
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            let v: u64 = hv
                .store
                .read(d0, None, "/counter")
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(v, expected);
        }
    }
}

/// The DES queue pops in nondecreasing time order for any schedule.
#[test]
fn event_queue_time_monotone() {
    let mut rng = Pcg::seeded(0xe4e);
    for _ in 0..64 {
        let n = rng.index(199) + 1;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000_000)).collect();
        let mut q = kite::sim::EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(Nanos(*t), i);
        }
        let mut last = Nanos::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }
}

/// `CpuPool` is the linear-scan model it stands for: the pool picks the
/// member `min_by_key(free_at)` picks (the lowest index among equally
/// free ones) and its running-maximum `drained_at` is the largest
/// `free_at`.
/// Pool sizes 1..=33 cover powers of two and the sizes between; costs
/// and arrival steps are multiples of 10 ns, so `free_at` ties are the
/// common case, not the rare one.
#[test]
fn cpu_pool_dispatch_matches_the_linear_scan() {
    let mut rng = Pcg::seeded(0xc9u64);
    for n in 1..=33usize {
        for _ in 0..4 {
            let mut pool = CpuPool::new(n);
            let (mut free, mut busy) = (vec![Nanos::ZERO; n], vec![Nanos::ZERO; n]);
            let mut now = Nanos::ZERO;
            for op in 0..600 {
                now += Nanos(10 * rng.index(3) as u64);
                let cost = Nanos(10 * (1 + rng.index(4) as u64));
                let (k, got) = if rng.index(4) == 0 {
                    let idx = rng.index(2 * n);
                    (idx % n, pool.run_on(idx, now, cost))
                } else {
                    let k = (0..n).min_by_key(|&k| free[k]).expect("n >= 1");
                    (k, pool.run_least_loaded(now, cost))
                };
                free[k] = free[k].max(now) + cost;
                busy[k] += cost;
                assert_eq!(got, free[k], "n {n} op {op}: completion time");
                assert_eq!(pool.busy_each(), busy, "n {n} op {op}: member {k} picked");
                let free_at: Vec<Nanos> = (0..n).map(|k| pool.free_at(k)).collect();
                assert_eq!(free_at, free, "n {n} op {op}");
                let latest = free.iter().copied().max().expect("n >= 1");
                assert_eq!(pool.drained_at(), latest, "n {n} op {op}: drained_at");
            }
        }
    }
}

// ---- batched grant-copy properties -------------------------------------

/// One netfront⇄netback pair assembled by hand (no scenario builder).
struct NetRig {
    hv: Hypervisor,
    dd: DomainId,
    nf: Netfront,
    nb: NetbackInstance,
}

/// A pair whose frontend asks for `queues` queues, the backend having
/// advertised `backend_keys` (e.g. GSO, a queue count) before it connects.
fn net_rig_with(queues: u32, backend_keys: &[(&str, u32)]) -> NetRig {
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
    let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
    mgr.start(&mut hv).unwrap();
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
    provision_device(&mut hv, &paths).unwrap();
    for (key, value) in backend_keys {
        let key = format!("{}/{key}", paths.backend());
        hv.store
            .write(DomainId::DOM0, None, &key, &value.to_string())
            .unwrap();
    }
    mgr.scan(&mut hv).unwrap();
    let nf = Netfront::connect_with_queues(&mut hv, &paths, MacAddr::local(1), queues).unwrap();
    let ready = mgr.scan(&mut hv).unwrap();
    assert_eq!(ready.len(), 1);
    let nb = NetbackInstance::connect(&mut hv, &ready[0], kite_profile()).unwrap();
    NetRig { hv, dd, nf, nb }
}

fn net_rig(mode: CopyMode) -> NetRig {
    let mut rig = net_rig_with(1, &[]);
    rig.nb.set_copy_mode(mode);
    rig
}

/// A datagram's frame header plus its payload is `encode_frame` byte for
/// byte, and netfront sends the frame given as those two parts exactly as
/// it sends the contiguous frame: on the same queue, and with the same
/// bytes in its Tx pages, which netback gathers back into the frame. The
/// payload lengths sit on the page edges a split frame crosses: a frame of
/// exactly one page (4 054 + 42), one byte more, a payload of one page,
/// and two GSO chains.
#[test]
fn a_frame_sent_as_header_and_payload_matches_the_contiguous_frame() {
    const QUEUES: u32 = 4;
    let mut rng = Pcg::seeded(0x5e9d);
    let (dmac, smac) = (MacAddr::local(0xcc01), MacAddr::local(0xaa01));
    let src: Ipv4Addr = "192.168.1.100".parse().unwrap();
    let dst: Ipv4Addr = "192.168.1.10".parse().unwrap();
    let rig = || net_rig_with(QUEUES, &[(FEATURE_GSO_KEY, 1), (MQ_MAX_QUEUES_KEY, QUEUES)]);
    let (mut whole, mut split) = (rig(), rig());
    assert!(whole.nf.gso() && whole.nb.gso(), "offload negotiated");
    assert_eq!(whole.nb.queue_count(), QUEUES as usize);
    let mut queues_seen = [false; QUEUES as usize];
    let lens = [0, 1, 4_054, 4_055, PAGE_SIZE, 48 * 1024, GSO_UDP];
    for (i, len) in lens.into_iter().enumerate() {
        let payload = random_bytes(&mut rng, len);
        let datagram = UdpDatagram::new(5_000 + i as u16, 9999, &payload[..]);
        let header = datagram.frame_header(dmac, smac, src, dst);
        let frame = datagram.encode_frame(dmac, smac, src, dst);
        assert_eq!(
            [&header[..], &payload].concat(),
            frame,
            "{len}-byte payload"
        );

        let (q, op) = whole.nf.send(&mut whole.hv, &frame, None).unwrap();
        let got = split.nf.send_parts(&mut split.hv, &header, &payload, None);
        let (split_q, split_op) = got.unwrap();
        assert_eq!(split_q, q, "{len}-byte payload steered elsewhere");
        assert_eq!((split_op.notify, split_op.cost), (op.notify, op.cost));
        queues_seen[q] = true;
        for rig in [&mut whole, &mut split] {
            let batch = rig.nb.pusher_run(&mut rig.hv, q, 64).unwrap();
            let want = std::slice::from_ref(&frame);
            assert_eq!(batch.frames, want, "{len}-byte payload");
            rig.nf.on_irq(&mut rig.hv).unwrap();
        }
    }
    assert!(
        queues_seen.iter().filter(|&&s| s).count() > 1,
        "the flows all steered to one queue"
    );
}

#[derive(Clone, Debug)]
enum NetOp {
    /// Guest sends a frame of this length.
    Send(usize),
    /// The world queues a frame of this length for the guest.
    Enqueue(usize),
    /// Tx drain with this budget.
    Pusher(usize),
    /// Rx fill with this budget.
    SoftStart(usize),
    /// Guest reaps completions and reposts Rx buffers.
    GuestIrq,
}

/// Everything externally observable from one op, for equivalence checks.
#[derive(Debug, PartialEq, Eq)]
enum Observed {
    Sent(bool),
    Enqueued(bool),
    Tx {
        frames: Vec<Vec<u8>>,
        notify: bool,
        more: bool,
    },
    Rx {
        delivered: usize,
        notify: bool,
        more: bool,
    },
    Irq {
        received: Vec<Vec<u8>>,
    },
}

/// Applies one op sequence to a rig; returns the observation log plus the
/// accumulated virtual drain cost.
fn apply_net_ops(rig: &mut NetRig, ops: &[NetOp], payload_rng: &mut Pcg) -> (Vec<Observed>, Nanos) {
    let mut log = Vec::new();
    let mut drain_cost = Nanos::ZERO;
    for op in ops {
        match op {
            NetOp::Send(len) => {
                let frame = random_bytes(payload_rng, *len);
                let ok = rig.nf.send(&mut rig.hv, &frame, None).is_ok();
                log.push(Observed::Sent(ok));
            }
            NetOp::Enqueue(len) => {
                let frame = random_bytes(payload_rng, *len);
                log.push(Observed::Enqueued(rig.nb.enqueue_to_guest(frame)));
            }
            NetOp::Pusher(budget) => {
                let before = rig.hv.meter(rig.dd).count(HypercallKind::GntCopy);
                let batch = rig.nb.pusher_run(&mut rig.hv, 0, *budget).unwrap();
                let delta = rig.hv.meter(rig.dd).count(HypercallKind::GntCopy) - before;
                if rig.nb.copy_mode() == CopyMode::Batched {
                    assert!(delta <= 1, "one hypercall per Tx drain, saw {delta}");
                }
                drain_cost += batch.cost;
                log.push(Observed::Tx {
                    frames: batch.frames,
                    notify: batch.notify,
                    more: batch.more,
                });
            }
            NetOp::SoftStart(budget) => {
                let before = rig.hv.meter(rig.dd).count(HypercallKind::GntCopy);
                let batch = rig.nb.soft_start_run(&mut rig.hv, 0, *budget).unwrap();
                let delta = rig.hv.meter(rig.dd).count(HypercallKind::GntCopy) - before;
                if rig.nb.copy_mode() == CopyMode::Batched {
                    assert!(delta <= 1, "one hypercall per Rx fill, saw {delta}");
                }
                drain_cost += batch.cost;
                log.push(Observed::Rx {
                    delivered: batch.delivered,
                    notify: batch.notify,
                    more: batch.more,
                });
            }
            NetOp::GuestIrq => {
                rig.nf.on_irq(&mut rig.hv).unwrap();
                let mut received = Vec::new();
                while let Some(f) = rig.nf.recv() {
                    received.push(f);
                }
                log.push(Observed::Irq { received });
            }
        }
    }
    (log, drain_cost)
}

/// The batched drain is observably identical to the one-hypercall-per-op
/// path: same frames, same responses, same notify decisions, same
/// packet/byte/error stats — under random budgets, ring states and
/// workloads. Only the hypercall count (and hence cost) differs, and the
/// batched cost is never higher.
#[test]
fn netback_batched_matches_single_op() {
    for seed in 0..8u64 {
        let mut op_rng = Pcg::new(seed, 0xba7c4);
        let mut ops = Vec::new();
        for _ in 0..op_rng.index(120) + 30 {
            ops.push(match op_rng.index(8) {
                0..=2 => NetOp::Send(op_rng.index(1500) + 1),
                3 | 4 => NetOp::Enqueue(op_rng.index(1500) + 1),
                5 => NetOp::Pusher(op_rng.index(64) + 1),
                6 => NetOp::SoftStart(op_rng.index(64) + 1),
                _ => NetOp::GuestIrq,
            });
        }
        // Always drain at the end so both sides did real batch work.
        ops.push(NetOp::Pusher(256));
        ops.push(NetOp::SoftStart(256));
        ops.push(NetOp::GuestIrq);

        let mut batched = net_rig(CopyMode::Batched);
        let mut single = net_rig(CopyMode::SingleOp);
        let (log_b, cost_b) = apply_net_ops(&mut batched, &ops, &mut Pcg::new(seed, 0xf00d));
        let (log_s, cost_s) = apply_net_ops(&mut single, &ops, &mut Pcg::new(seed, 0xf00d));
        assert_eq!(log_b, log_s, "seed {seed}: observable behavior must match");

        let sb = batched.nb.stats();
        let ss = single.nb.stats();
        assert_eq!(
            (sb.tx_packets, sb.tx_bytes, sb.tx_errors),
            (ss.tx_packets, ss.tx_bytes, ss.tx_errors)
        );
        assert_eq!(
            (sb.rx_packets, sb.rx_bytes, sb.rx_dropped),
            (ss.rx_packets, ss.rx_bytes, ss.rx_dropped)
        );
        assert_eq!((sb.copy.ops, sb.copy.bytes), (ss.copy.ops, ss.copy.bytes));
        // The meter agrees with the driver's own accounting in both modes.
        assert_eq!(
            batched.hv.meter(batched.dd).count(HypercallKind::GntCopy),
            sb.copy.hypercalls
        );
        assert_eq!(
            single.hv.meter(single.dd).count(HypercallKind::GntCopy),
            ss.copy.hypercalls
        );
        // Batching strictly reduces hypercalls and never raises cost.
        assert!(sb.copy.hypercalls <= ss.copy.hypercalls);
        assert!(
            cost_b <= cost_s,
            "seed {seed}: batched {cost_b:?} vs {cost_s:?}"
        );
        if sb.copy.hypercalls_saved > 0 {
            assert!(cost_b < cost_s, "multi-op drains must be strictly cheaper");
        }
    }
}

/// A hand-rolled frontend whose rings the test controls directly — used
/// to feed netback requests a real netfront never produces.
struct RawFront {
    tx: FrontRing<NetifTxRequest, NetifTxResponse>,
    rx: FrontRing<NetifRxRequest, kite::xen::netif::NetifRxResponse>,
    tx_page: PageId,
    rx_page: PageId,
    buf_page: PageId,
    buf_gref: GrantRef,
}

fn raw_rig() -> (Hypervisor, DomainId, RawFront, NetbackInstance) {
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
    let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
    mgr.start(&mut hv).unwrap();
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
    provision_device(&mut hv, &paths).unwrap();
    mgr.scan(&mut hv).unwrap();
    let tx_page = hv.alloc_page(gu).unwrap();
    let rx_page = hv.alloc_page(gu).unwrap();
    let tx = FrontRing::init(hv.mem.page_mut(tx_page).unwrap());
    let rx = FrontRing::init(hv.mem.page_mut(rx_page).unwrap());
    let tx_ref = hv.grant_access(gu, dd, tx_page, false).unwrap();
    let rx_ref = hv.grant_access(gu, dd, rx_page, false).unwrap();
    let buf_page = hv.alloc_page(gu).unwrap();
    let buf_gref = hv.grant_access(gu, dd, buf_page, false).unwrap();
    let (port, _) = hv.evtchn_alloc_unbound(gu, dd);
    let fe = paths.frontend();
    hv.store
        .write(
            gu,
            None,
            &format!("{fe}/tx-ring-ref"),
            &tx_ref.0.to_string(),
        )
        .unwrap();
    hv.store
        .write(
            gu,
            None,
            &format!("{fe}/rx-ring-ref"),
            &rx_ref.0.to_string(),
        )
        .unwrap();
    hv.store
        .write(
            gu,
            None,
            &format!("{fe}/event-channel"),
            &port.0.to_string(),
        )
        .unwrap();
    kite::xen::xenbus::switch_state(
        &mut hv.store,
        gu,
        &paths.frontend_state(),
        XenbusState::Initialised,
    )
    .unwrap();
    let ready = mgr.scan(&mut hv).unwrap();
    assert_eq!(ready.len(), 1);
    let nb = NetbackInstance::connect(&mut hv, &ready[0], kite_profile()).unwrap();
    let front = RawFront {
        tx,
        rx,
        tx_page,
        rx_page,
        buf_page,
        buf_gref,
    };
    (hv, dd, front, nb)
}

/// Malformed Tx requests — zero size, offset at/past the page end, spans
/// crossing the page — are rejected as errors without panicking (the
/// `PAGE_SIZE - offset` underflow) and without poisoning the rest of the
/// drain, which still completes in one hypercall.
#[test]
fn pusher_rejects_bad_geometry_without_underflow() {
    let (mut hv, dd, mut front, mut nb) = raw_rig();
    hv.mem.page_mut(front.buf_page).unwrap()[..64].copy_from_slice(&[7u8; 64]);
    let reqs = [
        // Valid: 64 bytes at offset 0.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: 0,
            flags: 0,
            id: 0,
            size: 64,
        },
        // Zero-size.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: 0,
            flags: 0,
            id: 1,
            size: 0,
        },
        // Offset beyond the page: 4096-5000 underflows a usize subtraction.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: 5000,
            flags: 0,
            id: 2,
            size: 100,
        },
        // Offset exactly at the page end.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: PAGE_SIZE as u16,
            flags: 0,
            id: 3,
            size: 1,
        },
        // Span crosses the page end.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: 4000,
            flags: 0,
            id: 4,
            size: 200,
        },
        // Valid geometry, bad grant: fails in the copy, not validation.
        NetifTxRequest {
            gref: GrantRef(991_991),
            offset: 0,
            flags: 0,
            id: 5,
            size: 32,
        },
    ];
    for r in &reqs {
        let page = hv.mem.page_mut(front.tx_page).unwrap();
        front.tx.push_request(page, r).unwrap();
    }
    front
        .tx
        .push_requests(hv.mem.page_mut(front.tx_page).unwrap());

    let before = hv.meter(dd).count(HypercallKind::GntCopy);
    let batch = nb.pusher_run(&mut hv, 0, 16).unwrap();
    assert_eq!(batch.frames, vec![vec![7u8; 64]], "only the valid frame");
    assert_eq!(nb.stats().tx_errors, 5);
    assert_eq!(nb.stats().tx_packets, 1);
    assert_eq!(
        hv.meter(dd).count(HypercallKind::GntCopy) - before,
        1,
        "whole drain (valid + bad-grant ops) in one hypercall"
    );
    // Every request got a response, in ring order.
    let mut statuses = Vec::new();
    loop {
        let page = hv.mem.page(front.tx_page).unwrap();
        match front.tx.consume_response(page).unwrap() {
            Some(r) => statuses.push((r.id, r.status)),
            None => break,
        }
    }
    use kite::xen::netif::{NETIF_RSP_ERROR, NETIF_RSP_OKAY};
    assert_eq!(
        statuses,
        vec![
            (0, NETIF_RSP_OKAY),
            (1, NETIF_RSP_ERROR),
            (2, NETIF_RSP_ERROR),
            (3, NETIF_RSP_ERROR),
            (4, NETIF_RSP_ERROR),
            (5, NETIF_RSP_ERROR),
        ]
    );
}

/// A frame whose Rx copy fails (revoked/bogus grant) is dropped loudly:
/// counted in `rx_dropped`, answered with an error response, and the
/// backlog still drains — no silent loss, no stuck queue.
#[test]
fn soft_start_counts_dropped_frames() {
    let (mut hv, dd, mut front, mut nb) = raw_rig();
    assert!(nb.enqueue_to_guest(vec![1u8; 100]));
    assert!(nb.enqueue_to_guest(vec![2u8; 200]));
    assert!(nb.enqueue_to_guest(vec![3u8; 300]));
    let posts = [
        NetifRxRequest {
            id: 0,
            gref: GrantRef(881_881), // never granted: copy fails
        },
        NetifRxRequest {
            id: 1,
            gref: front.buf_gref,
        },
        NetifRxRequest {
            id: 2,
            gref: GrantRef(881_882),
        },
    ];
    for r in &posts {
        let page = hv.mem.page_mut(front.rx_page).unwrap();
        front.rx.push_request(page, r).unwrap();
    }
    front
        .rx
        .push_requests(hv.mem.page_mut(front.rx_page).unwrap());

    let before = hv.meter(dd).count(HypercallKind::GntCopy);
    let batch = nb.soft_start_run(&mut hv, 0, 16).unwrap();
    assert_eq!(batch.delivered, 1, "only the valid buffer");
    assert_eq!(nb.stats().rx_dropped, 2);
    assert_eq!(
        nb.rx_backlog(),
        0,
        "failed frames are consumed, not re-queued"
    );
    assert_eq!(hv.meter(dd).count(HypercallKind::GntCopy) - before, 1);
    // The good buffer holds frame #2's bytes (frames pair with posts in order).
    assert_eq!(
        &hv.mem.page(front.buf_page).unwrap()[..200],
        &[2u8; 200][..]
    );
}

/// The acceptance property stated in the issue: a multi-packet ring drain
/// issues exactly ONE grant-copy hypercall, in both directions.
#[test]
fn netback_drain_is_one_hypercall() {
    use kite::trace::EventKind;
    let mut rig = net_rig(CopyMode::Batched);
    rig.hv.trace.enable(1 << 12);
    for i in 0..20 {
        let frame = vec![i as u8; 100 + i * 7];
        rig.nf.send(&mut rig.hv, &frame, None).unwrap();
        rig.nb.enqueue_to_guest(frame);
    }
    let tx = rig.nb.pusher_run(&mut rig.hv, 0, 64).unwrap();
    assert_eq!(tx.frames.len(), 20);
    // Trace-level assertion: the whole 20-frame Tx drain was exactly ONE
    // gnttab_copy hypercall carrying all 20 ops, recorded as one drain.
    let copies = |rig: &NetRig| -> Vec<(u32, u32)> {
        rig.hv
            .trace
            .events()
            .filter_map(|e| match e.kind {
                EventKind::GrantCopyBatch { ops, ok_ops, .. } => Some((ops, ok_ops)),
                _ => None,
            })
            .collect()
    };
    let drains = |rig: &NetRig| -> Vec<(&'static str, u32)> {
        rig.hv
            .trace
            .events()
            .filter_map(|e| match e.kind {
                EventKind::RingDrain {
                    queue, consumed, ..
                } => Some((queue, consumed)),
                _ => None,
            })
            .collect()
    };
    assert_eq!(copies(&rig), [(20, 20)]);
    assert_eq!(drains(&rig)[0], ("netback_tx", 20));

    let rx = rig.nb.soft_start_run(&mut rig.hv, 0, 64).unwrap();
    assert_eq!(rx.delivered, 20);
    assert_eq!(copies(&rig).len(), 2);
    assert_eq!(
        drains(&rig)
            .iter()
            .filter(|(queue, _)| *queue == "netback_rx")
            .count(),
        1
    );

    // An empty drain emits neither a copy hypercall nor a drain record.
    rig.nb.pusher_run(&mut rig.hv, 0, 64).unwrap();
    rig.nb.soft_start_run(&mut rig.hv, 0, 64).unwrap();
    assert_eq!(copies(&rig).len(), 2);
    assert_eq!(drains(&rig).len(), 2);

    let st = rig.nb.stats();
    assert_eq!(st.copy.hypercalls, 2);
    assert_eq!(st.copy.ops, 40);
    assert_eq!(st.copy.hypercalls_saved, 38);
}

// ---- multi-queue properties --------------------------------------------

/// Toeplitz flow steering is a pure function of the flow tuple: stable
/// across calls, insensitive to payload bytes, always in range, and
/// pinned to the published RSS verification vector so the constant key
/// (and the hash itself) can never silently change.
#[test]
fn flow_steering_is_seed_stable_and_tuple_pure() {
    use kite::net::flow;
    // The Microsoft verification vector, pushed through real frame
    // encoding: src 66.9.149.187:2794 -> dst 161.142.100.80:1766.
    let src = "66.9.149.187".parse().unwrap();
    let dst = "161.142.100.80".parse().unwrap();
    let udp = UdpDatagram::new(2794, 1766, vec![0u8; 32]);
    let ip = Ipv4Packet::new(src, dst, IpProto::Udp, udp.encode(src, dst));
    let eth = EthernetFrame::new(
        MacAddr::local(2),
        MacAddr::local(1),
        EtherType::Ipv4,
        ip.encode(),
    );
    assert_eq!(flow::flow_hash(&eth.encode()), 0x51cc_c178);

    let mut rng = Pcg::seeded(0xf10e);
    for _ in 0..64 {
        let sp = rng.range_u64(1, 65535) as u16;
        let dp = rng.range_u64(1, 65535) as u16;
        let mk = |payload: Vec<u8>| {
            let src = "10.1.2.3".parse().unwrap();
            let dst = "10.4.5.6".parse().unwrap();
            let udp = UdpDatagram::new(sp, dp, payload);
            let ip = Ipv4Packet::new(src, dst, IpProto::Udp, udp.encode(src, dst));
            EthernetFrame::new(
                MacAddr::local(1),
                MacAddr::local(2),
                EtherType::Ipv4,
                ip.encode(),
            )
            .encode()
        };
        let a = mk(random_bytes(&mut rng, 200));
        let b = mk(random_bytes(&mut rng, 900));
        assert_eq!(flow::flow_hash(&a), flow::flow_hash(&a), "stable");
        assert_eq!(
            flow::flow_hash(&a),
            flow::flow_hash(&b),
            "hash is payload-independent"
        );
        assert_eq!(flow::steer(&a, 1), 0, "single queue takes everything");
        for n in [2u32, 4, 8] {
            let q = flow::steer(&a, n);
            assert!(q < n, "steer({n}) in range");
            assert_eq!(q, flow::steer(&b, n), "same flow, same queue");
        }
    }
}

/// Per-flow ordering survives multi-queue in both directions: for every
/// queue count, each flow's messages arrive in submission order, with
/// nothing dropped. Guest→client, a flow hashes to one netfront/netback
/// queue and each queue is FIFO; client→guest, the NIC sits in front:
/// the flow hashes to one receive ring, that ring feeds the netback
/// queue the same hash picks, and ring and queue are both FIFO.
#[test]
fn per_flow_order_preserved_across_queue_counts() {
    use kite::system::{addrs, Side};
    const FLOWS: u64 = 8;
    const MSGS: u64 = 12;
    for queues in [1u32, 2, 4, 8] {
        let mut sys = kite::system::SystemConfig::new(BackendOs::Kite, 42)
            .queues(queues)
            .build_net();
        // What each side received: (the sender's flow port, sequence).
        let at_client: Rc<RefCell<Vec<(u16, u8)>>> = Rc::new(RefCell::new(Vec::new()));
        let at_guest: Rc<RefCell<Vec<(u16, u8)>>> = Rc::new(RefCell::new(Vec::new()));
        let (c2, g2) = (at_client.clone(), at_guest.clone());
        sys.set_client_app(Box::new(move |_, msg| {
            c2.borrow_mut().push((msg.src_port, msg.payload[0]));
            Vec::new()
        }));
        sys.set_guest_app(Box::new(move |_, msg| {
            g2.borrow_mut().push((msg.src_port, msg.payload[0]));
            Vec::new()
        }));
        for i in 0..FLOWS * MSGS {
            let flow = 3000 + (i % FLOWS) as u16;
            let seq = (i / FLOWS) as u8;
            let t = Nanos::from_micros(100 + 150 * i);
            sys.send_udp_at(t, Side::Guest, addrs::CLIENT, 9999, flow, vec![seq; 400]);
            // The client's copies leave in bursts of a whole round, so
            // every ring's interrupt finds several flows' frames queued.
            let burst = Nanos::from_micros(100 + 150 * FLOWS * (i / FLOWS));
            sys.send_udp_at(
                burst,
                Side::Client,
                addrs::GUEST,
                9999,
                flow,
                vec![seq; 400],
            );
        }
        sys.run_to_quiescence();
        assert_eq!(sys.metrics.drops, 0, "{queues} queues");
        for (side, seen) in [("client", at_client.borrow()), ("guest", at_guest.borrow())] {
            assert_eq!(
                seen.len() as u64,
                FLOWS * MSGS,
                "{queues} queues: every message arrives at the {side}"
            );
            for flow in 0..FLOWS {
                let port = 3000 + flow as u16;
                let seqs: Vec<u8> = seen
                    .iter()
                    .filter(|(p, _)| *p == port)
                    .map(|&(_, s)| s)
                    .collect();
                let want: Vec<u8> = (0..MSGS as u8).collect();
                assert_eq!(
                    seqs, want,
                    "{queues} queues: flow {flow} in order at the {side}"
                );
            }
        }
    }
}
