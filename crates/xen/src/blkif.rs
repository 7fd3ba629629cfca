//! Block PV device ABI (`xen/include/public/io/blkif.h`).
//!
//! One ring carries both directions. A *direct* request holds at most
//! [`BLKIF_MAX_SEGMENTS_PER_REQUEST`] (11) segments — 44 KiB per request,
//! the limit the paper calls out as insufficient for NVMe. An *indirect*
//! request instead carries grants for up to 8 pages, each packed with
//! 512 segment descriptors; Kite (like Linux) caps usable indirect
//! segments at 32.
//!
//! Request slots are 112 bytes, giving the canonical 32-slot blkif ring.

use crate::grant::GrantRef;
use crate::ring::RingEntry;

/// Read sectors.
pub const BLKIF_OP_READ: u8 = 0;
/// Write sectors.
pub const BLKIF_OP_WRITE: u8 = 1;
/// Flush the disk cache.
pub const BLKIF_OP_FLUSH_DISKCACHE: u8 = 3;
/// Indirect descriptor request.
pub const BLKIF_OP_INDIRECT: u8 = 6;

/// Maximum segments in a direct request (ring-slot limited).
pub const BLKIF_MAX_SEGMENTS_PER_REQUEST: usize = 11;
/// Maximum indirect descriptor pages per indirect request.
pub const BLKIF_MAX_INDIRECT_PAGES_PER_REQUEST: usize = 8;
/// Segment descriptors that fit in one indirect page (4096 / 8).
pub const SEGS_PER_INDIRECT_FRAME: usize = 512;

/// Response status: success.
pub const BLKIF_RSP_OKAY: i16 = 0;
/// Response status: error.
pub const BLKIF_RSP_ERROR: i16 = -1;

/// Sector size assumed by the protocol (512 bytes).
pub const SECTOR_SIZE: usize = 512;

/// One data segment: a granted page plus a first/last sector range inside
/// it (each page holds 8 × 512-byte sectors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlkifSegment {
    /// Grant for the data page.
    pub gref: GrantRef,
    /// First 512-byte sector of the page to transfer (0–7).
    pub first_sect: u8,
    /// Last sector of the page to transfer, inclusive (0–7).
    pub last_sect: u8,
}

impl BlkifSegment {
    /// The all-zero descriptor: what array entries past a request's
    /// segment count hold.
    pub const ZERO: BlkifSegment = BlkifSegment {
        gref: GrantRef(0),
        first_sect: 0,
        last_sect: 0,
    };

    /// Number of sectors this segment covers.
    pub fn sectors(&self) -> u64 {
        (self.last_sect as u64 + 1).saturating_sub(self.first_sect as u64)
    }

    /// Bytes this segment covers.
    pub fn len(&self) -> usize {
        self.sectors() as usize * SECTOR_SIZE
    }

    /// True if the segment covers no sectors (malformed).
    pub fn is_empty(&self) -> bool {
        self.last_sect < self.first_sect
    }

    /// Serializes into an 8-byte descriptor.
    pub fn write_to(&self, buf: &mut [u8]) {
        buf[0..4].copy_from_slice(&self.gref.0.to_le_bytes());
        buf[4] = self.first_sect;
        buf[5] = self.last_sect;
        buf[6] = 0;
        buf[7] = 0;
    }

    /// Deserializes an 8-byte descriptor.
    pub fn read_from(buf: &[u8]) -> Self {
        BlkifSegment {
            gref: GrantRef(u32::from_le_bytes(buf[0..4].try_into().unwrap())),
            first_sect: buf[4],
            last_sect: buf[5],
        }
    }
}

/// A block request: direct (inline segments) or indirect (segment pages).
///
/// Both variants are the fixed-size structs `blkif.h` declares — arrays
/// and a count, no heap — so a request decodes out of its ring slot and
/// encodes into it without allocating. Entries past the count are zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlkifRequest {
    /// Direct request with up to 11 inline segments.
    Direct {
        /// `BLKIF_OP_READ`/`WRITE`/`FLUSH_DISKCACHE`/…
        operation: u8,
        /// Virtual device handle.
        handle: u16,
        /// Frontend-chosen id echoed in the response.
        id: u64,
        /// Starting absolute 512-byte sector on the device.
        sector_number: u64,
        /// How many of `segments` carry data. Decoding clamps the
        /// guest's count to the array; a reader of a locally built
        /// request clamps again.
        nr_segments: u8,
        /// Data segments.
        segments: [BlkifSegment; BLKIF_MAX_SEGMENTS_PER_REQUEST],
    },
    /// Indirect request: segments live in separately granted pages.
    Indirect {
        /// The actual I/O operation (`BLKIF_OP_READ`/`WRITE`).
        indirect_op: u8,
        /// Virtual device handle.
        handle: u16,
        /// Frontend-chosen id echoed in the response.
        id: u64,
        /// Starting absolute 512-byte sector.
        sector_number: u64,
        /// Total number of segments across the indirect pages.
        nr_segments: u16,
        /// Grants for up to 8 pages of packed segment descriptors; the
        /// first `nr_segments.div_ceil(512)` are meaningful.
        indirect_grefs: [GrantRef; BLKIF_MAX_INDIRECT_PAGES_PER_REQUEST],
    },
}

impl BlkifRequest {
    /// A direct request carrying `segs` inline.
    ///
    /// # Panics
    /// If `segs` is longer than [`BLKIF_MAX_SEGMENTS_PER_REQUEST`].
    pub fn direct(
        operation: u8,
        handle: u16,
        id: u64,
        sector_number: u64,
        segs: &[BlkifSegment],
    ) -> Self {
        let mut segments = [BlkifSegment::ZERO; BLKIF_MAX_SEGMENTS_PER_REQUEST];
        segments[..segs.len()].copy_from_slice(segs);
        BlkifRequest::Direct {
            operation,
            handle,
            id,
            sector_number,
            nr_segments: segs.len() as u8,
            segments,
        }
    }

    /// An indirect request for `nr_segments` segments packed into the
    /// descriptor pages granted by `grefs`.
    ///
    /// # Panics
    /// If `grefs` is longer than [`BLKIF_MAX_INDIRECT_PAGES_PER_REQUEST`].
    pub fn indirect(
        indirect_op: u8,
        handle: u16,
        id: u64,
        sector_number: u64,
        nr_segments: u16,
        grefs: &[GrantRef],
    ) -> Self {
        let mut indirect_grefs = [GrantRef(0); BLKIF_MAX_INDIRECT_PAGES_PER_REQUEST];
        indirect_grefs[..grefs.len()].copy_from_slice(grefs);
        BlkifRequest::Indirect {
            indirect_op,
            handle,
            id,
            sector_number,
            nr_segments,
            indirect_grefs,
        }
    }

    /// The frontend-chosen request id.
    pub fn id(&self) -> u64 {
        match self {
            BlkifRequest::Direct { id, .. } => *id,
            BlkifRequest::Indirect { id, .. } => *id,
        }
    }

    /// The effective I/O operation (resolving indirection).
    pub fn io_op(&self) -> u8 {
        match self {
            BlkifRequest::Direct { operation, .. } => *operation,
            BlkifRequest::Indirect { indirect_op, .. } => *indirect_op,
        }
    }

    /// The starting sector.
    pub fn sector(&self) -> u64 {
        match self {
            BlkifRequest::Direct { sector_number, .. } => *sector_number,
            BlkifRequest::Indirect { sector_number, .. } => *sector_number,
        }
    }
}

impl RingEntry for BlkifRequest {
    const SIZE: usize = 112;

    fn write_to(&self, buf: &mut [u8]) {
        buf.fill(0);
        match self {
            BlkifRequest::Direct {
                operation,
                handle,
                id,
                sector_number,
                nr_segments,
                segments,
            } => {
                buf[0] = *operation;
                buf[1] = *nr_segments;
                buf[2..4].copy_from_slice(&handle.to_le_bytes());
                buf[8..16].copy_from_slice(&id.to_le_bytes());
                buf[16..24].copy_from_slice(&sector_number.to_le_bytes());
                for (i, seg) in segments.iter().enumerate() {
                    seg.write_to(&mut buf[24 + i * 8..32 + i * 8]);
                }
            }
            BlkifRequest::Indirect {
                indirect_op,
                handle,
                id,
                sector_number,
                nr_segments,
                indirect_grefs,
            } => {
                buf[0] = BLKIF_OP_INDIRECT;
                buf[1] = *indirect_op;
                buf[2..4].copy_from_slice(&nr_segments.to_le_bytes());
                buf[4..6].copy_from_slice(&handle.to_le_bytes());
                buf[8..16].copy_from_slice(&id.to_le_bytes());
                buf[16..24].copy_from_slice(&sector_number.to_le_bytes());
                for (i, g) in indirect_grefs.iter().enumerate() {
                    buf[24 + i * 4..28 + i * 4].copy_from_slice(&g.0.to_le_bytes());
                }
            }
        }
    }

    fn read_from(buf: &[u8]) -> Self {
        let operation = buf[0];
        if operation == BLKIF_OP_INDIRECT {
            let indirect_op = buf[1];
            let nr_segments = u16::from_le_bytes(buf[2..4].try_into().unwrap());
            let handle = u16::from_le_bytes(buf[4..6].try_into().unwrap());
            let id = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            let sector_number = u64::from_le_bytes(buf[16..24].try_into().unwrap());
            let pages = (nr_segments as usize).div_ceil(SEGS_PER_INDIRECT_FRAME);
            let mut indirect_grefs = [GrantRef(0); BLKIF_MAX_INDIRECT_PAGES_PER_REQUEST];
            for (i, g) in indirect_grefs.iter_mut().enumerate().take(pages) {
                *g = GrantRef(u32::from_le_bytes(
                    buf[24 + i * 4..28 + i * 4].try_into().unwrap(),
                ));
            }
            BlkifRequest::Indirect {
                indirect_op,
                handle,
                id,
                sector_number,
                nr_segments,
                indirect_grefs,
            }
        } else {
            let nr = (buf[1] as usize).min(BLKIF_MAX_SEGMENTS_PER_REQUEST);
            let handle = u16::from_le_bytes(buf[2..4].try_into().unwrap());
            let id = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            let sector_number = u64::from_le_bytes(buf[16..24].try_into().unwrap());
            let mut segments = [BlkifSegment::ZERO; BLKIF_MAX_SEGMENTS_PER_REQUEST];
            for (i, seg) in segments.iter_mut().enumerate().take(nr) {
                *seg = BlkifSegment::read_from(&buf[24 + i * 8..32 + i * 8]);
            }
            BlkifRequest::Direct {
                operation,
                handle,
                id,
                sector_number,
                nr_segments: nr as u8,
                segments,
            }
        }
    }
}

/// A block response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlkifResponse {
    /// Echoed request id.
    pub id: u64,
    /// Echoed operation.
    pub operation: u8,
    /// `BLKIF_RSP_*` status.
    pub status: i16,
}

impl RingEntry for BlkifResponse {
    const SIZE: usize = 16;
    fn write_to(&self, buf: &mut [u8]) {
        buf.fill(0);
        buf[0..8].copy_from_slice(&self.id.to_le_bytes());
        buf[8] = self.operation;
        buf[10..12].copy_from_slice(&self.status.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        BlkifResponse {
            id: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            operation: buf[8],
            status: i16::from_le_bytes(buf[10..12].try_into().unwrap()),
        }
    }
}

/// Packs segment descriptors into an indirect page's bytes.
pub fn pack_indirect_segments(page: &mut [u8], segs: &[BlkifSegment]) {
    for (i, s) in segs.iter().enumerate().take(SEGS_PER_INDIRECT_FRAME) {
        s.write_to(&mut page[i * 8..i * 8 + 8]);
    }
}

/// Unpacks an indirect page's first `out.len()` segment descriptors
/// into `out` (at most [`SEGS_PER_INDIRECT_FRAME`]; the rest of a longer
/// `out` is left alone).
pub fn unpack_indirect_segments(page: &[u8], out: &mut [BlkifSegment]) {
    for (i, s) in out.iter_mut().enumerate().take(SEGS_PER_INDIRECT_FRAME) {
        *s = BlkifSegment::read_from(&page[i * 8..i * 8 + 8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_size_matches_xen() {
        use crate::ring::ring_size;
        assert_eq!(ring_size(BlkifRequest::SIZE, BlkifResponse::SIZE), 32);
    }

    #[test]
    fn direct_request_roundtrip() {
        let segs: Vec<BlkifSegment> = (0..11)
            .map(|i| BlkifSegment {
                gref: GrantRef(100 + i),
                first_sect: 0,
                last_sect: 7,
            })
            .collect();
        // handle 51712 = xvda
        let r = BlkifRequest::direct(BLKIF_OP_WRITE, 51712, 0xfeed, 123456, &segs);
        let mut buf = [0u8; BlkifRequest::SIZE];
        r.write_to(&mut buf);
        assert_eq!(BlkifRequest::read_from(&buf), r);
    }

    #[test]
    fn indirect_request_roundtrip() {
        let r = BlkifRequest::indirect(BLKIF_OP_READ, 51712, 7, 999, 32, &[GrantRef(1)]);
        let mut buf = [0u8; BlkifRequest::SIZE];
        r.write_to(&mut buf);
        assert_eq!(BlkifRequest::read_from(&buf), r);
    }

    #[test]
    fn every_entry_defines_every_slot_byte() {
        use crate::ring::assert_defines_every_byte;
        let seg = BlkifSegment {
            gref: GrantRef(9),
            first_sect: 1,
            last_sect: 6,
        };
        for n in [0, 1, BLKIF_MAX_SEGMENTS_PER_REQUEST] {
            let r = BlkifRequest::direct(BLKIF_OP_READ, 1, 2, 3, &vec![seg; n]);
            assert_defines_every_byte(&r);
        }
        for n in [0, 1, BLKIF_MAX_INDIRECT_PAGES_PER_REQUEST] {
            let nr = (n * SEGS_PER_INDIRECT_FRAME) as u16;
            let r = BlkifRequest::indirect(BLKIF_OP_WRITE, 1, 2, 3, nr, &vec![GrantRef(5); n]);
            assert_defines_every_byte(&r);
        }
        assert_defines_every_byte(&BlkifResponse {
            id: 4,
            operation: BLKIF_OP_READ,
            status: BLKIF_RSP_OKAY,
        });
    }

    /// The guest writes the slot, so the counts in it are the guest's:
    /// decoding clamps both to what the slot can hold.
    #[test]
    fn decoding_clamps_guest_written_counts() {
        let mut buf = [0u8; BlkifRequest::SIZE];
        BlkifRequest::direct(BLKIF_OP_READ, 0, 1, 0, &[]).write_to(&mut buf);
        buf[1] = 200;
        let BlkifRequest::Direct { nr_segments, .. } = BlkifRequest::read_from(&buf) else {
            panic!("decoded as indirect");
        };
        assert_eq!(nr_segments as usize, BLKIF_MAX_SEGMENTS_PER_REQUEST);
        BlkifRequest::indirect(BLKIF_OP_READ, 0, 1, 0, u16::MAX, &[GrantRef(1); 8])
            .write_to(&mut buf);
        let decoded = BlkifRequest::read_from(&buf);
        assert_eq!(
            decoded,
            BlkifRequest::indirect(BLKIF_OP_READ, 0, 1, 0, u16::MAX, &[GrantRef(1); 8])
        );
    }

    #[test]
    fn response_roundtrip() {
        let r = BlkifResponse {
            id: u64::MAX,
            operation: BLKIF_OP_READ,
            status: BLKIF_RSP_ERROR,
        };
        let mut buf = [0u8; BlkifResponse::SIZE];
        r.write_to(&mut buf);
        assert_eq!(BlkifResponse::read_from(&buf), r);
    }

    #[test]
    fn segment_geometry() {
        let s = BlkifSegment {
            gref: GrantRef(1),
            first_sect: 2,
            last_sect: 5,
        };
        assert_eq!(s.sectors(), 4);
        assert_eq!(s.len(), 2048);
        assert!(!s.is_empty());
        let bad = BlkifSegment {
            gref: GrantRef(1),
            first_sect: 5,
            last_sect: 2,
        };
        assert!(bad.is_empty());
        assert_eq!(bad.sectors(), 0);
    }

    #[test]
    fn direct_request_max_44kib() {
        // 11 segments x 8 sectors x 512B = 44 KiB, the paper's figure.
        let max_bytes = BLKIF_MAX_SEGMENTS_PER_REQUEST * 8 * SECTOR_SIZE;
        assert_eq!(max_bytes, 44 * 1024);
    }

    #[test]
    fn indirect_packing_roundtrip() {
        let segs: Vec<BlkifSegment> = (0..512)
            .map(|i| BlkifSegment {
                gref: GrantRef(i),
                first_sect: (i % 8) as u8,
                last_sect: 7,
            })
            .collect();
        let mut page = vec![0u8; 4096];
        pack_indirect_segments(&mut page, &segs);
        let mut back = vec![BlkifSegment::ZERO; 512];
        unpack_indirect_segments(&page, &mut back);
        assert_eq!(back, segs);
    }

    #[test]
    fn indirect_capacity_16mib() {
        // 8 pages x 512 segs x 4 KiB = 16 MiB per request, per the paper.
        let bytes = BLKIF_MAX_INDIRECT_PAGES_PER_REQUEST * SEGS_PER_INDIRECT_FRAME * 4096;
        assert_eq!(bytes, 16 * 1024 * 1024);
    }
}
