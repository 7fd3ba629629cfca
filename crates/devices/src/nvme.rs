//! An NVMe SSD model (Samsung 970 EVO Plus class) with sparse real storage
//! behind a queue-pair controller interface.
//!
//! Interface: like real NVMe, I/O goes through submission/completion queue
//! pairs created over an admin interface. A driver calls
//! [`NvmeController::create_io_queues`] once per ring (the completion side
//! gets an MSI-X-style vector steered to the ring's vCPU), posts commands
//! with [`NvmeController::sq_push`], makes them visible with
//! [`NvmeController::ring_doorbell`], and reaps [`CqEntry`] completions with
//! [`NvmeController::cq_pop`] when the vector fires. Sequential detection is
//! **per queue**: each pair keeps its own `last_end_sector` cursor, so one
//! ring's strictly sequential stream never pays the random penalty just
//! because another ring is writing elsewhere — the property that makes
//! multi-ring blkback scale instead of regress.
//!
//! Timing: commands dispatch onto a small number of parallel flash channels
//! *shared across queues* (queue pairs are a software construct; the flash
//! is not). The channels are a [`CpuPool`]: each serializes its commands'
//! transfer time at the per-channel rate, a command goes to the
//! least-loaded one, and its base latency follows once the channel frees.
//! Aggregate sequential bandwidth is therefore `channels × channel_rate`,
//! queue-depth scaling and per-command latency emerge naturally, and a
//! `flush` barrier completes when every channel drains.
//!
//! Data: written sectors are stored at 4 KiB block granularity in a
//! packed log, the way a flash translation layer lays out a drive: a
//! block's first write appends it to the open 64-block chunk, and a
//! two-level index maps each block to its slot. Tests read back *real
//! bytes* without reserving the drive's capacity in RAM, and only written
//! blocks are backed. Unwritten regions read as zeros, like a fresh drive.

use std::collections::VecDeque;

use kite_sim::{CpuPool, Nanos};

/// Sector size in bytes.
pub const SECTOR_SIZE: usize = 512;
const BLOCK_SECTORS: u64 = 8; // 4 KiB blocks
const BLOCK_SIZE: usize = (BLOCK_SECTORS as usize) * SECTOR_SIZE;
/// Blocks per media chunk: the log grows 256 KiB at a time.
const CHUNK_BLOCKS: usize = 64;
/// Blocks per index leaf: a leaf is created by the first write under it.
const LEAF_BLOCKS: usize = 512;

/// Default cap on I/O queue pairs (the 970 EVO Plus reports 32; we allow
/// a few more so ablation configs can oversubscribe).
pub const MAX_IO_QUEUES: usize = 64;

/// Submission-queue depth per I/O queue (NVMe allows 64Ki; real drivers
/// negotiate ~1024).
pub const SQ_DEPTH: usize = 1024;

/// An I/O command kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NvmeOp {
    /// Read sectors.
    Read,
    /// Write sectors.
    Write,
    /// Flush the volatile write cache (barrier).
    Flush,
}

/// An I/O queue-pair identifier. NVMe-style 1-based: queue 0 is the admin
/// queue and never carries I/O.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QueueId(pub u16);

/// A controller-assigned command identifier, unique for the lifetime of
/// the controller (never recycled, so stale completions are detectable).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Cid(pub u64);

/// A submission-queue command.
#[derive(Clone, Copy, Debug)]
pub struct NvmeCmd {
    /// Command kind.
    pub op: NvmeOp,
    /// Starting sector (ignored for flush).
    pub sector: u64,
    /// Transfer length in bytes (ignored for flush).
    pub len_bytes: usize,
}

impl NvmeCmd {
    /// A read command.
    pub fn read(sector: u64, len_bytes: usize) -> NvmeCmd {
        NvmeCmd {
            op: NvmeOp::Read,
            sector,
            len_bytes,
        }
    }

    /// A write command.
    pub fn write(sector: u64, len_bytes: usize) -> NvmeCmd {
        NvmeCmd {
            op: NvmeOp::Write,
            sector,
            len_bytes,
        }
    }

    /// A flush barrier.
    pub fn flush() -> NvmeCmd {
        NvmeCmd {
            op: NvmeOp::Flush,
            sector: 0,
            len_bytes: 0,
        }
    }
}

/// A completion-queue entry: which command finished and when.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CqEntry {
    /// The command this entry completes.
    pub cid: Cid,
    /// Virtual time at which the device posts the completion.
    pub completes_at: Nanos,
}

/// An MSI-X-style completion vector, numbered by its queue's id: the
/// vCPU the interrupt is steered to (affinity set at queue creation, the
/// way `irq_set_affinity` pins NVMe completion vectors per-core).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MsixVector {
    /// Target vCPU in the owning domain's `CpuPool`.
    pub vcpu: usize,
}

/// Performance envelope of the drive.
///
/// Construct with [`Default`] and refine with struct update syntax or
/// [`NvmeProfile::with_random_penalty`]:
///
/// ```
/// use kite_devices::NvmeProfile;
/// use kite_sim::Nanos;
/// let p = NvmeProfile {
///     channels: 8,
///     ..NvmeProfile::default().with_random_penalty(Nanos::from_micros(100))
/// };
/// assert_eq!(p.channels, 8);
/// ```
#[derive(Clone, Debug)]
pub struct NvmeProfile {
    /// Extra service latency charged when a command does not continue the
    /// previous command's LBA range *on the same queue* (FTL lookup, lost
    /// write-coalescing, read-ahead miss). This is what separates the
    /// paper's sequential dd rates from its random sysbench rates on the
    /// same device.
    pub random_penalty: Nanos,
    /// Parallel flash channels (shared by all queue pairs).
    pub channels: usize,
    /// Per-channel transfer rate for reads, bytes/sec.
    pub read_bps_per_channel: u64,
    /// Per-channel transfer rate for writes, bytes/sec.
    pub write_bps_per_channel: u64,
    /// Fixed read command latency (flash + controller).
    pub read_latency: Nanos,
    /// Fixed write command latency (into SLC cache).
    pub write_latency: Nanos,
    /// Flush completion overhead after channels drain.
    pub flush_latency: Nanos,
}

impl Default for NvmeProfile {
    fn default() -> NvmeProfile {
        // 970 EVO Plus 500GB: ~3.5 GB/s seq read, ~3.2 GB/s seq write.
        NvmeProfile {
            random_penalty: Nanos::from_micros(2800),
            channels: 4,
            read_bps_per_channel: 875_000_000,
            write_bps_per_channel: 800_000_000,
            read_latency: Nanos::from_micros(70),
            write_latency: Nanos::from_micros(25),
            flush_latency: Nanos::from_micros(150),
        }
    }
}

impl NvmeProfile {
    /// Sets the non-sequential command penalty.
    pub fn with_random_penalty(mut self, penalty: Nanos) -> NvmeProfile {
        self.random_penalty = penalty;
        self
    }
}

/// One I/O SQ/CQ pair. The CQ is kept ordered by completion time
/// (insertion order breaks ties) so `cq_pop` is head-of-queue.
struct IoQueue {
    vector: MsixVector,
    sq: VecDeque<(Cid, NvmeCmd)>,
    cq: VecDeque<CqEntry>,
    last_end_sector: u64,
}

impl IoQueue {
    fn new(vector: MsixVector) -> IoQueue {
        IoQueue {
            vector,
            sq: VecDeque::new(),
            cq: VecDeque::new(),
            last_end_sector: u64::MAX,
        }
    }
}

/// The drive's contents as a log of 4 KiB blocks in first-write order.
/// Chunk `c` holds slots `c * CHUNK_BLOCKS ..` and is allocated whole
/// but filled block by block, so only the last chunk has free slots. A
/// first write that covers its block appends its bytes; one that covers
/// part of it appends a zeroed block first, so the rest reads zero.
/// Index leaf `l` maps blocks `l * LEAF_BLOCKS ..` to their slot plus
/// one (0: never written). Blocks are never freed: the drive has no
/// discard.
#[derive(Default)]
struct Media {
    index: Vec<Option<Box<[u32; LEAF_BLOCKS]>>>,
    chunks: Vec<Vec<u8>>,
    /// Slots handed out so far: every block ever written.
    used: usize,
}

impl Media {
    /// The block's bytes, or `None` if no write ever reached it.
    fn block(&self, block: u64) -> Option<&[u8]> {
        let leaf = self.index.get(block as usize / LEAF_BLOCKS)?.as_ref()?;
        let slot = leaf[block as usize % LEAF_BLOCKS].checked_sub(1)? as usize;
        let at = slot % CHUNK_BLOCKS * BLOCK_SIZE;
        Some(&self.chunks[slot / CHUNK_BLOCKS][at..at + BLOCK_SIZE])
    }

    /// Writes `bytes` at offset `at` of the block, appending the block to
    /// the log on its first write (opening a chunk when the last is full).
    fn write(&mut self, block: u64, at: usize, bytes: &[u8]) {
        let leaf = block as usize / LEAF_BLOCKS;
        if leaf >= self.index.len() {
            self.index.resize_with(leaf + 1, || None);
        }
        let entry = &mut self.index[leaf].get_or_insert_with(|| Box::new([0; LEAF_BLOCKS]))
            [block as usize % LEAF_BLOCKS];
        if *entry == 0 {
            if self.used.is_multiple_of(CHUNK_BLOCKS) {
                self.chunks
                    .push(Vec::with_capacity(CHUNK_BLOCKS * BLOCK_SIZE));
            }
            self.used += 1;
            *entry = u32::try_from(self.used).expect("media slots fit the index");
            let chunk = self.chunks.last_mut().expect("a chunk with a free slot");
            if bytes.len() == BLOCK_SIZE {
                chunk.extend_from_slice(bytes);
                return;
            }
            chunk.resize(chunk.len() + BLOCK_SIZE, 0);
        }
        let slot = *entry as usize - 1;
        let start = slot % CHUNK_BLOCKS * BLOCK_SIZE + at;
        self.chunks[slot / CHUNK_BLOCKS][start..start + bytes.len()].copy_from_slice(bytes);
    }
}

/// The drive: queue-pair controller, timing model, packed contents.
pub struct NvmeController {
    profile: NvmeProfile,
    /// Capacity in 512-byte sectors.
    pub sectors: u64,
    max_io_queues: usize,
    // Physical flash channels, shared by every queue pair and
    // interchangeable: only how busy each is matters, never which.
    channels: CpuPool,
    // Slot i holds QueueId(i + 1); freed slots are reused lowest-first so
    // queue ids stay deterministic across delete/create cycles.
    queues: Vec<Option<IoQueue>>,
    next_cid: u64,
    posted: Vec<CqEntry>,
    media: Media,
    reads: u64,
    writes: u64,
    seq_hits: u64,
    random_penalties: u64,
}

impl NvmeController {
    /// Creates a drive of `capacity_gib` gibibytes with the default profile.
    pub fn new(capacity_gib: u64) -> NvmeController {
        NvmeController::with_profile(capacity_gib, NvmeProfile::default())
    }

    /// Creates a drive with an explicit performance profile.
    ///
    /// The channel pool is sized from `profile.channels` here, once;
    /// the profile is immutable afterwards (see [`NvmeController::profile`])
    /// so the two can never desynchronize.
    pub fn with_profile(capacity_gib: u64, profile: NvmeProfile) -> NvmeController {
        assert!(profile.channels >= 1, "a drive needs at least one channel");
        NvmeController {
            channels: CpuPool::new(profile.channels),
            profile,
            sectors: capacity_gib * 1024 * 1024 * 1024 / SECTOR_SIZE as u64,
            max_io_queues: MAX_IO_QUEUES,
            queues: Vec::new(),
            next_cid: 0,
            posted: Vec::new(),
            media: Media::default(),
            reads: 0,
            writes: 0,
            seq_hits: 0,
            random_penalties: 0,
        }
    }

    /// Caps the number of I/O queue pairs the admin interface will create
    /// (builder-style; chain after [`NvmeController::with_profile`]).
    pub fn with_max_io_queues(mut self, max: usize) -> NvmeController {
        assert!(max >= 1, "controller must offer at least one I/O queue");
        self.max_io_queues = max;
        self
    }

    /// The immutable performance envelope.
    pub fn profile(&self) -> &NvmeProfile {
        &self.profile
    }

    /// Currently existing I/O queue pairs.
    pub fn io_queue_count(&self) -> usize {
        self.queues.len()
    }

    fn slot(qid: QueueId) -> usize {
        assert!(qid.0 >= 1, "queue 0 is the admin queue, not an I/O queue");
        qid.0 as usize - 1
    }

    fn queue(&self, qid: QueueId) -> Option<&IoQueue> {
        self.queues.get(Self::slot(qid))?.as_ref()
    }

    /// Admin command: create an I/O SQ/CQ pair whose completion vector is
    /// steered to `vcpu` in the owning domain's `CpuPool`.
    ///
    /// Returns the new queue id (ids count up from 1, deterministic), or
    /// `None` if the controller's queue cap is exhausted — callers then
    /// share an existing pair, exactly like Linux blk-mq maps more
    /// hardware contexts than the device has queues.
    pub fn create_io_queues(&mut self, vcpu: usize) -> Option<QueueId> {
        if self.queues.len() >= self.max_io_queues {
            return None;
        }
        let qid = QueueId(self.queues.len() as u16 + 1);
        self.queues.push(Some(IoQueue::new(MsixVector { vcpu })));
        Some(qid)
    }

    /// Controller-level reset (what a function-level reset before PCI
    /// re-assignment does): every I/O queue pair disappears along with
    /// its cursors and unreaped completions. Media state — stored bytes,
    /// channel busy times, lifetime counters — survives.
    pub fn reset(&mut self) {
        self.queues.clear();
        self.posted.clear();
    }

    /// The MSI-X vector of a queue pair, if it exists.
    pub fn vector_of(&self, qid: QueueId) -> Option<MsixVector> {
        Some(self.queue(qid)?.vector)
    }

    /// Posts a command to a queue's submission queue. The command is not
    /// visible to the controller until [`NvmeController::ring_doorbell`].
    ///
    /// # Panics
    ///
    /// Panics if the queue does not exist or its SQ is full ([`SQ_DEPTH`])
    /// — drivers size their request windows below the SQ depth.
    pub fn sq_push(&mut self, qid: QueueId, cmd: NvmeCmd) -> Cid {
        let cid = Cid(self.next_cid);
        self.next_cid += 1;
        let q = self
            .queues
            .get_mut(Self::slot(qid))
            .and_then(|s| s.as_mut())
            .expect("sq_push: no such I/O queue");
        assert!(q.sq.len() < SQ_DEPTH, "sq_push: submission queue overflow");
        q.sq.push_back((cid, cmd));
        cid
    }

    /// Rings a queue's doorbell at `now`: the controller consumes every
    /// posted SQ command in FIFO order, executes it against the shared
    /// flash channels with this queue's sequential cursor, and posts one
    /// CQ entry per command. Returns the newly posted entries (ordered by
    /// submission) so the caller can schedule the completion interrupts.
    pub fn ring_doorbell(&mut self, qid: QueueId, now: Nanos) -> &[CqEntry] {
        self.posted.clear();
        let slot = Self::slot(qid);
        // Take the queue out so command execution can borrow the shared
        // channel state mutably alongside the queue's cursor.
        let mut q = self.queues[slot]
            .take()
            .expect("ring_doorbell: no such I/O queue");
        while let Some((cid, cmd)) = q.sq.pop_front() {
            let completes_at = self.execute(&mut q, now, cmd);
            let entry = CqEntry { cid, completes_at };
            let at = q.cq.partition_point(|e| e.completes_at <= completes_at);
            q.cq.insert(at, entry);
            self.posted.push(entry);
        }
        self.queues[slot] = Some(q);
        &self.posted
    }

    /// Reaps the next due completion from a queue's CQ: returns the
    /// head entry if its completion time has been reached at `now`.
    pub fn cq_pop(&mut self, qid: QueueId, now: Nanos) -> Option<CqEntry> {
        let q = self.queues.get_mut(Self::slot(qid))?.as_mut()?;
        if q.cq.front()?.completes_at <= now {
            q.cq.pop_front()
        } else {
            None
        }
    }

    /// Executes one command: the timing model. Sequential detection uses
    /// the *queue's* cursor; channel occupancy is shared device-wide.
    fn execute(&mut self, q: &mut IoQueue, now: Nanos, cmd: NvmeCmd) -> Nanos {
        match cmd.op {
            NvmeOp::Flush => self.channels.drained_at().max(now) + self.profile.flush_latency,
            NvmeOp::Read | NvmeOp::Write => {
                let len_bytes = cmd.len_bytes;
                let (rate, base) = if cmd.op == NvmeOp::Read {
                    self.reads += 1;
                    (self.profile.read_bps_per_channel, self.profile.read_latency)
                } else {
                    self.writes += 1;
                    (
                        self.profile.write_bps_per_channel,
                        self.profile.write_latency,
                    )
                };
                let sequential = cmd.sector == q.last_end_sector;
                q.last_end_sector = cmd.sector + (len_bytes / SECTOR_SIZE) as u64;
                let penalty = if sequential {
                    self.seq_hits += 1;
                    Nanos::ZERO
                } else {
                    self.random_penalties += 1;
                    self.profile.random_penalty
                };
                // Large *sequential* commands stripe across channels
                // inside the controller (read-ahead friendly layout), and
                // pay no penalty; random commands land on one channel and
                // carry their penalty there, so random throughput is
                // penalty-bound — the regime the paper's
                // sysbench/Filebench runs sit in.
                const STRIPE_MIN: usize = 128 * 1024;
                let busy_done = if sequential && len_bytes >= STRIPE_MIN {
                    let n = self.channels.len();
                    let slice =
                        Nanos((len_bytes as u64 / n as u64).saturating_mul(1_000_000_000) / rate);
                    (0..n)
                        .map(|ch| self.channels.run_on(ch, now, slice))
                        .max()
                        .expect("a drive has channels")
                } else {
                    let transfer = Nanos((len_bytes as u64).saturating_mul(1_000_000_000) / rate);
                    self.channels.run_least_loaded(now, penalty + transfer)
                };
                busy_done + base
            }
        }
    }

    /// Writes real bytes at a sector offset (data plane; timing via the
    /// queue-pair interface).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity — the blkback layer
    /// validates requests before they reach the device.
    pub fn write_data(&mut self, sector: u64, data: &[u8]) {
        assert!(
            sector
                .checked_add(data.len().div_ceil(SECTOR_SIZE) as u64)
                .is_some_and(|end| end <= self.sectors),
            "write beyond device capacity"
        );
        let mut off = 0usize;
        let mut sec = sector;
        while off < data.len() {
            let block = sec / BLOCK_SECTORS;
            let in_block = ((sec % BLOCK_SECTORS) as usize) * SECTOR_SIZE;
            let n = (BLOCK_SIZE - in_block).min(data.len() - off);
            self.media.write(block, in_block, &data[off..off + n]);
            off += n;
            sec = block * BLOCK_SECTORS + ((in_block + n) / SECTOR_SIZE) as u64;
        }
    }

    /// Reads real bytes at a sector offset; unwritten regions are zeros.
    pub fn read_data(&self, sector: u64, out: &mut [u8]) {
        let mut off = 0usize;
        let mut sec = sector;
        while off < out.len() {
            let block = sec / BLOCK_SECTORS;
            let in_block = ((sec % BLOCK_SECTORS) as usize) * SECTOR_SIZE;
            let n = (BLOCK_SIZE - in_block).min(out.len() - off);
            match self.media.block(block) {
                Some(buf) => out[off..off + n].copy_from_slice(&buf[in_block..in_block + n]),
                None => out[off..off + n].fill(0),
            }
            off += n;
            sec = block * BLOCK_SECTORS + ((in_block + n) / SECTOR_SIZE) as u64;
        }
    }

    /// Read command count.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Write command count.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Commands that continued their queue's LBA cursor.
    pub fn seq_hits(&self) -> u64 {
        self.seq_hits
    }

    /// Commands that paid [`NvmeProfile::random_penalty`].
    pub fn random_penalties(&self) -> u64 {
        self.random_penalties
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// One synchronous command on queue pair `q`: push → doorbell → pop.
    fn submit(d: &mut NvmeController, q: QueueId, now: Nanos, cmd: NvmeCmd) -> Nanos {
        d.sq_push(q, cmd);
        let done = d.ring_doorbell(q, now)[0].completes_at;
        d.cq_pop(q, done).expect("own CQ entry");
        done
    }

    #[test]
    fn data_roundtrip_across_blocks() {
        let mut d = NvmeController::new(1);
        let data: Vec<u8> = (0..20000).map(|i| (i % 251) as u8).collect();
        d.write_data(5, &data); // straddles several 4 KiB blocks
        let mut back = vec![0u8; 20000];
        d.read_data(5, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn unwritten_reads_zero() {
        let d = NvmeController::new(1);
        let mut buf = vec![0xffu8; 1024];
        d.read_data(1000, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    /// A first write covering a whole block, and one covering part of
    /// a block after it, read back exactly: the partial one's unwritten
    /// sectors read zero.
    #[test]
    fn whole_and_partial_first_writes_read_back() {
        let mut d = NvmeController::new(1);
        let data: Vec<u8> = (0..4096 + 1024).map(|i| (i % 253) as u8 + 1).collect();
        d.write_data(8, &data);
        let mut back = vec![0xffu8; 8192];
        d.read_data(8, &mut back);
        assert_eq!(back[..data.len()], data[..]);
        assert!(back[data.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn partial_overwrite_preserves_neighbors() {
        let mut d = NvmeController::new(1);
        d.write_data(0, &[0xaa; 4096]);
        d.write_data(2, &[0xbb; 512]); // overwrite sector 2 only
        let mut buf = vec![0u8; 4096];
        d.read_data(0, &mut buf);
        assert!(buf[..1024].iter().all(|&b| b == 0xaa));
        assert!(buf[1024..1536].iter().all(|&b| b == 0xbb));
        assert!(buf[1536..].iter().all(|&b| b == 0xaa));
    }

    /// The packed media reads back like a plain map of whole blocks.
    /// Over seeded mixes of writes and reads at random sector offsets —
    /// sub-block, block-straddling and multi-chunk, mostly not 4 KiB
    /// aligned, overwriting as often as not, with a controller reset
    /// midway — every read is byte-equal to the reference's, including
    /// reads of never-written blocks under an index leaf and past every
    /// leaf.
    #[test]
    fn media_reads_back_like_a_block_map() {
        // Three index leaves' worth of sectors, and a few far beyond.
        const SPAN: u64 = 3 * LEAF_BLOCKS as u64 * BLOCK_SECTORS;
        const BS: u64 = BLOCK_SIZE as u64;
        for seed in 0..4 {
            let mut rng = kite_sim::Pcg::seeded(seed);
            let mut d = NvmeController::new(1);
            let mut model: BTreeMap<u64, [u8; BLOCK_SIZE]> = BTreeMap::new();
            let (mut unwritten_in_leaf, mut unwritten_past_leaves) = (0, 0);
            let mut buf = Vec::new();
            for op in 0..2000 {
                if op == 1000 {
                    d.reset();
                }
                let len = match rng.index(4) {
                    0 => 1 + rng.index(BLOCK_SIZE),
                    1 => 1 + rng.index(3 * BLOCK_SIZE),
                    2 => 1 + rng.index(5 * CHUNK_BLOCKS * BLOCK_SIZE / 2),
                    _ => BLOCK_SIZE * (1 + rng.index(4)),
                };
                let sector = if rng.chance(0.05) {
                    rng.range_u64(SPAN, d.sectors - (len / SECTOR_SIZE + 1) as u64)
                } else {
                    rng.range_u64(0, SPAN)
                };
                // The bytes `[first, end)` as (block, offset in it, offset
                // in `buf`, length) pieces.
                let first = sector * SECTOR_SIZE as u64;
                let end = first + len as u64;
                let pieces = (first / BS..=(end - 1) / BS).map(|b| {
                    let lo = first.max(b * BS);
                    let hi = end.min((b + 1) * BS);
                    let at = (lo - b * BS) as usize;
                    (b, at, (lo - first) as usize, (hi - lo) as usize)
                });
                buf.resize(len, 0);
                if rng.chance(0.5) {
                    rng.fill_bytes(&mut buf);
                    d.write_data(sector, &buf);
                    for (b, at, off, n) in pieces {
                        let block = model.entry(b).or_insert([0; BLOCK_SIZE]);
                        block[at..at + n].copy_from_slice(&buf[off..off + n]);
                    }
                    continue;
                }
                buf.fill(0xee);
                d.read_data(sector, &mut buf);
                for (b, at, off, n) in pieces {
                    let got = &buf[off..off + n];
                    match model.get(&b) {
                        Some(block) => assert_eq!(
                            got,
                            &block[at..at + n],
                            "seed {seed} op {op}: block {b} of {len} bytes at sector {sector}"
                        ),
                        None => {
                            assert!(got.iter().all(|&x| x == 0), "seed {seed} op {op}: {b}");
                            match d.media.index.get(b as usize / LEAF_BLOCKS) {
                                Some(Some(_)) => unwritten_in_leaf += 1,
                                _ => unwritten_past_leaves += 1,
                            }
                        }
                    }
                }
            }
            assert!(
                d.media.chunks.len() > 8,
                "seed {seed}: the log spans chunks"
            );
            assert!(
                unwritten_in_leaf > 0 && unwritten_past_leaves > 0,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sequential_bandwidth_approaches_aggregate() {
        let mut d = NvmeController::new(4);
        let q = d.create_io_queues(0).unwrap();
        let chunk = 1 << 20; // 1 MiB commands
        let total: u64 = 512 << 20; // 512 MiB
        let mut done = Nanos::ZERO;
        let mut sector = 0u64;
        for _ in 0..(total / chunk as u64) {
            // Open-loop: all queued at t=0.
            d.sq_push(q, NvmeCmd::read(sector, chunk));
            done = done.max(d.ring_doorbell(q, Nanos::ZERO)[0].completes_at);
            d.cq_pop(q, done).unwrap();
            sector += (chunk / SECTOR_SIZE) as u64;
        }
        let bps = total as f64 / done.as_secs_f64();
        let aggregate = (d.profile().channels as u64 * d.profile().read_bps_per_channel) as f64;
        assert!(bps > 0.9 * aggregate, "bps={bps:.0} vs {aggregate:.0}");
        assert!(bps <= aggregate * 1.01);
    }

    #[test]
    fn small_random_reads_latency_bound() {
        let mut d = NvmeController::new(4);
        let q = d.create_io_queues(0).unwrap();
        let t = submit(&mut d, q, Nanos::ZERO, NvmeCmd::read(0, 4096));
        // One 4K read ≈ base latency + ~4.7µs transfer.
        assert!(t >= d.profile().read_latency + d.profile().random_penalty);
        assert!(t < d.profile().read_latency + d.profile().random_penalty + Nanos::from_micros(10));
    }

    #[test]
    fn flush_waits_for_outstanding_writes() {
        let mut d = NvmeController::new(4);
        let q = d.create_io_queues(0).unwrap();
        let w = submit(&mut d, q, Nanos::ZERO, NvmeCmd::write(0, 8 << 20));
        let f = submit(&mut d, q, Nanos::ZERO, NvmeCmd::flush());
        assert!(
            f + d.profile().write_latency >= w,
            "flush must drain writes"
        );
        assert!(f >= w - d.profile().write_latency);
    }

    #[test]
    fn counters_accumulate() {
        let mut d = NvmeController::new(1);
        let q = d.create_io_queues(0).unwrap();
        submit(&mut d, q, Nanos::ZERO, NvmeCmd::read(0, 4096));
        submit(&mut d, q, Nanos::ZERO, NvmeCmd::write(8, 512));
        submit(&mut d, q, Nanos::ZERO, NvmeCmd::flush());
        // A flush moves no data and counts as neither.
        assert_eq!((d.reads(), d.writes()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn write_past_end_panics() {
        let mut d = NvmeController::new(1);
        let last = d.sectors;
        d.write_data(last, &[0u8; 512]);
    }

    #[test]
    fn queue_ids_are_deterministic() {
        let mut d = NvmeController::new(1);
        let q1 = d.create_io_queues(0).unwrap();
        let q2 = d.create_io_queues(7).unwrap();
        let q3 = d.create_io_queues(2).unwrap();
        assert_eq!((q1, q2, q3), (QueueId(1), QueueId(2), QueueId(3)));
        assert_eq!(d.vector_of(q2), Some(MsixVector { vcpu: 7 }));
        assert_eq!(d.io_queue_count(), 3);
    }

    #[test]
    fn queue_cap_exhaustion_returns_none() {
        let mut d = NvmeController::new(1).with_max_io_queues(2);
        assert!(d.create_io_queues(0).is_some());
        assert!(d.create_io_queues(1).is_some());
        assert_eq!(d.create_io_queues(2), None);
        assert_eq!(d.io_queue_count(), 2);
    }

    #[test]
    fn doorbell_posts_cq_entries_in_completion_order() {
        let mut d = NvmeController::new(1);
        let q = d.create_io_queues(0).unwrap();
        // A random 4K write then a second random 4K write: both pay the
        // penalty, land on different channels, same completion math —
        // CQ order must follow completion time with FIFO tie-break.
        d.sq_push(q, NvmeCmd::write(0, 4096));
        d.sq_push(q, NvmeCmd::write(1 << 20, 4096));
        let posted: Vec<CqEntry> = d.ring_doorbell(q, Nanos::ZERO).to_vec();
        assert_eq!(posted.len(), 2);
        // Nothing is due before its completion time.
        assert_eq!(d.cq_pop(q, posted[0].completes_at - Nanos(1)), None);
        let first = d.cq_pop(q, Nanos(u64::MAX)).unwrap();
        let second = d.cq_pop(q, Nanos(u64::MAX)).unwrap();
        assert!(first.completes_at <= second.completes_at);
        assert_eq!(d.cq_pop(q, Nanos(u64::MAX)), None);
    }

    #[test]
    fn per_queue_cursors_are_independent() {
        let mut d = NvmeController::new(4);
        let qa = d.create_io_queues(0).unwrap();
        let qb = d.create_io_queues(1).unwrap();
        // Queue A: strictly sequential. Queue B: interleaved elsewhere.
        let mut sector = 0u64;
        for i in 0..32 {
            d.sq_push(qa, NvmeCmd::write(sector, 4096));
            d.ring_doorbell(qa, Nanos::ZERO);
            sector += 8;
            d.sq_push(qb, NvmeCmd::write(1 << 20 | (i * 512), 4096));
            d.ring_doorbell(qb, Nanos::ZERO);
        }
        // A pays exactly one penalty (its first command); B pays one per
        // command since its stream never continues its own cursor.
        assert_eq!(d.random_penalties(), 1 + 32);
        assert_eq!(d.seq_hits(), 31);
    }

    #[test]
    fn reset_drops_queues_but_keeps_media() {
        let mut d = NvmeController::new(1);
        d.write_data(0, &[0x5a; 512]);
        let q = d.create_io_queues(0).unwrap();
        d.sq_push(q, NvmeCmd::write(0, 4096));
        d.ring_doorbell(q, Nanos::ZERO);
        let writes_before = d.writes();
        d.reset();
        assert_eq!(d.io_queue_count(), 0);
        assert_eq!(d.vector_of(q), None);
        assert_eq!(d.cq_pop(q, Nanos(u64::MAX)), None);
        // Media contents and lifetime counters survive the reset.
        let mut buf = [0u8; 512];
        d.read_data(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0x5a));
        assert_eq!(d.writes(), writes_before);
        // Queue ids restart from 1, deterministically.
        assert_eq!(d.create_io_queues(0), Some(QueueId(1)));
    }

    #[test]
    fn profile_channels_cannot_desync_from_channel_vec() {
        // Regression: `NvmeController::new` used to snapshot `profile.channels` into
        // the channel vector while leaving `profile` public — mutating it
        // afterwards silently desynced the two. The profile is now fixed
        // at construction, so the only way to choose a channel count is
        // `with_profile`, and the vector always matches.
        let d = NvmeController::with_profile(
            4,
            NvmeProfile {
                channels: 8,
                ..NvmeProfile::default()
            },
        );
        assert_eq!(d.profile().channels, 8);
        let mut done = Nanos::ZERO;
        let mut d = d;
        let q = d.create_io_queues(0).unwrap();
        let chunk = 1 << 20;
        let total: u64 = 512 << 20;
        let mut sector = 0u64;
        for _ in 0..(total / chunk as u64) {
            d.sq_push(q, NvmeCmd::read(sector, chunk));
            done = done.max(d.ring_doorbell(q, Nanos::ZERO)[0].completes_at);
            sector += (chunk / SECTOR_SIZE) as u64;
        }
        let bps = total as f64 / done.as_secs_f64();
        // Throughput must reflect all 8 channels, not a stale default 4.
        let aggregate = (8 * NvmeProfile::default().read_bps_per_channel) as f64;
        assert!(bps > 0.9 * aggregate, "bps={bps:.0} vs {aggregate:.0}");
    }

    /// The timing model with the channel pick it had before the channels
    /// became a least-loaded [`CpuPool`]: the first strictly least-loaded
    /// channel, but a round-robin pick when every channel is equally
    /// free. Kept as the reference the pool must match.
    struct RoundRobinChannels {
        profile: NvmeProfile,
        free: Vec<Nanos>,
        rr: usize,
        cursors: Vec<u64>,
    }

    impl RoundRobinChannels {
        fn new(queues: usize) -> RoundRobinChannels {
            let profile = NvmeProfile::default();
            RoundRobinChannels {
                free: vec![Nanos::ZERO; profile.channels],
                profile,
                rr: 0,
                cursors: vec![u64::MAX; queues],
            }
        }

        fn run(&mut self, ch: usize, now: Nanos, cost: Nanos) -> Nanos {
            self.free[ch] = self.free[ch].max(now) + cost;
            self.free[ch]
        }

        fn pick_channel(&mut self) -> usize {
            let mut best = 0;
            for (i, &f) in self.free.iter().enumerate() {
                if f < self.free[best] {
                    best = i;
                }
            }
            if self.free.iter().all(|&f| f == self.free[best]) {
                best = self.rr % self.free.len();
                self.rr += 1;
            }
            best
        }

        fn execute(&mut self, q: usize, now: Nanos, cmd: NvmeCmd) -> Nanos {
            let p = self.profile.clone();
            let (rate, base) = match cmd.op {
                NvmeOp::Flush => {
                    let drain = self.free.iter().copied().max().unwrap().max(now);
                    return drain + p.flush_latency;
                }
                NvmeOp::Read => (p.read_bps_per_channel, p.read_latency),
                NvmeOp::Write => (p.write_bps_per_channel, p.write_latency),
            };
            let len = cmd.len_bytes as u64;
            let sequential = cmd.sector == self.cursors[q];
            self.cursors[q] = cmd.sector + len / SECTOR_SIZE as u64;
            let penalty = if sequential {
                Nanos::ZERO
            } else {
                p.random_penalty
            };
            let done = if sequential && len >= 128 * 1024 {
                let n = self.free.len();
                let slice = Nanos((len / n as u64) * 1_000_000_000 / rate);
                (0..n).map(|ch| self.run(ch, now, slice)).max().unwrap()
            } else {
                let ch = self.pick_channel();
                self.run(ch, now, penalty + Nanos(len * 1_000_000_000 / rate))
            };
            done + base
        }
    }

    /// Which of several equally free channels takes a command is not
    /// observable: over a seeded mix of reads, writes and flushes,
    /// sequential and random, below and at or above the 128 KiB stripe
    /// size, in bursts and after idle gaps, on 1–4 queue pairs, every
    /// completion time equals the round-robin reference's.
    #[test]
    fn least_loaded_channels_complete_like_the_round_robin_pick() {
        for seed in 0..24 {
            let mut rng = kite_sim::Pcg::seeded(seed);
            let nq = 1 + (seed as usize % 4);
            let mut d = NvmeController::new(16);
            let qids: Vec<QueueId> = (0..nq).map(|v| d.create_io_queues(v).unwrap()).collect();
            let mut model = RoundRobinChannels::new(nq);
            let mut cursors = vec![None; nq];
            let mut now = Nanos::ZERO;
            for _ in 0..150 {
                now += match rng.index(3) {
                    0 => Nanos::ZERO,
                    1 => Nanos(rng.range_u64(1, 50_000)),
                    _ => Nanos(rng.range_u64(1, 20_000_000)),
                };
                let q = rng.index(nq);
                let burst = 1 + rng.index(4);
                let mut cmds = Vec::new();
                for _ in 0..burst {
                    let len = if rng.chance(0.5) {
                        SECTOR_SIZE * (1 + rng.index(255))
                    } else {
                        128 * 1024 + SECTOR_SIZE * rng.index(1793)
                    };
                    let sector = match cursors[q] {
                        Some(c) if rng.chance(0.6) => c,
                        _ => rng.range_u64(0, 1 << 24),
                    };
                    let cmd = match rng.index(10) {
                        0 => NvmeCmd::flush(),
                        1..=4 => NvmeCmd::read(sector, len),
                        _ => NvmeCmd::write(sector, len),
                    };
                    if cmd.op != NvmeOp::Flush {
                        cursors[q] = Some(sector + (len / SECTOR_SIZE) as u64);
                    }
                    d.sq_push(qids[q], cmd);
                    cmds.push(cmd);
                }
                let posted = d.ring_doorbell(qids[q], now).to_vec();
                assert_eq!(posted.len(), cmds.len());
                for (entry, cmd) in posted.iter().zip(cmds) {
                    let want = model.execute(q, now, cmd);
                    assert_eq!(entry.completes_at, want, "seed {seed}: {cmd:?} at {now:?}");
                }
                while d.cq_pop(qids[q], Nanos(u64::MAX)).is_some() {}
            }
            // The tiebreak fired: the mix met equally free channels.
            assert!(model.rr > 5, "seed {seed}: {} round-robin picks", model.rr);
        }
    }
}
