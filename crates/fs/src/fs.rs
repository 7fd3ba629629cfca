//! The filesystem: names, inodes, extents, and I/O planning.
//!
//! The guest's workloads (Filebench personalities, sysbench file I/O,
//! MySQL's tablespaces) run over this FS mounted on a blkfront device. An
//! operation returns the *device I/Os* it implies — byte-addressed runs the
//! caller pushes through blkfront — so block traffic patterns (sequential
//! runs, fragmentation-induced scatter, cache-filtered reads) emerge from
//! real metadata rather than being postulated.
//!
//! Writes are write-through (each write returns its device I/Os and
//! populates the read cache); partial-block read-modify-write is not
//! modeled, which slightly favors neither OS since both backends see the
//! same stream.

use std::collections::{BTreeMap, HashMap};

use crate::alloc::{Extent, ExtentAllocator};
use crate::cache::ReadCache;

/// An inode number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ino(pub u64);

/// Filesystem errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsError {
    /// Name already exists.
    Exists,
    /// No such file.
    NotFound,
    /// Device is full.
    NoSpace,
    /// Read beyond end of file.
    BeyondEof,
}

impl core::fmt::Display for FsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FsError::Exists => write!(f, "file exists"),
            FsError::NotFound => write!(f, "no such file"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::BeyondEof => write!(f, "read beyond end of file"),
        }
    }
}

impl std::error::Error for FsError {}

/// One device I/O implied by a file operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DevIo {
    /// Starting 512-byte sector on the device.
    pub sector: u64,
    /// Length in bytes.
    pub bytes: usize,
}

/// The plan for a read: the device I/Os its cache misses need.
#[derive(Clone, Debug, Default)]
pub struct ReadPlan {
    /// Device I/Os for the cache misses (merged into runs).
    pub device_ios: Vec<DevIo>,
}

/// `stat(2)` output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileStat {
    /// Size in bytes.
    pub size: u64,
    /// Number of extents (fragmentation indicator).
    pub extents: usize,
}

#[derive(Clone, Debug)]
struct FileMeta {
    size: u64,
    extents: Vec<Extent>,
}

/// The filesystem.
pub struct Fs {
    /// Block size in bytes (4 KiB).
    pub block_size: usize,
    alloc: ExtentAllocator,
    names: BTreeMap<String, Ino>,
    files: HashMap<Ino, FileMeta>,
    next_ino: u64,
    cache: ReadCache,
}

const SECTOR: u64 = 512;

impl Fs {
    /// Creates (formats) a filesystem over `device_blocks` 4 KiB blocks
    /// with a page cache of `cache_blocks` blocks.
    pub fn format(device_blocks: u64, cache_blocks: usize) -> Fs {
        Fs {
            block_size: 4096,
            alloc: ExtentAllocator::new(device_blocks),
            names: BTreeMap::new(),
            files: HashMap::new(),
            next_ino: 1,
            cache: ReadCache::new(cache_blocks),
        }
    }

    fn sectors_per_block(&self) -> u64 {
        self.block_size as u64 / SECTOR
    }

    /// Creates an empty file.
    pub fn create(&mut self, name: &str) -> Result<Ino, FsError> {
        if self.names.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        self.names.insert(name.to_string(), ino);
        self.files.insert(
            ino,
            FileMeta {
                size: 0,
                extents: Vec::new(),
            },
        );
        Ok(ino)
    }

    /// Resolves a name.
    pub fn lookup(&self, name: &str) -> Result<Ino, FsError> {
        self.names.get(name).copied().ok_or(FsError::NotFound)
    }

    /// `stat`: metadata only, no device I/O.
    pub fn stat(&self, name: &str) -> Result<FileStat, FsError> {
        let ino = self.lookup(name)?;
        let m = &self.files[&ino];
        Ok(FileStat {
            size: m.size,
            extents: m.extents.len(),
        })
    }

    /// Deletes a file, freeing its blocks and invalidating cache entries.
    pub fn delete(&mut self, name: &str) -> Result<(), FsError> {
        let ino = self.names.remove(name).ok_or(FsError::NotFound)?;
        let meta = self.files.remove(&ino).expect("names/files in sync");
        for e in meta.extents {
            for b in e.start..e.start + e.len {
                self.cache.invalidate(b);
            }
            self.alloc.free_extent(e);
        }
        Ok(())
    }

    /// Drops the page cache (the paper's pre-run flush).
    pub fn drop_caches(&mut self) {
        self.cache.drop_all();
    }

    /// The device blocks backing `[offset, offset+len)` of a file, in file
    /// order. The file must already cover the range.
    fn map_range(&self, meta: &FileMeta, offset: u64, len: usize) -> Vec<(u64, usize, usize)> {
        // Returns (device_block, offset_in_block, bytes).
        let mut out = Vec::new();
        let mut remaining = len;
        let mut file_block = offset / self.block_size as u64;
        let mut in_block = (offset % self.block_size as u64) as usize;
        while remaining > 0 {
            // Locate file_block within the extent list.
            let mut fb = file_block;
            let mut dev_block = None;
            for e in &meta.extents {
                if fb < e.len {
                    dev_block = Some(e.start + fb);
                    break;
                }
                fb -= e.len;
            }
            let db = dev_block.expect("range pre-validated against size");
            let n = (self.block_size - in_block).min(remaining);
            out.push((db, in_block, n));
            remaining -= n;
            file_block += 1;
            in_block = 0;
        }
        out
    }

    fn merge_ios(&self, pieces: &[(u64, usize, usize)]) -> Vec<DevIo> {
        let spb = self.sectors_per_block();
        let mut out: Vec<DevIo> = Vec::new();
        for &(block, in_block, bytes) in pieces {
            let sector = block * spb + (in_block as u64) / SECTOR;
            if let Some(last) = out.last_mut() {
                let last_end = last.sector * SECTOR + last.bytes as u64;
                if last_end == sector * SECTOR {
                    last.bytes += bytes;
                    continue;
                }
            }
            out.push(DevIo { sector, bytes });
        }
        out
    }

    /// Writes `len` bytes at `offset`, allocating blocks as needed.
    ///
    /// Returns the device I/Os to perform (write-through).
    pub fn write(&mut self, ino: Ino, offset: u64, len: usize) -> Result<Vec<DevIo>, FsError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let meta = self.files.get(&ino).ok_or(FsError::NotFound)?;
        let end = offset + len as u64;
        let have_blocks: u64 = meta.extents.iter().map(|e| e.len).sum();
        let need_blocks = end.div_ceil(self.block_size as u64);
        if need_blocks > have_blocks {
            let grow = need_blocks - have_blocks;
            let new = self.alloc.alloc(grow).ok_or(FsError::NoSpace)?;
            let meta = self.files.get_mut(&ino).expect("checked");
            // Merge with the trailing extent when contiguous.
            for e in new {
                match meta.extents.last_mut() {
                    Some(last) if last.start + last.len == e.start => last.len += e.len,
                    _ => meta.extents.push(e),
                }
            }
        }
        let meta = self.files.get_mut(&ino).expect("checked");
        meta.size = meta.size.max(end);
        let meta = self.files[&ino].clone();
        let pieces = self.map_range(&meta, offset, len);
        for &(b, _, _) in &pieces {
            self.cache.insert(b);
        }
        Ok(self.merge_ios(&pieces))
    }

    /// Appends `len` bytes; returns the device I/Os.
    pub fn append(&mut self, ino: Ino, len: usize) -> Result<Vec<DevIo>, FsError> {
        let size = self.files.get(&ino).ok_or(FsError::NotFound)?.size;
        self.write(ino, size, len)
    }

    /// Plans a read of `len` bytes at `offset`, consulting the page cache.
    ///
    /// A read running past EOF stops there; a read starting past EOF
    /// fails.
    pub fn read(&mut self, ino: Ino, offset: u64, len: usize) -> Result<ReadPlan, FsError> {
        let meta = self.files.get(&ino).ok_or(FsError::NotFound)?.clone();
        if offset >= meta.size {
            return if len == 0 {
                Ok(ReadPlan::default())
            } else {
                Err(FsError::BeyondEof)
            };
        }
        let len = len.min((meta.size - offset) as usize);
        let pieces = self.map_range(&meta, offset, len);
        let mut misses = Vec::new();
        for &(b, in_b, n) in &pieces {
            if !self.cache.access(b) {
                self.cache.insert(b);
                misses.push((b, in_b, n));
            }
        }
        Ok(ReadPlan {
            device_ios: self.merge_ios(&misses),
        })
    }

    /// The size of a file by inode.
    pub fn size(&self, ino: Ino) -> Result<u64, FsError> {
        Ok(self.files.get(&ino).ok_or(FsError::NotFound)?.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fs() -> Fs {
        Fs::format(1024, 64) // 4 MiB device, 256 KiB cache
    }

    #[test]
    fn create_lookup_delete() {
        let mut fs = small_fs();
        let ino = fs.create("a.txt").unwrap();
        assert_eq!(fs.lookup("a.txt"), Ok(ino));
        assert_eq!(fs.create("a.txt"), Err(FsError::Exists));
        fs.delete("a.txt").unwrap();
        assert_eq!(fs.lookup("a.txt"), Err(FsError::NotFound));
        assert_eq!(fs.delete("a.txt"), Err(FsError::NotFound));
    }

    #[test]
    fn sequential_write_is_one_device_run() {
        let mut fs = small_fs();
        let ino = fs.create("seq").unwrap();
        let ios = fs.write(ino, 0, 64 * 1024).unwrap();
        assert_eq!(ios.len(), 1, "fresh fs: contiguous allocation");
        assert_eq!(ios[0].bytes, 64 * 1024);
        assert_eq!(fs.size(ino).unwrap(), 64 * 1024);
    }

    #[test]
    fn append_extends_size_and_reuses_tail() {
        let mut fs = small_fs();
        let ino = fs.create("log").unwrap();
        fs.write(ino, 0, 1000).unwrap();
        let ios = fs.append(ino, 1000).unwrap();
        assert_eq!(fs.size(ino).unwrap(), 2000);
        // Append starts mid-block at offset 1000.
        assert_eq!(ios[0].sector, 1, "sector 1 = byte 512, containing 1000");
    }

    #[test]
    fn read_uses_cache_after_write() {
        let mut fs = small_fs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, 8192).unwrap();
        // Write-through populated the cache: read is all hits.
        let plan = fs.read(ino, 0, 8192).unwrap();
        assert!(plan.device_ios.is_empty());
        // After a cache flush the same read goes to the device.
        fs.drop_caches();
        let plan = fs.read(ino, 0, 8192).unwrap();
        assert_eq!(
            plan.device_ios.iter().map(|io| io.bytes).sum::<usize>(),
            8192
        );
    }

    #[test]
    fn short_read_at_eof() {
        let mut fs = small_fs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, 100).unwrap();
        assert!(fs.read(ino, 50, 1000).is_ok(), "cut short at EOF");
        assert_eq!(fs.read(ino, 100, 10).err(), Some(FsError::BeyondEof));
        assert!(fs.read(ino, 100, 0).is_ok());
    }

    #[test]
    fn fragmentation_scatters_io() {
        let mut fs = Fs::format(64, 0); // tiny device, no cache
                                        // Fill with interleaved files, delete every other one.
        let inos: Vec<Ino> = (0..8)
            .map(|i| {
                let ino = fs.create(&format!("f{i}")).unwrap();
                fs.write(ino, 0, 8 * 4096).unwrap();
                ino
            })
            .collect();
        let _ = inos;
        for i in (0..8).step_by(2) {
            fs.delete(&format!("f{i}")).unwrap();
        }
        // A new large file must span fragments -> multiple device runs.
        let big = fs.create("big").unwrap();
        let ios = fs.write(big, 0, 20 * 4096).unwrap();
        assert!(ios.len() > 1, "expected scattered I/O, got {ios:?}");
        let stat = fs.stat("big").unwrap();
        assert!(stat.extents > 1);
    }

    #[test]
    fn nospace_reported() {
        let mut fs = Fs::format(4, 0);
        let ino = fs.create("f").unwrap();
        assert_eq!(fs.write(ino, 0, 5 * 4096), Err(FsError::NoSpace));
        // Successful smaller write still fits.
        fs.write(ino, 0, 4 * 4096).unwrap();
    }

    #[test]
    fn delete_frees_space_for_reuse() {
        let mut fs = Fs::format(8, 0);
        let a = fs.create("a").unwrap();
        fs.write(a, 0, 8 * 4096).unwrap();
        fs.delete("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(b, 0, 8 * 4096).unwrap();
    }

    #[test]
    fn stat_counts_extents() {
        let mut fs = small_fs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, 4096 * 3).unwrap();
        let st = fs.stat("f").unwrap();
        assert_eq!(st.size, 4096 * 3);
        assert_eq!(st.extents, 1);
    }
}
