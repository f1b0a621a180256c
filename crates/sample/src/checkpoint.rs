//! Versioned, content-addressed architectural checkpoints.
//!
//! A checkpoint is everything needed to restart execution mid-program
//! with warm microarchitectural state:
//!
//! * architectural registers + PC + retired-instruction position,
//! * every mapped memory page (sorted by page id, so serialization is
//!   deterministic),
//! * the gshare counter table + speculative history + the committed
//!   16-bit global history,
//! * the tag/LRU/dirty state of all four cache levels.
//!
//! The on-disk format is a little-endian binary layout behind an
//! 8-byte magic and a format version ([`FORMAT_VERSION`]); decoding
//! rejects unknown versions and truncated payloads. Files are named by
//! the FNV-1a hash of their payload (`<id:016x>.ckpt`), so a
//! checkpoint's name *is* its identity: any window job seeded from it
//! derives its randomness (and its cache key) from content, never from
//! worker/pool scheduling order.

use cfir_emu::MemImage;
use cfir_isa::NUM_LOGICAL_REGS;
use cfir_mem::{WarmCache, WarmHierarchy, WarmWay};
use cfir_obs::fnv1a64;
use cfir_sim::WarmStart;
use std::path::{Path, PathBuf};

/// Words per memory page (re-exported from the emulator's pager).
pub const PAGE_WORDS: usize = MemImage::PAGE_WORDS;

/// Magic bytes opening every serialized checkpoint.
pub const MAGIC: &[u8; 8] = b"CFIRCKPT";

/// On-disk format version. Bump on any layout change; decoding rejects
/// mismatches rather than guessing.
pub const FORMAT_VERSION: u32 = 1;

/// A restartable mid-program machine state with warm predictor/cache
/// contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Architectural register values (`regs[0]` is always 0).
    pub regs: [u64; NUM_LOGICAL_REGS],
    /// Program counter (instruction index).
    pub pc: u32,
    /// Instructions retired before this point (position in the run).
    pub retired: u64,
    /// Committed 16-bit global branch history.
    pub ghist: u64,
    /// Gshare 2-bit counter table.
    pub gshare_table: Vec<u8>,
    /// Gshare speculative history at capture.
    pub gshare_history: u64,
    /// Warm state of all four cache levels.
    pub hier: WarmHierarchy,
    /// Mapped memory pages, sorted by page id.
    pub pages: Vec<(u64, [u64; PAGE_WORDS])>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_cache(out: &mut Vec<u8>, c: &WarmCache) {
    put_u64(out, c.ways.len() as u64);
    for w in &c.ways {
        put_u64(out, w.tag);
        out.push(w.valid as u8 | (w.dirty as u8) << 1);
        put_u64(out, w.stamp);
    }
    put_u64(out, c.clock);
}

/// Cursor-style reader over the serialized payload.
struct Rd<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Rd<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "checkpoint truncated at byte {} (wanted {n} more of {})",
                self.pos,
                self.buf.len()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn cache(&mut self) -> Result<WarmCache, String> {
        let n = self.u64()? as usize;
        if n > (1 << 24) {
            return Err(format!("implausible cache way count {n}"));
        }
        let mut ways = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = self.u64()?;
            let flags = self.u8()?;
            let stamp = self.u64()?;
            ways.push(WarmWay {
                tag,
                valid: flags & 1 != 0,
                dirty: flags & 2 != 0,
                stamp,
            });
        }
        let clock = self.u64()?;
        Ok(WarmCache { ways, clock })
    }
}

impl Checkpoint {
    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.gshare_table.len() + self.pages.len() * (8 + PAGE_WORDS * 8),
        );
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        for r in self.regs {
            put_u64(&mut out, r);
        }
        put_u32(&mut out, self.pc);
        put_u64(&mut out, self.retired);
        put_u64(&mut out, self.ghist);
        put_u64(&mut out, self.gshare_table.len() as u64);
        out.extend_from_slice(&self.gshare_table);
        put_u64(&mut out, self.gshare_history);
        for c in [&self.hier.l1i, &self.hier.l1d, &self.hier.l2, &self.hier.l3] {
            put_cache(&mut out, c);
        }
        put_u64(&mut out, self.pages.len() as u64);
        for (id, words) in &self.pages {
            put_u64(&mut out, *id);
            for w in words {
                put_u64(&mut out, *w);
            }
        }
        out
    }

    /// Decode a serialized checkpoint, validating magic, version and
    /// length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, String> {
        if bytes.len() < 12 || &bytes[..8] != MAGIC {
            return Err("not a CFIR checkpoint (bad magic)".into());
        }
        let mut rd = Rd { buf: bytes, pos: 8 };
        let ver = rd.u32()?;
        if ver != FORMAT_VERSION {
            return Err(format!(
                "checkpoint format v{ver} not supported (this build reads v{FORMAT_VERSION})"
            ));
        }
        let mut regs = [0u64; NUM_LOGICAL_REGS];
        for r in &mut regs {
            *r = rd.u64()?;
        }
        let pc = rd.u32()?;
        let retired = rd.u64()?;
        let ghist = rd.u64()?;
        let tlen = rd.u64()? as usize;
        if tlen > (1 << 28) {
            return Err(format!("implausible gshare table length {tlen}"));
        }
        let gshare_table = rd.take(tlen)?.to_vec();
        let gshare_history = rd.u64()?;
        let l1i = rd.cache()?;
        let l1d = rd.cache()?;
        let l2 = rd.cache()?;
        let l3 = rd.cache()?;
        let npages = rd.u64()? as usize;
        if npages > (1 << 24) {
            return Err(format!("implausible page count {npages}"));
        }
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            let id = rd.u64()?;
            let mut words = [0u64; PAGE_WORDS];
            for w in &mut words {
                *w = rd.u64()?;
            }
            pages.push((id, words));
        }
        if rd.pos != bytes.len() {
            return Err(format!(
                "trailing garbage: {} bytes after the checkpoint payload",
                bytes.len() - rd.pos
            ));
        }
        Ok(Checkpoint {
            regs,
            pc,
            retired,
            ghist,
            gshare_table,
            gshare_history,
            hier: WarmHierarchy { l1i, l1d, l2, l3 },
            pages,
        })
    }

    /// Content hash of the serialized payload — the checkpoint's
    /// identity for file naming, window RNG seeding and cache keys.
    pub fn content_id(&self) -> u64 {
        fnv1a64(&self.to_bytes())
    }

    /// Content-addressed file name (`<id:016x>.ckpt`).
    pub fn file_name(&self) -> String {
        format!("{:016x}.ckpt", self.content_id())
    }

    /// Write to `dir` under the content-addressed name; returns the
    /// full path. Writing the same state twice is a no-op overwrite of
    /// identical bytes.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_bytes())?;
        Ok(path)
    }

    /// Read a checkpoint back from disk.
    pub fn load(path: &Path) -> Result<Checkpoint, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_bytes(&bytes)
    }

    /// Rebuild the memory image this checkpoint captured.
    pub fn memory(&self) -> MemImage {
        MemImage::from_pages(self.pages.iter().map(|(id, w)| (*id, *w)))
    }

    /// Convert to the pipeline's warm-start bundle.
    pub fn warm_start(&self) -> WarmStart {
        WarmStart {
            regs: self.regs,
            pc: self.pc,
            mem: self.memory(),
            ghist: self.ghist,
            gshare_table: self.gshare_table.clone(),
            gshare_history: self.gshare_history,
            hier: self.hier.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warm::WarmingEmulator;
    use cfir_sim::SimConfig;
    use cfir_workloads::{by_name, WorkloadSpec};

    fn sample_checkpoint() -> Checkpoint {
        let w = by_name("bzip2", WorkloadSpec::default()).unwrap();
        let mut warm = WarmingEmulator::new(&w.prog, w.mem.clone(), &SimConfig::paper_baseline());
        warm.fast_forward(5_000);
        warm.checkpoint()
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let c = sample_checkpoint();
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.content_id(), c.content_id());
    }

    #[test]
    fn content_id_is_stable_and_content_sensitive() {
        let c = sample_checkpoint();
        assert_eq!(c.content_id(), c.clone().content_id());
        let mut d = c.clone();
        d.regs[5] ^= 1;
        assert_ne!(d.content_id(), c.content_id());
        assert!(c.file_name().ends_with(".ckpt"));
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let c = sample_checkpoint();
        let bytes = c.to_bytes();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Checkpoint::from_bytes(&bad).unwrap_err().contains("magic"));

        let mut vers = bytes.clone();
        vers[8] = 99;
        assert!(Checkpoint::from_bytes(&vers)
            .unwrap_err()
            .contains("format v99"));

        let trunc = &bytes[..bytes.len() - 3];
        assert!(Checkpoint::from_bytes(trunc)
            .unwrap_err()
            .contains("truncated"));

        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Checkpoint::from_bytes(&extra)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn save_load_round_trip() {
        let c = sample_checkpoint();
        let dir = std::env::temp_dir().join(format!("cfir-ckpt-test-{:x}", c.content_id()));
        let path = c.save(&dir).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_round_trips_through_pages() {
        let c = sample_checkpoint();
        let m = c.memory();
        assert_eq!(m.page_count(), c.pages.len());
        for (id, words) in &c.pages {
            let base = id << 12;
            assert_eq!(m.read(base), words[0]);
            assert_eq!(
                m.read(base + 8 * (PAGE_WORDS as u64 - 1)),
                words[PAGE_WORDS - 1]
            );
        }
    }
}
