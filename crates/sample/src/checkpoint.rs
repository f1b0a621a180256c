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
use cfir_mem::{WarmCache, WarmHierarchy, Way};
use cfir_obs::Fnv1a64;
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

/// Where [`Checkpoint::encode`] puts the serialized bytes: a buffer
/// ([`Checkpoint::to_bytes`]), a running hash of them
/// ([`Checkpoint::content_id`]) or a count of them
/// ([`Checkpoint::encoded_len`]).
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes it is given.
struct Len(usize);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

impl Sink for Fnv1a64 {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }

    fn put_u64(&mut self, v: u64) {
        self.write_u64(v);
    }
}

fn put_cache(out: &mut impl Sink, c: &WarmCache) {
    out.put_u64(c.ways.len() as u64);
    for w in &c.ways {
        out.put_u64(w.tag);
        out.put(&[w.valid as u8 | (w.dirty as u8) << 1]);
        out.put_u64(w.stamp);
    }
    out.put_u64(c.clock);
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
            ways.push(Way {
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
    /// Serialize to the versioned binary format, into a buffer
    /// allocated once at its final size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out
    }

    /// Length in bytes of the serialized format.
    fn encoded_len(&self) -> usize {
        let mut len = Len(0);
        self.encode(&mut len);
        len.0
    }

    /// Write the binary format to `out`: the one encoder of
    /// [`Checkpoint::to_bytes`], [`Checkpoint::content_id`] and
    /// [`Checkpoint::encoded_len`].
    fn encode(&self, out: &mut impl Sink) {
        out.put(MAGIC);
        out.put_u32(FORMAT_VERSION);
        for r in self.regs {
            out.put_u64(r);
        }
        out.put_u32(self.pc);
        out.put_u64(self.retired);
        out.put_u64(self.ghist);
        out.put_u64(self.gshare_table.len() as u64);
        out.put(&self.gshare_table);
        out.put_u64(self.gshare_history);
        for c in [&self.hier.l1i, &self.hier.l1d, &self.hier.l2, &self.hier.l3] {
            put_cache(out, c);
        }
        out.put_u64(self.pages.len() as u64);
        for (id, words) in &self.pages {
            out.put_u64(*id);
            for w in words {
                out.put_u64(*w);
            }
        }
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
    /// Hashes the bytes as they are encoded, without building them.
    pub fn content_id(&self) -> u64 {
        let mut h = Fnv1a64::default();
        self.encode(&mut h);
        h.finish()
    }

    /// The content-addressed file name of the checkpoint whose
    /// [`Checkpoint::content_id`] is `id` (`<id:016x>.ckpt`).
    pub fn file_name(id: u64) -> String {
        format!("{id:016x}.ckpt")
    }

    /// Write to `dir` under the content-addressed name; returns the
    /// full path. `id` is this checkpoint's [`Checkpoint::content_id`],
    /// which a caller that also needs the id computes once (debug
    /// builds check it). Writing the same state twice is a no-op
    /// overwrite of identical bytes.
    pub fn save(&self, dir: &Path, id: u64) -> std::io::Result<PathBuf> {
        debug_assert_eq!(id, self.content_id(), "`id` names another checkpoint");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(id));
        std::fs::write(&path, self.to_bytes())?;
        Ok(path)
    }

    /// Read a checkpoint back from disk.
    pub fn load(path: &Path) -> Result<Checkpoint, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_bytes(&bytes)
    }

    /// Rebuild the memory image this checkpoint captured: the memory a
    /// window's pipeline is built with (`Pipeline::new(prog,
    /// ckpt.memory(), cfg)`) before [`Checkpoint::warm_start`] is
    /// restored into it.
    pub fn memory(&self) -> MemImage {
        MemImage::from_pages(self.pages.iter().map(|(id, w)| (*id, w)))
    }

    /// The pipeline's warm-start bundle, borrowing this checkpoint's
    /// gshare table and cache state. It carries no memory; that comes
    /// through `Pipeline::new` (see [`Checkpoint::memory`]).
    pub fn warm_start(&self) -> WarmStart<'_> {
        WarmStart {
            regs: self.regs,
            pc: self.pc,
            ghist: self.ghist,
            gshare_table: &self.gshare_table,
            gshare_history: self.gshare_history,
            hier: &self.hier,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::replay_window;
    use crate::warm::WarmingEmulator;
    use cfir_sim::{Pipeline, SimConfig};
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
    fn content_id_hashes_exactly_the_serialized_bytes() {
        let c = sample_checkpoint();
        assert!(!c.pages.is_empty());
        assert_eq!(c.content_id(), cfir_obs::fnv1a64(&c.to_bytes()));
    }

    /// Regression pin: checkpoint file names, window seeds and every
    /// sampled snapshot's `checkpoint` fields derive from this id.
    #[test]
    fn content_id_of_bzip2_at_5000_instructions_is_pinned() {
        assert_eq!(sample_checkpoint().content_id(), 0x37a1_75f1_eb04_dcd7);
    }

    #[test]
    fn content_id_is_stable_and_content_sensitive() {
        let c = sample_checkpoint();
        assert_eq!(c.content_id(), c.clone().content_id());
        let mut d = c.clone();
        d.regs[5] ^= 1;
        assert_ne!(d.content_id(), c.content_id());
        assert!(Checkpoint::file_name(c.content_id()).ends_with(".ckpt"));
    }

    #[test]
    fn to_bytes_allocates_its_exact_length_once() {
        let c = sample_checkpoint();
        let bytes = c.to_bytes();
        assert_eq!(bytes.len(), c.encoded_len());
        assert_eq!(bytes.capacity(), bytes.len(), "the buffer regrew");
    }

    /// `Pipeline::new` with the checkpoint's memory, then the borrowed
    /// warm start: every table arrives intact.
    #[test]
    fn restore_lands_the_checkpoint_in_the_pipeline() {
        let w = by_name("bzip2", WorkloadSpec::default()).unwrap();
        let c = sample_checkpoint();
        let mut p = Pipeline::new(&w.prog, c.memory(), SimConfig::paper_baseline());
        p.restore_checkpoint(&c.warm_start());
        assert_eq!(
            p.predictor().export_warm(),
            (c.gshare_table.clone(), c.gshare_history)
        );
        assert_eq!(p.hierarchy().export_warm(), c.hier);
        let pages: Vec<(u64, [u64; PAGE_WORDS])> = p
            .memory()
            .export_pages()
            .into_iter()
            .map(|(id, words)| (id, *words))
            .collect();
        assert_eq!(pages, c.pages);
        for r in 0..NUM_LOGICAL_REGS as u8 {
            assert_eq!(p.arch_reg(r), c.regs[r as usize]);
        }
    }

    /// The golden model gets its memory from `Pipeline::new` alone; a
    /// window checked against it at every commit must run clean from
    /// mid-program checkpoints of every kernel.
    #[test]
    fn cosim_checked_windows_start_in_step() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.cosim_check = true;
        for name in cfir_workloads::NAMES {
            let w = by_name(name, WorkloadSpec::default()).unwrap();
            let mut warm = WarmingEmulator::new(&w.prog, w.mem.clone(), &cfg);
            warm.fast_forward(20_000);
            let rep = replay_window(&w.prog, &warm.checkpoint(), &cfg, 1_000, 1_000);
            assert!(rep.row.committed > 0, "{name}: empty window");
        }
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
        let path = c.save(&dir, c.content_id()).unwrap();
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
