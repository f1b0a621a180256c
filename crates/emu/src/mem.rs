//! Paged word memory.
//!
//! Data memory is byte-addressed but every access moves one 8-byte
//! word; addresses are force-aligned down to 8 bytes so that wrong-path
//! or mis-speculated accesses in the OOO core are always well defined.
//! Unmapped reads return 0. Pages are 4 KiB (512 words), allocated on
//! first write, so sparse address spaces (pointer-chasing workloads)
//! stay cheap.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Words per page (4 KiB pages of 8-byte words).
const PAGE_WORDS: usize = 512;
const PAGE_SHIFT: u32 = 12;
const OFFSET_MASK: u64 = (1 << PAGE_SHIFT) - 1;

/// Hashes a page id with one multiply: the 128-bit product of the id
/// and an odd constant, its two halves xored, so every bit of the id
/// reaches every bit of the hash and ids that differ only in high bits
/// (arrays at aligned, far-apart bases) still spread. Every load and
/// store looks its page up, and SipHash, the default, cost more than
/// the rest of the access. Its resistance to chosen keys buys little
/// here: the keys are a simulated program's addresses, and a collision
/// costs only speed. The map is never walked in hash order (see
/// [`MemImage::export_pages`]), so the hash shows in nothing else.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("page ids hash through write_u64");
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        let p = u128::from(id) * 0x9e37_79b9_7f4a_7c15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A sparse, paged word memory.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    pages: HashMap<u64, Box<[u64; PAGE_WORDS]>, BuildHasherDefault<PageIdHasher>>,
    /// Total words written at least once (for reporting).
    writes: u64,
}

impl MemImage {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Align a byte address down to its word.
    #[inline]
    pub fn align(addr: u64) -> u64 {
        addr & !7
    }

    /// Read the word containing `addr` (0 if unmapped).
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        let a = Self::align(addr);
        match self.pages.get(&(a >> PAGE_SHIFT)) {
            Some(p) => p[((a & OFFSET_MASK) >> 3) as usize],
            None => 0,
        }
    }

    /// Write the word containing `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        let a = Self::align(addr);
        let page = self
            .pages
            .entry(a >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]));
        page[((a & OFFSET_MASK) >> 3) as usize] = value;
        self.writes += 1;
    }

    /// Bulk-initialise a slice of words starting at `base`.
    pub fn write_words(&mut self, base: u64, words: &[u64]) {
        for (i, w) in words.iter().enumerate() {
            self.write(base + (i as u64) * 8, *w);
        }
    }

    /// Read `n` words starting at `base`.
    pub fn read_words(&self, base: u64, n: usize) -> Vec<u64> {
        (0..n).map(|i| self.read(base + (i as u64) * 8)).collect()
    }

    /// Number of mapped 4-KiB pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Words per page (the unit [`export_pages`] works in).
    ///
    /// [`export_pages`]: MemImage::export_pages
    pub const PAGE_WORDS: usize = PAGE_WORDS;

    /// Export every mapped page as `(page_id, words)` sorted by page
    /// id, so serialized checkpoints are deterministic regardless of
    /// hash-map iteration order. The byte address of word `i` of page
    /// `p` is `(p << 12) + i * 8`.
    pub fn export_pages(&self) -> Vec<(u64, &[u64; PAGE_WORDS])> {
        let mut pages: Vec<(u64, &[u64; PAGE_WORDS])> =
            self.pages.iter().map(|(k, v)| (*k, &**v)).collect();
        pages.sort_unstable_by_key(|(k, _)| *k);
        pages
    }

    /// Rebuild a memory image from pages previously produced by
    /// [`export_pages`], copying each page once. The write counter
    /// restarts at 0 (it is a diagnostic, not architectural state).
    ///
    /// [`export_pages`]: MemImage::export_pages
    pub fn from_pages<'p>(pages: impl IntoIterator<Item = (u64, &'p [u64; PAGE_WORDS])>) -> Self {
        let mut m = MemImage::new();
        for (id, words) in pages {
            m.pages.insert(id, Box::new(*words));
        }
        m
    }

    /// Total writes performed (diagnostic).
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let m = MemImage::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(u64::MAX), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = MemImage::new();
        m.write(8192, 0xdead_beef);
        assert_eq!(m.read(8192), 0xdead_beef);
        assert_eq!(m.page_count(), 1);
    }

    #[test]
    fn alignment_forced_down() {
        let mut m = MemImage::new();
        m.write(100, 7); // aligns to 96
        assert_eq!(m.read(96), 7);
        assert_eq!(m.read(103), 7);
        assert_eq!(m.read(104), 0);
        assert_eq!(MemImage::align(103), 96);
    }

    #[test]
    fn adjacent_words_do_not_alias() {
        let mut m = MemImage::new();
        m.write(0, 1);
        m.write(8, 2);
        m.write(16, 3);
        assert_eq!((m.read(0), m.read(8), m.read(16)), (1, 2, 3));
    }

    #[test]
    fn cross_page_writes() {
        let mut m = MemImage::new();
        m.write(4088, 11); // last word of page 0
        m.write(4096, 22); // first word of page 1
        assert_eq!(m.read(4088), 11);
        assert_eq!(m.read(4096), 22);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn bulk_helpers() {
        let mut m = MemImage::new();
        m.write_words(1000, &[5, 6, 7]);
        // base 1000 aligns to 1000 (already 8-aligned)
        assert_eq!(m.read_words(1000, 3), vec![5, 6, 7]);
        assert_eq!(m.write_count(), 3);
    }

    #[test]
    fn page_export_is_sorted_and_round_trips() {
        let mut m = MemImage::new();
        m.write(3 << 12, 33);
        m.write(1 << 12, 11);
        m.write(7 << 12, 77);
        let pages = m.export_pages();
        let ids: Vec<u64> = pages.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 3, 7], "sorted by page id");
        let rebuilt = MemImage::from_pages(pages);
        assert_eq!(rebuilt.read(3 << 12), 33);
        assert_eq!(rebuilt.read(1 << 12), 11);
        assert_eq!(rebuilt.read(7 << 12), 77);
        assert_eq!(rebuilt.page_count(), 3);
        assert_eq!(rebuilt.read(2 << 12), 0, "unmapped pages stay unmapped");
    }

    #[test]
    fn huge_addresses_work() {
        let mut m = MemImage::new();
        let a = u64::MAX - 15;
        m.write(a, 9);
        assert_eq!(m.read(a), 9);
    }
}
