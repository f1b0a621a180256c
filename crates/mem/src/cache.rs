//! A single set-associative, write-back, LRU cache (tags only).

/// Geometry and identity of one cache level.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Human-readable name for reports ("L1D", ...).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.assoc as u64)
    }
}

/// One way of a set: the tag-array entry plus its LRU bookkeeping.
/// The cache's own record, so warm state moves as slice copies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Way {
    /// Line (block) address stored in this way.
    pub tag: u64,
    /// Whether the way holds a line.
    pub valid: bool,
    /// Whether the held line is dirty (write-back pending).
    pub dirty: bool,
    /// LRU stamp; larger = more recently used.
    pub stamp: u64,
}

/// Warm state of a whole cache level: every way (set-major order, as
/// laid out internally) plus the LRU clock the stamps are relative to.
/// Statistics counters are not part of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmCache {
    /// All ways, `sets * assoc` entries in set-major order.
    pub ways: Vec<Way>,
    /// The LRU clock value at export time.
    pub clock: u64,
}

/// Result of a cache lookup-with-allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Line (block) address of a dirty line evicted to make room.
    pub writeback: Option<u64>,
}

/// Tag-only set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    ways: Vec<Way>,
    sets: u64,
    line_shift: u32,
    clock: u64,
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl Cache {
    /// Build a cache from its geometry.
    ///
    /// # Panics
    /// Panics if the line size is not a power of two or the geometry
    /// does not divide evenly.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two() && sets > 0,
            "set count must be a power of two"
        );
        assert_eq!(
            sets * cfg.line_bytes * cfg.assoc as u64,
            cfg.size_bytes,
            "geometry must divide evenly"
        );
        let line_shift = cfg.line_bytes.trailing_zeros();
        Cache {
            ways: vec![Way::default(); (sets * cfg.assoc as u64) as usize],
            sets,
            line_shift,
            cfg,
            clock: 0,
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line (block) address of a byte address.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line: u64) -> u64 {
        line & (self.sets - 1)
    }

    /// Look up `addr`; on miss, allocate the line (evicting LRU).
    /// `write` marks the line dirty (write-back policy, write-allocate).
    pub fn access(&mut self, addr: u64, write: bool) -> LookupResult {
        self.accesses += 1;
        self.clock += 1;
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        let base = (set * self.cfg.assoc as u64) as usize;
        let ways = &mut self.ways[base..base + self.cfg.assoc as usize];

        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == line) {
            w.stamp = self.clock;
            w.dirty |= write;
            return LookupResult {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        // Choose victim: first invalid way, else LRU.
        let victim = ways.iter().position(|w| !w.valid).unwrap_or_else(|| {
            ways.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i)
                .unwrap()
        });
        let evicted = ways[victim];
        let writeback = if evicted.valid && evicted.dirty {
            self.writebacks += 1;
            Some(evicted.tag)
        } else {
            None
        };
        ways[victim] = Way {
            tag: line,
            valid: true,
            dirty: write,
            stamp: self.clock,
        };
        LookupResult {
            hit: false,
            writeback,
        }
    }

    /// Probe without allocating or touching LRU state (diagnostics).
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        let base = (set * self.cfg.assoc as u64) as usize;
        self.ways[base..base + self.cfg.assoc as usize]
            .iter()
            .any(|w| w.valid && w.tag == line)
    }

    /// Invalidate everything (keeps statistics).
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            *w = Way::default();
        }
    }

    /// Export the warm state (valid lines + LRU ordering) for a
    /// checkpoint. Statistics counters are excluded: warm state
    /// describes the cache *contents*, not how they were produced.
    pub fn export_warm(&self) -> WarmCache {
        WarmCache {
            ways: self.ways.clone(),
            clock: self.clock,
        }
    }

    /// Import warm state previously produced by [`export_warm`],
    /// replacing the current contents. Statistics counters are left
    /// untouched. Panics on a way-count mismatch (checkpoint taken
    /// under a different geometry).
    ///
    /// [`export_warm`]: Cache::export_warm
    pub fn import_warm(&mut self, warm: &WarmCache) {
        assert_eq!(
            warm.ways.len(),
            self.ways.len(),
            "{}: warm-state way count mismatch",
            self.cfg.name
        );
        self.ways.copy_from_slice(&warm.ways);
        self.clock = warm.clock;
    }

    /// Miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 32B lines = 128 B
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: 128,
            assoc: 2,
            line_bytes: 32,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 2);
        assert_eq!(c.line_addr(0), 0);
        assert_eq!(c.line_addr(31), 0);
        assert_eq!(c.line_addr(32), 1);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(8, false).hit, "same line hits");
        assert_eq!(c.misses, 1);
        assert_eq!(c.accesses, 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.access(0, false); // line 0
        c.access(64, false); // line 2
        c.access(0, false); // touch line 0 -> line 2 is now LRU
        c.access(128, false); // line 4 evicts line 2
        assert!(c.probe(0), "line 0 must survive (recently used)");
        assert!(!c.probe(64), "line 2 was LRU and must be evicted");
        assert!(c.probe(128));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty line 0
        c.access(64, false); // line 2
        let r = c.access(128, false); // evicts line 0 (LRU, dirty)
        assert_eq!(r.writeback, Some(0));
        assert_eq!(c.writebacks, 1);
        // Clean eviction reports none.
        let r = c.access(192, false); // set 0 again: evicts line 2 (clean)
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn write_marks_dirty_on_hit_too() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // hit, now dirty
        c.access(64, false);
        let r = c.access(128, false);
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.probe(0));
        assert_eq!(c.accesses, 0);
        c.access(0, false);
        assert!(c.probe(0));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0, true);
        c.flush();
        assert!(!c.probe(0));
        // After flush, a dirty line must not produce a writeback.
        assert_eq!(c.access(0, false).writeback, None);
    }

    #[test]
    fn warm_state_round_trip_preserves_contents_and_lru() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, false);
        c.access(0, false); // line 0 MRU, line 2 LRU
        let warm = c.export_warm();

        let mut fresh = tiny();
        fresh.import_warm(&warm);
        assert!(fresh.probe(0) && fresh.probe(64));
        // LRU order carried over: allocating into set 0 evicts line 2.
        fresh.access(128, false);
        assert!(fresh.probe(0) && !fresh.probe(64));
        // Dirty bit carried over: evicting line 0 produces a writeback.
        fresh.access(64, false); // evicts line 0 (now LRU, dirty)
        assert_eq!(fresh.writebacks, 1);
        // Stats were not imported.
        assert_eq!(warm.clock, 3);
    }

    #[test]
    #[should_panic(expected = "way count mismatch")]
    fn warm_state_rejects_wrong_geometry() {
        let big = Cache::new(CacheConfig {
            name: "B",
            size_bytes: 256,
            assoc: 2,
            line_bytes: 32,
        });
        let mut c = tiny();
        c.import_warm(&big.export_warm());
    }

    #[test]
    fn paper_l1d_geometry_is_valid() {
        let c = Cache::new(CacheConfig {
            name: "L1D",
            size_bytes: 64 * 1024,
            assoc: 2,
            line_bytes: 32,
        });
        assert_eq!(c.config().sets(), 1024);
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        assert_eq!(c.miss_ratio(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
