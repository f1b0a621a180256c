//! Stride (memory-address) predictor — §2.3.2 / Figure 3 of the paper.
//!
//! Table indexed by load PC: 4 ways × 256 sets. Each entry holds the
//! load's PC (full tag), the last effective address, the last observed
//! stride, a 2-bit up/down saturating confidence counter (trusted when
//! `> 1`) and the `S` flag that marks the load as *selected for
//! speculative vectorization* by the control-independence mechanism.

/// Stride predictor geometry of Table 1: sets × ways (256 × 4). The
/// simulator's predictor is [`StridePredictor::paper`], and the §3.1
/// storage accounting charges the same table.
pub const STRIDE_SETS: usize = 256;
/// Stride predictor associativity (Table 1: 4-way).
pub const STRIDE_WAYS: usize = 4;

/// One stride-predictor entry (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideEntry {
    /// PC of the load (full tag).
    pub pc: u64,
    /// Last effective address observed.
    pub last_addr: u64,
    /// Last observed stride (bytes, signed).
    pub stride: i64,
    /// 2-bit confidence; prediction trusted when `> 1`.
    pub confidence: u8,
    /// Selected-for-vectorization flag (set by `cfir-core`).
    pub selected: bool,
}

impl StrideEntry {
    /// Whether the stride prediction is trusted (§2.3.2: "the
    /// prediction is trusted when this field has a value greater
    /// than 1").
    #[inline]
    pub fn trusted(&self) -> bool {
        self.confidence > 1
    }

    /// Predicted address of the `n`-th future instance
    /// (`last_addr + stride * n`, §2.3.3).
    #[inline]
    pub fn predict(&self, n: u64) -> u64 {
        self.last_addr
            .wrapping_add((self.stride as u64).wrapping_mul(n))
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    entry: StrideEntry,
    valid: bool,
    stamp: u64,
}

/// The set-associative stride-predictor table.
#[derive(Debug, Clone)]
pub struct StridePredictor {
    ways: Vec<Way>,
    sets: usize,
    assoc: usize,
    clock: u64,
    /// Observations fed in.
    pub observations: u64,
    /// Entry replacements (capacity conflicts).
    pub replacements: u64,
}

impl StridePredictor {
    /// Create a predictor with `sets` × `assoc` entries.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets.is_power_of_two() && sets > 0);
        assert!(assoc > 0);
        let empty = Way {
            entry: StrideEntry {
                pc: 0,
                last_addr: 0,
                stride: 0,
                confidence: 0,
                selected: false,
            },
            valid: false,
            stamp: 0,
        };
        StridePredictor {
            ways: vec![empty; sets * assoc],
            sets,
            assoc,
            clock: 0,
            observations: 0,
            replacements: 0,
        }
    }

    /// The paper's configuration: [`STRIDE_WAYS`]-way set associative
    /// with [`STRIDE_SETS`] sets.
    pub fn paper() -> Self {
        Self::new(STRIDE_SETS, STRIDE_WAYS)
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    fn find(&self, pc: u64) -> Option<usize> {
        let base = self.set_of(pc) * self.assoc;
        (base..base + self.assoc).find(|&i| self.ways[i].valid && self.ways[i].entry.pc == pc)
    }

    /// Look up the entry for a load PC.
    pub fn lookup(&self, pc: u64) -> Option<StrideEntry> {
        self.find(pc).map(|i| self.ways[i].entry)
    }

    /// Whether the load at `pc` currently has a trusted stride.
    pub fn is_strided(&self, pc: u64) -> bool {
        self.lookup(pc).map(|e| e.trusted()).unwrap_or(false)
    }

    /// Feed one executed instance of the load at `pc` with effective
    /// address `addr`. Allocates an entry on first sight (LRU victim).
    pub fn observe(&mut self, pc: u64, addr: u64) {
        self.observations += 1;
        self.clock += 1;
        if let Some(i) = self.find(pc) {
            let stamp = self.clock;
            let w = &mut self.ways[i];
            let new_stride = addr.wrapping_sub(w.entry.last_addr) as i64;
            if new_stride == w.entry.stride {
                if w.entry.confidence < 3 {
                    w.entry.confidence += 1;
                }
            } else if w.entry.confidence > 0 {
                // Up/down: lose confidence but keep the old stride until
                // confidence drains, so a single irregular access does
                // not destroy an established pattern.
                w.entry.confidence -= 1;
            } else {
                w.entry.stride = new_stride;
                w.entry.selected = false;
            }
            w.entry.last_addr = addr;
            w.stamp = stamp;
            return;
        }
        // Allocate.
        let base = self.set_of(pc) * self.assoc;
        let slot = (base..base + self.assoc)
            .min_by_key(|&i| (self.ways[i].valid, self.ways[i].stamp))
            .unwrap();
        if self.ways[slot].valid {
            self.replacements += 1;
        }
        self.ways[slot] = Way {
            entry: StrideEntry {
                pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                selected: false,
            },
            valid: true,
            stamp: self.clock,
        };
    }

    /// Set or clear the `S` (selected-for-vectorization) flag.
    /// Returns `false` if the PC has no entry.
    pub fn set_selected(&mut self, pc: u64, sel: bool) -> bool {
        match self.find(pc) {
            Some(i) => {
                self.ways[i].entry.selected = sel;
                true
            }
            None => false,
        }
    }

    /// Whether the load at `pc` is currently selected (`S` flag).
    pub fn selected(&self, pc: u64) -> bool {
        self.lookup(pc).map(|e| e.selected).unwrap_or(false)
    }

    /// Count of currently-valid entries (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_unit_stride() {
        let mut sp = StridePredictor::paper();
        for i in 0..4u64 {
            sp.observe(0x100, 1000 + i * 8);
        }
        let e = sp.lookup(0x100).unwrap();
        assert_eq!(e.stride, 8);
        assert!(e.trusted());
        assert!(sp.is_strided(0x100));
        assert_eq!(e.predict(1), e.last_addr + 8);
        assert_eq!(e.predict(3), e.last_addr + 24);
    }

    #[test]
    fn first_observation_not_trusted() {
        let mut sp = StridePredictor::paper();
        sp.observe(0x100, 1000);
        assert!(!sp.is_strided(0x100));
        sp.observe(0x100, 1008);
        // stride was 0 initially; 8 != 0 so confidence stays 0, stride -> 8
        assert!(!sp.is_strided(0x100));
        sp.observe(0x100, 1016);
        sp.observe(0x100, 1024);
        assert!(sp.is_strided(0x100));
    }

    #[test]
    fn negative_stride() {
        let mut sp = StridePredictor::paper();
        for i in 0..5i64 {
            sp.observe(0x40, (10000 - i * 16) as u64);
        }
        let e = sp.lookup(0x40).unwrap();
        assert_eq!(e.stride, -16);
        assert!(e.trusted());
        assert_eq!(e.predict(1), e.last_addr.wrapping_sub(16));
    }

    #[test]
    fn one_irregular_access_does_not_destroy_pattern() {
        let mut sp = StridePredictor::paper();
        for i in 0..6u64 {
            sp.observe(0x100, 1000 + i * 8);
        }
        sp.observe(0x100, 55555); // blip
        let e = sp.lookup(0x100).unwrap();
        assert_eq!(e.stride, 8, "stride kept while confidence drains");
        assert!(
            e.trusted(),
            "one blip only drops a saturated counter to 2, still trusted"
        );
        // Two more irregular accesses drain confidence below the threshold.
        sp.observe(0x100, 999);
        sp.observe(0x100, 123456);
        assert!(!sp.is_strided(0x100));
        // The pattern can be re-established from a new base.
        sp.observe(0x100, 55555);
        sp.observe(0x100, 55563); // conf 0 -> stride replaced? stride was 8... matches! conf 1
        sp.observe(0x100, 55571);
        sp.observe(0x100, 55579);
        assert!(sp.is_strided(0x100));
    }

    #[test]
    fn random_addresses_never_trusted() {
        let mut sp = StridePredictor::paper();
        let mut x = 0x12345u64;
        for _ in 0..100 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sp.observe(0x200, x);
        }
        assert!(!sp.is_strided(0x200));
    }

    #[test]
    fn selected_flag_lifecycle() {
        let mut sp = StridePredictor::paper();
        assert!(!sp.set_selected(0x10, true), "no entry yet");
        sp.observe(0x10, 100);
        assert!(sp.set_selected(0x10, true));
        assert!(sp.selected(0x10));
        assert!(sp.set_selected(0x10, false));
        assert!(!sp.selected(0x10));
    }

    #[test]
    fn stride_change_clears_selected() {
        let mut sp = StridePredictor::paper();
        for i in 0..4u64 {
            sp.observe(0x10, 100 + i * 8);
        }
        sp.set_selected(0x10, true);
        // Drain confidence to zero, then change stride -> S cleared.
        for a in [9999u64, 123, 45, 7777] {
            sp.observe(0x10, a);
        }
        assert!(!sp.selected(0x10));
    }

    #[test]
    fn lru_replacement_within_set() {
        let mut sp = StridePredictor::new(1, 2); // one set, 2 ways
        sp.observe(0x00, 1);
        sp.observe(0x04, 2);
        sp.observe(0x00, 3); // touch 0x00
        sp.observe(0x08, 4); // evicts 0x04
        assert!(sp.lookup(0x00).is_some());
        assert!(sp.lookup(0x04).is_none());
        assert!(sp.lookup(0x08).is_some());
        assert_eq!(sp.replacements, 1);
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut sp = StridePredictor::paper();
        for i in 0..5u64 {
            sp.observe(0x100, 1000 + i * 8);
            sp.observe(0x104, 9000 + i * 24);
        }
        assert_eq!(sp.lookup(0x100).unwrap().stride, 8);
        assert_eq!(sp.lookup(0x104).unwrap().stride, 24);
        assert_eq!(sp.occupancy(), 2);
    }
}
