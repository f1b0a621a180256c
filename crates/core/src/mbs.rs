//! MBS — Mispredicted Branch Status table (§2.3.1).
//!
//! Indexed by branch PC; 4-way × 64 sets in the paper. Each entry has a
//! 4-bit saturating up/down counter plus the branch's previous outcome:
//!
//! * outcome equal to the previous outcome → count up (taken) or down
//!   (not taken);
//! * outcome different from the previous one → counter reset to the
//!   middle of its range.
//!
//! A branch whose counter sits at the maximum or minimum is *highly
//! biased* (easy to predict) and the CI scheme is not activated for it;
//! anything else is considered hard to predict.

use crate::MechConfig;

const COUNTER_MAX: u8 = 15;
const COUNTER_MID: u8 = 8;

#[derive(Debug, Clone, Copy)]
struct Entry {
    pc: u64,
    counter: u8,
    last_taken: bool,
    valid: bool,
    stamp: u64,
}

/// The MBS table.
#[derive(Debug, Clone)]
pub struct Mbs {
    ways: Vec<Entry>,
    sets: usize,
    assoc: usize,
    clock: u64,
}

impl Mbs {
    /// Create a table with `sets` × `assoc` entries.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets.is_power_of_two() && sets > 0 && assoc > 0);
        Mbs {
            ways: vec![
                Entry {
                    pc: 0,
                    counter: COUNTER_MID,
                    last_taken: false,
                    valid: false,
                    stamp: 0
                };
                sets * assoc
            ],
            sets,
            assoc,
            clock: 0,
        }
    }

    /// The table the simulator runs with ([`MechConfig::paper`]: the
    /// paper's 4-way × 64-set table).
    pub fn paper() -> Self {
        let c = MechConfig::paper();
        Self::new(c.mbs_sets, c.mbs_ways)
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    fn find(&self, pc: u64) -> Option<usize> {
        let base = self.set_of(pc) * self.assoc;
        (base..base + self.assoc).find(|&i| self.ways[i].valid && self.ways[i].pc == pc)
    }

    /// Record the resolved direction of the branch at `pc`.
    pub fn observe(&mut self, pc: u64, taken: bool) {
        self.clock += 1;
        if let Some(i) = self.find(pc) {
            let e = &mut self.ways[i];
            if taken == e.last_taken {
                if taken {
                    if e.counter < COUNTER_MAX {
                        e.counter += 1;
                    }
                } else if e.counter > 0 {
                    e.counter -= 1;
                }
            } else {
                e.counter = COUNTER_MID;
            }
            e.last_taken = taken;
            e.stamp = self.clock;
            return;
        }
        let base = self.set_of(pc) * self.assoc;
        let slot = (base..base + self.assoc)
            .min_by_key(|&i| (self.ways[i].valid, self.ways[i].stamp))
            .unwrap();
        self.ways[slot] = Entry {
            pc,
            counter: COUNTER_MID,
            last_taken: taken,
            valid: true,
            stamp: self.clock,
        };
    }

    /// Whether the CI scheme should be activated for the branch at
    /// `pc`: true unless the branch is highly biased. Unknown branches
    /// are not considered hard (no information yet).
    pub fn is_hard(&self, pc: u64) -> bool {
        match self.find(pc) {
            Some(i) => {
                let c = self.ways[i].counter;
                c != 0 && c != COUNTER_MAX
            }
            None => false,
        }
    }

    /// Number of valid entries (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|e| e.valid).count()
    }

    /// Byte PCs of all valid entries (diagnostics / oracle cross-check:
    /// tags are exact full PCs, so every valid entry must name a real
    /// conditional branch).
    pub fn valid_pcs(&self) -> impl Iterator<Item = u64> + '_ {
        self.ways.iter().filter(|e| e.valid).map(|e| e.pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_branch_is_not_hard() {
        let m = Mbs::paper();
        assert!(!m.is_hard(0x40));
    }

    #[test]
    fn strongly_taken_branch_becomes_easy() {
        let mut m = Mbs::paper();
        // First observe allocates at mid; consistent taken outcomes
        // count up to saturation: mid=8 -> needs 7 more to hit 15.
        for _ in 0..16 {
            m.observe(0x40, true);
        }
        assert!(!m.is_hard(0x40), "saturated-taken branch is biased/easy");
    }

    #[test]
    fn strongly_not_taken_branch_becomes_easy() {
        let mut m = Mbs::paper();
        for _ in 0..16 {
            m.observe(0x40, false);
        }
        assert!(!m.is_hard(0x40));
    }

    #[test]
    fn alternating_branch_stays_hard() {
        let mut m = Mbs::paper();
        for i in 0..32 {
            m.observe(0x40, i % 2 == 0);
        }
        assert!(m.is_hard(0x40), "direction changes keep resetting to mid");
    }

    #[test]
    fn new_branch_is_hard_after_first_observation() {
        let mut m = Mbs::paper();
        m.observe(0x40, true);
        // Allocated at mid -> not saturated -> hard.
        assert!(m.is_hard(0x40));
    }

    #[test]
    fn direction_change_resets_a_biased_branch() {
        let mut m = Mbs::paper();
        for _ in 0..16 {
            m.observe(0x40, true);
        }
        assert!(!m.is_hard(0x40));
        m.observe(0x40, false); // flip -> reset to mid
        assert!(m.is_hard(0x40));
    }

    #[test]
    fn lru_replacement() {
        let mut m = Mbs::new(1, 2);
        m.observe(0x00, true);
        m.observe(0x04, true);
        m.observe(0x00, true); // touch
        m.observe(0x08, true); // evicts 0x04
        assert_eq!(m.occupancy(), 2);
        m.observe(0x04, false); // re-allocated at mid
        assert!(m.is_hard(0x04));
    }

    #[test]
    fn counter_floor_and_ceiling() {
        let mut m = Mbs::paper();
        for _ in 0..100 {
            m.observe(0x40, false);
        }
        assert!(!m.is_hard(0x40));
        for _ in 0..100 {
            m.observe(0x40, true);
        }
        assert!(!m.is_hard(0x40));
    }
}
