//! The speculative data memory of §2.4.6 (Figure 13's `ci-h-N`).
//!
//! A small, cheap memory — "similar to a hierarchical register file" —
//! that holds the values produced by replicas so they do not occupy
//! scalar physical registers. It has 2 write ports from the functional
//! units and 2 read ports toward the register file, and is twice as
//! slow as the register file (2 cycles). Values move to the register
//! file through an explicit *copy* instruction that the core inserts
//! when a validation instruction reaches decode; the per-cycle port
//! accounting is enforced by the pipeline in `cfir-sim`.
//!
//! This model keeps what the memory costs, not what it holds: its
//! capacity (a replica needs a free position to be pre-executed), its
//! ports and its latency. A replica's result lives in its SRSMT entry
//! (`SrsmtEntry::values`), which is where a validation reads it; a
//! position is an occupancy token, allocated when the replica is
//! created and released when its instance commits or its entry goes.

/// Identifier of a position in the speculative memory.
pub type SpecPos = u32;

/// The speculative data memory's positions: a free list over a fixed
/// capacity.
#[derive(Debug, Clone)]
pub struct SpecMem {
    capacity: usize,
    free: Vec<SpecPos>,
    /// Access latency in cycles (2: "twice slower than the register file").
    pub latency: u32,
}

impl SpecMem {
    /// Create a memory with `positions` entries and the given latency.
    pub fn new(positions: usize, latency: u32) -> Self {
        SpecMem {
            capacity: positions,
            free: (0..positions as u32).rev().collect(),
            latency,
        }
    }

    /// Total positions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently allocated positions.
    pub fn in_use(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// Allocate a position, or `None` when every position is taken.
    pub fn alloc(&mut self) -> Option<SpecPos> {
        self.free.pop()
    }

    /// Free a position.
    pub fn release(&mut self, pos: SpecPos) {
        debug_assert!(
            !self.free.contains(&pos),
            "double free of spec-mem position"
        );
        self.free.push(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_hands_out_every_position_once() {
        let mut m = SpecMem::new(4, 2);
        let mut got: Vec<SpecPos> = (0..4).map(|_| m.alloc().unwrap()).collect();
        assert_eq!(m.in_use(), 4);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn exhaustion_and_failure_count() {
        let mut m = SpecMem::new(2, 2);
        assert!(m.alloc().is_some());
        assert!(m.alloc().is_some());
        assert!(m.alloc().is_none());
        assert_eq!(m.in_use(), 2);
    }

    #[test]
    fn release_recycles() {
        let mut m = SpecMem::new(1, 2);
        let p = m.alloc().unwrap();
        assert!(m.alloc().is_none());
        m.release(p);
        assert_eq!(m.in_use(), 0);
        assert_eq!(m.alloc(), Some(p));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_asserts() {
        let mut m = SpecMem::new(2, 2);
        let p = m.alloc().unwrap();
        m.release(p);
        m.release(p);
    }

    #[test]
    fn capacity_and_latency_reported() {
        let m = SpecMem::new(768, 2);
        assert_eq!(m.capacity(), 768);
        assert_eq!(m.latency, 2);
        assert_eq!(m.in_use(), 0);
    }
}
