//! Mechanism state bundle: the paper's tables plus the replica engine
//! records, owned by the pipeline when the mode uses them.

use cfir_core::{Crp, Mbs, MechConfig, Nrbq, SpecMem, Srsmt};
use cfir_isa::Inst;
use cfir_predict::StridePredictor;
use std::collections::VecDeque;

/// Sentinel for an empty [`Mech::sel_event`] slot. Event ids are
/// sequential counters starting at 0, so `u64::MAX` can never be a
/// real event.
pub(crate) const SEL_EVENT_EMPTY: u64 = u64::MAX;

/// A replica's source operand, resolved at batch-creation time.
#[derive(Debug, Clone, Copy)]
pub enum RepSrc {
    /// Operand absent.
    None,
    /// Scalar value captured at vectorization time.
    Val(u64),
    /// The seed of a loop-carried self-dependence chain: read the own
    /// entry's `seed_value` once the creating instruction delivers it.
    SeedSelf,
    /// Instance `idx` of the vectorized producer at `pc`.
    Dep {
        /// Producer instruction PC (SRSMT key).
        pc: u64,
        /// Producer generation expected.
        gen: u32,
        /// Producer instance index to consume.
        idx: u32,
    },
}

/// What the replica computes.
#[derive(Debug, Clone, Copy)]
pub enum RepKind {
    /// Stride-generated load: the address is known at creation.
    StridedLoad {
        /// Effective address this instance reads.
        addr: u64,
    },
    /// Replicated dependent instruction (ALU/FP/load-with-vector-base).
    Op {
        /// The instruction to evaluate.
        inst: Inst,
        /// Resolved sources.
        srcs: [RepSrc; 2],
    },
}

/// Execution state of one replica instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepState {
    /// Waiting for sources / resources.
    Waiting,
    /// Issued; completes at the stored cycle.
    Exec {
        /// Completion cycle.
        done_at: u64,
    },
}

/// One speculative replica in flight.
#[derive(Debug, Clone, Copy)]
pub struct Replica {
    /// Lifecycle id (0 when lifecycle tracing is off).
    pub lid: u64,
    /// PC of the owning vectorized instruction (identity check against
    /// the SRSMT entry, which may have been reallocated).
    pub pc: u64,
    /// SRSMT entry index this replica belongs to.
    pub srsmt_idx: usize,
    /// Entry generation it was created for.
    pub gen: u32,
    /// Absolute instance index within the entry's replica stream.
    pub idx: u32,
    /// Work description.
    pub kind: RepKind,
    /// Execution state.
    pub state: RepState,
    /// Value computed (valid once issued; delivered at `done_at`).
    pub value: u64,
    /// Memory address touched (loads), for the coherence range.
    pub addr: Option<u64>,
}

/// Free-list arena for in-flight replicas. Records live in a slab and
/// never move; `order` holds slot ids in exactly the sequence the old
/// `Vec<Replica>` held the records, so issue priority under bandwidth
/// pressure is bit-for-bit unchanged (`reap` keeps relative order like
/// `Vec::retain`, [`ReplicaArena::swap_remove`] performs the same
/// last-into-hole permutation) — but removals now shift 4-byte ids
/// instead of whole records, and freed slots are recycled without
/// touching the allocator.
#[derive(Debug, Default)]
pub(crate) struct ReplicaArena {
    slab: Vec<Replica>,
    free: Vec<u32>,
    order: Vec<u32>,
    /// Scratch for [`ReplicaArena::reap`]'s killed-lid list, kept warm
    /// across calls.
    killed: Vec<u64>,
}

impl ReplicaArena {
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Only test assertions need emptiness; the pipeline always works
    /// from `len`/iteration.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Append a replica at the back of the issue order.
    pub(crate) fn push(&mut self, r: Replica) {
        let id = match self.free.pop() {
            Some(id) => {
                self.slab[id as usize] = r;
                id
            }
            None => {
                self.slab.push(r);
                (self.slab.len() - 1) as u32
            }
        };
        self.order.push(id);
    }

    /// Remove the replica at order position `pos` with the same
    /// last-into-hole permutation `Vec::swap_remove` used, recycling
    /// its slot.
    pub(crate) fn swap_remove(&mut self, pos: usize) {
        let id = self.order.swap_remove(pos);
        self.free.push(id);
    }

    /// Drop every replica matching `pred`, preserving the relative
    /// order of survivors (exactly like `Vec::retain`). Returns the
    /// lids of the dropped replicas for lifecycle close-out.
    pub(crate) fn reap(&mut self, pred: impl Fn(&Replica) -> bool) -> &[u64] {
        self.killed.clear();
        let (slab, free, killed) = (&self.slab, &mut self.free, &mut self.killed);
        self.order.retain(|&id| {
            let r = &slab[id as usize];
            if pred(r) {
                killed.push(r.lid);
                free.push(id);
                false
            } else {
                true
            }
        });
        &self.killed
    }
}

impl std::ops::Index<usize> for ReplicaArena {
    type Output = Replica;
    fn index(&self, pos: usize) -> &Replica {
        &self.slab[self.order[pos] as usize]
    }
}

impl std::ops::IndexMut<usize> for ReplicaArena {
    fn index_mut(&mut self, pos: usize) -> &mut Replica {
        &mut self.slab[self.order[pos] as usize]
    }
}

/// Pending register-file copy injected by a validation in the
/// speculative-data-memory mode (§2.4.6).
#[derive(Debug, Clone, Copy)]
pub struct PendingCopy {
    /// Destination physical register.
    pub phys: u32,
    /// Value being moved from the speculative memory.
    pub value: u64,
    /// Cycle at which the value lands in the register file.
    pub ready_at: u64,
}

/// A value harvested from the squashed wrong path (ci-iw mode).
#[derive(Debug, Clone, Copy)]
pub struct SquashReuse {
    /// Value the wrong-path instance computed.
    pub value: u64,
    /// Event that produced it (Figure 5 attribution).
    pub event: u64,
}

/// All mechanism state.
#[derive(Debug)]
pub struct Mech {
    /// Mechanism configuration.
    pub cfg: MechConfig,
    /// Mispredicted Branch Status table.
    pub mbs: Mbs,
    /// Not-Retired Branch Queue.
    pub nrbq: Nrbq,
    /// Current Re-convergent Point register.
    pub crp: Crp,
    /// Stride predictor (with the `S` selection flags).
    pub stride: StridePredictor,
    /// Scalar Register Set Map Table.
    pub srsmt: Srsmt,
    /// Speculative data memory, when configured (`ci-h-N`).
    pub specmem: Option<SpecMem>,
    /// Event id that selected each load PC (Figure 5 attribution).
    /// Dense table indexed by *word* PC (`SEL_EVENT_EMPTY` = never
    /// selected); one indexed load replaces a hash lookup on the
    /// decode path. Entries are only ever overwritten, never erased —
    /// exactly the map semantics this replaces.
    pub sel_event: Vec<u64>,
    /// Self-loop entries waiting for their seed value: `(creating
    /// instruction's sequence number, entry idx, gen)`. Lookups are by
    /// exact seq; the population is bounded by live SRSMT self-loop
    /// entries (a handful), so a linear scan over a flat vector beats
    /// hashing and never allocates once warm. Order is irrelevant —
    /// no caller iterates, so `swap_remove` is safe.
    pub seed_waiters: Vec<(u64, usize, u32)>,
    /// Commit-time mis-speculation count per instruction PC, dense by
    /// *word* PC. A PC that repeatedly delivers wrong values (each
    /// costing a repair flush) is refused further vectorization — a
    /// small confidence counter a real implementation would also want.
    /// A zero count is identical to "absent" in the map semantics this
    /// replaces (the blacklist threshold is ≥ 1).
    pub misspec_count: Vec<u8>,
    /// Squash-reuse buffer: wrong-path CI values, dense by *word* PC
    /// (ci-iw). `Mech::clear_squash_buf` empties the queues in place
    /// so their allocations survive across harvests.
    pub squash_buf: Vec<VecDeque<SquashReuse>>,
}

impl Mech {
    /// Build the mechanism state from its configuration. `prog_len`
    /// (program length in instructions) sizes the dense PC-indexed
    /// tables.
    pub fn new(cfg: MechConfig, prog_len: usize) -> Self {
        let specmem = cfg
            .specmem_positions
            .map(|n| SpecMem::new(n, cfg.specmem_latency));
        Mech {
            mbs: Mbs::new(cfg.mbs_sets, cfg.mbs_ways),
            nrbq: Nrbq::new(cfg.nrbq_entries),
            crp: Crp::new(),
            stride: StridePredictor::new(cfg.stride_sets, cfg.stride_ways),
            srsmt: Srsmt::new(cfg.srsmt_sets, cfg.srsmt_ways, cfg.daec_threshold),
            specmem,
            sel_event: vec![SEL_EVENT_EMPTY; prog_len],
            seed_waiters: Vec::new(),
            misspec_count: vec![0; prog_len],
            squash_buf: vec![VecDeque::new(); prog_len],
            cfg,
        }
    }

    /// Record the event that selected the load at byte PC `bpc`.
    pub(crate) fn set_sel_event(&mut self, bpc: u64, event: u64) {
        self.sel_event[(bpc >> 2) as usize] = event;
    }

    /// The event that selected byte PC `bpc`, if any.
    pub(crate) fn sel_event(&self, bpc: u64) -> Option<u64> {
        match self.sel_event[(bpc >> 2) as usize] {
            SEL_EVENT_EMPTY => None,
            ev => Some(ev),
        }
    }

    /// Register a self-loop entry waiting for its seed value.
    pub(crate) fn add_seed_waiter(&mut self, seq: u64, idx: usize, gen: u32) {
        debug_assert!(
            !self.seed_waiters.iter().any(|&(s, _, _)| s == seq),
            "duplicate seed waiter for seq {seq}"
        );
        self.seed_waiters.push((seq, idx, gen));
    }

    /// Remove and return the waiter registered under `seq`, if any.
    pub(crate) fn take_seed_waiter(&mut self, seq: u64) -> Option<(usize, u32)> {
        let at = self.seed_waiters.iter().position(|&(s, _, _)| s == seq)?;
        let (_, idx, gen) = self.seed_waiters.swap_remove(at);
        Some((idx, gen))
    }

    /// Current mis-speculation count of byte PC `bpc`.
    pub(crate) fn misspec(&self, bpc: u64) -> u8 {
        self.misspec_count[(bpc >> 2) as usize]
    }

    /// Count one commit-time repair against byte PC `bpc`.
    pub(crate) fn bump_misspec(&mut self, bpc: u64) {
        let c = &mut self.misspec_count[(bpc >> 2) as usize];
        *c = c.saturating_add(1);
    }

    /// Age every mis-speculation counter by one (bootstrap-phase
    /// failures should not bar a PC forever, only chronic ones).
    pub(crate) fn age_misspec(&mut self) {
        for c in &mut self.misspec_count {
            *c = c.saturating_sub(1);
        }
    }

    /// Empty every squash-reuse queue in place, keeping allocations.
    pub(crate) fn clear_squash_buf(&mut self) {
        for q in &mut self.squash_buf {
            q.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_paper_config() {
        let m = Mech::new(MechConfig::paper(), 64);
        assert!(m.specmem.is_none());
        assert!(!m.crp.active);
        assert!(m.nrbq.is_empty());
        assert_eq!(m.sel_event.len(), 64);
        assert_eq!(m.misspec_count.len(), 64);
        assert_eq!(m.squash_buf.len(), 64);
    }

    #[test]
    fn specmem_configured_when_requested() {
        let m = Mech::new(MechConfig::paper_with_specmem(256), 16);
        assert_eq!(m.specmem.as_ref().unwrap().capacity(), 256);
    }

    #[test]
    fn sel_event_round_trips_including_zero() {
        let mut m = Mech::new(MechConfig::paper(), 8);
        assert_eq!(m.sel_event(4), None);
        m.set_sel_event(4, 0); // event ids start at 0
        assert_eq!(m.sel_event(4), Some(0));
        m.set_sel_event(4, 7);
        assert_eq!(m.sel_event(4), Some(7));
        assert_eq!(m.sel_event(0), None);
    }

    #[test]
    fn seed_waiters_add_take_semantics() {
        let mut m = Mech::new(MechConfig::paper(), 4);
        m.add_seed_waiter(10, 3, 1);
        m.add_seed_waiter(11, 4, 2);
        assert_eq!(m.take_seed_waiter(12), None);
        assert_eq!(m.take_seed_waiter(10), Some((3, 1)));
        assert_eq!(m.take_seed_waiter(10), None, "removed on take");
        assert_eq!(m.take_seed_waiter(11), Some((4, 2)));
        assert!(m.seed_waiters.is_empty());
    }

    #[test]
    fn misspec_counters_saturate_and_age() {
        let mut m = Mech::new(MechConfig::paper(), 4);
        assert_eq!(m.misspec(8), 0);
        for _ in 0..300 {
            m.bump_misspec(8);
        }
        assert_eq!(m.misspec(8), u8::MAX, "saturating add");
        m.bump_misspec(0);
        m.age_misspec();
        assert_eq!(m.misspec(0), 0, "aged back to absent");
        assert_eq!(m.misspec(8), u8::MAX - 1);
    }
}
