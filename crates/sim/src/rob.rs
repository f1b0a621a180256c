//! The instruction window: reorder-buffer entries in program order,
//! plus the work lists that let issue and writeback visit only the
//! entries they act on ([`Window`]). The window is also the undo log
//! for rename state: each entry keeps the destination's previous
//! physical register and rename extension, and a squash restores them
//! youngest first (`Pipeline::squash_window`).

use crate::regfile::PhysId;
use cfir_core::bitset::{BitSet, Cursor};
use cfir_core::RenameExt;
use cfir_isa::Inst;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Execution state of a window entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobState {
    /// In the window, waiting for operands/resources.
    Dispatched,
    /// Issued to a functional unit; completes at `done_at`.
    Executing,
    /// Result produced (or reused); eligible to commit in order.
    Done,
}

/// How a reused instruction obtained its value.
#[derive(Debug, Clone, Copy)]
pub struct ReuseInfo {
    /// The value delivered without execution (valid once `pending`
    /// clears).
    pub value: u64,
    /// The replica has not finished executing yet; the validating
    /// instruction waits for the value (§2.3.4: "it will wait" in the
    /// commit stage).
    pub pending: bool,
    /// SRSMT entry index the validation consumed (`None` for ci-iw
    /// squash-reuse buffer hits).
    pub srsmt_idx: Option<usize>,
    /// Entry generation at validation time.
    pub gen: u32,
    /// Instance index consumed.
    pub replica: u32,
    /// Misprediction event this reuse is attributed to (Figure 5).
    pub event: Option<u64>,
}

/// A probe: the instruction consumed a replica slot but executes
/// normally; at issue it verifies the entry's alignment against its
/// real result, confirming the entry (or tearing it down).
#[derive(Debug, Clone, Copy)]
pub struct ProbeInfo {
    /// SRSMT entry index.
    pub srsmt_idx: usize,
    /// Entry generation at validation time.
    pub gen: u32,
    /// Instance index consumed.
    pub replica: u32,
    /// Whether the alignment verification already ran (at writeback).
    /// The probe record itself must survive until commit: it is the
    /// proof of slot ownership that recovery recounting relies on.
    pub verified: bool,
}

/// One reorder-buffer entry.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Lifecycle id assigned at fetch (0 when lifecycle recording is
    /// off).
    pub lid: u64,
    /// Dynamic sequence number (monotonic over the whole run).
    pub seq: u64,
    /// Static PC.
    pub pc: u32,
    /// The instruction.
    pub inst: Inst,
    /// Pipeline state; only [`Window::set_state`] changes it.
    state: RobState,
    /// Cycle at which execution finishes (valid in `Executing`).
    done_at: u64,
    /// Physical destination, if the instruction writes a register.
    pub new_phys: Option<PhysId>,
    /// Previous mapping of the destination (freed at commit, restored
    /// by a squash).
    pub old_phys: Option<PhysId>,
    /// Previous rename extension of the destination (restored by a
    /// squash).
    pub old_ext: RenameExt,
    /// Logical destination.
    pub ldest: Option<u8>,
    /// Physical sources (post-rename).
    pub src_phys: [Option<PhysId>; 2],
    /// Predicted next PC (for any control instruction).
    pub pred_target: u32,
    /// Gshare history before this instruction's prediction (training,
    /// and the history a misprediction recovery restarts from).
    pub ghist: u64,
    /// Resolved actual direction.
    pub actual_taken: bool,
    /// Resolved actual next PC.
    pub actual_target: u32,
    /// Effective address (memory instructions, once computed).
    pub addr: Option<u64>,
    /// Value this instruction produced / will store (set at execute,
    /// reuse, or store-data capture).
    pub value: u64,
    /// Reuse bookkeeping (validation instructions).
    pub reuse: Option<ReuseInfo>,
    /// Probe bookkeeping (unconfirmed validations).
    pub probe: Option<ProbeInfo>,
    /// Cycle the entry entered the window (latency histograms).
    pub dispatched_at: u64,
    /// Whether this load missed in the L1D (stall attribution).
    pub dcache_miss: bool,
}

impl RobEntry {
    /// Fresh entry at dispatch.
    pub fn new(seq: u64, pc: u32, inst: Inst) -> Self {
        RobEntry {
            lid: 0,
            seq,
            pc,
            inst,
            state: RobState::Dispatched,
            done_at: 0,
            new_phys: None,
            old_phys: None,
            old_ext: RenameExt::new(),
            ldest: None,
            src_phys: [None, None],
            pred_target: pc + 1,
            ghist: 0,
            actual_taken: false,
            actual_target: pc + 1,
            addr: None,
            value: 0,
            reuse: None,
            probe: None,
            dispatched_at: 0,
            dcache_miss: false,
        }
    }

    /// Pipeline state.
    #[inline]
    pub fn state(&self) -> RobState {
        self.state
    }

    /// Cycle at which execution finishes (valid in `Executing`; for a
    /// pending validation, the cycle its wait began).
    #[inline]
    pub fn done_at(&self) -> u64 {
        self.done_at
    }

    /// Whether this is a validation still waiting for its replica's
    /// value.
    #[inline]
    pub fn is_pending(&self) -> bool {
        self.state == RobState::Executing && self.reuse.is_some_and(|r| r.pending)
    }

    /// The SRSMT slot this entry's validation consumed, as `(way,
    /// gen)`: a reuse's or a probe's. An entry never holds both.
    #[inline]
    pub fn consumed_slot(&self) -> Option<(usize, u32)> {
        debug_assert!(self.reuse.is_none() || self.probe.is_none());
        match (self.reuse, self.probe) {
            (Some(r), _) => r.srsmt_idx.map(|way| (way, r.gen)),
            (None, Some(p)) => Some((p.srsmt_idx, p.gen)),
            (None, None) => None,
        }
    }

    /// Whether this is a conditional branch entry.
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        self.inst.is_cond_branch()
    }
}

/// The reorder buffer in program order, plus three work lists kept
/// beside it so the per-cycle stages need not scan every entry:
///
/// * the slots of the `Dispatched` entries, which issue walks oldest
///   first ([`Window::next_dispatched`]);
/// * a min-heap of `(done_at, position, seq)`, one item per move into
///   `Executing`, which writeback drains ([`Window::take_due`]); an
///   item whose entry has since left that state, or the window, is
///   dropped when it comes due;
/// * the positions of the pending validations, oldest first, which
///   writeback polls ([`Window::pending`]).
///
/// An entry's *position* is the number of entries retired before it
/// plus its index, fixed while it is in the window; its slot is the
/// position modulo the capacity. [`Window::set_state`] is the only
/// writer of an entry's state and keeps all three lists in step.
#[derive(Debug)]
pub(crate) struct Window {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Position of `entries[0]`: the entries retired so far.
    base: u64,
    /// Slot of `entries[0]`.
    head_slot: usize,
    dispatched: BitSet,
    due: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// The buffer [`Window::take_due`] hands out, kept warm across
    /// cycles.
    due_now: Vec<usize>,
    pending: Vec<u64>,
}

/// A walk over the window's `Dispatched` entries, oldest first (see
/// [`Window::walk_dispatched`]): the slots from the head's to the end,
/// then the slots that wrapped round to the start.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DispatchedWalk {
    older: Cursor,
    wrapped: Cursor,
}

impl Window {
    /// An empty window of `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Window {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            base: 0,
            head_slot: 0,
            dispatched: BitSet::new(capacity),
            due: BinaryHeap::new(),
            due_now: Vec::new(),
            pending: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    #[inline]
    pub(crate) fn front(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    #[inline]
    pub(crate) fn back(&self) -> Option<&RobEntry> {
        self.entries.back()
    }

    #[inline]
    pub(crate) fn iter(&self) -> std::collections::vec_deque::Iter<'_, RobEntry> {
        self.entries.iter()
    }

    /// Slot of the entry at index `i`.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        let s = self.head_slot + i;
        if s >= self.capacity {
            s - self.capacity
        } else {
            s
        }
    }

    /// Index of the entry at `pos`, if it is in the window.
    #[inline]
    fn index_of(&self, pos: u64) -> Option<usize> {
        let i = pos.checked_sub(self.base)? as usize;
        (i < self.entries.len()).then_some(i)
    }

    /// Append a freshly dispatched entry (state `Dispatched`).
    #[inline]
    pub(crate) fn push(&mut self, e: RobEntry) {
        debug_assert!(!self.is_full());
        debug_assert_eq!(e.state, RobState::Dispatched);
        self.dispatched.insert(self.slot(self.entries.len()));
        self.entries.push_back(e);
    }

    /// Retire the oldest entry, which must be `Done` (and so on no work
    /// list).
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_front()?;
        debug_assert_eq!(e.state, RobState::Done);
        self.base += 1;
        self.head_slot = self.slot(1);
        Some(e)
    }

    /// Squash the youngest entry. Its heap items go stale (its `seq`
    /// will not come back).
    #[inline]
    pub(crate) fn pop_back(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_back()?;
        let i = self.entries.len();
        if e.state == RobState::Dispatched {
            self.dispatched.remove(self.slot(i));
        }
        if self.pending.last() == Some(&(self.base + i as u64)) {
            self.pending.pop();
        }
        Some(e)
    }

    /// Move the entry at index `i` to `state`, completing at `done_at`
    /// when that is `Executing`, and record the change in the work
    /// lists. Fields that decide pending-ness (`reuse`) must be set
    /// before the call.
    #[inline]
    pub(crate) fn set_state(&mut self, i: usize, state: RobState, done_at: u64) {
        let pos = self.base + i as u64;
        let slot = self.slot(i);
        let e = &mut self.entries[i];
        if e.state == RobState::Dispatched {
            self.dispatched.remove(slot);
        }
        e.state = state;
        e.done_at = done_at;
        match state {
            RobState::Dispatched => self.dispatched.insert(slot),
            RobState::Executing => self.due.push(Reverse((done_at, pos, e.seq))),
            RobState::Done => {}
        }
        let pending = e.is_pending();
        match (self.pending.iter().position(|&p| p == pos), pending) {
            (None, true) => {
                let at = self.pending.partition_point(|&p| p < pos);
                self.pending.insert(at, pos);
            }
            (Some(k), false) => {
                self.pending.remove(k);
            }
            _ => {}
        }
    }

    /// Start a walk over the `Dispatched` entries, oldest first. It
    /// borrows nothing, so the walker may change entries between steps:
    /// issue moves the entry it was just given out of `Dispatched`. No
    /// entry may enter or leave the window during the walk.
    #[inline]
    pub(crate) fn walk_dispatched(&self) -> DispatchedWalk {
        let (cap, head) = (self.capacity, self.head_slot);
        DispatchedWalk {
            older: self.dispatched.cursor(head, cap),
            wrapped: self.dispatched.cursor(0, head),
        }
    }

    /// Index of the walk's next `Dispatched` entry.
    #[inline]
    pub(crate) fn next_dispatched(&self, walk: &mut DispatchedWalk) -> Option<usize> {
        let (cap, head) = (self.capacity, self.head_slot);
        match self.dispatched.step(&mut walk.older) {
            Some(s) => Some(s - head),
            None => self
                .dispatched
                .step(&mut walk.wrapped)
                .map(|s| s + cap - head),
        }
    }

    /// Indices of the `Executing` entries whose `done_at` is at most
    /// `cycle`, overdue ones included, in window order. Hand the vector
    /// back with [`Window::recycle_due`].
    #[inline]
    pub(crate) fn take_due(&mut self, cycle: u64) -> Vec<usize> {
        let mut due = std::mem::take(&mut self.due_now);
        due.clear();
        while let Some(&Reverse((done_at, pos, seq))) = self.due.peek() {
            if done_at > cycle {
                break;
            }
            self.due.pop();
            let Some(i) = self.index_of(pos) else {
                continue;
            };
            let e = &self.entries[i];
            if e.seq == seq && e.state == RobState::Executing && e.done_at == done_at {
                due.push(i);
            }
        }
        due.sort_unstable();
        due.dedup();
        due
    }

    /// Return the buffer [`Window::take_due`] handed out.
    #[inline]
    pub(crate) fn recycle_due(&mut self, due: Vec<usize>) {
        self.due_now = due;
    }

    /// Index of the `k`-th oldest pending validation.
    #[inline]
    pub(crate) fn pending(&self, k: usize) -> Option<usize> {
        let pos = *self.pending.get(k)?;
        let i = self.index_of(pos);
        debug_assert!(i.is_some(), "pending validation outside the window");
        i
    }

    /// Debug cross-check of the work lists against the scans of every
    /// entry they replace.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_work_lists(&self) {
        let dispatched: Vec<usize> = (0..self.len())
            .filter(|&i| self.entries[i].state == RobState::Dispatched)
            .collect();
        let mut walk = self.walk_dispatched();
        let walked: Vec<usize> = std::iter::from_fn(|| self.next_dispatched(&mut walk)).collect();
        assert_eq!(walked, dispatched, "dispatched set out of step");
        assert_eq!(
            self.dispatched.len(),
            dispatched.len(),
            "stray dispatched bit"
        );
        let pending: Vec<u64> = (0..self.len())
            .filter(|&i| self.entries[i].is_pending())
            .map(|i| self.base + i as u64)
            .collect();
        assert_eq!(self.pending, pending, "pending list out of step");
    }

    /// Debug cross-check of a [`Window::take_due`] list against the
    /// selection it replaces: `Executing` with `done_at <= cycle`, in
    /// window order.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_due(&self, cycle: u64, due: &[usize]) {
        let scan: Vec<usize> = (0..self.len())
            .filter(|&i| {
                let e = &self.entries[i];
                e.state == RobState::Executing && e.done_at <= cycle
            })
            .collect();
        assert_eq!(due, scan, "due list out of step at cycle {cycle}");
    }
}

impl std::ops::Index<usize> for Window {
    type Output = RobEntry;
    #[inline]
    fn index(&self, i: usize) -> &RobEntry {
        &self.entries[i]
    }
}

impl std::ops::IndexMut<usize> for Window {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut RobEntry {
        &mut self.entries[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_entry_defaults() {
        let e = RobEntry::new(7, 3, Inst::Nop);
        assert_eq!(e.seq, 7);
        assert_eq!(e.state, RobState::Dispatched);
        assert_eq!(e.pred_target, 4);
        assert!(e.reuse.is_none());
        assert!(!e.is_cond_branch());
    }

    #[test]
    fn branch_entry_flag() {
        use cfir_isa::Cond;
        let e = RobEntry::new(
            0,
            0,
            Inst::Br {
                cond: Cond::Eq,
                rs1: 1,
                rs2: 2,
                target: 5,
            },
        );
        assert!(e.is_cond_branch());
    }

    fn nop(seq: u64) -> RobEntry {
        RobEntry::new(seq, 0, Inst::Nop)
    }

    fn dispatched(w: &Window) -> Vec<usize> {
        let mut walk = w.walk_dispatched();
        std::iter::from_fn(|| w.next_dispatched(&mut walk)).collect()
    }

    #[test]
    fn dispatched_walk_is_oldest_first_across_the_slot_wrap() {
        let mut w = Window::new(4);
        for seq in 1..=4 {
            w.push(nop(seq));
        }
        // Retire two, so the window's head sits in slot 2 and the two
        // youngest entries wrap to slots 0 and 1.
        for i in 0..2 {
            w.set_state(i, RobState::Done, 0);
        }
        w.pop_front();
        w.pop_front();
        w.push(nop(5));
        w.push(nop(6));
        assert!(w.is_full());
        assert_eq!(dispatched(&w), vec![0, 1, 2, 3]);
        w.set_state(1, RobState::Executing, 9);
        assert_eq!(dispatched(&w), vec![0, 2, 3]);
        // Issue moves entries out of `Dispatched` as it walks.
        let mut walk = w.walk_dispatched();
        assert_eq!(w.next_dispatched(&mut walk), Some(0));
        w.set_state(0, RobState::Executing, 9);
        assert_eq!(w.next_dispatched(&mut walk), Some(2));
        w.set_state(2, RobState::Executing, 9);
        assert_eq!(w.next_dispatched(&mut walk), Some(3));
        assert_eq!(w.next_dispatched(&mut walk), None);
        w.pop_back();
        assert_eq!(dispatched(&w), vec![]);
        w.check_work_lists();
    }

    #[test]
    fn due_items_come_out_in_window_order_and_stale_ones_drop() {
        let mut w = Window::new(8);
        for seq in 1..=4 {
            w.push(nop(seq));
        }
        w.set_state(0, RobState::Executing, 7);
        w.set_state(1, RobState::Executing, 5);
        w.set_state(2, RobState::Executing, 6);
        w.set_state(3, RobState::Executing, 5);
        // Entry 3 is squashed and its position reused by a new seq;
        // entry 2 goes back to `Dispatched` (a validation fallback).
        w.pop_back();
        w.push(nop(9));
        w.set_state(3, RobState::Executing, 8);
        w.set_state(2, RobState::Dispatched, 0);
        let due = w.take_due(7);
        w.check_due(7, &due);
        assert_eq!(
            due,
            vec![0, 1],
            "overdue entry 1 included, stale items dropped"
        );
        w.recycle_due(due);
        let due = w.take_due(8);
        assert_eq!(due, vec![3]);
    }

    #[test]
    fn pending_list_follows_the_validations() {
        let mut w = Window::new(8);
        for seq in 1..=3 {
            w.push(nop(seq));
        }
        for i in [2, 0] {
            w.entries[i].reuse = Some(ReuseInfo {
                value: 0,
                pending: true,
                srsmt_idx: Some(0),
                gen: 0,
                replica: 0,
                event: None,
            });
            w.set_state(i, RobState::Executing, 1);
        }
        assert_eq!(
            (w.pending(0), w.pending(1), w.pending(2)),
            (Some(0), Some(2), None)
        );
        w.check_work_lists();
        w.entries[0].reuse.as_mut().unwrap().pending = false;
        w.set_state(0, RobState::Done, 0);
        assert_eq!(w.pending(0), Some(2));
        w.pop_back();
        assert_eq!(w.pending(0), None);
        w.check_work_lists();
    }

    #[test]
    fn entry_stays_small() {
        // Every in-flight instruction carries one, rename undo state
        // (`old_phys`, `old_ext`) included; issue and writeback visit
        // only the entries on their work lists, but each visit still
        // loads a whole entry.
        assert!(std::mem::size_of::<RobEntry>() <= 264);
    }
}
