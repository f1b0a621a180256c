//! The instruction window: reorder-buffer entries in program order,
//! plus the work lists that let issue and writeback visit only the
//! entries they act on ([`Window`]): register wakeup feeds issue, a
//! completion calendar feeds writeback. The window is also the undo log
//! for rename state: each entry keeps the destination's previous
//! physical register and rename extension, and a squash restores them
//! youngest first (`Pipeline::squash_window`).

use crate::mech::Slot;
use crate::regfile::{PhysId, PhysRegFile};
use cfir_core::bitset::{BitRows, BitSet, Cursor};
use cfir_core::RenameExt;
use cfir_isa::Inst;
use std::collections::VecDeque;

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

/// What a validating instruction does with the value it validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Use {
    /// Takes the value (in [`RobEntry::value`]) without executing.
    /// `pending` while the replica has not finished executing: the
    /// instruction waits for the value (§2.3.4: "it will wait").
    Take {
        /// The value is not there yet.
        pending: bool,
    },
    /// Executes normally, and when done compares its real result with
    /// the slot, confirming the entry's alignment or tearing the entry
    /// down. An unconfirmed entry's validations probe, and so does a
    /// pending one that fell back.
    Probe {
        /// The comparison already ran (or is not wanted).
        checked: bool,
    },
}

/// The validation a window entry passed at decode (§2.3.4).
#[derive(Debug, Clone, Copy)]
pub struct Validation {
    /// The SRSMT slot it consumed, which the entry owns until it
    /// commits or is squashed (recovery recounts the owners). `None`
    /// for a ci-iw squash-reuse hit, which takes a value from the
    /// squashed wrong path instead.
    pub slot: Option<Slot>,
    /// Misprediction event the validation is attributed to (Figure 5).
    pub event: Option<u64>,
    /// Whether the entry takes the value or probes it.
    pub kind: Use,
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
    /// Pipeline state; only [`Window::set_state`] and
    /// [`Window::redispatch`] change it.
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
    /// The validation this instruction passed at decode, if any.
    pub validation: Option<Validation>,
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
            validation: None,
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

    /// Whether this instruction takes a validated value instead of
    /// executing.
    #[inline]
    pub fn reuses(&self) -> bool {
        matches!(
            self.validation,
            Some(Validation {
                kind: Use::Take { .. },
                ..
            })
        )
    }

    /// Whether this instruction takes a value that is not there yet.
    #[inline]
    pub fn awaits_value(&self) -> bool {
        matches!(
            self.validation,
            Some(Validation {
                kind: Use::Take { pending: true },
                ..
            })
        )
    }

    /// Whether this is a validation still waiting for its replica's
    /// value.
    #[inline]
    pub fn is_pending(&self) -> bool {
        self.state == RobState::Executing && self.awaits_value()
    }

    /// The SRSMT slot this entry's validation consumed.
    #[inline]
    pub fn consumed_slot(&self) -> Option<Slot> {
        self.validation.and_then(|v| v.slot)
    }

    /// Whether this is a conditional branch entry.
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        self.inst.is_cond_branch()
    }
}

/// The reorder buffer in program order, plus work lists kept beside it
/// so the per-cycle stages need not scan every entry:
///
/// * the slots of the *issuable* entries, `Dispatched` with every source
///   register ready, which issue walks oldest first
///   ([`Window::next_issuable`]);
/// * per physical register, a *waiting set*: the slots of the entries
///   that found it unready when they entered `Dispatched`. A write of
///   the register re-checks them ([`Window::wake`]), so an entry joins
///   the issuable set when its last source is written;
/// * a completion calendar: per cycle, modulo a horizon that doubles
///   whenever a completion lands beyond it, the slots of the entries due
///   to complete then, which writeback drains ([`Window::take_due`]).
///   An entry that moves into `Executing` already due goes into the next
///   bucket to drain;
/// * the positions of the pending validations, oldest first, which
///   writeback polls ([`Window::pending`]).
///
/// An entry's *position* is the number of entries retired before it
/// plus its index, fixed while it is in the window; its slot is the
/// position modulo the capacity. [`Window::set_state`] and
/// [`Window::redispatch`] are the only writers of an entry's state and
/// keep the lists in step. Waiting and calendar bits stay behind when
/// their entry moves on or leaves the window: whoever drains a bit
/// re-checks the entry now in that slot and drops the bit when the
/// entry does not qualify.
#[derive(Debug)]
pub(crate) struct Window {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Position of `entries[0]`: the entries retired so far.
    base: u64,
    /// Slot of `entries[0]`.
    head_slot: usize,
    issuable: BitSet,
    /// One row of slots per physical register.
    waiting: BitRows,
    /// One row of slots per cycle, modulo its row count (a power of
    /// two). Every bit's cycle lies in `next_due..next_due + rows`.
    calendar: BitRows,
    /// The cycle the next [`Window::take_due`] drains.
    next_due: u64,
    /// The buffer [`Window::take_due`] hands out, kept warm across
    /// cycles.
    due_now: Vec<usize>,
    pending: Vec<u64>,
}

/// A walk over the window's issuable entries, oldest first (see
/// [`Window::walk_issuable`]): the slots from the head's to the end,
/// then the slots that wrapped round to the start.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IssueWalk {
    older: Cursor,
    wrapped: Cursor,
}

/// Index of the entry in `slot` of a window whose head is in slot
/// `head`, if the slot holds one of its `len` entries.
#[inline]
fn index_of_slot(head: usize, capacity: usize, len: usize, slot: usize) -> Option<usize> {
    let i = if slot >= head {
        slot - head
    } else {
        slot + capacity - head
    };
    (i < len).then_some(i)
}

/// Whether every source register of `e` holds its value.
#[inline]
fn sources_ready(e: &RobEntry, rf: &PhysRegFile) -> bool {
    e.src_phys.iter().flatten().all(|&p| rf.is_ready(p))
}

/// Rows a completion calendar starts with; it doubles as longer
/// latencies show up.
const CALENDAR_ROWS: usize = 16;

impl Window {
    /// An empty window of `capacity` entries, with waiting sets for
    /// `regs` physical registers (more are added as higher register ids
    /// show up).
    pub(crate) fn new(capacity: usize, regs: usize) -> Self {
        Window {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            base: 0,
            head_slot: 0,
            issuable: BitSet::new(capacity),
            waiting: BitRows::new(regs, capacity),
            calendar: BitRows::new(CALENDAR_ROWS, capacity),
            next_due: 0,
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

    /// Append a freshly dispatched entry (state `Dispatched`): issuable
    /// at once if its sources are ready, else waiting on each unready
    /// one.
    #[inline]
    pub(crate) fn push(&mut self, e: RobEntry, rf: &PhysRegFile) {
        debug_assert!(!self.is_full());
        debug_assert_eq!(e.state, RobState::Dispatched);
        let slot = self.slot(self.entries.len());
        let srcs = e.src_phys;
        self.entries.push_back(e);
        self.arm(slot, srcs, rf);
    }

    /// Record an entry entering `Dispatched` in `slot`: in the waiting
    /// set of every unready source, or in the issuable set when there
    /// is none.
    #[inline]
    fn arm(&mut self, slot: usize, srcs: [Option<PhysId>; 2], rf: &PhysRegFile) {
        let mut ready = true;
        for p in srcs.into_iter().flatten() {
            if !rf.is_ready(p) {
                self.waiting.grow_to(p as usize + 1);
                self.waiting.insert(p as usize, slot);
                ready = false;
            }
        }
        if ready {
            self.issuable.insert(slot);
        }
    }

    /// Register `p` was just written: every entry waiting on it whose
    /// sources are now all ready becomes issuable. Empties `p`'s
    /// waiting set.
    #[inline]
    pub(crate) fn wake(&mut self, p: PhysId, rf: &PhysRegFile) {
        let p = p as usize;
        if p >= self.waiting.rows() {
            return;
        }
        let (head, cap, entries) = (self.head_slot, self.capacity, &self.entries);
        let issuable = &mut self.issuable;
        self.waiting.drain_row(p, |slot| {
            if let Some(i) = index_of_slot(head, cap, entries.len(), slot) {
                let e = &entries[i];
                if e.state == RobState::Dispatched && sources_ready(e, rf) {
                    issuable.insert(slot);
                }
            }
        });
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

    /// Squash the youngest entry. Its waiting and calendar bits go
    /// stale.
    #[inline]
    pub(crate) fn pop_back(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_back()?;
        let i = self.entries.len();
        if e.state == RobState::Dispatched {
            self.issuable.remove(self.slot(i));
        }
        if self.pending.last() == Some(&(self.base + i as u64)) {
            self.pending.pop();
        }
        Some(e)
    }

    /// Move the entry at index `i` to `Executing`, completing at
    /// `done_at`, or to `Done`, and record the change in the work
    /// lists. Fields that decide pending-ness (`validation`) must be
    /// set before the call. A move back to `Dispatched` is
    /// [`Window::redispatch`].
    #[inline]
    pub(crate) fn set_state(&mut self, i: usize, state: RobState, done_at: u64) {
        debug_assert_ne!(state, RobState::Dispatched, "use Window::redispatch");
        let slot = self.slot(i);
        let e = &mut self.entries[i];
        if e.state == RobState::Dispatched {
            self.issuable.remove(slot);
        }
        e.state = state;
        e.done_at = done_at;
        if state == RobState::Executing {
            let at = done_at.max(self.next_due);
            while at - self.next_due >= self.calendar.rows() as u64 {
                self.grow_calendar();
            }
            let buckets = self.calendar.rows() as u64;
            self.calendar.insert((at & (buckets - 1)) as usize, slot);
        }
        self.sync_pending(i);
    }

    /// Double the calendar's rows, moving each bit to its cycle's row in
    /// the larger table. A row holds the bits of one cycle of
    /// `next_due..next_due + rows`, so the move is exact.
    #[cold]
    fn grow_calendar(&mut self) {
        let rows = self.calendar.rows() as u64;
        let mut grown = BitRows::new(2 * rows as usize, self.capacity);
        for cycle in self.next_due..self.next_due + rows {
            let to = (cycle & (2 * rows - 1)) as usize;
            self.calendar
                .drain_row((cycle & (rows - 1)) as usize, |slot| grown.insert(to, slot));
        }
        self.calendar = grown;
    }

    /// Send the entry at index `i` back to `Dispatched` (a validation
    /// that falls back to executing normally).
    #[inline]
    pub(crate) fn redispatch(&mut self, i: usize, rf: &PhysRegFile) {
        let slot = self.slot(i);
        let e = &mut self.entries[i];
        debug_assert_ne!(e.state, RobState::Dispatched);
        e.state = RobState::Dispatched;
        e.done_at = 0;
        let srcs = e.src_phys;
        self.sync_pending(i);
        self.arm(slot, srcs, rf);
    }

    /// Add the entry at index `i` to the pending list, or remove it,
    /// to match [`RobEntry::is_pending`].
    #[inline]
    fn sync_pending(&mut self, i: usize) {
        let pos = self.base + i as u64;
        let pending = self.entries[i].is_pending();
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

    /// Start a walk over the issuable entries, oldest first. It borrows
    /// nothing, so the walker may change entries between steps: issue
    /// moves the entry it was just given out of `Dispatched`. No entry
    /// may enter or leave the window, and no register be written,
    /// during the walk.
    #[inline]
    pub(crate) fn walk_issuable(&self) -> IssueWalk {
        let (cap, head) = (self.capacity, self.head_slot);
        IssueWalk {
            older: self.issuable.cursor(head, cap),
            wrapped: self.issuable.cursor(0, head),
        }
    }

    /// Index of the walk's next issuable entry.
    #[inline]
    pub(crate) fn next_issuable(&self, walk: &mut IssueWalk) -> Option<usize> {
        let (cap, head) = (self.capacity, self.head_slot);
        match self.issuable.step(&mut walk.older) {
            Some(s) => Some(s - head),
            None => self
                .issuable
                .step(&mut walk.wrapped)
                .map(|s| s + cap - head),
        }
    }

    /// Indices of the `Executing` entries whose `done_at` is at most
    /// `cycle`, overdue ones included, in window order: the calendar's
    /// bucket for `cycle`, less the bits of entries that have since
    /// left that state or the window, or moved to a later `done_at`.
    /// Called once per cycle, cycles in order. Hand the vector back
    /// with [`Window::recycle_due`].
    #[inline]
    pub(crate) fn take_due(&mut self, cycle: u64) -> Vec<usize> {
        debug_assert_eq!(cycle, self.next_due, "one drain per cycle, in order");
        let mut due = std::mem::take(&mut self.due_now);
        due.clear();
        let (head, cap, entries) = (self.head_slot, self.capacity, &self.entries);
        let bucket = (cycle & (self.calendar.rows() as u64 - 1)) as usize;
        let mut wrapped = 0;
        self.calendar.drain_row(bucket, |slot| {
            let Some(i) = index_of_slot(head, cap, entries.len(), slot) else {
                return;
            };
            let e = &entries[i];
            if e.state == RobState::Executing && e.done_at <= cycle {
                wrapped += usize::from(slot < head);
                due.push(i);
            }
        });
        // Slots come out ascending, so the youngest entries, those that
        // wrapped round to the low slots, come first.
        due.rotate_left(wrapped);
        self.next_due = cycle + 1;
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
    /// entry they replace: the issuable set against `Dispatched` with
    /// every source ready in `rf`, each waiting entry against the
    /// waiting sets of its unready sources, and the pending list.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_work_lists(&self, rf: &PhysRegFile) {
        let dispatched = |i: &usize| self.entries[*i].state == RobState::Dispatched;
        let issuable: Vec<usize> = (0..self.len())
            .filter(dispatched)
            .filter(|&i| sources_ready(&self.entries[i], rf))
            .collect();
        let mut walk = self.walk_issuable();
        let walked: Vec<usize> = std::iter::from_fn(|| self.next_issuable(&mut walk)).collect();
        assert_eq!(walked, issuable, "issuable set out of step");
        assert_eq!(self.issuable.len(), issuable.len(), "stray issuable bit");
        for i in (0..self.len()).filter(dispatched) {
            for p in self.entries[i].src_phys.into_iter().flatten() {
                assert!(
                    rf.is_ready(p) || self.waiting.contains(p as usize, self.slot(i)),
                    "entry {i} waits on p{p} outside its waiting set"
                );
            }
        }
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
        assert!(e.validation.is_none() && !e.reuses());
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

    /// An entry reading `srcs`.
    fn reader(seq: u64, srcs: [Option<PhysId>; 2]) -> RobEntry {
        let mut e = nop(seq);
        e.src_phys = srcs;
        e
    }

    /// A register file whose registers 1 and up start unready.
    fn regs() -> PhysRegFile {
        let mut rf = PhysRegFile::new(Some(80));
        for _ in 1..80 {
            rf.alloc();
        }
        rf
    }

    fn issuable(w: &Window) -> Vec<usize> {
        let mut walk = w.walk_issuable();
        std::iter::from_fn(|| w.next_issuable(&mut walk)).collect()
    }

    #[test]
    fn issuable_walk_is_oldest_first_across_the_slot_wrap() {
        let rf = regs();
        let mut w = Window::new(4, 80);
        for seq in 1..=4 {
            w.push(nop(seq), &rf);
        }
        // Retire two, so the window's head sits in slot 2 and the two
        // youngest entries wrap to slots 0 and 1.
        for i in 0..2 {
            w.set_state(i, RobState::Done, 0);
        }
        w.pop_front();
        w.pop_front();
        w.push(nop(5), &rf);
        w.push(nop(6), &rf);
        assert!(w.is_full());
        assert_eq!(issuable(&w), vec![0, 1, 2, 3]);
        w.set_state(1, RobState::Executing, 9);
        assert_eq!(issuable(&w), vec![0, 2, 3]);
        // Issue moves entries out of `Dispatched` as it walks.
        let mut walk = w.walk_issuable();
        assert_eq!(w.next_issuable(&mut walk), Some(0));
        w.set_state(0, RobState::Executing, 9);
        assert_eq!(w.next_issuable(&mut walk), Some(2));
        w.set_state(2, RobState::Executing, 9);
        assert_eq!(w.next_issuable(&mut walk), Some(3));
        assert_eq!(w.next_issuable(&mut walk), None);
        w.pop_back();
        assert_eq!(issuable(&w), vec![]);
        w.check_work_lists(&rf);
    }

    #[test]
    fn an_entry_waits_for_both_of_its_sources() {
        let mut rf = regs();
        let mut w = Window::new(8, 80);
        w.push(reader(1, [Some(3), Some(4)]), &rf);
        w.push(reader(2, [Some(0), Some(4)]), &rf);
        w.push(reader(3, [Some(0), None]), &rf);
        assert_eq!(issuable(&w), vec![2], "the zero register is ready");
        w.check_work_lists(&rf);
        rf.write(3, 30);
        w.wake(3, &rf);
        assert_eq!(issuable(&w), vec![2], "entry 0 still waits on p4");
        w.check_work_lists(&rf);
        rf.write(4, 40);
        w.wake(4, &rf);
        assert_eq!(issuable(&w), vec![0, 1, 2]);
        w.check_work_lists(&rf);
        // A second wake of a drained register finds nobody.
        w.wake(4, &rf);
        assert_eq!(issuable(&w), vec![0, 1, 2]);
        // Waking a register past the waiting sets' rows is a no-op.
        w.wake(200, &rf);
    }

    #[test]
    fn a_squashed_waiters_slot_is_reused_by_a_ready_entry() {
        let mut rf = regs();
        let mut w = Window::new(4, 80);
        w.push(reader(1, [Some(5), None]), &rf);
        w.push(reader(2, [Some(5), None]), &rf);
        assert_eq!(issuable(&w), vec![]);
        // The younger waiter is squashed; a ready entry takes its slot.
        w.pop_back();
        w.push(reader(3, [Some(0), None]), &rf);
        assert_eq!(issuable(&w), vec![1]);
        w.check_work_lists(&rf);
        // Its slot's stale bit on p5 neither duplicates nor drops it.
        rf.write(5, 1);
        w.wake(5, &rf);
        assert_eq!(issuable(&w), vec![0, 1]);
        w.check_work_lists(&rf);
    }

    #[test]
    fn a_stale_waiting_bit_does_not_make_an_unready_entry_issuable() {
        let mut rf = regs();
        let mut w = Window::new(4, 80);
        w.push(nop(1), &rf);
        w.push(reader(2, [Some(6), None]), &rf);
        // Squash the waiter on p6; a new entry in its slot waits on p7.
        w.pop_back();
        w.push(reader(3, [Some(7), None]), &rf);
        rf.write(6, 1);
        w.wake(6, &rf);
        assert_eq!(issuable(&w), vec![0], "p7 is still unready");
        w.check_work_lists(&rf);
        rf.write(7, 1);
        w.wake(7, &rf);
        assert_eq!(issuable(&w), vec![0, 1]);
    }

    #[test]
    fn a_redispatched_entry_waits_again_or_issues() {
        let mut rf = regs();
        let mut w = Window::new(4, 80);
        w.push(reader(1, [Some(8), None]), &rf);
        w.push(reader(2, [None, None]), &rf);
        w.set_state(0, RobState::Executing, 2);
        w.set_state(1, RobState::Executing, 2);
        // Entry 0 goes back with p8 still unready, entry 1 with nothing
        // to wait for.
        w.redispatch(0, &rf);
        w.redispatch(1, &rf);
        assert_eq!(issuable(&w), vec![1]);
        w.check_work_lists(&rf);
        rf.write(8, 1);
        w.wake(8, &rf);
        assert_eq!(issuable(&w), vec![0, 1]);
    }

    #[test]
    fn due_items_come_out_in_window_order_and_stale_ones_drop() {
        let rf = regs();
        let mut w = Window::new(8, 80);
        for seq in 1..=4 {
            w.push(nop(seq), &rf);
        }
        w.set_state(0, RobState::Executing, 7);
        w.set_state(1, RobState::Executing, 5);
        w.set_state(2, RobState::Executing, 6);
        w.set_state(3, RobState::Executing, 5);
        // Entry 3 is squashed and its slot reused by a new seq; entry 2
        // goes back to `Dispatched` (a validation fallback).
        w.pop_back();
        w.push(nop(9), &rf);
        w.set_state(3, RobState::Executing, 8);
        w.redispatch(2, &rf);
        let mut got = Vec::new();
        for cycle in 0..=8 {
            let due = w.take_due(cycle);
            w.check_due(cycle, &due);
            for &i in &due {
                w.set_state(i, RobState::Done, 0);
            }
            got.push(due.clone());
            w.recycle_due(due);
        }
        assert_eq!(got[5], vec![1], "the squashed entry's bit dropped");
        assert_eq!(got[6], vec![], "the redispatched entry's bit dropped");
        assert_eq!(got[7], vec![0]);
        assert_eq!(got[8], vec![3]);
    }

    #[test]
    fn due_entries_come_out_in_window_order_across_the_slot_wrap() {
        let rf = regs();
        let mut w = Window::new(4, 80);
        for seq in 1..=4 {
            w.push(nop(seq), &rf);
        }
        for i in 0..3 {
            w.set_state(i, RobState::Done, 0);
        }
        for _ in 0..3 {
            w.pop_front();
        }
        // Head in slot 3; the three youngest wrap to slots 0..=2.
        for seq in 5..=7 {
            w.push(nop(seq), &rf);
        }
        for i in [3, 1, 0, 2] {
            w.set_state(i, RobState::Executing, 1);
        }
        assert_eq!(w.take_due(0), vec![]);
        let due = w.take_due(1);
        w.check_due(1, &due);
        assert_eq!(due, vec![0, 1, 2, 3]);
    }

    #[test]
    fn an_overdue_completion_comes_out_at_the_next_drain() {
        let rf = regs();
        let mut w = Window::new(8, 80);
        w.push(nop(1), &rf);
        w.push(nop(2), &rf);
        for cycle in 0..=4 {
            w.take_due(cycle);
        }
        // After cycle 4's drain, entry 0 moves into `Executing` due at
        // cycle 4 (a pending validation's `done_at` is its dispatch
        // cycle) and entry 1 due at cycle 2.
        w.set_state(0, RobState::Executing, 4);
        w.set_state(1, RobState::Executing, 2);
        let due = w.take_due(5);
        w.check_due(5, &due);
        assert_eq!(due, vec![0, 1]);
    }

    #[test]
    fn a_stale_calendar_bit_under_a_re_executed_entry_is_dropped() {
        let rf = regs();
        let mut w = Window::new(8, 80);
        w.push(nop(1), &rf);
        w.set_state(0, RobState::Executing, 3);
        // The entry falls back and issues again, now due at cycle 6.
        w.redispatch(0, &rf);
        w.set_state(0, RobState::Executing, 6);
        for cycle in 0..=5 {
            let due = w.take_due(cycle);
            w.check_due(cycle, &due);
            assert_eq!(due, vec![], "cycle {cycle}");
            w.recycle_due(due);
        }
        assert_eq!(w.take_due(6), vec![0]);
    }

    /// Drain cycles `from..to`, completing every due entry, and return
    /// the non-empty due lists with their cycles.
    fn drain(w: &mut Window, from: u64, to: u64) -> Vec<(u64, Vec<usize>)> {
        let mut got = Vec::new();
        for cycle in from..to {
            let due = w.take_due(cycle);
            w.check_due(cycle, &due);
            for &i in &due {
                w.set_state(i, RobState::Done, 0);
            }
            if !due.is_empty() {
                got.push((cycle, due.clone()));
            }
            w.recycle_due(due);
        }
        got
    }

    #[test]
    fn the_calendar_wraps_round_its_horizon() {
        let rf = regs();
        let rows = CALENDAR_ROWS as u64;
        let mut w = Window::new(4, 80);
        w.push(nop(1), &rf);
        w.push(nop(2), &rf);
        assert_eq!(drain(&mut w, 0, 4), vec![]);
        // A completion `rows - 1` cycles after the next drain lands in
        // the bucket just drained, and needs no growth.
        w.set_state(0, RobState::Executing, 4 + rows - 1);
        w.set_state(1, RobState::Executing, 4 + rows - 2);
        assert_eq!(w.calendar.rows(), CALENDAR_ROWS);
        assert_eq!(
            drain(&mut w, 4, 4 + 2 * rows),
            vec![(4 + rows - 2, vec![1]), (4 + rows - 1, vec![0])]
        );
    }

    #[test]
    fn the_calendar_grows_past_its_horizon_and_keeps_every_completion() {
        let rf = regs();
        let rows = CALENDAR_ROWS as u64;
        let mut w = Window::new(8, 80);
        for seq in 1..=4 {
            w.push(nop(seq), &rf);
        }
        // Start mid-table, so the bits already in it wrap round.
        let now = rows + 3;
        assert_eq!(drain(&mut w, 0, now), vec![]);
        w.set_state(0, RobState::Executing, now + rows - 1);
        w.set_state(1, RobState::Executing, now + 1);
        // Entry 2 falls back and issues again: its first bit goes stale.
        w.set_state(2, RobState::Executing, now + 5);
        w.redispatch(2, &rf);
        w.set_state(2, RobState::Executing, now + 6);
        // A completion five horizons out doubles the table three times.
        w.set_state(3, RobState::Executing, now + 5 * rows);
        assert_eq!(w.calendar.rows(), 8 * CALENDAR_ROWS);
        assert_eq!(
            drain(&mut w, now, now + 9 * rows),
            vec![
                (now + 1, vec![1]),
                (now + 6, vec![2]),
                (now + rows - 1, vec![0]),
                (now + 5 * rows, vec![3]),
            ]
        );
    }

    #[test]
    fn pending_list_follows_the_validations() {
        let rf = regs();
        let mut w = Window::new(8, 80);
        for seq in 1..=4 {
            w.push(nop(seq), &rf);
        }
        for i in [3, 1, 0] {
            w.entries[i].validation = Some(Validation {
                slot: Some(Slot {
                    way: 0,
                    gen: 0,
                    k: i as u32,
                }),
                event: None,
                kind: Use::Take { pending: true },
            });
            w.set_state(i, RobState::Executing, 1);
        }
        assert_eq!(
            (w.pending(0), w.pending(1), w.pending(2), w.pending(3)),
            (Some(0), Some(1), Some(3), None)
        );
        w.check_work_lists(&rf);
        // A validation that completes leaves the list.
        w.entries[0].validation.as_mut().unwrap().kind = Use::Take { pending: false };
        w.set_state(0, RobState::Done, 0);
        assert_eq!((w.pending(0), w.pending(1)), (Some(1), Some(3)));
        // So does one that falls back to probing, which can issue again
        // and still owns its slot.
        w.entries[1].validation.as_mut().unwrap().kind = Use::Probe { checked: true };
        w.redispatch(1, &rf);
        assert!(!w.entries[1].reuses());
        assert_eq!(w.entries[1].consumed_slot().map(|s| s.k), Some(1));
        assert_eq!((w.pending(0), w.pending(1)), (Some(3), None));
        assert_eq!(issuable(&w), vec![1, 2]);
        w.check_work_lists(&rf);
        // And so does a squashed one.
        w.pop_back();
        assert_eq!(w.pending(0), None);
        w.check_work_lists(&rf);
    }

    #[test]
    fn entry_stays_small() {
        // Every in-flight instruction carries one, rename undo state
        // (`old_phys`, `old_ext`) included; issue and writeback visit
        // only the entries on their work lists, but each visit still
        // loads a whole entry, its one validation record included.
        assert!(std::mem::size_of::<Option<Validation>>() <= 48);
        assert!(std::mem::size_of::<RobEntry>() <= 232);
    }
}
