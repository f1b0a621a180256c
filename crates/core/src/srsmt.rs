//! SRSMT — Scalar Register Set Map Table (§2.3.3, Figure 6).
//!
//! One entry per vectorized instruction, indexed by PC. An entry owns
//! the replica results, the *set of registers* (or speculative-memory
//! positions) they occupy, the `decode`/`commit` counters that drive
//! validation, the `seq1`/`seq2` identifiers of the source operands,
//! the DAEC early-release counter (§2.4.2) and the address `Range` used
//! by the store-coherence check (§2.4.3).
//!
//! ## Replica window
//!
//! The paper dispatches a set of `Nregs` replicas and, "when the last
//! replica is validated, another set of multiple speculative instances
//! of the instruction are dispatched again". We model that as a
//! *sliding window* over the (unbounded) stream of future dynamic
//! instances of the vectorized instruction:
//!
//! * every replica carries an absolute **instance index** `k` (0 for
//!   the first dynamic instance after vectorization); its result lives
//!   in slot `k % Nregs`;
//! * `head` — instances pre-executed so far (replicas exist for
//!   `decode..head`); grows whenever fewer than `Nregs` results are
//!   outstanding and a destination register can be allocated;
//! * `decode` — next instance a validation will consume ("which is the
//!   next replica to be validated", incremented when a dynamic instance
//!   of the instruction enters the decode stage);
//! * `commit` — next instance whose validating instruction will commit
//!   ("the last replica that has been committed"); committing frees the
//!   slot's storage, which lets `head` grow again — the re-dispatch of
//!   the next set.
//!
//! On a misprediction recovery, `decode` is pulled back to `commit`
//! (§2.4.4) — the replicas themselves are *not* squashed, so the
//! re-fetched control-independent instructions find their precomputed
//! values still present. That is the mechanism's entire point.
//!
//! The replica *execution* engine lives in `cfir-sim`; this module owns
//! the architectural state machine.

use crate::BitSet;
use cfir_isa::Inst;

/// Identifier of a replica's destination storage: a physical register
/// (monolithic mode) or a speculative-memory position (§2.4.6 mode).
/// Interpreted by the pipeline that owns the storage.
pub type StorageId = u32;

/// Maximum replicas per instruction (Figure 11 sweeps up to 8).
pub const MAX_REPLICAS: usize = 8;

/// Identifier of a vectorized instruction's source operand (the
/// `seq1`/`seq2` fields of Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqId {
    /// The operand does not exist (single-source instructions).
    None,
    /// The operand is produced by the vectorized instruction at `pc`:
    /// instance `k` of this entry consumes instance `off + k` of the
    /// producer. The generation detects producer teardown.
    Vec {
        /// Producer PC (SRSMT key).
        pc: u64,
        /// Producer generation captured at vectorization time.
        gen: u32,
        /// Producer instance-index offset.
        off: u32,
    },
    /// The operand is a scalar whose value was read at vectorization
    /// time (§2.3.3: "If an operand is scalar, its value is read from
    /// the register file").
    Scalar(u64),
    /// Loop-carried self-dependence (e.g. an accumulator `r += x`):
    /// instance `k` consumes instance `k-1` of *this* entry; instance 0
    /// consumes the creating dynamic instance's own result (the seed).
    SelfLoop,
}

/// What kind of instruction the entry replicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecKind {
    /// A strided load: instance `k` reads `base + stride * (k + 1)`.
    Load {
        /// Stride captured at vectorization time.
        stride: i64,
        /// Address of the dynamic instance that triggered
        /// vectorization (instance "-1").
        base: u64,
    },
    /// An arithmetic/FP/load instruction dependent on vectorized
    /// producers.
    Op,
}

/// One SRSMT entry.
#[derive(Debug, Clone)]
pub struct SrsmtEntry {
    /// PC of the vectorized instruction (full tag).
    pub pc: u64,
    /// The instruction being replicated.
    pub inst: Inst,
    /// Load or dependent op.
    pub kind: VecKind,
    /// Destination storage per slot (`Set of registers`); valid for
    /// slots holding instances in `commit..head`. The storage only
    /// stands for the capacity the replica occupies: its result is in
    /// [`SrsmtEntry::values`].
    pub regs: [StorageId; MAX_REPLICAS],
    /// Replica-window size (`Nregs`).
    pub nregs: u8,
    /// Next instance index a validation consumes.
    pub decode: u32,
    /// Next instance index to commit (slots below are recycled).
    pub commit: u32,
    /// Instances pre-executed (replicas exist for `decode..head`).
    pub head: u32,
    /// Replicas currently executing (issued, not finished).
    pub issue: u8,
    /// First source operand identifier.
    pub seq1: SeqId,
    /// Second source operand identifier.
    pub seq2: SeqId,
    /// Dead Association Elimination Counter (§2.4.2).
    pub daec: u8,
    /// Misprediction event that caused this vectorization (Figure 5).
    pub event: Option<u64>,
    /// Bumped on teardown so stale references (in-flight replicas,
    /// waiting validations) can be recognised.
    pub gen: u32,
    /// Whether a validation consumed from this entry since the last
    /// misprediction recovery (drives the DAEC tick; the paper uses
    /// `decode == commit` as the idleness proxy, which mis-fires when
    /// validations retire quickly — see DESIGN.md).
    pub used: bool,
    /// Seed handle for [`SeqId::SelfLoop`] chains: the dynamic sequence
    /// number of the creating instruction, whose result feeds
    /// instance 0's loop-carried input.
    pub seed: u64,
    /// The seed's value once the creating instruction produced it.
    pub seed_value: Option<u64>,
    /// Dynamic sequence number of the instruction whose decode created
    /// this entry. If that instruction is squashed, the entry's
    /// instance numbering no longer lines up with the dynamic
    /// instruction stream and the entry must be torn down.
    pub creator: u64,
    /// Whether the instance numbering is known to be in step with the
    /// dynamic instruction stream. Load entries start out of step (the
    /// creation-time frontier estimate may be off) and synchronise on
    /// the first exact-address validation; a soft miss desynchronises.
    pub synced: bool,
    /// Whether the alignment has been *verified against an actually
    /// executed instance* (a probe). Only confirmed entries may deliver
    /// values; unconfirmed validations execute normally and verify.
    pub confirmed: bool,
    /// Per-slot completion bits.
    complete: u8,
    /// Per-slot dead bits (can never complete / must not be consumed).
    dead: u8,
    /// Per-slot replica results: the one copy of each, which a
    /// validation delivers and the replicas of dependent entries read.
    pub values: [u64; MAX_REPLICAS],
    /// Per-slot effective addresses (loads).
    pub addrs: [u64; MAX_REPLICAS],
}

impl SrsmtEntry {
    /// Fresh entry for a newly vectorized instruction with a window of
    /// `nregs` replicas. Storage is attached per-instance via
    /// [`SrsmtEntry::grow`].
    pub fn new(pc: u64, inst: Inst, kind: VecKind, nregs: u8, seq1: SeqId, seq2: SeqId) -> Self {
        assert!(nregs as usize <= MAX_REPLICAS && nregs > 0);
        SrsmtEntry {
            pc,
            inst,
            kind,
            regs: [0; MAX_REPLICAS],
            nregs,
            decode: 0,
            commit: 0,
            head: 0,
            issue: 0,
            seq1,
            seq2,
            daec: 0,
            event: None,
            gen: 0,
            used: false,
            seed: 0,
            seed_value: None,
            creator: 0,
            synced: false,
            confirmed: false,
            complete: 0,
            dead: 0,
            values: [0; MAX_REPLICAS],
            addrs: [0; MAX_REPLICAS],
        }
    }

    /// Slot of instance `k`.
    #[inline]
    pub fn slot(&self, k: u32) -> usize {
        (k % self.nregs as u32) as usize
    }

    /// Whether a new instance can be pre-executed (a slot is free).
    #[inline]
    pub fn can_grow(&self) -> bool {
        self.head - self.commit < self.nregs as u32
    }

    /// Claim the next instance index, attaching its destination
    /// storage. Returns the instance index.
    pub fn grow(&mut self, storage: StorageId) -> u32 {
        debug_assert!(self.can_grow());
        let k = self.head;
        let s = self.slot(k);
        self.regs[s] = storage;
        self.complete &= !(1 << s);
        self.dead &= !(1 << s);
        self.head += 1;
        k
    }

    /// Predicted address of load instance `k`.
    #[inline]
    pub fn load_addr(&self, k: u32) -> Option<u64> {
        match self.kind {
            VecKind::Load { stride, base } => {
                Some(base.wrapping_add((stride as u64).wrapping_mul(k as u64 + 1)))
            }
            VecKind::Op => None,
        }
    }

    /// Whether instance `k`'s replica has completed execution.
    #[inline]
    pub fn is_complete(&self, k: u32) -> bool {
        debug_assert!(k < self.head);
        self.complete & (1 << self.slot(k)) != 0
    }

    /// Whether instance `k`'s replica is dead.
    #[inline]
    pub fn is_dead(&self, k: u32) -> bool {
        debug_assert!(k < self.head);
        self.dead & (1 << self.slot(k)) != 0
    }

    /// Record completion of instance `k` with its value/address.
    pub fn complete_replica(&mut self, k: u32, value: u64, addr: Option<u64>) {
        let s = self.slot(k);
        self.complete |= 1 << s;
        self.values[s] = value;
        if let Some(a) = addr {
            self.addrs[s] = a;
        }
    }

    /// Mark instance `k` dead.
    pub fn kill_replica(&mut self, k: u32) {
        self.dead |= 1 << self.slot(k);
    }

    /// Result value of instance `k` (valid once complete).
    #[inline]
    pub fn value_of(&self, k: u32) -> u64 {
        self.values[self.slot(k)]
    }

    /// Effective address of instance `k` (loads; valid for strided
    /// loads from `grow`, for dependent loads from completion).
    #[inline]
    pub fn addr_of(&self, k: u32) -> u64 {
        self.addrs[self.slot(k)]
    }

    /// The instance the next validation would consume, or `None` when
    /// no pre-executed instance is available / the slot is dead.
    pub fn next_slot(&self) -> Option<u32> {
        let k = self.decode;
        if k < self.head && !self.is_dead(k) {
            Some(k)
        } else {
            None
        }
    }

    /// Consume instance `decode` on a successful validation.
    pub fn advance_decode(&mut self) -> u32 {
        debug_assert!(self.decode < self.head);
        let k = self.decode;
        self.decode += 1;
        self.used = true;
        k
    }

    /// Commit the oldest consumed instance, freeing its slot. Returns
    /// the storage to release.
    pub fn advance_commit(&mut self) -> StorageId {
        debug_assert!(self.commit < self.decode, "commit may not pass decode");
        let s = self.slot(self.commit);
        self.commit += 1;
        self.regs[s]
    }

    /// Fast-forward past instances `decode..k` that will never be
    /// validated (they belong to dynamic instances that were already in
    /// flight when the entry was created). Requires `decode == commit`
    /// (no validations in flight). The skipped slots are marked dead;
    /// their storage is returned for release.
    pub fn skip_to(&mut self, k: u32) -> Vec<StorageId> {
        debug_assert!(
            self.decode == self.commit,
            "cannot skip with validations in flight"
        );
        debug_assert!(k > self.decode && k <= self.head);
        let mut freed = Vec::new();
        for i in self.decode..k.min(self.head) {
            let s = self.slot(i);
            self.dead |= 1 << s;
            freed.push(self.regs[s]);
        }
        self.decode = k;
        self.commit = k;
        self.used = true;
        freed
    }

    /// Address range `[lo, hi]` covered by live load replicas (§2.4.3's
    /// `Range` field, restricted to slots still holding values). For
    /// stride-triggered loads the addresses are known from creation;
    /// for dependent (Op-kind) loads only completed replicas have
    /// addresses.
    pub fn live_range(&self) -> Option<(u64, u64)> {
        if !self.inst.is_load() {
            return None;
        }
        let strided = matches!(self.kind, VecKind::Load { .. });
        let mut r: Option<(u64, u64)> = None;
        for k in self.commit..self.head {
            if self.is_dead(k) || (!strided && !self.is_complete(k)) {
                continue;
            }
            let a = self.addr_of(k);
            r = Some(match r {
                None => (a, a),
                Some((lo, hi)) => (lo.min(a), hi.max(a)),
            });
        }
        r
    }

    /// Store coherence (§2.4.3): whether a committing store to `addr`
    /// lands inside the live replica address range, so the entry must be
    /// torn down and the conventional window squashed.
    pub fn covers(&self, addr: u64) -> bool {
        self.live_range()
            .is_some_and(|(lo, hi)| lo <= addr && addr <= hi)
    }

    /// Whether the entry may be reclaimed (§2.3.3: `decode == commit`
    /// and `issue == 0`).
    pub fn deallocatable(&self) -> bool {
        self.decode == self.commit && self.issue == 0
    }

    /// Storage ids of instances not yet consumed by a committed
    /// validation (released when the entry is torn down).
    pub fn unconsumed_storage(&self) -> Vec<StorageId> {
        (self.commit..self.head)
            .map(|k| self.regs[self.slot(k)])
            .collect()
    }
}

/// Outcome of an allocation attempt.
#[derive(Debug)]
pub enum AllocOutcome {
    /// Entry installed at this index; the displaced entry (if any) is
    /// returned so the caller can release its storage.
    Placed {
        /// Index of the new entry.
        idx: usize,
        /// Entry that was evicted to make room.
        evicted: Option<Box<SrsmtEntry>>,
    },
    /// No way free and none deallocatable: the instruction is not
    /// vectorized (§2.3.3).
    Full,
}

/// How the table's entries left it, for tests of the reclaim rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct SrsmtStats {
    /// Entries reclaimed by LRU deallocation.
    pub lru_evictions: u64,
    /// Entries torn down by the DAEC rule.
    pub daec_releases: u64,
}

/// The set-associative SRSMT.
#[derive(Debug, Clone)]
pub struct Srsmt {
    ways: Vec<Option<SrsmtEntry>>,
    /// The ways holding an entry. Every walk over the table (the
    /// replica pump's, recovery's, the store check's) visits only
    /// these: a few of the 256 ways are live at a time.
    live: BitSet,
    stamps: Vec<u64>,
    sets: usize,
    assoc: usize,
    clock: u64,
    daec_threshold: u8,
    /// Accumulated statistics.
    pub stats: SrsmtStats,
}

impl Srsmt {
    /// Create a table with `sets` × `assoc` entries and the given DAEC
    /// threshold (2 in the paper).
    pub fn new(sets: usize, assoc: usize, daec_threshold: u8) -> Self {
        assert!(sets.is_power_of_two() && sets > 0 && assoc > 0);
        Srsmt {
            ways: vec![None; sets * assoc],
            live: BitSet::new(sets * assoc),
            stamps: vec![0; sets * assoc],
            sets,
            assoc,
            clock: 0,
            daec_threshold,
            stats: SrsmtStats::default(),
        }
    }

    /// The paper's 4-way × 64-set table with DAEC threshold 2.
    pub fn paper() -> Self {
        Self::new(64, 4, 2)
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    /// Index of the entry for `pc`, if present.
    pub fn find(&self, pc: u64) -> Option<usize> {
        let base = self.set_of(pc) * self.assoc;
        (base..base + self.assoc)
            .find(|&i| self.ways[i].as_ref().map(|e| e.pc == pc).unwrap_or(false))
    }

    /// Shared access to an entry.
    pub fn get(&self, idx: usize) -> Option<&SrsmtEntry> {
        self.ways[idx].as_ref()
    }

    /// The entry at `idx` if it is still generation `gen`: how a stale
    /// reference (a replica, a validation's consumed slot, a seed
    /// waiter) finds its entry. Does not touch LRU.
    pub fn get_gen(&self, idx: usize, gen: u32) -> Option<&SrsmtEntry> {
        self.ways[idx].as_ref().filter(|e| e.gen == gen)
    }

    /// Mutable access to an entry; touches LRU.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut SrsmtEntry> {
        self.clock += 1;
        self.stamps[idx] = self.clock;
        self.ways[idx].as_mut()
    }

    /// Try to install `entry`. Uses a free way, else reclaims the LRU
    /// *deallocatable* entry of the set, else fails. The entry receives
    /// a table-unique generation so stale references (replicas, waiting
    /// validations) can never match a re-incarnated entry.
    pub fn alloc(&mut self, mut entry: SrsmtEntry) -> AllocOutcome {
        debug_assert!(self.find(entry.pc).is_none(), "PC already vectorized");
        self.clock += 1;
        entry.gen = self.clock as u32;
        let base = self.set_of(entry.pc) * self.assoc;
        let range = base..base + self.assoc;
        if let Some(i) = range.clone().find(|&i| !self.live.contains(i)) {
            self.ways[i] = Some(entry);
            self.live.insert(i);
            self.stamps[i] = self.clock;
            return AllocOutcome::Placed {
                idx: i,
                evicted: None,
            };
        }
        let victim = range
            .filter(|&i| self.ways[i].as_ref().unwrap().deallocatable())
            .min_by_key(|&i| self.stamps[i]);
        match victim {
            Some(i) => {
                let old = self.ways[i].take().map(Box::new);
                self.ways[i] = Some(entry);
                self.stamps[i] = self.clock;
                self.stats.lru_evictions += 1;
                AllocOutcome::Placed {
                    idx: i,
                    evicted: old,
                }
            }
            None => AllocOutcome::Full,
        }
    }

    /// Remove the entry at `idx`, returning it so the caller can free
    /// its storage.
    pub fn invalidate(&mut self, idx: usize) -> Option<SrsmtEntry> {
        self.live.remove(idx);
        self.ways[idx].take()
    }

    /// Branch-misprediction recovery (§2.4.4): `decode ← commit` for
    /// every entry — replicas are *not* squashed — and DAEC ticking
    /// (§2.4.2). Entries whose DAEC reaches the threshold are torn
    /// down; they are returned so the caller releases their storage.
    pub fn recovery(&mut self) -> Vec<SrsmtEntry> {
        let mut released = Vec::new();
        let mut next = self.next_valid(0);
        while let Some(i) = next {
            next = self.next_valid(i + 1);
            let tear_down = {
                let e = self.ways[i].as_mut().expect("live way holds an entry");
                if e.used {
                    e.daec = 0;
                } else {
                    e.daec = e.daec.saturating_add(1);
                }
                e.used = false;
                e.decode = e.commit;
                e.daec >= self.daec_threshold && e.issue == 0
            };
            if tear_down {
                self.stats.daec_releases += 1;
                released.push(self.invalidate(i).expect("live way holds an entry"));
            }
        }
        released
    }

    /// Iterate over valid entries in way order.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, &SrsmtEntry)> {
        self.live
            .iter()
            .map(|i| (i, self.ways[i].as_ref().expect("live way holds an entry")))
    }

    /// Index of the first valid entry at way `from` or later: a walk
    /// that may change entries between steps (the replica pump's).
    #[inline]
    pub fn next_valid(&self, from: usize) -> Option<usize> {
        self.live.iter_in(from, self.ways.len()).next()
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.live.len()
    }

    /// Whether the live-way set agrees with a walk of every way (the
    /// reference the pipeline's debug builds check it against).
    pub fn live_set_is_exact(&self) -> bool {
        self.ways
            .iter()
            .enumerate()
            .all(|(i, w)| w.is_some() == self.live.contains(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_isa::Inst;

    fn load_entry(pc: u64, nregs: u8) -> SrsmtEntry {
        SrsmtEntry::new(
            pc,
            Inst::Ld {
                rd: 1,
                base: 2,
                offset: 0,
            },
            VecKind::Load {
                stride: 8,
                base: 1000,
            },
            nregs,
            SeqId::None,
            SeqId::None,
        )
    }

    fn grown(pc: u64, nregs: u8, n: u32) -> SrsmtEntry {
        let mut e = load_entry(pc, nregs);
        for i in 0..n {
            let k = e.grow(100 + i);
            assert_eq!(k, i);
        }
        e
    }

    #[test]
    fn grow_window_and_slots() {
        let mut e = load_entry(0x40, 4);
        assert!(e.can_grow());
        for i in 0..4 {
            assert_eq!(e.grow(100 + i), i);
        }
        assert!(!e.can_grow(), "window full at nregs outstanding");
        assert_eq!(e.slot(0), 0);
        assert_eq!(e.slot(5), 1);
        assert_eq!(e.load_addr(0), Some(1008));
        assert_eq!(e.load_addr(3), Some(1032));
    }

    #[test]
    fn validate_commit_recycles_slots() {
        let mut e = grown(0x40, 4, 4);
        e.complete_replica(0, 111, Some(1008));
        assert_eq!(e.next_slot(), Some(0));
        assert_eq!(e.advance_decode(), 0);
        assert_eq!(e.advance_commit(), 100);
        assert!(e.can_grow(), "committed slot frees window space");
        assert_eq!(e.grow(200), 4, "instance 4 reuses slot 0");
        assert_eq!(e.slot(4), 0);
        assert!(!e.is_complete(4), "recycled slot starts clean");
    }

    #[test]
    fn pending_validation_without_completion() {
        let mut e = grown(0x40, 4, 2);
        // Instance 0 not complete yet: validation may still consume the
        // slot (the validating instruction waits for the value).
        assert_eq!(e.next_slot(), Some(0));
        e.advance_decode();
        assert_eq!(e.next_slot(), Some(1));
    }

    #[test]
    fn next_slot_none_beyond_head() {
        let mut e = grown(0x40, 4, 1);
        e.advance_decode();
        assert_eq!(e.next_slot(), None, "no pre-executed instance left");
    }

    #[test]
    fn dead_slot_blocks_validation() {
        let mut e = grown(0x40, 4, 2);
        e.kill_replica(0);
        assert_eq!(e.next_slot(), None);
    }

    #[test]
    fn skip_to_marks_dead_and_frees() {
        let mut e = grown(0x40, 4, 4);
        let freed = e.skip_to(2);
        assert_eq!(freed, vec![100, 101]);
        assert_eq!(e.decode, 2);
        assert_eq!(e.commit, 2);
        assert!(e.is_dead(2 - 1));
        assert_eq!(e.next_slot(), Some(2));
        assert!(e.used);
    }

    #[test]
    fn live_range_over_live_loads() {
        let mut e = grown(0x40, 4, 3);
        e.complete_replica(0, 0, Some(1008));
        e.complete_replica(1, 0, Some(1016));
        e.complete_replica(2, 0, Some(1024));
        assert_eq!(e.live_range(), Some((1008, 1024)));
        e.advance_decode();
        e.advance_commit(); // instance 0 gone
        assert_eq!(e.live_range(), Some((1016, 1024)));
    }

    #[test]
    fn recovery_copies_commit_into_decode_and_ticks_daec() {
        let mut t = Srsmt::paper();
        let AllocOutcome::Placed { idx, .. } = t.alloc(grown(0x40, 4, 4)) else {
            panic!()
        };
        {
            let e = t.get_mut(idx).unwrap();
            e.advance_decode();
            e.advance_decode();
            e.advance_commit();
        }
        let released = t.recovery();
        assert!(released.is_empty());
        let e = t.get(idx).unwrap();
        assert_eq!(e.decode, 1, "decode pulled back to commit");
        assert_eq!(e.daec, 0, "entry was used since the last recovery");
        assert!(!e.used);
    }

    #[test]
    fn daec_releases_unused_entries_after_two_recoveries() {
        let mut t = Srsmt::paper();
        let AllocOutcome::Placed { .. } = t.alloc(grown(0x40, 4, 4)) else {
            panic!()
        };
        assert!(t.recovery().is_empty(), "first recovery: daec=1");
        let released = t.recovery();
        assert_eq!(released.len(), 1, "second recovery: daec=2 -> release");
        assert_eq!(released[0].pc, 0x40);
        assert_eq!(t.stats.daec_releases, 1);
    }

    #[test]
    fn daec_spares_active_entries() {
        let mut t = Srsmt::paper();
        let AllocOutcome::Placed { idx, .. } = t.alloc(grown(0x40, 4, 4)) else {
            panic!()
        };
        t.recovery();
        // A validation between recoveries keeps the entry alive.
        t.get_mut(idx).unwrap().advance_decode();
        assert!(t.recovery().is_empty());
        // Two idle recoveries in a row release it.
        t.recovery();
        assert_eq!(t.recovery().len() + t.occupancy(), 1);
    }

    #[test]
    fn daec_spares_entries_with_inflight_issue() {
        let mut t = Srsmt::paper();
        let AllocOutcome::Placed { idx, .. } = t.alloc(grown(0x40, 4, 4)) else {
            panic!()
        };
        t.get_mut(idx).unwrap().issue = 1;
        t.recovery();
        assert!(t.recovery().is_empty(), "issue>0 protects the entry");
    }

    #[test]
    fn alloc_find_invalidate() {
        let mut t = Srsmt::paper();
        let AllocOutcome::Placed { idx, evicted } = t.alloc(load_entry(0x40, 4)) else {
            panic!("must place");
        };
        assert!(evicted.is_none());
        assert_eq!(t.find(0x40), Some(idx));
        let gen = t.get(idx).unwrap().gen;
        let stamp = t.stamps[idx];
        assert_eq!(t.get_gen(idx, gen).unwrap().pc, 0x40);
        assert!(t.get_gen(idx, gen + 1).is_none(), "another generation");
        assert_eq!(t.stamps[idx], stamp, "get_gen leaves LRU alone");
        let e = t.invalidate(idx).unwrap();
        assert_eq!(e.pc, 0x40);
        assert_eq!(t.find(0x40), None);
        assert!(t.get_gen(idx, gen).is_none(), "entry gone");
    }

    #[test]
    fn full_set_with_busy_entries_rejects() {
        let mut t = Srsmt::new(1, 2, 2);
        for pc in [0x00u64, 0x04] {
            let mut e = grown(pc, 2, 1);
            e.advance_decode(); // validation in flight -> not deallocatable
            assert!(matches!(t.alloc(e), AllocOutcome::Placed { .. }));
        }
        assert!(matches!(t.alloc(load_entry(0x08, 2)), AllocOutcome::Full));
    }

    #[test]
    fn lru_reclaims_deallocatable() {
        let mut t = Srsmt::new(1, 2, 2);
        t.alloc(grown(0x00, 2, 2));
        t.alloc(grown(0x04, 2, 2));
        let i0 = t.find(0x00).unwrap();
        let _ = t.get_mut(i0); // touch -> 0x04 becomes LRU
        let AllocOutcome::Placed { evicted, .. } = t.alloc(grown(0x08, 2, 2)) else {
            panic!("must reclaim");
        };
        assert_eq!(evicted.unwrap().pc, 0x04);
        assert!(t.find(0x00).is_some());
    }

    /// Ways whose entry a committing store to `addr` hits, in way order:
    /// the victims of the pipeline's store-coherence sweep.
    fn store_hits(t: &Srsmt, addr: u64) -> Vec<usize> {
        t.iter_valid()
            .filter(|(_, e)| e.covers(addr))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn stores_hit_live_ranges() {
        let mut t = Srsmt::paper();
        let AllocOutcome::Placed { idx: a, .. } = t.alloc(grown(0x40, 2, 2)) else {
            panic!()
        };
        let AllocOutcome::Placed { idx: b, .. } = t.alloc(grown(0x44, 2, 2)) else {
            panic!()
        };
        t.get_mut(a).unwrap().complete_replica(0, 0, Some(1000));
        t.get_mut(a).unwrap().complete_replica(1, 0, Some(1008));
        t.get_mut(b).unwrap().complete_replica(0, 0, Some(5000));
        t.get_mut(b).unwrap().complete_replica(1, 0, Some(5008));
        assert_eq!(store_hits(&t, 1004), vec![a]);
        assert_eq!(store_hits(&t, 5000), vec![b]);
        assert!(store_hits(&t, 2000).is_empty());
    }

    /// `iter_valid` and `occupancy` agree with a walk of every way.
    fn assert_live_set_matches_ways(t: &Srsmt) {
        let walk: Vec<usize> = (0..t.ways.len()).filter(|&i| t.ways[i].is_some()).collect();
        let live: Vec<usize> = t.iter_valid().map(|(i, _)| i).collect();
        assert_eq!(live, walk);
        assert_eq!(t.occupancy(), walk.len());
        assert!(t.live_set_is_exact());
    }

    #[test]
    fn live_set_follows_every_way_change() {
        // 2 sets x 2 ways: PCs 0x00, 0x08 and 0x10 share set 0.
        let mut t = Srsmt::new(2, 2, 2);
        assert_live_set_matches_ways(&t);
        for pc in [0x00, 0x04, 0x08] {
            t.alloc(grown(pc, 2, 2));
            assert_live_set_matches_ways(&t);
        }
        // LRU eviction: set 0 is full, so 0x10 displaces 0x00.
        let AllocOutcome::Placed { evicted, .. } = t.alloc(grown(0x10, 2, 2)) else {
            panic!("an idle entry must be reclaimed");
        };
        assert_eq!(evicted.unwrap().pc, 0x00);
        assert_live_set_matches_ways(&t);
        // Invalidate, then invalidate the emptied way again.
        let i = t.find(0x04).unwrap();
        assert!(t.invalidate(i).is_some());
        assert_live_set_matches_ways(&t);
        assert!(t.invalidate(i).is_none());
        assert_live_set_matches_ways(&t);
        // DAEC release: 0x08 validates before each recovery, 0x10 never
        // does and goes on the second one.
        let used = t.find(0x08).unwrap();
        for released in [0, 1] {
            t.get_mut(used).unwrap().advance_decode();
            assert_eq!(t.recovery().len(), released);
            assert_live_set_matches_ways(&t);
        }
        assert!(t.find(0x10).is_none());
        // Store check over the one live load entry, then the teardown
        // the pipeline makes of every hit.
        t.get_mut(used).unwrap().complete_replica(0, 0, Some(2000));
        t.get_mut(used).unwrap().complete_replica(1, 0, Some(2008));
        assert!(store_hits(&t, 9000).is_empty());
        assert_live_set_matches_ways(&t);
        let hits = store_hits(&t, 2004);
        assert_eq!(hits, vec![used]);
        assert_live_set_matches_ways(&t);
        t.invalidate(hits[0]);
        assert_live_set_matches_ways(&t);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn unconsumed_storage_lists_live_slots() {
        let mut e = grown(0x40, 4, 4);
        e.advance_decode();
        e.advance_commit();
        assert_eq!(e.unconsumed_storage(), vec![101, 102, 103]);
    }
}
