//! Per-instruction pipeline lifecycle records.
//!
//! The aggregate telemetry (stall breakdown, histograms, scorecards)
//! answers *how much*; this module answers *what happened to this
//! instruction*. The simulator threads a [`LifecycleLog`] through every
//! pipeline stage: each dynamic instruction — including wrong-path
//! instructions that will be squashed and the replica engine's
//! speculative pre-executions — gets one [`InstRecord`] with its
//! stage-entry cycles and a set of **causal wait-edges** saying what it
//! waited on (a producer, a cache-miss level, a port, an older store's
//! unknown address, a replica value).
//!
//! ## Reconciliation with the stall attribution
//!
//! The per-slot stall attribution charges every commit slot of every
//! cycle to exactly one [`StallCause`]. The lifecycle view receives the
//! *same* charges, routed to the instruction at the head of the window
//! (or to the synthetic front-end bucket when the window is empty), so
//! the per-instruction wait-cycle sums reconcile **exactly** with the
//! aggregate CPI stack: for every cause,
//! `sum(record.waits[cause]) + frontend[cause] == stall.get(cause)`.
//! [`LifecycleLog::reconcile`] checks this; the pipeline asserts it at
//! the end of every lifecycle-enabled run.
//!
//! ## Sinks
//!
//! * [`LifecycleLog::render_konata`] — the Konata / gem5-O3 "pipeview"
//!   text format (`Kanata 0004`), loadable in the Konata viewer, with
//!   replicas on their own lane, squashed instructions retired as
//!   flushes, and reused instructions in a dedicated `Ru` stage.
//! * [`render_timeline`] over [`parse_konata`] — an in-terminal ASCII
//!   timeline (`cfir report timeline`), windowed by PC, cycle range, or
//!   the N-th misprediction squash cluster.
//!
//! Records are held in a bounded ring (`cap` retired records, oldest
//! dropped first) so a 1M-instruction window stays usable; the
//! reconciliation totals are accumulated at charge time and therefore
//! stay exact even when old records are dropped.

use crate::stall::{StallBreakdown, StallCause, ALL_CAUSES, NUM_CAUSES};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Which Konata lane (thread id) a record renders on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstLane {
    /// A fetched instruction (right or wrong path).
    Normal = 0,
    /// A replica pre-executed by the CI engine.
    Replica = 1,
}

/// How a record's life ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Still in flight when the log was rendered.
    InFlight,
    /// Architecturally retired (replicas: value delivered).
    Committed,
    /// Squashed by a flush (replicas: died undelivered).
    Squashed,
}

impl Fate {
    /// Stable key used in the trace metadata.
    pub fn key(self) -> &'static str {
        match self {
            Fate::InFlight => "inflight",
            Fate::Committed => "commit",
            Fate::Squashed => "squash",
        }
    }

    /// Inverse of [`Fate::key`].
    pub fn parse(s: &str) -> Option<Fate> {
        match s {
            "inflight" => Some(Fate::InFlight),
            "commit" => Some(Fate::Committed),
            "squash" => Some(Fate::Squashed),
            _ => None,
        }
    }
}

/// What an instruction waited on (the causal side of a stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitEdgeKind {
    /// An older in-flight producer of a source operand (`target` is the
    /// producer's lifecycle id).
    Producer,
    /// A data-cache miss; `detail` names the level that served it
    /// (`l2` / `l3` / `mem`).
    CacheMiss,
    /// Port/bank contention; `detail` names the resource (`dports`).
    Port,
    /// An older store whose address (or data) is not known yet
    /// (`target` is the store's lifecycle id when identifiable).
    StoreDisambiguation,
    /// A validated reuse waiting for its replica to finish executing.
    ReplicaValue,
}

impl WaitEdgeKind {
    /// Stable key used in the trace metadata.
    pub fn key(self) -> &'static str {
        match self {
            WaitEdgeKind::Producer => "producer",
            WaitEdgeKind::CacheMiss => "cache_miss",
            WaitEdgeKind::Port => "port",
            WaitEdgeKind::StoreDisambiguation => "store_disamb",
            WaitEdgeKind::ReplicaValue => "replica_value",
        }
    }

    /// Inverse of [`WaitEdgeKind::key`].
    pub fn parse(s: &str) -> Option<WaitEdgeKind> {
        match s {
            "producer" => Some(WaitEdgeKind::Producer),
            "cache_miss" => Some(WaitEdgeKind::CacheMiss),
            "port" => Some(WaitEdgeKind::Port),
            "store_disamb" => Some(WaitEdgeKind::StoreDisambiguation),
            "replica_value" => Some(WaitEdgeKind::ReplicaValue),
            _ => None,
        }
    }
}

/// One coalesced wait-edge: `cycles` observations of the same condition
/// starting at `first_cycle`.
#[derive(Debug, Clone)]
pub struct WaitEdge {
    /// What was waited on.
    pub kind: WaitEdgeKind,
    /// Lifecycle id of the thing waited on, when identifiable.
    pub target: Option<u64>,
    /// Kind-specific detail (cache level, port name); empty when none.
    pub detail: &'static str,
    /// Cycles this condition was observed (consecutive or not).
    pub cycles: u64,
    /// First cycle it was observed.
    pub first_cycle: u64,
}

/// Sentinel for an absent stage timestamp / edge cycle. Record
/// timestamps are stored as `u32` to halve the record footprint (the
/// retired ring is the recorder's memory hot spot); a lifecycle-enabled
/// run is therefore bounded at `u32::MAX - 1` cycles, asserted at
/// record time. A run long enough to hit the bound would need terabytes
/// of record storage first.
const NO_CYCLE: u32 = u32::MAX;
/// Sentinel for "not dispatched" in [`InstRecord`]'s packed `seq`.
const NO_SEQ: u64 = u64::MAX;

/// Stage indices into [`InstRecord`]'s packed timestamp table.
const ST_FETCH: usize = 0;
const ST_DECODE: usize = 1;
const ST_DISPATCH: usize = 2;
const ST_ISSUE: usize = 3;
const ST_COMPLETE: usize = 4;
const ST_RETIRE: usize = 5;
const NUM_STAGES: usize = 6;

#[inline]
fn pack_cycle(cycle: u64) -> u32 {
    assert!(
        cycle < u64::from(NO_CYCLE),
        "lifecycle recording is bounded at u32::MAX - 1 cycles"
    );
    cycle as u32
}

/// One dynamic instruction's lifecycle.
///
/// The record is deliberately packed — stage timestamps, wait charges
/// and the sequence number are stored in compact sentinel-coded form
/// behind accessors — because every fetched instruction (wrong path
/// included) produces one and the retired ring holds them for the
/// whole run: record size is directly the recorder's memory-bandwidth
/// and page-fault bill.
#[derive(Debug, Clone)]
pub struct InstRecord {
    /// Lifecycle id: dense, assigned at fetch/creation, unique across
    /// the run (wrong-path instructions included — unlike `seq`, which
    /// only exists once dispatched).
    pub lid: u64,
    /// Dynamic sequence number ([`NO_SEQ`] until dispatched).
    seq: u64,
    /// Interned disassembly id (see [`LifecycleLog::disasm`]) —
    /// thousands of dynamic records share one string per static
    /// instruction.
    disasm: u32,
    /// Causal wait-edges, coalesced.
    pub edges: Vec<WaitEdge>,
    /// Static word PC.
    pc: u32,
    /// Stage-entry cycles, [`NO_CYCLE`]-coded, indexed by `ST_*`.
    stages: [u32; NUM_STAGES],
    /// Commit-slot charges routed to this instruction, by cause.
    /// Boxed and lazily allocated: only window-head instructions ever
    /// absorb charges, so the (majority) wrong-path records carry a
    /// null pointer instead of a 48-byte table. `u32` per record (a
    /// single record cannot absorb more charges than the run has
    /// commit slots, and cycles are bounded by [`NO_CYCLE`]); the
    /// log-level totals stay `u64`.
    waits: Option<Box<[u32; NUM_CAUSES]>>,
    /// Normal instruction or replica.
    pub lane: InstLane,
    /// How it ended.
    pub fate: Fate,
    /// Whether it reused a precomputed replica value.
    pub reused: bool,
}

impl InstRecord {
    fn new(lid: u64, pc: u64, disasm: u32, lane: InstLane) -> Self {
        InstRecord {
            lid,
            seq: NO_SEQ,
            pc: pc as u32,
            disasm,
            lane,
            stages: [NO_CYCLE; NUM_STAGES],
            fate: Fate::InFlight,
            reused: false,
            waits: None,
            edges: Vec::new(),
        }
    }

    fn bump_wait(&mut self, cause: StallCause, slots: u32) {
        let w = self.waits.get_or_insert_with(|| Box::new([0; NUM_CAUSES]));
        w[cause as usize] += slots;
    }

    fn stage(&self, idx: usize) -> Option<u64> {
        match self.stages[idx] {
            NO_CYCLE => None,
            c => Some(u64::from(c)),
        }
    }

    /// Static word PC.
    pub fn pc(&self) -> u64 {
        u64::from(self.pc)
    }

    /// Dynamic sequence number, once dispatched into the window.
    pub fn seq(&self) -> Option<u64> {
        (self.seq != NO_SEQ).then_some(self.seq)
    }

    /// Cycle fetched (replicas: none).
    pub fn fetch(&self) -> Option<u64> {
        self.stage(ST_FETCH)
    }

    /// Cycle decode finished (reaches rename).
    pub fn decode(&self) -> Option<u64> {
        self.stage(ST_DECODE)
    }

    /// Cycle dispatched into the window (replicas: created).
    pub fn dispatch(&self) -> Option<u64> {
        self.stage(ST_DISPATCH)
    }

    /// Cycle issued to a functional unit / port.
    pub fn issue(&self) -> Option<u64> {
        self.stage(ST_ISSUE)
    }

    /// Cycle the result was produced (writeback).
    pub fn complete(&self) -> Option<u64> {
        self.stage(ST_COMPLETE)
    }

    /// Cycle committed or squashed.
    pub fn retire(&self) -> Option<u64> {
        self.stage(ST_RETIRE)
    }

    /// Commit-slot charges routed to this instruction for `cause`
    /// (reconciles with the aggregate stall breakdown).
    pub fn wait(&self, cause: StallCause) -> u64 {
        self.waits
            .as_ref()
            .map_or(0, |w| u64::from(w[cause as usize]))
    }

    /// Sum of all wait-slot charges (including `useful`).
    pub fn wait_total(&self) -> u64 {
        self.waits
            .as_ref()
            .map_or(0, |w| w.iter().map(|&n| u64::from(n)).sum())
    }

    /// Stage timestamps in pipeline order, present ones only.
    pub fn stage_cycles(&self) -> Vec<(&'static str, u64)> {
        [
            ("fetch", self.fetch()),
            ("decode", self.decode()),
            ("dispatch", self.dispatch()),
            ("issue", self.issue()),
            ("complete", self.complete()),
            ("retire", self.retire()),
        ]
        .into_iter()
        .filter_map(|(n, c)| c.map(|c| (n, c)))
        .collect()
    }
}

/// Recycled backing buffers of a finished recorder. Lifecycle-enabled
/// runs append hundreds of megabytes of records; in a harness process
/// running many jobs back-to-back, re-growing those buffers from
/// nothing every job re-pays the whole page-fault bill. Finished
/// recorders park their (cleared, capacity-preserving) buffers here so
/// the next recorder starts on memory that is already mapped and warm.
#[derive(Default)]
struct RecycledBufs {
    retired: VecDeque<InstRecord>,
    active: VecDeque<Option<InstRecord>>,
    active_edge: VecDeque<(u32, u32)>,
}

/// Process-wide pool of [`RecycledBufs`], bounded so a wide parallel
/// harness cannot hoard unbounded memory (excess buffers are simply
/// dropped).
static BUF_POOL: Mutex<Vec<RecycledBufs>> = Mutex::new(Vec::new());
const BUF_POOL_MAX: usize = 8;

/// The per-instruction lifecycle recorder.
#[derive(Debug)]
pub struct LifecycleLog {
    cap: usize,
    next_lid: u64,
    start_cycle: u64,
    started: bool,
    /// In-flight records in a lid-indexed sliding window: slot `i`
    /// holds lid `active_base + i`. Lids are dense and handed out in
    /// order, so every insertion lands at the back and the live span is
    /// bounded by the machine's in-flight population (window entries
    /// plus replicas) — a hot-path lookup is one subtraction and an
    /// index instead of a hash.
    active: VecDeque<Option<InstRecord>>,
    /// Per-slot edge-coalescing memory for `active`: `(edge index,
    /// cycle)` of the most recent [`LifecycleLog::edge`] observation
    /// ([`NO_CYCLE`] index = none), so consecutive observations of the
    /// same condition extend one edge without a side-table lookup.
    /// Kept out of [`InstRecord`] because it is dead weight once the
    /// record retires into the ring.
    active_edge: VecDeque<(u32, u32)>,
    /// Lid of the front `active` slot.
    active_base: u64,
    /// Number of `Some` slots in `active`.
    active_len: usize,
    retired: VecDeque<InstRecord>,
    dropped: u64,
    /// All slot charges ever made, by cause (survives record drops).
    totals: [u64; NUM_CAUSES],
    /// Charges made while no instruction was in the window.
    frontend: [u64; NUM_CAUSES],
    /// Disassembly ids interned per `(word pc, lane)`: the text is a
    /// pure function of the static instruction, so it is formatted
    /// once, stored in `strings`, and every dynamic record carries a
    /// 4-byte id.
    interned: HashMap<(u32, u8), u32>,
    /// Interned disassembly texts, indexed by the records' ids.
    strings: Vec<Box<str>>,
}

impl LifecycleLog {
    /// Recorder retaining up to `cap` retired records (0 = unbounded).
    pub fn new(cap: usize) -> Self {
        let bufs = BUF_POOL
            .lock()
            .ok()
            .and_then(|mut p| p.pop())
            .unwrap_or_default();
        LifecycleLog {
            cap,
            next_lid: 1,
            start_cycle: 0,
            started: false,
            active: bufs.active,
            active_edge: bufs.active_edge,
            active_base: 0,
            active_len: 0,
            retired: bufs.retired,
            dropped: 0,
            totals: [0; NUM_CAUSES],
            frontend: [0; NUM_CAUSES],
            interned: HashMap::new(),
            strings: Vec::new(),
        }
    }

    /// Records currently retained (retired + in flight).
    pub fn len(&self) -> usize {
        self.retired.len() + self.active_len
    }

    /// Slot index of `lid` in `active`, when the record is in flight.
    fn active_idx(&self, lid: u64) -> Option<usize> {
        let idx = lid.checked_sub(self.active_base)? as usize;
        self.active.get(idx)?.as_ref()?;
        Some(idx)
    }

    fn active_get_mut(&mut self, lid: u64) -> Option<&mut InstRecord> {
        let idx = self.active_idx(lid)?;
        self.active[idx].as_mut()
    }

    fn active_push(&mut self, r: InstRecord) {
        if self.active.is_empty() {
            self.active_base = r.lid;
        }
        debug_assert_eq!(r.lid, self.active_base + self.active.len() as u64);
        self.active.push_back(Some(r));
        self.active_edge.push_back((NO_CYCLE, 0));
        self.active_len += 1;
    }

    fn active_remove(&mut self, lid: u64) -> Option<InstRecord> {
        let idx = self.active_idx(lid)?;
        let r = self.active[idx].take();
        self.active_len -= 1;
        // Advance the window past retired front slots so the span
        // tracks the in-flight population.
        while matches!(self.active.front(), Some(None)) {
            self.active.pop_front();
            self.active_edge.pop_front();
            self.active_base += 1;
        }
        r
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.dropped == 0
    }

    /// Retired records dropped by the ring cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cycle of the first recorded event (reconciliation is exact only
    /// when recording started at cycle 0).
    pub fn start_cycle(&self) -> u64 {
        self.start_cycle
    }

    /// Slot charges made while the window was empty, by cause.
    pub fn frontend_waits(&self) -> &[u64; NUM_CAUSES] {
        &self.frontend
    }

    /// All slot charges ever made, by cause (drop-proof).
    pub fn totals(&self) -> &[u64; NUM_CAUSES] {
        &self.totals
    }

    /// Every retained record, oldest first (retired, then in-flight).
    pub fn records(&self) -> impl Iterator<Item = &InstRecord> {
        // `active` slots are already in lid order: no sort, no staging
        // allocation.
        self.retired.iter().chain(self.active.iter().flatten())
    }

    fn note_start(&mut self, cycle: u64) {
        if !self.started {
            self.started = true;
            self.start_cycle = cycle;
        }
    }

    /// Interned disassembly id for `(pc, lane)`; `disasm` is only
    /// invoked the first time the static instruction is seen.
    fn intern(&mut self, pc: u64, lane: InstLane, disasm: impl FnOnce() -> String) -> u32 {
        *self
            .interned
            .entry((pc as u32, lane as u8))
            .or_insert_with(|| {
                self.strings.push(disasm().into_boxed_str());
                (self.strings.len() - 1) as u32
            })
    }

    /// The interned disassembly text of one of this log's records.
    pub fn disasm(&self, r: &InstRecord) -> &str {
        &self.strings[r.disasm as usize]
    }

    /// New record for a fetched instruction; `decode_ready` is the
    /// cycle it will reach rename. `disasm` is invoked at most once per
    /// static `(pc, lane)` — the text is interned.
    pub fn begin_fetch(
        &mut self,
        pc: u64,
        disasm: impl FnOnce() -> String,
        cycle: u64,
        decode_ready: u64,
    ) -> u64 {
        self.note_start(cycle);
        let lid = self.next_lid;
        self.next_lid += 1;
        let disasm = self.intern(pc, InstLane::Normal, disasm);
        let mut r = InstRecord::new(lid, pc, disasm, InstLane::Normal);
        r.stages[ST_FETCH] = pack_cycle(cycle);
        r.stages[ST_DECODE] = pack_cycle(decode_ready);
        self.active_push(r);
        lid
    }

    /// New record for a replica created by the CI engine. `disasm` is
    /// invoked at most once per static `(pc, lane)` — the text is
    /// interned.
    pub fn begin_replica(&mut self, pc: u64, disasm: impl FnOnce() -> String, cycle: u64) -> u64 {
        self.note_start(cycle);
        let lid = self.next_lid;
        self.next_lid += 1;
        let disasm = self.intern(pc, InstLane::Replica, disasm);
        let mut r = InstRecord::new(lid, pc, disasm, InstLane::Replica);
        r.stages[ST_DISPATCH] = pack_cycle(cycle);
        self.active_push(r);
        lid
    }

    /// The instruction entered the window with sequence number `seq`.
    pub fn note_dispatch(&mut self, lid: u64, seq: u64, cycle: u64) {
        if let Some(r) = self.active_get_mut(lid) {
            r.seq = seq;
            r.stages[ST_DISPATCH] = pack_cycle(cycle);
        }
    }

    /// The instruction issued to a functional unit / port.
    pub fn note_issue(&mut self, lid: u64, cycle: u64) {
        if let Some(r) = self.active_get_mut(lid) {
            r.stages[ST_ISSUE] = pack_cycle(cycle);
        }
    }

    /// The result is available (writeback / reuse delivery).
    pub fn note_complete(&mut self, lid: u64, cycle: u64) {
        if let Some(r) = self.active_get_mut(lid) {
            r.stages[ST_COMPLETE] = pack_cycle(cycle);
        }
    }

    /// Mark (or clear, when a pending reuse falls back to normal
    /// execution) the reused flag.
    pub fn set_reused(&mut self, lid: u64, reused: bool) {
        if let Some(r) = self.active_get_mut(lid) {
            r.reused = reused;
        }
    }

    fn retire_record(&mut self, lid: u64, cycle: u64, fate: Fate) {
        let Some(mut r) = self.active_remove(lid) else {
            return;
        };
        let cycle = pack_cycle(cycle);
        r.stages[ST_RETIRE] = cycle;
        r.fate = fate;
        if fate == Fate::Squashed {
            // `decode` is a predicted timestamp (fetch + decode delay);
            // a squash can land before it. Drop stage times the
            // instruction never reached so records stay monotonic.
            for idx in [ST_DECODE, ST_DISPATCH, ST_ISSUE, ST_COMPLETE] {
                if r.stages[idx] != NO_CYCLE && r.stages[idx] > cycle {
                    r.stages[idx] = NO_CYCLE;
                }
            }
        }
        if self.cap > 0 && self.retired.len() == self.cap {
            self.retired.pop_front();
            self.dropped += 1;
        }
        self.retired.push_back(r);
    }

    /// The instruction committed. Charges one `useful` commit slot to
    /// the record so the per-instruction view reconciles with the
    /// aggregate stall attribution.
    pub fn note_commit(&mut self, lid: u64, cycle: u64) {
        self.totals[StallCause::Useful as usize] += 1;
        match self.active_idx(lid) {
            Some(i) => {
                self.active[i]
                    .as_mut()
                    .unwrap()
                    .bump_wait(StallCause::Useful, 1);
            }
            None => self.frontend[StallCause::Useful as usize] += 1,
        }
        self.retire_record(lid, cycle, Fate::Committed);
    }

    /// The instruction was squashed by a flush.
    pub fn note_squash(&mut self, lid: u64, cycle: u64) {
        self.retire_record(lid, cycle, Fate::Squashed);
    }

    /// A replica finished: `delivered` when its value landed in the
    /// entry (eligible for reuse), false when it died.
    pub fn finish_replica(&mut self, lid: u64, cycle: u64, delivered: bool) {
        if delivered {
            self.note_complete(lid, cycle);
        }
        let fate = if delivered {
            Fate::Committed
        } else {
            Fate::Squashed
        };
        self.retire_record(lid, cycle, fate);
    }

    /// Route `slots` commit-slot charges for `cause` to the record
    /// `lid` (the window head), or to the front-end bucket when the
    /// window is empty. Mirrors `StallBreakdown::charge` exactly.
    pub fn charge(&mut self, lid: Option<u64>, cause: StallCause, slots: u64) {
        self.totals[cause as usize] += slots;
        match lid.and_then(|l| self.active_idx(l)) {
            Some(i) => self.active[i]
                .as_mut()
                .unwrap()
                .bump_wait(cause, slots as u32),
            None => self.frontend[cause as usize] += slots,
        }
    }

    /// Record (or extend) a wait-edge on `lid`. Consecutive
    /// observations of the same `(kind, target)` coalesce into one edge
    /// with a cycle count.
    pub fn edge(
        &mut self,
        lid: u64,
        kind: WaitEdgeKind,
        target: Option<u64>,
        detail: &'static str,
        cycle: u64,
    ) {
        let Some(slot) = self.active_idx(lid) else {
            return;
        };
        let r = self.active[slot].as_mut().unwrap();
        let cycle32 = pack_cycle(cycle);
        let (last_idx, last) = self.active_edge[slot];
        if last_idx != NO_CYCLE {
            if let Some(e) = r.edges.get_mut(last_idx as usize) {
                if e.kind == kind && e.target == target && u64::from(last) < cycle {
                    e.cycles += 1;
                    self.active_edge[slot] = (last_idx, cycle32);
                    return;
                }
            }
        }
        // A different condition (or a re-observation of an old one):
        // extend an existing edge of the same identity, else start one.
        if let Some((idx, e)) = r
            .edges
            .iter_mut()
            .enumerate()
            .find(|(_, e)| e.kind == kind && e.target == target)
        {
            e.cycles += 1;
            self.active_edge[slot] = (idx as u32, cycle32);
            return;
        }
        r.edges.push(WaitEdge {
            kind,
            target,
            detail,
            cycles: 1,
            first_cycle: cycle,
        });
        self.active_edge[slot] = ((r.edges.len() - 1) as u32, cycle32);
    }

    /// Check that the per-instruction wait-cycle sums reconcile exactly
    /// with the aggregate stall breakdown (valid when recording started
    /// at cycle 0).
    pub fn reconcile(&self, stall: &StallBreakdown) -> Result<(), String> {
        for cause in ALL_CAUSES {
            let got = self.totals[cause as usize];
            let want = stall.get(cause);
            if got != want {
                return Err(format!(
                    "lifecycle wait sum for `{}` is {got}, stall attribution says {want}",
                    cause.key()
                ));
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Konata sink
    // ----------------------------------------------------------------

    /// Render every retained record as a Konata (`Kanata 0004`)
    /// pipeview document. Open it in the Konata viewer, or parse it
    /// back with [`parse_konata`].
    pub fn render_konata(&self) -> String {
        // Group commands by cycle; within a cycle order by command
        // class (I/L before S/E before W/R) then insertion.
        let mut by_cycle: BTreeMap<u64, Vec<(u8, String)>> = BTreeMap::new();
        let mut push = |cycle: u64, prio: u8, line: String| {
            by_cycle.entry(cycle).or_default().push((prio, line));
        };
        let last_cycle = self
            .records()
            .flat_map(|r| r.stage_cycles().into_iter().map(|(_, c)| c))
            .max()
            .unwrap_or(0);
        for r in self.records() {
            let stages = stage_segments(r, last_cycle + 1);
            let Some(&(_, start, _)) = stages.first() else {
                continue;
            };
            let sid = r.lid;
            push(start, 0, format!("I\t{sid}\t{sid}\t{}", r.lane as u64));
            push(
                start,
                1,
                format!("L\t{sid}\t0\t{}: {}", r.pc(), self.disasm(r)),
            );
            push(start, 1, format!("L\t{sid}\t1\t{}", metadata_line(r)));
            for &(name, s, e) in &stages {
                push(s, 2, format!("S\t{sid}\t0\t{name}"));
                push(e, 3, format!("E\t{sid}\t0\t{name}"));
            }
            for edge in &r.edges {
                if let (WaitEdgeKind::Producer, Some(t)) = (edge.kind, edge.target) {
                    push(edge.first_cycle, 4, format!("W\t{sid}\t{t}\t0"));
                }
            }
            if let Some(retire) = r.retire() {
                let ty = match r.fate {
                    Fate::Squashed => 1,
                    _ => 0,
                };
                push(retire, 5, format!("R\t{sid}\t{sid}\t{ty}"));
            }
        }
        let mut out = String::from("Kanata\t0004\n");
        let mut cur: Option<u64> = None;
        for (cycle, mut lines) in by_cycle {
            match cur {
                None => {
                    let _ = writeln!(out, "C=\t{cycle}");
                }
                Some(prev) if cycle > prev => {
                    let _ = writeln!(out, "C\t{}", cycle - prev);
                }
                _ => {}
            }
            cur = Some(cycle);
            lines.sort_by_key(|(p, _)| *p);
            for (_, l) in lines {
                out.push_str(&l);
                out.push('\n');
            }
        }
        if cur.is_none() {
            out.push_str("C=\t0\n");
        }
        out
    }
}

impl Drop for LifecycleLog {
    fn drop(&mut self) {
        // Park the big buffers (cleared, capacity kept) for the next
        // recorder in this process; see [`RecycledBufs`].
        let mut bufs = RecycledBufs {
            retired: std::mem::take(&mut self.retired),
            active: std::mem::take(&mut self.active),
            active_edge: std::mem::take(&mut self.active_edge),
        };
        bufs.retired.clear();
        bufs.active.clear();
        bufs.active_edge.clear();
        if let Ok(mut pool) = BUF_POOL.lock() {
            if pool.len() < BUF_POOL_MAX {
                pool.push(bufs);
            }
        }
    }
}

/// The stage segments `[(name, start, end)]` a record renders as.
/// `end_of_trace` bounds records still in flight.
fn stage_segments(r: &InstRecord, end_of_trace: u64) -> Vec<(&'static str, u64, u64)> {
    // Pipeline-order timestamps; each segment runs to the next present
    // timestamp, the last one to retire (or the end of the trace).
    let points: Vec<(&'static str, u64)> = [
        ("F", r.fetch()),
        ("Dc", r.decode()),
        ("Ds", r.dispatch()),
        ("Ex", r.issue()),
        ("Cm", r.complete()),
    ]
    .into_iter()
    .filter_map(|(n, c)| c.map(|c| (n, c)))
    .collect();
    let fin = r.retire().unwrap_or(end_of_trace);
    let mut segs = Vec::with_capacity(points.len());
    for (i, &(name, start)) in points.iter().enumerate() {
        let end = points.get(i + 1).map(|&(_, c)| c).unwrap_or(fin).max(start);
        // Reused instructions skip execution: their window residency
        // renders as the dedicated reuse stage.
        let name = if r.reused && matches!(name, "Ds" | "Ex") {
            "Ru"
        } else {
            name
        };
        if end > start {
            segs.push((name, start, end));
        } else if i + 1 == points.len() && segs.is_empty() {
            // Everything collapsed into one cycle: keep one 1-cycle
            // segment so the record is visible.
            segs.push((name, start, start + 1));
        }
    }
    // Merge adjacent same-name segments (e.g. Ru+Ru from Ds and Ex).
    let mut merged: Vec<(&'static str, u64, u64)> = Vec::with_capacity(segs.len());
    for s in segs {
        match merged.last_mut() {
            Some(last) if last.0 == s.0 && last.2 == s.1 => last.2 = s.2,
            _ => merged.push(s),
        }
    }
    merged
}

/// The machine-parseable metadata carried on label lane 1.
fn metadata_line(r: &InstRecord) -> String {
    let mut s = format!(
        "pc={} seq={} fate={} reused={} lane={}",
        r.pc(),
        r.seq().map(|q| q.to_string()).unwrap_or_else(|| "-".into()),
        r.fate.key(),
        r.reused as u8,
        r.lane as u64,
    );
    let mut waits = String::new();
    for cause in ALL_CAUSES {
        let n = r.wait(cause);
        if n > 0 {
            if !waits.is_empty() {
                waits.push(',');
            }
            let _ = write!(waits, "{}:{}", cause.key(), n);
        }
    }
    if !waits.is_empty() {
        let _ = write!(s, " waits={waits}");
    }
    let mut edges = String::new();
    for e in &r.edges {
        if !edges.is_empty() {
            edges.push(',');
        }
        let _ = write!(edges, "{}", e.kind.key());
        if !e.detail.is_empty() {
            let _ = write!(edges, "[{}]", e.detail);
        }
        if let Some(t) = e.target {
            let _ = write!(edges, ">{t}");
        }
        let _ = write!(edges, ":{}@{}", e.cycles, e.first_cycle);
    }
    if !edges.is_empty() {
        let _ = write!(s, " edges={edges}");
    }
    s
}

// --------------------------------------------------------------------
// Parser (round-trip) + ASCII timeline renderer
// --------------------------------------------------------------------

/// One wait-edge as read back from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEdge {
    /// Edge kind.
    pub kind: WaitEdgeKind,
    /// Detail string (cache level / port name), empty when none.
    pub detail: String,
    /// Target lifecycle id, when present.
    pub target: Option<u64>,
    /// Cycles observed.
    pub cycles: u64,
    /// First cycle observed.
    pub first_cycle: u64,
}

/// One instruction as read back from a Konata trace.
#[derive(Debug, Clone)]
pub struct ParsedInst {
    /// Lifecycle id (Konata sid/iid).
    pub sid: u64,
    /// Lane (0 normal, 1 replica).
    pub tid: u64,
    /// Left-pane label (`pc: disasm`).
    pub label: String,
    /// Static word PC (from the metadata).
    pub pc: Option<u64>,
    /// Dynamic sequence number, when dispatched.
    pub seq: Option<u64>,
    /// Fate (from the metadata).
    pub fate: Fate,
    /// Whether it reused a replica value.
    pub reused: bool,
    /// `(cause_key, slots)` wait charges.
    pub waits: Vec<(String, u64)>,
    /// Causal wait-edges.
    pub edges: Vec<ParsedEdge>,
    /// Stage segments `(name, start, end)`, in order.
    pub stages: Vec<(String, u64, u64)>,
    /// Retire cycle (`R` command).
    pub retire_cycle: Option<u64>,
    /// Whether the `R` command was a flush (squash).
    pub flushed: bool,
    /// Producer sids from `W` commands.
    pub deps: Vec<u64>,
}

impl ParsedInst {
    /// First cycle of any stage.
    pub fn start(&self) -> u64 {
        self.stages.iter().map(|&(_, s, _)| s).min().unwrap_or(0)
    }

    /// Last cycle of any stage / retire.
    pub fn end(&self) -> u64 {
        self.stages
            .iter()
            .map(|&(_, _, e)| e)
            .chain(self.retire_cycle)
            .max()
            .unwrap_or(0)
    }

    /// Sum of all wait charges.
    pub fn wait_total(&self) -> u64 {
        self.waits.iter().map(|(_, n)| n).sum()
    }
}

/// A parsed Konata trace.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// Instructions, ordered by sid.
    pub insts: Vec<ParsedInst>,
}

fn parse_meta(inst: &mut ParsedInst, meta: &str) -> Result<(), String> {
    for tok in meta.split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            continue;
        };
        match k {
            "pc" => inst.pc = v.parse().ok(),
            "seq" => inst.seq = v.parse().ok(),
            "fate" => {
                inst.fate =
                    Fate::parse(v).ok_or_else(|| format!("bad fate `{v}` for sid {}", inst.sid))?
            }
            "reused" => inst.reused = v == "1",
            "lane" => {}
            "waits" => {
                for w in v.split(',') {
                    let (c, n) = w
                        .split_once(':')
                        .ok_or_else(|| format!("bad wait `{w}` for sid {}", inst.sid))?;
                    let n: u64 = n.parse().map_err(|_| format!("bad wait count `{w}`"))?;
                    inst.waits.push((c.to_string(), n));
                }
            }
            "edges" => {
                for espec in v.split(',') {
                    // kind[detail]>target:cycles@first
                    let (head, tail) = espec
                        .split_once(':')
                        .ok_or_else(|| format!("bad edge `{espec}`"))?;
                    let (cycles, first) = tail
                        .split_once('@')
                        .ok_or_else(|| format!("bad edge `{espec}`"))?;
                    let (head, target) = match head.split_once('>') {
                        Some((h, t)) => (
                            h,
                            Some(
                                t.parse()
                                    .map_err(|_| format!("bad edge target `{espec}`"))?,
                            ),
                        ),
                        None => (head, None),
                    };
                    let (kind_s, detail) = match head.split_once('[') {
                        Some((k, d)) => (k, d.trim_end_matches(']').to_string()),
                        None => (head, String::new()),
                    };
                    let kind = WaitEdgeKind::parse(kind_s)
                        .ok_or_else(|| format!("unknown edge kind `{kind_s}`"))?;
                    inst.edges.push(ParsedEdge {
                        kind,
                        detail,
                        target,
                        cycles: cycles.parse().map_err(|_| format!("bad edge `{espec}`"))?,
                        first_cycle: first.parse().map_err(|_| format!("bad edge `{espec}`"))?,
                    });
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Parse a Konata (`Kanata 0004`) document produced by
/// [`LifecycleLog::render_konata`] (it also accepts the common subset
/// emitted by gem5's O3 pipeview conversion).
pub fn parse_konata(text: &str) -> Result<ParsedTrace, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.starts_with("Kanata") => {}
        _ => return Err("not a Konata trace: missing `Kanata` header".into()),
    }
    let mut cycle: u64 = 0;
    let mut insts: HashMap<u64, ParsedInst> = HashMap::new();
    // Stages still open per (sid, name).
    let mut open: HashMap<(u64, String), usize> = HashMap::new();
    for (ln, line) in lines {
        let mut f = line.split('\t');
        let cmd = f.next().unwrap_or("");
        let ctx = |what: &str| format!("line {}: {what} in `{line}`", ln + 1);
        let mut num = |what: &str| -> Result<u64, String> {
            f.next()
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| ctx(what))
        };
        match cmd {
            "" | "#" => {}
            "C=" => cycle = num("bad base cycle")?,
            "C" => cycle += num("bad cycle delta")?,
            "I" => {
                let sid = num("bad sid")?;
                let _iid = num("bad iid")?;
                let tid = num("bad tid")?;
                insts.entry(sid).or_insert(ParsedInst {
                    sid,
                    tid,
                    label: String::new(),
                    pc: None,
                    seq: None,
                    fate: Fate::InFlight,
                    reused: false,
                    waits: Vec::new(),
                    edges: Vec::new(),
                    stages: Vec::new(),
                    retire_cycle: None,
                    flushed: false,
                    deps: Vec::new(),
                });
            }
            "L" => {
                let sid = num("bad sid")?;
                let lane = num("bad label lane")?;
                let text = f.collect::<Vec<_>>().join("\t");
                let inst = insts
                    .get_mut(&sid)
                    .ok_or_else(|| ctx("label for unknown sid"))?;
                if lane == 0 {
                    inst.label = text;
                } else {
                    parse_meta(inst, &text)?;
                }
            }
            "S" => {
                let sid = num("bad sid")?;
                let _lane = num("bad lane")?;
                let name = f.next().ok_or_else(|| ctx("missing stage"))?.to_string();
                let inst = insts
                    .get_mut(&sid)
                    .ok_or_else(|| ctx("stage for unknown sid"))?;
                open.insert((sid, name.clone()), inst.stages.len());
                inst.stages.push((name, cycle, cycle));
            }
            "E" => {
                let sid = num("bad sid")?;
                let _lane = num("bad lane")?;
                let name = f.next().ok_or_else(|| ctx("missing stage"))?.to_string();
                if let Some(idx) = open.remove(&(sid, name)) {
                    if let Some(inst) = insts.get_mut(&sid) {
                        if let Some(seg) = inst.stages.get_mut(idx) {
                            seg.2 = cycle.max(seg.1);
                        }
                    }
                }
            }
            "R" => {
                let sid = num("bad sid")?;
                let _rid = num("bad retire id")?;
                let ty = num("bad retire type")?;
                let inst = insts
                    .get_mut(&sid)
                    .ok_or_else(|| ctx("retire for unknown sid"))?;
                inst.retire_cycle = Some(cycle);
                inst.flushed = ty == 1;
            }
            "W" => {
                let sid = num("bad sid")?;
                let producer = num("bad producer sid")?;
                let _ty = num("bad dep type")?;
                if let Some(inst) = insts.get_mut(&sid) {
                    inst.deps.push(producer);
                }
            }
            _ => return Err(ctx("unknown command")),
        }
    }
    // Close any stage left open at the end of the trace.
    for ((sid, _), idx) in open {
        if let Some(inst) = insts.get_mut(&sid) {
            if let Some(seg) = inst.stages.get_mut(idx) {
                seg.2 = cycle.max(seg.1);
            }
        }
    }
    let mut insts: Vec<ParsedInst> = insts.into_values().collect();
    insts.sort_by_key(|i| i.sid);
    Ok(ParsedTrace { insts })
}

/// Window/row selection for [`render_timeline`].
#[derive(Debug, Clone, Default)]
pub struct TimelineOpts {
    /// Only rows at this static word PC.
    pub pc: Option<u64>,
    /// Explicit cycle window `[lo, hi)`.
    pub cycle_range: Option<(u64, u64)>,
    /// Window around the N-th (1-based) misprediction squash cluster.
    pub around_mispredict: Option<usize>,
    /// Maximum timeline columns (0 = default 96).
    pub max_cols: usize,
}

/// Squash clusters: `(first_squash_cycle, squashed_count)`, grouping
/// flush retires less than 8 cycles apart.
pub fn squash_clusters(trace: &ParsedTrace) -> Vec<(u64, usize)> {
    let mut cycles: Vec<u64> = trace
        .insts
        .iter()
        .filter(|i| i.flushed)
        .filter_map(|i| i.retire_cycle)
        .collect();
    cycles.sort_unstable();
    let mut out: Vec<(u64, usize)> = Vec::new();
    for c in cycles {
        match out.last_mut() {
            Some((start, n)) if c.saturating_sub(*start) < 8 => *n += 1,
            _ => out.push((c, 1)),
        }
    }
    out
}

/// Render an ASCII timeline of the trace. Each row is one instruction;
/// each column one cycle. Squashed wrong-path instructions end in `x`;
/// reused instructions spend their window time in the `R` stage and
/// retire with `C` like any commit.
pub fn render_timeline(trace: &ParsedTrace, opts: &TimelineOpts) -> Result<String, String> {
    if trace.insts.is_empty() {
        return Err("trace contains no instructions".into());
    }
    let max_cols = if opts.max_cols == 0 {
        96
    } else {
        opts.max_cols
    };
    let mut note = String::new();
    let (lo, hi) = if let Some(n) = opts.around_mispredict {
        let clusters = squash_clusters(trace);
        if clusters.is_empty() {
            return Err("trace contains no squashes (no mispredictions recovered)".into());
        }
        let n = n.max(1);
        let &(at, count) = clusters
            .get(n - 1)
            .ok_or_else(|| format!("only {} squash cluster(s) in trace", clusters.len()))?;
        let _ = write!(
            note,
            "mispredict cluster #{n} at cycle {at} ({count} squashed)"
        );
        (at.saturating_sub(12), at + (max_cols as u64 - 12))
    } else if let Some((lo, hi)) = opts.cycle_range {
        (lo, hi)
    } else {
        let lo = trace.insts.iter().map(|i| i.start()).min().unwrap_or(0);
        (lo, lo + max_cols as u64)
    };
    let hi = hi.min(lo + max_cols as u64);
    if hi <= lo {
        return Err(format!("empty cycle window {lo}..{hi}"));
    }
    let cols = (hi - lo) as usize;

    let rows: Vec<&ParsedInst> = trace
        .insts
        .iter()
        .filter(|i| opts.pc.is_none_or(|pc| i.pc == Some(pc)))
        .filter(|i| i.start() < hi && i.end() >= lo)
        .collect();
    if rows.is_empty() {
        return Err(format!("no instructions in cycle window {lo}..{hi}"));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: cycles {lo}..{hi}, {} instruction(s){}{}",
        rows.len(),
        if note.is_empty() { "" } else { " — " },
        note
    );
    // Cycle ruler: a `|` every 10 columns, labelled above.
    let gut = 6; // sid gutter
    let mut labels = " ".repeat(gut + 1);
    let mut ruler = " ".repeat(gut + 1);
    for col in 0..cols {
        let c = lo + col as u64;
        if c.is_multiple_of(10) {
            let lab = c.to_string();
            if labels.len() <= gut + col {
                labels.push_str(&" ".repeat(gut + 1 + col - labels.len()));
                labels.push_str(&lab);
            }
            ruler.push('|');
        } else {
            ruler.push('.');
        }
    }
    let _ = writeln!(out, "{labels}");
    let _ = writeln!(out, "{ruler}");

    for i in rows {
        let mut grid = vec![' '; cols];
        for (name, s, e) in &i.stages {
            let ch = match name.as_str() {
                "F" => 'F',
                "Dc" => 'd',
                "Ds" => '.',
                "Ex" => 'E',
                "Cm" => 'c',
                "Ru" => 'R',
                _ => '?',
            };
            let s = (*s).max(lo);
            let e = (*e).min(hi);
            for c in s..e {
                grid[(c - lo) as usize] = ch;
            }
        }
        if let Some(rc) = i.retire_cycle {
            if rc >= lo && rc < hi {
                grid[(rc - lo) as usize] = if i.flushed { 'x' } else { 'C' };
            }
        }
        let mut ann = String::new();
        if i.tid == 1 {
            ann.push_str(" [replica]");
        }
        if i.reused {
            ann.push_str(" [reused]");
        }
        if i.flushed {
            ann.push_str(" [squashed]");
        }
        let _ = writeln!(
            out,
            "{:>gut$} {}  {}{}",
            i.sid,
            grid.iter().collect::<String>(),
            i.label,
            ann,
        );
    }
    out.push_str(
        "\nlegend: F fetch  d decode  . window-wait  E execute  c done-wait  R reuse\n\
         \x20       C commit  x squashed\n",
    );
    Ok(out)
}

// --------------------------------------------------------------------
// CFIR_PIPEVIEW
// --------------------------------------------------------------------

/// Parsed `CFIR_PIPEVIEW` value: `PATH[ cap=N]`. The simulator
/// auto-enables lifecycle recording and writes the Konata trace to
/// `path` when the run finishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeviewSpec {
    /// Output path for the Konata document.
    pub path: String,
    /// Retired-record ring capacity (0 = unbounded).
    pub cap: usize,
}

/// Default retired-record ring capacity (usable on 1M-instruction
/// windows without unbounded memory).
pub const DEFAULT_PIPEVIEW_CAP: usize = 1 << 20;

impl PipeviewSpec {
    /// Parse `PATH[ cap=N]`.
    pub fn parse(spec: &str) -> Result<PipeviewSpec, String> {
        let mut path = None;
        let mut cap = DEFAULT_PIPEVIEW_CAP;
        for tok in spec.split_whitespace() {
            if let Some(v) = tok.strip_prefix("cap=") {
                cap = v
                    .parse()
                    .map_err(|_| format!("bad cap `{v}` in CFIR_PIPEVIEW"))?;
            } else if path.is_none() {
                path = Some(tok.to_string());
            } else {
                return Err(format!(
                    "unexpected token `{tok}` in CFIR_PIPEVIEW (want `PATH [cap=N]`)"
                ));
            }
        }
        match path {
            Some(path) => Ok(PipeviewSpec { path, cap }),
            None => Err("CFIR_PIPEVIEW needs an output path (`PATH [cap=N]`)".into()),
        }
    }

    /// Read `CFIR_PIPEVIEW` from the environment, **once per process**
    /// (same contract as the trace filter). Panics loudly on a
    /// malformed value.
    pub fn from_env() -> Option<PipeviewSpec> {
        static ENV: OnceLock<Option<PipeviewSpec>> = OnceLock::new();
        ENV.get_or_init(|| {
            std::env::var("CFIR_PIPEVIEW")
                .ok()
                .filter(|v| !v.is_empty())
                .map(|v| match PipeviewSpec::parse(&v) {
                    Ok(s) => s,
                    Err(e) => panic!("CFIR_PIPEVIEW: {e}"),
                })
        })
        .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic log: a producer, a dependent consumer that
    /// waits on it through a cache miss, a squashed wrong-path
    /// instruction, a reused validation, and a replica.
    fn sample() -> LifecycleLog {
        let mut log = LifecycleLog::new(0);
        let p = log.begin_fetch(4, || "ld r1, 0(r2)".into(), 0, 2);
        let c = log.begin_fetch(5, || "addi r3, r1, 1".into(), 0, 2);
        let w = log.begin_fetch(6, || "addi r9, r9, 1".into(), 1, 3);
        let u = log.begin_fetch(7, || "add r4, r4, r1".into(), 1, 3);
        log.note_dispatch(p, 1, 2);
        log.note_dispatch(c, 2, 2);
        log.note_dispatch(w, 3, 3);
        log.note_dispatch(u, 4, 3);
        log.note_issue(p, 3);
        log.edge(p, WaitEdgeKind::CacheMiss, None, "l2", 3);
        log.edge(p, WaitEdgeKind::CacheMiss, None, "l2", 4);
        for cyc in 3..9 {
            log.charge(Some(p), StallCause::DCacheMiss, 8);
            log.edge(c, WaitEdgeKind::Producer, Some(p), "", cyc);
        }
        log.note_complete(p, 9);
        log.note_commit(p, 10);
        log.note_squash(w, 10);
        log.set_reused(u, true);
        log.note_complete(u, 10);
        log.note_issue(c, 10);
        log.note_complete(c, 11);
        log.note_commit(c, 12);
        log.note_commit(u, 12);
        let r = log.begin_replica(20, || "mul r5, r5, r6".into(), 6);
        log.note_issue(r, 7);
        log.finish_replica(r, 9, true);
        log
    }

    #[test]
    fn charges_and_reconciliation() {
        let log = sample();
        let mut stall = StallBreakdown::new();
        stall.charge(StallCause::Useful, 3);
        stall.charge(StallCause::DCacheMiss, 48);
        assert!(log.reconcile(&stall).is_ok());
        stall.charge(StallCause::FetchStarved, 1);
        let err = log.reconcile(&stall).unwrap_err();
        assert!(err.contains("fetch_starved"), "{err}");
    }

    #[test]
    fn edges_coalesce() {
        let log = sample();
        let c = log.records().find(|r| r.pc() == 5).unwrap();
        assert_eq!(c.edges.len(), 1);
        assert_eq!(c.edges[0].kind, WaitEdgeKind::Producer);
        assert_eq!(c.edges[0].cycles, 6);
        assert_eq!(c.edges[0].first_cycle, 3);
        let p = log.records().find(|r| r.pc() == 4).unwrap();
        assert_eq!(p.edges[0].detail, "l2");
        assert_eq!(p.edges[0].cycles, 2);
    }

    #[test]
    fn ring_cap_drops_oldest_but_keeps_totals() {
        let mut log = LifecycleLog::new(2);
        for i in 0..5 {
            let l = log.begin_fetch(i, || format!("op{i}"), i, i + 1);
            log.note_dispatch(l, i + 1, i + 1);
            log.note_commit(l, i + 2);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.totals()[StallCause::Useful as usize], 5);
        let mut stall = StallBreakdown::new();
        stall.charge(StallCause::Useful, 5);
        assert!(log.reconcile(&stall).is_ok());
    }

    #[test]
    fn konata_round_trips() {
        let log = sample();
        let doc = log.render_konata();
        assert!(doc.starts_with("Kanata\t0004\n"));
        let trace = parse_konata(&doc).expect("parses");
        assert_eq!(trace.insts.len(), 5);

        let by_pc = |pc: u64| trace.insts.iter().find(|i| i.pc == Some(pc)).unwrap();
        let p = by_pc(4);
        assert_eq!(p.fate, Fate::Committed);
        assert_eq!(p.retire_cycle, Some(10));
        assert!(!p.flushed);
        assert_eq!(p.seq, Some(1));
        assert_eq!(
            p.waits,
            vec![("useful".to_string(), 1), ("dcache_miss".to_string(), 48)]
        );
        assert_eq!(p.edges[0].kind, WaitEdgeKind::CacheMiss);
        assert_eq!(p.edges[0].detail, "l2");

        let c = by_pc(5);
        assert_eq!(c.deps, vec![p.sid], "W edge points at the producer");
        assert_eq!(c.edges[0].target, Some(p.sid));

        let w = by_pc(6);
        assert!(w.flushed);
        assert_eq!(w.fate, Fate::Squashed);

        let u = by_pc(7);
        assert!(u.reused);
        assert!(
            u.stages.iter().any(|(n, _, _)| n == "Ru"),
            "reuse stage present: {:?}",
            u.stages
        );

        let r = by_pc(20);
        assert_eq!(r.tid, 1, "replica lane");
        // Stage times survive the round trip, in order.
        for i in &trace.insts {
            let mut last = 0;
            for (_, s, e) in &i.stages {
                assert!(*s >= last && *e >= *s, "monotonic stages: {i:?}");
                last = *s;
            }
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_konata("hello\n").is_err());
        assert!(parse_konata("Kanata\t0004\nZ\t1\n").is_err());
        let err = parse_konata("Kanata\t0004\nC=\t0\nS\t9\t0\tF\n").unwrap_err();
        assert!(err.contains("unknown sid"), "{err}");
    }

    #[test]
    fn timeline_distinguishes_squashed_from_reused() {
        let log = sample();
        let trace = parse_konata(&log.render_konata()).unwrap();
        let out = render_timeline(&trace, &TimelineOpts::default()).unwrap();
        assert!(out.contains("[squashed]"), "{out}");
        assert!(out.contains("[reused]"), "{out}");
        assert!(out.contains("[replica]"), "{out}");
        assert!(out.contains('x'), "squash marker present:\n{out}");
        assert!(out.contains('C'), "commit marker present:\n{out}");

        // --around-mispredict finds the squash cluster.
        let out = render_timeline(
            &trace,
            &TimelineOpts {
                around_mispredict: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.contains("mispredict cluster #1 at cycle 10"), "{out}");

        // PC filter narrows to one row.
        let out = render_timeline(
            &trace,
            &TimelineOpts {
                pc: Some(5),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.contains("1 instruction(s)"), "{out}");

        // Out-of-range cluster and empty windows are loud.
        assert!(render_timeline(
            &trace,
            &TimelineOpts {
                around_mispredict: Some(9),
                ..Default::default()
            }
        )
        .is_err());
        assert!(render_timeline(
            &trace,
            &TimelineOpts {
                cycle_range: Some((500, 600)),
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn pipeview_spec_parses_and_scopes() {
        let s = PipeviewSpec::parse("/tmp/t.log").unwrap();
        assert_eq!(s.path, "/tmp/t.log");
        assert_eq!(s.cap, DEFAULT_PIPEVIEW_CAP);
        let s = PipeviewSpec::parse("trace.log cap=4096").unwrap();
        assert_eq!(s.cap, 4096);
        assert_eq!(crate::filter::scope_path(&s.path, "07"), "trace.07.log");
        assert!(PipeviewSpec::parse("").is_err());
        assert!(PipeviewSpec::parse("a b").is_err());
        assert!(PipeviewSpec::parse("a cap=zebra").is_err());
    }
}
