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
//! `sum(log.wait(record, cause)) + frontend[cause] == stall.get(cause)`.
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
//! ## Storage
//!
//! A record owns no heap block. While it is in flight, its wait-edges,
//! its wait table and its edge-coalescing cursor live beside it in its
//! active slot; the slot's edge buffer is recycled, so a run in steady
//! state allocates nothing per record. When it retires, its edges are
//! appended to one edge column and a non-zero wait table to one waits
//! column, and the record keeps its position in each. Both columns are
//! FIFO in retirement order, like the retired ring itself, so reads go
//! through the log ([`LifecycleLog::edges`], [`LifecycleLog::wait`]).
//!
//! Retired records are held in a bounded ring (`cap` retired records,
//! oldest dropped first) so a 1M-instruction window stays usable; a
//! dropped record's edges and wait table leave the fronts of the columns
//! with it, so a capped run's memory stays bounded by the cap. The
//! reconciliation totals are accumulated at charge time and therefore
//! stay exact even when old records are dropped.

use crate::stall::{StallBreakdown, StallCause, ALL_CAUSES, NUM_CAUSES};
use std::collections::{HashMap, VecDeque};
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
    /// ([`WaitDetail::L2`] / [`WaitDetail::L3`] / [`WaitDetail::Mem`]).
    CacheMiss,
    /// Port/bank contention; `detail` names the resource
    /// ([`WaitDetail::DPorts`]).
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
}

/// Kind-specific detail of a wait-edge: the cache level that served a
/// miss or the contended port. A closed set, so an edge stores one byte
/// instead of a string slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitDetail {
    /// No detail.
    None,
    /// A miss served by the L2.
    L2,
    /// A miss served by the L3.
    L3,
    /// A miss served by main memory.
    Mem,
    /// D-cache port/bank contention.
    DPorts,
}

impl WaitDetail {
    /// Stable key used in the trace metadata (empty for
    /// [`WaitDetail::None`]).
    pub fn key(self) -> &'static str {
        match self {
            WaitDetail::None => "",
            WaitDetail::L2 => "l2",
            WaitDetail::L3 => "l3",
            WaitDetail::Mem => "mem",
            WaitDetail::DPorts => "dports",
        }
    }
}

/// One coalesced wait-edge: `cycles` observations of the same condition
/// starting at `first_cycle`.
///
/// Packed to 24 bytes: most records carry a few edges and the retired
/// ring holds every record of the run. The cycle fields are `u32`,
/// under the same `u32::MAX - 1` bound as the record's stage
/// timestamps; the observation count saturates.
#[derive(Debug, Clone, Copy)]
pub struct WaitEdge {
    /// Lifecycle id of the thing waited on; 0 when none is identifiable
    /// (lids start at 1). See [`WaitEdge::target`].
    target: u64,
    /// Cycles this condition was observed (consecutive or not).
    pub cycles: u32,
    /// First cycle it was observed.
    pub first_cycle: u32,
    /// What was waited on.
    pub kind: WaitEdgeKind,
    /// Kind-specific detail (cache level, port).
    pub detail: WaitDetail,
}

impl WaitEdge {
    /// Lifecycle id of the thing waited on, when identifiable.
    pub fn target(&self) -> Option<u64> {
        (self.target != 0).then_some(self.target)
    }
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
/// Sentinel for "no wait table" in [`InstRecord`]'s `waits` position.
const NO_WAITS: u64 = u64::MAX;

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
/// The record is deliberately packed — stage timestamps and the
/// sequence number are stored in compact sentinel-coded form behind
/// accessors — and owns no heap block: its wait-edges and wait charges
/// live in the log ([`LifecycleLog::edges`], [`LifecycleLog::wait`]).
/// Every fetched instruction (wrong path included) produces one and the
/// retired ring holds them for the whole run: record size is directly
/// the recorder's memory-bandwidth and page-fault bill.
#[derive(Debug, Clone)]
pub struct InstRecord {
    /// Lifecycle id: dense, assigned at fetch/creation, unique across
    /// the run (wrong-path instructions included — unlike `seq`, which
    /// only exists once dispatched).
    pub lid: u64,
    /// Dynamic sequence number ([`NO_SEQ`] until dispatched).
    seq: u64,
    /// Once retired: position of the first of its `edge_len` edges in
    /// the log's edge column, counted from the first edge the log ever
    /// retired, so drops at the column's front do not move it.
    edge_start: u64,
    /// Once retired: position of its wait table in the log's waits
    /// column, counted the same way; [`NO_WAITS`] when it absorbed no
    /// charge (most wrong-path records).
    waits: u64,
    /// Interned disassembly id (see [`LifecycleLog::disasm`]) —
    /// thousands of dynamic records share one string per static
    /// instruction.
    disasm: u32,
    /// Static word PC.
    pc: u32,
    /// Number of coalesced wait-edges, once retired.
    edge_len: u32,
    /// Stage-entry cycles, [`NO_CYCLE`]-coded, indexed by `ST_*`.
    stages: [u32; NUM_STAGES],
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
            edge_start: 0,
            waits: NO_WAITS,
            pc: pc as u32,
            disasm,
            edge_len: 0,
            lane,
            stages: [NO_CYCLE; NUM_STAGES],
            fate: Fate::InFlight,
            reused: false,
        }
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

/// Commit-slot charges routed to one instruction, by cause. `u32` per
/// record (a single record cannot absorb more charges than the run has
/// commit slots, and cycles are bounded by [`NO_CYCLE`]); the log-level
/// totals stay `u64`.
type WaitTable = [u32; NUM_CAUSES];

/// An in-flight record and what only an in-flight record needs. Retiring
/// moves its edges and (when non-zero) its wait table into the log's
/// columns and its emptied edge buffer into the log's spares.
#[derive(Debug)]
struct Active {
    rec: InstRecord,
    /// Causal wait-edges so far, coalesced.
    edges: Vec<WaitEdge>,
    waits: WaitTable,
    /// `(edge index, cycle)` of the most recent [`LifecycleLog::edge`]
    /// observation ([`NO_CYCLE`] index = none), so consecutive
    /// observations of the same condition extend one edge without a
    /// search.
    last_edge: (u32, u32),
}

/// Recycled backing buffers of a finished recorder. Lifecycle-enabled
/// runs append hundreds of megabytes of records and edges; in a harness
/// process running many jobs back-to-back, re-growing those buffers from
/// nothing every job re-pays the whole page-fault bill. Finished
/// recorders park their (cleared, capacity-preserving) buffers here so
/// the next recorder starts on memory that is already mapped and warm.
#[derive(Default)]
struct RecycledBufs {
    retired: VecDeque<InstRecord>,
    edges: VecDeque<WaitEdge>,
    waits: VecDeque<WaitTable>,
    active: VecDeque<Option<Active>>,
    spare_edges: Vec<Vec<WaitEdge>>,
}

/// Process-wide pool of [`RecycledBufs`], bounded so a wide parallel
/// harness cannot hoard unbounded memory (excess buffers are simply
/// dropped).
static BUF_POOL: Mutex<Vec<RecycledBufs>> = Mutex::new(Vec::new());
const BUF_POOL_MAX: usize = 8;

/// An empty slot of [`LifecycleLog`]'s intern table.
const NOT_INTERNED: u32 = u32::MAX;

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
    active: VecDeque<Option<Active>>,
    /// Lid of the front `active` slot.
    active_base: u64,
    /// Number of `Some` slots in `active`.
    active_len: usize,
    /// Emptied edge buffers of retired slots, handed to the next records
    /// with their capacity.
    spare_edges: Vec<Vec<WaitEdge>>,
    retired: VecDeque<InstRecord>,
    /// The retired records' wait-edges, record after record in
    /// retirement order.
    edges: VecDeque<WaitEdge>,
    /// Column position of `edges`' front: edges dropped with the ring.
    edges_front: u64,
    /// The retired records' non-zero wait tables, in retirement order.
    waits: VecDeque<WaitTable>,
    /// Column position of `waits`' front: tables dropped with the ring.
    waits_front: u64,
    dropped: u64,
    /// All slot charges ever made, by cause (survives record drops).
    totals: [u64; NUM_CAUSES],
    /// Charges made while no instruction was in the window.
    frontend: [u64; NUM_CAUSES],
    /// Disassembly ids interned per `(word pc, lane)`, at index
    /// `pc * 2 + lane` ([`NOT_INTERNED`] until first seen): the text is
    /// a pure function of the static instruction, so it is formatted
    /// once, stored in `strings`, and every dynamic record carries a
    /// 4-byte id.
    interned: Vec<u32>,
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
            active_base: 0,
            active_len: 0,
            spare_edges: bufs.spare_edges,
            retired: bufs.retired,
            edges: bufs.edges,
            edges_front: 0,
            waits: bufs.waits,
            waits_front: 0,
            dropped: 0,
            totals: [0; NUM_CAUSES],
            frontend: [0; NUM_CAUSES],
            interned: Vec::new(),
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

    fn active_get(&self, lid: u64) -> Option<&Active> {
        self.active[self.active_idx(lid)?].as_ref()
    }

    fn active_get_mut(&mut self, lid: u64) -> Option<&mut Active> {
        let idx = self.active_idx(lid)?;
        self.active[idx].as_mut()
    }

    fn active_push(&mut self, rec: InstRecord) {
        if self.active.is_empty() {
            self.active_base = rec.lid;
        }
        debug_assert_eq!(rec.lid, self.active_base + self.active.len() as u64);
        let edges = self.spare_edges.pop().unwrap_or_default();
        self.active.push_back(Some(Active {
            rec,
            edges,
            waits: [0; NUM_CAUSES],
            last_edge: (NO_CYCLE, 0),
        }));
        self.active_len += 1;
    }

    fn active_remove(&mut self, lid: u64) -> Option<Active> {
        let idx = self.active_idx(lid)?;
        let a = self.active[idx].take();
        self.active_len -= 1;
        // Advance the window past retired front slots so the span
        // tracks the in-flight population.
        while matches!(self.active.front(), Some(None)) {
            self.active.pop_front();
            self.active_base += 1;
        }
        a
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

    /// Every retained record: the retired ring in retirement order,
    /// then the in-flight records in lid order. Retirement order is not
    /// lid order (a squash retires younger records before an older
    /// long-latency load commits), which is why the bottleneck analysis
    /// places records by lid rather than walking this sequence.
    pub fn records(&self) -> impl Iterator<Item = &InstRecord> {
        // `active` slots are already in lid order: no sort, no staging
        // allocation.
        self.retired
            .iter()
            .chain(self.active.iter().flatten().map(|a| &a.rec))
    }

    /// The coalesced wait-edges of `r`, one of this log's retained
    /// records, in the order they were first observed.
    pub fn edges(&self, r: &InstRecord) -> impl Iterator<Item = &WaitEdge> + Clone + '_ {
        let (head, tail): (&[WaitEdge], &[WaitEdge]) = match r.fate {
            Fate::InFlight => (self.active_get(r.lid).map_or(&[], |a| &a.edges), &[]),
            _ => {
                let at = (r.edge_start - self.edges_front) as usize;
                deque_range(&self.edges, at, r.edge_len as usize)
            }
        };
        head.iter().chain(tail)
    }

    /// The wait table of `r`, one of this log's retained records; none
    /// when it absorbed no charge.
    fn wait_table(&self, r: &InstRecord) -> Option<&WaitTable> {
        match r.fate {
            Fate::InFlight => self.active_get(r.lid).map(|a| &a.waits),
            _ if r.waits == NO_WAITS => None,
            _ => Some(&self.waits[(r.waits - self.waits_front) as usize]),
        }
    }

    /// Commit-slot charges routed to `r`, one of this log's retained
    /// records, for `cause` (reconciles with the aggregate stall
    /// breakdown).
    pub fn wait(&self, r: &InstRecord, cause: StallCause) -> u64 {
        self.wait_table(r)
            .map_or(0, |w| u64::from(w[cause as usize]))
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
        let at = pc as usize * 2 + lane as usize;
        if at >= self.interned.len() {
            self.interned.resize(at + 1, NOT_INTERNED);
        }
        if self.interned[at] == NOT_INTERNED {
            self.interned[at] = self.strings.len() as u32;
            self.strings.push(disasm().into_boxed_str());
        }
        self.interned[at]
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
        if let Some(a) = self.active_get_mut(lid) {
            a.rec.seq = seq;
            a.rec.stages[ST_DISPATCH] = pack_cycle(cycle);
        }
    }

    /// The instruction issued to a functional unit / port.
    pub fn note_issue(&mut self, lid: u64, cycle: u64) {
        if let Some(a) = self.active_get_mut(lid) {
            a.rec.stages[ST_ISSUE] = pack_cycle(cycle);
        }
    }

    /// The result is available (writeback / reuse delivery).
    pub fn note_complete(&mut self, lid: u64, cycle: u64) {
        if let Some(a) = self.active_get_mut(lid) {
            a.rec.stages[ST_COMPLETE] = pack_cycle(cycle);
        }
    }

    /// Mark (or clear, when a pending reuse falls back to normal
    /// execution) the reused flag.
    pub fn set_reused(&mut self, lid: u64, reused: bool) {
        if let Some(a) = self.active_get_mut(lid) {
            a.rec.reused = reused;
        }
    }

    fn retire_record(&mut self, lid: u64, cycle: u64, fate: Fate) {
        let Some(Active {
            rec: mut r,
            mut edges,
            waits,
            ..
        }) = self.active_remove(lid)
        else {
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
            self.drop_oldest();
        }
        r.edge_start = self.edges_front + self.edges.len() as u64;
        r.edge_len = edges.len() as u32;
        self.edges.extend(&edges);
        edges.clear();
        self.spare_edges.push(edges);
        if waits.iter().any(|&w| w != 0) {
            r.waits = self.waits_front + self.waits.len() as u64;
            self.waits.push_back(waits);
        }
        self.retired.push_back(r);
    }

    /// Drop the oldest retired record, with its edges and wait table
    /// (the fronts of the columns).
    fn drop_oldest(&mut self) {
        let Some(r) = self.retired.pop_front() else {
            return;
        };
        self.edges.drain(..r.edge_len as usize);
        self.edges_front += u64::from(r.edge_len);
        if r.waits != NO_WAITS {
            self.waits.pop_front();
            self.waits_front += 1;
        }
        self.dropped += 1;
    }

    /// The instruction committed. Charges one `useful` commit slot to
    /// the record so the per-instruction view reconciles with the
    /// aggregate stall attribution.
    pub fn note_commit(&mut self, lid: u64, cycle: u64) {
        self.charge(Some(lid), StallCause::Useful, 1);
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
        match lid.and_then(|l| self.active_get_mut(l)) {
            Some(a) => a.waits[cause as usize] += slots as u32,
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
        detail: WaitDetail,
        cycle: u64,
    ) {
        debug_assert_ne!(target, Some(0), "lids start at 1");
        let Some(a) = self.active_get_mut(lid) else {
            return;
        };
        let target = target.unwrap_or(0);
        let cycle32 = pack_cycle(cycle);
        let (last_idx, last) = a.last_edge;
        if last_idx != NO_CYCLE {
            if let Some(e) = a.edges.get_mut(last_idx as usize) {
                if e.kind == kind && e.target == target && last < cycle32 {
                    e.cycles = e.cycles.saturating_add(1);
                    a.last_edge = (last_idx, cycle32);
                    return;
                }
            }
        }
        // A different condition (or a re-observation of an old one):
        // extend an existing edge of the same identity, else start one.
        if let Some((idx, e)) = a
            .edges
            .iter_mut()
            .enumerate()
            .find(|(_, e)| e.kind == kind && e.target == target)
        {
            e.cycles = e.cycles.saturating_add(1);
            a.last_edge = (idx as u32, cycle32);
            return;
        }
        a.edges.push(WaitEdge {
            target,
            cycles: 1,
            first_cycle: cycle32,
            kind,
            detail,
        });
        a.last_edge = ((a.edges.len() - 1) as u32, cycle32);
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
        let recs: Vec<&InstRecord> = self.records().collect();
        let end_of_trace = recs
            .iter()
            .flat_map(|r| r.stages)
            .filter(|&c| c != NO_CYCLE)
            .max()
            .unwrap_or(0)
            + 1;
        let mut cmds: Vec<Cmd> = Vec::new();
        for (rec, r) in recs.iter().enumerate() {
            let (segs, n) = stage_segments(r, end_of_trace);
            let Some(&(_, start, _)) = segs[..n].first() else {
                continue;
            };
            let rec = u32::try_from(rec).expect("fewer than 2^32 records");
            let mut ord = 0;
            let mut push = |cycle, class, arg| {
                cmds.push(Cmd {
                    cycle,
                    class,
                    rec,
                    ord,
                    arg,
                });
                ord += 1;
            };
            push(start, Class::I, 0);
            push(start, Class::L, 0);
            for &(name, s, e) in &segs[..n] {
                push(s, Class::S, u64::from(name));
                push(e, Class::E, u64::from(name));
            }
            for edge in self.edges(r) {
                if let (WaitEdgeKind::Producer, Some(t)) = (edge.kind, edge.target()) {
                    push(edge.first_cycle, Class::W, t);
                }
            }
            if r.stages[ST_RETIRE] != NO_CYCLE {
                let flush = u64::from(r.fate == Fate::Squashed);
                push(r.stages[ST_RETIRE], Class::R, flush);
            }
        }
        // Every key is distinct, so the unstable sort is deterministic.
        cmds.sort_unstable_by_key(|c| (c.cycle, c.class, c.rec, c.ord));

        let mut out = String::from("Kanata\t0004\n");
        let mut cur: Option<u32> = None;
        for c in &cmds {
            match cur {
                None => {
                    let _ = writeln!(out, "C=\t{}", c.cycle);
                }
                Some(prev) if c.cycle > prev => {
                    let _ = writeln!(out, "C\t{}", c.cycle - prev);
                }
                _ => {}
            }
            cur = Some(c.cycle);
            let r = recs[c.rec as usize];
            let sid = r.lid;
            let _ = match c.class {
                Class::I => writeln!(out, "I\t{sid}\t{sid}\t{}", r.lane as u64),
                Class::L => {
                    let _ = write!(
                        out,
                        "L\t{sid}\t0\t{}: {}\nL\t{sid}\t1\t",
                        r.pc(),
                        self.disasm(r)
                    );
                    write_metadata(&mut out, self, r);
                    writeln!(out)
                }
                Class::S => writeln!(out, "S\t{sid}\t0\t{}", STAGE_NAMES[c.arg as usize]),
                Class::E => writeln!(out, "E\t{sid}\t0\t{}", STAGE_NAMES[c.arg as usize]),
                Class::W => writeln!(out, "W\t{sid}\t{}\t0", c.arg),
                Class::R => writeln!(out, "R\t{sid}\t{sid}\t{}", c.arg),
            };
        }
        if cur.is_none() {
            out.push_str("C=\t0\n");
        }
        out
    }
}

/// A Konata command's kind. Within a cycle, commands are written in
/// this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// `I`: the record enters the trace.
    I,
    /// `L`: its two labels, the disassembly (lane 0) and the metadata
    /// (lane 1).
    L,
    /// `S`: a stage starts.
    S,
    /// `E`: a stage ends.
    E,
    /// `W`: a dependency on a producer.
    W,
    /// `R`: the record retires or is flushed.
    R,
}

/// One command of [`LifecycleLog::render_konata`]'s document, ordered
/// by `(cycle, class, rec, ord)`.
#[derive(Debug, Clone, Copy)]
struct Cmd {
    cycle: u32,
    class: Class,
    /// Position of the record in [`LifecycleLog::records`].
    rec: u32,
    /// Position of the command among its record's.
    ord: u32,
    /// The stage-name id (`S`, `E`; see [`STAGE_NAMES`]), the producer
    /// lid (`W`) or the flush flag (`R`).
    arg: u64,
}

impl Drop for LifecycleLog {
    fn drop(&mut self) {
        // Park the big buffers (cleared, capacity kept) for the next
        // recorder in this process; see [`RecycledBufs`].
        let mut bufs = RecycledBufs {
            retired: std::mem::take(&mut self.retired),
            edges: std::mem::take(&mut self.edges),
            waits: std::mem::take(&mut self.waits),
            active: std::mem::take(&mut self.active),
            spare_edges: std::mem::take(&mut self.spare_edges),
        };
        bufs.retired.clear();
        bufs.edges.clear();
        bufs.waits.clear();
        bufs.active.clear();
        if let Ok(mut pool) = BUF_POOL.lock() {
            if pool.len() < BUF_POOL_MAX {
                pool.push(bufs);
            }
        }
    }
}

/// The `len` items of `d` from index `at`, as the (at most) two slices
/// its ring buffer holds them in. The analysis' walks iterate these as
/// they did the records' own `Vec`s; a `VecDeque::range` iterator
/// timed measurably slower there.
fn deque_range<T>(d: &VecDeque<T>, at: usize, len: usize) -> (&[T], &[T]) {
    let (a, b) = d.as_slices();
    if at >= a.len() {
        (&b[at - a.len()..][..len], &[])
    } else if at + len <= a.len() {
        (&a[at..at + len], &[])
    } else {
        (&a[at..], &b[..at + len - a.len()])
    }
}

/// Konata stage names: indexed by `ST_FETCH..=ST_COMPLETE`, then the
/// reuse stage [`RU`].
const STAGE_NAMES: [&str; 6] = ["F", "Dc", "Ds", "Ex", "Cm", "Ru"];
/// The reuse stage's index in [`STAGE_NAMES`].
const RU: u8 = 5;

/// The stage segments `(name id, start, end)` a record renders as, at
/// most one per stage before retire, and their count; name ids index
/// [`STAGE_NAMES`]. `end_of_trace` bounds records still in flight.
fn stage_segments(r: &InstRecord, end_of_trace: u32) -> ([(u8, u32, u32); 5], usize) {
    // Pipeline-order timestamps; each segment runs to the next present
    // timestamp, the last one to retire (or the end of the trace).
    let fin = match r.stages[ST_RETIRE] {
        NO_CYCLE => end_of_trace,
        c => c,
    };
    let mut points = (ST_FETCH..=ST_COMPLETE)
        .filter(|&i| r.stages[i] != NO_CYCLE)
        .peekable();
    let mut segs = [(0, 0, 0); 5];
    let mut n = 0;
    while let Some(i) = points.next() {
        let start = r.stages[i];
        let next = points.peek().map(|&j| r.stages[j]);
        let end = next.unwrap_or(fin).max(start);
        // Reused instructions skip execution: their window residency
        // renders as the dedicated reuse stage.
        let name = if r.reused && matches!(i, ST_DISPATCH | ST_ISSUE) {
            RU
        } else {
            i as u8
        };
        let end = if end > start {
            end
        } else if next.is_none() && n == 0 {
            // Everything collapsed into one cycle: keep one 1-cycle
            // segment so the record is visible.
            start + 1
        } else {
            continue;
        };
        // Merge adjacent same-name segments (Ru from Ds and Ex).
        match segs[..n].last_mut() {
            Some(last) if last.0 == name && last.2 == start => last.2 = end,
            _ => {
                segs[n] = (name, start, end);
                n += 1;
            }
        }
    }
    (segs, n)
}

/// Write the machine-parseable metadata of `log`'s record `r`, carried
/// on label lane 1, to `out`.
fn write_metadata(out: &mut String, log: &LifecycleLog, r: &InstRecord) {
    let _ = write!(out, "pc={} seq=", r.pc());
    let _ = match r.seq() {
        Some(q) => write!(out, "{q}"),
        None => write!(out, "-"),
    };
    let _ = write!(
        out,
        " fate={} reused={} lane={}",
        r.fate.key(),
        r.reused as u8,
        r.lane as u64,
    );
    if let Some(table) = log.wait_table(r) {
        let mut sep = " waits=";
        for cause in ALL_CAUSES {
            let n = table[cause as usize];
            if n > 0 {
                let _ = write!(out, "{sep}{}:{n}", cause.key());
                sep = ",";
            }
        }
    }
    let mut sep = " edges=";
    for e in log.edges(r) {
        let _ = write!(out, "{sep}{}", e.kind.key());
        sep = ",";
        if e.detail != WaitDetail::None {
            let _ = write!(out, "[{}]", e.detail.key());
        }
        if let Some(t) = e.target() {
            let _ = write!(out, ">{t}");
        }
        let _ = write!(out, ":{}@{}", e.cycles, e.first_cycle);
    }
}

// --------------------------------------------------------------------
// Parser + ASCII timeline renderer
// --------------------------------------------------------------------

/// One instruction as read back from a Konata trace: what
/// [`render_timeline`] draws. The label and the stage names borrow the
/// document.
#[derive(Debug, Clone)]
pub struct ParsedInst<'a> {
    /// Lifecycle id (Konata sid/iid).
    pub sid: u64,
    /// Lane (0 normal, 1 replica).
    pub tid: u64,
    /// Left-pane label (`pc: disasm`).
    pub label: &'a str,
    /// Static word PC (from the metadata).
    pub pc: Option<u64>,
    /// Fate (from the metadata).
    pub fate: Fate,
    /// Whether it reused a replica value.
    pub reused: bool,
    /// Stage segments `(name, start, end)`, in order.
    pub stages: Vec<(&'a str, u64, u64)>,
    /// Retire cycle (`R` command).
    pub retire_cycle: Option<u64>,
    /// Whether the `R` command was a flush (squash).
    pub flushed: bool,
}

impl ParsedInst<'_> {
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
}

/// A parsed Konata trace, borrowing its document.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace<'a> {
    /// Instructions, ordered by sid.
    pub insts: Vec<ParsedInst<'a>>,
}

/// Read the metadata keys the timeline uses (`pc`, `fate`, `reused`);
/// the others (`seq`, `lane`, `waits`, `edges`) are skipped.
fn parse_meta(inst: &mut ParsedInst, meta: &str) -> Result<(), String> {
    for tok in meta.split_whitespace() {
        match tok.split_once('=') {
            Some(("pc", v)) => inst.pc = v.parse().ok(),
            Some(("fate", v)) => {
                inst.fate =
                    Fate::parse(v).ok_or_else(|| format!("bad fate `{v}` for sid {}", inst.sid))?
            }
            Some(("reused", v)) => inst.reused = v == "1",
            _ => {}
        }
    }
    Ok(())
}

/// Parse a Konata (`Kanata 0004`) document produced by
/// [`LifecycleLog::render_konata`] (it also accepts the common subset
/// emitted by gem5's O3 pipeview conversion) into the rows
/// [`render_timeline`] draws. Dependency (`W`) lines are checked and
/// skipped.
pub fn parse_konata(text: &str) -> Result<ParsedTrace<'_>, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.starts_with("Kanata") => {}
        _ => return Err("not a Konata trace: missing `Kanata` header".into()),
    }
    let mut cycle: u64 = 0;
    let mut insts: HashMap<u64, ParsedInst> = HashMap::new();
    // Stages still open per (sid, name).
    let mut open: HashMap<(u64, &str), usize> = HashMap::new();
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
                    label: "",
                    pc: None,
                    fate: Fate::InFlight,
                    reused: false,
                    stages: Vec::new(),
                    retire_cycle: None,
                    flushed: false,
                });
            }
            "L" => {
                let sid = num("bad sid")?;
                let lane = num("bad label lane")?;
                // The text is the rest of the line, tabs included.
                let text = line.splitn(4, '\t').nth(3).unwrap_or("");
                let inst = insts
                    .get_mut(&sid)
                    .ok_or_else(|| ctx("label for unknown sid"))?;
                if lane == 0 {
                    inst.label = text;
                } else {
                    parse_meta(inst, text)?;
                }
            }
            "S" => {
                let sid = num("bad sid")?;
                let _lane = num("bad lane")?;
                let name = f.next().ok_or_else(|| ctx("missing stage"))?;
                let inst = insts
                    .get_mut(&sid)
                    .ok_or_else(|| ctx("stage for unknown sid"))?;
                open.insert((sid, name), inst.stages.len());
                inst.stages.push((name, cycle, cycle));
            }
            "E" => {
                let sid = num("bad sid")?;
                let _lane = num("bad lane")?;
                let name = f.next().ok_or_else(|| ctx("missing stage"))?;
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
                let _sid = num("bad sid")?;
                let _producer = num("bad producer sid")?;
                let _ty = num("bad dep type")?;
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
    /// Maximum timeline columns: 0 for the default 96, else at least
    /// 24.
    pub max_cols: usize,
}

/// The narrowest timeline [`render_timeline`] lays out (`cfir report
/// timeline --width` takes the same floor): the `--around-mispredict`
/// window opens 12 cycles before its cluster.
const MIN_TIMELINE_COLS: usize = 24;

/// Squash clusters: `(first_squash_cycle, squashed_count)`, grouping
/// flush retires less than 8 cycles apart.
pub fn squash_clusters(trace: &ParsedTrace<'_>) -> Vec<(u64, usize)> {
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
pub fn render_timeline(trace: &ParsedTrace<'_>, opts: &TimelineOpts) -> Result<String, String> {
    if (1..MIN_TIMELINE_COLS).contains(&opts.max_cols) {
        return Err(format!(
            "a timeline needs at least {MIN_TIMELINE_COLS} columns, not {}",
            opts.max_cols
        ));
    }
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
            let ch = match *name {
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
        log.edge(p, WaitEdgeKind::CacheMiss, None, WaitDetail::L2, 3);
        log.edge(p, WaitEdgeKind::CacheMiss, None, WaitDetail::L2, 4);
        for cyc in 3..9 {
            log.charge(Some(p), StallCause::DCacheMiss, 8);
            log.edge(c, WaitEdgeKind::Producer, Some(p), WaitDetail::None, cyc);
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
    fn disassembly_is_formatted_once_per_pc_and_lane() {
        let mut log = LifecycleLog::new(0);
        let mut formatted = 0;
        let mut text = |s: &str| {
            formatted += 1;
            s.to_string()
        };
        log.begin_fetch(9, || text("nine"), 0, 1);
        log.begin_fetch(2, || text("two"), 0, 1);
        log.begin_fetch(9, || text("again"), 1, 2);
        log.begin_replica(9, || text("nine'"), 1);
        log.begin_replica(9, || text("again'"), 2);
        let texts: Vec<&str> = log.records().map(|r| log.disasm(r)).collect();
        assert_eq!(texts, ["nine", "two", "nine", "nine'", "nine'"]);
        assert_eq!(formatted, 3);
        assert_eq!(log.strings.len(), 3);
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
        let edges: Vec<&WaitEdge> = log.edges(c).collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].kind, WaitEdgeKind::Producer);
        assert_eq!(edges[0].cycles, 6);
        assert_eq!(edges[0].first_cycle, 3);
        let p = log.records().find(|r| r.pc() == 4).unwrap();
        let edges: Vec<&WaitEdge> = log.edges(p).collect();
        assert_eq!(edges[0].detail, WaitDetail::L2);
        assert_eq!(edges[0].cycles, 2);
    }

    /// An edge as a comparable tuple: kind, target, detail, cycles,
    /// first cycle.
    type EdgeKey = (WaitEdgeKind, Option<u64>, WaitDetail, u32, u32);

    fn edge_key(e: &WaitEdge) -> EdgeKey {
        (e.kind, e.target(), e.detail, e.cycles, e.first_cycle)
    }

    #[test]
    fn ring_cap_drops_oldest_but_keeps_totals() {
        // Record `i` carries `i % 4` edges; the even ones commit with a
        // `DCacheMiss` charge of `i + 1` slots beside the commit's
        // `useful` slot, the odd ones are squashed and charge nothing.
        let edges_of = |i: u64| -> Vec<EdgeKey> {
            (0..i % 4)
                .map(|j| {
                    let (kind, target, detail) = match j {
                        0 => (WaitEdgeKind::CacheMiss, None, WaitDetail::Mem),
                        j => (WaitEdgeKind::Producer, Some(j), WaitDetail::None),
                    };
                    (kind, target, detail, 1, i as u32)
                })
                .collect()
        };
        let mut log = LifecycleLog::new(2);
        let mut stall = StallBreakdown::new();
        for i in 0..9u64 {
            let l = log.begin_fetch(i, || format!("op{i}"), i, i + 1);
            log.note_dispatch(l, i + 1, i + 1);
            for (kind, target, detail, _, first) in edges_of(i) {
                log.edge(l, kind, target, detail, u64::from(first));
            }
            if i % 2 == 0 {
                log.charge(Some(l), StallCause::DCacheMiss, i + 1);
                stall.charge(StallCause::DCacheMiss, i + 1);
                log.note_commit(l, i + 2);
                stall.charge(StallCause::Useful, 1);
            } else {
                log.note_squash(l, i + 2);
            }
            if log.dropped() == 0 {
                continue;
            }
            // Each kept record reads exactly its own edges and waits,
            // and the columns hold nothing but the kept records'.
            let mut kept_edges = Vec::new();
            let mut kept_waits = 0;
            for r in log.records() {
                let want = edges_of(r.pc());
                let got: Vec<_> = log.edges(r).map(edge_key).collect();
                assert_eq!(got, want, "edges of record {}", r.pc());
                kept_edges.extend(want);
                let committed = r.pc() % 2 == 0;
                let miss = if committed { r.pc() + 1 } else { 0 };
                assert_eq!(log.wait(r, StallCause::DCacheMiss), miss);
                assert_eq!(log.wait(r, StallCause::Useful), u64::from(committed));
                kept_waits += usize::from(committed);
            }
            let column: Vec<_> = log.edges.iter().map(edge_key).collect();
            assert_eq!(column, kept_edges, "after record {i}");
            assert_eq!(log.waits.len(), kept_waits, "after record {i}");
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.totals()[StallCause::Useful as usize], 5);
        assert!(log.reconcile(&stall).is_ok());
    }

    #[test]
    fn deque_range_matches_a_contiguous_copy() {
        // Pop from the front and push at the back so the ring buffer
        // wraps, then read every range.
        let mut d: VecDeque<u32> = VecDeque::with_capacity(8);
        d.extend(0..8);
        d.drain(..5);
        d.extend(8..12);
        let flat: Vec<u32> = d.iter().copied().collect();
        assert!(!d.as_slices().1.is_empty(), "the buffer must wrap");
        for at in 0..=flat.len() {
            for len in 0..=flat.len() - at {
                let (a, b) = deque_range(&d, at, len);
                assert_eq!([a, b].concat(), flat[at..at + len], "at {at} len {len}");
            }
        }
    }

    #[test]
    fn slot_edge_buffers_are_recycled() {
        let mut log = LifecycleLog::new(0);
        let a = log.begin_fetch(1, || "a".into(), 0, 1);
        for t in 1..=4 {
            log.edge(a, WaitEdgeKind::Producer, Some(t), WaitDetail::None, 1);
        }
        log.note_squash(a, 2);
        // The retired slot's emptied buffer is the last spare (the log
        // may start with spares parked by an earlier one), and the next
        // record takes it back with its capacity.
        let spares = log.spare_edges.len();
        assert!(log.spare_edges.last().unwrap().capacity() >= 4);
        let b = log.begin_fetch(2, || "b".into(), 2, 3);
        assert_eq!(log.spare_edges.len(), spares - 1);
        let slot = log.active_get(b).unwrap();
        assert!(slot.edges.is_empty() && slot.edges.capacity() >= 4);
    }

    #[test]
    fn inst_record_is_72_bytes() {
        // The retired ring holds one per fetched instruction.
        assert_eq!(std::mem::size_of::<InstRecord>(), 72);
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

        let w = by_pc(6);
        assert!(w.flushed);
        assert_eq!(w.fate, Fate::Squashed);

        let u = by_pc(7);
        assert!(u.reused);
        assert!(
            u.stages.iter().any(|(n, _, _)| *n == "Ru"),
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
        let doc = log.render_konata();
        let trace = parse_konata(&doc).unwrap();
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
    fn timeline_refuses_a_width_below_24_columns() {
        let log = sample();
        let doc = log.render_konata();
        let trace = parse_konata(&doc).unwrap();
        let opts = |max_cols, around_mispredict| TimelineOpts {
            max_cols,
            around_mispredict,
            ..Default::default()
        };
        // The mispredict window opens 12 cycles before its cluster, so
        // a width up to 12 has no room for the cluster at all.
        for cols in [1, 11, 12, 23] {
            for around in [None, Some(1)] {
                let err = render_timeline(&trace, &opts(cols, around)).unwrap_err();
                assert!(err.contains("24"), "width {cols}: {err}");
            }
        }
        // 0 is the default width.
        for cols in [0, 24] {
            let out = render_timeline(&trace, &opts(cols, Some(1))).unwrap();
            assert!(
                out.contains("cluster #1 at cycle 10"),
                "width {cols}: {out}"
            );
        }
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
