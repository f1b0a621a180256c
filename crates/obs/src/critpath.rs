//! Causal critical-path / bottleneck analysis over a [`LifecycleLog`].
//!
//! Three views, all derived from data the recorder already captures:
//!
//! 1. **Hierarchical CPI stack** ([`CpiStack`]): the twelve per-slot
//!    [`StallCause`] buckets regrouped top-down into six classes (base,
//!    reuse-recovered, frontend, bad-speculation, backend-memory,
//!    backend-core). The regrouping is a *partition*, so the six groups
//!    sum to exactly `cycles × commit_width` whenever the underlying
//!    breakdown does — the PR-1 invariant survives the hierarchy.
//!
//! 2. **Critical path** ([`CritPath`]): a backward walk over the
//!    per-instruction causal DAG (stage timestamps + wait-edges) from
//!    the last retiring record to the start of recording. Every step
//!    covers a half-open cycle range and attributes it to one
//!    [`EdgeClass`]; the ranges tile `[start, end]`, so the per-class
//!    attribution sums to the path span *exactly* — no cycle is counted
//!    twice and none is lost.
//!
//! 3. **What-if projections** ([`WhatIfRow`]): a forward re-walk of the
//!    same DAG computing each record's projected completion time with
//!    selected edge classes zeroed (perfect branch prediction, perfect
//!    CI reuse, infinite replica buffer). The projection replays only
//!    *observed* latencies and zeroing only removes them, so two
//!    properties hold by construction:
//!
//!    * **bounding** — every projection is ≤ the measured cycle count
//!      (the un-zeroed replay reproduces timestamps ≤ the observed
//!      ones, by induction over the DAG);
//!    * **monotonicity** — a superset zero-set never projects more
//!      cycles, so `perfect-everything ≥ perfect-BP ≥ measured` in
//!      speedup terms.
//!
//! [`analyze`] computes both walks over one index of the log: records
//! placed by lid (lids are dense), so the cost is linear in records and
//! edges. The forward walk carries every [`SCENARIOS`] entry as its own
//! lane, so the what-if table is one pass, not one pass per scenario.
//!
//! The projections are *speed limits* (optimistic limit-study bounds),
//! not predictions: zeroing refetch gaps keeps the pollution-induced
//! cache misses of the measured run, while a real oracle-BP machine
//! re-times everything. `exp_bottleneck` validates the perfect-BP
//! projection against an actual oracle-BP simulation run.

use crate::lifecycle::{Fate, InstLane, InstRecord, LifecycleLog, WaitDetail, WaitEdgeKind};
use crate::stall::{StallBreakdown, StallCause};
use std::collections::{HashMap, VecDeque};

// ---------------------------------------------------------------------------
// Hierarchical CPI stack
// ---------------------------------------------------------------------------

/// The six top-down groups, in display order. A partition of the twelve
/// [`StallCause`] buckets (with `reuse_recovered` carved out of
/// `useful`), so the groups reconcile exactly with the per-slot
/// attribution.
pub const CPI_GROUPS: [&str; 6] = [
    "base",
    "reuse_recovered",
    "frontend",
    "bad_speculation",
    "backend_memory",
    "backend_core",
];

/// Commit-slot counts per top-down group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// Useful slots filled by normally-executed instructions.
    pub base: u64,
    /// Useful slots filled by instructions that reused a CI replica
    /// value — work the mechanism recovered instead of re-executing.
    pub reuse_recovered: u64,
    /// Fetch-starved + in-order-dispatch-window slots.
    pub frontend: u64,
    /// Flush/repair slots (branch mispredictions, validation failures).
    pub bad_speculation: u64,
    /// D-cache-miss + LSQ-full slots.
    pub backend_memory: u64,
    /// Execution-core slots: FU/issue contention, data dependencies,
    /// rename/ROB pressure, commit bandwidth, replica arbitration.
    pub backend_core: u64,
}

impl CpiStack {
    /// Regroup a per-slot breakdown. `committed_reuse` (≤ the `useful`
    /// bucket) is carved out as the reuse-recovered segment.
    pub fn from_breakdown(stall: &StallBreakdown, committed_reuse: u64) -> CpiStack {
        let g = |c: StallCause| stall.get(c);
        let useful = g(StallCause::Useful);
        let reuse = committed_reuse.min(useful);
        CpiStack {
            base: useful - reuse,
            reuse_recovered: reuse,
            frontend: g(StallCause::FetchStarved) + g(StallCause::IqFull),
            bad_speculation: g(StallCause::RepairFlush),
            backend_memory: g(StallCause::DCacheMiss) + g(StallCause::LsqFull),
            backend_core: g(StallCause::FuContention)
                + g(StallCause::DataDependency)
                + g(StallCause::RenameRegs)
                + g(StallCause::RobFull)
                + g(StallCause::CommitBandwidth)
                + g(StallCause::ReplicaArbitration),
        }
    }

    /// `(group key, slots)` in [`CPI_GROUPS`] order.
    pub fn iter(&self) -> [(&'static str, u64); 6] {
        [
            ("base", self.base),
            ("reuse_recovered", self.reuse_recovered),
            ("frontend", self.frontend),
            ("bad_speculation", self.bad_speculation),
            ("backend_memory", self.backend_memory),
            ("backend_core", self.backend_core),
        ]
    }

    /// Total slots across the six groups.
    pub fn total(&self) -> u64 {
        self.iter().iter().map(|&(_, n)| n).sum()
    }

    /// The hierarchy must preserve the per-slot invariant: groups sum
    /// to `cycles × width`.
    pub fn check_sum(&self, cycles: u64, width: u64) -> Result<(), String> {
        let want = cycles * width;
        let got = self.total();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "CPI-stack groups sum to {got}, expected cycles*width = {want}"
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

/// What a critical-path segment's cycles were spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EdgeClass {
    /// Waiting for an older in-flight producer of a source operand.
    Producer = 0,
    /// A load served by the L2.
    CacheL2,
    /// A load served by the L3.
    CacheL3,
    /// A load served by main memory.
    CacheMem,
    /// Port/bank contention on the D-cache.
    Port,
    /// Waiting for an older store's address/data.
    StoreDisambiguation,
    /// A validated reuse waiting for its replica value.
    ReplicaValue,
    /// Refetch after a squash: the gap between a flushed record's death
    /// and the next correct-path fetch.
    MispredictRefetch,
    /// Fetch/decode/rename pipeline depth and fetch-chain gaps.
    Frontend,
    /// Execution latency on a functional unit (hit loads included).
    Execute,
    /// Completed but waiting for in-order commit.
    Commit,
    /// Dispatched and waiting with no identifiable causal edge
    /// (issue-bandwidth / scheduler occupancy).
    Schedule,
    /// The walk could not continue (dropped records truncate the DAG).
    Unresolved,
}

/// Number of edge classes.
pub const NUM_CLASSES: usize = 13;

/// All classes, in bucket order.
pub const ALL_CLASSES: [EdgeClass; NUM_CLASSES] = [
    EdgeClass::Producer,
    EdgeClass::CacheL2,
    EdgeClass::CacheL3,
    EdgeClass::CacheMem,
    EdgeClass::Port,
    EdgeClass::StoreDisambiguation,
    EdgeClass::ReplicaValue,
    EdgeClass::MispredictRefetch,
    EdgeClass::Frontend,
    EdgeClass::Execute,
    EdgeClass::Commit,
    EdgeClass::Schedule,
    EdgeClass::Unresolved,
];

impl EdgeClass {
    /// Stable snake_case key (used in JSON snapshots).
    pub fn key(self) -> &'static str {
        match self {
            EdgeClass::Producer => "producer",
            EdgeClass::CacheL2 => "cache_l2",
            EdgeClass::CacheL3 => "cache_l3",
            EdgeClass::CacheMem => "cache_mem",
            EdgeClass::Port => "port",
            EdgeClass::StoreDisambiguation => "store_disambiguation",
            EdgeClass::ReplicaValue => "replica_value",
            EdgeClass::MispredictRefetch => "mispredict_refetch",
            EdgeClass::Frontend => "frontend",
            EdgeClass::Execute => "execute",
            EdgeClass::Commit => "commit",
            EdgeClass::Schedule => "schedule",
            EdgeClass::Unresolved => "unresolved",
        }
    }

    fn from_wait(kind: WaitEdgeKind, detail: WaitDetail) -> EdgeClass {
        match kind {
            WaitEdgeKind::Producer => EdgeClass::Producer,
            WaitEdgeKind::CacheMiss => match detail {
                WaitDetail::L2 => EdgeClass::CacheL2,
                WaitDetail::L3 => EdgeClass::CacheL3,
                _ => EdgeClass::CacheMem,
            },
            WaitEdgeKind::Port => EdgeClass::Port,
            WaitEdgeKind::StoreDisambiguation => EdgeClass::StoreDisambiguation,
            WaitEdgeKind::ReplicaValue => EdgeClass::ReplicaValue,
        }
    }
}

/// One (pc, class) aggregate along the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSeg {
    /// Static word PC the cycles are anchored to (the waiting
    /// instruction; for refetch segments, the squashed instruction).
    pub pc: u64,
    /// What the cycles were spent on.
    pub class: EdgeClass,
    /// Cycles attributed.
    pub cycles: u64,
}

/// The critical path through one run's causal DAG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CritPath {
    /// Cycles covered: last retirement − start of recording. The
    /// per-class attribution sums to exactly this.
    pub span: u64,
    /// Cycle recording started (reconciliation with the run's cycle
    /// count is exact only when this is 0).
    pub start_cycle: u64,
    /// Cycles per [`EdgeClass`], `classes[class as usize]`.
    pub classes: [u64; NUM_CLASSES],
    /// Heaviest (pc, class) aggregates, descending, capped.
    pub top: Vec<PathSeg>,
    /// Per static branch: mispredict-refetch cycles on the critical
    /// path, descending — the per-branch CI-reuse headroom signal.
    pub branch_refetch: Vec<(u64, u64)>,
    /// Records visited by the walk.
    pub steps: usize,
}

/// How many (pc, class) aggregates [`CritPath::top`] retains.
pub const TOP_SEGMENTS: usize = 16;

/// End-of-life event time of a record: when its value (or death)
/// became visible downstream.
fn end_time(r: &InstRecord) -> Option<u64> {
    r.retire()
        .or(r.complete())
        .or(r.issue())
        .or(r.dispatch())
        .or(r.fetch())
}

/// Value-availability time of a record (for dependence edges).
fn value_time(r: &InstRecord) -> Option<u64> {
    r.complete()
        .or(r.retire())
        .or(r.issue())
        .or(r.dispatch())
        .or(r.fetch())
}

/// A squashed wrong-path record (replicas that died are not).
fn wrong_path(r: &InstRecord) -> bool {
    r.fate == Fate::Squashed && r.lane == InstLane::Normal
}

/// "No slot" in the `u32` slot tables.
const NO_SLOT: u32 = u32::MAX;

/// One finished log indexed for both walks, built in O(records +
/// cycles) with no sort and no hash map.
struct Dag<'a> {
    /// The log, for the records' wait-edges.
    log: &'a LifecycleLog,
    /// Every retained record at slot `lid − base`: lids are dense and
    /// handed out in order, so the slots are lid order. A lid the ring
    /// dropped (or one outside the range) has no slot.
    base: u64,
    slots: Vec<Option<&'a InstRecord>>,
    /// Retained records (the `Some` slots).
    len: usize,
    /// Cycle recording started.
    start: u64,
    /// Refetch lookups: `latest_squash[c − squash_base]` is the slot of
    /// the latest wrong-path squash retiring at or before cycle `c`
    /// (highest cycle, then highest lid); `squash_base` is the earliest
    /// squash's cycle.
    squash_base: u64,
    latest_squash: Vec<u32>,
}

impl<'a> Dag<'a> {
    fn new(log: &'a LifecycleLog) -> Dag<'a> {
        let mut lids = (u64::MAX, 0);
        let mut squashes = (u64::MAX, 0);
        for r in log.records() {
            lids = (lids.0.min(r.lid), lids.1.max(r.lid));
            if let Some(c) = r.retire().filter(|_| wrong_path(r)) {
                squashes = (squashes.0.min(c), squashes.1.max(c));
            }
        }
        let span = |(lo, hi): (u64, u64)| hi.checked_sub(lo).map_or(0, |d| d as usize + 1);
        let mut slots = vec![None; span(lids)];
        for r in log.records() {
            slots[(r.lid - lids.0) as usize] = Some(r);
        }
        let mut latest_squash = vec![NO_SLOT; span(squashes)];
        for (i, r) in slots.iter().enumerate() {
            if let Some(c) = r.filter(|r| wrong_path(r)).and_then(InstRecord::retire) {
                // Slots ascend, so the last write per cycle is its
                // highest lid.
                latest_squash[(c - squashes.0) as usize] = i as u32;
            }
        }
        for k in 1..latest_squash.len() {
            if latest_squash[k] == NO_SLOT {
                latest_squash[k] = latest_squash[k - 1];
            }
        }
        Dag {
            log,
            base: lids.0,
            slots,
            len: log.len(),
            start: log.start_cycle(),
            squash_base: squashes.0,
            latest_squash,
        }
    }

    /// The retained record in slot `i`.
    fn rec(&self, i: usize) -> &'a InstRecord {
        self.slots[i].expect("walks visit retained records only")
    }

    /// Slot of `lid`, when the record is retained.
    fn slot(&self, lid: u64) -> Option<usize> {
        let i = usize::try_from(lid.checked_sub(self.base)?).ok()?;
        self.slots.get(i)?.map(|_| i)
    }

    /// Retained records in lid order, with their slots.
    fn iter(&self) -> impl Iterator<Item = (usize, &'a InstRecord)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i, (*r)?)))
    }

    /// The latest wrong-path squash retiring in `(lo, hi]`, as
    /// `(cycle, slot)`: highest cycle, then highest lid.
    fn squash_in(&self, lo: u64, hi: u64) -> Option<(u64, usize)> {
        let k = hi.checked_sub(self.squash_base)?;
        let k = usize::try_from(k).unwrap_or(usize::MAX);
        // Index 0 holds the earliest squash, so every entry names one.
        let &s = self.latest_squash.get(k).or(self.latest_squash.last())?;
        let c = self.rec(s as usize).retire()?;
        (c > lo).then_some((c, s as usize))
    }
}

struct Walk {
    attributed: [u64; NUM_CLASSES],
    segs: HashMap<(u64, EdgeClass), u64>,
    refetch: HashMap<u64, u64>,
}

impl Walk {
    fn add(&mut self, pc: u64, class: EdgeClass, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.attributed[class as usize] += cycles;
        *self.segs.entry((pc, class)).or_insert(0) += cycles;
        if class == EdgeClass::MispredictRefetch {
            *self.refetch.entry(pc).or_insert(0) += cycles;
        }
    }
}

/// The critical path: a backward walk from the last retirement. Returns
/// a default (zero-span) path when the log holds no records.
fn critical_path(dag: &Dag) -> CritPath {
    // Previous fetched record, per slot, for the in-order fetch chain.
    let mut prev_fetch = vec![NO_SLOT; dag.slots.len()];
    let mut last_fetched = NO_SLOT;
    for (i, r) in dag.iter() {
        prev_fetch[i] = last_fetched;
        if r.fetch().is_some() {
            last_fetched = i as u32;
        }
    }

    let start = dag.start;
    // Start from the committed record that retired last (any record as
    // a fallback, so a squash-only window still walks).
    let last_end = |committed_only: bool| {
        dag.iter()
            .filter(|(_, r)| !committed_only || r.fate == Fate::Committed)
            .filter_map(|(i, r)| end_time(r).map(|t| (t, r.lid, i)))
            .max()
    };
    let Some((t_end, _, mut cur)) = last_end(true).or_else(|| last_end(false)) else {
        return CritPath::default();
    };

    let mut w = Walk {
        attributed: [0; NUM_CLASSES],
        segs: HashMap::new(),
        refetch: HashMap::new(),
    };
    let mut t = t_end;
    let mut steps = 0usize;
    let limit = dag.len.saturating_mul(4) + 64;
    while t > start && steps < limit {
        steps += 1;
        let r = dag.rec(cur);
        // A squashed record's entire residency is speculation-window
        // time: every span it contributes is mispredict-caused (perfect
        // branch prediction would remove it).
        let cls = |c: EdgeClass| {
            if wrong_path(r) {
                EdgeClass::MispredictRefetch
            } else {
                c
            }
        };
        // Completed-to-retired: waiting for in-order commit.
        if let Some(c) = r.complete().filter(|&c| c < t) {
            w.add(r.pc(), cls(EdgeClass::Commit), t - c);
            t = c;
        }
        // Issue-to-complete: execution latency, with the record's own
        // memory/port wait-edges carved out of the span first.
        if let Some(i) = r.issue().filter(|&i| i < t) {
            let mut span = t - i;
            for e in dag.log.edges(r) {
                if span == 0 {
                    break;
                }
                let kind = e.kind();
                if matches!(kind, WaitEdgeKind::CacheMiss | WaitEdgeKind::Port) {
                    let take = u64::from(e.cycles).min(span);
                    w.add(r.pc(), cls(EdgeClass::from_wait(kind, e.detail())), take);
                    span -= take;
                }
            }
            w.add(r.pc(), cls(EdgeClass::Execute), span);
            t = i;
        }
        // Dispatch-to-issue: follow the binding (latest-arriving)
        // causal edge to an older record when one explains the wait.
        let d = r.dispatch().or(r.decode()).or(r.fetch()).unwrap_or(start);
        let binding = dag
            .log
            .edges(r)
            .filter_map(|e| {
                let j = dag.slot(e.target()?)?;
                let te = value_time(dag.rec(j))?;
                (te < t && te > d).then_some((te, dag.rec(j).lid, j, e.kind(), e.detail()))
            })
            .max_by_key(|&(te, lid, ..)| (te, lid));
        if let Some((te, _, j, kind, detail)) = binding {
            w.add(r.pc(), cls(EdgeClass::from_wait(kind, detail)), t - te);
            t = te;
            cur = j;
            continue;
        }
        if d < t {
            w.add(r.pc(), cls(EdgeClass::Schedule), t - d);
            t = d;
        }
        // Frontend depth down to the fetch cycle.
        if let Some(f) = r.fetch().filter(|&f| f < t) {
            w.add(r.pc(), cls(EdgeClass::Frontend), t - f);
            t = f;
        }
        // Fetch chain: either a refetch after a squash (attribute the
        // repair gap to the squashed instruction) or the in-order
        // fetch stream.
        let p = prev_fetch[cur];
        if p == NO_SLOT {
            break;
        }
        let p = p as usize;
        let pf = dag.rec(p).fetch().unwrap_or(start);
        if let Some((c, si)) = dag.squash_in(pf, t) {
            w.add(dag.rec(si).pc(), EdgeClass::MispredictRefetch, t - c);
            t = c;
            cur = si;
            continue;
        }
        if pf < t {
            w.add(r.pc(), cls(EdgeClass::Frontend), t - pf);
            t = pf;
        }
        cur = p;
    }
    if t > start {
        // Chain truncated (dropped records or the walk limit).
        w.add(0, EdgeClass::Unresolved, t - start);
    }
    let mut top: Vec<PathSeg> = w
        .segs
        .into_iter()
        .map(|((pc, class), cycles)| PathSeg { pc, class, cycles })
        .collect();
    top.sort_by_key(|s| (std::cmp::Reverse(s.cycles), s.pc, s.class as usize));
    top.truncate(TOP_SEGMENTS);
    let mut branch_refetch: Vec<(u64, u64)> = w.refetch.into_iter().collect();
    branch_refetch.sort_by_key(|&(pc, c)| (std::cmp::Reverse(c), pc));
    branch_refetch.truncate(TOP_SEGMENTS);
    CritPath {
        span: t_end - start,
        start_cycle: start,
        classes: w.attributed,
        top,
        branch_refetch,
        steps,
    }
}

// ---------------------------------------------------------------------------
// What-if projections
// ---------------------------------------------------------------------------

/// Which edge classes a what-if projection zeroes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroSet {
    /// Perfect branch prediction: squashed work vanishes and
    /// flush-crossing fetch gaps (refetch penalties) collapse to 0.
    pub branch_repair: bool,
    /// Replica values are always ready: `ReplicaValue` edges cost 0
    /// (infinite replica buffer — no arbitration/creation backlog).
    pub replica_value: bool,
    /// Perfect CI reuse: reused instructions also skip their execution
    /// latency (the replica did the work).
    pub reused_exec: bool,
}

/// The standard speed-limit scenarios, in reporting order. Each later
/// compound scenario zeroes a superset of the earlier ones it contains,
/// so speedups are monotone within the chains `perfect_everything ≤
/// perfect_bp` and `perfect_everything ≤ perfect_ci_reuse ≤
/// infinite_replica_buffer` (projected cycles).
pub const SCENARIOS: [(&str, ZeroSet); 4] = [
    (
        "perfect_bp",
        ZeroSet {
            branch_repair: true,
            replica_value: false,
            reused_exec: false,
        },
    ),
    (
        "infinite_replica_buffer",
        ZeroSet {
            branch_repair: false,
            replica_value: true,
            reused_exec: false,
        },
    ),
    (
        "perfect_ci_reuse",
        ZeroSet {
            branch_repair: false,
            replica_value: true,
            reused_exec: true,
        },
    ),
    (
        "perfect_everything",
        ZeroSet {
            branch_repair: true,
            replica_value: true,
            reused_exec: true,
        },
    ),
];

/// One what-if row of the speed-limit table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WhatIfRow {
    /// Scenario key (see [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Projected cycles for the recorded span under the zero-set.
    pub projected_cycles: u64,
}

/// One scenario's state in the forward walk.
struct Lane {
    zero: ZeroSet,
    /// Observed fetch cycle of the previous fetched record this lane
    /// kept, and its projected counterpart.
    last_fetch_obs: Option<u64>,
    last_fetch_proj: u64,
    /// The in-order completion front, one entry per window slot.
    occupancy: VecDeque<u64>,
    inorder_front: u64,
    /// Latest projected completion of a committed record.
    depth: u64,
}

/// Forward re-walk of the DAG, one lane per zero-set, returning each
/// lane's projected cycle count for the recorded span.
///
/// Every lane replays each record's *observed* latencies (fetch-stream
/// gaps, front-end depth, dependence arrivals, execution time) in lid
/// order; its projection is the latest projected completion among
/// committed records, floored by the commit-bandwidth bound
/// `ceil(committed / width)`. The lanes differ only in what their
/// zero-set removes: wrong-path records, `replica_value` edges and
/// reused execution.
///
/// Two structural machine limits are modelled alongside the observed
/// latencies, because without them a memory-bound run projects absurd
/// overlap: the instruction `window` (a record cannot dispatch until
/// the record `window` dispatch-slots ahead of it has completed — the
/// real machine frees the slot even later, at in-order retire) and the
/// commit-width floor. `window == 0` disables the window model.
///
/// Guarantees (see module docs for the argument): no projection exceeds
/// the measured span, and zeroing more classes never increases it. The
/// first guarantee is enforced by construction: the re-walk is an
/// approximation (fetch gaps and the window front can over-serialize by
/// a few percent), but the measured run is itself an upper bound on any
/// speed limit — removing constraints cannot slow the machine down — so
/// the result is clamped to the recorded span.
fn project<const N: usize>(dag: &Dag, zeros: [ZeroSet; N], width: u64, window: usize) -> [u64; N] {
    let start = dag.start;
    let mut lanes = zeros.map(|zero| Lane {
        zero,
        last_fetch_obs: None,
        last_fetch_proj: 0,
        occupancy: VecDeque::with_capacity(window),
        inorder_front: 0,
        depth: 0,
    });
    // Projected value-availability per slot and lane, in cycles after
    // `start`. A lane that skips a record leaves it 0, and a record not
    // reached yet is 0 too, so taking the max over every retained
    // dependence is exactly "older, kept producers only". Stored
    // saturating at `u32::MAX` (see `store_proj`).
    let mut proj: Vec<[u32; N]> = vec![[0; N]; dag.slots.len()];
    let mut committed = 0u64;
    for (i, r) in dag.iter() {
        let mut arrive = [0u64; N];
        for e in dag.log.edges(r) {
            let Some(j) = e.target().and_then(|t| dag.slot(t)) else {
                continue;
            };
            let replica = e.kind() == WaitEdgeKind::ReplicaValue;
            for (k, lane) in lanes.iter().enumerate() {
                if !(replica && lane.zero.replica_value) {
                    arrive[k] = arrive[k].max(u64::from(proj[j][k]));
                }
            }
        }
        let exec = match (r.issue(), r.complete()) {
            (Some(i_), Some(c)) => c.saturating_sub(i_),
            _ => 0,
        };
        // Finite window: a record cannot dispatch before the record
        // `window` slots ahead of it has drained.
        let occupies = window > 0 && r.lane == InstLane::Normal && r.dispatch().is_some();
        let counts = r.fate == Fate::Committed && r.lane == InstLane::Normal;
        for (k, lane) in lanes.iter_mut().enumerate() {
            let z = lane.zero;
            // Under perfect BP the wrong path is never fetched.
            if z.branch_repair && wrong_path(r) {
                continue;
            }
            let mut t = match r.fetch() {
                Some(f) => {
                    let (gap_lo, mut delta) = match lane.last_fetch_obs {
                        Some(pf) => (pf, f - pf),
                        None => (start, f - start),
                    };
                    if z.branch_repair && dag.squash_in(gap_lo, f).is_some() {
                        delta = 0; // the refetch penalty vanishes
                    }
                    lane.last_fetch_proj += delta;
                    lane.last_fetch_obs = Some(f);
                    // Front-end depth (decode/rename) at its observed cost.
                    let depth_fe = r.dispatch().or(r.decode()).unwrap_or(f).saturating_sub(f);
                    lane.last_fetch_proj + depth_fe
                }
                // Replicas are injected by the engine, not fetched; keep
                // their observed creation time.
                None => r
                    .dispatch()
                    .or(end_time(r))
                    .unwrap_or(start)
                    .saturating_sub(start),
            };
            t = t.max(arrive[k]);
            if occupies && lane.occupancy.len() == window {
                let freed = lane.occupancy.pop_front().unwrap_or(0);
                t = t.max(freed);
            }
            // Execution latency at its observed cost.
            let p = t + if z.reused_exec && r.reused { 0 } else { exec };
            proj[i][k] = store_proj(p);
            if occupies {
                lane.inorder_front = lane.inorder_front.max(p);
                lane.occupancy.push_back(lane.inorder_front);
            }
            if counts {
                lane.depth = lane.depth.max(p);
            }
        }
        if counts {
            committed += 1;
        }
    }
    // Clamp to the recorded span (last committed retire): a speed limit
    // can never exceed the run it was measured from.
    let measured = dag
        .iter()
        .filter(|(_, r)| r.fate == Fate::Committed)
        .filter_map(|(_, r)| r.retire().or_else(|| end_time(r)))
        .max()
        .unwrap_or(0)
        .saturating_sub(start);
    lanes.map(|lane| {
        let projected = lane.depth.max(committed.div_ceil(width.max(1)));
        if measured > 0 {
            projected.min(measured)
        } else {
            projected
        }
    })
}

/// A projected time as the projection table stores it: saturated at
/// `u32::MAX`. Exact for every output: a projection only adds and takes
/// maxima, so a time computed from a saturated entry is at least
/// `u32::MAX` exactly when the true time is, and is otherwise the true
/// time; and every lane's result is clamped to the measured span, which
/// the `u32` cycle bound keeps below `u32::MAX`, so both come out as the
/// clamp.
fn store_proj(p: u64) -> u32 {
    u32::try_from(p).unwrap_or(u32::MAX)
}

// ---------------------------------------------------------------------------
// The combined report
// ---------------------------------------------------------------------------

/// Everything the bottleneck layer derives from one recorded run
/// (stored on `SimStats`, serialized into the snapshot's `bottleneck`
/// object).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BottleneckReport {
    /// The critical path and its attribution.
    pub crit: CritPath,
    /// The speed-limit table.
    pub whatif: Vec<WhatIfRow>,
}

/// Run the full analysis over a finished log. `window` is the machine's
/// instruction-window size (the what-if re-walk models it; 0 = off).
///
/// Cost: one lid index over the log, one backward walk and one forward
/// walk carrying all [`SCENARIOS`] as lanes — O(records + edges +
/// cycles), with no sort and no hash map over lids.
pub fn analyze(log: &LifecycleLog, width: u64, window: usize) -> BottleneckReport {
    let dag = Dag::new(log);
    let crit = critical_path(&dag);
    let projected = project(&dag, SCENARIOS.map(|(_, zero)| zero), width, window);
    BottleneckReport {
        crit,
        whatif: SCENARIOS
            .iter()
            .zip(projected)
            .map(|(&(scenario, _), projected_cycles)| WhatIfRow {
                scenario,
                projected_cycles,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::LifecycleLog;
    use crate::stall::ALL_CAUSES;

    #[test]
    fn cpi_groups_partition_every_cause() {
        // Charge each cause a distinct prime so any double-count or
        // omission breaks the sum.
        let mut b = StallBreakdown::new();
        let primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        for (c, p) in ALL_CAUSES.into_iter().zip(primes) {
            b.charge(c, p);
        }
        let stack = CpiStack::from_breakdown(&b, 1);
        assert_eq!(stack.total(), b.total());
        assert_eq!(stack.base + stack.reuse_recovered, 2);
        assert_eq!(stack.reuse_recovered, 1);
    }

    #[test]
    fn cpi_stack_check_sum_mirrors_breakdown() {
        let mut b = StallBreakdown::new();
        b.charge(StallCause::Useful, 10);
        b.charge(StallCause::FetchStarved, 6);
        let stack = CpiStack::from_breakdown(&b, 4);
        assert!(stack.check_sum(2, 8).is_ok());
        assert!(stack.check_sum(3, 8).is_err());
    }

    /// A chain with one cost per what-if scenario: a load misses to
    /// memory and its consumer waits on it; a branch squash forces a
    /// refetch gap; after it, a replica reads a long multiply and a
    /// reused consumer waits for that replica's value (`ReplicaValue`)
    /// and then takes 4 cycles of its own. Each scenario removes cycles
    /// the others keep, so every row differs.
    fn chain_log() -> LifecycleLog {
        let mut log = LifecycleLog::new(0);
        // lid 1: load, fetched at 0, issues at 3, completes at 103.
        let l1 = log.begin_fetch(0x10, || "ld".into(), 0, 2);
        log.note_dispatch(l1, 1, 2);
        log.note_issue(l1, 3);
        log.edge(l1, WaitEdgeKind::CacheMiss, None, WaitDetail::Mem, 4);
        log.note_complete(l1, 103);
        // lid 2: consumer, waits on the load's value.
        let l2 = log.begin_fetch(0x18, || "add".into(), 1, 3);
        log.note_dispatch(l2, 2, 3);
        log.edge(l2, WaitEdgeKind::Producer, Some(l1), WaitDetail::None, 10);
        log.note_issue(l2, 104);
        log.note_complete(l2, 105);
        // lid 3: mispredicted branch, squashed path dies at 110.
        let l3 = log.begin_fetch(0x20, || "beq".into(), 2, 4);
        log.note_dispatch(l3, 3, 4);
        log.note_issue(l3, 105);
        log.note_complete(l3, 106);
        let wrong = log.begin_fetch(0x28, || "wrong".into(), 3, 5);
        log.note_squash(wrong, 110);
        // lid 5: refetched correct path at 112.
        let l5 = log.begin_fetch(0x30, || "sub".into(), 112, 114);
        log.note_dispatch(l5, 4, 114);
        log.note_issue(l5, 115);
        log.note_complete(l5, 116);
        // lid 6: a 10-cycle multiply.
        let l6 = log.begin_fetch(0x38, || "mul".into(), 113, 115);
        log.note_dispatch(l6, 5, 115);
        log.note_issue(l6, 116);
        log.note_complete(l6, 126);
        // lid 7: a replica created at 116 that reads the multiply.
        let rep = log.begin_replica(0x40, || "rep".into(), 116);
        log.edge(rep, WaitEdgeKind::Producer, Some(l6), WaitDetail::None, 116);
        log.note_issue(rep, 126);
        log.finish_replica(rep, 131, true);
        // lid 8: a reused consumer that waits for the replica's value.
        let l8 = log.begin_fetch(0x48, || "reuse".into(), 125, 127);
        log.note_dispatch(l8, 6, 127);
        log.set_reused(l8, true);
        for c in 127..131 {
            log.edge(
                l8,
                WaitEdgeKind::ReplicaValue,
                Some(rep),
                WaitDetail::None,
                c,
            );
        }
        log.note_issue(l8, 131);
        log.note_complete(l8, 135);
        log.note_commit(l1, 104);
        log.note_commit(l2, 106);
        log.note_commit(l3, 107);
        log.note_commit(l5, 118);
        log.note_commit(l6, 127);
        log.note_commit(l8, 136);
        log
    }

    /// The what-if table as `(scenario, cycles)` pairs.
    fn rows(rep: &BottleneckReport) -> Vec<(&'static str, u64)> {
        rep.whatif
            .iter()
            .map(|r| (r.scenario, r.projected_cycles))
            .collect()
    }

    #[test]
    fn critical_path_tiles_the_span_exactly() {
        let log = chain_log();
        let cp = analyze(&log, 8, 256).crit;
        assert_eq!(cp.span, 136, "last retire at 136, start at 0");
        let total: u64 = cp.classes.iter().sum();
        assert_eq!(total, cp.span, "attribution must tile the span");
        assert!(cp.classes[EdgeClass::MispredictRefetch as usize] > 0);
        assert!(!cp.top.is_empty());
        // The refetch segment is anchored to the squashed pc.
        assert!(cp.branch_refetch.iter().any(|&(pc, _)| pc == 0x28));
    }

    #[test]
    fn projection_bounds_and_orders() {
        assert!(std::mem::size_of::<crate::lifecycle::WaitEdge>() <= 24);
        let log = chain_log();
        let width = 8;
        let measured = 136;
        let dag = Dag::new(&log);
        let [baseline] = project(&dag, [ZeroSet::default()], width, 256);
        assert!(baseline <= measured, "un-zeroed replay must bound");
        let rep = analyze(&log, width, 256);
        let get = |k: &str| rows(&rep).into_iter().find(|r| r.0 == k).unwrap().1;
        for (scenario, cycles) in rows(&rep) {
            assert!(cycles <= measured, "{scenario}");
            assert!(cycles >= 1);
        }
        assert!(get("perfect_everything") <= get("perfect_bp"));
        assert!(get("perfect_everything") <= get("perfect_ci_reuse"));
        assert!(get("perfect_ci_reuse") <= get("infinite_replica_buffer"));
        // Perfect BP erases the refetch gap, so it beats the baseline.
        assert!(get("perfect_bp") < baseline);
        // Every zero-set lands on its own value: a lane that applied
        // another lane's zero-set would move its row.
        assert_eq!(baseline, 134);
        assert_eq!(
            rows(&rep),
            [
                ("perfect_bp", 125),
                ("infinite_replica_buffer", 131),
                ("perfect_ci_reuse", 127),
                ("perfect_everything", 103),
            ]
        );
    }

    #[test]
    fn projection_table_saturates_at_u32_max() {
        for p in [0, 1, u64::from(u32::MAX) - 1] {
            assert_eq!(u64::from(store_proj(p)), p);
        }
        for p in [u64::from(u32::MAX), 1 << 32, (1 << 32) + 5, u64::MAX] {
            assert_eq!(store_proj(p), u32::MAX, "{p}");
        }
    }

    #[test]
    fn lanes_match_single_lane_walks() {
        // Walking the scenarios together gives each one what it gets
        // walked alone: lane state never bleeds across lanes.
        let log = chain_log();
        let dag = Dag::new(&log);
        let together = project(&dag, SCENARIOS.map(|(_, z)| z), 8, 2);
        for (k, &(scenario, zero)) in SCENARIOS.iter().enumerate() {
            assert_eq!(project(&dag, [zero], 8, 2), [together[k]], "{scenario}");
        }
    }

    /// A capped ring (2 retired records): the producer and a squashed
    /// wrong-path record retire first and are dropped, so the surviving
    /// consumer's producer edge names a lid below the retained range
    /// and the squash leaves a hole inside it; one record is still in
    /// flight.
    fn capped_log() -> LifecycleLog {
        let mut log = LifecycleLog::new(2);
        // lid 1: a load served by the L2 (dropped).
        let p = log.begin_fetch(0x10, || "ld".into(), 0, 1);
        log.note_dispatch(p, 1, 1);
        log.note_issue(p, 2);
        log.edge(p, WaitEdgeKind::CacheMiss, None, WaitDetail::L2, 2);
        log.note_complete(p, 12);
        // lid 2: its consumer (survives).
        let c = log.begin_fetch(0x14, || "add".into(), 1, 2);
        log.note_dispatch(c, 2, 2);
        for cyc in 2..12 {
            log.edge(c, WaitEdgeKind::Producer, Some(p), WaitDetail::None, cyc);
        }
        log.note_issue(c, 12);
        log.note_complete(c, 13);
        // lid 3: wrong path, squashed at 6 (dropped).
        let w = log.begin_fetch(0x18, || "wrong".into(), 2, 3);
        log.note_squash(w, 6);
        // lid 4: refetched, consumes lid 2.
        let d = log.begin_fetch(0x1c, || "sub".into(), 8, 9);
        log.note_dispatch(d, 3, 9);
        log.edge(d, WaitEdgeKind::Producer, Some(c), WaitDetail::None, 9);
        log.note_issue(d, 14);
        log.note_complete(d, 15);
        // lid 5: still in flight.
        let f = log.begin_fetch(0x20, || "mul".into(), 9, 10);
        log.note_dispatch(f, 4, 10);
        log.edge(f, WaitEdgeKind::Producer, Some(d), WaitDetail::None, 10);
        log.note_issue(f, 15);
        log.note_commit(p, 13);
        log.note_commit(c, 14);
        log.note_commit(d, 16);
        log
    }

    #[test]
    fn capped_ring_with_holes_and_in_flight_records() {
        let log = capped_log();
        assert_eq!((log.len(), log.dropped()), (3, 2));
        let rep = analyze(&log, 8, 256);
        let cp = &rep.crit;
        assert_eq!((cp.span, cp.start_cycle, cp.steps), (16, 0, 2));
        // The consumer's wait on the dropped load has no record to
        // follow, so it reads as scheduling time, and the walk runs out
        // one cycle short of the start.
        assert_eq!(cp.classes, [1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 10, 1]);
        let top: Vec<(u64, EdgeClass, u64)> =
            cp.top.iter().map(|s| (s.pc, s.class, s.cycles)).collect();
        assert_eq!(
            top,
            [
                (20, EdgeClass::Schedule, 10),
                (0, EdgeClass::Unresolved, 1),
                (20, EdgeClass::Frontend, 1),
                (20, EdgeClass::Execute, 1),
                (28, EdgeClass::Producer, 1),
                (28, EdgeClass::Execute, 1),
                (28, EdgeClass::Commit, 1),
            ]
        );
        assert!(cp.branch_refetch.is_empty(), "the squash was dropped");
        assert_eq!(
            rows(&rep),
            [
                ("perfect_bp", 10),
                ("infinite_replica_buffer", 10),
                ("perfect_ci_reuse", 10),
                ("perfect_everything", 10),
            ]
        );
    }

    #[test]
    fn empty_log_yields_default_report() {
        let log = LifecycleLog::new(0);
        let rep = analyze(&log, 8, 256);
        assert_eq!(rep.crit, CritPath::default());
        assert!(rep.whatif.iter().all(|r| r.projected_cycles == 0));
    }
}
