//! The execution-driven out-of-order pipeline.
//!
//! Stage order inside one simulated cycle (reverse pipeline order so a
//! producer completing in `writeback` can wake a consumer issuing the
//! same cycle, modelling full bypassing):
//!
//! 1. `commit` — in-order retire (≤ 8), store write-back + coherence,
//!    reuse finalisation, golden-model check;
//! 2. `writeback` — finish executing instructions & replicas, resolve
//!    branches (misprediction recovery happens here);
//! 3. `issue` — oldest-first out-of-order select (≤ 8) over the window,
//!    constrained by FUs, D-cache ports, the wide bus and MSHRs;
//! 4. `replica_pump` — the CI replica engine uses *leftover* issue
//!    bandwidth, FUs and ports (§2.4.1: lower priority);
//! 5. `dispatch` — rename + window insertion, mechanism decode hooks
//!    (validation, vectorization, NRBQ/CRP bookkeeping);
//! 6. `fetch` — gshare-directed instruction fetch (≤ 8, one taken
//!    branch), I-cache latency modelled.

use crate::config::{RegFileSize, SimConfig};
use crate::lsq::Lsq;
use crate::mech::{Mech, ReplicaArena};
use crate::observe::{CommitRecord, Observers};
use crate::regfile::{PhysId, PhysRegFile};
use crate::rob::{Checkpoint, ReuseInfo, RobEntry, RobState};
use crate::stall_attr::DispatchBlock;
use crate::stats::SimStats;
use cfir_core::RenameExt;
use cfir_emu::{Emulator, MemImage};
use cfir_isa::{Inst, Program, NUM_LOGICAL_REGS};
use cfir_mem::Hierarchy;
use cfir_obs::LifecycleLog;
use cfir_predict::Gshare;
use std::collections::VecDeque;

const NLR: usize = NUM_LOGICAL_REGS;

/// Sentinel for an empty [`Pipeline::jr_btb`] slot (no program target
/// can be `u32::MAX`).
pub(crate) const JR_BTB_EMPTY: u32 = u32::MAX;

/// An instruction in flight between fetch and dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetched {
    pub pc: u32,
    pub inst: Inst,
    pub pred_taken: bool,
    pub pred_target: u32,
    /// Gshare history *before* this branch's prediction was shifted in.
    pub ghist: u64,
    /// Cycle at which the instruction reaches rename.
    pub ready_at: u64,
    /// Lifecycle id (0 when lifecycle recording is off).
    pub lid: u64,
}

/// Per-cycle consumable resources.
#[derive(Debug, Default)]
pub(crate) struct CycleRes {
    pub issue: u32,
    pub int_alu: u32,
    pub int_muldiv: u32,
    pub fp_alu: u32,
    pub fp_muldiv: u32,
    pub dports: u32,
    /// Open wide-bus line groups this cycle: (line, loads left, latency).
    pub wide_groups: Vec<(u64, u32, u32)>,
    pub specmem_reads: u32,
    pub specmem_writes: u32,
    pub stores_committed: u32,
}

/// Point-in-time pipeline occupancy (see [`Pipeline::snapshot`]).
#[derive(Debug, Clone, Copy)]
pub struct PipelineSnapshot {
    /// Current cycle.
    pub cycle: u64,
    /// Next fetch PC.
    pub fetch_pc: u32,
    /// Instructions between fetch and rename.
    pub decode_q: usize,
    /// Window occupancy.
    pub rob: usize,
    /// Window entries with results, waiting to retire in order.
    pub rob_done: usize,
    /// Load/store queue occupancy.
    pub lsq: usize,
    /// Physical registers in use.
    pub regs_in_use: usize,
    /// Replica-engine work items in flight.
    pub replicas_in_flight: usize,
    /// Live SRSMT entries.
    pub srsmt_entries: usize,
    /// Instructions committed so far.
    pub committed: u64,
}

/// Architectural + warm microarchitectural state for starting a
/// pipeline mid-program (see [`Pipeline::restore_checkpoint`]). The
/// sampling subsystem (`cfir-sample`) captures this during functional
/// fast-forward and re-injects it before each detailed window.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Architectural register values (`regs[0]` must be 0).
    pub regs: [u64; NLR],
    /// Program counter to resume at (instruction index, not bytes).
    pub pc: u32,
    /// Committed memory image at the checkpoint.
    pub mem: MemImage,
    /// Committed global branch history (16-bit, as commit maintains it).
    pub ghist: u64,
    /// Gshare counter table (length must match `cfg.gshare_entries`).
    pub gshare_table: Vec<u8>,
    /// Gshare speculative history at the checkpoint.
    pub gshare_history: u64,
    /// Cache-hierarchy warm state (all four levels).
    pub hier: cfir_mem::WarmHierarchy,
}

/// Why [`Pipeline::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// `halt` committed.
    Halted,
    /// The committed-instruction budget was reached.
    InstBudget,
    /// The cycle budget was reached.
    CycleBudget,
}

/// The simulator.
pub struct Pipeline<'a> {
    pub(crate) prog: &'a Program,
    /// Configuration (read-only during the run).
    pub cfg: SimConfig,
    /// Statistics.
    pub stats: SimStats,

    pub(crate) cycle: u64,
    pub(crate) next_seq: u64,
    pub(crate) last_committed_seq: u64,
    pub(crate) halted: bool,

    // Front end.
    pub(crate) fetch_pc: u32,
    pub(crate) fetch_wait_until: u64,
    pub(crate) fetch_halted: bool,
    pub(crate) decode_q: VecDeque<Fetched>,

    // Rename.
    pub(crate) rf: PhysRegFile,
    pub(crate) rmap: [PhysId; NLR],
    pub(crate) ext: [RenameExt; NLR],
    pub(crate) arch_map: [PhysId; NLR],
    pub(crate) arch_regs: [u64; NLR],
    pub(crate) arch_pc: u32,
    /// Gshare history as of the last *committed* branch (restored on a
    /// full flush so the predictor does not desynchronise).
    pub(crate) arch_ghist: u64,

    // Window.
    pub(crate) rob: VecDeque<RobEntry>,
    pub(crate) lsq: Lsq,

    // Memory system.
    pub(crate) mem: MemImage,
    pub(crate) hier: Hierarchy,
    /// In-flight L1D line fills: (line, ready_at). Doubles as the MSHR
    /// occupancy (Table 1: up to 16 outstanding misses).
    pub(crate) outstanding_misses: Vec<(u64, u64)>,

    // Predictors.
    pub(crate) gshare: Gshare,
    /// Indirect-jump BTB: last resolved target per static word PC, or
    /// [`JR_BTB_EMPTY`] when the PC has never resolved. Dense (one slot
    /// per program instruction) so the fetch-path lookup is a single
    /// indexed load; program targets can never be `u32::MAX`, so the
    /// sentinel is unambiguous.
    pub(crate) jr_btb: Vec<u32>,

    // Mechanism.
    pub(crate) mech: Option<Mech>,
    pub(crate) replicas: ReplicaArena,

    // Golden model.
    pub(crate) emu: Option<Emulator>,
    /// Fetch-side oracle for perfect branch prediction (limit study):
    /// an emulator kept in lock-step with the fetch stream.
    pub(crate) oracle: Option<Box<Emulator>>,

    // Per-cycle resources.
    pub(crate) res: CycleRes,

    // Per-cycle stall-attribution state.
    /// A flush (branch recovery or repair) happened this cycle.
    pub(crate) flushed_this_cycle: bool,
    /// Why dispatch stopped early this cycle, if it did.
    pub(crate) dispatch_block: Option<DispatchBlock>,
    /// Cycle of the most recent flush with no commit since.
    pub(crate) last_flush_cycle: Option<u64>,

    /// The tracer, the commit log and the lifecycle recorder: every
    /// stage reports to them through this one seam.
    pub(crate) obs: Observers,
}

impl<'a> Pipeline<'a> {
    /// Build a pipeline over `prog` with initial memory `mem`.
    pub fn new(prog: &'a Program, mem: MemImage, cfg: SimConfig) -> Self {
        assert!(prog.validate().is_ok(), "program has invalid targets");
        let capacity = match cfg.regs {
            RegFileSize::Finite(n) => Some(n),
            RegFileSize::Infinite => None,
        };
        let mut rf = PhysRegFile::new(capacity);
        // Architectural mappings: r0 -> p0 (zero), r1..r63 -> fresh regs.
        let mut rmap = [0 as PhysId; NLR];
        for (r, slot) in rmap.iter_mut().enumerate().skip(1) {
            let p = rf.alloc().expect("register file too small for arch state");
            rf.force_ready(p, 0);
            *slot = p;
            let _ = r;
        }
        let mech = if cfg.mode.vectorizes() || cfg.mode.selects_ci() {
            Some(Mech::new(cfg.mech.clone(), prog.insts.len()))
        } else {
            None
        };
        let emu = if cfg.cosim_check {
            Some(Emulator::new(mem.clone()))
        } else {
            None
        };
        let oracle = if cfg.perfect_branch_prediction {
            Some(Box::new(Emulator::new(mem.clone())))
        } else {
            None
        };
        let gshare = Gshare::new(cfg.gshare_entries);
        let hier = Hierarchy::new(cfg.hierarchy.clone());
        let lsq = Lsq::new(cfg.lsq as usize);
        let mut pipe = Pipeline {
            prog,
            stats: SimStats::default(),
            cycle: 0,
            next_seq: 1,
            last_committed_seq: 0,
            halted: false,
            fetch_pc: 0,
            fetch_wait_until: 0,
            fetch_halted: false,
            decode_q: VecDeque::new(),
            rf,
            arch_map: rmap,
            rmap,
            ext: [RenameExt::new(); NLR],
            arch_regs: [0; NLR],
            arch_pc: 0,
            arch_ghist: 0,
            rob: VecDeque::with_capacity(cfg.window as usize),
            lsq,
            mem,
            hier,
            outstanding_misses: Vec::new(),
            gshare,
            jr_btb: vec![JR_BTB_EMPTY; prog.insts.len()],
            mech,
            replicas: ReplicaArena::default(),
            emu,
            oracle,
            res: CycleRes::default(),
            flushed_this_cycle: false,
            dispatch_block: None,
            last_flush_cycle: None,
            obs: Observers::from_env(cfg.record_lifecycle),
            cfg,
        };
        // Seed the per-branch scorecards with static oracle truth: the
        // post-dominator reconvergence PC and hammock class of every
        // conditional branch, so the runtime detector's estimates can
        // be scored against ground truth as events open.
        let analysis = cfir_analyze::analyze(prog);
        for b in &analysis.branches {
            pipe.stats.branch_prof.set_static_truth(
                b.pc,
                crate::prof::StaticTruth {
                    rcp: b.rcp,
                    class: b.class.name(),
                    is_hammock: b.class.is_hammock(),
                },
            );
        }
        // ... and with the dataflow engine's CIDI/CIDD/clobbered
        // verdicts, so every reuse outcome in a hammock's CI region
        // can be scored against the static dataflow prediction.
        for bc in &analysis.cidi.branches {
            for v in &bc.verdicts {
                pipe.stats
                    .branch_prof
                    .set_cidi_verdict(bc.branch_pc, v.pc, v.verdict.name());
            }
        }
        pipe
    }

    /// Start this pipeline from a mid-program architectural state with
    /// warm predictor/cache contents, instead of from reset. Must be
    /// called before the first cycle: the committed register map laid
    /// down by [`Pipeline::new`] is reused, each architectural register
    /// is forced ready with the checkpointed value, and the golden
    /// co-simulation / perfect-BP oracle emulators (when enabled) are
    /// re-seeded so they stay in lockstep from the restored PC onward.
    ///
    /// The indirect-jump BTB starts cold (it is speculative fetch
    /// state, not architectural); the detailed warmup portion of a
    /// sampling window absorbs that transient.
    pub fn restore_checkpoint(&mut self, warm: &WarmStart) {
        assert_eq!(
            self.cycle, 0,
            "restore_checkpoint must run before the first cycle"
        );
        assert_eq!(warm.regs[0], 0, "r0 must be zero in a checkpoint");
        for r in 1..NLR {
            self.arch_regs[r] = warm.regs[r];
            self.rf.force_ready(self.arch_map[r], warm.regs[r]);
        }
        self.arch_pc = warm.pc;
        self.fetch_pc = warm.pc;
        self.arch_ghist = warm.ghist & ((1u64 << 16) - 1);
        self.gshare
            .import_warm(&warm.gshare_table, warm.gshare_history);
        self.hier.import_warm(&warm.hier);
        self.mem = warm.mem.clone();
        if let Some(e) = &mut self.emu {
            e.regs = warm.regs;
            e.pc = warm.pc;
            e.mem = warm.mem.clone();
            e.halted = false;
        }
        if let Some(o) = &mut self.oracle {
            o.regs = warm.regs;
            o.pc = warm.pc;
            o.mem = warm.mem.clone();
            o.halted = false;
        }
    }

    /// Suffix the file sinks of the tracer and the `CFIR_PIPEVIEW`
    /// path (if any) with `scope`, so concurrent pipelines sharing one
    /// environment write distinct files instead of interleaving. The
    /// text sink is unaffected.
    pub fn scope_trace(&mut self, scope: &str) {
        self.obs.scope(scope);
    }

    /// Record a per-instruction lifecycle (stage-entry cycles + causal
    /// wait-edges) for every dynamic instruction, keeping up to `cap`
    /// retired records (0 = unbounded). Replaces any recorder already
    /// set up, including a `CFIR_PIPEVIEW` one (its file is then not
    /// written). Must run before the first cycle, so the wait sums
    /// reconcile exactly with the stall breakdown.
    pub fn enable_lifecycle(&mut self, cap: usize) {
        assert_eq!(
            self.cycle, 0,
            "enable_lifecycle must run before the first cycle"
        );
        self.obs.enable_lifecycle(cap);
    }

    /// The lifecycle recorder, when enabled.
    pub fn lifecycle(&self) -> Option<&LifecycleLog> {
        self.obs.lifecycle()
    }

    /// Keep the last `n` committed instructions for inspection
    /// ([`Pipeline::commit_log`]).
    pub fn enable_commit_log(&mut self, n: usize) {
        self.obs.enable_commit_log(n);
    }

    /// The recorded commit log (empty unless enabled).
    pub fn commit_log(&self) -> impl Iterator<Item = &CommitRecord> {
        self.obs.commit_log()
    }

    /// A one-line snapshot of pipeline occupancy, for teaching-style
    /// per-cycle views (`cfir run --pipeview N`).
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            cycle: self.cycle,
            fetch_pc: self.fetch_pc,
            decode_q: self.decode_q.len(),
            rob: self.rob.len(),
            rob_done: self
                .rob
                .iter()
                .filter(|e| e.state == RobState::Done)
                .count(),
            lsq: self.lsq.len(),
            regs_in_use: self.rf.in_use(),
            replicas_in_flight: self.replicas.len(),
            srsmt_entries: self.mech.as_ref().map(|m| m.srsmt.occupancy()).unwrap_or(0),
            committed: self.stats.committed,
        }
    }

    /// Current cycle (diagnostics).
    pub fn now(&self) -> u64 {
        self.cycle
    }

    /// Committed architectural register value (diagnostics/tests).
    pub fn arch_reg(&self, r: u8) -> u64 {
        self.arch_regs[r as usize]
    }

    /// Committed memory (diagnostics/tests).
    pub fn memory(&self) -> &MemImage {
        &self.mem
    }

    /// Run to completion. Returns why the run stopped and fills
    /// [`Pipeline::stats`].
    pub fn run(&mut self) -> RunExit {
        let mut last_commit_cycle = 0u64;
        let mut last_committed = 0u64;
        loop {
            self.step();
            if self.halted {
                self.finalize_stats();
                return RunExit::Halted;
            }
            if self.stats.committed >= self.cfg.max_insts {
                self.finalize_stats();
                return RunExit::InstBudget;
            }
            if self.cfg.max_cycles > 0 && self.cycle >= self.cfg.max_cycles {
                self.finalize_stats();
                return RunExit::CycleBudget;
            }
            // Deadlock detector: the pipeline must commit something
            // every so often; a simulator bug would otherwise hang.
            if self.stats.committed != last_committed {
                last_committed = self.stats.committed;
                last_commit_cycle = self.cycle;
            } else {
                assert!(
                    self.cycle - last_commit_cycle < 200_000,
                    "pipeline deadlock at cycle {} (pc {}, rob {}, decode_q {}, free regs {})",
                    self.cycle,
                    self.fetch_pc,
                    self.rob.len(),
                    self.decode_q.len(),
                    self.rf.available()
                );
            }
        }
    }

    /// Simulate one cycle.
    pub fn step(&mut self) {
        // Reset the per-cycle resource pool in place: `wide_groups`
        // keeps its allocation across cycles instead of being dropped
        // and re-grown every cycle of a wide-bus run.
        self.res.issue = self.cfg.issue_width;
        self.res.int_alu = self.cfg.int_alu;
        self.res.int_muldiv = self.cfg.int_muldiv;
        self.res.fp_alu = self.cfg.fp_alu;
        self.res.fp_muldiv = self.cfg.fp_muldiv;
        self.res.dports = self.cfg.dports;
        self.res.wide_groups.clear();
        self.res.specmem_reads = 2;
        self.res.specmem_writes = 2;
        self.res.stores_committed = 0;
        if !self.outstanding_misses.is_empty() {
            self.outstanding_misses.retain(|&(_, d)| d > self.cycle);
        }
        self.flushed_this_cycle = false;
        self.dispatch_block = None;
        let committed_before = self.stats.committed;

        self.commit();
        if !self.halted {
            self.writeback();
            if self.cfg.mech.replicas_first {
                // §2.4.1 ablation: replicas steal bandwidth first.
                self.replica_pump();
                self.issue();
            } else {
                self.issue();
                self.replica_pump();
            }
            self.dispatch();
            self.fetch();
        }

        self.attribute_stalls(committed_before);
        self.stats.reg_occupancy_sum += self.rf.in_use() as u64;
        self.stats.reg_high_water = self.stats.reg_high_water.max(self.rf.high_water as u64);
        self.stats.cycles += 1;
        self.cycle += 1;
        if self.cfg.interval_cycles > 0 && self.cycle.is_multiple_of(self.cfg.interval_cycles) {
            let prev = self.stats.intervals.last().copied().unwrap_or_default();
            let dc = self.cycle - prev.cycle;
            let di = self.stats.committed - prev.committed;
            let dr = self.stats.committed_reuse - prev.committed_reuse;
            let db = self.stats.branches - prev.branches;
            let dm = self.stats.mispredicts - prev.mispredicts;
            let rate = |num: u64, den: u64| {
                if den == 0 {
                    0.0
                } else {
                    num as f64 / den as f64
                }
            };
            self.stats.intervals.push(crate::stats::IntervalSample {
                cycle: self.cycle,
                committed: self.stats.committed,
                committed_reuse: self.stats.committed_reuse,
                branches: self.stats.branches,
                mispredicts: self.stats.mispredicts,
                interval_ipc: rate(di, dc),
                interval_mispredict_rate: rate(dm, db),
                interval_reuse_rate: rate(dr, di),
                rob_occupancy: self.rob.len() as u32,
                regs_in_use: self.rf.in_use() as u32,
            });
        }
    }

    fn finalize_stats(&mut self) {
        self.stats.l1d_misses = self.hier.l1d.misses;
        self.stats.l1d_writebacks = self.hier.l1d.writebacks;
        self.stats.l1i_accesses = self.hier.l1i.accesses;
        self.stats.l1i_misses = self.hier.l1i.misses;
        self.stats.l2_accesses = self.hier.l2.accesses;
        self.stats.l2_misses = self.hier.l2.misses;
        self.stats.l3_accesses = self.hier.l3.accesses;
        self.stats.l3_misses = self.hier.l3.misses;
        self.stats.mem_accesses = self.hier.mem_accesses;
        if let Some(m) = &self.mech {
            self.stats.srsmt = m.srsmt.stats;
            // Static-oracle cross-check of the MBS table: tags are
            // exact full byte PCs, so every valid entry must name a
            // conditional branch of the program.
            for pc in m.mbs.valid_pcs() {
                self.stats.oracle_mbs_checked += 1;
                let word = (pc / 4) as u32;
                let is_branch = self
                    .prog
                    .fetch(word)
                    .map(|i| i.is_cond_branch())
                    .unwrap_or(false);
                if !is_branch {
                    self.stats.oracle_mbs_nonbranch += 1;
                }
            }
        }
        // Fold per-event outcomes into the per-branch scorecards (the
        // clone is a few bytes per misprediction, once per run).
        let events = self.stats.events.clone();
        self.stats.branch_prof.finalize(&events);
        // Accounting invariant: every commit slot of every cycle was
        // charged to exactly one cause.
        if let Err(e) = self
            .stats
            .stall
            .check_sum(self.stats.cycles, self.cfg.commit_width as u64)
        {
            panic!("stall attribution broken: {e}");
        }
        self.obs.finish(
            &mut self.stats,
            self.cfg.commit_width as u64,
            self.cfg.window as usize,
        );
    }

    // ----------------------------------------------------------------
    // Fetch
    // ----------------------------------------------------------------

    fn fetch(&mut self) {
        if self.fetch_halted || self.cycle < self.fetch_wait_until {
            return;
        }
        if self.decode_q.len() >= (3 * self.cfg.fetch_width) as usize {
            return; // decoupled front end: bounded fetch buffer
        }
        // One I-cache access per fetch cycle.
        let lat = self.hier.access_inst(Program::byte_pc(self.fetch_pc));
        if lat > self.cfg.hierarchy.l1_hit {
            self.fetch_wait_until = self.cycle + lat as u64;
            return;
        }
        let mut taken_seen = false;
        for _ in 0..self.cfg.fetch_width {
            let pc = self.fetch_pc;
            let Some(&inst) = self.prog.fetch(pc) else {
                // Ran off the program: stop fetching (workloads halt).
                self.fetch_halted = true;
                break;
            };
            let ghist = self.gshare.history();
            let (pred_taken, pred_target) = if let Some(oracle) = &mut self.oracle {
                // Limit study: the oracle emulator supplies the true
                // direction and target for every control transfer.
                debug_assert_eq!(oracle.pc, pc, "oracle out of step with fetch");
                let r = oracle.step(self.prog).expect("oracle must keep running");
                if inst.is_cond_branch() {
                    // Keep gshare's speculative history shaped like the
                    // real stream so its state stays comparable.
                    let _ = self.gshare.predict_and_update(Program::byte_pc(pc));
                    self.gshare.restore_history(ghist);
                    self.gshare.push(r.taken);
                }
                (r.taken, r.next_pc)
            } else {
                match inst {
                    Inst::Br { target, .. } => {
                        let t = self.gshare.predict_and_update(Program::byte_pc(pc));
                        (t, if t { target } else { pc + 1 })
                    }
                    Inst::Jmp { target } => (true, target),
                    Inst::Jr { .. } => {
                        let t = match self.jr_btb[pc as usize] {
                            JR_BTB_EMPTY => pc + 1,
                            t => t,
                        };
                        (true, t)
                    }
                    _ => (false, pc + 1),
                }
            };
            let ready_at = self.cycle + self.cfg.decode_delay as u64;
            let lid = self.obs.fetch(pc, inst, self.cycle, ready_at);
            self.decode_q.push_back(Fetched {
                pc,
                inst,
                pred_taken,
                pred_target,
                ghist,
                ready_at,
                lid,
            });
            self.stats.fetched += 1;
            if matches!(inst, Inst::Halt) {
                self.fetch_halted = true;
                break;
            }
            self.fetch_pc = pred_target;
            if pred_taken {
                if taken_seen {
                    break; // at most one taken branch per fetch group
                }
                taken_seen = true;
            }
        }
    }

    // ----------------------------------------------------------------
    // Dispatch (decode + rename + window insertion)
    // ----------------------------------------------------------------

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.issue_width {
            let Some(f) = self.decode_q.front().copied() else {
                break;
            };
            if f.ready_at > self.cycle {
                self.dispatch_block = Some(DispatchBlock::DecodeWait);
                break;
            }
            if self.rob.len() >= self.cfg.window as usize {
                self.dispatch_block = Some(DispatchBlock::RobFull);
                break;
            }
            let is_mem = f.inst.is_load() || f.inst.is_store();
            if is_mem && !self.lsq.has_room() {
                self.dispatch_block = Some(DispatchBlock::LsqFull);
                break;
            }
            if f.inst.dest().is_some() && self.rf.available() < 1 {
                // No physical register for the destination.
                self.dispatch_block = Some(DispatchBlock::NoRegs);
                break;
            }
            self.decode_q.pop_front();

            let seq = self.next_seq;
            self.next_seq += 1;
            let mut e = RobEntry::new(seq, f.pc, f.inst);
            e.lid = f.lid;
            e.pred_taken = f.pred_taken;
            e.pred_target = f.pred_target;
            e.ghist = f.ghist;
            e.dispatched_at = self.cycle;
            self.obs.dispatch(f.lid, seq, self.cycle);

            // Mechanism decode hooks (validation may deliver a reuse).
            let reuse = self.mech_decode(&mut e);

            // Rename sources.
            for (i, s) in f.inst.sources().iter().enumerate() {
                e.src_phys[i] = s.map(|r| self.rmap[r as usize]);
            }
            // Checkpoint for everything that can redirect (Br, Jr).
            if matches!(f.inst, Inst::Br { .. } | Inst::Jr { .. }) {
                e.checkpoint = Some(Box::new(Checkpoint {
                    rmap: self.rmap,
                    ext: self.ext,
                    ghist: f.ghist,
                }));
            }
            // Rename destination.
            if let Some(d) = f.inst.dest() {
                let p = self.rf.alloc().expect("checked above");
                e.old_phys = Some(self.rmap[d as usize]);
                e.new_phys = Some(p);
                e.ldest = Some(d);
                self.rmap[d as usize] = p;
            }
            // The recorder's true dataflow `Producer` edges: the stall
            // cascade only blames the window head, which misses chains
            // of back-to-back misses; the bottleneck re-walk needs the
            // full dependence DAG.
            self.obs.rename(f.lid, e.src_phys, e.new_phys, self.cycle);
            // Memory instructions enter the LSQ.
            if is_mem {
                self.lsq.push(seq, f.inst.is_store());
                e.in_lsq = true;
            }
            // Vectorization triggers run post-rename (the destination
            // register seeds loop-carried self-dependences); skipped
            // when the instruction is a validated reuse.
            if reuse.is_none() {
                self.mech_vectorize(&e);
            }
            // Rename-extension propagation + reuse wiring.
            self.update_ext_and_state(&mut e, reuse);

            self.rob.push_back(e);
        }
    }

    /// Apply the stridedPC/V-S propagation rules to the destination and
    /// wire a validated reuse into the entry.
    fn update_ext_and_state(&mut self, e: &mut RobEntry, reuse: Option<ReuseInfo>) {
        // Destination extension update.
        if let Some(d) = e.ldest {
            let d = d as usize;
            match e.inst {
                Inst::Ld { .. } => {
                    let mut x = RenameExt::new();
                    if let Some(m) = &self.mech {
                        let bpc = Program::byte_pc(e.pc);
                        if m.stride.is_strided(bpc) {
                            x.set_strided_load(bpc);
                        }
                    }
                    self.ext[d] = x;
                }
                Inst::Alu { .. } | Inst::AluImm { .. } | Inst::Fp { .. } => {
                    let cap = self.cfg.mech.strided_pc_slots;
                    let srcs = e.inst.sources();
                    let mut refs: Vec<&RenameExt> = Vec::with_capacity(2);
                    for s in srcs.iter().flatten() {
                        refs.push(&self.ext[*s as usize]);
                    }
                    let (x, dropped) = RenameExt::propagate_from(&refs, cap);
                    self.stats.strided_pc_dropped += dropped as u64;
                    if x.len() + dropped > 0 {
                        self.stats.strided_pc_sum += (x.len() + dropped) as u64;
                        self.stats.strided_pc_samples += 1;
                    }
                    self.ext[d] = x;
                }
                _ => self.ext[d] = RenameExt::new(),
            }
            // V/S: set when this PC currently has an SRSMT entry (it was
            // vectorized, either fresh this cycle or still live).
            let vectorized = self
                .mech
                .as_ref()
                .map(|m| m.srsmt.find(Program::byte_pc(e.pc)).is_some())
                .unwrap_or(false);
            if vectorized {
                self.ext[d].set_vectorized(Program::byte_pc(e.pc));
            } else {
                self.ext[d].clear_vectorized();
            }
        }

        // Reuse wiring: the instruction does not execute.
        if let Some(r) = reuse {
            e.value = r.value;
            e.reuse = Some(r);
            self.obs.reused(e.lid, true);
            if r.pending {
                // The replica is still executing; the validating
                // instruction waits for the value (polled in writeback;
                // `done_at` records when the wait started so a stuck
                // chain can fall back to normal execution).
                e.state = RobState::Executing;
                e.done_at = self.cycle;
            } else {
                self.stats.h_reuse_wait.record(0);
                self.deliver_reuse_value(e, r.value);
            }
            if e.inst.is_load() {
                if let Some(a) = e.addr {
                    self.lsq.set_addr(e.seq, a);
                }
            }
            return;
        }

        // Non-executing instructions are done at dispatch.
        match e.inst {
            Inst::Nop | Inst::Halt => e.state = RobState::Done,
            Inst::Jmp { target } => {
                e.state = RobState::Done;
                e.actual_taken = true;
                e.actual_target = target;
                e.resolved = true;
            }
            _ => {}
        }
        if e.state == RobState::Done {
            self.obs.complete(e.lid, self.cycle);
        }
    }

    /// Hand a (now available) replica value to a validating
    /// instruction: immediately with a monolithic register file, or
    /// through the §2.4.6 copy uop (2-cycle speculative memory, 2 read
    /// ports per cycle) when the spec memory is configured.
    pub(crate) fn deliver_reuse_value(&mut self, e: &mut RobEntry, value: u64) {
        e.value = value;
        self.notify_seed(e.seq, value);
        if let Some(r) = &mut e.reuse {
            r.value = value;
            r.pending = false;
        }
        let specmem_lat = self
            .mech
            .as_ref()
            .and_then(|m| m.specmem.as_ref())
            .map(|s| s.latency);
        if let Some(lat) = specmem_lat {
            let port_penalty = if self.res.specmem_reads == 0 { 1 } else { 0 };
            self.res.specmem_reads = self.res.specmem_reads.saturating_sub(1);
            self.stats.specmem_copies += 1;
            e.state = RobState::Executing;
            e.done_at = self.cycle + lat as u64 + port_penalty;
        } else {
            if let Some(p) = e.new_phys {
                self.rf.write(p, value);
            }
            e.state = RobState::Done;
            self.obs.complete(e.lid, self.cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use cfir_isa::{assemble, AluOp, Cond, Program, ProgramBuilder};

    fn run_program(src: &str, mode: Mode) -> (SimStats, [u64; NLR]) {
        run_built(assemble("t", src).unwrap(), mode)
    }

    /// Debug kernels with generated instruction sequences go through
    /// [`ProgramBuilder`] — the entry point the workloads crate builds
    /// every suite kernel with — rather than `format!`-assembled text,
    /// so there is only one generator path to keep correct.
    fn run_built(p: Program, mode: Mode) -> (SimStats, [u64; NLR]) {
        let mut cfg = SimConfig::paper_baseline().with_mode(mode);
        cfg.cosim_check = true;
        let mut pl = Pipeline::new(&p, MemImage::new(), cfg);
        let exit = pl.run();
        assert_eq!(exit, RunExit::Halted);
        (pl.stats.clone(), pl.arch_regs)
    }

    #[test]
    fn straightline_commits_in_order() {
        let (s, regs) = run_program("li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt", Mode::Scalar);
        assert_eq!(regs[3], 42);
        assert_eq!(s.committed, 4);
        assert!(s.cycles > 0);
    }

    #[test]
    fn dependent_chain_respects_latency() {
        // 10 dependent multiplies: at least 2 cycles each.
        let mut b = ProgramBuilder::new("dep-chain");
        b.li(1, 1).li(2, 3);
        for _ in 0..10 {
            b.alu(AluOp::Mul, 1, 1, 2);
        }
        b.halt();
        let (s, regs) = run_built(b.finish(), Mode::Scalar);
        assert_eq!(regs[1], 3u64.pow(10));
        assert!(
            s.cycles >= 20,
            "10 dependent muls need >= 20 cycles, got {}",
            s.cycles
        );
    }

    #[test]
    fn independent_ops_go_wide() {
        // A warm loop of independent instructions should commit far
        // faster than 1 IPC (cold straight-line code would miss the
        // I-cache on every 64B line instead).
        let mut b = ProgramBuilder::new("wide");
        b.li(61, 0).li(62, 40);
        let top = b.label_here();
        for i in 1..=24u8 {
            b.li(i, i as i64);
        }
        b.alui(AluOp::Add, 61, 61, 1);
        b.br(Cond::Lt, 61, 62, top);
        b.halt();
        let (s, _) = run_built(b.finish(), Mode::Scalar);
        assert_eq!(s.committed, 2 + 40 * 26 + 1);
        assert!(s.ipc() > 2.0, "ipc = {}", s.ipc());
    }

    #[test]
    fn loop_with_memory_and_branches() {
        let src = r#"
            li r1, 1000
            li r2, 0
            li r3, 50
            li r4, 0
        top:
            muli r5, r2, 8
            add r5, r5, r1
            ld r6, 0(r5)
            add r4, r4, r6
            addi r2, r2, 1
            blt r2, r3, top
            halt
        "#;
        let p = assemble("t", src).unwrap();
        let mut mem = MemImage::new();
        for i in 0..50u64 {
            mem.write(1000 + i * 8, i);
        }
        let mut cfg = SimConfig::paper_baseline();
        cfg.cosim_check = true;
        let mut pl = Pipeline::new(&p, mem, cfg);
        assert_eq!(pl.run(), RunExit::Halted);
        assert_eq!(pl.arch_reg(4), (0..50).sum::<u64>());
        assert!(pl.stats.branches >= 50);
    }

    #[test]
    fn store_load_forwarding_roundtrip() {
        let (_, regs) = run_program(
            "li r1, 4096\nli r2, 99\nst r2, 0(r1)\nld r3, 0(r1)\naddi r3, r3, 1\nhalt",
            Mode::Scalar,
        );
        assert_eq!(regs[3], 100);
    }

    #[test]
    fn hammock_runs_in_every_mode() {
        let src = r#"
            li r1, 1000
            li r2, 0
            li r3, 64
            li r4, 0
            li r7, 0
        top:
            muli r5, r2, 8
            add r5, r5, r1
            ld r6, 0(r5)
            beq r6, r0, else_
            addi r4, r4, 1
            jmp join
        else_:
            addi r7, r7, 1
        join:
            addi r2, r2, 1
            blt r2, r3, top
            halt
        "#;
        let p = assemble("t", src).unwrap();
        let mut mem = MemImage::new();
        for i in 0..64u64 {
            // Pseudo-random zero/non-zero pattern.
            let v = (i * 2654435761) % 7 % 2;
            mem.write(1000 + i * 8, v);
        }
        for mode in [
            Mode::Scalar,
            Mode::WideBus,
            Mode::CiIw,
            Mode::Ci,
            Mode::Vect,
        ] {
            let mut cfg = SimConfig::paper_baseline().with_mode(mode);
            cfg.cosim_check = true;
            let mut pl = Pipeline::new(&p, mem.clone(), cfg);
            assert_eq!(pl.run(), RunExit::Halted, "mode {mode:?}");
            assert_eq!(
                pl.arch_reg(4) + pl.arch_reg(7),
                64,
                "counts must add up in mode {mode:?}"
            );
        }
    }
}
