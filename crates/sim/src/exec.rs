//! Issue, writeback and misprediction recovery.

use crate::pipeline::Pipeline;
use crate::rob::RobState;
use cfir_isa::{FuClass, Inst, Program};
use cfir_obs::{EventKind, Subsystem, WaitEdgeKind};

/// Result of an ALU-class instruction (`Alu`, `AluImm`, `Fp`) on
/// source values `a` and `b`; `None` for any other instruction.
pub(crate) fn alu_result(inst: Inst, a: u64, b: u64) -> Option<u64> {
    match inst {
        Inst::Alu { op, .. } => Some(op.eval(a, b)),
        Inst::AluImm { op, imm, .. } => Some(op.eval(a, imm as u64)),
        Inst::Fp { op, .. } => Some(op.eval(a, b)),
        _ => None,
    }
}

impl Pipeline<'_> {
    /// Whether a functional unit of `class` is free this cycle, and
    /// consume it if so.
    pub(crate) fn take_fu(&mut self, class: FuClass) -> bool {
        let slot = match class {
            FuClass::IntAlu | FuClass::Store => &mut self.res.int_alu,
            FuClass::IntMul | FuClass::IntDiv => &mut self.res.int_muldiv,
            FuClass::FpAlu => &mut self.res.fp_alu,
            FuClass::FpMul | FuClass::FpDiv => &mut self.res.fp_muldiv,
            FuClass::Load => unreachable!("loads arbitrate for D-ports"),
        };
        if *slot == 0 {
            return false;
        }
        *slot -= 1;
        true
    }

    /// Arbitrate a load's D-cache access. Returns the latency, or
    /// `None` when no bandwidth (or MSHR) is available this cycle.
    /// Counts one L1 access per *port use* (Figure 8's metric): with
    /// the wide bus, up to `wide_loads_per_access` loads share one
    /// access to the same line.
    pub(crate) fn arbitrate_load(&mut self, addr: u64) -> Option<u32> {
        let wide = self.cfg.mode.wide_bus();
        let line = self.hier.l1d_line(addr);
        if wide {
            for g in &mut self.res.wide_groups {
                if g.0 == line && g.1 > 0 {
                    g.1 -= 1;
                    return Some(g.2);
                }
            }
        }
        if self.res.dports == 0 {
            return None;
        }
        // A load to a line whose fill is still in flight merges with
        // the outstanding miss (MSHR hit): it uses a port but completes
        // only when the fill returns.
        if let Some(&(_, ready)) = self.outstanding_misses.iter().find(|&&(l, _)| l == line) {
            self.res.dports -= 1;
            self.stats.l1d_accesses += 1;
            let lat = (ready - self.cycle).max(1) as u32;
            if wide {
                self.res
                    .wide_groups
                    .push((line, self.cfg.wide_loads_per_access - 1, lat));
            }
            return Some(lat);
        }
        if self.outstanding_misses.len() >= self.cfg.mshrs as usize && !self.hier.l1d.probe(addr) {
            return None; // would miss and MSHRs are full
        }
        let lat = self.hier.access_data(addr, false);
        self.res.dports -= 1;
        self.stats.l1d_accesses += 1;
        if lat > self.cfg.hierarchy.l1_hit {
            self.outstanding_misses
                .push((line, self.cycle + lat as u64));
            self.obs
                .trace(Subsystem::Mem, 0, self.cycle, || EventKind::CacheMiss {
                    addr,
                    latency: lat,
                });
        }
        if wide {
            self.res
                .wide_groups
                .push((line, self.cfg.wide_loads_per_access - 1, lat));
        }
        Some(lat)
    }

    /// Which hierarchy level served a data access of latency `lat`
    /// (the lifecycle cache-miss wait-edge detail).
    pub(crate) fn miss_level(&self, lat: u32) -> &'static str {
        let h = &self.cfg.hierarchy;
        if lat <= h.l1_hit {
            "l1"
        } else if lat <= h.l2_hit {
            "l2"
        } else if lat <= h.l3_hit {
            "l3"
        } else {
            "mem"
        }
    }

    // ----------------------------------------------------------------
    // Issue
    // ----------------------------------------------------------------

    pub(crate) fn issue(&mut self) {
        for i in 0..self.rob.len() {
            if self.res.issue == 0 {
                break;
            }
            if self.rob[i].state != RobState::Dispatched {
                continue;
            }
            // Operand readiness.
            let srcs = self.rob[i].src_phys;
            let ready = srcs.iter().flatten().all(|&p| self.rf.is_ready(p));
            if !ready {
                continue;
            }
            let inst = self.rob[i].inst;
            let v1 = srcs[0].map(|p| self.rf.read(p)).unwrap_or(0);
            let v2 = srcs[1].map(|p| self.rf.read(p)).unwrap_or(0);

            match inst {
                Inst::Ld { offset, .. } => {
                    let addr = cfir_emu::MemImage::align(v1.wrapping_add(offset as u64));
                    let seq = self.rob[i].seq;
                    self.lsq.set_addr(seq, addr);
                    match self.lsq.search_for_load(seq, addr) {
                        crate::lsq::LoadSearch::Stall => {
                            let (lsq, rob) = (&self.lsq, &self.rob);
                            self.obs.wait_edge(
                                rob[i].lid,
                                WaitEdgeKind::StoreDisambiguation,
                                || {
                                    lsq.blocking_store_for_load(seq, addr).and_then(|s| {
                                        rob.iter().find(|e| e.seq == s).map(|e| e.lid)
                                    })
                                },
                                "",
                                self.cycle,
                            );
                            continue;
                        }
                        crate::lsq::LoadSearch::Forwarded(v) => {
                            self.stats.h_load_to_use.record(1);
                            let e = &mut self.rob[i];
                            e.addr = Some(addr);
                            e.value = v;
                            e.state = RobState::Executing;
                            e.done_at = self.cycle + 1;
                        }
                        crate::lsq::LoadSearch::CacheAccess => {
                            let Some(lat) = self.arbitrate_load(addr) else {
                                let lid = self.rob[i].lid;
                                self.obs.wait_edge(
                                    lid,
                                    WaitEdgeKind::Port,
                                    || None,
                                    "dports",
                                    self.cycle,
                                );
                                continue;
                            };
                            let v = self.mem.read(addr);
                            self.stats.h_load_to_use.record(lat as u64);
                            let miss = lat > self.cfg.hierarchy.l1_hit;
                            let level = self.miss_level(lat);
                            let e = &mut self.rob[i];
                            e.addr = Some(addr);
                            e.value = v;
                            e.state = RobState::Executing;
                            e.done_at = self.cycle + lat as u64;
                            e.dcache_miss = miss;
                            if miss {
                                let lid = e.lid;
                                self.obs.wait_edge(
                                    lid,
                                    WaitEdgeKind::CacheMiss,
                                    || None,
                                    level,
                                    self.cycle,
                                );
                            }
                        }
                    }
                    self.res.issue -= 1;
                }
                Inst::St { offset, .. } => {
                    // v1 = base, v2 = data (source order of `St`).
                    if !self.take_fu(FuClass::Store) {
                        continue;
                    }
                    let addr = cfir_emu::MemImage::align(v1.wrapping_add(offset as u64));
                    let seq = self.rob[i].seq;
                    self.lsq.set_addr(seq, addr);
                    self.lsq.set_data(seq, v2);
                    let e = &mut self.rob[i];
                    e.addr = Some(addr);
                    e.value = v2;
                    e.state = RobState::Executing;
                    e.done_at = self.cycle + 1;
                    self.res.issue -= 1;
                }
                Inst::Br { cond, target, .. } => {
                    if !self.take_fu(FuClass::IntAlu) {
                        continue;
                    }
                    let taken = cond.eval(v1, v2);
                    let e = &mut self.rob[i];
                    e.actual_taken = taken;
                    e.actual_target = if taken { target } else { e.pc + 1 };
                    e.state = RobState::Executing;
                    e.done_at = self.cycle + 1;
                    self.res.issue -= 1;
                }
                Inst::Jr { .. } => {
                    if !self.take_fu(FuClass::IntAlu) {
                        continue;
                    }
                    let e = &mut self.rob[i];
                    e.actual_taken = true;
                    e.actual_target = v1 as u32;
                    e.state = RobState::Executing;
                    e.done_at = self.cycle + 1;
                    self.res.issue -= 1;
                }
                Inst::Alu { .. } | Inst::AluImm { .. } | Inst::Fp { .. } => {
                    let class = inst.class();
                    if !self.take_fu(class) {
                        continue;
                    }
                    let e = &mut self.rob[i];
                    e.value = alu_result(inst, v1, v2).unwrap();
                    e.state = RobState::Executing;
                    e.done_at = self.cycle + class.latency().unwrap() as u64;
                    self.res.issue -= 1;
                }
                Inst::Li { imm, .. } => {
                    if !self.take_fu(FuClass::IntAlu) {
                        continue;
                    }
                    let e = &mut self.rob[i];
                    e.value = imm as u64;
                    e.state = RobState::Executing;
                    e.done_at = self.cycle + 1;
                    self.res.issue -= 1;
                }
                Inst::Nop | Inst::Halt | Inst::Jmp { .. } => {
                    // Completed at dispatch; nothing to issue.
                }
            }
            // Was `Dispatched` at the top of the iteration (all the
            // resource-fail paths `continue` before this), so a state
            // change means the instruction issued this cycle.
            if self.rob[i].state == RobState::Executing {
                self.obs.issue(self.rob[i].lid, self.cycle);
            }
        }
    }

    // ----------------------------------------------------------------
    // Writeback
    // ----------------------------------------------------------------

    pub(crate) fn writeback(&mut self) {
        // Deliver values to validating instructions whose replica has
        // completed since they dispatched; fall back to normal
        // execution when the entry/replica died under them.
        self.poll_pending_reuses();
        // Complete scalar instructions.
        let mut mispredicted: Option<usize> = None;
        for i in 0..self.rob.len() {
            if self.rob[i].state != RobState::Executing || self.rob[i].done_at > self.cycle {
                continue;
            }
            self.rob[i].state = RobState::Done;
            self.obs.complete(self.rob[i].lid, self.cycle);
            if let Some(pr) = self.rob[i].probe {
                if !pr.verified {
                    if let Some(p) = &mut self.rob[i].probe {
                        p.verified = true;
                    }
                    let value = self.rob[i].value;
                    let addr = self.rob[i].addr;
                    let is_load = self.rob[i].inst.is_load();
                    let pc = self.rob[i].pc;
                    self.verify_probe(pr, pc, value, addr, is_load);
                }
            }
            if let Some(p) = self.rob[i].new_phys {
                // Reused entries already wrote their value (monolithic)
                // or write here (spec-mem copy completion).
                let v = self.rob[i].value;
                if !self.rf.is_ready(p) {
                    self.rf.write(p, v);
                }
                let seq = self.rob[i].seq;
                self.notify_seed(seq, v);
            }
            let inst = self.rob[i].inst;
            if matches!(inst, Inst::Br { .. } | Inst::Jr { .. }) {
                self.rob[i].resolved = true;
                let wait = self.cycle.saturating_sub(self.rob[i].dispatched_at);
                self.stats.h_branch_resolve.record(wait);
                if let Inst::Jr { .. } = inst {
                    let (pc, tgt) = (self.rob[i].pc, self.rob[i].actual_target);
                    self.jr_btb[pc as usize] = tgt;
                }
                let e = &self.rob[i];
                if e.actual_target != e.pred_target && mispredicted.is_none() {
                    mispredicted = Some(i);
                }
            }
        }
        // Complete replicas.
        self.complete_replicas();
        // Recover from the oldest misprediction resolved this cycle.
        if let Some(i) = mispredicted {
            self.recover(i);
        }
    }

    // ----------------------------------------------------------------
    // Misprediction recovery
    // ----------------------------------------------------------------

    /// Registers written by the wrong path between the mispredicted
    /// branch and its re-convergent point (the CRP initial mask,
    /// §2.3.2). Walks the in-window wrong path directly — the precise
    /// quantity the paper's NRBQ mask OR approximates; if the wrong
    /// path never reaches the RCP inside the window, everything it
    /// wrote taints (equivalent to ORing every NRBQ segment).
    pub(crate) fn wrong_path_mask(&self, branch_idx: usize, rcp: u32) -> u64 {
        let mut mask = 0u64;
        for e in self.rob.iter().skip(branch_idx + 1) {
            if e.pc == rcp {
                return mask;
            }
            if let Some(d) = e.ldest {
                mask |= 1u64 << d;
            }
        }
        for f in &self.decode_q {
            if f.pc == rcp {
                return mask;
            }
            if let Some(d) = f.inst.dest() {
                mask |= 1u64 << d;
            }
        }
        mask
    }

    /// Squash every window entry younger than the `keep` oldest, then
    /// the whole decode queue: the squash half of both recovery paths
    /// ([`recover`](Self::recover) and [`full_flush`](Self::full_flush)).
    /// The window goes youngest first, freeing each destination
    /// register, closing its lifecycle record and killing any self-loop
    /// entry it was to seed; then the decode queue, oldest first.
    /// Marks the cycle as flushed and returns the number squashed.
    pub(crate) fn squash_window(&mut self, keep: usize) -> u64 {
        let mut squashed = 0u64;
        while self.rob.len() > keep {
            let e = self.rob.pop_back().unwrap();
            if let Some(p) = e.new_phys {
                self.rf.free(p);
            }
            self.obs.squash(e.lid, self.cycle);
            self.kill_seed_waiter(e.seq);
            squashed += 1;
        }
        squashed += self.decode_q.len() as u64;
        for f in &self.decode_q {
            self.obs.squash(f.lid, self.cycle);
        }
        self.decode_q.clear();
        self.stats.squashed += squashed;
        self.flushed_this_cycle = true;
        self.last_flush_cycle = Some(self.cycle);
        squashed
    }

    fn recover(&mut self, i: usize) {
        let bseq = self.rob[i].seq;
        let bpc = self.rob[i].pc;
        let actual_taken = self.rob[i].actual_taken;
        let actual_target = self.rob[i].actual_target;
        let is_cond = self.rob[i].is_cond_branch();

        // Mechanism: event + CRP activation + NRBQ/SRSMT recovery.
        self.mech_on_mispredict(i, bseq, bpc, is_cond);

        // Squash younger instructions.
        let squashed = self.squash_window(i + 1);
        debug_assert_eq!(self.rob.back().map(|e| e.seq), Some(bseq));
        self.lsq.squash_younger(bseq);

        // Restore rename state from the branch's checkpoint.
        let cp = self.rob[i]
            .checkpoint
            .take()
            .expect("control instruction without checkpoint");
        self.rmap = cp.rmap;
        self.ext = cp.ext;
        self.gshare.restore_history(cp.ghist);
        if is_cond {
            self.gshare.push(actual_taken);
        }

        // Redirect fetch.
        self.fetch_pc = actual_target;
        self.fetch_halted = false;
        self.fetch_wait_until = self.cycle + 1;

        // Fix SRSMT decode counters for validations that survived.
        self.recount_srsmt_decode();
        self.obs
            .trace(Subsystem::Flush, bpc as u64, self.cycle, || {
                EventKind::Squash {
                    resume_pc: actual_target as u64,
                    squashed,
                }
            });
    }
}

impl Pipeline<'_> {
    /// Deliver values to validating instructions whose replica finished
    /// after they dispatched (§2.3.4: the validating instruction waits
    /// for the value). Falls back to normal execution when the entry or
    /// replica died while waiting.
    fn poll_pending_reuses(&mut self) {
        if self.mech.is_none() {
            return;
        }
        for i in 0..self.rob.len() {
            let Some(r) = self.rob[i].reuse else { continue };
            if !r.pending || self.rob[i].state != RobState::Executing {
                continue;
            }
            let Some(idx) = r.srsmt_idx else { continue };
            let bpc = Program::byte_pc(self.rob[i].pc);
            #[derive(PartialEq)]
            enum Poll {
                Wait,
                /// The entry or replica died, or a stuck replica chain
                /// (e.g. a producer window that can no longer grow)
                /// kept the value away too long: execute normally.
                Fallback,
                /// Replica address contradicts the instance's exact
                /// address: fall back and desynchronise the entry.
                Mismatch,
                Deliver(u64, Option<u64>),
            }
            let poll = {
                let m = self.mech.as_ref().unwrap();
                match m.srsmt.get(idx) {
                    Some(ent) if ent.pc == bpc && ent.gen == r.gen && r.replica < ent.head => {
                        if ent.is_dead(r.replica) || r.replica < ent.commit {
                            Poll::Fallback
                        } else if ent.is_complete(r.replica) {
                            let addr = if self.rob[i].inst.is_load() {
                                Some(ent.addr_of(r.replica))
                            } else {
                                None
                            };
                            // Independent cross-check: if the load's own
                            // base register has become ready, the replica
                            // must hold this instance's exact address.
                            let exact = match (self.rob[i].inst, self.rob[i].src_phys[0]) {
                                (Inst::Ld { offset, .. }, Some(p)) if self.rf.is_ready(p) => {
                                    Some(cfir_emu::MemImage::align(
                                        self.rf.read(p).wrapping_add(offset as u64),
                                    ))
                                }
                                _ => None,
                            };
                            match (exact, addr) {
                                (Some(x), Some(a)) if x != a => Poll::Mismatch,
                                _ => Poll::Deliver(ent.value_of(r.replica), addr),
                            }
                        } else if self.cycle.saturating_sub(self.rob[i].done_at) > 64 {
                            // A stuck chain must not block the ROB head.
                            Poll::Fallback
                        } else {
                            Poll::Wait
                        }
                    }
                    _ => Poll::Fallback,
                }
            };
            match poll {
                Poll::Wait => {}
                Poll::Fallback | Poll::Mismatch => {
                    // Execute normally, but keep owning the consumed
                    // slot as a probe so the entry's instance accounting
                    // stays exact (recount/commit still see it).
                    let e = &mut self.rob[i];
                    e.probe = Some(crate::rob::ProbeInfo {
                        srsmt_idx: idx,
                        gen: r.gen,
                        replica: r.replica,
                        verified: true, // value came from a real validation
                    });
                    e.reuse = None;
                    e.state = RobState::Dispatched;
                    e.done_at = 0;
                    self.obs.reused(e.lid, false);
                    if poll == Poll::Mismatch {
                        let mut m = self.mech.take().unwrap();
                        if let Some(ent) = m.srsmt.get_mut(idx) {
                            ent.synced = false;
                        }
                        self.mech = Some(m);
                    }
                }
                Poll::Deliver(value, addr) => {
                    let waited = self.cycle.saturating_sub(self.rob[i].done_at);
                    self.stats.h_reuse_wait.record(waited);
                    self.obs
                        .trace(Subsystem::Vec, self.rob[i].pc as u64, self.cycle, || {
                            EventKind::Reuse { value, waited }
                        });
                    let mut e = self.rob[i].clone();
                    self.deliver_reuse_value(&mut e, value);
                    if let Some(a) = addr {
                        e.addr = Some(a);
                        self.lsq.set_addr(e.seq, a);
                    }
                    self.rob[i] = e;
                }
            }
        }
    }
}

impl Pipeline<'_> {
    /// A probing instruction finished executing: compare its real
    /// result against the replica slot it consumed. A match confirms
    /// the entry (later validations may deliver values); a mismatch
    /// proves misalignment and tears the entry down.
    pub(crate) fn verify_probe(
        &mut self,
        pr: crate::rob::ProbeInfo,
        pc: u32,
        value: u64,
        addr: Option<u64>,
        is_load: bool,
    ) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        // Dataflow oracle: capture the CI event that owns the SRSMT
        // entry before any teardown below erases it.
        let event = m.srsmt.get(pr.srsmt_idx).and_then(|ent| ent.event);
        let verdict = {
            match m.srsmt.get(pr.srsmt_idx) {
                Some(ent) if ent.gen == pr.gen && pr.replica < ent.head => {
                    if is_load {
                        // Address comparison works even if the replica
                        // has not completed (strided addresses are fixed
                        // at creation).
                        match ent.kind {
                            cfir_core::srsmt::VecKind::Load { .. } => {
                                Some(addr == Some(ent.addr_of(pr.replica)))
                            }
                            cfir_core::srsmt::VecKind::Op => {
                                if ent.is_complete(pr.replica) {
                                    Some(addr == Some(ent.addr_of(pr.replica)))
                                } else {
                                    None // cannot verify: leave unconfirmed
                                }
                            }
                        }
                    } else if ent.is_complete(pr.replica) {
                        Some(value == ent.value_of(pr.replica))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        // Dataflow oracle: a confirming probe is clean-reuse evidence
        // for the instruction at `pc`. A mismatching probe is not the
        // mirror image — the probe validates the replica's speculative
        // precomputation (stride-extrapolated addresses, operand
        // snapshots taken at vectorization time), so a mismatch shows
        // the *mechanism's* extrapolation broke (e.g. a masked index
        // wrapping past the stride run, or instance skew), not that an
        // arm definition reached the instruction. Mismatches are
        // recorded as mechanism repairs; the instance-exact dataflow
        // test lives at commit (architectural verify of reused
        // values). None = could not verify, nothing to score.
        match verdict {
            Some(true) => self.stats.branch_prof.note_cidi_outcome(event, pc, true),
            Some(false) => self.stats.branch_prof.note_cidi_mechanism_repair(event, pc),
            None => {}
        }
        match verdict {
            Some(true) => {
                let ent = m.srsmt.get_mut(pr.srsmt_idx).unwrap();
                ent.confirmed = true;
                ent.synced = true;
            }
            Some(false) => {
                self.stats.validation_failures += 1;
                self.stats.valfail_reasons[3] += 1;
                self.obs
                    .trace(Subsystem::Vec, 0, self.cycle, || EventKind::Validate {
                        ok: false,
                        reason: "address_mismatch",
                    });
                self.teardown_srsmt(&mut m, pr.srsmt_idx, "probe_mismatch");
            }
            None => {}
        }
        self.mech = Some(m);
    }
}
