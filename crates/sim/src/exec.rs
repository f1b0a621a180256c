//! Issue, writeback and misprediction recovery.

use crate::mech::Slot;
use crate::pipeline::Pipeline;
use crate::rob::{RobState, Use, Validation};
use crate::vec_engine::ValFail;
use cfir_isa::{FuClass, Inst};
use cfir_obs::{EventKind, Subsystem, WaitDetail, WaitEdgeKind};

/// Outstanding L1D misses (16).
pub const MSHRS: usize = 16;
/// Loads served by one wide-bus access (4, §2.4.5).
const WIDE_LOADS_PER_ACCESS: u32 = 4;

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
            FuClass::IntAlu | FuClass::Store => &mut self.res.int_alus,
            FuClass::IntMul | FuClass::IntDiv => &mut self.res.int_muldivs,
            FuClass::FpAlu => &mut self.res.fp_alus,
            FuClass::FpMul | FuClass::FpDiv => &mut self.res.fp_muldivs,
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
    /// the wide bus, up to [`WIDE_LOADS_PER_ACCESS`] loads share one
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
                    .push((line, WIDE_LOADS_PER_ACCESS - 1, lat));
            }
            return Some(lat);
        }
        if self.outstanding_misses.len() >= MSHRS && !self.hier.l1d.probe(addr) {
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
                .push((line, WIDE_LOADS_PER_ACCESS - 1, lat));
        }
        Some(lat)
    }

    /// Which hierarchy level served a data access of latency `lat`, as
    /// the lifecycle cache-miss wait-edge detail; `None` for an L1 hit.
    pub(crate) fn miss_level(&self, lat: u32) -> Option<WaitDetail> {
        let h = &self.cfg.hierarchy;
        if lat <= h.l1_hit {
            None
        } else if lat <= h.l2_hit {
            Some(WaitDetail::L2)
        } else if lat <= h.l3_hit {
            Some(WaitDetail::L3)
        } else {
            Some(WaitDetail::Mem)
        }
    }

    // ----------------------------------------------------------------
    // Issue
    // ----------------------------------------------------------------

    /// Oldest-first select over the window's issuable entries:
    /// `Dispatched` with every source ready, as register wakeup keeps
    /// them, so entries still waiting for an operand are never visited
    /// and the selection is that of a scan of the whole window.
    pub(crate) fn issue(&mut self) {
        let mut walk = self.rob.walk_issuable();
        while let Some(i) = self.rob.next_issuable(&mut walk) {
            if self.res.issue == 0 {
                break;
            }
            let srcs = self.rob[i].src_phys;
            debug_assert!(srcs.iter().flatten().all(|&p| self.rf.is_ready(p)));
            let inst = self.rob[i].inst;
            let v1 = srcs[0].map(|p| self.rf.read(p)).unwrap_or(0);
            let v2 = srcs[1].map(|p| self.rf.read(p)).unwrap_or(0);

            match inst {
                Inst::Ld { offset, .. } => {
                    let addr = cfir_emu::MemImage::align(v1.wrapping_add(offset as u64));
                    let seq = self.rob[i].seq;
                    self.lsq.set_addr(seq, addr);
                    match self.lsq.search_for_load(seq, addr) {
                        crate::lsq::LoadSearch::Stall(store) => {
                            self.obs.wait_edge(
                                self.rob[i].lid,
                                WaitEdgeKind::StoreDisambiguation,
                                || Some(store),
                                WaitDetail::None,
                                self.cycle,
                            );
                            continue;
                        }
                        crate::lsq::LoadSearch::Forwarded(v) => {
                            self.stats.h_load_to_use.record(1);
                            let e = &mut self.rob[i];
                            e.addr = Some(addr);
                            e.value = v;
                            self.rob.set_state(i, RobState::Executing, self.cycle + 1);
                        }
                        crate::lsq::LoadSearch::CacheAccess => {
                            let Some(lat) = self.arbitrate_load(addr) else {
                                let lid = self.rob[i].lid;
                                self.obs.wait_edge(
                                    lid,
                                    WaitEdgeKind::Port,
                                    || None,
                                    WaitDetail::DPorts,
                                    self.cycle,
                                );
                                continue;
                            };
                            let v = self.mem.read(addr);
                            self.stats.h_load_to_use.record(lat as u64);
                            let level = self.miss_level(lat);
                            let e = &mut self.rob[i];
                            e.addr = Some(addr);
                            e.value = v;
                            e.dcache_miss = level.is_some();
                            let lid = e.lid;
                            self.rob
                                .set_state(i, RobState::Executing, self.cycle + lat as u64);
                            if let Some(level) = level {
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
                    self.rob.set_state(i, RobState::Executing, self.cycle + 1);
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
                    self.rob.set_state(i, RobState::Executing, self.cycle + 1);
                    self.res.issue -= 1;
                }
                Inst::Jr { .. } => {
                    if !self.take_fu(FuClass::IntAlu) {
                        continue;
                    }
                    let e = &mut self.rob[i];
                    e.actual_taken = true;
                    e.actual_target = v1 as u32;
                    self.rob.set_state(i, RobState::Executing, self.cycle + 1);
                    self.res.issue -= 1;
                }
                Inst::Alu { .. } | Inst::AluImm { .. } | Inst::Fp { .. } => {
                    let class = inst.class();
                    if !self.take_fu(class) {
                        continue;
                    }
                    self.rob[i].value = alu_result(inst, v1, v2).expect("an ALU-class instruction");
                    let done_at =
                        self.cycle + class.latency().expect("ALU classes have a latency") as u64;
                    self.rob.set_state(i, RobState::Executing, done_at);
                    self.res.issue -= 1;
                }
                Inst::Li { imm, .. } => {
                    if !self.take_fu(FuClass::IntAlu) {
                        continue;
                    }
                    self.rob[i].value = imm as u64;
                    self.rob.set_state(i, RobState::Executing, self.cycle + 1);
                    self.res.issue -= 1;
                }
                Inst::Nop | Inst::Halt | Inst::Jmp { .. } => {
                    // Completed at dispatch; nothing to issue.
                }
            }
            // Was `Dispatched` at the top of the iteration (all the
            // resource-fail paths `continue` before this), so a state
            // change means the instruction issued this cycle.
            if self.rob[i].state() == RobState::Executing {
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
        // Complete scalar instructions: those the completion calendar
        // has due by now, in window order.
        let due = self.rob.take_due(self.cycle);
        #[cfg(debug_assertions)]
        self.rob.check_due(self.cycle, &due);
        let mut mispredicted: Option<usize> = None;
        for &i in &due {
            self.rob.set_state(i, RobState::Done, 0);
            self.obs.complete(self.rob[i].lid, self.cycle);
            if let Some(Validation {
                slot: Some(slot),
                kind: Use::Probe { checked },
                ..
            }) = &mut self.rob[i].validation
            {
                if !*checked {
                    *checked = true;
                    let slot = *slot;
                    let e = &self.rob[i];
                    let (pc, value, addr, is_load) = (e.pc, e.value, e.addr, e.inst.is_load());
                    self.verify_probe(slot, pc, value, addr, is_load);
                }
            }
            if let Some(p) = self.rob[i].new_phys {
                // Reused entries already wrote their value (monolithic)
                // or write here (spec-mem copy completion).
                let v = self.rob[i].value;
                if !self.rf.is_ready(p) {
                    self.write_dest(p, v);
                }
                let seq = self.rob[i].seq;
                self.notify_seed(seq, v);
            }
            let inst = self.rob[i].inst;
            if matches!(inst, Inst::Br { .. } | Inst::Jr { .. }) {
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
        self.rob.recycle_due(due);
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
    /// the whole decode queue, and restart fetch at `resume_pc`: the one
    /// squash routine of both recovery paths ([`recover`](Self::recover)
    /// and [`full_flush`](Self::full_flush)). The window goes youngest
    /// first, freeing each destination register, undoing its rename
    /// (`rmap` and `ext` of the destination back to the entry's
    /// `old_phys`/`old_ext`), closing its lifecycle record and killing
    /// any self-loop entry it was to seed; then the decode queue, oldest
    /// first; then the LSQ entries of everything squashed. Marks the
    /// cycle as flushed and returns the number squashed.
    pub(crate) fn squash_window(&mut self, keep: usize, resume_pc: u32) -> u64 {
        let mut squashed = 0u64;
        while self.rob.len() > keep {
            let e = self.rob.pop_back().unwrap();
            if let (Some(d), Some(p), Some(old)) = (e.ldest, e.new_phys, e.old_phys) {
                self.rf.free(p);
                self.rmap[d as usize] = old;
                self.ext[d as usize] = e.old_ext;
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
        let last_kept = self.rob.back().map_or(self.last_committed_seq, |e| e.seq);
        self.lsq.squash_younger(last_kept);
        self.fetch_pc = resume_pc;
        self.fetch_halted = false;
        self.fetch_wait_until = self.cycle + 1;
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

        // Mechanism: event + CRP activation + SRSMT recovery.
        self.mech_on_mispredict(i, bseq, bpc, is_cond);

        // Squash younger instructions, undoing their renames.
        let squashed = self.squash_window(i + 1, actual_target);
        debug_assert_eq!(self.rob.back().map(|e| e.seq), Some(bseq));

        // Restart the speculative history at the branch, with its
        // resolved direction.
        self.gshare.restore_history(self.rob[i].ghist);
        if is_cond {
            self.gshare.push(actual_taken);
        }

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
        // Walk the window's pending list oldest first. Each step either
        // leaves entry `i` waiting (`k` moves on) or moves it out of the
        // pending state, which removes it from the list.
        let mut k = 0;
        while let Some(i) = self.rob.pending(k) {
            let Some(Slot {
                way: idx,
                gen,
                k: replica,
            }) = self.rob[i].consumed_slot()
            else {
                k += 1;
                continue;
            };
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
                match m.srsmt.get_gen(idx, gen) {
                    Some(ent) if replica < ent.head => {
                        if ent.is_dead(replica) || replica < ent.commit {
                            Poll::Fallback
                        } else if ent.is_complete(replica) {
                            let addr = if self.rob[i].inst.is_load() {
                                Some(ent.addr_of(replica))
                            } else {
                                None
                            };
                            // Independent cross-check: if the load's own
                            // base register has become ready, the replica
                            // must hold this instance's exact address.
                            let e = &self.rob[i];
                            let exact = self.exact_load_addr(e.inst, e.src_phys[0]);
                            match (exact, addr) {
                                (Some(x), Some(a)) if x != a => Poll::Mismatch,
                                _ => Poll::Deliver(ent.value_of(replica), addr),
                            }
                        } else if self.cycle.saturating_sub(self.rob[i].done_at()) > 64 {
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
                Poll::Wait => k += 1,
                Poll::Fallback | Poll::Mismatch => {
                    // Execute normally, but keep owning the consumed
                    // slot as a probe so the entry's instance accounting
                    // stays exact (recount/commit still see it). No
                    // check: the slot came from a real validation.
                    let e = &mut self.rob[i];
                    if let Some(v) = &mut e.validation {
                        v.kind = Use::Probe { checked: true };
                    }
                    let lid = e.lid;
                    self.rob.redispatch(i, &self.rf);
                    self.obs.reused(lid, false);
                    if poll == Poll::Mismatch {
                        // The verdict came from the live entry at `idx`
                        // (`get_gen` above), and nothing since has
                        // touched the SRSMT.
                        self.mech
                            .as_mut()
                            .expect("a pending reuse implies the mechanism")
                            .mark_desynced(idx, false);
                    }
                }
                Poll::Deliver(value, addr) => {
                    let waited = self.cycle.saturating_sub(self.rob[i].done_at());
                    self.stats.h_reuse_wait.record(waited);
                    self.obs
                        .trace(Subsystem::Vec, self.rob[i].pc as u64, self.cycle, || {
                            EventKind::Reuse { value, waited }
                        });
                    self.deliver_reuse_value(i, value);
                    if let Some(a) = addr {
                        self.rob[i].addr = Some(a);
                        self.lsq.set_addr(self.rob[i].seq, a);
                    }
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
        slot: Slot,
        pc: u32,
        value: u64,
        addr: Option<u64>,
        is_load: bool,
    ) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        let ent = m
            .srsmt
            .get_gen(slot.way, slot.gen)
            .filter(|ent| slot.k < ent.head);
        // Dataflow oracle: capture the CI event that owns the SRSMT
        // entry before any teardown below erases it.
        let event = ent.and_then(|ent| ent.event);
        let verdict = ent.and_then(|ent| {
            if is_load {
                // Address comparison works even if the replica has not
                // completed (strided addresses are fixed at creation).
                match ent.kind {
                    cfir_core::srsmt::VecKind::Load { .. } => {
                        Some(addr == Some(ent.addr_of(slot.k)))
                    }
                    cfir_core::srsmt::VecKind::Op => {
                        if ent.is_complete(slot.k) {
                            Some(addr == Some(ent.addr_of(slot.k)))
                        } else {
                            None // cannot verify: leave unconfirmed
                        }
                    }
                }
            } else if ent.is_complete(slot.k) {
                Some(value == ent.value_of(slot.k))
            } else {
                None
            }
        });
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
            Some(true) => m.mark_aligned(slot.way, true),
            Some(false) => {
                self.reject(
                    &mut m,
                    slot.way,
                    ValFail::AddressMismatch,
                    0,
                    "probe_mismatch",
                );
            }
            None => {}
        }
        self.mech = Some(m);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Mode, SimConfig};
    use crate::mech::Slot;
    use crate::pipeline::Pipeline;
    use crate::rob::{RobEntry, RobState, Use, Validation};
    use cfir_core::srsmt::{AllocOutcome, SeqId, SrsmtEntry, VecKind};
    use cfir_emu::MemImage;
    use cfir_isa::{assemble, Inst};

    #[test]
    fn a_pending_validation_whose_replica_died_probes_its_slot() {
        let p = assemble("t", "li r1, 1\nhalt").unwrap();
        let cfg = SimConfig::paper_baseline().with_mode(Mode::Ci);
        let mut pipe = Pipeline::new(&p, MemImage::new(), cfg);
        // A live entry whose one replica died after a validation
        // consumed its slot.
        let m = pipe.mech.as_mut().unwrap();
        let mut ent = SrsmtEntry::new(0, Inst::Nop, VecKind::Op, 4, SeqId::None, SeqId::None);
        ent.grow(100);
        ent.advance_decode();
        ent.kill_replica(0);
        let AllocOutcome::Placed { idx, .. } = m.srsmt.alloc(ent) else {
            panic!("an empty table places the entry");
        };
        let slot = Slot {
            way: idx,
            gen: m.srsmt.get(idx).unwrap().gen,
            k: 0,
        };
        let mut e = RobEntry::new(1, 0, Inst::Nop);
        e.validation = Some(Validation {
            slot: Some(slot),
            event: None,
            kind: Use::Take { pending: true },
        });
        pipe.rob.push(e, &pipe.rf);
        pipe.rob.set_state(0, RobState::Executing, 0);
        assert_eq!(pipe.rob.pending(0), Some(0));

        pipe.poll_pending_reuses();
        // It executes normally, but keeps its slot, now as a probe.
        let e = &pipe.rob[0];
        assert_eq!(e.state(), RobState::Dispatched);
        assert!(!e.reuses());
        assert_eq!(e.consumed_slot(), Some(slot));
        assert_eq!(e.validation.unwrap().kind, Use::Probe { checked: true });
        assert_eq!(pipe.rob.pending(0), None);
    }
}
