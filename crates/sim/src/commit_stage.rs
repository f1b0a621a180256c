//! In-order commit: store write-back + coherence check (§2.4.3), reuse
//! finalisation with an architectural verify, predictor training, and
//! the golden-model co-simulation check.

use crate::pipeline::Pipeline;
use crate::rob::{RobEntry, RobState};
use cfir_core::RenameExt;
use cfir_emu::MemImage;
use cfir_isa::{Inst, Program, NUM_LOGICAL_REGS};
use cfir_obs::{EventKind, Subsystem};

impl Pipeline<'_> {
    /// Architecturally-correct result of `e`, computed from committed
    /// state (exact: commit is in program order).
    fn arch_value_of(&self, e: &RobEntry) -> u64 {
        match e.inst {
            Inst::Alu { op, rs1, rs2, .. } => {
                op.eval(self.arch_regs[rs1 as usize], self.arch_regs[rs2 as usize])
            }
            Inst::AluImm { op, rs1, imm, .. } => op.eval(self.arch_regs[rs1 as usize], imm as u64),
            Inst::Fp { op, rs1, rs2, .. } => {
                op.eval(self.arch_regs[rs1 as usize], self.arch_regs[rs2 as usize])
            }
            Inst::Li { imm, .. } => imm as u64,
            Inst::Ld { base, offset, .. } => {
                let a = MemImage::align(self.arch_regs[base as usize].wrapping_add(offset as u64));
                self.mem.read(a)
            }
            _ => e.value,
        }
    }

    pub(crate) fn commit(&mut self) {
        let mut slots = self.cfg.commit_width;
        while slots > 0 {
            let Some(head) = self.rob.front() else { break };
            if head.state != RobState::Done {
                break;
            }
            let is_store = head.inst.is_store();
            if is_store {
                if self.res.dports == 0 {
                    break; // stores write the D-cache through a port
                }
                // §2.4.3: with the mechanism, at most 2 stores commit
                // per cycle (range-check bandwidth).
                if self.mech.is_some() && self.res.stores_committed >= 2 {
                    break;
                }
            }
            let mut e = self.rob.pop_front().unwrap();
            let mut flush_after = false;

            // --- Reuse finalisation (architectural verify) ---
            if let Some(r) = e.reuse {
                let correct = self.arch_value_of(&e);
                // Dataflow oracle: a reused value surviving to commit
                // unchanged is a definitive "clean" outcome for the
                // static CIDI verdict. A repair is dataflow evidence
                // only when the instance pairing is still provably
                // sound here: squash-reuse pairs the same dynamic
                // instance by FIFO construction (no SRSMT entry), and
                // an SRSMT reuse is sound only if its entry is live
                // with a matching generation and a completed replica
                // slot. A repair with broken pairing (stale
                // generation, torn-down entry, incomplete replica)
                // says nothing about cross-path dataflow and is
                // recorded as a mechanism repair instead.
                if correct == r.value {
                    self.stats
                        .branch_prof
                        .note_cidi_outcome(r.event, e.pc, true);
                } else {
                    // Two mechanism fingerprints are excluded even
                    // when the entry is live: a reuse that delivered
                    // something other than what its replica slot
                    // computed (pending slot grabbed before the value
                    // landed — unfaithful delivery), and instance
                    // skew, where an intervening squash offset the
                    // architectural stream so the correct value sits
                    // in a *different* replica slot of the same
                    // entry. Neither says an arm definition reached
                    // the input.
                    let sound = match r.srsmt_idx {
                        None => true,
                        Some(idx) => self
                            .mech
                            .as_ref()
                            .and_then(|m| m.srsmt.get(idx))
                            .is_some_and(|ent| {
                                ent.gen == r.gen
                                    && r.replica < ent.head
                                    && ent.is_complete(r.replica)
                                    && ent.value_of(r.replica) == r.value
                                    && !(0..ent.head).any(|k| {
                                        k != r.replica
                                            && ent.is_complete(k)
                                            && ent.value_of(k) == correct
                                    })
                            }),
                    };
                    if sound {
                        self.stats
                            .branch_prof
                            .note_cidi_outcome(r.event, e.pc, false);
                    } else {
                        self.stats
                            .branch_prof
                            .note_cidi_mechanism_repair(r.event, e.pc);
                    }
                }
                if correct == r.value {
                    self.stats.committed_reuse += 1;
                    // Scorecard: this reuse skipped one execution; the
                    // cycles saved are the FU latency it avoided (loads:
                    // the L1 hit the replica already paid for it).
                    let saved =
                        e.inst
                            .class()
                            .latency()
                            .unwrap_or(self.cfg.hierarchy.l1_hit) as u64;
                    self.stats.branch_prof.note_reuse_commit(r.event, saved);
                    if let Some(ev) = r.event {
                        self.stats.events.mark_reused(ev);
                    }
                    // Attribute the reuse to the most recent
                    // misprediction as well: its recovery is the one
                    // this precomputed value survived.
                    self.stats.events.mark_reused_current();
                    if let Some(idx) = r.srsmt_idx {
                        self.finish_reuse_commit(&e, idx, r.gen);
                    }
                } else {
                    // The decode-time checks let a wrong value through;
                    // repair architecturally and flush the poisoned
                    // pipeline (counts as mis-speculation recovery).
                    self.stats.commit_check_failures += 1;
                    self.obs.trace(Subsystem::Commit, e.pc as u64, self.cycle, || {
                        let entdbg = r
                            .srsmt_idx
                            .and_then(|i| self.mech.as_ref().unwrap().srsmt.get(i))
                            .map(|ent| {
                                format!(
                                    "ent pc={:#x} gen={} dec={} com={} head={} seq1={:?} seq2={:?} vals={:?}",
                                    ent.pc, ent.gen, ent.decode, ent.commit, ent.head,
                                    ent.seq1, ent.seq2, &ent.values[..4]
                                )
                            })
                            .unwrap_or_default();
                        let true_addr = if let Inst::Ld { base, offset, .. } = e.inst {
                            Some(MemImage::align(
                                self.arch_regs[base as usize].wrapping_add(offset as u64),
                            ))
                        } else {
                            None
                        };
                        EventKind::Note {
                            msg: format!(
                                "commitfail seq={} inst={} got={:#x} want={:#x} true_addr={:x?} e.addr={:x?} replica={} gen={} pending_was={} | {}",
                                e.seq, e.inst, r.value, correct, true_addr, e.addr, r.replica,
                                r.gen, r.pending, entdbg
                            ),
                        }
                    });
                    e.value = correct;
                    if let Some(p) = e.new_phys {
                        self.rf.force_ready(p, correct);
                    }
                    if let Some(idx) = r.srsmt_idx {
                        let mut m = self.mech.take().unwrap();
                        self.teardown_srsmt(&mut m, idx, "commit_repair");
                        // Confidence: repeated commit-time repairs
                        // blacklist the PC from re-vectorization.
                        m.bump_misspec(Program::byte_pc(e.pc));
                        self.mech = Some(m);
                    }
                    flush_after = true;
                }
            }

            // Probes consumed a slot; verify the entry's alignment
            // against this architecturally-final result (confirming the
            // entry or tearing it down), then release the slot like a
            // verified reuse would (without the value benefit).
            if let Some(pr) = e.probe {
                self.finish_reuse_commit_probe(pr);
            }

            // --- Per-kind architectural action ---
            match e.inst {
                Inst::St { src, base, offset } => {
                    let addr =
                        MemImage::align(self.arch_regs[base as usize].wrapping_add(offset as u64));
                    let value = self.arch_regs[src as usize];
                    debug_assert_eq!(Some(addr), e.addr, "store address diverged");
                    debug_assert_eq!(value, e.value, "store data diverged");
                    self.mem.write(addr, value);
                    let _ = self.hier.access_data(addr, true);
                    self.stats.l1d_accesses += 1;
                    self.res.dports -= 1;
                    self.res.stores_committed += 1;
                    self.stats.stores += 1;
                    if self.mech.is_some() {
                        // §2.4.3: an additional cycle per committed store
                        // is modelled as one extra commit slot.
                        slots = slots.saturating_sub(1);
                        // Coherence: kill speculative loads covering addr.
                        let mut m = self.mech.take().unwrap();
                        let hits = m.srsmt.store_check(addr);
                        if !hits.is_empty() {
                            self.stats.store_conflicts += hits.len() as u64;
                            for idx in hits {
                                self.teardown_srsmt(&mut m, idx, "store_conflict");
                            }
                            flush_after = true;
                        }
                        self.mech = Some(m);
                    }
                }
                Inst::Br { .. } => {
                    self.stats.branches += 1;
                    self.stats
                        .branch_prof
                        .note_branch(e.pc, e.actual_target != e.pred_target);
                    self.arch_ghist =
                        ((self.arch_ghist << 1) | e.actual_taken as u64) & ((1u64 << 16) - 1);
                    self.gshare
                        .train(Program::byte_pc(e.pc), e.ghist, e.actual_taken);
                    if let Some(m) = &mut self.mech {
                        m.mbs.observe(Program::byte_pc(e.pc), e.actual_taken);
                    }
                    if e.actual_target != e.pred_target {
                        self.stats.mispredicts += 1;
                    }
                }
                Inst::Ld { base, offset, .. } => {
                    self.stats.loads += 1;
                    // The stride predictor trains at commit: in-order,
                    // architectural, immune to wrong-path pollution
                    // (SimpleScalar trains its predictors the same way).
                    if let Some(m) = &mut self.mech {
                        let a = MemImage::align(
                            self.arch_regs[base as usize].wrapping_add(offset as u64),
                        );
                        m.stride.observe(Program::byte_pc(e.pc), a);
                    }
                }
                _ => {}
            }

            // --- Architectural state update ---
            if let Some(d) = e.ldest {
                self.arch_regs[d as usize] = e.value;
                self.arch_map[d as usize] = e.new_phys.expect("dest without phys");
            }
            if let Some(old) = e.old_phys {
                self.rf.free(old);
            }
            self.arch_pc = if e.inst.is_control() {
                e.actual_target
            } else if matches!(e.inst, Inst::Halt) {
                e.pc
            } else {
                e.pc + 1
            };
            if e.in_lsq {
                self.lsq.pop_committed(e.seq);
            }
            if e.is_cond_branch() {
                if let Some(m) = &mut self.mech {
                    m.nrbq.retire_through(e.seq);
                }
            }

            self.obs.commit(&e, self.cycle);

            // --- Golden-model check ---
            self.cosim_check(&e);

            self.last_committed_seq = e.seq;
            if let Some(fc) = self.last_flush_cycle.take() {
                self.stats.h_flush_recovery.record(self.cycle - fc);
            }
            self.stats.committed += 1;
            // The mis-speculation blacklist ages: bootstrap-phase
            // failures should not bar a PC forever, only chronic ones.
            if self.stats.committed.is_multiple_of(32_768) {
                if let Some(m) = &mut self.mech {
                    m.age_misspec();
                }
            }
            slots = slots.saturating_sub(1);

            if matches!(e.inst, Inst::Halt) {
                self.halted = true;
                return;
            }
            if flush_after {
                self.full_flush(self.arch_pc);
                return;
            }
        }
    }

    /// Probe variant of [`Pipeline::finish_reuse_commit`].
    fn finish_reuse_commit_probe(&mut self, pr: crate::rob::ProbeInfo) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        let matches_entry = m
            .srsmt
            .get(pr.srsmt_idx)
            .map(|ent| ent.gen == pr.gen && ent.commit < ent.decode)
            .unwrap_or(false);
        if matches_entry {
            let ent = m.srsmt.get_mut(pr.srsmt_idx).unwrap();
            let storage = ent.advance_commit();
            if let Some(sm) = &mut m.specmem {
                sm.release(storage.0);
            } else {
                self.rf.free(storage.0);
            }
        }
        self.mech = Some(m);
    }

    /// Advance the SRSMT `commit` pointer for a verified reuse and free
    /// the consumed replica's storage.
    fn finish_reuse_commit(&mut self, e: &RobEntry, idx: usize, gen: u32) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        let matches_entry = m
            .srsmt
            .get(idx)
            .map(|ent| ent.pc == Program::byte_pc(e.pc) && ent.gen == gen)
            .unwrap_or(false);
        if matches_entry {
            let ent = m.srsmt.get_mut(idx).unwrap();
            if ent.commit < ent.decode {
                let storage = ent.advance_commit();
                if let Some(sm) = &mut m.specmem {
                    sm.release(storage.0);
                } else {
                    self.rf.free(storage.0);
                }
            }
        }
        self.mech = Some(m);
    }

    /// Flush the whole speculative pipeline and restart fetch at
    /// `resume_pc` with the committed architectural state. Used by the
    /// store-coherence squash (§2.4.3) and the commit-time validation
    /// repair. Replicas are *not* squashed (§2.4.4).
    pub(crate) fn full_flush(&mut self, resume_pc: u32) {
        let squashed = self.squash_window(0);
        self.lsq.clear();
        self.obs
            .trace(Subsystem::Flush, resume_pc as u64, self.cycle, || {
                EventKind::RepairFlush {
                    resume_pc: resume_pc as u64,
                    squashed,
                }
            });
        self.rmap = self.arch_map;
        self.ext = [RenameExt::new(); NUM_LOGICAL_REGS];
        // Resume with the committed branch history so the predictor's
        // speculative state matches the restart point.
        self.gshare.restore_history(self.arch_ghist);
        if let Some(mut m) = self.mech.take() {
            m.nrbq.clear();
            m.crp.deactivate();
            m.clear_squash_buf();
            // Entries created by any squashed (uncommitted) instruction
            // lose their instance alignment.
            let last_committed = self.last_committed_seq;
            self.teardown_created_after(&mut m, last_committed);
            // A full flush is a recovery action: decode <- commit (all
            // in-flight validations died with the window) + DAEC tick.
            let released = m.srsmt.recovery();
            for ent in released {
                for (id, _g) in ent.unconsumed_storage() {
                    if let Some(sm) = &mut m.specmem {
                        sm.release(id);
                    } else {
                        self.rf.free(id);
                    }
                }
                self.reap_replicas(|r| r.pc == ent.pc && r.gen == ent.gen);
            }
            self.mech = Some(m);
        }
        self.fetch_pc = resume_pc;
        self.fetch_halted = false;
        self.fetch_wait_until = self.cycle + 1;
        // Perfect-branch-prediction oracle: rebuild it from committed
        // architectural state so it stays in step with the new fetch
        // stream (flushes are rare; the memory clone is acceptable).
        if let Some(oracle) = &mut self.oracle {
            oracle.regs = self.arch_regs;
            oracle.pc = resume_pc;
            oracle.mem = self.mem.clone();
            oracle.halted = false;
        }
    }

    /// Lock-step golden-model comparison at commit.
    fn cosim_check(&mut self, e: &RobEntry) {
        let Some(mut emu) = self.emu.take() else {
            return;
        };
        let r = emu
            .step(self.prog)
            .unwrap_or_else(|| panic!("golden model stopped before pc {}", e.pc));
        assert_eq!(
            r.pc, e.pc,
            "cosim: committed pc {} but golden model executed pc {} (cycle {})",
            e.pc, r.pc, self.cycle
        );
        if let Some((d, v)) = r.wrote {
            let got = self.arch_regs[d as usize];
            assert_eq!(
                got,
                v,
                "cosim: pc {} wrote r{d}={got:#x}, golden model says {v:#x} (cycle {}, reuse={})",
                e.pc,
                self.cycle,
                e.reuse.is_some()
            );
        }
        if e.inst.is_store() {
            assert_eq!(
                r.addr, e.addr,
                "cosim: store address mismatch at pc {}",
                e.pc
            );
            // Both models have applied the store by this point (the
            // architectural action precedes the check), so the touched
            // word itself must agree — this catches a wrong store
            // *value* that a matching address would hide.
            if let Some(a) = r.addr {
                assert_eq!(
                    self.mem.read(a),
                    emu.mem.read(a),
                    "cosim: stored value mismatch at pc {} addr {a:#x} (cycle {})",
                    e.pc,
                    self.cycle
                );
            }
        }
        if e.inst.is_control() {
            assert_eq!(
                r.next_pc, e.actual_target,
                "cosim: control target mismatch at pc {}",
                e.pc
            );
        }
        self.emu = Some(emu);
    }
}
