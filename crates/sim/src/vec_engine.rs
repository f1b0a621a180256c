//! Mechanism integration: decode hooks (CI detection, validation,
//! vectorization), the replica engine, squash-reuse harvesting and the
//! misprediction-side bookkeeping.

use crate::config::Mode;
use crate::exec::alu_result;
use crate::mech::{Mech, RepState, Replica, Slot, SquashReuse};
use crate::pipeline::Pipeline;
use crate::regfile::PhysId;
use crate::rob::{RobEntry, RobState, Use, Validation};
use cfir_core::srsmt::{AllocOutcome, SeqId, SrsmtEntry, StorageId, VecKind};
use cfir_isa::{Inst, Program};
use cfir_obs::{EventKind, Subsystem, WaitEdgeKind};
use std::collections::BTreeMap;

/// Why a validation failed (§2.3.4's taxonomy). The discriminant
/// indexes `SimStats::valfail_reasons`; the label is both the snapshot
/// key and the `Validate` trace reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValFail {
    /// The entry replicates another instruction (PC aliasing), or is gone.
    InstMismatch,
    /// No pre-executed instance is available.
    ReplicaNotReady,
    /// A load's stride is no longer trusted, or changed.
    StrideUntrusted,
    /// The instance's address contradicts the replica's.
    AddressMismatch,
    /// A source operand's producer no longer matches the entry.
    SeqMismatch,
}

impl ValFail {
    /// Every reason, in `valfail_reasons` order.
    pub(crate) const ALL: [ValFail; 5] = [
        ValFail::InstMismatch,
        ValFail::ReplicaNotReady,
        ValFail::StrideUntrusted,
        ValFail::AddressMismatch,
        ValFail::SeqMismatch,
    ];

    pub(crate) fn label(self) -> &'static str {
        match self {
            ValFail::InstMismatch => "inst_mismatch",
            ValFail::ReplicaNotReady => "replica_not_ready",
            ValFail::StrideUntrusted => "stride_untrusted",
            ValFail::AddressMismatch => "address_mismatch",
            ValFail::SeqMismatch => "seq_mismatch",
        }
    }
}

impl Pipeline<'_> {
    /// Address the *next dispatched* instance of the load at `pc` will
    /// access, from the window alone: the youngest in-flight instance
    /// whose address has already been computed, advanced one stride
    /// per younger in-flight instance. `Err` carries the number of
    /// in-flight instances when none has an address yet.
    fn window_frontier_addr(&self, pc: u32, stride: i64) -> Result<u64, u64> {
        let mut younger = 0u64;
        for e in self.rob.iter().rev() {
            if e.pc != pc {
                continue;
            }
            if let Some(a) = e.addr {
                return Ok(a.wrapping_add((stride as u64).wrapping_mul(younger + 1)));
            }
            younger += 1;
        }
        Err(younger)
    }

    /// [`window_frontier_addr`](Self::window_frontier_addr), falling
    /// back to the commit-anchored stride-predictor estimate.
    pub(crate) fn frontier_addr(&self, m: &Mech, pc: u32, stride: i64) -> Option<u64> {
        let younger = match self.window_frontier_addr(pc, stride) {
            Ok(a) => return Some(a),
            Err(younger) => younger,
        };
        let bpc = Program::byte_pc(pc);
        m.stride.lookup(bpc).and_then(|se| {
            if se.trusted() && se.stride == stride {
                Some(se.predict(younger + 1))
            } else {
                None
            }
        })
    }

    /// The exact address of `inst` when it is a load whose base
    /// register, physical register `base`, is ready.
    pub(crate) fn exact_load_addr(&self, inst: Inst, base: Option<PhysId>) -> Option<u64> {
        match (inst, base) {
            (Inst::Ld { offset, .. }, Some(p)) if self.rf.is_ready(p) => Some(
                cfir_emu::MemImage::align(self.rf.read(p).wrapping_add(offset as u64)),
            ),
            _ => None,
        }
    }

    // ----------------------------------------------------------------
    // Decode hooks
    // ----------------------------------------------------------------

    /// Runs at dispatch for every instruction, in program order. Sets
    /// `e.validation` when a validation succeeds, and with a value to
    /// take, `e.value` (the instruction then does not execute).
    pub(crate) fn mech_decode(&mut self, e: &mut RobEntry) {
        if let Some(mut m) = self.mech.take() {
            self.mech_decode_inner(&mut m, e);
            self.mech = Some(m);
        }
    }

    fn mech_decode_inner(&mut self, m: &mut Mech, e: &mut RobEntry) {
        let mode = self.cfg.mode;
        let is_ci = mode.selects_ci() && self.select_ci(m, e.pc, e.inst);

        // --- ci-iw: squash-reuse buffer lookup ---
        if mode == Mode::CiIw {
            if is_ci {
                if let Some(sr) = m.squash_buf[e.pc as usize].pop_front() {
                    self.stats.squash_reuse_hits += 1;
                    e.value = sr.value;
                    e.validation = Some(Validation {
                        slot: None,
                        event: Some(sr.event),
                        kind: Use::Take { pending: false },
                    });
                }
            }
            return;
        }

        if !mode.vectorizes() {
            return;
        }
        let Some(idx) = m.srsmt.find(Program::byte_pc(e.pc)) else {
            return;
        };
        // Exact address of *this* dynamic load instance, when the base
        // register is already available (in steady reuse the whole
        // index chain is reused, so it usually is).
        let base = e.inst.sources()[0].map(|r| self.rmap[r as usize]);
        let exact_addr = self.exact_load_addr(e.inst, base);
        if self.align_entry(m, idx, e.pc, exact_addr) {
            self.validate(m, idx, e, exact_addr);
        }
    }

    /// CRP tracking (§2.3.2), ci and ci-iw modes: whether the
    /// instruction at `pc` is control independent of the last hard
    /// misprediction. In ci mode such an instruction also selects the
    /// strided loads in its backward slice for speculative
    /// vectorization (S flag).
    fn select_ci(&mut self, m: &mut Mech, pc: u32, inst: Inst) -> bool {
        let reached = m.crp.on_fetch(pc);
        let is_ci = reached
            && !inst.is_control()
            && inst.dest().is_some()
            && m.crp.is_control_independent(inst.sources());
        if is_ci {
            self.stats.branch_prof.mark_selected(m.crp.event);
            if self.cfg.mode == Mode::Ci {
                for s in inst.sources().iter().flatten() {
                    for &lp in self.ext[*s as usize].strided_pcs() {
                        if m.stride.is_strided(lp) && m.stride.set_selected(lp, true) {
                            m.set_sel_event(lp, m.crp.event);
                        }
                    }
                }
                // A strided load that is itself control independent
                // selects itself.
                let bpc = Program::byte_pc(pc);
                if inst.is_load() && m.stride.is_strided(bpc) {
                    m.stride.set_selected(bpc, true);
                    m.set_sel_event(bpc, m.crp.event);
                }
            }
        }
        if let Some(d) = inst.dest() {
            m.crp.on_dest_write(d, is_ci);
        }
        is_ci
    }

    /// Keep the entry at `idx` in step with the dynamic instruction
    /// stream before the instance of `pc` validates against it; returns
    /// whether validation may go ahead. On a soft miss (no pre-executed
    /// instance available right now: the window ran ahead of the
    /// replica engine) the instance executes normally. A desynced load
    /// entry may only validate against alignment evidence, either at
    /// the current slot or by skipping ahead to the matching instance.
    fn align_entry(&mut self, m: &mut Mech, idx: usize, pc: u32, exact_addr: Option<u64>) -> bool {
        let ent = m.srsmt.get(idx).expect("a found way holds an entry");
        let load_stride = match ent.kind {
            VecKind::Load { stride, .. } => Some(stride),
            VecKind::Op => None,
        };
        if ent.decode >= ent.head {
            match load_stride {
                // The numbering is no longer in step; re-align on
                // (estimate or exact) evidence at a later instance.
                Some(_) => m.mark_desynced(idx, false),
                // Dependent entries have no address evidence to
                // re-align with: tear down and re-vectorize.
                None => self.teardown_srsmt(m, idx, "soft_miss"),
            }
            return false;
        }
        let Some(stride) = load_stride else {
            return true;
        };
        let cur = ent.next_slot().map(|k| ent.addr_of(k));
        if ent.synced {
            if exact_addr.is_some() && cur != exact_addr {
                // Synced count contradicted by exact evidence:
                // desynchronise and retry the alignment next time.
                m.mark_desynced(idx, true);
                return false;
            }
            return true;
        }
        // Alignment evidence: the exact address when the base register
        // is ready, else the commit-anchored estimate (last committed
        // address plus one stride per in-flight instance of this load —
        // exact along a single path).
        let Some(exp) = exact_addr.or_else(|| self.frontier_addr(m, pc, stride)) else {
            return false; // cannot prove alignment: execute normally
        };
        if cur == Some(exp) {
            self.obs
                .trace(Subsystem::Vec, pc as u64, self.cycle, || EventKind::Note {
                    msg: format!("sync-accept exp={exp:#x}"),
                });
        } else {
            // Search ahead for the matching instance.
            let skip_to = if ent.decode == ent.commit {
                (ent.decode + 1..ent.head).find(|&k| !ent.is_dead(k) && ent.addr_of(k) == exp)
            } else {
                None
            };
            let (from, gen, bpc) = (ent.decode, ent.gen, ent.pc);
            let Some(k) = skip_to else {
                // The evidence contradicts every live instance: stale
                // addresses.
                self.reject(m, idx, ValFail::AddressMismatch, pc, "stale_addresses");
                return false;
            };
            let freed = m.srsmt.get_mut(idx).unwrap().skip_to(k);
            self.free_storage(m, &freed);
            self.reap_replicas(|r| r.slot.gen == gen && (from..k).contains(&r.slot.k));
            // The entries reading this one's instances are out of step.
            self.teardown_where(
                m,
                |c| {
                    [c.seq1, c.seq2]
                        .iter()
                        .any(|s| matches!(*s, SeqId::Vec { pc: p, .. } if p == bpc))
                },
                "producer_realigned",
            );
        }
        m.mark_aligned(idx, exact_addr == Some(exp));
        true
    }

    /// Validation (§2.3.4) of the instance `e` against the entry at
    /// `idx`. On success it consumes the entry's next instance: a
    /// confirmed entry delivers that instance's value, an unconfirmed
    /// one is probed. A failure is rejected, and `mech_vectorize`
    /// re-vectorizes the instruction with its new operands.
    fn validate(&mut self, m: &mut Mech, idx: usize, e: &mut RobEntry, exact_addr: Option<u64>) {
        let (pc, inst) = (e.pc, e.inst);
        let r = self.try_validate(m, idx, inst, exact_addr);
        self.obs.trace(Subsystem::Vec, pc as u64, self.cycle, || {
            let r = r.map_err(|why| why as usize);
            let msg = match m.srsmt.get(idx) {
                Some(ent) => format!(
                    "validate -> {r:?} dec={} com={} head={} synced={} exact={exact_addr:?} \
                     slotaddr={:?}",
                    ent.decode,
                    ent.commit,
                    ent.head,
                    ent.synced,
                    ent.next_slot().map(|k| ent.addr_of(k))
                ),
                None => format!("validate -> {r:?} (entry gone)"),
            };
            EventKind::Note { msg }
        });
        let replica = match r {
            Ok(replica) => replica,
            Err(why) => return self.reject(m, idx, why, pc, "validation_failure"),
        };
        let ent = m.srsmt.get_mut(idx).unwrap();
        ent.advance_decode();
        let slot = Some(Slot {
            way: idx,
            gen: ent.gen,
            k: replica,
        });
        let event = ent.event;
        self.stats.branch_prof.note_validation(event);
        let kind = if !ent.confirmed {
            // Probe: consume the slot but execute normally; the
            // alignment is verified at writeback against the real
            // result before any value may be delivered.
            self.obs
                .trace(Subsystem::Vec, pc as u64, self.cycle, || EventKind::Note {
                    msg: format!("probe k={replica} seq={}", e.seq),
                });
            Use::Probe { checked: false }
        } else {
            let pending = !ent.is_complete(replica);
            e.value = ent.value_of(replica);
            if inst.is_load() && !pending {
                e.addr = Some(ent.addr_of(replica));
            }
            self.obs.trace(Subsystem::Vec, pc as u64, self.cycle, || {
                EventKind::Validate {
                    ok: true,
                    reason: "ok",
                }
            });
            Use::Take { pending }
        };
        e.validation = Some(Validation { slot, event, kind });
    }

    /// Reject a failed validation (§2.3.4): count it under `why`, trace
    /// it at word PC `pc`, and deallocate the entry at `idx` (the
    /// teardown labelled `teardown`), so that the instruction
    /// re-vectorizes.
    pub(crate) fn reject(
        &mut self,
        m: &mut Mech,
        idx: usize,
        why: ValFail,
        pc: u32,
        teardown: &'static str,
    ) {
        self.stats.validation_failures += 1;
        self.stats.valfail_reasons[why as usize] += 1;
        self.obs.trace(Subsystem::Vec, pc as u64, self.cycle, || {
            EventKind::Validate {
                ok: false,
                reason: why.label(),
            }
        });
        self.teardown_srsmt(m, idx, teardown);
    }

    /// Vectorization triggers (§2.3.2 / §2.3.3). Runs *after* rename so
    /// a loop-carried self-dependence can be seeded from the creating
    /// instruction's destination register. `e.src_phys` holds the
    /// pre-rename source mappings.
    pub(crate) fn mech_vectorize(&mut self, e: &RobEntry) {
        if !self.cfg.mode.vectorizes() {
            return;
        }
        let Some(mut m) = self.mech.take() else {
            return;
        };
        let mode = self.cfg.mode;
        let pc = e.pc;
        let bpc = Program::byte_pc(pc);
        let inst = e.inst;
        if inst.is_load() {
            let base = inst.sources()[0].unwrap();
            if self.ext[base as usize].vs {
                // Load whose address depends on a vectorized producer:
                // replicate as a dependent op.
                if m.srsmt.find(bpc).is_none() {
                    self.vectorize_op(&mut m, bpc, e);
                }
            } else if let Some(se) = m.stride.lookup(bpc) {
                let gate = match mode {
                    Mode::Vect => true,
                    Mode::Ci => se.selected,
                    _ => false,
                };
                if se.trusted() && gate && m.srsmt.find(bpc).is_none() {
                    self.vectorize_load(&mut m, e, se.stride);
                }
            }
        } else if matches!(
            inst,
            Inst::Alu { .. } | Inst::AluImm { .. } | Inst::Fp { .. }
        ) {
            let any_vec = inst
                .sources()
                .iter()
                .flatten()
                .any(|&s| self.ext[s as usize].vs);
            if any_vec && m.srsmt.find(bpc).is_none() {
                self.vectorize_op(&mut m, bpc, e);
            }
        }
        self.mech = Some(m);
    }

    /// Check the §2.3.4 validation conditions. Returns the consumed
    /// instance index on success, why the validation failed otherwise.
    fn try_validate(
        &self,
        m: &Mech,
        idx: usize,
        inst: Inst,
        expected_addr: Option<u64>,
    ) -> Result<u32, ValFail> {
        let ent = m.srsmt.get(idx).ok_or(ValFail::InstMismatch)?;
        if ent.inst != inst {
            return Err(ValFail::InstMismatch); // PC aliasing
        }
        let replica = ent.next_slot().ok_or(ValFail::ReplicaNotReady)?;
        match ent.kind {
            VecKind::Load { stride, .. } => {
                // "For a load, the stride must keep on being the same."
                let se = m.stride.lookup(ent.pc).ok_or(ValFail::StrideUntrusted)?;
                if !se.trusted() || se.stride != stride {
                    return Err(ValFail::StrideUntrusted);
                }
                // Address alignment is enforced by the sync-state
                // machine in the caller; when exact evidence is present
                // it must agree with the slot (belt and braces).
                if let Some(exp) = expected_addr {
                    if exp != ent.addr_of(replica) {
                        return Err(ValFail::AddressMismatch);
                    }
                }
                Ok(replica)
            }
            VecKind::Op => {
                // Dependent loads additionally check the replica's
                // effective address against this instance's expected
                // address when both are known.
                if inst.is_load() && ent.is_complete(replica) {
                    if let Some(exp) = expected_addr {
                        if ent.addr_of(replica) != exp {
                            return Err(ValFail::AddressMismatch);
                        }
                    }
                }
                // "checking whether the producer's identifiers currently
                // found in the rename table ... are equal to those of
                // the SRSMT".
                let srcs = inst.sources();
                for (seq, src) in [(ent.seq1, srcs[0]), (ent.seq2, srcs[1])] {
                    match (seq, src) {
                        (SeqId::None, None) => {}
                        (SeqId::None, Some(_)) => return Err(ValFail::SeqMismatch),
                        (_, None) => return Err(ValFail::SeqMismatch),
                        (SeqId::Vec { pc, gen, off }, Some(s)) => {
                            let x = &self.ext[s as usize];
                            if !x.vs || x.seq != pc {
                                return Err(ValFail::SeqMismatch);
                            }
                            // Source synchronisation (§2.3.4: the
                            // validation "will wait until the fields
                            // decode and commit of its source operands
                            // ... are equal"): the producer must have
                            // consumed exactly the instance this replica
                            // read, i.e. its dynamic stream is in step
                            // with ours. A producer that soft-missed (or
                            // was re-created) is out of step.
                            let p = m
                                .srsmt
                                .find(pc)
                                .and_then(|i| m.srsmt.get(i))
                                .ok_or(ValFail::SeqMismatch)?;
                            if p.gen != gen || p.decode != off + replica + 1 {
                                return Err(ValFail::SeqMismatch);
                            }
                        }
                        (SeqId::SelfLoop, Some(s)) => {
                            let x = &self.ext[s as usize];
                            if !x.vs || x.seq != ent.pc {
                                return Err(ValFail::SeqMismatch);
                            }
                        }
                        (SeqId::Scalar(_), Some(s)) => {
                            if self.ext[s as usize].vs {
                                return Err(ValFail::SeqMismatch);
                            }
                        }
                    }
                }
                Ok(replica)
            }
        }
    }

    // ----------------------------------------------------------------
    // Vectorization
    // ----------------------------------------------------------------

    /// Allocate one replica destination: a physical register in the
    /// monolithic configuration, a speculative-memory position in the
    /// §2.4.6 configuration. `None` under pressure ("a lower number of
    /// replicas or none at all"). The storage is an occupancy token:
    /// the replica's result goes into its SRSMT entry.
    fn alloc_one_storage(&mut self, m: &mut Mech) -> Option<StorageId> {
        if let Some(sm) = &mut m.specmem {
            sm.alloc()
        } else {
            if self.rf.available() <= self.cfg.mech.replica_headroom {
                return None;
            }
            self.rf.alloc()
        }
    }

    /// Return replica storage to its pool: the register file, or the
    /// speculative data memory when configured.
    pub(crate) fn free_storage(&mut self, m: &mut Mech, storage: &[StorageId]) {
        for &id in storage {
            if let Some(sm) = &mut m.specmem {
                sm.release(id);
            } else {
                self.rf.free(id);
            }
        }
    }

    /// The SRSMT half of a recovery (§2.4.4) that squashes every
    /// instruction younger than `seq`: tear down the entries those
    /// instructions created (their instance numbering no longer matches
    /// the dynamic stream), then `decode ← commit` for every entry —
    /// replicas are *not* squashed — and the DAEC tick (§2.4.2), which
    /// releases idle entries.
    pub(crate) fn srsmt_recovery(&mut self, m: &mut Mech, seq: u64) {
        self.teardown_where(m, |e| e.creator > seq, "creator_squashed");
        for ent in m.srsmt.recovery() {
            self.release_entry(m, &ent);
        }
    }

    /// Tear down, in way order, every entry that `victim` picks, and
    /// return how many there were. `reason` labels each teardown in the
    /// trace.
    pub(crate) fn teardown_where(
        &mut self,
        m: &mut Mech,
        victim: impl Fn(&SrsmtEntry) -> bool,
        reason: &'static str,
    ) -> usize {
        let victims: Vec<usize> = m
            .srsmt
            .iter_valid()
            .filter(|(_, e)| victim(e))
            .map(|(i, _)| i)
            .collect();
        for &v in &victims {
            self.teardown_srsmt(m, v, reason);
        }
        victims.len()
    }

    /// Tear down an SRSMT entry and release it. `reason` labels the
    /// teardown in the trace.
    pub(crate) fn teardown_srsmt(&mut self, m: &mut Mech, idx: usize, reason: &'static str) {
        let Some(ent) = m.srsmt.invalidate(idx) else {
            return;
        };
        // SRSMT stores byte PCs; the trace uses word PCs.
        self.obs.trace(Subsystem::Vec, ent.pc >> 2, self.cycle, || {
            EventKind::Teardown {
                reason,
                entries: ent.head - ent.commit,
            }
        });
        self.release_entry(m, &ent);
    }

    /// Release an entry already removed from the SRSMT (torn down,
    /// evicted or DAEC-released): free the storage of its unconsumed
    /// instances and drop its in-flight replicas. Generations are
    /// table-unique, so `gen` names exactly this entry's replicas. Every
    /// removal comes through here, so no replica outlives its entry.
    fn release_entry(&mut self, m: &mut Mech, ent: &SrsmtEntry) {
        self.free_storage(m, &ent.unconsumed_storage());
        self.reap_replicas(|r| r.slot.gen == ent.gen);
    }

    /// Drop every replica matching `pred`, keeping the others in order,
    /// and close each dropped one's lifecycle record (if recording is
    /// on) as squashed-undelivered.
    fn reap_replicas(&mut self, pred: impl Fn(&Replica) -> bool) {
        let (obs, cycle) = (&mut self.obs, self.cycle);
        self.replicas.retain(|r| {
            let reap = pred(r);
            if reap {
                obs.replica_end(r.lid, cycle, false);
            }
            !reap
        });
    }

    /// Whether the PC has mis-speculated at commit too often to be
    /// worth vectorizing again (off unless configured — see
    /// `MechConfig::misspec_blacklist`).
    fn blacklisted(&self, m: &Mech, bpc: u64) -> bool {
        m.misspec(bpc) >= self.cfg.mech.misspec_blacklist
    }

    /// Vectorize the strided load `e` (§2.3.3), whose trusted stride is
    /// `stride`. The replicas cover the instances after the one being
    /// decoded, whose address is the frontier: in-flight evidence when
    /// the window has it, else the predictor's last *committed* address
    /// (it trains at commit) plus one stride per in-flight instance.
    fn vectorize_load(&mut self, m: &mut Mech, e: &RobEntry, stride: i64) {
        let bpc = Program::byte_pc(e.pc);
        // Address of the instance being decoded (= "instance -1" of the
        // replica stream); the caller's trusted stride makes it known.
        let Some(base) = self.frontier_addr(m, e.pc, stride) else {
            return;
        };
        let mut ent = SrsmtEntry::new(
            bpc,
            e.inst,
            VecKind::Load { stride, base },
            self.cfg.mech.replicas_per_inst,
            SeqId::None,
            SeqId::None,
        );
        ent.event = m.sel_event(bpc);
        ent.creator = e.seq;
        self.install(m, ent);
    }

    /// Vectorize an instruction dependent on vectorized producers
    /// (§2.3.3: "every time an instruction is fetched, if any of its
    /// source operands is vectorized, the instruction is also
    /// vectorized").
    fn vectorize_op(&mut self, m: &mut Mech, bpc: u64, e: &RobEntry) {
        if self.blacklisted(m, bpc) {
            return;
        }
        let inst = e.inst;
        let srcs = inst.sources();
        let mut seqs = [SeqId::None, SeqId::None];
        let mut seed = 0u64;
        for (i, s) in srcs.iter().enumerate() {
            let Some(s) = s else { continue };
            let x = self.ext[*s as usize];
            if x.vs && x.seq == bpc {
                // Loop-carried self-dependence (the paper's I11
                // accumulator): instance k consumes instance k-1 of
                // this very entry; instance 0 is seeded by the creating
                // instruction's own result (delivered at writeback).
                if e.new_phys.is_none() {
                    return;
                }
                seqs[i] = SeqId::SelfLoop;
                seed = e.seq;
            } else if x.vs {
                let Some(pidx) = m.srsmt.find(x.seq) else {
                    return;
                };
                let p = m.srsmt.get(pidx).unwrap();
                if !p.synced {
                    return; // producer's numbering not trustworthy yet
                }
                // This instruction's next dynamic instance pairs with
                // the producer's next unconsumed instance.
                seqs[i] = SeqId::Vec {
                    pc: x.seq,
                    gen: p.gen,
                    off: p.decode,
                };
            } else {
                // Scalar operand: read its value now (§2.3.3). If not
                // ready we skip vectorization rather than stalling the
                // front end (documented simplification). Read through
                // the pre-rename mapping captured at dispatch.
                let Some(phys) = e.src_phys[i] else { return };
                if !self.rf.is_ready(phys) {
                    return;
                }
                seqs[i] = SeqId::Scalar(self.rf.read(phys));
            }
        }
        let mut ent = SrsmtEntry::new(
            bpc,
            inst,
            VecKind::Op,
            self.cfg.mech.replicas_per_inst,
            seqs[0],
            seqs[1],
        );
        ent.seed = seed;
        ent.creator = e.seq;
        // Dependent entries are anchored to their producers' instance
        // streams; require those to be in step at creation.
        ent.synced = true;
        ent.event = [seqs[0], seqs[1]].iter().find_map(|s| match s {
            SeqId::Vec { pc, .. } => m
                .srsmt
                .find(*pc)
                .and_then(|i| m.srsmt.get(i))
                .and_then(|p| p.event),
            _ => None,
        });
        self.install(m, ent);
    }

    /// Install a new entry (§2.3.3): release the entry it evicts,
    /// register a self-loop's seed waiter, count and trace the
    /// vectorization, and pre-execute its first replicas. A set with no
    /// deallocatable way leaves the instruction scalar.
    fn install(&mut self, m: &mut Mech, ent: SrsmtEntry) {
        let (pc, kind, seed) = (ent.pc, ent.kind, ent.seed);
        let AllocOutcome::Placed { idx, evicted } = m.srsmt.alloc(ent) else {
            return;
        };
        if let Some(old) = evicted {
            self.release_entry(m, &old);
        }
        if seed != 0 {
            let gen = m.srsmt.get(idx).unwrap().gen;
            m.add_seed_waiter(seed, idx, gen);
        }
        self.stats.vectorizations += 1;
        let (kind, base, stride) = match kind {
            VecKind::Load { stride, base } => ("load", base, stride),
            VecKind::Op => ("op", 0, 0),
        };
        // SRSMT stores byte PCs; the trace uses word PCs.
        self.obs.trace(Subsystem::Vec, pc >> 2, self.cycle, || {
            EventKind::Vectorize {
                kind,
                base,
                stride,
                count: self.cfg.mech.replicas_per_inst as u32,
            }
        });
        while self.grow_one(m, idx) {}
    }

    /// Deliver a just-produced result to a self-loop entry waiting for
    /// its seed (called when the creating instruction completes).
    pub(crate) fn notify_seed(&mut self, seq: u64, value: u64) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        if let Some((idx, gen)) = m.take_seed_waiter(seq) {
            // Known defect (ROADMAP item 5): may stamp a later entry's LRU.
            if let Some(ent) = m.srsmt.get_mut(idx) {
                if ent.gen == gen {
                    ent.seed_value = Some(value);
                }
            }
        }
        self.mech = Some(m);
    }

    /// The creating instruction of a waiting self-loop entry was
    /// squashed: the chain can never be seeded correctly — tear it
    /// down (called from the squash paths).
    pub(crate) fn kill_seed_waiter(&mut self, seq: u64) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        if let Some((idx, gen)) = m.take_seed_waiter(seq) {
            if m.srsmt.get_gen(idx, gen).is_some() {
                self.teardown_srsmt(&mut m, idx, "seed_squashed");
            }
        }
        self.mech = Some(m);
    }

    // ----------------------------------------------------------------
    // Replica engine
    // ----------------------------------------------------------------

    /// Pre-execute one more instance of the entry at `idx` if a window
    /// slot and storage are available. Returns whether it grew.
    fn grow_one(&mut self, m: &mut Mech, idx: usize) -> bool {
        let Some(ent) = m.srsmt.get(idx) else {
            return false;
        };
        if !ent.can_grow() {
            return false;
        }
        let (event, pc, inst) = (ent.event, ent.pc, ent.inst);
        let Some(storage) = self.alloc_one_storage(m) else {
            return false;
        };
        let ent = m.srsmt.get_mut(idx).unwrap();
        let k = ent.grow(storage);
        if let Some(addr) = ent.load_addr(k) {
            let s = ent.slot(k);
            ent.addrs[s] = addr;
        }
        let gen = ent.gen;
        // SRSMT stores byte PCs; the lifecycle view uses word PCs.
        let lid = self.obs.replica_begin(pc / 4, inst, self.cycle);
        self.replicas.push(Replica {
            lid,
            slot: Slot { way: idx, gen, k },
            state: RepState::Waiting,
            value: 0,
            addr: None,
        });
        self.stats.replicas_created += 1;
        self.stats.branch_prof.note_replica_created(event);
        true
    }

    /// Grow windows (continuous re-dispatch, §2.3.3) and keep growing
    /// each entry until its window or the storage budget is exhausted.
    /// Walks the live ways only; growing never adds or removes one.
    fn grow_pass(&mut self, m: &mut Mech) {
        let mut next = m.srsmt.next_valid(0);
        while let Some(idx) = next {
            while self.grow_one(m, idx) {}
            next = m.srsmt.next_valid(idx + 1);
        }
    }

    /// Re-dispatch and issue replicas with the cycle's leftover
    /// resources (§2.4.1: lower priority than scalar instructions).
    pub(crate) fn replica_pump(&mut self) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        if self.cfg.mode.vectorizes() {
            self.grow_pass(&mut m);
            self.issue_replicas(&mut m);
        }
        self.mech = Some(m);
    }

    /// Issue waiting replicas in list order. Instance `k` of an entry
    /// computes what the entry says: a strided load reads
    /// `load_addr(k)`; a dependent op evaluates `inst` on the sources
    /// `seq1`/`seq2` name for instance `k` (a producer's instance
    /// `off + k`, its own instance `k - 1` or seed on a self-loop, a
    /// scalar read at vectorization).
    fn issue_replicas(&mut self, m: &mut Mech) {
        for ri in 0..self.replicas.len() {
            if self.res.issue == 0 {
                break;
            }
            let rep = self.replicas[ri];
            if rep.state != RepState::Waiting {
                continue;
            }
            let ent = m
                .srsmt
                .get_gen(rep.slot.way, rep.slot.gen)
                .expect("a replica outlived its entry");
            let (inst, k) = (ent.inst, rep.slot.k);
            // Resolve sources (a strided load has none).
            let mut vals = [0u64; 2];
            let mut ready = true;
            let mut dead = false;
            for (i, seq) in [ent.seq1, ent.seq2].into_iter().enumerate() {
                let (pc, gen, idx) = match seq {
                    SeqId::None => continue,
                    SeqId::Scalar(v) => {
                        vals[i] = v;
                        continue;
                    }
                    SeqId::SelfLoop if k == 0 => {
                        match ent.seed_value {
                            Some(v) => vals[i] = v,
                            None => ready = false,
                        }
                        continue;
                    }
                    SeqId::SelfLoop => (ent.pc, ent.gen, k - 1),
                    SeqId::Vec { pc, gen, off } => (pc, gen, off + k),
                };
                match m.srsmt.find(pc).and_then(|i| m.srsmt.get(i)) {
                    Some(p) if p.gen == gen => {
                        if idx < p.commit || idx >= p.head {
                            // Value recycled or never produced.
                            dead = idx < p.commit;
                            if idx >= p.head {
                                ready = false; // producer not grown yet
                            }
                        } else if p.is_dead(idx) {
                            dead = true;
                        } else if p.is_complete(idx) {
                            vals[i] = p.value_of(idx);
                        } else {
                            ready = false;
                        }
                    }
                    _ => dead = true,
                }
            }
            if dead {
                m.srsmt.get_mut(rep.slot.way).unwrap().kill_replica(k);
                // Reaped in complete_replicas (dead path).
                self.replicas[ri].state = RepState::Exec { done_at: 0 };
                continue;
            }
            if !ready {
                continue;
            }
            // Resources + compute.
            let addr = match (ent.load_addr(k), inst) {
                (Some(a), _) => Some(a),
                (None, Inst::Ld { offset, .. }) => Some(cfir_emu::MemImage::align(
                    vals[0].wrapping_add(offset as u64),
                )),
                _ => None,
            };
            let (value, done_at) = match addr {
                Some(a) => {
                    let Some(lat) = self.arbitrate_load(a) else {
                        continue;
                    };
                    (self.mem.read(a), self.cycle + lat as u64)
                }
                None => {
                    let Some(value) = alu_result(inst, vals[0], vals[1]) else {
                        continue;
                    };
                    if !self.take_fu(inst.class()) {
                        continue;
                    }
                    (value, self.cycle + inst.class().latency().unwrap() as u64)
                }
            };
            // Spec-memory write port (2 per cycle).
            if m.specmem.is_some() {
                if self.res.specmem_writes == 0 {
                    continue;
                }
                self.res.specmem_writes -= 1;
            }
            self.res.issue -= 1;
            let r = &mut self.replicas[ri];
            r.state = RepState::Exec { done_at };
            r.value = value;
            r.addr = addr;
            let ent = m.srsmt.get_mut(rep.slot.way).unwrap();
            ent.issue += 1;
            let event = ent.event;
            self.stats.replicas_executed += 1;
            self.stats.branch_prof.note_replica_executed(event);
            // Lifecycle: the replica issued this cycle; a load that ran
            // longer than an L1 hit also gets a cache-miss wait-edge.
            let lat = done_at.saturating_sub(self.cycle) as u32;
            self.obs.issue(rep.lid, self.cycle);
            if let Some(level) = addr.and(self.miss_level(lat)) {
                self.obs
                    .wait_edge(rep.lid, WaitEdgeKind::CacheMiss, || None, level, self.cycle);
            }
        }
    }

    /// Deliver completed replicas (called from writeback): each result
    /// goes into its entry, the one place validations read it from.
    pub(crate) fn complete_replicas(&mut self) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        let cycle = self.cycle;
        let mut i = 0;
        while i < self.replicas.len() {
            let rep = self.replicas[i];
            let Slot { way, gen, k } = rep.slot;
            debug_assert!(
                m.srsmt.get_gen(way, gen).is_some(),
                "a replica outlived its entry"
            );
            if !matches!(rep.state, RepState::Exec { done_at } if done_at <= cycle) {
                i += 1;
                continue;
            }
            let ent = m.srsmt.get_mut(way).unwrap();
            // Known defect (ROADMAP item 5): counts dead-source replicas too.
            ent.issue = ent.issue.saturating_sub(1);
            // Not delivered if its slot was recycled or skipped while it
            // executed, or if a source died (`done_at: 0`).
            let delivered = k >= ent.commit && !ent.is_dead(k);
            if delivered {
                ent.complete_replica(k, rep.value, rep.addr);
            }
            self.replicas.swap_remove(i);
            self.obs.replica_end(rep.lid, cycle, delivered);
        }
        self.mech = Some(m);
    }

    // ----------------------------------------------------------------
    // Misprediction-side bookkeeping
    // ----------------------------------------------------------------

    /// Runs at recovery, *before* the pipeline squash, while the wrong
    /// path is still in the window.
    pub(crate) fn mech_on_mispredict(
        &mut self,
        rob_idx: usize,
        bseq: u64,
        bpc: u32,
        is_cond: bool,
    ) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        let mode = self.cfg.mode;
        if is_cond {
            let hard = mode.selects_ci()
                && (!self.cfg.mech.mbs_gating || m.mbs.is_hard(Program::byte_pc(bpc)));
            if hard {
                let event = self.stats.branch_prof.open_event(bpc);
                let rcp_est = if self.cfg.mech.full_rcp_heuristic {
                    cfir_core::rcp::estimate(self.prog, bpc)
                } else {
                    Some(bpc + 1) // naive: fall-through only (ablation)
                };
                // Static oracle: score whatever estimate the configured
                // detector produced against the post-dominator truth
                // seeded at pipeline build (the naive ablation is scored
                // too — that is the point of the metric).
                if let Some(truth) = self.stats.branch_prof.static_truth(bpc) {
                    self.stats
                        .branch_prof
                        .note_rcp_check(bpc, rcp_est == truth.rcp);
                }
                if let Some(rcp) = rcp_est {
                    // ORing the paper's NRBQ masks over-taints when the
                    // wrong path runs past the re-convergent point; the
                    // window walk computes the §2.3.2 quantity — writes
                    // after the branch and *before the RCP is reached* —
                    // exactly.
                    let mask = self.wrong_path_mask(rob_idx, rcp);
                    m.crp.activate(rcp, mask, event);
                    if mode == Mode::CiIw {
                        self.harvest_squash_buf(&mut m, rob_idx);
                    }
                }
            } else {
                self.stats.branch_prof.mispredict_without_event();
            }
        }
        self.srsmt_recovery(&mut m, bseq);
        self.mech = Some(m);
    }

    /// Rebuild the ci-iw squash-reuse buffer from the wrong path that
    /// is about to be squashed: a walk of it with a copy of the
    /// just-activated CRP, under the rule decode applies. Only a value
    /// the wrong path already produced can be harvested; an instruction
    /// that has none taints its destination like a non-CI one.
    fn harvest_squash_buf(&mut self, m: &mut Mech, branch_idx: usize) {
        m.clear_squash_buf();
        let mut crp = m.crp;
        for j in branch_idx + 1..self.rob.len() {
            let e = &self.rob[j];
            let reached = crp.on_fetch(e.pc);
            let harvest = reached
                && e.state() == RobState::Done
                && !e.reuses()
                && e.ldest.is_some()
                && !e.inst.is_control()
                && crp.is_control_independent(e.inst.sources());
            if harvest {
                self.stats.branch_prof.mark_selected(crp.event);
                m.squash_buf[e.pc as usize].push_back(SquashReuse {
                    value: e.value,
                    event: crp.event,
                });
            }
            if let Some(d) = e.ldest {
                crp.on_dest_write(d, harvest);
            }
        }
    }

    /// After a squash, restore per-entry `decode` to `commit` plus the
    /// number of *surviving* in-flight validations (the §2.4.4 copy
    /// assumes all in-flight validations died; those older than the
    /// branch did not).
    pub(crate) fn recount_srsmt_decode(&mut self) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        // Slot order: `get_mut` stamps LRU, so the order must not
        // depend on a hash seed.
        let mut counts: BTreeMap<usize, u32> = BTreeMap::new();
        for e in self.rob.iter() {
            if let Some(slot) = e.consumed_slot() {
                if m.srsmt.get_gen(slot.way, slot.gen).is_some() {
                    *counts.entry(slot.way).or_insert(0) += 1;
                }
            }
        }
        for (idx, k) in counts {
            if let Some(ent) = m.srsmt.get_mut(idx) {
                ent.decode = ent.commit + k;
            }
        }
        self.mech = Some(m);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Mode, RegFileSize, SimConfig};
    use crate::mech::Replica;
    use crate::pipeline::Pipeline;
    use cfir_emu::MemImage;
    use cfir_isa::{assemble, Program};

    /// Figure-1 style hammock with a strided load and a CI accumulator.
    fn hammock() -> (Program, MemImage) {
        let p = assemble(
            "h",
            r#"
                li r1, 4096
                li r2, 0
                li r3, 2000
            top:
                muli r4, r2, 8
                andi r4, r4, 4095
                add r4, r4, r1
                ld r5, 0(r4)
                beq r5, r0, e
                addi r6, r6, 1
                jmp j
            e:  addi r7, r7, 1
            j:  add r8, r8, r5
                addi r2, r2, 1
                blt r2, r3, top
                halt
            "#,
        )
        .unwrap();
        let mut mem = MemImage::new();
        let mut x = 99u64;
        for i in 0..512u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            mem.write(4096 + i * 8, (x >> 62) & 1);
        }
        (p, mem)
    }

    fn run(mode: Mode) -> Pipeline<'static> {
        run_with(mode, |_| {})
    }

    fn run_with(mode: Mode, tweak: impl FnOnce(&mut SimConfig)) -> Pipeline<'static> {
        let (p, mem) = hammock();
        let p: &'static Program = Box::leak(Box::new(p));
        let mut cfg = SimConfig::paper_baseline()
            .with_mode(mode)
            .with_regs(RegFileSize::Finite(512))
            .with_max_insts(u64::MAX >> 1);
        cfg.cosim_check = true;
        tweak(&mut cfg);
        let mut pipe = Pipeline::new(p, mem, cfg);
        pipe.run();
        pipe
    }

    #[test]
    fn selection_sets_the_s_flag_on_the_hot_load() {
        let pipe = run(Mode::Ci);
        let m = pipe.mech.as_ref().unwrap();
        // The load is at pc 6 (byte pc 24).
        assert!(
            m.stride.selected(24),
            "the CI-feeding strided load must carry S"
        );
        assert!(m.stride.is_strided(24));
    }

    #[test]
    fn srsmt_holds_the_vectorized_chain() {
        let pipe = run(Mode::Ci);
        let m = pipe.mech.as_ref().unwrap();
        assert!(
            m.srsmt.occupancy() >= 1,
            "at least the load stays vectorized"
        );
        assert!(
            m.srsmt.find(24).is_some(),
            "load entry present at end of run"
        );
        assert!(
            pipe.stats.vectorizations >= 2,
            "load + dependents vectorized"
        );
    }

    #[test]
    fn replica_window_counters_are_sane_at_rest() {
        let pipe = run(Mode::Ci);
        let m = pipe.mech.as_ref().unwrap();
        for (_, e) in m.srsmt.iter_valid() {
            assert!(e.commit <= e.decode, "commit may not pass decode");
            assert!(e.decode <= e.head, "decode may not pass head");
            assert!(
                e.head - e.commit <= e.nregs as u32,
                "window never exceeds Nregs outstanding"
            );
        }
        // A replica names its slot and nothing more.
        assert!(std::mem::size_of::<Replica>() <= 64);
        // A one-way table evicts and DAEC-releases entries whose
        // replicas are in flight. Each removal reaps them, so every
        // replica still names a live entry of its generation (debug
        // builds also assert this every cycle in issue and writeback).
        // The run stops mid-program, with replicas in flight.
        let pipe = run_with(Mode::Ci, |cfg| {
            cfg.mech.srsmt_sets = 1;
            cfg.mech.srsmt_ways = 1;
            cfg.max_insts = 12_001;
        });
        let m = pipe.mech.as_ref().unwrap();
        assert!(m.srsmt.stats.lru_evictions > 0, "{:?}", m.srsmt.stats);
        assert!(m.srsmt.stats.daec_releases > 0, "{:?}", m.srsmt.stats);
        assert!(!pipe.replicas.is_empty());
        for r in &pipe.replicas {
            assert!(m.srsmt.get_gen(r.slot.way, r.slot.gen).is_some());
        }
    }

    #[test]
    fn mbs_learns_both_branch_characters() {
        let pipe = run(Mode::Ci);
        let m = pipe.mech.as_ref().unwrap();
        // The hammock branch (pc 7 -> byte 28) is data-random: hard.
        assert!(m.mbs.is_hard(28), "hammock branch must classify hard");
        // The loop-closing branch is near-always taken: its *final*
        // not-taken resets the MBS counter to mid (by design), so test
        // its character through the misprediction counts instead — the
        // hammock dominates.
        assert!(
            pipe.stats.mispredicts as f64 > 0.3 * 2000.0,
            "the random hammock mispredicts often"
        );
        assert!(
            pipe.stats.mispredicts < 2000 + 50,
            "the loop branch contributes almost none"
        );
    }

    #[test]
    fn scalar_mode_carries_no_mechanism() {
        let pipe = run(Mode::Scalar);
        assert!(pipe.mech.is_none());
        assert!(pipe.replicas.is_empty());
        assert_eq!(pipe.stats.replicas_created, 0);
    }

    #[test]
    fn vect_mode_skips_ci_selection() {
        let pipe = run(Mode::Vect);
        let m = pipe.mech.as_ref().unwrap();
        // vect vectorizes on trust alone; nothing sets S flags or events.
        assert!(!m.stride.selected(24));
        assert!(pipe.stats.vectorizations > 0);
        let (_, sel, _) = pipe.stats.branch_prof.event_counts();
        assert_eq!(sel, 0, "no CI selection events in vect mode");
    }

    #[test]
    fn replicas_do_not_leak_registers() {
        let pipe = run(Mode::Ci);
        let m = pipe.mech.as_ref().unwrap();
        // Every live replica register is owned by a live SRSMT entry;
        // the total in-use count must be bounded by arch mappings +
        // in-flight window + replica windows.
        let replica_regs: usize = m
            .srsmt
            .iter_valid()
            .map(|(_, e)| (e.head - e.commit) as usize)
            .sum();
        let bound = 65 + pipe.rob.len() + replica_regs;
        assert!(
            pipe.rf.in_use() <= bound,
            "{} registers in use, bound {}",
            pipe.rf.in_use(),
            bound
        );
    }
}
