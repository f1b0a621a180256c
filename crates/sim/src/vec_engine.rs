//! Mechanism integration: decode hooks (CI detection, validation,
//! vectorization), the replica engine, squash-reuse harvesting and the
//! misprediction-side bookkeeping.

use crate::config::Mode;
use crate::exec::alu_result;
use crate::mech::{Mech, RepKind, RepSrc, RepState, Replica, SquashReuse};
use crate::pipeline::Pipeline;
use crate::rob::{ReuseInfo, RobEntry, RobState};
use cfir_core::srsmt::{AllocOutcome, SeqId, SrsmtEntry, StorageId, VecKind};
use cfir_isa::{Inst, Program};
use cfir_obs::{EventKind, Subsystem, WaitEdgeKind};
use std::collections::HashMap;

/// Human-readable labels for the `valfail_reasons` buckets (§2.3.4
/// validation failure taxonomy). Index k labels `valfail_reasons[k]`.
pub const VALFAIL_REASONS: [&str; 5] = [
    "inst_mismatch",
    "replica_not_ready",
    "stride_untrusted",
    "address_mismatch",
    "seq_mismatch",
];

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

    // ----------------------------------------------------------------
    // Decode hooks
    // ----------------------------------------------------------------

    /// Runs at dispatch for every instruction, in program order.
    /// Returns a [`ReuseInfo`] when a validation succeeds and the
    /// instruction must not execute.
    pub(crate) fn mech_decode(&mut self, e: &mut RobEntry) -> Option<ReuseInfo> {
        let mut m = self.mech.take()?;
        let r = self.mech_decode_inner(&mut m, e);
        self.mech = Some(m);
        r
    }

    fn mech_decode_inner(&mut self, m: &mut Mech, e: &mut RobEntry) -> Option<ReuseInfo> {
        let pc = e.pc;
        let bpc = Program::byte_pc(pc);
        let inst = e.inst;
        let mode = self.cfg.mode;

        // --- CRP / NRBQ tracking (§2.3.2), ci and ci-iw modes ---
        let mut is_ci = false;
        if mode.selects_ci() {
            let reached = m.crp.on_fetch(pc);
            if reached {
                is_ci = !inst.is_control()
                    && inst.dest().is_some()
                    && m.crp.is_control_independent(inst.sources());
                if is_ci {
                    self.stats.events.mark_selected(m.crp.event);
                    if mode == Mode::Ci {
                        // Select the strided loads in the backward slice
                        // for speculative vectorization (S flag).
                        for s in inst.sources().iter().flatten() {
                            for &lp in self.ext[*s as usize].strided_pcs() {
                                if m.stride.is_strided(lp) && m.stride.set_selected(lp, true) {
                                    m.set_sel_event(lp, m.crp.event);
                                }
                            }
                        }
                        // A strided load that is itself control
                        // independent selects itself.
                        if inst.is_load() && m.stride.is_strided(bpc) {
                            m.stride.set_selected(bpc, true);
                            m.set_sel_event(bpc, m.crp.event);
                        }
                    }
                }
            }
            if inst.is_cond_branch() {
                let rcp = cfir_core::rcp::estimate(self.prog, pc).unwrap_or(pc + 1);
                m.nrbq.on_branch_decode(e.seq, pc, rcp);
            }
            if let Some(d) = inst.dest() {
                m.nrbq.on_dest_write(d);
                m.crp.on_dest_write(d, is_ci);
            }
        }

        // --- ci-iw: squash-reuse buffer lookup ---
        if mode == Mode::CiIw {
            if is_ci {
                if let Some(sr) = m.squash_buf[pc as usize].pop_front() {
                    self.stats.squash_reuse_hits += 1;
                    return Some(ReuseInfo {
                        value: sr.value,
                        pending: false,
                        srsmt_idx: None,
                        gen: 0,
                        replica: 0,
                        event: Some(sr.event),
                    });
                }
            }
            return None;
        }

        if !mode.vectorizes() {
            return None;
        }

        // --- Validation (§2.3.4) ---
        if let Some(idx) = m.srsmt.find(bpc) {
            // Exact address of *this* dynamic load instance, when the
            // base register is already available (in steady reuse the
            // whole index chain is reused, so it usually is).
            let exact_addr = if let Inst::Ld { offset, .. } = inst {
                let base = inst.sources()[0].unwrap();
                let phys = self.rmap[base as usize];
                if self.rf.is_ready(phys) {
                    Some(cfir_emu::MemImage::align(
                        self.rf.read(phys).wrapping_add(offset as u64),
                    ))
                } else {
                    None
                }
            } else {
                None
            };
            // Soft miss: no pre-executed instance available right now
            // (the window ran ahead of the replica engine). Execute
            // normally; the entry stays for later instances but its
            // instance numbering is no longer in step.
            if m.srsmt
                .get(idx)
                .map(|ent| ent.decode >= ent.head)
                .unwrap_or(false)
            {
                let is_load_kind = m
                    .srsmt
                    .get(idx)
                    .map(|e| matches!(e.kind, VecKind::Load { .. }))
                    .unwrap_or(false);
                if is_load_kind {
                    // The numbering is no longer in step; re-align on
                    // (estimate or exact) evidence at a later instance.
                    // A previously confirmed entry keeps its
                    // confirmation: realignment snaps back onto the same
                    // verified address sequence.
                    if let Some(ent) = m.srsmt.get_mut(idx) {
                        ent.synced = false;
                    }
                } else {
                    // Dependent entries have no address evidence to
                    // re-align with: tear down and re-vectorize.
                    self.teardown_srsmt(m, idx, "soft_miss");
                }
                return None;
            }
            // Synchronisation state machine for loads: a desynced entry
            // may only validate against exact-address evidence, either
            // at the current slot or by skipping ahead to the matching
            // instance.
            let is_load_entry = m
                .srsmt
                .get(idx)
                .map(|e| matches!(e.kind, VecKind::Load { .. }))
                .unwrap_or(false);
            if is_load_entry {
                let ent = m.srsmt.get(idx).unwrap();
                let cur_matches = ent
                    .next_slot()
                    .map(|k| Some(ent.addr_of(k)) == exact_addr)
                    .unwrap_or(false);
                // Alignment evidence: the exact address when the base
                // register is ready, else the commit-anchored estimate
                // (last committed address plus one stride per in-flight
                // instance of this load — exact along a single path).
                let stride = match ent.kind {
                    VecKind::Load { stride, .. } => stride,
                    VecKind::Op => 0,
                };
                let evidence = exact_addr.or_else(|| self.frontier_addr(m, pc, stride));
                if !ent.synced {
                    match evidence {
                        None => return None, // cannot prove alignment: execute normally
                        Some(exp) => {
                            let cur_ev = ent
                                .next_slot()
                                .map(|k| ent.addr_of(k) == exp)
                                .unwrap_or(false);
                            if cur_ev {
                                self.obs.trace(Subsystem::Vec, pc as u64, self.cycle, || {
                                    EventKind::Note {
                                        msg: format!("sync-accept exp={exp:#x}"),
                                    }
                                });
                                let ent = m.srsmt.get_mut(idx).unwrap();
                                ent.synced = true;
                                if exact_addr == Some(exp) {
                                    ent.confirmed = true;
                                }
                            } else {
                                // Search ahead for the matching instance.
                                let skip_to = if ent.decode == ent.commit {
                                    (ent.decode + 1..ent.head)
                                        .find(|&k| !ent.is_dead(k) && ent.addr_of(k) == exp)
                                } else {
                                    None
                                };
                                match skip_to {
                                    Some(k) => {
                                        let (freed, from) = {
                                            let ent = m.srsmt.get_mut(idx).unwrap();
                                            let from = ent.decode;
                                            (ent.skip_to(k), from)
                                        };
                                        self.free_storage(m, &freed);
                                        let gen = m.srsmt.get(idx).unwrap().gen;
                                        self.reap_replicas(|r| {
                                            r.pc == bpc
                                                && r.gen == gen
                                                && r.idx >= from
                                                && r.idx < k
                                        });
                                        self.teardown_consumers_of(m, bpc);
                                        if let Some(ent) = m.srsmt.get_mut(idx) {
                                            ent.synced = true;
                                            if exact_addr == Some(exp) {
                                                ent.confirmed = true;
                                            }
                                        }
                                    }
                                    None => {
                                        // Exact evidence contradicts every
                                        // live instance: stale addresses.
                                        self.stats.validation_failures += 1;
                                        self.stats.valfail_reasons[3] += 1;
                                        self.obs.trace(
                                            Subsystem::Vec,
                                            pc as u64,
                                            self.cycle,
                                            || EventKind::Validate {
                                                ok: false,
                                                reason: "address_mismatch",
                                            },
                                        );
                                        self.teardown_srsmt(m, idx, "stale_addresses");
                                        return None;
                                    }
                                }
                            }
                        }
                    }
                } else if exact_addr.is_some() && !cur_matches {
                    // Synced count contradicted by exact evidence:
                    // desynchronise and retry the alignment next time.
                    let ent = m.srsmt.get_mut(idx).unwrap();
                    ent.synced = false;
                    ent.confirmed = false;
                    return None;
                }
            }
            let r = self.try_validate(m, idx, inst, exact_addr);
            self.obs.trace(Subsystem::Vec, pc as u64, self.cycle, || {
                let msg =
                    match m.srsmt.get(idx) {
                        Some(ent) => format!(
                        "validate -> {:?} dec={} com={} head={} synced={} exact={:?} slotaddr={:?}",
                        r, ent.decode, ent.commit, ent.head, ent.synced,
                        exact_addr, ent.next_slot().map(|k| ent.addr_of(k))
                    ),
                        None => format!("validate -> {r:?} (entry gone)"),
                    };
                EventKind::Note { msg }
            });
            match r {
                Ok(replica) => {
                    let ent = m.srsmt.get_mut(idx).unwrap();
                    ent.advance_decode();
                    let gen = ent.gen;
                    let event = ent.event;
                    self.stats.branch_prof.note_validation(event);
                    if !ent.confirmed {
                        // Probe: consume the slot but execute normally;
                        // the alignment is verified at issue against the
                        // real result before any value may be delivered.
                        e.probe = Some(crate::rob::ProbeInfo {
                            srsmt_idx: idx,
                            gen,
                            replica,
                            verified: false,
                        });
                        self.obs
                            .trace(Subsystem::Vec, pc as u64, self.cycle, || EventKind::Note {
                                msg: format!("probe k={replica} seq={}", e.seq),
                            });
                        return None;
                    }
                    let pending = !ent.is_complete(replica);
                    let value = ent.value_of(replica);
                    if inst.is_load() && !pending {
                        e.addr = Some(ent.addr_of(replica));
                    }
                    self.obs.trace(Subsystem::Vec, pc as u64, self.cycle, || {
                        EventKind::Validate {
                            ok: true,
                            reason: "ok",
                        }
                    });
                    return Some(ReuseInfo {
                        value,
                        pending,
                        srsmt_idx: Some(idx),
                        gen,
                        replica,
                        event,
                    });
                }
                Err(reason) => {
                    // §2.3.4: wrong speculation — deallocate and
                    // re-vectorize with the new operands (falls through
                    // to the vectorization triggers below).
                    self.stats.validation_failures += 1;
                    self.stats.valfail_reasons[reason] += 1;
                    self.obs.trace(Subsystem::Vec, pc as u64, self.cycle, || {
                        EventKind::Validate {
                            ok: false,
                            reason: VALFAIL_REASONS[reason],
                        }
                    });
                    self.teardown_srsmt(m, idx, "validation_failure");
                }
            }
        }

        None
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
                    self.vectorize_load(&mut m, bpc, pc, e.seq, inst, se.last_addr, se.stride);
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

    /// Tear down every entry whose sources reference the vectorized
    /// instruction at `pc` (their instance alignment is no longer
    /// valid).
    fn teardown_consumers_of(&mut self, m: &mut Mech, pc: u64) {
        let victims: Vec<usize> = m
            .srsmt
            .iter_valid()
            .filter(|(_, e)| {
                matches!(e.seq1, SeqId::Vec { pc: p, .. } if p == pc)
                    || matches!(e.seq2, SeqId::Vec { pc: p, .. } if p == pc)
            })
            .map(|(i, _)| i)
            .collect();
        for v in victims {
            self.teardown_srsmt(m, v, "producer_realigned");
        }
    }

    /// Check the §2.3.4 validation conditions. Returns the consumed
    /// instance index on success, the failure-reason bucket otherwise.
    fn try_validate(
        &self,
        m: &Mech,
        idx: usize,
        inst: Inst,
        expected_addr: Option<u64>,
    ) -> Result<u32, usize> {
        let ent = m.srsmt.get(idx).ok_or(0usize)?;
        if ent.inst != inst {
            return Err(0); // PC aliasing across different instructions
        }
        let replica = ent.next_slot().ok_or(1usize)?;
        match ent.kind {
            VecKind::Load { stride, .. } => {
                // "For a load, the stride must keep on being the same."
                let se = m.stride.lookup(ent.pc).ok_or(2usize)?;
                if !se.trusted() || se.stride != stride {
                    return Err(2);
                }
                // Address alignment is enforced by the sync-state
                // machine in the caller; when exact evidence is present
                // it must agree with the slot (belt and braces).
                if let Some(exp) = expected_addr {
                    if exp != ent.addr_of(replica) {
                        return Err(3);
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
                            return Err(3);
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
                        (SeqId::None, Some(_)) => return Err(4),
                        (_, None) => return Err(4),
                        (SeqId::Vec { pc, gen, off }, Some(s)) => {
                            let x = &self.ext[s as usize];
                            if !x.vs || x.seq != pc {
                                return Err(4);
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
                                .ok_or(4usize)?;
                            if p.gen != gen || p.decode != off + replica + 1 {
                                return Err(4);
                            }
                        }
                        (SeqId::SelfLoop, Some(s)) => {
                            let x = &self.ext[s as usize];
                            if !x.vs || x.seq != ent.pc {
                                return Err(4);
                            }
                        }
                        (SeqId::Scalar(_), Some(s)) => {
                            if self.ext[s as usize].vs {
                                return Err(4);
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
    /// replicas or none at all").
    fn alloc_one_storage(&mut self, m: &mut Mech) -> Option<(StorageId, u32)> {
        if let Some(sm) = &mut m.specmem {
            sm.alloc()
        } else {
            if self.rf.available() <= self.cfg.mech.replica_headroom {
                return None;
            }
            self.rf.alloc().map(|p| (p, 0))
        }
    }

    fn free_storage(&mut self, m: &mut Mech, storage: &[(StorageId, u32)]) {
        for &(id, _g) in storage {
            if let Some(sm) = &mut m.specmem {
                sm.release(id);
            } else {
                self.rf.free(id);
            }
        }
    }

    /// Tear down every entry created by an instruction younger than
    /// `seq` (the creator was squashed, so the entry's instance
    /// numbering no longer matches the dynamic stream).
    pub(crate) fn teardown_created_after(&mut self, m: &mut Mech, seq: u64) {
        let victims: Vec<usize> = m
            .srsmt
            .iter_valid()
            .filter(|(_, e)| e.creator > seq)
            .map(|(i, _)| i)
            .collect();
        for v in victims {
            self.teardown_srsmt(m, v, "creator_squashed");
        }
    }

    /// Tear down an SRSMT entry: free unconsumed storage and drop its
    /// in-flight replicas. `reason` labels the teardown in the trace.
    pub(crate) fn teardown_srsmt(&mut self, m: &mut Mech, idx: usize, reason: &'static str) {
        let Some(ent) = m.srsmt.invalidate(idx) else {
            return;
        };
        let storage = ent.unconsumed_storage();
        // SRSMT stores byte PCs; the trace uses word PCs.
        self.obs.trace(Subsystem::Vec, ent.pc >> 2, self.cycle, || {
            EventKind::Teardown {
                reason,
                entries: storage.len() as u32,
            }
        });
        self.free_storage(m, &storage);
        self.reap_replicas(|r| r.srsmt_idx == idx && r.pc == ent.pc && r.gen == ent.gen);
    }

    /// Drop every replica matching `pred`, closing its lifecycle record
    /// (if recording is on) as squashed-undelivered.
    pub(crate) fn reap_replicas(&mut self, pred: impl Fn(&Replica) -> bool) {
        for &lid in self.replicas.reap(pred) {
            self.obs.replica_end(lid, self.cycle, false);
        }
    }

    /// Whether the PC has mis-speculated at commit too often to be
    /// worth vectorizing again (off unless configured — see
    /// `MechConfig::misspec_blacklist`).
    fn blacklisted(&self, m: &Mech, bpc: u64) -> bool {
        m.misspec(bpc) >= self.cfg.mech.misspec_blacklist
    }

    /// Vectorize a strided load (§2.3.3). The stride predictor trains
    /// at commit, so `last_addr` is the last *committed* instance; the
    /// instance being decoded sits one stride per in-flight instance
    /// further on, and replicas cover the instances after it.
    #[allow(clippy::too_many_arguments)] // the paper's trigger needs all of them
    fn vectorize_load(
        &mut self,
        m: &mut Mech,
        bpc: u64,
        pc32: u32,
        creator: u64,
        inst: Inst,
        last_addr: u64,
        stride: i64,
    ) {
        // Address of the instance being decoded (= "instance -1" of the
        // replica stream), anchored on in-flight evidence when possible.
        let base = self
            .window_frontier_addr(pc32, stride)
            .unwrap_or_else(|inflight| {
                last_addr.wrapping_add((stride as u64).wrapping_mul(inflight + 1))
            });
        let mut ent = SrsmtEntry::new(
            bpc,
            inst,
            VecKind::Load { stride, base },
            self.cfg.mech.replicas_per_inst,
            SeqId::None,
            SeqId::None,
        );
        ent.event = m.sel_event(bpc);
        ent.creator = creator;
        match m.srsmt.alloc(ent) {
            AllocOutcome::Placed { idx, evicted } => {
                if let Some(old) = evicted {
                    let s = old.unconsumed_storage();
                    self.free_storage(m, &s);
                    self.reap_replicas(|r| r.pc == old.pc && r.gen == old.gen);
                }
                self.stats.vectorizations += 1;
                self.obs.trace(Subsystem::Vec, pc32 as u64, self.cycle, || {
                    EventKind::Vectorize {
                        kind: "load",
                        base,
                        stride,
                        count: self.cfg.mech.replicas_per_inst as u32,
                    }
                });
                while self.grow_one(m, idx) {}
            }
            AllocOutcome::Full => {}
        }
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
        let wants_seed = seed != 0;
        ent.event = [seqs[0], seqs[1]].iter().find_map(|s| match s {
            SeqId::Vec { pc, .. } => m
                .srsmt
                .find(*pc)
                .and_then(|i| m.srsmt.get(i))
                .and_then(|p| p.event),
            _ => None,
        });
        match m.srsmt.alloc(ent) {
            AllocOutcome::Placed { idx, evicted } => {
                if let Some(old) = evicted {
                    let s = old.unconsumed_storage();
                    self.free_storage(m, &s);
                    self.reap_replicas(|r| r.pc == old.pc && r.gen == old.gen);
                }
                if wants_seed {
                    let gen = m.srsmt.get(idx).unwrap().gen;
                    m.add_seed_waiter(seed, idx, gen);
                }
                self.stats.vectorizations += 1;
                self.obs.trace(Subsystem::Vec, e.pc as u64, self.cycle, || {
                    EventKind::Vectorize {
                        kind: "op",
                        base: 0,
                        stride: 0,
                        count: self.cfg.mech.replicas_per_inst as u32,
                    }
                });
                while self.grow_one(m, idx) {}
            }
            AllocOutcome::Full => {}
        }
    }

    /// Deliver a just-produced result to a self-loop entry waiting for
    /// its seed (called when the creating instruction completes).
    pub(crate) fn notify_seed(&mut self, seq: u64, value: u64) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        if let Some((idx, gen)) = m.take_seed_waiter(seq) {
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
            if m.srsmt.get(idx).map(|e| e.gen == gen).unwrap_or(false) {
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
        let event = ent.event;
        let (pc, gen, kind) = (ent.pc, ent.gen, ent.kind);
        let inst = ent.inst;
        let (seq1, seq2) = (ent.seq1, ent.seq2);
        let Some(storage) = self.alloc_one_storage(m) else {
            return false;
        };
        let ent = m.srsmt.get_mut(idx).unwrap();
        let k = ent.grow(storage);
        let work = match kind {
            VecKind::Load { .. } => {
                let addr = ent.load_addr(k).unwrap();
                ent.addrs[ent.slot(k)] = addr;
                RepKind::StridedLoad { addr }
            }
            VecKind::Op => {
                let own_gen = ent.gen;
                let mut srcs = [RepSrc::None, RepSrc::None];
                for (i, s) in [seq1, seq2].iter().enumerate() {
                    srcs[i] = match *s {
                        SeqId::None => RepSrc::None,
                        SeqId::Scalar(v) => RepSrc::Val(v),
                        SeqId::Vec { pc, gen, off } => RepSrc::Dep {
                            pc,
                            gen,
                            idx: off + k,
                        },
                        SeqId::SelfLoop => {
                            if k == 0 {
                                RepSrc::SeedSelf
                            } else {
                                RepSrc::Dep {
                                    pc,
                                    gen: own_gen,
                                    idx: k - 1,
                                }
                            }
                        }
                    };
                }
                RepKind::Op { inst, srcs }
            }
        };
        // SRSMT stores byte PCs; the lifecycle view uses word PCs.
        let lid = self.obs.replica_begin(pc / 4, inst, self.cycle);
        self.replicas.push(Replica {
            lid,
            pc,
            srsmt_idx: idx,
            gen,
            idx: k,
            kind: work,
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
    fn grow_pass(&mut self, m: &mut Mech) {
        let idxs: Vec<usize> = m.srsmt.iter_valid().map(|(i, _)| i).collect();
        for idx in idxs {
            while self.grow_one(m, idx) {}
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

    fn issue_replicas(&mut self, m: &mut Mech) {
        for ri in 0..self.replicas.len() {
            if self.res.issue == 0 {
                break;
            }
            if self.replicas[ri].state != RepState::Waiting {
                continue;
            }
            let rep = self.replicas[ri];
            // Entry still alive and on the same generation?
            let alive = m
                .srsmt
                .get(rep.srsmt_idx)
                .map(|e| e.pc == rep.pc && e.gen == rep.gen)
                .unwrap_or(false);
            if !alive {
                continue; // purged lazily in complete_replicas
            }
            // Resolve sources.
            let mut vals = [0u64; 2];
            let mut ready = true;
            let mut dead = false;
            if let RepKind::Op { srcs, .. } = rep.kind {
                for (k, s) in srcs.iter().enumerate() {
                    match *s {
                        RepSrc::None => {}
                        RepSrc::Val(v) => vals[k] = v,
                        RepSrc::SeedSelf => {
                            match m.srsmt.get(rep.srsmt_idx).and_then(|e| e.seed_value) {
                                Some(v) => vals[k] = v,
                                None => ready = false,
                            }
                        }
                        RepSrc::Dep { pc, gen, idx } => {
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
                                        vals[k] = p.value_of(idx);
                                    } else {
                                        ready = false;
                                    }
                                }
                                _ => dead = true,
                            }
                        }
                    }
                }
            }
            if dead {
                if let Some(e) = m.srsmt.get_mut(rep.srsmt_idx) {
                    e.kill_replica(rep.idx);
                }
                // Reaped in complete_replicas (dead path).
                self.replicas[ri].state = RepState::Exec { done_at: 0 };
                continue;
            }
            if !ready {
                continue;
            }
            // Resources + compute.
            let (value, addr, done_at) = match rep.kind {
                RepKind::StridedLoad { addr } => {
                    let Some(lat) = self.arbitrate_load(addr) else {
                        continue;
                    };
                    (self.mem.read(addr), Some(addr), self.cycle + lat as u64)
                }
                RepKind::Op { inst, .. } => match inst {
                    Inst::Ld { offset, .. } => {
                        let a = cfir_emu::MemImage::align(vals[0].wrapping_add(offset as u64));
                        let Some(lat) = self.arbitrate_load(a) else {
                            continue;
                        };
                        (self.mem.read(a), Some(a), self.cycle + lat as u64)
                    }
                    _ => {
                        let Some(value) = alu_result(inst, vals[0], vals[1]) else {
                            continue;
                        };
                        if !self.take_fu(inst.class()) {
                            continue;
                        }
                        let done_at = self.cycle + inst.class().latency().unwrap() as u64;
                        (value, None, done_at)
                    }
                },
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
            if let Some(e) = m.srsmt.get_mut(rep.srsmt_idx) {
                e.issue += 1;
            }
            self.stats.replicas_executed += 1;
            let event = m.srsmt.get(rep.srsmt_idx).and_then(|e| e.event);
            self.stats.branch_prof.note_replica_executed(event);
            // Lifecycle: the replica issued this cycle; a load that ran
            // longer than an L1 hit also gets a cache-miss wait-edge.
            let lat = done_at.saturating_sub(self.cycle) as u32;
            let miss = addr.is_some() && lat > self.cfg.hierarchy.l1_hit;
            self.obs.issue(rep.lid, self.cycle);
            if miss {
                let level = self.miss_level(lat);
                self.obs
                    .wait_edge(rep.lid, WaitEdgeKind::CacheMiss, || None, level, self.cycle);
            }
        }
    }

    /// Deliver completed replicas (called from writeback).
    pub(crate) fn complete_replicas(&mut self) {
        let Some(mut m) = self.mech.take() else {
            return;
        };
        let cycle = self.cycle;
        let mut i = 0;
        while i < self.replicas.len() {
            let rep = self.replicas[i];
            let done = matches!(rep.state, RepState::Exec { done_at } if done_at <= cycle);
            let alive = m
                .srsmt
                .get(rep.srsmt_idx)
                .map(|e| e.pc == rep.pc && e.gen == rep.gen)
                .unwrap_or(false);
            if !alive {
                // Entry gone: drop the record (storage already freed).
                self.replicas.swap_remove(i);
                self.obs.replica_end(rep.lid, cycle, false);
                continue;
            }
            if done {
                let ent = m.srsmt.get_mut(rep.srsmt_idx).unwrap();
                if rep.idx < ent.commit || ent.is_dead(rep.idx) {
                    // Slot recycled/skipped while executing.
                    ent.issue = ent.issue.saturating_sub(1);
                    self.replicas.swap_remove(i);
                    self.obs.replica_end(rep.lid, cycle, false);
                    continue;
                }
                ent.complete_replica(rep.idx, rep.value, rep.addr);
                ent.issue = ent.issue.saturating_sub(1);
                let s = ent.slot(rep.idx);
                let storage = ent.regs[s];
                if let Some(sm) = &mut m.specmem {
                    sm.write(storage, rep.value);
                } else {
                    self.rf.write(storage, rep.value);
                }
                self.replicas.swap_remove(i);
                self.obs.replica_end(rep.lid, cycle, true);
                continue;
            }
            i += 1;
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
                let event = self.stats.events.open_event();
                self.stats.branch_prof.note_event(bpc, event);
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
                    // The NRBQ OR (kept for the or_masks_from API and its
                    // tests) over-taints when the wrong path runs past the
                    // re-convergent point; the window walk computes the
                    // §2.3.2 quantity — writes after the branch and
                    // *before the RCP is reached* — exactly.
                    let mask = self.wrong_path_mask(rob_idx, rcp);
                    m.crp.activate(rcp, mask, event);
                    if mode == Mode::CiIw {
                        self.harvest_squash_buf(&mut m, rob_idx, rcp, mask, event);
                    }
                }
            } else {
                self.stats.events.mispredict_without_event();
            }
        }
        m.nrbq.squash_younger(bseq);
        // Entries whose creating instruction is being squashed lose
        // their instance alignment.
        self.teardown_created_after(&mut m, bseq);
        // §2.4.4: decode <- commit for every entry; replicas are NOT
        // squashed. §2.4.2: DAEC ticks, idle entries torn down.
        let released = m.srsmt.recovery();
        for ent in released {
            let storage = ent.unconsumed_storage();
            self.free_storage(&mut m, &storage);
            self.reap_replicas(|r| r.pc == ent.pc && r.gen == ent.gen);
        }
        self.mech = Some(m);
    }

    /// Rebuild the ci-iw squash-reuse buffer from the wrong path that
    /// is about to be squashed.
    fn harvest_squash_buf(
        &mut self,
        m: &mut Mech,
        branch_idx: usize,
        rcp: u32,
        init_mask: u64,
        event: u64,
    ) {
        m.clear_squash_buf();
        let mut mask = init_mask;
        let mut reached = false;
        for j in branch_idx + 1..self.rob.len() {
            let e = &self.rob[j];
            if !reached && e.pc == rcp {
                reached = true;
            }
            let mut is_ci = false;
            if reached
                && e.state == RobState::Done
                && e.reuse.is_none()
                && e.ldest.is_some()
                && !e.inst.is_control()
            {
                is_ci = e
                    .inst
                    .sources()
                    .iter()
                    .flatten()
                    .all(|&r| mask & (1u64 << r) == 0);
            }
            if is_ci {
                self.stats.events.mark_selected(event);
                m.squash_buf[e.pc as usize].push_back(SquashReuse {
                    value: e.value,
                    event,
                });
            } else if let Some(d) = e.ldest {
                mask |= 1u64 << d;
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
        let mut counts: HashMap<usize, u32> = HashMap::new();
        for e in &self.rob {
            if let Some(r) = &e.reuse {
                if let Some(idx) = r.srsmt_idx {
                    if let Some(ent) = m.srsmt.get(idx) {
                        if ent.pc == Program::byte_pc(e.pc) && ent.gen == r.gen {
                            *counts.entry(idx).or_insert(0) += 1;
                        }
                    }
                }
            }
            if let Some(pr) = &e.probe {
                if let Some(ent) = m.srsmt.get(pr.srsmt_idx) {
                    if ent.pc == Program::byte_pc(e.pc) && ent.gen == pr.gen {
                        *counts.entry(pr.srsmt_idx).or_insert(0) += 1;
                    }
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
        let (p, mem) = hammock();
        let p: &'static Program = Box::leak(Box::new(p));
        let mut cfg = SimConfig::paper_baseline()
            .with_mode(mode)
            .with_regs(RegFileSize::Finite(512))
            .with_max_insts(u64::MAX >> 1);
        cfg.cosim_check = true;
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
        let (_, sel, reu) = pipe.stats.events.counts();
        assert_eq!(sel, 0, "no CI selection events in vect mode");
        let _ = reu;
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
