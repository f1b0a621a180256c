//! CIDI/CIDD classification of control-independent regions.
//!
//! For every hammock branch with an exact reconvergence PC, every
//! instruction of the static CI region (the post-dominator chain
//! behind the join, capped at [`DEFAULT_HORIZON`]) is classified by
//! whether its *inputs* can depend on the divergent arms:
//!
//! * **CIDI** (control-independent, data-independent) — no register
//!   def on either arm, and no arm store, can reach any of its inputs:
//!   after a misprediction its saved result is reusable as-is, and
//!   validation must succeed.
//! * **CIDD** (control-independent, data-dependent) — some arm def
//!   reaches one of its inputs (directly, or transitively through the
//!   def-use chains): reuse needs validation and may be partial,
//!   because only the arm that actually executes decides the value.
//! * **Clobbered** — the instruction is a load whose loaded value may
//!   be killed by an arm store (the arms' memory write mask): the
//!   saved result cannot be trusted at all.
//!
//! The register channel is exact up to the flow-insensitivity of the
//! taint (a static def site tainted once is tainted for every
//! execution of that PC). The memory channel is the documented
//! approximation: an arm store may-aliases a CI load when either base
//! register is load-derived in the stride lattice (pointer chasing —
//! no static claim possible), or when both sites use the same base
//! register with the same offset and the *same* reaching definitions
//! of that base (provably the same address). Regular strided accesses
//! through distinct bases are assumed disjoint — the workload kernels
//! place their arrays in disjoint regions, and DESIGN.md records the
//! imprecision.

use crate::branches::{arm_blocks, ci_region_blocks, BranchInfo};
use crate::cfg::Cfg;
use crate::dataflow::Dataflow;
use crate::dom::DomTree;
use crate::loops::LoopInfo;
use crate::strides::{RegClass, StrideInfo};
use cfir_isa::{Inst, Program};

/// Default cap on how many CI-region instructions are classified per
/// branch (the region can span whole loop bodies; reuse hardware only
/// ever looks this far behind the join).
pub const DEFAULT_HORIZON: u32 = 64;

/// Static reuse verdict for one CI-region instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Inputs untouched by either arm: reuse must succeed.
    Cidi,
    /// An arm def (transitively) reaches an input: validation required.
    Cidd,
    /// An arm store may kill the loaded value: reuse impossible.
    Clobbered,
}

impl Verdict {
    /// Short lowercase name for reports and snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Cidi => "cidi",
            Verdict::Cidd => "cidd",
            Verdict::Clobbered => "clobbered",
        }
    }
}

/// Per-instruction verdict inside one branch's CI region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstVerdict {
    /// Word PC of the classified instruction.
    pub pc: u32,
    /// Its static reuse verdict.
    pub verdict: Verdict,
}

/// CIDI classification of one hammock branch's CI region.
#[derive(Debug, Clone)]
pub struct BranchCidi {
    /// Word PC of the branch.
    pub branch_pc: u32,
    /// Its exact reconvergence PC.
    pub rcp: u32,
    /// Verdicts in region order (first = the join instruction),
    /// capped at the horizon.
    pub verdicts: Vec<InstVerdict>,
    /// Verdict counts (redundant with `verdicts`, kept for reports).
    pub n_cidi: u32,
    /// Instructions classified CIDD.
    pub n_cidd: u32,
    /// Instructions classified clobbered.
    pub n_clobbered: u32,
}

impl BranchCidi {
    /// Fraction of classified instructions that are CIDI (1.0 for an
    /// empty region: nothing contradicts reuse).
    pub fn cidi_fraction(&self) -> f64 {
        if self.verdicts.is_empty() {
            1.0
        } else {
            self.n_cidi as f64 / self.verdicts.len() as f64
        }
    }
}

/// CIDI classification of every eligible branch of a program.
#[derive(Debug, Clone, Default)]
pub struct CidiAnalysis {
    /// Per-branch classifications, in branch PC order. Only hammock
    /// branches with an exact RCP appear.
    pub branches: Vec<BranchCidi>,
    /// The horizon the classification ran with.
    pub horizon: u32,
}

impl CidiAnalysis {
    /// Classification for the branch at `pc`, if it was eligible.
    pub fn for_branch(&self, pc: u32) -> Option<&BranchCidi> {
        self.branches.iter().find(|b| b.branch_pc == pc)
    }

    /// Mean CIDI fraction over all classified branches (1.0 when there
    /// are none).
    pub fn mean_cidi_fraction(&self) -> f64 {
        if self.branches.is_empty() {
            1.0
        } else {
            self.branches.iter().map(|b| b.cidi_fraction()).sum::<f64>()
                / self.branches.len() as f64
        }
    }
}

/// Classify every hammock branch of `prog` with horizon `horizon`.
#[allow(clippy::too_many_arguments)]
pub fn classify(
    prog: &Program,
    cfg: &Cfg,
    pdom: &DomTree,
    loops: &LoopInfo,
    strides: &StrideInfo,
    dataflow: &Dataflow,
    branches: &[BranchInfo],
    horizon: u32,
) -> CidiAnalysis {
    let mut out = CidiAnalysis {
        branches: Vec::new(),
        horizon,
    };
    for b in branches {
        if !b.class.is_hammock() {
            continue;
        }
        let Some(rcp) = b.rcp else { continue };
        let bb = cfg.block_of[b.pc as usize];
        let jb = cfg.block_of[rcp as usize];
        // PCs of both arms, and the CI-region PCs in region order,
        // capped at the horizon.
        let mut arm_pcs: Vec<u32> = arm_blocks(cfg, &cfg.blocks[bb].succs, jb)
            .flat_map(|blk| cfg.blocks[blk].pcs())
            .collect();
        arm_pcs.sort_unstable();
        let region: Vec<u32> = ci_region_blocks(cfg, pdom, loops, jb)
            .flat_map(|blk| cfg.blocks[blk].pcs())
            .take(horizon as usize)
            .collect();
        out.branches.push(classify_branch(
            prog, strides, dataflow, b.pc, rcp, &arm_pcs, &region,
        ));
    }
    out
}

fn classify_branch(
    prog: &Program,
    strides: &StrideInfo,
    df: &Dataflow,
    branch_pc: u32,
    rcp: u32,
    arm_pcs: &[u32],
    region: &[u32],
) -> BranchCidi {
    // Arm facts: register def sites and stores.
    let arm_defs: Vec<u32> = arm_pcs.iter().filter_map(|&pc| df.def_at(pc)).collect();
    let arm_stores: Vec<u32> = arm_pcs
        .iter()
        .copied()
        .filter(|&pc| prog.insts[pc as usize].is_store())
        .collect();
    // Memory channel first: clobbered CI loads seed the register taint
    // too (their loaded value is as suspect as an arm-written register).
    let clobbered: Vec<u32> = region
        .iter()
        .copied()
        .filter(|&pc| {
            arm_stores
                .iter()
                .any(|&st| may_alias(prog, strides, df, st, pc))
        })
        .collect();
    // Register channel: taint fixpoint over def sites through the
    // def-use chains. Seeds: arm defs + clobbered CI load defs.
    let mut tainted = vec![false; df.n_defs()];
    let mut work: Vec<u32> = Vec::new();
    for &id in &arm_defs {
        tainted[id as usize] = true;
        work.push(id);
    }
    for &pc in &clobbered {
        if let Some(id) = df.def_at(pc) {
            if !tainted[id as usize] {
                tainted[id as usize] = true;
                work.push(id);
            }
        }
    }
    while let Some(id) = work.pop() {
        for &use_pc in df.uses_of(id) {
            if let Some(did) = df.def_at(use_pc) {
                if !tainted[did as usize] {
                    tainted[did as usize] = true;
                    work.push(did);
                }
            }
        }
    }
    // Verdict per region instruction.
    let mut verdicts = Vec::with_capacity(region.len());
    let (mut n_cidi, mut n_cidd, mut n_clobbered) = (0u32, 0u32, 0u32);
    for &pc in region {
        let verdict = if clobbered.contains(&pc) {
            n_clobbered += 1;
            Verdict::Clobbered
        } else {
            let inst = prog.insts[pc as usize];
            let data_dep = inst.sources().into_iter().flatten().any(|src| {
                df.reaching_defs(pc, src)
                    .iter()
                    .any(|&id| tainted[id as usize])
            });
            if data_dep {
                n_cidd += 1;
                Verdict::Cidd
            } else {
                n_cidi += 1;
                Verdict::Cidi
            }
        };
        verdicts.push(InstVerdict { pc, verdict });
    }
    BranchCidi {
        branch_pc,
        rcp,
        verdicts,
        n_cidi,
        n_cidd,
        n_clobbered,
    }
}

/// May the arm store at `st` write the address the load at `ld` reads?
/// (Both are PCs; `ld` must actually be a load for `true`.)
fn may_alias(prog: &Program, strides: &StrideInfo, df: &Dataflow, st: u32, ld: u32) -> bool {
    let (
        Inst::St {
            base: sb,
            offset: so,
            ..
        },
        Inst::Ld {
            base: lb,
            offset: lo,
            ..
        },
    ) = (prog.insts[st as usize], prog.insts[ld as usize])
    else {
        return false;
    };
    let sc = strides.reg_class[sb as usize];
    let lc = strides.reg_class[lb as usize];
    // Pointer-chasing on either side: no static claim possible.
    if sc == RegClass::LoadDerived || lc == RegClass::LoadDerived {
        return true;
    }
    // Same base register, same offset, same reaching definitions of
    // the base: provably the same address.
    sb == lb && so == lo && df.reaching_defs(st, sb) == df.reaching_defs(ld, lb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use cfir_isa::assemble;

    fn cidi_of(src: &str) -> CidiAnalysis {
        analyze(&assemble("t", src).unwrap()).cidi
    }

    #[test]
    fn figure_1_ci_region_is_fully_cidi() {
        // The arms write r2/r3; the CI region (add r4/addi r1/blt)
        // never reads them: textbook CIDI.
        let c = cidi_of(
            r#"
            li r1, 0           ; 0
            li r6, 80          ; 1
            li r2, 0           ; 2
            li r3, 0           ; 3
            li r4, 0           ; 4
        loop:
            ld r8, 0(r1)       ; 5
            beq r8, r0, else_  ; 6
            addi r2, r2, 1     ; 7
            jmp ip             ; 8
        else_:
            addi r3, r3, 1     ; 9
        ip:
            add r4, r4, r8     ; 10
            addi r1, r1, 8     ; 11
            blt r1, r6, loop   ; 12
            halt               ; 13
            "#,
        );
        let b = c.for_branch(6).expect("hammock classified");
        assert_eq!(b.rcp, 10);
        assert_eq!(b.verdicts.len(), 3);
        assert!(b.verdicts.iter().all(|v| v.verdict == Verdict::Cidi));
        assert_eq!(b.cidi_fraction(), 1.0);
    }

    #[test]
    fn arm_def_read_after_join_is_cidd() {
        let c = cidi_of(
            r#"
            beq r9, r0, else_ ; 0
            addi r2, r2, 1    ; 1  arm writes r2
            jmp join          ; 2
        else_:
            addi r3, r3, 1    ; 3  arm writes r3
        join:
            add r4, r2, r3    ; 4  reads both arm defs -> CIDD
            addi r5, r5, 1    ; 5  untouched -> CIDI
            halt              ; 6
            "#,
        );
        let b = c.for_branch(0).unwrap();
        assert_eq!(b.verdicts[0].verdict, Verdict::Cidd);
        assert_eq!(b.verdicts[1].verdict, Verdict::Cidi);
        assert_eq!(b.n_cidd, 1);
    }

    #[test]
    fn taint_propagates_transitively() {
        let c = cidi_of(
            r#"
            beq r9, r0, skip  ; 0
            addi r2, r2, 1    ; 1  arm writes r2
        skip:
            add r3, r2, r0    ; 2  CIDD (reads r2)
            add r4, r3, r0    ; 3  CIDD (reads tainted r3)
            add r5, r6, r0    ; 4  CIDI
            halt              ; 5
            "#,
        );
        let b = c.for_branch(0).unwrap();
        let v: Vec<Verdict> = b.verdicts.iter().map(|x| x.verdict).collect();
        assert_eq!(
            v,
            vec![Verdict::Cidd, Verdict::Cidd, Verdict::Cidi, Verdict::Cidi]
        );
    }

    #[test]
    fn arm_store_clobbers_same_address_load() {
        let c = cidi_of(
            r#"
            li r1, 4096       ; 0
            beq r9, r0, skip  ; 1
            st r8, 0(r1)      ; 2  arm store to [r1]
        skip:
            ld r2, 0(r1)      ; 3  same base, same offset, same def of r1
            ld r3, 8(r1)      ; 4  different offset: assumed disjoint
            halt              ; 5
            "#,
        );
        let b = c.for_branch(1).unwrap();
        assert_eq!(b.verdicts[0].verdict, Verdict::Clobbered);
        // The clobbered load's result taints downstream reads, but the
        // disjoint-offset load stays clean.
        assert_eq!(b.verdicts[1].verdict, Verdict::Cidi);
        assert_eq!(b.n_clobbered, 1);
    }

    #[test]
    fn pointer_chase_store_clobbers_conservatively() {
        let c = cidi_of(
            r#"
            li r1, 4096       ; 0
            ld r7, 0(r1)      ; 1  r7 load-derived
            beq r9, r0, skip  ; 2
            st r8, 0(r7)      ; 3  store through chased pointer
        skip:
            ld r2, 0(r1)      ; 4  may alias: no static claim
            halt              ; 5
            "#,
        );
        let b = c.for_branch(2).unwrap();
        assert_eq!(b.verdicts[0].verdict, Verdict::Clobbered);
    }

    #[test]
    fn clobbered_load_taints_downstream_uses() {
        let c = cidi_of(
            r#"
            li r1, 4096       ; 0
            beq r9, r0, skip  ; 1
            st r8, 0(r1)      ; 2
        skip:
            ld r2, 0(r1)      ; 3  clobbered
            add r3, r2, r0    ; 4  reads the clobbered value -> CIDD
            halt              ; 5
            "#,
        );
        let b = c.for_branch(1).unwrap();
        assert_eq!(b.verdicts[0].verdict, Verdict::Clobbered);
        assert_eq!(b.verdicts[1].verdict, Verdict::Cidd);
    }

    #[test]
    fn horizon_caps_the_classified_region() {
        let mut src = String::from("beq r9, r0, skip\naddi r2, r2, 1\nskip:\n");
        for _ in 0..100 {
            src.push_str("addi r5, r5, 1\n");
        }
        src.push_str("halt\n");
        let c = cidi_of(&src);
        let b = c.for_branch(0).unwrap();
        assert_eq!(b.verdicts.len() as u32, DEFAULT_HORIZON);
    }

    #[test]
    fn non_hammock_branches_are_not_classified() {
        let c = cidi_of(
            r#"
            li r1, 0
        loop:
            addi r1, r1, 1
            blt r1, r2, loop  ; loopback, not a hammock
            halt
            "#,
        );
        assert!(c.branches.is_empty());
        assert_eq!(c.mean_cidi_fraction(), 1.0);
    }
}
