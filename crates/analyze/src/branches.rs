//! Per-branch static reconvergence analysis.
//!
//! For every conditional branch the analyzer computes the exact
//! post-dominator-based reconvergence point — the first PC control is
//! guaranteed to reach whichever way the branch goes — plus a *hammock
//! class* describing the shape of the divergent region, the static
//! control-independent (CI) region behind the reconvergence point, and
//! how many loads in that region are statically strided (the case the
//! paper's dynamic-vectorization mechanism exploits best).

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::loops::LoopInfo;
use crate::strides::{LoadClass, StrideInfo};
use cfir_isa::Program;

/// Shape of the region guarded by one conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchClass {
    /// Taken target equals the fallthrough PC: the branch guards nothing.
    Degenerate,
    /// Backward branch whose taken block dominates the branch: a loop
    /// latch. Reconvergence is the fallthrough (loop exit side).
    LoopBack,
    /// One-sided hammock: one successor *is* the join.
    IfThen,
    /// Two-sided hammock (diamond): both arms meet at the join.
    IfThenElse,
    /// Anything else (shared tails, breaks out of the region, …).
    Complex,
}

impl BranchClass {
    /// Short lowercase name for reports and snapshots.
    pub fn name(self) -> &'static str {
        match self {
            BranchClass::Degenerate => "degenerate",
            BranchClass::LoopBack => "loopback",
            BranchClass::IfThen => "ifthen",
            BranchClass::IfThenElse => "ifthenelse",
            BranchClass::Complex => "complex",
        }
    }

    /// `true` for the shapes the paper's heuristic targets (forward
    /// hammocks with a unique join).
    pub fn is_hammock(self) -> bool {
        matches!(self, BranchClass::IfThen | BranchClass::IfThenElse)
    }
}

/// Static facts about one conditional branch.
#[derive(Debug, Clone)]
pub struct BranchInfo {
    /// Word PC of the branch instruction.
    pub pc: u32,
    /// Taken-path target PC.
    pub target: u32,
    /// Fallthrough PC (`pc + 1`), `None` when the branch is the last
    /// instruction of the program.
    pub fallthrough: Option<u32>,
    /// Shape classification.
    pub class: BranchClass,
    /// Exact reconvergence PC: start of the immediate-post-dominator
    /// block of the branch's block. `None` when both paths only meet
    /// at the virtual exit (no in-program reconvergence).
    pub rcp: Option<u32>,
    /// Loop nesting depth of the branch's block.
    pub loop_depth: u32,
    /// Number of instructions in the static CI region behind `rcp`:
    /// the post-dominator chain from the reconvergence block while it
    /// stays at the branch's nesting depth or deeper.
    pub ci_region_len: u32,
    /// Loads inside the CI region classified as statically strided.
    pub ci_strided_loads: u32,
    /// Total loads inside the CI region.
    pub ci_loads: u32,
}

/// Analyze every conditional branch of `prog`.
pub fn analyze_branches(
    prog: &Program,
    cfg: &Cfg,
    dom: &DomTree,
    pdom: &DomTree,
    loops: &LoopInfo,
    strides: &StrideInfo,
) -> Vec<BranchInfo> {
    let mut out = Vec::new();
    for (pc, inst) in prog.insts.iter().enumerate() {
        if !inst.is_cond_branch() {
            continue;
        }
        let pc = pc as u32;
        let target = inst.static_target().expect("cond branch has target");
        let fallthrough = if (pc as usize) + 1 < prog.len() {
            Some(pc + 1)
        } else {
            None
        };
        let bb = cfg.block_of[pc as usize];
        let loop_depth = loops.depth_of(bb);
        // Immediate post-dominator of the branch block = the join.
        let jb = pdom.idom_of(bb).filter(|&j| j != cfg.exit);
        let rcp = jb.map(|j| cfg.blocks[j].start);
        let class = classify(cfg, dom, pc, target, fallthrough, bb, jb);
        let (ci_region_len, ci_loads, ci_strided_loads) = match jb {
            Some(j) => ci_region(cfg, pdom, loops, strides, j),
            None => (0, 0, 0),
        };
        out.push(BranchInfo {
            pc,
            target,
            fallthrough,
            class,
            rcp,
            loop_depth,
            ci_region_len,
            ci_loads,
            ci_strided_loads,
        });
    }
    out
}

fn classify(
    cfg: &Cfg,
    dom: &DomTree,
    pc: u32,
    target: u32,
    fallthrough: Option<u32>,
    bb: usize,
    jb: Option<usize>,
) -> BranchClass {
    if Some(target) == fallthrough {
        return BranchClass::Degenerate;
    }
    let tb = match cfg.block_at(target) {
        Some(b) => b,
        None => return BranchClass::Complex, // out-of-range target (lint)
    };
    if target <= pc && dom.dominates(tb, bb) {
        return BranchClass::LoopBack;
    }
    let Some(j) = jb else {
        return BranchClass::Complex;
    };
    let fb = fallthrough.map(|f| cfg.block_of[f as usize]);
    // One successor is the join itself: if-then (the other arm is the
    // "then" side). Require the arm region to be *clean*: every block
    // of it dominated by the branch block, so nothing jumps into the
    // middle of the hammock.
    let arm_clean = |arm: usize| arm_blocks(cfg, &[arm], j).all(|b| dom.dominates(bb, b));
    match fb {
        Some(f) => {
            let t_is_join = tb == j;
            let f_is_join = f == j;
            if t_is_join && f_is_join {
                BranchClass::Degenerate
            } else if t_is_join {
                if arm_clean(f) {
                    BranchClass::IfThen
                } else {
                    BranchClass::Complex
                }
            } else if f_is_join {
                if arm_clean(tb) {
                    BranchClass::IfThen
                } else {
                    BranchClass::Complex
                }
            } else if arm_clean(tb) && arm_clean(f) {
                BranchClass::IfThenElse
            } else {
                BranchClass::Complex
            }
        }
        None => BranchClass::Complex,
    }
}

/// The blocks of a hammock's arms: those reachable from `starts`
/// without passing through the join block `jb` (or the virtual exit),
/// each once, in no particular order.
pub(crate) fn arm_blocks<'a>(
    cfg: &'a Cfg,
    starts: &[usize],
    jb: usize,
) -> impl Iterator<Item = usize> + 'a {
    let mut seen = vec![false; cfg.len()];
    let mut stack = starts.to_vec();
    std::iter::from_fn(move || loop {
        let b = stack.pop()?;
        if b != jb && b != cfg.exit && !std::mem::replace(&mut seen[b], true) {
            stack.extend(&cfg.blocks[b].succs);
            return Some(b);
        }
    })
}

/// The blocks of the CI region behind join block `j`, in region order:
/// the post-dominator chain from `j` while blocks stay at `j`'s loop
/// nesting depth or deeper (leaving the loop ends control independence
/// for the paper's per-iteration reuse).
pub(crate) fn ci_region_blocks<'a>(
    cfg: &'a Cfg,
    pdom: &'a DomTree,
    loops: &'a LoopInfo,
    j: usize,
) -> impl Iterator<Item = usize> + 'a {
    let base_depth = loops.depth_of(j);
    std::iter::successors(Some(j), move |&cur| {
        pdom.idom_of(cur)
            .filter(|&next| next != cfg.exit && loops.depth_of(next) >= base_depth)
    })
}

/// Instruction count + load stats of the CI region behind join block
/// `j`.
fn ci_region(
    cfg: &Cfg,
    pdom: &DomTree,
    loops: &LoopInfo,
    strides: &StrideInfo,
    j: usize,
) -> (u32, u32, u32) {
    let (mut len, mut n_loads, mut n_strided) = (0u32, 0u32, 0u32);
    for b in ci_region_blocks(cfg, pdom, loops, j) {
        len += cfg.blocks[b].len();
        for lc in cfg.blocks[b].pcs().filter_map(|pc| strides.load_class(pc)) {
            n_loads += 1;
            n_strided += u32::from(lc == LoadClass::Strided);
        }
    }
    (len, n_loads, n_strided)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use cfir_isa::assemble;

    fn branches(src: &str) -> Vec<BranchInfo> {
        analyze(&assemble("t", src).unwrap()).branches
    }

    #[test]
    fn if_then_branch() {
        let b = branches(
            r#"
            beq r1, r0, skip  ; 0
            addi r2, r2, 1    ; 1
        skip:
            add r3, r3, r2    ; 2
            halt              ; 3
            "#,
        );
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].class, BranchClass::IfThen);
        assert_eq!(b[0].rcp, Some(2));
        assert_eq!(b[0].ci_region_len, 2, "join block: add + halt");
    }

    #[test]
    fn if_then_else_diamond() {
        let b = branches(
            r#"
            beq r1, r0, else_ ; 0
            addi r2, r2, 1    ; 1
            jmp join          ; 2
        else_:
            addi r3, r3, 1    ; 3
        join:
            add r4, r4, r2    ; 4
            halt              ; 5
            "#,
        );
        assert_eq!(b[0].class, BranchClass::IfThenElse);
        assert_eq!(b[0].rcp, Some(4));
    }

    #[test]
    fn loop_latch_is_loopback() {
        let b = branches(
            r#"
            li r1, 0          ; 0
        loop:
            addi r1, r1, 1    ; 1
            blt r1, r2, loop  ; 2
            halt              ; 3
            "#,
        );
        assert_eq!(b[0].class, BranchClass::LoopBack);
        assert_eq!(b[0].rcp, Some(3), "reconverges at the loop exit");
        assert_eq!(b[0].loop_depth, 1);
    }

    #[test]
    fn degenerate_branch_to_next_pc() {
        let b = branches("beq r1, r0, 1\nhalt");
        assert_eq!(b[0].class, BranchClass::Degenerate);
        assert_eq!(b[0].rcp, Some(1));
    }

    #[test]
    fn arms_meeting_at_tail_is_diamond() {
        // Uneven arm lengths, meeting at a shared tail: the pdom join
        // is the tail and both arms are clean — still a diamond.
        let b = branches(
            r#"
            beq r1, r0, else_ ; 0
            addi r2, r2, 1    ; 1
            jmp tail          ; 2
        else_:
            addi r3, r3, 1    ; 3
            addi r3, r3, 2    ; 4
        tail:
            halt              ; 5
            "#,
        );
        assert_eq!(b[0].class, BranchClass::IfThenElse);
        assert_eq!(b[0].rcp, Some(5));
    }

    #[test]
    fn side_entry_into_arm_is_complex() {
        // The arm block is also entered from outside the hammock, so it
        // is not dominated by the branch: Complex, but the pdom join is
        // still exact.
        let b = branches(
            r#"
            beq r9, r0, shared ; 0
            nop                ; 1
            beq r1, r0, join   ; 2  <- branch under test
        shared:
            addi r2, r2, 1     ; 3  arm, but also entered from pc 0
        join:
            halt               ; 4
            "#,
        );
        let under_test = &b[1];
        assert_eq!(under_test.pc, 2);
        assert_eq!(under_test.class, BranchClass::Complex);
        assert_eq!(under_test.rcp, Some(4));
    }

    #[test]
    fn paths_meeting_only_at_exit_have_no_rcp() {
        // Both arms halt separately: the only common point is the
        // virtual exit, so there is no in-program reconvergence PC.
        let b = branches(
            r#"
            beq r1, r0, done ; 0
            addi r2, r2, 1   ; 1
            halt             ; 2
        done:
            halt             ; 3
            "#,
        );
        assert_eq!(b[0].class, BranchClass::Complex);
        assert_eq!(b[0].rcp, None);
    }

    #[test]
    fn ci_region_stops_at_loop_exit() {
        let b = branches(
            r#"
            li r1, 0           ; 0
            li r5, 4096        ; 1
        loop:
            beq r2, r0, skip   ; 2
            addi r3, r3, 1     ; 3
        skip:
            ld r4, 0(r1)       ; 4  strided (r1 induction)
            addi r1, r1, 8     ; 5
            blt r1, r6, loop   ; 6
            halt               ; 7
            "#,
        );
        let hb = &b[0]; // the beq
        assert_eq!(hb.class, BranchClass::IfThen);
        assert_eq!(hb.rcp, Some(4));
        // CI region = the join block [4..7); the `halt` block is at
        // depth 0 < 1 so the walk stops at the loop boundary.
        assert_eq!(hb.ci_region_len, 3);
        assert_eq!(hb.ci_loads, 1);
        assert_eq!(hb.ci_strided_loads, 1);
    }
}
