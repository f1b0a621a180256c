//! # cfir-analyze — static CFG / post-dominator analysis of guest programs
//!
//! The simulator's re-convergence detector (`cfir_core::rcp::estimate`)
//! is a *dynamic heuristic*: cheap, per-branch, and occasionally wrong.
//! This crate computes the *static truth* for any [`Program`]:
//!
//! * basic-block CFG with indirect-target resolution ([`cfg`](mod@cfg)),
//! * dominator and post-dominator trees via Cooper–Harvey–Kennedy
//!   ([`dom`]),
//! * natural-loop nesting ([`loops`]),
//! * per-branch hammock classification, the exact post-dominator-based
//!   reconvergence PC, and the static control-independent region behind
//!   it ([`branches`]),
//! * static stride classification of loads ([`strides`]),
//! * reaching definitions, liveness and def-use chains via a classic
//!   iterative dataflow engine ([`dataflow`]),
//! * CIDI/CIDD/clobbered reuse verdicts for every hammock's CI region
//!   ([`cidi`]),
//! * a workload lint pass ([`lint`]),
//! * JSON reports and the static-vs-dynamic agreement metric
//!   ([`report`]).
//!
//! The analysis is exact for direct control flow; `jr` targets are
//! over-approximated (see [`cfg::Cfg`]). It is used three ways: the
//! `cfir-analyze` binary dumps per-kernel reports, the simulator seeds
//! its branch scorecards with static truth and counts runtime
//! (dis)agreement, and the workload tests lint every kernel.
//!
//! ```
//! let prog = cfir_isa::assemble(
//!     "demo",
//!     "beq r0, r0, 2\n addi r1, r0, 1\n halt",
//! )
//! .unwrap();
//! let analysis = cfir_analyze::analyze(&prog);
//! assert_eq!(analysis.branches[0].rcp, Some(2));
//! assert!(analysis.lints.is_empty());
//! ```

pub mod branches;
pub mod cfg;
pub mod cidi;
pub mod dataflow;
pub mod dom;
pub mod lint;
pub mod loops;
pub mod report;
pub mod strides;

pub use branches::{BranchClass, BranchInfo};
pub use cfg::{Block, Cfg};
pub use cidi::{BranchCidi, CidiAnalysis, InstVerdict, Verdict, DEFAULT_HORIZON};
pub use dataflow::{Dataflow, DefSite};
pub use dom::DomTree;
pub use lint::{Lint, LintKind};
pub use loops::LoopInfo;
pub use report::{report_json, write_report, Agreement, Divergence, ANALYZE_SCHEMA_VERSION};
pub use strides::{LoadClass, RegClass, StrideInfo};

use cfir_isa::Program;

/// Everything the analyzer knows about one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Basic-block control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree rooted at the entry block.
    pub dom: DomTree,
    /// Post-dominator tree rooted at the virtual exit.
    pub pdom: DomTree,
    /// Natural-loop forest and nesting depths.
    pub loops: LoopInfo,
    /// Whole-program load stride classes.
    pub strides: StrideInfo,
    /// Per-conditional-branch static facts, in PC order.
    pub branches: Vec<BranchInfo>,
    /// Reaching definitions, liveness and def-use chains.
    pub dataflow: Dataflow,
    /// CIDI/CIDD/clobbered verdicts for every hammock's CI region.
    pub cidi: CidiAnalysis,
    /// Lint findings, sorted by PC.
    pub lints: Vec<Lint>,
}

impl Analysis {
    /// Static reconvergence PC of the conditional branch at `pc`
    /// (`None` when `pc` is not a conditional branch or the paths only
    /// meet at the virtual exit).
    pub fn static_rcp(&self, pc: u32) -> Option<u32> {
        self.branch(pc).and_then(|b| b.rcp)
    }

    /// Static facts for the conditional branch at `pc`.
    pub fn branch(&self, pc: u32) -> Option<&BranchInfo> {
        self.branches.iter().find(|b| b.pc == pc)
    }
}

/// Run the full static analysis over `prog`.
pub fn analyze(prog: &Program) -> Analysis {
    let cfg = Cfg::build(prog);
    if cfg.is_empty() {
        // Empty program: one virtual node, nothing to analyze.
        let trivial = DomTree::compute(&[Vec::new()], 0);
        return Analysis {
            dataflow: Dataflow::compute(prog, &cfg),
            cfg,
            dom: trivial.clone(),
            pdom: trivial,
            loops: LoopInfo::default(),
            strides: StrideInfo::compute(prog),
            branches: Vec::new(),
            cidi: CidiAnalysis::default(),
            lints: Vec::new(),
        };
    }
    let dom = DomTree::compute(&cfg.succ_adj(), 0);
    let pdom = DomTree::compute(&cfg.pred_adj(), cfg.exit);
    let loops = LoopInfo::compute(&cfg, &dom);
    let strides = StrideInfo::compute(prog);
    let branches = branches::analyze_branches(prog, &cfg, &dom, &pdom, &loops, &strides);
    let dataflow = Dataflow::compute(prog, &cfg);
    let cidi = cidi::classify(
        prog,
        &cfg,
        &pdom,
        &loops,
        &strides,
        &dataflow,
        &branches,
        cidi::DEFAULT_HORIZON,
    );
    let lints = lint::lint(prog, &cfg, &dataflow);
    Analysis {
        cfg,
        dom,
        pdom,
        loops,
        strides,
        branches,
        dataflow,
        cidi,
        lints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_program_analyzes_without_panicking() {
        let a = analyze(&Program::new("empty"));
        assert!(a.branches.is_empty());
        assert!(a.lints.is_empty());
        assert!(a.cfg.is_empty());
    }

    #[test]
    fn figure_1_kernel_end_to_end() {
        let p = cfir_isa::assemble(
            "fig1",
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
        )
        .unwrap();
        let a = analyze(&p);
        assert!(a.lints.is_empty(), "kernel is clean: {:?}", a.lints);
        assert_eq!(a.loops.loops.len(), 1);
        assert_eq!(a.loops.max_depth(), 1);
        let hammock = a.branch(6).unwrap();
        assert_eq!(hammock.class, BranchClass::IfThenElse);
        assert_eq!(hammock.rcp, Some(10));
        assert_eq!(hammock.loop_depth, 1);
        // CI region: join block [10..13) at loop depth 1; stops before
        // the halt block at depth 0.
        assert_eq!(hammock.ci_region_len, 3);
        assert_eq!(a.static_rcp(6), Some(10));
        assert_eq!(a.static_rcp(7), None, "not a branch");
        let latch = a.branch(12).unwrap();
        assert_eq!(latch.class, BranchClass::LoopBack);
        assert_eq!(latch.rcp, Some(13));
    }
}
