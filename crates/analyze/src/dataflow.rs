//! Classic iterative dataflow over the basic-block CFG: reaching
//! definitions, liveness, and the def-use chains derived from them.
//!
//! The engine is deliberately textbook:
//!
//! * **Reaching definitions** — forward, may. Every `(pc, reg)` def
//!   site gets a bit; `IN[b] = ∪ OUT[pred]`, `OUT[b] = GEN[b] ∪
//!   (IN[b] ∖ KILL[b])`. One *entry pseudo-def* per logical register
//!   models the uninitialized state, so "the pseudo-def of `r` reaches
//!   this read" is exactly the path-sensitive read-before-write
//!   condition the lint pass wants.
//! * **Liveness** — backward, may, as `u64` register masks
//!   (`NUM_LOGICAL_REGS ≤ 64`): `OUT[b] = ∪ IN[succ]`, `IN[b] =
//!   USE[b] ∪ (OUT[b] ∖ DEF[b])`.
//! * **Def-use chains** — a forward walk of each reachable block with
//!   its reaching-def `IN` set records, per use, exactly which defs
//!   reach it (and, inverted, which uses each def reaches).
//!
//! Programs here are tiny (hundreds of instructions), so the solver
//! favours clarity over sparse-bitset cleverness; everything is a
//! dense fixpoint over blocks in layout order.

use crate::cfg::Cfg;
use cfir_core::BitSet;
use cfir_isa::{Program, NUM_LOGICAL_REGS};
use std::collections::HashMap;

/// Sentinel PC of the per-register entry pseudo-defs.
pub const ENTRY_PC: u32 = u32::MAX;

/// One definition site: instruction `pc` writing `reg` ([`ENTRY_PC`]
/// for the per-register entry pseudo-defs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// Word PC of the defining instruction, or [`ENTRY_PC`].
    pub pc: u32,
    /// Register written.
    pub reg: u8,
}

impl DefSite {
    /// Is this an entry pseudo-def (models "still uninitialized")?
    pub fn is_entry(&self) -> bool {
        self.pc == ENTRY_PC
    }
}

/// Solved dataflow facts for one program.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// Every def site. Ids `0..NUM_LOGICAL_REGS` are the entry
    /// pseudo-defs (id = register number); real defs follow in PC order.
    pub defs: Vec<DefSite>,
    /// Reaching-def set at each block entry.
    pub reach_in: Vec<BitSet>,
    /// Reaching-def set at each block exit.
    pub reach_out: Vec<BitSet>,
    /// Live registers at each block entry (bit `r` = `rN` live).
    pub live_in: Vec<u64>,
    /// Live registers at each block exit.
    pub live_out: Vec<u64>,
    /// Def id of the instruction at each PC (None: writes nothing).
    def_at_pc: Vec<Option<u32>>,
    /// `(use pc, reg)` → ids of the defs that reach that use.
    use_defs: HashMap<(u32, u8), Vec<u32>>,
    /// Def id → PCs of the uses it reaches (register implied).
    def_uses: Vec<Vec<u32>>,
    /// Defs that reach the program exit (end of some exit-bound block).
    exit_reaching: BitSet,
}

impl Dataflow {
    /// Solve all three analyses for `prog` over its `cfg`.
    pub fn compute(prog: &Program, cfg: &Cfg) -> Dataflow {
        const _: () = assert!(NUM_LOGICAL_REGS <= 64, "liveness masks assume <= 64 regs");
        let nb = cfg.len();
        // --- def-site numbering -------------------------------------
        let mut defs: Vec<DefSite> = (0..NUM_LOGICAL_REGS)
            .map(|r| DefSite {
                pc: ENTRY_PC,
                reg: r as u8,
            })
            .collect();
        let mut def_at_pc: Vec<Option<u32>> = vec![None; prog.len()];
        for (pc, inst) in prog.insts.iter().enumerate() {
            if let Some(rd) = inst.dest() {
                def_at_pc[pc] = Some(defs.len() as u32);
                defs.push(DefSite {
                    pc: pc as u32,
                    reg: rd,
                });
            }
        }
        let nd = defs.len();
        let mut defs_of_reg: Vec<Vec<u32>> = vec![Vec::new(); NUM_LOGICAL_REGS];
        for (id, d) in defs.iter().enumerate() {
            defs_of_reg[d.reg as usize].push(id as u32);
        }
        // --- per-block GEN/KILL -------------------------------------
        let mut gen = vec![BitSet::new(nd); nb];
        let mut kill = vec![BitSet::new(nd); nb];
        for b in 0..nb {
            // Last def of each register in the block is downward-exposed.
            let mut last: HashMap<u8, u32> = HashMap::new();
            for pc in cfg.blocks[b].pcs() {
                if let Some(id) = def_at_pc[pc as usize] {
                    last.insert(defs[id as usize].reg, id);
                }
            }
            for (&reg, &id) in &last {
                gen[b].insert(id as usize);
                for &other in &defs_of_reg[reg as usize] {
                    if other != id {
                        kill[b].insert(other as usize);
                    }
                }
            }
        }
        // --- reaching definitions (forward, may) --------------------
        let mut reach_in = vec![BitSet::new(nd); nb];
        let mut reach_out = vec![BitSet::new(nd); nb];
        let transfer = |b: usize, inset: &BitSet| -> BitSet {
            let mut out = inset.clone();
            for k in kill[b].iter() {
                out.remove(k);
            }
            out.union_with(&gen[b]);
            out
        };
        // Entry pseudo-defs flow in at block 0, whatever its preds.
        for r in 0..NUM_LOGICAL_REGS {
            if nb > 0 {
                reach_in[0].insert(r);
            }
        }
        let mut changed = nb > 0;
        while changed {
            changed = false;
            for b in 0..nb {
                if !cfg.reachable[b] {
                    continue;
                }
                let preds = cfg.blocks[b].preds.clone();
                for p in preds {
                    if cfg.reachable[p] {
                        let out = reach_out[p].clone();
                        reach_in[b].union_with(&out);
                    }
                }
                let new_out = transfer(b, &reach_in[b]);
                if new_out != reach_out[b] {
                    reach_out[b] = new_out;
                    changed = true;
                }
            }
        }
        // --- def-use chains -----------------------------------------
        let mut use_defs: HashMap<(u32, u8), Vec<u32>> = HashMap::new();
        let mut def_uses: Vec<Vec<u32>> = vec![Vec::new(); nd];
        for (b, reach) in reach_in.iter().enumerate() {
            if !cfg.reachable[b] {
                continue;
            }
            // Current reaching defs per register, seeded from IN[b].
            let mut cur: Vec<Vec<u32>> = vec![Vec::new(); NUM_LOGICAL_REGS];
            for id in reach.iter() {
                cur[defs[id].reg as usize].push(id as u32);
            }
            for pc in cfg.blocks[b].pcs() {
                let inst = prog.insts[pc as usize];
                let mut srcs: Vec<u8> = inst.sources().into_iter().flatten().collect();
                srcs.dedup();
                for src in srcs {
                    let reaching = cur[src as usize].clone();
                    for &id in &reaching {
                        def_uses[id as usize].push(pc);
                    }
                    use_defs.insert((pc, src), reaching);
                }
                if let Some(id) = def_at_pc[pc as usize] {
                    cur[defs[id as usize].reg as usize] = vec![id];
                }
            }
        }
        // --- exit-reaching defs -------------------------------------
        let mut exit_reaching = BitSet::new(nd);
        for (b, out) in reach_out.iter().enumerate() {
            if cfg.reachable[b] && cfg.blocks[b].succs.contains(&cfg.exit) {
                exit_reaching.union_with(out);
            }
        }
        // --- liveness (backward, may) -------------------------------
        let mut use_mask = vec![0u64; nb];
        let mut def_mask = vec![0u64; nb];
        for b in 0..nb {
            for pc in cfg.blocks[b].pcs() {
                let inst = prog.insts[pc as usize];
                for src in inst.sources().into_iter().flatten() {
                    if def_mask[b] & (1u64 << src) == 0 {
                        use_mask[b] |= 1u64 << src;
                    }
                }
                if let Some(rd) = inst.dest() {
                    def_mask[b] |= 1u64 << rd;
                }
            }
        }
        let mut live_in = vec![0u64; nb];
        let mut live_out = vec![0u64; nb];
        let mut changed = nb > 0;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                let mut out = 0u64;
                for &s in &cfg.blocks[b].succs {
                    if s != cfg.exit {
                        out |= live_in[s];
                    }
                }
                let inm = use_mask[b] | (out & !def_mask[b]);
                if out != live_out[b] || inm != live_in[b] {
                    live_out[b] = out;
                    live_in[b] = inm;
                    changed = true;
                }
            }
        }
        Dataflow {
            defs,
            reach_in,
            reach_out,
            live_in,
            live_out,
            def_at_pc,
            use_defs,
            def_uses,
            exit_reaching,
        }
    }

    /// Def id of the instruction at `pc` (None: writes nothing, or out
    /// of range).
    pub fn def_at(&self, pc: u32) -> Option<u32> {
        self.def_at_pc.get(pc as usize).copied().flatten()
    }

    /// Def ids reaching the read of `reg` at `pc` (empty when `pc`
    /// does not read `reg`, or is unreachable).
    pub fn reaching_defs(&self, pc: u32, reg: u8) -> &[u32] {
        self.use_defs.get(&(pc, reg)).map_or(&[], |v| v)
    }

    /// PCs of the uses reached by def `id`.
    pub fn uses_of(&self, id: u32) -> &[u32] {
        &self.def_uses[id as usize]
    }

    /// Is `id` one of the entry pseudo-defs?
    pub fn is_entry_def(&self, id: u32) -> bool {
        (id as usize) < NUM_LOGICAL_REGS
    }

    /// Does def `id` survive (un-killed) to the program exit on some
    /// path?
    pub fn reaches_exit(&self, id: u32) -> bool {
        self.exit_reaching.contains(id as usize)
    }

    /// Total number of def sites (pseudo + real).
    pub fn n_defs(&self) -> usize {
        self.defs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_isa::assemble;

    fn df(src: &str) -> (Program, Cfg, Dataflow) {
        let p = assemble("t", src).unwrap();
        let cfg = Cfg::build(&p);
        let d = Dataflow::compute(&p, &cfg);
        (p, cfg, d)
    }

    #[test]
    fn straightline_def_use_chain() {
        let (_, _, d) = df("li r1, 3\nadd r2, r1, r1\nhalt");
        let def_r1 = d.def_at(0).unwrap();
        assert_eq!(d.defs[def_r1 as usize].reg, 1);
        assert_eq!(d.reaching_defs(1, 1), &[def_r1]);
        assert_eq!(d.uses_of(def_r1), &[1]);
        // The read at pc 1 is fully defined: no entry pseudo-def.
        assert!(!d.reaching_defs(1, 1).iter().any(|&i| d.is_entry_def(i)));
    }

    #[test]
    fn diamond_merges_both_arm_defs() {
        let (_, _, d) = df(r#"
            beq r9, r0, else_ ; 0
            li r1, 5          ; 1
            jmp join          ; 2
        else_:
            li r1, 7          ; 3
        join:
            add r2, r1, r0    ; 4
            halt
            "#);
        let reaching = d.reaching_defs(4, 1);
        let pcs: Vec<u32> = reaching
            .iter()
            .map(|&i| d.defs[i as usize].pc)
            .collect::<Vec<_>>();
        assert!(pcs.contains(&1) && pcs.contains(&3), "both arms: {pcs:?}");
        assert!(!reaching.iter().any(|&i| d.is_entry_def(i)));
    }

    #[test]
    fn one_sided_write_keeps_entry_pseudo_def() {
        let (_, _, d) = df(r#"
            beq r9, r0, skip ; 0
            li r1, 5         ; 1
        skip:
            add r2, r1, r0   ; 2
            halt
            "#);
        assert!(d.reaching_defs(2, 1).iter().any(|&i| d.is_entry_def(i)));
    }

    #[test]
    fn loop_carried_def_reaches_its_own_use() {
        let (_, _, d) = df(r#"
            li r1, 0          ; 0
        loop:
            addi r1, r1, 1    ; 1
            blt r1, r2, loop  ; 2
            halt
            "#);
        let inc = d.def_at(1).unwrap();
        // The increment reaches its own operand read via the back edge.
        assert!(d.reaching_defs(1, 1).contains(&inc));
        assert!(d.uses_of(inc).contains(&1));
        assert!(!d.reaching_defs(1, 1).iter().any(|&i| d.is_entry_def(i)));
    }

    #[test]
    fn killed_on_every_path_does_not_reach_exit() {
        let (_, cfg, d) = df("li r1, 1\nli r1, 2\nadd r2, r1, r0\nhalt");
        let first = d.def_at(0).unwrap();
        let second = d.def_at(1).unwrap();
        assert!(d.uses_of(first).is_empty());
        assert!(!d.reaches_exit(first));
        assert!(d.reaches_exit(second));
        assert_eq!(cfg.len(), 1);
    }

    #[test]
    fn liveness_masks_are_exact_on_a_diamond() {
        let (_, cfg, d) = df(r#"
            li r1, 1          ; 0  b0
            beq r1, r0, else_ ; 1  b0
            add r2, r1, r0    ; 2  b1
            jmp join          ; 3  b1
        else_:
            li r2, 7          ; 4  b2
        join:
            add r3, r2, r0    ; 5  b3
            halt
            "#);
        let b_of = |pc: u32| cfg.block_of[pc as usize];
        // r1 live into the then-arm (read at 2), dead into the else-arm.
        assert_ne!(d.live_in[b_of(2)] & (1 << 1), 0);
        assert_eq!(d.live_in[b_of(4)] & (1 << 1), 0);
        // r2 live into the join from both arms.
        assert_ne!(d.live_out[b_of(2)] & (1 << 2), 0);
        assert_ne!(d.live_out[b_of(4)] & (1 << 2), 0);
        // Nothing is live out of the exit-bound join block.
        assert_eq!(d.live_out[b_of(5)], 0);
    }

    #[test]
    fn empty_program_yields_empty_facts() {
        let p = Program::new("empty");
        let cfg = Cfg::build(&p);
        let d = Dataflow::compute(&p, &cfg);
        assert_eq!(d.n_defs(), NUM_LOGICAL_REGS);
        assert!(d.reach_in.is_empty());
        assert!(d.live_in.is_empty());
    }
}
