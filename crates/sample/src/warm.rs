//! Functional fast-forward with microarchitectural warming.
//!
//! The emulator retires instructions at architectural speed; alongside
//! it this module keeps the two pieces of *long-lived* detailed state
//! warm, mirroring exactly what the pipeline's committed path does:
//!
//! * **Branch predictor** — for every conditional branch, predict with
//!   the current speculative history, repair the history on a wrong
//!   prediction (the front end would), and train the counter with the
//!   history the prediction was made with. This is the same sequence
//!   `cfir-sim` performs at fetch + commit, so a fast-forwarded gshare
//!   is bit-compatible with one carried through detailed simulation of
//!   the same instruction stream (modulo wrong-path pollution, which
//!   the detailed warmup portion of each window re-creates).
//! * **Cache hierarchy** — one I-side access per retired instruction
//!   and one D-side access per load/store, at the same aligned
//!   addresses the detailed core would commit.
//!
//! Short-lived state (ROB, LSQ, rename, the indirect-jump BTB) is not
//! modelled; it re-forms within a few hundred detailed instructions
//! and is covered by the per-window warmup.

use crate::checkpoint::Checkpoint;
use cfir_emu::{Emulator, MemImage, Retired};
use cfir_isa::Program;
use cfir_mem::Hierarchy;
use cfir_predict::Gshare;
use cfir_sim::SimConfig;

/// The committed global-history mask the pipeline maintains (16 bits).
const GHIST_MASK: u64 = (1 << 16) - 1;

/// A functional emulator bundled with warming predictor + cache state.
#[derive(Debug, Clone)]
pub struct WarmingEmulator<'a> {
    prog: &'a Program,
    /// The architectural machine.
    pub emu: Emulator,
    /// Warming branch predictor (same geometry as the detailed run).
    pub gshare: Gshare,
    /// Warming cache hierarchy (same geometry as the detailed run).
    pub hier: Hierarchy,
    /// Committed 16-bit global history, as the pipeline's commit stage
    /// maintains it.
    ghist: u64,
}

impl<'a> WarmingEmulator<'a> {
    /// Build a warming emulator over `prog` with initial memory `mem`,
    /// its caches sized to match the detailed configuration `cfg` (the
    /// predictor is [`Gshare::paper`], as in the detailed core).
    pub fn new(prog: &'a Program, mem: MemImage, cfg: &SimConfig) -> Self {
        WarmingEmulator {
            prog,
            emu: Emulator::new(mem),
            gshare: Gshare::paper(),
            hier: Hierarchy::new(cfg.hierarchy.clone()),
            ghist: 0,
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.emu.retired
    }

    /// Whether the program has halted (or run off the end).
    pub fn done(&self) -> bool {
        self.emu.halted || self.prog.fetch(self.emu.pc).is_none()
    }

    /// Retire one instruction, warming the predictor and caches.
    /// Returns `None` once the program is done.
    pub fn step(&mut self) -> Option<Retired> {
        let r = self.emu.step(self.prog)?;
        self.hier.access_inst(Program::byte_pc(r.pc));
        if r.inst.is_cond_branch() {
            let byte = Program::byte_pc(r.pc);
            let h = self.gshare.history();
            let p = self.gshare.predict_and_update(byte);
            if p != r.taken {
                self.gshare.restore_history(h);
                self.gshare.push(r.taken);
            }
            self.gshare.train(byte, h, r.taken);
            self.ghist = ((self.ghist << 1) | r.taken as u64) & GHIST_MASK;
        }
        if let Some(addr) = r.addr {
            self.hier.access_data(addr, r.inst.is_store());
        }
        Some(r)
    }

    /// Fast-forward up to `n` instructions; returns how many actually
    /// retired (less than `n` only when the program finished).
    pub fn fast_forward(&mut self, n: u64) -> u64 {
        let mut done = 0;
        while done < n {
            if self.step().is_none() {
                break;
            }
            done += 1;
        }
        done
    }

    /// Capture the current architectural + warm state as a checkpoint.
    pub fn checkpoint(&self) -> Checkpoint {
        let (table, history) = self.gshare.export_warm();
        Checkpoint {
            regs: self.emu.regs,
            pc: self.emu.pc,
            retired: self.emu.retired,
            ghist: self.ghist,
            gshare_table: table,
            gshare_history: history,
            hier: self.hier.export_warm(),
            pages: self
                .emu
                .mem
                .export_pages()
                .into_iter()
                .map(|(id, words)| (id, *words))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_workloads::{by_name, WorkloadSpec};

    #[test]
    fn fast_forward_matches_plain_emulator() {
        let w = by_name("gzip", WorkloadSpec::default()).unwrap();
        let cfg = SimConfig::paper_baseline();
        let mut warm = WarmingEmulator::new(&w.prog, w.mem.clone(), &cfg);
        warm.fast_forward(10_000);

        let mut plain = Emulator::new(w.mem.clone());
        plain.run(&w.prog, 10_000);
        assert_eq!(warm.emu.retired, plain.retired);
        assert_eq!(warm.emu.pc, plain.pc);
        assert_eq!(
            warm.emu.regs, plain.regs,
            "warming must not perturb arch state"
        );
    }

    #[test]
    fn warming_trains_the_predictor() {
        let w = by_name("gzip", WorkloadSpec::default()).unwrap();
        let cfg = SimConfig::paper_baseline();
        let mut warm = WarmingEmulator::new(&w.prog, w.mem.clone(), &cfg);
        warm.fast_forward(20_000);
        assert!(warm.gshare.lookups > 0);
        assert!(warm.hier.l1d.accesses > 0);
        assert!(warm.hier.l1i.accesses > 0);
        // gzip's biased branches must be mostly learned by now.
        let trained_mispredict_rate = warm.gshare.mispredicts as f64 / warm.gshare.lookups as f64;
        assert!(
            trained_mispredict_rate < 0.5,
            "predictor not learning: {trained_mispredict_rate}"
        );
    }

    #[test]
    fn stops_at_halt() {
        let w = by_name(
            "gzip",
            WorkloadSpec {
                iters: 10,
                ..WorkloadSpec::default()
            },
        )
        .unwrap();
        let cfg = SimConfig::paper_baseline();
        let mut warm = WarmingEmulator::new(&w.prog, w.mem.clone(), &cfg);
        let n = warm.fast_forward(1 << 30);
        assert!(warm.done());
        assert_eq!(n, warm.retired());
    }
}
