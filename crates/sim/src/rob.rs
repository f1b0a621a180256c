//! Reorder-buffer entry types and rename checkpoints.

use crate::regfile::PhysId;
use cfir_core::RenameExt;
use cfir_isa::{Inst, NUM_LOGICAL_REGS};

/// Execution state of a window entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobState {
    /// In the window, waiting for operands/resources.
    Dispatched,
    /// Issued to a functional unit; completes at `done_at`.
    Executing,
    /// Result produced (or reused); eligible to commit in order.
    Done,
}

/// How a reused instruction obtained its value.
#[derive(Debug, Clone, Copy)]
pub struct ReuseInfo {
    /// The value delivered without execution (valid once `pending`
    /// clears).
    pub value: u64,
    /// The replica has not finished executing yet; the validating
    /// instruction waits for the value (§2.3.4: "it will wait" in the
    /// commit stage).
    pub pending: bool,
    /// SRSMT entry index the validation consumed (`None` for ci-iw
    /// squash-reuse buffer hits).
    pub srsmt_idx: Option<usize>,
    /// Entry generation at validation time.
    pub gen: u32,
    /// Instance index consumed.
    pub replica: u32,
    /// Misprediction event this reuse is attributed to (Figure 5).
    pub event: Option<u64>,
}

/// A probe: the instruction consumed a replica slot but executes
/// normally; at issue it verifies the entry's alignment against its
/// real result, confirming the entry (or tearing it down).
#[derive(Debug, Clone, Copy)]
pub struct ProbeInfo {
    /// SRSMT entry index.
    pub srsmt_idx: usize,
    /// Entry generation at validation time.
    pub gen: u32,
    /// Instance index consumed.
    pub replica: u32,
    /// Whether the alignment verification already ran (at writeback).
    /// The probe record itself must survive until commit: it is the
    /// proof of slot ownership that recovery recounting relies on.
    pub verified: bool,
}

/// Rename checkpoint taken at every predicted branch.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Logical → physical map.
    pub rmap: [PhysId; NUM_LOGICAL_REGS],
    /// Mechanism rename extensions (stridedPC sets, V/S, Seq).
    pub ext: [RenameExt; NUM_LOGICAL_REGS],
    /// Gshare speculative history at the branch.
    pub ghist: u64,
}

/// One reorder-buffer entry.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Lifecycle id assigned at fetch (0 when lifecycle recording is
    /// off).
    pub lid: u64,
    /// Dynamic sequence number (monotonic over the whole run).
    pub seq: u64,
    /// Static PC.
    pub pc: u32,
    /// The instruction.
    pub inst: Inst,
    /// Pipeline state.
    pub state: RobState,
    /// Cycle at which execution finishes (valid in `Executing`).
    pub done_at: u64,
    /// Physical destination, if the instruction writes a register.
    pub new_phys: Option<PhysId>,
    /// Previous mapping of the destination (freed at commit).
    pub old_phys: Option<PhysId>,
    /// Logical destination.
    pub ldest: Option<u8>,
    /// Physical sources (post-rename).
    pub src_phys: [Option<PhysId>; 2],
    /// Predicted direction for conditional branches.
    pub pred_taken: bool,
    /// Predicted next PC (for any control instruction).
    pub pred_target: u32,
    /// Gshare history snapshot at prediction time (for training).
    pub ghist: u64,
    /// Resolved actual direction.
    pub actual_taken: bool,
    /// Resolved actual next PC.
    pub actual_target: u32,
    /// Whether the branch has resolved.
    pub resolved: bool,
    /// Rename checkpoint (branches only).
    pub checkpoint: Option<Box<Checkpoint>>,
    /// Effective address (memory instructions, once computed).
    pub addr: Option<u64>,
    /// Value this instruction produced / will store (set at execute,
    /// reuse, or store-data capture).
    pub value: u64,
    /// Reuse bookkeeping (validation instructions).
    pub reuse: Option<ReuseInfo>,
    /// Probe bookkeeping (unconfirmed validations).
    pub probe: Option<ProbeInfo>,
    /// Whether this entry occupies an LSQ slot.
    pub in_lsq: bool,
    /// Cycle the entry entered the window (latency histograms).
    pub dispatched_at: u64,
    /// Whether this load missed in the L1D (stall attribution).
    pub dcache_miss: bool,
}

impl RobEntry {
    /// Fresh entry at dispatch.
    pub fn new(seq: u64, pc: u32, inst: Inst) -> Self {
        RobEntry {
            lid: 0,
            seq,
            pc,
            inst,
            state: RobState::Dispatched,
            done_at: 0,
            new_phys: None,
            old_phys: None,
            ldest: None,
            src_phys: [None, None],
            pred_taken: false,
            pred_target: pc + 1,
            ghist: 0,
            actual_taken: false,
            actual_target: pc + 1,
            resolved: false,
            checkpoint: None,
            addr: None,
            value: 0,
            reuse: None,
            probe: None,
            in_lsq: false,
            dispatched_at: 0,
            dcache_miss: false,
        }
    }

    /// Whether this is a conditional branch entry.
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        self.inst.is_cond_branch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_entry_defaults() {
        let e = RobEntry::new(7, 3, Inst::Nop);
        assert_eq!(e.seq, 7);
        assert_eq!(e.state, RobState::Dispatched);
        assert_eq!(e.pred_target, 4);
        assert!(e.reuse.is_none());
        assert!(!e.is_cond_branch());
    }

    #[test]
    fn branch_entry_flag() {
        use cfir_isa::Cond;
        let e = RobEntry::new(
            0,
            0,
            Inst::Br {
                cond: Cond::Eq,
                rs1: 1,
                rs2: 2,
                target: 5,
            },
        );
        assert!(e.is_cond_branch());
    }
}
