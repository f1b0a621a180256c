//! Per-cycle stall attribution (the CPI stack).
//!
//! Every cycle has `commit_width` commit slots. Slots that retire an
//! instruction are charged to [`StallCause::Useful`]; all remaining
//! slots of the cycle are charged to **one** cause picked by a priority
//! cascade over the machine state (standard CPI-stack practice: the
//! oldest instruction's condition explains the cycle). The invariant —
//! asserted in `finalize_stats` and by an integration test — is that
//! the buckets sum to exactly `cycles × commit_width`.
//!
//! Cascade, highest priority first:
//!
//! 1. a flush happened this cycle → `RepairFlush`;
//! 2. window empty → `FetchStarved` (decode queue dry) or `IqFull`
//!    (decode backed up behind a not-yet-ready instruction);
//! 3. head `Done` → `CommitBandwidth` (store ports / store limit);
//! 4. head waiting on a pending replica value → `ReplicaArbitration`;
//! 5. head `Executing` → `DCacheMiss` (load that missed L1D) or
//!    `FuContention`;
//! 6. head `Dispatched` with unready sources → the dispatch-side
//!    resource that blocked this cycle (`RobFull` / `LsqFull` /
//!    `RenameRegs`) or plain `DataDependency`;
//! 7. head `Dispatched` and ready → `FuContention` (issue bandwidth).

use crate::pipeline::Pipeline;
use crate::rob::RobState;
use cfir_obs::{StallCause, WaitEdgeKind};

/// Why dispatch stopped early this cycle (recorded by `dispatch`,
/// consulted by the cascade).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DispatchBlock {
    /// Front of the decode queue not through decode yet.
    DecodeWait,
    /// Reorder buffer full.
    RobFull,
    /// Load/store queue full.
    LsqFull,
    /// No free physical register.
    NoRegs,
}

impl Pipeline<'_> {
    /// Charge this cycle's commit slots. `committed_before` is the
    /// commit counter at the start of the cycle.
    pub(crate) fn attribute_stalls(&mut self, committed_before: u64) {
        let width = self.cfg.commit_width as u64;
        let used = (self.stats.committed - committed_before).min(width);
        if used > 0 {
            self.stats.stall.charge(StallCause::Useful, used);
            // The lifecycle view receives its `useful` charges from the
            // commit hook (one per retired instruction; the commit loop
            // is bounded by `commit_width`, so the sums agree).
        }
        let idle = width - used;
        if idle > 0 {
            let cause = self.idle_cause();
            self.stats.stall.charge(cause, idle);
            // Mirror the charge into the per-instruction view: the
            // window head's record absorbs it (it is the instruction the
            // cascade blamed; an empty window charges the front end),
            // plus the causal wait-edge where one is identifiable.
            let (rob, rf) = (&self.rob, &self.rf);
            let head = rob.front();
            let edge = || match cause {
                // Blame the oldest in-flight producer of the head's
                // first unready source operand.
                StallCause::DataDependency => head
                    .and_then(|h| h.src_phys.iter().flatten().find(|&&p| !rf.is_ready(p)))
                    .and_then(|&p| rob.iter().find(|e| e.new_phys == Some(p)))
                    .map(|prod| (WaitEdgeKind::Producer, Some(prod.lid))),
                StallCause::ReplicaArbitration => Some((WaitEdgeKind::ReplicaValue, None)),
                // Extends the issue-time edge that recorded the miss level.
                StallCause::DCacheMiss => Some((WaitEdgeKind::CacheMiss, None)),
                _ => None,
            };
            self.obs
                .idle(head.map(|e| e.lid), cause, idle, edge, self.cycle);
        }
    }

    /// One cause for all idle slots of the cycle.
    fn idle_cause(&self) -> StallCause {
        if self.flushed_this_cycle {
            return StallCause::RepairFlush;
        }
        let Some(head) = self.rob.front() else {
            return if self.decode_q.is_empty() {
                StallCause::FetchStarved
            } else {
                StallCause::IqFull
            };
        };
        match head.state {
            RobState::Done => StallCause::CommitBandwidth,
            RobState::Executing => {
                if head.reuse.is_some_and(|r| r.pending) {
                    StallCause::ReplicaArbitration
                } else if head.dcache_miss {
                    StallCause::DCacheMiss
                } else {
                    StallCause::FuContention
                }
            }
            RobState::Dispatched => {
                let ready = head.src_phys.iter().flatten().all(|&p| self.rf.is_ready(p));
                if ready {
                    StallCause::FuContention
                } else {
                    match self.dispatch_block {
                        Some(DispatchBlock::RobFull) => StallCause::RobFull,
                        Some(DispatchBlock::LsqFull) => StallCause::LsqFull,
                        Some(DispatchBlock::NoRegs) => StallCause::RenameRegs,
                        _ => StallCause::DataDependency,
                    }
                }
            }
        }
    }
}
