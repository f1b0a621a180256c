//! Statistics collected by one simulation run — everything the paper's
//! figures need.

use crate::prof::BranchProf;
use cfir_obs::stall::ALL_CAUSES;
use cfir_obs::{BottleneckReport, Hist, StallBreakdown};

/// One point of the interval time series (see
/// `SimConfig::interval_cycles`). Cumulative counters plus the rates
/// over the *last* interval and a point sample of occupancy, so a
/// run's effectiveness can be watched evolving over time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntervalSample {
    /// Cycle at which the sample was taken.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// Reused instructions committed so far.
    pub committed_reuse: u64,
    /// Conditional branches committed so far.
    pub branches: u64,
    /// Mispredictions committed so far.
    pub mispredicts: u64,
    /// IPC over the *last* interval only.
    pub interval_ipc: f64,
    /// Misprediction rate over the last interval only.
    pub interval_mispredict_rate: f64,
    /// Fraction of the last interval's commits that reused a value.
    pub interval_reuse_rate: f64,
    /// Window occupancy at the sample point.
    pub rob_occupancy: u32,
    /// Physical registers in use at the sample point.
    pub regs_in_use: u32,
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed (architecturally retired) instructions.
    pub committed: u64,
    /// Committed instructions that reused a precomputed value
    /// (Figure 12's "Reuse" portion).
    pub committed_reuse: u64,
    /// Instructions dispatched into the window and later squashed by a
    /// branch misprediction (Figure 12's "specBP").
    pub squashed: u64,
    /// Speculative replica instructions executed by the CI scheme
    /// (Figure 12's "specCI").
    pub replicas_executed: u64,
    /// Replica instructions created (dispatched to the engine).
    pub replicas_created: u64,
    /// Conditional branches committed.
    pub branches: u64,
    /// Conditional-branch mispredictions (architectural).
    pub mispredicts: u64,
    /// Reuse validations that failed (§2.3.4), at decode or when a
    /// probe's real result contradicted its replica.
    pub validation_failures: u64,
    /// Failure breakdown by reason: [inst-mismatch, replica-not-ready,
    /// stride-untrusted-or-changed, address-mismatch, seq-mismatch],
    /// indexed by the reason's discriminant.
    pub valfail_reasons: [u64; 5],
    /// Reuse validations that passed decode but failed the commit-time
    /// architectural check (triggering a flush).
    pub commit_check_failures: u64,
    /// Stores committed.
    pub stores: u64,
    /// Stores whose address hit a speculatively-loaded range (§2.4.3).
    pub store_conflicts: u64,
    /// Loads committed.
    pub loads: u64,
    /// Sum over cycles of physical registers in use (occupancy integral).
    pub reg_occupancy_sum: u64,
    /// High-water mark of physical registers in use.
    pub reg_high_water: u64,
    /// stridedPC propagations dropped by the slot cap (Figure 4 loss).
    pub strided_pc_dropped: u64,
    /// Sum of stridedPC set sizes over written rename entries (for the
    /// "1.7 PCs per entry" average).
    pub strided_pc_sum: u64,
    /// Number of rename-entry writes sampled for `strided_pc_sum`
    /// (only writes that propagate at least one PC are counted,
    /// matching how the paper reports "PCs per entry").
    pub strided_pc_samples: u64,
    /// Vectorizations performed (SRSMT entries created).
    pub vectorizations: u64,
    /// L1 D-cache accesses (Figure 8): scalar port accesses, wide-bus
    /// line accesses, store commits and replica loads all count once.
    pub l1d_accesses: u64,
    /// L1 D-cache misses.
    pub l1d_misses: u64,
    /// L1 D-cache writebacks.
    pub l1d_writebacks: u64,
    /// L1 I-cache accesses.
    pub l1i_accesses: u64,
    /// L1 I-cache misses.
    pub l1i_misses: u64,
    /// L2 accesses / misses (both instruction and data refills).
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 accesses.
    pub l3_accesses: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// Main-memory accesses.
    pub mem_accesses: u64,
    /// Instructions fetched (all paths).
    pub fetched: u64,
    /// Speculative-memory copy instructions injected (§2.4.6 mode).
    pub specmem_copies: u64,
    /// Squash-reuse buffer hits (ci-iw mode).
    pub squash_reuse_hits: u64,
    /// MBS entries cross-checked against the program at the end of the
    /// run (static-oracle consistency check).
    pub oracle_mbs_checked: u64,
    /// MBS entries whose PC did not name a conditional branch — must
    /// stay 0 with exact full-PC tags.
    pub oracle_mbs_nonbranch: u64,
    /// Periodic samples (empty unless `SimConfig::interval_cycles` set).
    pub intervals: Vec<IntervalSample>,
    /// Per-static-branch CI-reuse scorecards, and the misprediction
    /// events behind Figure 5's classification.
    pub branch_prof: BranchProf,
    /// Load issue→value latency (forwarded loads count as 1 cycle).
    pub h_load_to_use: Hist,
    /// Branch dispatch→resolution latency.
    pub h_branch_resolve: Hist,
    /// Cycles a validating instruction waited for its replica's value
    /// (0 = the replica had already completed at decode).
    pub h_reuse_wait: Hist,
    /// Cycles from a pipeline flush (branch recovery or repair) to the
    /// next committed instruction.
    pub h_flush_recovery: Hist,
    /// Lifecycle records created by the per-instruction recorder
    /// (0 unless `--pipeview` / lifecycle tracing was enabled).
    pub lifecycle_records: u64,
    /// Retired lifecycle records dropped by the ring cap.
    pub lifecycle_dropped: u64,
    /// Per-cycle commit-slot attribution; buckets sum to
    /// `cycles × commit_width` (checked in `finalize_stats`).
    pub stall: StallBreakdown,
    /// Critical-path and what-if analysis (`None` unless lifecycle
    /// recording covered the whole run — `SimConfig::record_lifecycle`
    /// or `CFIR_PIPEVIEW` from cycle 0).
    pub bottleneck: Option<BottleneckReport>,
}

/// The plain `u64` counters of [`SimStats`] that a sampled run takes
/// window by window ([`SimStats::delta_since`]) and sums across
/// windows ([`SimStats::accumulate`]); `valfail_reasons` and the stall
/// breakdown go the same way, and `reg_high_water` is maxed. Everything
/// else (the oracle counters, histograms, intervals, per-branch
/// scorecards and events, the bottleneck report) is not
/// meaningfully subtractable and stays at its default in a window
/// delta. The list also names the counters a suite result carries and
/// its cache encodes ([`SimStats::window_counters`] and
/// [`SimStats::window_counters_mut`]). A new counter that should reach
/// a sampled run's snapshot or a suite aggregator belongs in this list.
macro_rules! window_counters {
    ($cb:ident) => {
        $cb!(
            cycles,
            committed,
            committed_reuse,
            squashed,
            replicas_executed,
            replicas_created,
            branches,
            mispredicts,
            validation_failures,
            commit_check_failures,
            stores,
            store_conflicts,
            loads,
            reg_occupancy_sum,
            strided_pc_dropped,
            strided_pc_sum,
            strided_pc_samples,
            vectorizations,
            l1d_accesses,
            l1d_misses,
            l1d_writebacks,
            l1i_accesses,
            l1i_misses,
            l2_accesses,
            l2_misses,
            l3_accesses,
            l3_misses,
            mem_accesses,
            fetched,
            specmem_copies,
            squash_reuse_hits,
            lifecycle_records,
            lifecycle_dropped
        );
    };
}

/// The named accessor pair over the window counters.
macro_rules! named_counters {
    ($($f:ident),*) => {
        /// Every window counter with its field name, in list order.
        pub fn window_counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
            [$((stringify!($f), self.$f)),*].into_iter()
        }

        /// Every window counter's field name and slot, in the order of
        /// [`SimStats::window_counters`].
        pub fn window_counters_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> {
            [$((stringify!($f), &mut self.$f)),*].into_iter()
        }
    };
}

impl SimStats {
    window_counters!(named_counters);

    /// Counter-wise `self - before` over the window counters, for two
    /// snapshots of the *same* pipeline (every counter of `self`
    /// dominates `before`). `reg_high_water` is carried over from
    /// `self`.
    pub fn delta_since(&self, before: &SimStats) -> SimStats {
        let mut d = SimStats::default();
        macro_rules! sub {
            ($($f:ident),*) => { $( d.$f = self.$f - before.$f; )* };
        }
        window_counters!(sub);
        for (slot, (a, b)) in d
            .valfail_reasons
            .iter_mut()
            .zip(self.valfail_reasons.iter().zip(&before.valfail_reasons))
        {
            *slot = a - b;
        }
        for cause in ALL_CAUSES {
            d.stall
                .charge(cause, self.stall.get(cause) - before.stall.get(cause));
        }
        d.reg_high_water = self.reg_high_water;
        d
    }

    /// Add a window delta ([`delta_since`](SimStats::delta_since))
    /// into a run total: counters summed, register high-water maxed.
    pub fn accumulate(&mut self, d: &SimStats) {
        macro_rules! add {
            ($($f:ident),*) => { $( self.$f += d.$f; )* };
        }
        window_counters!(add);
        for (slot, v) in self.valfail_reasons.iter_mut().zip(d.valfail_reasons) {
            *slot += v;
        }
        for cause in ALL_CAUSES {
            self.stall.charge(cause, d.stall.get(cause));
        }
        self.reg_high_water = self.reg_high_water.max(d.reg_high_water);
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Average physical registers in use per cycle (§2.4.2's 812/304).
    pub fn avg_regs_in_use(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.reg_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Fraction of committed instructions that reused a precomputed
    /// value (Figure 12 reports 12.3% / 14%).
    pub fn reuse_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.committed_reuse as f64 / self.committed as f64
        }
    }

    /// Fraction of committed stores that conflicted with a speculative
    /// load range (§2.4.3 reports < 3%).
    pub fn store_conflict_fraction(&self) -> f64 {
        if self.stores == 0 {
            0.0
        } else {
            self.store_conflicts as f64 / self.stores as f64
        }
    }

    /// Average propagated stridedPCs per (propagating) rename write
    /// (§2.3.2 reports 1.7 for SpecInt2000).
    pub fn avg_strided_pcs(&self) -> f64 {
        if self.strided_pc_samples == 0 {
            0.0
        } else {
            self.strided_pc_sum as f64 / self.strided_pc_samples as f64
        }
    }

    /// Wrong-path (squashed) activity as a fraction of all executed
    /// work, the §4 comparison metric (29.62% ci vs 48.45% vect).
    pub fn wrong_path_fraction(&self) -> f64 {
        let wasted = self.squashed + self.replicas_executed;
        let total = self.committed + wasted;
        if total == 0 {
            0.0
        } else {
            wasted as f64 / total as f64
        }
    }
}

/// Harmonic mean of a slice of positive rates (the paper averages IPC
/// across the suite with a harmonic mean).
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let denom: f64 = xs.iter().map(|x| 1.0 / x.max(1e-12)).sum();
    xs.len() as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        let z = SimStats::default();
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.mispredict_rate(), 0.0);
        assert_eq!(z.avg_regs_in_use(), 0.0);
        assert_eq!(z.reuse_fraction(), 0.0);
        assert_eq!(z.store_conflict_fraction(), 0.0);
        assert_eq!(z.avg_strided_pcs(), 0.0);
        assert_eq!(z.wrong_path_fraction(), 0.0);
    }

    #[test]
    fn wrong_path_fraction() {
        let s = SimStats {
            committed: 70,
            squashed: 20,
            replicas_executed: 10,
            ..Default::default()
        };
        assert!((s.wrong_path_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn window_deltas_sum_back_to_the_run() {
        let seq = crate::vec_engine::ValFail::SeqMismatch as usize;
        let at = |k: u64| {
            let mut s = SimStats {
                cycles: 100 * k,
                committed: 250 * k,
                lifecycle_dropped: k,
                reg_high_water: 10 * k,
                ..Default::default()
            };
            s.valfail_reasons[seq] = 3 * k;
            s.stall.charge(cfir_obs::StallCause::Useful, 800 * k);
            s
        };
        let (s0, s1, s2) = (at(0), at(1), at(3));
        let mut acc = SimStats::default();
        acc.accumulate(&s1.delta_since(&s0));
        acc.accumulate(&s2.delta_since(&s1));
        assert_eq!((acc.cycles, acc.committed), (300, 750));
        assert_eq!(acc.lifecycle_dropped, 3);
        assert_eq!(acc.valfail_reasons[seq], 9);
        assert_eq!(acc.stall.get(cfir_obs::StallCause::Useful), 2400);
        assert_eq!(acc.reg_high_water, 30, "high-water is maxed, not summed");
    }

    #[test]
    fn the_accessor_pair_walks_the_window_list_once() {
        let mut s = SimStats::default();
        for (k, (_, slot)) in s.window_counters_mut().enumerate() {
            *slot = k as u64 + 1;
        }
        let read: Vec<_> = s.window_counters().collect();
        assert_eq!(read[0], ("cycles", 1));
        assert_eq!(read.last(), Some(&("lifecycle_dropped", read.len() as u64)));
        let mut names: Vec<_> = read.iter().map(|(k, _)| *k).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), read.len(), "each counter named once");
        let d = s.delta_since(&SimStats::default());
        assert_eq!(d.window_counters().collect::<Vec<_>>(), read);
    }

    #[test]
    fn harmonic_mean_basics() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        // HM of 1 and 3 is 1.5, biased toward the small value.
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
    }
}
