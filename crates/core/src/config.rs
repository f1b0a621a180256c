//! Configuration knobs of the CI/DV mechanism.

/// All mechanism parameters, defaulting to the configuration evaluated
/// in the paper (§3.1, Table 1). Values no run varies are constants
/// instead: the stride predictor's geometry
/// ([`cfir_predict::STRIDE_SETS`] × [`cfir_predict::STRIDE_WAYS`]), the
/// NRBQ's capacity (in [`crate::storage`], its only reader) and the
/// speculative memory's latency (`cfir-sim`'s mechanism state).
#[derive(Debug, Clone)]
pub struct MechConfig {
    /// Speculative replicas generated per vectorized instruction
    /// (Figure 11 sweeps 1, 2, 4, 8; the paper's default is 4).
    pub replicas_per_inst: u8,
    /// Propagated strided-load PCs per rename-map entry (Figure 4
    /// sweeps 1, 2, 4; SpecInt2000 needs 1.7 on average).
    pub strided_pc_slots: usize,
    /// DAEC threshold: replica registers of an entry untouched across
    /// this many misprediction recoveries are released (§2.4.2: 2).
    pub daec_threshold: u8,
    /// MBS geometry: sets × ways (64 × 4, §3.1).
    pub mbs_sets: usize,
    /// MBS associativity.
    pub mbs_ways: usize,
    /// SRSMT geometry: sets × ways (64 × 4, §3.1).
    pub srsmt_sets: usize,
    /// SRSMT associativity.
    pub srsmt_ways: usize,
    /// Speculative data memory positions (`ci-h-N` of Figure 13);
    /// `None` = monolithic register file holds replica values.
    pub specmem_positions: Option<usize>,
    /// Gate the CI scheme to hard-to-predict branches via the MBS
    /// (§2.3.1). Disabling treats every misprediction as hard
    /// (ablation).
    pub mbs_gating: bool,
    /// Use the full §2.3.1 re-convergence heuristics. Disabling falls
    /// back to "next sequential instruction" for every branch
    /// (ablation).
    pub full_rcp_heuristic: bool,
    /// Physical registers the replica engine must leave free for
    /// scalar rename (see DESIGN.md; 16 by default).
    pub replica_headroom: usize,
    /// Issue replicas *before* scalar instructions each cycle —
    /// inverting §2.4.1's "speculative vectorized instructions are
    /// given less priority than the rest" (ablation).
    pub replicas_first: bool,
    /// Refuse to re-vectorize a PC after this many commit-time
    /// mis-speculation repairs (a saturating `u8` confidence counter,
    /// decaying by 1 every 32,768 commits). The default, `u8::MAX`, is
    /// meant to switch the filter off, because suppressing
    /// re-vectorization also suppresses the reuse the paper measures
    /// (see the `ablations` experiment). It does not quite: the test
    /// is `count >= threshold`, so a PC whose count saturates at 255
    /// net repairs is still refused (DESIGN.md decision 13).
    pub misspec_blacklist: u8,
}

impl Default for MechConfig {
    fn default() -> Self {
        MechConfig {
            replicas_per_inst: 4,
            strided_pc_slots: 2,
            daec_threshold: 2,
            mbs_sets: 64,
            mbs_ways: 4,
            srsmt_sets: 64,
            srsmt_ways: 4,
            specmem_positions: None,
            mbs_gating: true,
            full_rcp_heuristic: true,
            replica_headroom: 16,
            replicas_first: false,
            misspec_blacklist: u8::MAX,
        }
    }
}

impl MechConfig {
    /// The paper's evaluated configuration (§3.1).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Paper configuration with the §2.4.6 speculative data memory of
    /// `positions` entries (Figure 13's `ci-h-N`).
    pub fn paper_with_specmem(positions: usize) -> Self {
        MechConfig {
            specmem_positions: Some(positions),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MechConfig::paper();
        assert_eq!(c.replicas_per_inst, 4);
        assert_eq!(c.strided_pc_slots, 2);
        assert_eq!(c.daec_threshold, 2);
        assert_eq!((c.mbs_sets, c.mbs_ways), (64, 4));
        assert_eq!((c.srsmt_sets, c.srsmt_ways), (64, 4));
        assert!(c.specmem_positions.is_none());
        assert!(c.mbs_gating);
        assert!(c.full_rcp_heuristic);
        assert_eq!(c.replica_headroom, 16);
    }

    #[test]
    fn specmem_variant() {
        let c = MechConfig::paper_with_specmem(768);
        assert_eq!(c.specmem_positions, Some(768));
    }
}
