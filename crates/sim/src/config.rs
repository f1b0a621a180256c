//! Simulator configuration (Table 1 plus the mechanism knobs).

use cfir_core::MechConfig;
use cfir_mem::HierarchyConfig;

/// Which machine is simulated. These are the bar/series labels used
/// throughout the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain superscalar, scalar cache ports (`scalxp`).
    Scalar,
    /// Superscalar with wide buses (`wbxp`, §2.4.5).
    WideBus,
    /// Control independence exploited only inside the instruction
    /// window — squash reuse (`ci-iw`, Figure 10).
    CiIw,
    /// The paper's proposal: CI reuse via dynamic vectorization,
    /// on top of wide buses (`cixp`).
    Ci,
    /// Full-blown speculative dynamic vectorization of reference \[12\]
    /// (`vect`, Figure 14): every trusted strided load is vectorized,
    /// no CI gating.
    Vect,
}

impl Mode {
    /// Whether this mode uses the wide-bus data cache (§2.4.5). The
    /// paper runs `ci` and `vect` on top of wide buses.
    pub fn wide_bus(self) -> bool {
        !matches!(self, Mode::Scalar)
    }

    /// Whether the replica engine (dynamic vectorization) is active.
    pub fn vectorizes(self) -> bool {
        matches!(self, Mode::Ci | Mode::Vect)
    }

    /// Whether the CI selection machinery (MBS/CRP) is active.
    pub fn selects_ci(self) -> bool {
        matches!(self, Mode::Ci | Mode::CiIw)
    }

    /// Parse a label back into a mode (the inverse of
    /// [`Mode::label`]); used by the CLI tools.
    pub fn from_label(s: &str) -> Option<Mode> {
        Some(match s {
            "scal" => Mode::Scalar,
            "wb" => Mode::WideBus,
            "ci-iw" => Mode::CiIw,
            "ci" => Mode::Ci,
            "vect" => Mode::Vect,
            _ => return None,
        })
    }

    /// Short label used in reports (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            Mode::Scalar => "scal",
            Mode::WideBus => "wb",
            Mode::CiIw => "ci-iw",
            Mode::Ci => "ci",
            Mode::Vect => "vect",
        }
    }
}

/// Physical register file size: the X axis of Figures 9, 11, 13, 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegFileSize {
    /// Bounded file with this many physical registers.
    Finite(u32),
    /// Unbounded ("Inf" in the figures).
    Infinite,
}

impl RegFileSize {
    /// Label used in reports.
    pub fn label(self) -> String {
        match self {
            RegFileSize::Finite(n) => format!("{n} regs"),
            RegFileSize::Infinite => "Inf".to_string(),
        }
    }
}

/// Full simulator configuration. Defaults reproduce Table 1 with the
/// paper's preferred mechanism parameters (4 replicas, 2 stridedPC
/// slots, 2 wide ports are *not* default — port count is explicit).
/// Table 1's values that no run varies are constants beside their
/// readers instead: widths, LSQ and functional units
/// ([`crate::FETCH_WIDTH`], …), MSHRs ([`crate::MSHRS`]), the wide
/// bus's loads per access, and the gshare size
/// ([`cfir_predict::GSHARE_ENTRIES`]).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Machine variant.
    pub mode: Mode,
    /// Commit width (8).
    pub commit_width: u32,
    /// Instruction window / ROB entries (256; grows to the register
    /// count for configurations beyond 256 registers, §3.2).
    pub window: u32,
    /// Physical registers.
    pub regs: RegFileSize,
    /// L1 data cache ports (1 or 2; the `x` of `scalxp`/`wbxp`/`cixp`).
    pub dports: u32,
    /// Cache hierarchy geometry/latencies.
    pub hierarchy: HierarchyConfig,
    /// Mechanism parameters (replicas, stridedPC slots, tables).
    pub mech: MechConfig,
    /// Maximum *committed* instructions before the run stops.
    pub max_insts: u64,
    /// Run the golden-model co-simulation check at every commit.
    pub cosim_check: bool,
    /// Sample `SimStats::intervals` every this many cycles (0 = off).
    /// Used for warm-up/stationarity analysis of the measurement
    /// windows (see the `exp_warmup` binary).
    pub interval_cycles: u64,
    /// Oracle branch prediction (limit study): conditional branches and
    /// indirect jumps always fetch down the correct path. Shows how
    /// much of the misprediction penalty the CI mechanism recovers
    /// relative to the upper bound.
    pub perfect_branch_prediction: bool,
    /// Record per-instruction lifecycle data for the whole run
    /// (unbounded ring, so `lifecycle.dropped` stays 0) and derive the
    /// bottleneck report — critical path, CPI stack, what-if
    /// projections — in `finalize_stats`. Costs memory proportional to
    /// the instruction budget; `CFIR_PIPEVIEW` takes precedence when
    /// both are set.
    pub record_lifecycle: bool,
}

impl SimConfig {
    /// Table 1 baseline: 8-way superscalar, 256-entry window, 1 port,
    /// 256 registers, scalar bus.
    pub fn paper_baseline() -> Self {
        SimConfig {
            mode: Mode::Scalar,
            commit_width: 8,
            window: 256,
            regs: RegFileSize::Finite(256),
            dports: 1,
            hierarchy: HierarchyConfig::paper(),
            mech: MechConfig::paper(),
            max_insts: 1_000_000,
            cosim_check: cfg!(debug_assertions),
            interval_cycles: 0,
            perfect_branch_prediction: false,
            record_lifecycle: false,
        }
    }

    /// Builder-style: set the mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style: set the register file size; windows beyond 256
    /// registers grow the ROB to match (§3.2).
    pub fn with_regs(mut self, regs: RegFileSize) -> Self {
        self.regs = regs;
        self.window = match regs {
            RegFileSize::Finite(n) if n > 256 => n,
            RegFileSize::Infinite => 1024,
            _ => 256,
        };
        self
    }

    /// Builder-style: set the number of L1D ports.
    pub fn with_dports(mut self, p: u32) -> Self {
        self.dports = p;
        self
    }

    /// Builder-style: set the committed-instruction budget.
    pub fn with_max_insts(mut self, n: u64) -> Self {
        self.max_insts = n;
        self
    }

    /// Builder-style: replicas per vectorized instruction (Figure 11).
    pub fn with_replicas(mut self, r: u8) -> Self {
        self.mech.replicas_per_inst = r;
        self
    }

    /// Builder-style: enable full-run lifecycle recording and the
    /// bottleneck (critical-path / what-if) analysis.
    pub fn with_lifecycle(mut self) -> Self {
        self.record_lifecycle = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = SimConfig::paper_baseline();
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.window, 256);
    }

    #[test]
    fn window_grows_with_registers() {
        let c = SimConfig::paper_baseline().with_regs(RegFileSize::Finite(768));
        assert_eq!(c.window, 768);
        let c = SimConfig::paper_baseline().with_regs(RegFileSize::Finite(128));
        assert_eq!(c.window, 256);
        let c = SimConfig::paper_baseline().with_regs(RegFileSize::Infinite);
        assert_eq!(c.window, 1024);
    }

    #[test]
    fn mode_properties() {
        assert!(!Mode::Scalar.wide_bus());
        assert!(Mode::WideBus.wide_bus());
        assert!(Mode::Ci.wide_bus());
        assert!(Mode::Ci.vectorizes());
        assert!(Mode::Vect.vectorizes());
        assert!(!Mode::CiIw.vectorizes());
        assert!(Mode::CiIw.selects_ci());
        assert!(!Mode::Vect.selects_ci());
        assert_eq!(Mode::Ci.label(), "ci");
        for m in [
            Mode::Scalar,
            Mode::WideBus,
            Mode::CiIw,
            Mode::Ci,
            Mode::Vect,
        ] {
            assert_eq!(Mode::from_label(m.label()), Some(m), "label round-trip");
        }
        assert_eq!(Mode::from_label("nope"), None);
    }

    #[test]
    fn reg_labels() {
        assert_eq!(RegFileSize::Finite(128).label(), "128 regs");
        assert_eq!(RegFileSize::Infinite.label(), "Inf");
    }
}
