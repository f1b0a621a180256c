//! CRP — Current Re-convergent Point register (§2.3.1, §2.3.2).
//!
//! Holds the PC of the estimated re-convergent point of the most recent
//! mispredicted hard branch, an `R` (reached) flag, and a 64-bit mask
//! of logical registers written since the branch was fetched (wrong
//! path included) and before the re-convergent point.
//!
//! After the re-convergent point is reached, an instruction whose
//! source registers all have clear mask bits is *control independent*.
//! Destinations of non-CI instructions keep setting mask bits so the
//! taint closes over the dataflow; destinations of CI instructions do
//! not (their values are unchanged by the misprediction).

/// The CRP register.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crp {
    /// Whether a re-convergent point is currently being tracked.
    pub active: bool,
    /// PC of the estimated re-convergent point.
    pub rcp: u32,
    /// `R` flag: the re-convergent point has been fetched.
    pub reached: bool,
    /// Written-register mask.
    pub mask: u64,
    /// Identifier of the misprediction event that activated the CRP
    /// (used for the Figure 5 classification).
    pub event: u64,
}

impl Crp {
    /// Fresh, inactive register.
    pub fn new() -> Self {
        Self::default()
    }

    /// Activate for a new misprediction: `rcp` from the heuristic,
    /// `initial_mask` the registers the wrong path wrote before reaching
    /// `rcp` (the simulator walks its window for them where the paper
    /// ORs NRBQ masks), `event` for attribution.
    pub fn activate(&mut self, rcp: u32, initial_mask: u64, event: u64) {
        *self = Crp {
            active: true,
            rcp,
            reached: false,
            mask: initial_mask,
            event,
        };
    }

    /// Deactivate (e.g. replaced by a newer misprediction).
    pub fn deactivate(&mut self) {
        self.active = false;
    }

    /// Called for every fetched instruction; sets `R` when the
    /// re-convergent point arrives. Returns the (possibly just set)
    /// reached flag.
    #[inline]
    pub fn on_fetch(&mut self, pc: u32) -> bool {
        if self.active && !self.reached && pc == self.rcp {
            self.reached = true;
        }
        self.active && self.reached
    }

    /// Whether an instruction reading `sources` would be control
    /// independent right now (must be called only when `reached`).
    #[inline]
    pub fn is_control_independent(&self, sources: [Option<u8>; 2]) -> bool {
        if !(self.active && self.reached) {
            return false;
        }
        sources
            .iter()
            .flatten()
            .all(|&r| self.mask & (1u64 << r) == 0)
    }

    /// Record the destination write of a decoded instruction.
    /// Before the RCP every write taints; after it, only non-CI
    /// instructions taint.
    #[inline]
    pub fn on_dest_write(&mut self, reg: u8, instruction_is_ci: bool) {
        if !self.active {
            return;
        }
        if !self.reached || !instruction_is_ci {
            self.mask |= 1u64 << reg;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut c = Crp::new();
        assert!(!c.active);
        c.activate(0x20, 0b1010, 7);
        assert!(c.active);
        assert!(!c.reached);
        assert_eq!(c.mask, 0b1010);
        assert_eq!(c.event, 7);
        assert!(!c.on_fetch(0x10));
        assert!(c.on_fetch(0x20), "RCP fetch sets R");
        assert!(c.on_fetch(0x24), "stays reached");
        c.deactivate();
        assert!(!c.on_fetch(0x20));
    }

    #[test]
    fn ci_test_needs_reached() {
        let mut c = Crp::new();
        c.activate(0x20, 0, 0);
        assert!(!c.is_control_independent([None, None]), "not reached yet");
        c.on_fetch(0x20);
        assert!(c.is_control_independent([None, None]));
    }

    #[test]
    fn ci_test_checks_source_bits() {
        let mut c = Crp::new();
        c.activate(0x20, (1 << 3) | (1 << 5), 0);
        c.on_fetch(0x20);
        assert!(c.is_control_independent([Some(1), Some(2)]));
        assert!(!c.is_control_independent([Some(3), None]));
        assert!(!c.is_control_independent([Some(1), Some(5)]));
        assert!(
            c.is_control_independent([Some(0), None]),
            "r0 never tainted"
        );
    }

    #[test]
    fn writes_before_rcp_always_taint() {
        let mut c = Crp::new();
        c.activate(0x20, 0, 0);
        c.on_dest_write(4, true); // "CI" claim irrelevant before RCP
        c.on_fetch(0x20);
        assert!(!c.is_control_independent([Some(4), None]));
    }

    #[test]
    fn post_rcp_ci_writes_do_not_taint() {
        let mut c = Crp::new();
        c.activate(0x20, 0, 0);
        c.on_fetch(0x20);
        c.on_dest_write(4, true); // CI instruction writing r4
        assert!(c.is_control_independent([Some(4), None]));
        c.on_dest_write(6, false); // non-CI instruction writing r6
        assert!(!c.is_control_independent([Some(6), None]));
    }

    #[test]
    fn inactive_ignores_writes() {
        let mut c = Crp::new();
        c.on_dest_write(4, false);
        c.activate(0x20, 0, 0);
        c.on_fetch(0x20);
        assert!(c.is_control_independent([Some(4), None]));
    }
}
