//! Rename-map extensions (§2.3.2 and Figure 7).
//!
//! Every logical register in the rename map is extended with:
//!
//! * the set of **strided-load PCs** in its backward slice (`stridedPC`
//!   — at most `strided_pc_slots` of them, the Figure 4 knob; the
//!   paper measures 1.7 needed on average). Arithmetic instructions
//!   union their sources' sets into the destination.
//! * the **V/S** bit and **Seq**: whether the latest producer of this
//!   logical register was vectorized, and if so its identifier (PC).

/// Maximum supported stridedPC slots (Figure 4 sweeps up to 4).
pub const MAX_STRIDED_SLOTS: usize = 4;

/// Per-logical-register rename extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenameExt {
    strided: [u64; MAX_STRIDED_SLOTS],
    n: u8,
    /// V/S bit: latest producer was vectorized.
    pub vs: bool,
    /// Producer identifier (PC) when `vs` is set.
    pub seq: u64,
}

impl RenameExt {
    /// Empty extension (no strided producers, not vectorized).
    pub fn new() -> Self {
        Self::default()
    }

    /// The strided-load PCs currently propagated to this register.
    #[inline]
    pub fn strided_pcs(&self) -> &[u64] {
        &self.strided[..self.n as usize]
    }

    /// Number of propagated PCs.
    #[inline]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether no strided PCs are propagated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Reset to "produced by a non-strided, non-vectorized instruction".
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Mark as produced by the strided load at `pc`.
    pub fn set_strided_load(&mut self, pc: u64) {
        self.strided = [0; MAX_STRIDED_SLOTS];
        self.strided[0] = pc;
        self.n = 1;
    }

    /// Mark as produced by a vectorized instruction identified by `seq`.
    pub fn set_vectorized(&mut self, seq: u64) {
        self.vs = true;
        self.seq = seq;
    }

    /// Clear the vectorized marking (producer not vectorized).
    pub fn clear_vectorized(&mut self) {
        self.vs = false;
        self.seq = 0;
    }

    /// Propagate for an arithmetic destination: union of the sources'
    /// strided sets, truncated to `cap` slots. Returns how many PCs
    /// were dropped by the truncation (the Figure 4 loss metric).
    pub fn propagate_from<'a>(
        sources: impl IntoIterator<Item = &'a RenameExt>,
        cap: usize,
    ) -> (RenameExt, usize) {
        let cap = cap.min(MAX_STRIDED_SLOTS);
        let mut out = RenameExt::new();
        let mut dropped = 0usize;
        for s in sources {
            for &pc in s.strided_pcs() {
                if out.strided_pcs().contains(&pc) {
                    continue;
                }
                if (out.n as usize) < cap {
                    out.strided[out.n as usize] = pc;
                    out.n += 1;
                } else {
                    dropped += 1;
                }
            }
        }
        (out, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_load_sets_single_pc() {
        let mut e = RenameExt::new();
        e.set_strided_load(0x40);
        assert_eq!(e.strided_pcs(), &[0x40]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn union_dedups() {
        let mut a = RenameExt::new();
        a.set_strided_load(0x40);
        let mut b = RenameExt::new();
        b.set_strided_load(0x40);
        let (u, dropped) = RenameExt::propagate_from([&a, &b], 4);
        assert_eq!(u.strided_pcs(), &[0x40]);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn union_caps_and_counts_drops() {
        let mut a = RenameExt::new();
        a.set_strided_load(0x10);
        let mut b = RenameExt::new();
        b.set_strided_load(0x20);
        let (u2, d2) = RenameExt::propagate_from([&a, &b], 2);
        assert_eq!(u2.len(), 2);
        assert_eq!(d2, 0);
        let (u1, d1) = RenameExt::propagate_from([&a, &b], 1);
        assert_eq!(u1.strided_pcs(), &[0x10]);
        assert_eq!(d1, 1);
    }

    #[test]
    fn chain_propagation_accumulates() {
        // r3 <- f(load@A); r4 <- f(load@B); r5 <- r3 + r4
        let mut r3 = RenameExt::new();
        r3.set_strided_load(0xA0);
        let mut r4 = RenameExt::new();
        r4.set_strided_load(0xB0);
        let (r5, _) = RenameExt::propagate_from([&r3, &r4], 4);
        // r6 <- r5 + r3 : still {A0, B0}
        let (r6, d) = RenameExt::propagate_from([&r5, &r3], 4);
        let mut pcs = r6.strided_pcs().to_vec();
        pcs.sort_unstable();
        assert_eq!(pcs, vec![0xA0, 0xB0]);
        assert_eq!(d, 0);
    }

    #[test]
    fn vectorized_marking() {
        let mut e = RenameExt::new();
        assert!(!e.vs);
        e.set_vectorized(0x77);
        assert!(e.vs);
        assert_eq!(e.seq, 0x77);
        e.clear_vectorized();
        assert!(!e.vs);
    }

    #[test]
    fn clear_wipes_everything() {
        let mut e = RenameExt::new();
        e.set_strided_load(0x40);
        e.set_vectorized(0x40);
        e.clear();
        assert!(e.is_empty());
        assert!(!e.vs);
    }

    #[test]
    fn cap_above_max_is_clamped() {
        let mut a = RenameExt::new();
        a.set_strided_load(1);
        let (u, _) = RenameExt::propagate_from([&a], 100);
        assert_eq!(u.len(), 1);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;

    #[test]
    fn rename_ext_is_copy_for_cheap_checkpoints() {
        // Every renamed destination keeps its previous extension in its
        // window entry for squash recovery; Copy keeps that a memcpy.
        fn assert_copy<T: Copy>() {}
        assert_copy::<RenameExt>();
        let mut a = RenameExt::new();
        a.set_strided_load(0x40);
        a.set_vectorized(0x40);
        let b = a; // copy
        let mut a2 = a;
        a2.clear();
        assert_eq!(b.strided_pcs(), &[0x40], "copies are independent");
        assert!(b.vs);
    }

    #[test]
    fn propagate_from_empty_sources() {
        let (x, d) = RenameExt::propagate_from(std::iter::empty(), 4);
        assert!(x.is_empty());
        assert_eq!(d, 0);
        let e = RenameExt::new();
        let (x, d) = RenameExt::propagate_from([&e, &e], 2);
        assert!(x.is_empty());
        assert_eq!(d, 0);
    }

    #[test]
    fn cap_zero_drops_everything() {
        let mut a = RenameExt::new();
        a.set_strided_load(0x10);
        let (x, d) = RenameExt::propagate_from([&a], 0);
        assert!(x.is_empty());
        assert_eq!(d, 1, "the dropped PC is counted for Figure 4");
    }
}
