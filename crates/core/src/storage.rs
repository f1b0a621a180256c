//! Extra-hardware storage accounting (§3.1).
//!
//! The paper reports the storage of the mechanism's structures for the
//! evaluated configuration; this module re-derives those numbers from
//! the field widths in Figures 3, 6 and 7 so the Table 1 harness can
//! print them.

use crate::MechConfig;
use cfir_predict::{STRIDE_SETS, STRIDE_WAYS};

/// NRBQ capacity (16 entries, §3.1). Only the storage budget reads it:
/// the simulator takes the CRP's initial mask from an exact walk of its
/// window instead of ORing NRBQ masks (DESIGN.md decision 12).
const NRBQ_ENTRIES: usize = 16;

/// Byte sizes of every added structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// SRSMT bytes (45 B/entry for 4 replicas & 256 registers).
    pub srsmt: usize,
    /// Stride predictor bytes (24 B/entry).
    pub stride: usize,
    /// MBS bytes (8 B/entry).
    pub mbs: usize,
    /// NRBQ bytes (8 B/entry).
    pub nrbq: usize,
    /// CRP bytes (PC + mask).
    pub crp: usize,
    /// Rename-map extension bytes (16 B/entry × 64).
    pub rename_ext: usize,
}

impl StorageReport {
    /// Total extra storage in bytes.
    pub fn total(&self) -> usize {
        self.srsmt + self.stride + self.mbs + self.nrbq + self.crp + self.rename_ext
    }
}

/// Derive the storage of the configuration, following §3.1's
/// arithmetic:
///
/// * SRSMT entry (Figure 6): set-of-registers `replicas × 8` bits,
///   Nregs/decode/commit/issue 2 bits each, seq1+seq2 `2×64`, DAEC 2,
///   Range `2×64`, PC 64 → 45 bytes for 4 replicas.
/// * Stride predictor entry (Figure 3): PC 64 + last addr 64 + stride
///   64 + confidence 2 + S 1 → 24 bytes (rounded as the paper does).
/// * MBS entry: PC tag + 4-bit counter → 8 bytes.
/// * NRBQ entry: 8 bytes. CRP: 8 (PC) + 8 (mask).
/// * Rename extension (Figure 7): 16 bytes × 64 logical registers.
pub fn report(cfg: &MechConfig) -> StorageReport {
    let srsmt_entry_bits = cfg.replicas_per_inst as usize * 8 + 4 * 2 + 2 * 64 + 2 + 2 * 64 + 64;
    // 362 bits for 4 replicas; the paper counts this as 45 bytes
    // (truncating division), which we follow to reproduce its totals.
    let srsmt_entry_bytes = srsmt_entry_bits / 8;
    let stride_entry_bytes = 24; // 64+64+64+2+1 bits rounded up to 3 words
    let mbs_entry_bytes = 8;
    StorageReport {
        srsmt: cfg.srsmt_sets * cfg.srsmt_ways * srsmt_entry_bytes,
        stride: STRIDE_SETS * STRIDE_WAYS * stride_entry_bytes,
        mbs: cfg.mbs_sets * cfg.mbs_ways * mbs_entry_bytes,
        nrbq: NRBQ_ENTRIES * 8,
        crp: 16,
        rename_ext: 16 * 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_numbers() {
        let r = report(&MechConfig::paper());
        assert_eq!(r.srsmt, 11520, "SRSMT: 4 ways * 64 sets * 45 B");
        assert_eq!(r.stride, 24576, "stride predictor: 4 * 256 * 24 B");
        assert_eq!(r.mbs, 2048, "MBS: 4 * 64 * 8 B");
        assert_eq!(r.nrbq, 128, "NRBQ: 16 * 8 B");
        assert_eq!(r.crp, 16);
        assert_eq!(r.rename_ext, 1024, "16 B * 64 entries");
        // "a total of 39 Kbytes of extra storage"
        let kb = r.total() as f64 / 1024.0;
        assert!((38.0..40.0).contains(&kb), "total = {kb} KB");
    }

    #[test]
    fn srsmt_entry_is_45_bytes_for_4_replicas() {
        let bits = 4 * 8 + 4 * 2 + 2 * 64 + 2 + 2 * 64 + 64;
        assert_eq!(bits / 8, 45);
    }

    #[test]
    fn more_replicas_grow_srsmt() {
        let r4 = report(&MechConfig::paper());
        let mut c8 = MechConfig::paper();
        c8.replicas_per_inst = 8;
        let r8 = report(&c8);
        assert!(r8.srsmt > r4.srsmt);
    }
}
