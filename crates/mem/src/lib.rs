//! # cfir-mem
//!
//! The memory-system substrate of the CFIR simulator: set-associative
//! LRU caches and the three-level hierarchy of Table 1 in the paper
//! (Pajuelo et al., IPDPS 2005):
//!
//! | level | size  | assoc | line | hit | next |
//! |-------|-------|-------|------|-----|------|
//! | L1I   | 64 KB | 2     | 64 B | 1   | L2   |
//! | L1D   | 64 KB | 2     | 32 B | 1   | L2   |
//! | L2    | 256 KB| 4     | 32 B | 6   | L3   |
//! | L3    | 2 MB  | 4     | 64 B | 18  | mem (100) |
//!
//! Latency-only model: the hierarchy returns how many cycles an access
//! takes, maintains tag state (LRU, dirty bits, write-backs) and the
//! access counters that Figure 8 of the paper reports. Port arbitration
//! and the wide bus (one access returns a whole line, serving up to 4
//! loads — §2.4.5) are enforced by the core in `cfir-sim`, which is
//! where per-cycle bandwidth lives; this crate supplies the line
//! geometry helpers it needs.

//! ```
//! use cfir_mem::Hierarchy;
//!
//! let mut h = Hierarchy::paper();
//! assert_eq!(h.access_data(0x1000, false), 100, "cold: memory latency");
//! assert_eq!(h.access_data(0x1000, false), 1, "warm: L1 hit");
//! assert_eq!(h.access_data(0x1008, false), 1, "same 32-byte line");
//! ```

pub mod cache;
pub mod hierarchy;

pub use cache::{Cache, CacheConfig, WarmCache, Way};
pub use hierarchy::{AccessKind, Hierarchy, HierarchyConfig, WarmHierarchy};
