//! # cfir-core
//!
//! The hardware structures of the control-flow independence (CI)
//! mechanism from *"Control-Flow Independence Reuse via Dynamic
//! Vectorization"* (Pajuelo, González, Valero — IPDPS 2005):
//!
//! * [`Mbs`] — Mispredicted Branch Status table (§2.3.1): a 4-bit
//!   biased/unbiased classifier that gates the mechanism to
//!   hard-to-predict branches.
//! * [`rcp`] — the re-convergent-point estimation heuristics of §2.3.1
//!   (backward branch → fall-through; forward branch → inspect the
//!   instruction one above the target to distinguish if-then from
//!   if-then-else hammocks).
//! * [`Crp`] — Current Re-convergent Point register (§2.3.2): RCP PC,
//!   Reached flag and the accumulated write mask used to test whether a
//!   post-RCP instruction is control independent.
//! * [`RenameExt`] — the rename-map extension (§2.3.2/§2.3.3 Fig 7):
//!   per logical register, the propagated strided-load PCs (1/2/4
//!   slots — Figure 4's knob), the V/S vectorized bit and the producer
//!   sequence (PC).
//! * [`Srsmt`] — Scalar Register Set Map Table (§2.3.3 Fig 6): per
//!   vectorized instruction, the set of replica destination registers,
//!   `Nregs`, the `decode`/`commit`/`issue` counters, the `seq1`/`seq2`
//!   source identifiers, the DAEC counter (§2.4.2) and the address
//!   `Range` used by the store-coherence check (§2.4.3).
//! * [`SpecMem`] — the positions of the small, slow speculative-data
//!   memory of §2.4.6 (the `ci-h-N` configurations of Figure 13).
//! * [`storage`] — the §3.1 extra-hardware byte accounting (39 KB).
//! * [`BitSet`] — a fixed-size index set: the SRSMT's live ways, the
//!   window slots `cfir-sim`'s issue stage walks, and `cfir-analyze`'s
//!   reaching-definition sets.
//!
//! The replica execution engine itself (dispatching the speculative
//! instances into the issue queue, executing them at low priority, and
//! the validation pipeline) lives in `cfir-sim`, which owns the
//! pipeline these structures plug into.

//! ```
//! use cfir_core::{rcp, Crp, Mbs};
//!
//! // The Figure-1 hammock re-converges at the join:
//! let prog = cfir_isa::assemble("h", r#"
//!     ld  r8, 0(r1)
//!     beq r8, r0, else_
//!     addi r2, r2, 1
//!     jmp ip
//! else_:
//!     addi r3, r3, 1
//! ip:
//!     add r4, r4, r8
//!     halt
//! "#).unwrap();
//! assert_eq!(rcp::estimate(&prog, 1), Some(5), "the join is the RCP");
//!
//! // The MBS keeps the scheme away from biased branches:
//! let mut mbs = Mbs::paper();
//! for _ in 0..16 { mbs.observe(0x40, true); }
//! assert!(!mbs.is_hard(0x40));
//!
//! // And the CRP mask decides control independence:
//! let mut crp = Crp::new();
//! crp.activate(5, 1 << 2 | 1 << 3, 0);
//! crp.on_fetch(5);
//! assert!(crp.is_control_independent([Some(4), Some(8)]));
//! assert!(!crp.is_control_independent([Some(2), None]));
//! ```

pub mod bitset;
pub mod config;
pub mod crp;
pub mod mbs;
pub mod rcp;
pub mod rename_ext;
pub mod specmem;
pub mod srsmt;
pub mod storage;

pub use bitset::BitSet;
pub use config::MechConfig;
pub use crp::Crp;
pub use mbs::Mbs;
pub use rename_ext::RenameExt;
pub use specmem::SpecMem;
pub use srsmt::{SeqId, Srsmt, SrsmtEntry, VecKind};
