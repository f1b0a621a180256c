//! # cfir-sim
//!
//! An execution-driven, cycle-level, 8-way out-of-order superscalar
//! simulator built from scratch for the CFIR reproduction (Pajuelo,
//! González, Valero — IPDPS 2005). It models the Table-1 machine:
//!
//! * 8-wide fetch (gshare-directed, ≤ 1 taken branch, I-cache latency),
//! * register renaming over a bounded/unbounded physical register file,
//!   undone on a squash by walking the squashed window youngest first,
//! * a 256-entry instruction window (growing with the register file,
//!   §3.2), 64-entry LSQ with store→load forwarding,
//! * Table-1 functional units and latencies, 1–2 L1D ports, wide-bus
//!   option (§2.4.5), MSHR-limited outstanding misses,
//! * full wrong-path execution with squash/recovery,
//! * and the paper's five machine variants ([`Mode`]): `scal`, `wb`,
//!   `ci-iw` (squash reuse), `ci` (the proposal) and `vect` (the
//!   full-blown dynamic vectorization comparator of reference \[12\]).
//!
//! Correctness is enforced two ways: every committed instruction can be
//! checked against the `cfir-emu` golden model (`cosim_check`), and
//! every *reused* value is verified against committed architectural
//! state at commit, with a repair flush on mismatch — so the CI
//! mechanism can never corrupt architectural state, exactly like the
//! hardware proposal.
//!
//! ```
//! use cfir_sim::{Pipeline, SimConfig, RunExit};
//! use cfir_emu::MemImage;
//!
//! let prog = cfir_isa::assemble("demo", "li r1, 2\nli r2, 3\nadd r3, r1, r2\nhalt").unwrap();
//! let mut pipe = Pipeline::new(&prog, MemImage::new(), SimConfig::paper_baseline());
//! assert_eq!(pipe.run(), RunExit::Halted);
//! assert_eq!(pipe.arch_reg(3), 5);
//! ```

mod commit_stage;
mod config;
mod exec;
mod lsq;
mod mech;
mod observe;
mod pipeline;
mod prof;
mod regfile;
mod rob;
mod snapshot;
mod stall_attr;
mod stats;
mod vec_engine;

pub use config::{Mode, RegFileSize, SimConfig};
pub use exec::MSHRS;
pub use observe::CommitRecord;
pub use pipeline::{
    Pipeline, PipelineSnapshot, RunExit, WarmStart, FETCH_WIDTH, FP_ALUS, FP_MULDIVS, INT_ALUS,
    INT_MULDIVS, ISSUE_WIDTH, LSQ_ENTRIES,
};
pub use prof::{BranchProf, BranchScore};
pub use snapshot::{run_json, Estimate, SampledRun, WindowRow, SCHEMA_VERSION};
pub use stats::{harmonic_mean, IntervalSample, SimStats};
