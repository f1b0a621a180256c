//! # cfir — Control-Flow Independence Reuse via Dynamic Vectorization
//!
//! A from-scratch reproduction of *Pajuelo, González, Valero —
//! "Control-Flow Independence Reuse via Dynamic Vectorization"*
//! (IPDPS 2005), as a Rust workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`isa`] | 64-register RISC ISA, assembler, program builder |
//! | [`emu`] | functional (golden-model) emulator, paged word memory |
//! | [`mem`] | L1I/L1D/L2/L3 cache hierarchy, wide-bus geometry |
//! | [`predict`] | gshare branch predictor, stride predictor |
//! | [`core`] | the paper's mechanism: MBS, CRP, SRSMT, spec memory |
//! | [`analyze`] | static CFG / post-dominator analysis, RCP oracle, lints |
//! | [`sim`] | execution-driven out-of-order superscalar pipeline |
//! | [`workloads`] | 12 synthetic SpecInt2000-like kernels |
//! | [`obs`] | tracing, histograms, stall attribution, JSON telemetry |
//!
//! This facade re-exports everything under one roof and is what the
//! `examples/` and integration tests build against.
//!
//! ## Quickstart
//!
//! ```
//! use cfir::prelude::*;
//!
//! // Assemble the paper's Figure 1 hammock and simulate it with the
//! // control-independence mechanism on.
//! let prog = cfir::isa::assemble(
//!     "fig1",
//!     r#"
//!         li   r1, 0
//!         li   r6, 80
//!     loop:
//!         ld   r8, 1000(r1)
//!         beq  r8, r0, else_
//!         addi r2, r2, 1
//!         jmp  ip
//!     else_:
//!         addi r3, r3, 1
//!     ip:
//!         add  r4, r4, r8
//!         addi r1, r1, 8
//!         blt  r1, r6, loop
//!         halt
//!     "#,
//! )
//! .unwrap();
//!
//! let mut mem = MemImage::new();
//! for i in 0..10u64 {
//!     mem.write(1000 + i * 8, i % 2);
//! }
//! let cfg = SimConfig::paper_baseline().with_mode(Mode::Ci);
//! let mut pipe = Pipeline::new(&prog, mem, cfg);
//! assert_eq!(pipe.run(), RunExit::Halted);
//! assert_eq!(pipe.arch_reg(4), 5, "sum of elements");
//! assert_eq!(pipe.arch_reg(2) + pipe.arch_reg(3), 10, "hammock counts");
//! ```

pub mod report;

pub use cfir_analyze as analyze;
pub use cfir_core as core;
pub use cfir_emu as emu;
pub use cfir_isa as isa;
pub use cfir_mem as mem;
pub use cfir_obs as obs;
pub use cfir_predict as predict;
pub use cfir_sample as sample;
pub use cfir_sim as sim;
pub use cfir_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use cfir_emu::{Emulator, MemImage};
    pub use cfir_isa::{assemble, Inst, Program, ProgramBuilder};
    pub use cfir_obs::Rng64;
    pub use cfir_sim::{
        harmonic_mean, run_json, Mode, Pipeline, RegFileSize, RunExit, SimConfig, SimStats,
    };
    pub use cfir_workloads::{by_name, suite, Workload, WorkloadSpec};
}
