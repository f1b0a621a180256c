//! # cfir-sample
//!
//! Checkpointed statistical sampling for the CFIR evaluation, in the
//! SMARTS tradition: instead of simulating every instruction in the
//! cycle-accurate pipeline, interleave cheap *functional* execution
//! (the `cfir-emu` golden model, ~30× faster) with short *detailed*
//! measurement windows, and report per-metric means with 95%
//! confidence intervals.
//!
//! Three ingredients make the estimates trustworthy:
//!
//! 1. **Functional warming** ([`warm::WarmingEmulator`]): while
//!    fast-forwarding, every retired instruction still trains the
//!    gshare branch predictor and touches the cache hierarchy, so the
//!    long-lived microarchitectural state a window depends on is warm
//!    when the detailed pipeline takes over. Only the short-lived
//!    state (ROB, LSQ, indirect-jump BTB) starts cold, and the
//!    detailed *warmup* portion of each window absorbs it.
//! 2. **Architectural checkpoints** ([`checkpoint::Checkpoint`]): the
//!    full restart state — registers, PC, memory pages, predictor
//!    table, cache tags — serialized to a versioned, content-addressed
//!    on-disk format, so any window can be replayed later (or on
//!    another worker) as an independent job.
//! 3. **A systematic-sampling driver** ([`driver::run_sampled`]) and
//!    an estimator ([`estimate::mean_ci95`]) that aggregates
//!    per-window IPC, reuse rate and CI-exploited fraction into
//!    mean ± half-width pairs (Student-t for small window counts).
//!
//! ```
//! use cfir_sample::{run_sampled, SamplingConfig};
//! use cfir_workloads::{by_name, WorkloadSpec};
//!
//! let w = by_name("gzip", WorkloadSpec::default()).unwrap();
//! let cfg = cfir_sim::SimConfig::paper_baseline().with_max_insts(60_000);
//! let s = run_sampled(&w.prog, &w.mem, w.name, cfg, SamplingConfig {
//!     period: 10_000,
//!     warmup: 1_000,
//!     window: 1_000,
//!     ..Default::default()
//! });
//! assert!(s.windows.len() >= 4);
//! assert!(s.ipc.mean > 0.0);
//! ```

pub mod checkpoint;
pub mod driver;
pub mod estimate;
pub mod warm;

pub use cfir_sim::{Estimate, SampledRun, WindowRow};
pub use checkpoint::{Checkpoint, FORMAT_VERSION};
pub use driver::{replay_window, run_sampled, SamplingConfig};
pub use estimate::mean_ci95;
pub use warm::WarmingEmulator;
