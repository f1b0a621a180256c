//! # cfir-harness
//!
//! Parallel, resumable experiment orchestration for the CFIR
//! evaluation suite.
//!
//! The paper's evaluation is a large grid — 12 benchmarks × machine
//! modes × register/port/latency sweeps. This crate treats every
//! (workload, configuration) point as a schedulable, cacheable,
//! fault-isolated **job**:
//!
//! * [`job::JobSpec`] — one simulation point, fully described by data
//!   (workload reference + `SimConfig` + instruction budget). Its
//!   [`fingerprint`](job::JobSpec::fingerprint) canonically encodes
//!   everything that affects the result, so identical points are
//!   deduplicated across experiments and content-addressed on disk.
//! * [`pool`] — a std-only work-stealing thread pool (`--jobs N`) with
//!   per-job panic isolation (`catch_unwind`; a panicking run fails
//!   alone), bounded retries and a wall-clock watchdog per job.
//! * [`cache`] — a content-addressed on-disk result cache keyed by
//!   `hash(workload spec, sim config, sim version)`; `--resume` skips
//!   completed points after a crash or an interrupted sweep.
//! * [`suite`] — declarative [`Experiment`]s (jobs
//!   plus an aggregation function) reduced **deterministically**:
//!   aggregation consumes results in job-definition order, never in
//!   completion order, so `--jobs 1` and `--jobs 16` produce
//!   byte-identical artifacts.
//!
//! The experiment definitions themselves (every figure, table and
//! ablation of the paper expressed as data) live in
//! `cfir_bench::experiments`; `cfir suite` is the driver.

pub mod cache;
pub mod job;
pub mod pool;
pub mod suite;

pub use cache::Cache;
pub use job::{IntervalRow, JobResult, JobSpec, SamplingParams, WorkloadRef};
pub use pool::{JobOutcome, PoolOptions};
pub use suite::{
    run_suite, AggCtx, Artifact, Experiment, ExperimentOutput, ExperimentStatus, JobPerf,
    SuiteOptions, SuiteReport,
};

/// The content address of a job fingerprint.
pub use cfir_obs::fnv1a64;
