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
//! * [`pool`] — a std-only thread pool (`--jobs N`) whose workers take
//!   jobs in order from one shared cursor, with per-job panic isolation
//!   (`catch_unwind`; a panicking run fails alone) and a wall-clock
//!   watchdog per job; failed jobs are not retried, since a job is a
//!   pure function of its spec.
//! * [`job::JobResult`] — a finished job's run record: its `SimStats`
//!   counters (the window counter list, `reg_high_water`, the interval
//!   series), the Figure 5 event counts and the snapshot document.
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
pub use job::{JobResult, JobSpec, SamplingParams, WorkloadRef};
pub use pool::{JobOutcome, PoolOptions};
pub use suite::{
    run_suite, AggCtx, Artifact, Experiment, ExperimentOutput, ExperimentStatus, JobPerf,
    SuiteOptions, SuiteReport,
};

/// The content address of a job fingerprint.
pub use cfir_obs::fnv1a64;
