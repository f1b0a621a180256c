//! # cfir-bench
//!
//! The figure/table regeneration library. Every experiment of the
//! evaluation (`table1`, `fig04`, `fig05`, `fig08`–`fig14`, the
//! ablations and the beyond-the-paper studies) is described as data in
//! [`experiments`]: a job matrix plus an aggregator that renders the
//! same rows/series the paper reports, as an aligned text table, CSV
//! (written to `results/`), and optionally a JSON snapshot bundle.
//!
//! `cfir suite <name>...` (the `cfir` binary at the workspace root)
//! runs any subset of the matrix in parallel with caching and resume.
//!
//! Run sizes are controlled by environment variables so the same
//! matrix serves quick smoke runs and full reproductions:
//!
//! * `CFIR_INSTS` — committed instructions per benchmark per config
//!   (default 150_000);
//! * `CFIR_ELEMS` — data-array elements, a power of two (default
//!   16384);
//! * `CFIR_SEED` — workload data seed (default 0xC0FFEE).
//!
//! A variable that is set but does not parse, or a `CFIR_ELEMS` that
//! is not a power of two, is an error (`Params::from_env`), which
//! `cfir suite` reports as a usage error.
//!
//! With `cfir suite --emit-json`, each experiment additionally writes
//! `<name>.json` next to its CSV: the versioned table plus one full
//! statistics snapshot per run.

pub mod experiments;
mod report;
