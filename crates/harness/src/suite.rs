//! Declarative experiments and the suite runner.
//!
//! An [`Experiment`] is a named list of [`JobSpec`]s plus an
//! aggregation function that reduces the finished results — **in job
//! definition order, never completion order** — into artifacts
//! (CSV/JSON files under the output directory) and a human-readable
//! stdout block. [`run_suite`] deduplicates identical points across
//! experiments (same fingerprint → simulated once), consults the
//! on-disk [`Cache`], runs the remainder on the [`pool`],
//! and aggregates each experiment **as soon as its last job lands**
//! while the rest of the suite keeps executing.
//!
//! Because aggregation only ever reads results by job index, the
//! artifacts are byte-identical for `--jobs 1` and `--jobs 16`.

use crate::cache::Cache;
use crate::job::{JobResult, JobSpec};
use crate::pool::{self, JobOutcome, PoolOptions};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Context handed to aggregation functions.
#[derive(Debug, Clone)]
pub struct AggCtx {
    /// Whether JSON artifacts (snapshot bundles) were requested.
    pub emit_json: bool,
}

/// One file produced by an experiment.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Path relative to the suite output directory (e.g. `fig04.csv`).
    pub rel_path: String,
    /// Full file contents.
    pub contents: String,
}

/// What an aggregation function returns.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOutput {
    /// Files to write under the output directory.
    pub artifacts: Vec<Artifact>,
    /// Rendered tables / notes for the terminal.
    pub stdout: String,
}

/// Aggregation function: results arrive in job-definition order.
pub type AggregateFn =
    Box<dyn Fn(&AggCtx, &[&JobResult]) -> Result<ExperimentOutput, String> + Send + Sync>;

/// One figure/table/ablation of the evaluation, expressed as data.
pub struct Experiment {
    /// Stable name (also the artifact base name), e.g. `fig09`.
    pub name: &'static str,
    /// One-line description for `--list` and `INDEX.md`.
    pub title: &'static str,
    /// The simulation points this experiment needs.
    pub jobs: Vec<JobSpec>,
    /// Reduction of finished jobs into artifacts.
    pub aggregate: AggregateFn,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

/// Suite execution options.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Per-job wall-clock budget.
    pub timeout: Option<Duration>,
    /// Reuse cached results (otherwise every point is re-simulated;
    /// completed points are written to the cache either way).
    pub resume: bool,
    /// Cache directory (`None` = [`Cache::default_dir`]).
    pub cache_dir: Option<PathBuf>,
    /// Also write JSON snapshot bundles next to the CSVs.
    pub emit_json: bool,
    /// Artifact directory (the serial binaries' `results/`).
    pub out_dir: PathBuf,
    /// Suppress per-experiment stdout blocks (summary still prints).
    pub quiet: bool,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            jobs: 0,
            timeout: Some(Duration::from_secs(600)),
            resume: false,
            cache_dir: None,
            emit_json: false,
            out_dir: PathBuf::from("results"),
            quiet: false,
        }
    }
}

/// Terminal state of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentStatus {
    /// Experiment name.
    pub name: &'static str,
    /// Aggregation error or the failure of any underlying job.
    pub error: Option<String>,
    /// Files written (relative to `out_dir`).
    pub artifacts: Vec<String>,
    /// Suite time elapsed when this experiment's last point landed and
    /// it aggregated (experiments stream, so these overlap; they do
    /// not sum to the suite wall clock).
    pub wall: Duration,
    /// Jobs in this experiment's definition (duplicates included).
    pub jobs: usize,
    /// Of this experiment's jobs, how many it owned and simulated.
    pub executed: usize,
    /// Of this experiment's jobs, how many it owned and served from
    /// cache.
    pub cached: usize,
    /// Of this experiment's jobs, how many resolved to a point owned
    /// elsewhere: first claimed by an earlier experiment, or a repeat
    /// of a point already counted within this one. The invariant
    /// `executed + cached + deduped == jobs` holds per experiment, and
    /// summing `executed`/`cached` across experiments reproduces the
    /// suite totals exactly.
    pub deduped: usize,
}

impl ExperimentStatus {
    /// Whether the experiment fully succeeded.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// What a suite run did.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    /// Jobs across all experiments before deduplication.
    pub total_jobs: usize,
    /// Distinct simulation points.
    pub unique_jobs: usize,
    /// Points actually simulated this run.
    pub executed: usize,
    /// Points served from the cache.
    pub cached: usize,
    /// Points whose every attempt failed.
    pub failed: usize,
    /// Points expired by the watchdog.
    pub timed_out: usize,
    /// Per-experiment outcomes, in definition order.
    pub experiments: Vec<ExperimentStatus>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// High-water mark of jobs executing simultaneously on the pool.
    pub peak_workers: usize,
    /// Throughput of every point simulated this run (cache hits and
    /// failures excluded), in job-definition order.
    pub perf: Vec<JobPerf>,
}

/// Detailed-core throughput of one executed simulation point.
#[derive(Debug, Clone)]
pub struct JobPerf {
    /// Workload name (`bzip2` … `vpr`).
    pub name: String,
    /// Machine-mode label (`scal`, `wb`, `ci-iw`, `ci`, `vect`).
    pub mode: String,
    /// Instructions the detailed core committed.
    pub committed: u64,
    /// Wall-clock time of the simulating attempt.
    pub wall: Duration,
}

impl JobPerf {
    /// Committed instructions per wall-clock second (0 when the clock
    /// read as zero).
    pub fn insts_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.committed as f64 / s
        } else {
            0.0
        }
    }
}

impl SuiteReport {
    /// True when every job and every aggregation succeeded.
    pub fn all_ok(&self) -> bool {
        self.failed == 0 && self.timed_out == 0 && self.experiments.iter().all(|e| e.ok())
    }

    /// The one-line machine-greppable summary. New fields are only
    /// ever appended, so existing greps on the prefix keep matching.
    pub fn summary_line(&self) -> String {
        format!(
            "suite: {} jobs ({} unique) — {} executed, {} cached, {} failed, {} timed out in {:.2}s (peak {} workers)",
            self.total_jobs,
            self.unique_jobs,
            self.executed,
            self.cached,
            self.failed,
            self.timed_out,
            self.wall.as_secs_f64(),
            self.peak_workers
        )
    }
}

/// Run `experiments` to completion under `opts`. See module docs.
pub fn run_suite(experiments: Vec<Experiment>, opts: &SuiteOptions) -> SuiteReport {
    let t0 = Instant::now();
    let cache = Cache::new(opts.cache_dir.clone().unwrap_or_else(Cache::default_dir));
    let ctx = AggCtx {
        emit_json: opts.emit_json,
    };

    // Deduplicate identical points across (and within) experiments.
    let mut unique: Vec<JobSpec> = Vec::new();
    let mut by_fp: HashMap<String, usize> = HashMap::new();
    // Which experiment first introduced each unique point: that one
    // (and only that one) counts it as executed/cached; everyone else
    // attributes it to `deduped`.
    let mut owner: Vec<usize> = Vec::new();
    // Per experiment: its jobs as indices into `unique`, and the
    // distinct ones among them in first-occurrence order.
    let mut exp_jobs: Vec<Vec<usize>> = Vec::new();
    let mut exp_distinct: Vec<Vec<usize>> = Vec::new();
    // The last experiment that listed each unique point.
    let mut last_lister: Vec<usize> = Vec::new();
    for (e, exp) in experiments.iter().enumerate() {
        let mut distinct = Vec::new();
        let idxs = exp
            .jobs
            .iter()
            .map(|spec| {
                let i = *by_fp.entry(spec.fingerprint()).or_insert_with(|| {
                    unique.push(spec.clone());
                    owner.push(e);
                    last_lister.push(usize::MAX);
                    unique.len() - 1
                });
                if last_lister[i] != e {
                    last_lister[i] = e;
                    distinct.push(i);
                }
                i
            })
            .collect();
        exp_jobs.push(idxs);
        exp_distinct.push(distinct);
    }

    let mut report = SuiteReport {
        total_jobs: exp_jobs.iter().map(|j| j.len()).sum(),
        unique_jobs: unique.len(),
        ..SuiteReport::default()
    };

    // Cache pass: resolve what we can without simulating.
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; unique.len()];
    let mut from_cache: Vec<bool> = vec![false; unique.len()];
    if opts.resume {
        for (i, spec) in unique.iter().enumerate() {
            match cache.get(spec) {
                Ok(Some(result)) => {
                    outcomes[i] = Some(JobOutcome::Done(Box::new(result)));
                    from_cache[i] = true;
                    report.cached += 1;
                }
                Ok(None) => {}
                Err(e) => eprintln!("cfir: {e}; re-running"),
            }
        }
    }
    let from_cache = from_cache; // frozen: the pool only executes misses

    // Experiments whose every point is already resolved aggregate now;
    // the rest stream in as the pool completes their last point.
    let mut remaining: Vec<usize> = exp_distinct
        .iter()
        .map(|idxs| idxs.iter().filter(|&&i| outcomes[i].is_none()).count())
        .collect();
    let mut statuses: Vec<Option<ExperimentStatus>> = experiments.iter().map(|_| None).collect();
    let finalize = |e: usize,
                    experiments: &[Experiment],
                    outcomes: &[Option<JobOutcome>],
                    statuses: &mut Vec<Option<ExperimentStatus>>| {
        let exp = &experiments[e];
        let (mut status, stdout_block) =
            finalize_experiment(exp, &exp_jobs[e], outcomes, &ctx, opts);
        status.wall = t0.elapsed();
        status.jobs = exp_jobs[e].len();
        // Executed plus cached is the distinct points this experiment
        // owns; every other job of its list was deduplicated.
        for &i in exp_distinct[e].iter().filter(|&&i| owner[i] == e) {
            if from_cache[i] {
                status.cached += 1;
            } else {
                status.executed += 1;
            }
        }
        status.deduped = status.jobs - status.cached - status.executed;
        if !opts.quiet {
            match &status.error {
                // A closed stdout is not this experiment's failure: the
                // caller's own stdout write after the suite reports it.
                None => {
                    let _ = std::io::stdout().write_all(stdout_block.as_bytes());
                }
                Some(err) => eprintln!("cfir: experiment {} FAILED: {err}", exp.name),
            }
        }
        statuses[e] = Some(status);
    };
    for (e, _) in remaining.iter().enumerate().filter(|(_, &r)| r == 0) {
        finalize(e, &experiments, &outcomes, &mut statuses);
    }

    // Which experiments does each unique job belong to?
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); unique.len()];
    for (e, idxs) in exp_distinct.iter().enumerate() {
        for &i in idxs.iter().filter(|&&i| outcomes[i].is_none()) {
            members[i].push(e);
        }
    }

    // Run what's left.
    let to_run: Vec<usize> = (0..unique.len())
        .filter(|&i| outcomes[i].is_none())
        .collect();
    let specs: Vec<JobSpec> = to_run.iter().map(|&i| unique[i].clone()).collect();
    let pool_opts = PoolOptions {
        jobs: opts.jobs,
        timeout: opts.timeout,
    };
    let mut job_wall: Vec<Duration> = vec![Duration::ZERO; unique.len()];
    let pool_stats = pool::execute(specs, &pool_opts, |k, outcome, wall| {
        let i = to_run[k];
        job_wall[i] = wall;
        match &outcome {
            JobOutcome::Done(result) => {
                report.executed += 1;
                if let Err(e) = cache.put(&unique[i], result) {
                    eprintln!("cfir: cache write failed: {e}");
                }
            }
            JobOutcome::Failed { error } => {
                report.failed += 1;
                eprintln!("cfir: job {} FAILED: {error}", unique[i].display_name());
            }
            JobOutcome::TimedOut { limit } => {
                report.timed_out += 1;
                eprintln!(
                    "cfir: job {} TIMED OUT (budget {:.0}s)",
                    unique[i].display_name(),
                    limit.as_secs_f64()
                );
            }
        }
        outcomes[i] = Some(outcome);
        for &e in &members[i] {
            remaining[e] -= 1;
            if remaining[e] == 0 {
                finalize(e, &experiments, &outcomes, &mut statuses);
            }
        }
    });

    report.experiments = statuses
        .into_iter()
        .map(|s| s.expect("every experiment finalized"))
        .collect();
    report.wall = t0.elapsed();
    report.peak_workers = pool_stats.peak_workers;
    // Throughput of every point simulated this run, in definition
    // order (cache hits carry no fresh wall clock and are excluded).
    for (i, spec) in unique.iter().enumerate() {
        if from_cache[i] || matches!(spec.workload, crate::job::WorkloadRef::SelfTest { .. }) {
            continue;
        }
        if let Some(JobOutcome::Done(r)) = &outcomes[i] {
            report.perf.push(JobPerf {
                name: r.name.clone(),
                mode: r.mode_label.clone(),
                committed: r.committed,
                wall: job_wall[i],
            });
        }
    }
    report
}

fn finalize_experiment(
    exp: &Experiment,
    idxs: &[usize],
    outcomes: &[Option<JobOutcome>],
    ctx: &AggCtx,
    opts: &SuiteOptions,
) -> (ExperimentStatus, String) {
    // `wall` and the job accounting (`jobs`/`executed`/`cached`/
    // `deduped`) are filled in by the caller, which owns the suite
    // clock and the cache bookkeeping.
    let fail = |error: String| {
        (
            ExperimentStatus {
                name: exp.name,
                error: Some(error),
                artifacts: Vec::new(),
                wall: Duration::ZERO,
                jobs: 0,
                executed: 0,
                cached: 0,
                deduped: 0,
            },
            String::new(),
        )
    };
    let mut results: Vec<&JobResult> = Vec::with_capacity(idxs.len());
    for (&i, spec) in idxs.iter().zip(&exp.jobs) {
        match &outcomes[i] {
            Some(JobOutcome::Done(r)) => results.push(r),
            Some(JobOutcome::Failed { error, .. }) => {
                return fail(format!("job {} failed: {error}", spec.display_name()))
            }
            Some(JobOutcome::TimedOut { limit }) => {
                return fail(format!(
                    "job {} timed out (budget {:.0}s)",
                    spec.display_name(),
                    limit.as_secs_f64()
                ))
            }
            None => unreachable!("finalize called with undecided job"),
        }
    }
    let output = match (exp.aggregate)(ctx, &results) {
        Ok(o) => o,
        Err(e) => return fail(format!("aggregation failed: {e}")),
    };
    let mut stdout_block = output.stdout.clone();
    let mut written = Vec::new();
    for a in &output.artifacts {
        let path = opts.out_dir.join(&a.rel_path);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, &a.contents) {
            return fail(format!("could not write {}: {e}", path.display()));
        }
        use std::fmt::Write as _;
        let _ = writeln!(stdout_block, "[{} written]", path.display());
        written.push(a.rel_path.clone());
    }
    (
        ExperimentStatus {
            name: exp.name,
            error: None,
            artifacts: written,
            wall: Duration::ZERO,
            jobs: 0,
            executed: 0,
            cached: 0,
            deduped: 0,
        },
        stdout_block,
    )
}
