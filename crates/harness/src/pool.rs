//! Std-only thread pool with per-job fault isolation.
//!
//! Workers take jobs in list order from one shared atomic cursor, so a
//! worker that finishes early takes the next job, and a worker exits
//! once the cursor passes the end. Each job runs under
//! `catch_unwind`: a panicking simulation marks that job failed and
//! the suite continues. A failed job is not retried:
//! [`JobSpec::execute`] is a pure function of the spec, so a second
//! attempt would fail the same way. A wall-clock
//! watchdog marks jobs that exceed a per-job budget as timed out
//! (their worker thread is abandoned, not joined, so a wedged
//! simulation cannot hang the suite).
//!
//! Completion order is **not** deterministic; callers that need
//! determinism must reduce results by job index (as
//! [`crate::suite::run_suite`] does), never by arrival order.

use crate::job::{JobResult, JobSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Execution knobs for one pool run.
#[derive(Debug, Clone, Default)]
pub struct PoolOptions {
    /// Worker threads. 0 = available parallelism.
    pub jobs: usize,
    /// Per-job wall-clock budget (`None` = no watchdog).
    pub timeout: Option<Duration>,
}

impl PoolOptions {
    /// Resolved worker count (at least 1).
    pub fn worker_count(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The run completed and reduced to a result (boxed: a `JobResult`
    /// is much larger than the other variants).
    Done(Box<JobResult>),
    /// The run failed (error or panic).
    Failed {
        /// The error or panic payload.
        error: String,
    },
    /// The watchdog expired the job; its thread was abandoned.
    TimedOut {
        /// The budget that was exceeded.
        limit: Duration,
    },
}

impl JobOutcome {
    /// Whether this outcome carries a usable result.
    pub fn is_done(&self) -> bool {
        matches!(self, JobOutcome::Done(_))
    }
}

enum SlotState {
    /// Not yet taken by a worker.
    Queued,
    /// Executing on a worker since the instant.
    Running(Instant),
    /// Outcome delivered (by the worker or the watchdog).
    Decided,
}

struct Shared {
    specs: Vec<JobSpec>,
    /// The next job index to take.
    next: AtomicUsize,
    slots: Vec<Mutex<SlotState>>,
    tx: mpsc::Sender<(usize, JobOutcome, Duration)>,
    /// Jobs executing right now / the high-water mark of that count
    /// (reported as [`PoolStats::peak_workers`]).
    running: AtomicUsize,
    peak: AtomicUsize,
}

impl Shared {
    /// Move a slot to Decided and report it (with the wall-clock time
    /// the deciding run took), unless the watchdog got there first.
    /// Returns whether *we* decided it.
    fn decide(&self, idx: usize, outcome: JobOutcome, wall: Duration) -> bool {
        let mut st = self.slots[idx].lock().unwrap();
        if matches!(*st, SlotState::Decided) {
            return false; // watchdog already expired this job
        }
        *st = SlotState::Decided;
        drop(st);
        let _ = self.tx.send((idx, outcome, wall));
        true
    }

    fn run_task(&self, idx: usize) {
        let started = Instant::now();
        *self.slots[idx].lock().unwrap() = SlotState::Running(started);
        let spec = &self.specs[idx];
        let cur = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(cur, Ordering::SeqCst);
        let outcome = catch_unwind(AssertUnwindSafe(|| spec.execute()));
        self.running.fetch_sub(1, Ordering::SeqCst);
        let outcome = match outcome {
            Ok(Ok(result)) => JobOutcome::Done(Box::new(result)),
            Ok(Err(error)) => JobOutcome::Failed { error },
            Err(payload) => JobOutcome::Failed {
                error: format!("panicked: {}", panic_message(&*payload)),
            },
        };
        self.decide(idx, outcome, started.elapsed());
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Occupancy bookkeeping of one pool run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Most jobs observed executing simultaneously (the pool's actual
    /// high-water occupancy, ≤ the worker-thread count).
    pub peak_workers: usize,
}

/// Run every spec to a terminal outcome, invoking `on_done(index,
/// outcome, wall)` on the **calling thread** as jobs finish (in
/// completion order); `wall` is the job's wall-clock time, for
/// throughput accounting. Workers take jobs in list order;
/// panics are isolated per job; `opts.timeout` bounds each job's wall
/// clock.
pub fn execute(
    specs: Vec<JobSpec>,
    opts: &PoolOptions,
    mut on_done: impl FnMut(usize, JobOutcome, Duration),
) -> PoolStats {
    let n = specs.len();
    if n == 0 {
        return PoolStats::default();
    }
    let workers = opts.worker_count().min(n);
    let (tx, rx) = mpsc::channel();
    let shared = Arc::new(Shared {
        next: AtomicUsize::new(0),
        slots: (0..n).map(|_| Mutex::new(SlotState::Queued)).collect(),
        specs,
        tx,
        running: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    });

    let mut handles = Vec::with_capacity(workers);
    for me in 0..workers {
        let sh = Arc::clone(&shared);
        handles.push(
            std::thread::Builder::new()
                .name(format!("cfir-worker-{me}"))
                .spawn(move || loop {
                    let idx = sh.next.fetch_add(1, Ordering::SeqCst);
                    if idx >= n {
                        break;
                    }
                    sh.run_task(idx);
                })
                .expect("spawn worker"),
        );
    }

    // The calling thread doubles as the watchdog: drain completions,
    // and on every tick expire jobs that overran the budget.
    let mut decided = 0usize;
    let mut timed_out = false;
    while decided < n {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((idx, outcome, wall)) => {
                decided += 1;
                on_done(idx, outcome, wall);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(limit) = opts.timeout {
                    for idx in 0..n {
                        let mut st = shared.slots[idx].lock().unwrap();
                        if let SlotState::Running(since) = *st {
                            if since.elapsed() > limit {
                                *st = SlotState::Decided;
                                drop(st);
                                timed_out = true;
                                decided += 1;
                                on_done(idx, JobOutcome::TimedOut { limit }, since.elapsed());
                            }
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    if !timed_out {
        for h in handles {
            let _ = h.join();
        }
    }
    // else: abandon workers — one of them may be wedged inside a
    // timed-out simulation, and joining it would hang the suite.
    PoolStats {
        peak_workers: shared.peak.load(Ordering::SeqCst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::WorkloadRef;
    use cfir_sim::SimConfig;

    fn selftest(panic: bool, sleep_ms: u64) -> JobSpec {
        JobSpec {
            workload: WorkloadRef::SelfTest { panic, sleep_ms },
            cfg: SimConfig::paper_baseline(),
            max_insts: sleep_ms + panic as u64, // distinct fingerprints
            sampling: None,
        }
    }

    fn run(specs: Vec<JobSpec>, opts: &PoolOptions) -> Vec<Option<JobOutcome>> {
        let mut out: Vec<Option<JobOutcome>> = specs.iter().map(|_| None).collect();
        execute(specs, opts, |i, o, _| out[i] = Some(o));
        out
    }

    #[test]
    fn all_jobs_reach_an_outcome() {
        let specs: Vec<_> = (0..8).map(|i| selftest(false, i % 3)).collect();
        let out = run(
            specs,
            &PoolOptions {
                jobs: 4,
                ..Default::default()
            },
        );
        assert!(out.iter().all(|o| matches!(o, Some(JobOutcome::Done(_)))));
    }

    #[test]
    fn panic_fails_alone() {
        let specs = vec![selftest(false, 0), selftest(true, 0), selftest(false, 1)];
        let out = run(
            specs,
            &PoolOptions {
                jobs: 2,
                ..Default::default()
            },
        );
        assert!(out[0].as_ref().unwrap().is_done());
        assert!(out[2].as_ref().unwrap().is_done());
        match out[1].as_ref().unwrap() {
            JobOutcome::Failed { error } => assert!(error.contains("panick"), "{error}"),
            o => panic!("expected Failed, got {o:?}"),
        }
    }

    #[test]
    fn peak_occupancy_is_observed_and_bounded() {
        let specs: Vec<_> = (0..6).map(|_| selftest(false, 30)).collect();
        let stats = execute(
            specs,
            &PoolOptions {
                jobs: 3,
                ..Default::default()
            },
            |_, _, _| {},
        );
        assert!(
            (1..=3).contains(&stats.peak_workers),
            "peak {} outside 1..=3",
            stats.peak_workers
        );
    }

    #[test]
    fn watchdog_expires_overrunning_jobs() {
        let specs = vec![selftest(false, 2_000), selftest(false, 0)];
        let out = run(
            specs,
            &PoolOptions {
                jobs: 2,
                timeout: Some(Duration::from_millis(200)),
            },
        );
        assert!(
            matches!(out[0], Some(JobOutcome::TimedOut { .. })),
            "sleeper must be expired, got {:?}",
            out[0]
        );
        assert!(out[1].as_ref().unwrap().is_done());
    }
}
