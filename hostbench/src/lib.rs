//! # cfir-hostbench
//!
//! Host-performance benchmark of the cfir simulator. A workload is the
//! twelve suite kernels run as one kind of job the repository really
//! runs. The untraced run times each job's `JobSpec::execute`. For the
//! traced run, this library also runs each job outside-in through the
//! same public calls `execute` makes, wrapped in [`span::Tracer`] spans
//! so host time splits by layer. The binary (`src/main.rs`) times,
//! verifies and reports; `README.md` documents the metrics.

pub mod span;

use cfir_harness::{JobResult, JobSpec, SamplingParams, WorkloadRef};
use cfir_obs::stall::ALL_CAUSES;
use cfir_sample::{
    mean_ci95, replay_window, Estimate, SampledRun, SamplingConfig, WarmingEmulator,
};
use cfir_sim::{Mode, Pipeline, RegFileSize, SimConfig, SimStats};
use cfir_workloads::{by_name, WorkloadSpec, NAMES};
use span::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 12 kernels in `ci` mode, 512 registers, 1 port, 150k
    /// committed instructions each: the `exp_*` suite configuration.
    Detailed,
    /// The 12 kernels in `scal` mode with lifecycle recording, 30k
    /// each: the scalar leg of `exp_bottleneck`.
    Observed,
    /// The 12 kernels through checkpointed sampling with the
    /// `cfir-sample` defaults: `ci`, 512 registers, 1.5M instructions.
    Sampled,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Detailed, Workload::Observed, Workload::Sampled];

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Detailed => "detailed",
            Workload::Observed => "observed",
            Workload::Sampled => "sampled",
        }
    }

    /// Committed (or, sampled, covered) instructions per job.
    pub fn max_insts(self) -> u64 {
        match self {
            Workload::Detailed => 150_000,
            Workload::Observed => 30_000,
            Workload::Sampled => 1_500_000,
        }
    }

    /// The machine every job of the workload simulates, as the suite
    /// or `cfir-sample` configures it.
    pub fn config(self) -> SimConfig {
        let suite = |mode| {
            let mut c = SimConfig::paper_baseline()
                .with_mode(mode)
                .with_dports(1)
                .with_regs(RegFileSize::Finite(512));
            // The suite's canonical job config (`experiments::canon`).
            c.max_insts = 0;
            c.cosim_check = false;
            c.interval_cycles = 10_000;
            c
        };
        match self {
            Workload::Detailed => suite(Mode::Ci),
            Workload::Observed => suite(Mode::Scalar).with_lifecycle(),
            Workload::Sampled => SimConfig::paper_baseline()
                .with_mode(Mode::Ci)
                .with_regs(RegFileSize::Finite(512)),
        }
    }

    /// The sampling unit, for the sampled workload.
    pub fn sampling(self) -> Option<SamplingParams> {
        let d = SamplingConfig::default();
        (self == Workload::Sampled).then_some(SamplingParams {
            period: d.period,
            warmup: d.warmup,
            window: d.window,
        })
    }

    /// The workload's jobs at workload seed `seed`, one per kernel.
    pub fn jobs(self, seed: u64) -> Vec<JobSpec> {
        self.jobs_sized(seed, self.max_insts())
    }

    /// The workload's jobs with another instruction budget (tests).
    pub fn jobs_sized(self, seed: u64, max_insts: u64) -> Vec<JobSpec> {
        NAMES
            .iter()
            .map(|name| JobSpec {
                workload: WorkloadRef::Named {
                    name: name.to_string(),
                    spec: WorkloadSpec {
                        seed,
                        ..WorkloadSpec::default()
                    },
                },
                cfg: self.config(),
                max_insts,
                sampling: self.sampling(),
            })
            .collect()
    }
}

/// Exact simulated counts of one or more jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles (sampled: measured windows only).
    pub cycles: u64,
    /// Committed instructions (sampled: measured windows only).
    pub committed: u64,
    /// Committed conditional branches.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Replica instructions executed by the CI mechanism.
    pub replicas_executed: u64,
    /// Committed instructions that reused a replica's value.
    pub committed_reuse: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Lifecycle records kept by the recorder.
    pub lifecycle_records: u64,
    /// Measured sampling windows.
    pub windows: u64,
    /// Instructions the detailed core committed in sampling windows
    /// (warmup + measured).
    pub detailed_insts: u64,
    /// Measured (post-warmup) window instructions.
    pub measured_insts: u64,
}

impl Counts {
    fn of(s: &SimStats) -> Counts {
        Counts {
            cycles: s.cycles,
            committed: s.committed,
            branches: s.branches,
            mispredicts: s.mispredicts,
            replicas_executed: s.replicas_executed,
            committed_reuse: s.committed_reuse,
            l1d_misses: s.l1d_misses,
            l2_misses: s.l2_misses,
            lifecycle_records: s.lifecycle_records,
            ..Counts::default()
        }
    }

    /// Add another job's counts.
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.committed += o.committed;
        self.branches += o.branches;
        self.mispredicts += o.mispredicts;
        self.replicas_executed += o.replicas_executed;
        self.committed_reuse += o.committed_reuse;
        self.l1d_misses += o.l1d_misses;
        self.l2_misses += o.l2_misses;
        self.lifecycle_records += o.lifecycle_records;
        self.windows += o.windows;
        self.detailed_insts += o.detailed_insts;
        self.measured_insts += o.measured_insts;
    }
}

/// What one job hands back.
#[derive(Debug, Clone)]
pub struct JobOut {
    /// The harness result, reduced and round-tripped through its cache
    /// encoding exactly as the harness stores it.
    pub result: JobResult,
    /// Simulated instructions the job got through: committed for a
    /// full run, covered (`ff_insts`) for a sampled one.
    pub insts: u64,
    /// Exact simulated counts.
    pub counts: Counts,
    /// The sampled run, for sampled jobs.
    pub sampled: Option<SampledRun>,
}

/// The job's kernel, built from its spec.
pub fn build_workload(job: &JobSpec) -> cfir_workloads::Workload {
    let WorkloadRef::Named { name, spec } = &job.workload else {
        panic!("benchmark jobs are suite kernels");
    };
    by_name(name, *spec).expect("suite kernel name")
}

/// The simulator config a job runs with, as `JobSpec::execute` derives it.
pub fn run_config(job: &JobSpec) -> SimConfig {
    let mut cfg = job.cfg.clone();
    cfg.max_insts = job.max_insts;
    cfg.cosim_check = false;
    cfg
}

/// Simulated instructions a finished job got through: committed for a
/// full run, covered (`ff_insts`, read from the snapshot) for a
/// sampled one.
pub fn job_insts(job: &JobSpec, r: &JobResult) -> u64 {
    if job.sampling.is_none() {
        return r.committed;
    }
    cfir_obs::json::parse(&r.snapshot)
        .ok()
        .and_then(|v| v.get("sampling")?.get("ff_insts")?.as_u64())
        .expect("a sampled snapshot carries ff_insts")
}

/// Run one job the way `JobSpec::execute` does, with a span around
/// every call into a workspace crate.
pub fn run_job(tr: &mut Tracer, job: &JobSpec) -> JobOut {
    let key = tr.time("harness.key", || job.key());
    let w = tr.time("workloads.gen", || build_workload(job));
    let cfg = run_config(job);
    let label = cfg.mode.label();
    let reduce = |stats: &SimStats, snapshot: String| {
        let r = JobResult::from_stats(w.name, label, stats, snapshot);
        JobResult::from_json(&r.to_json()).expect("a result re-reads its own encoding")
    };
    match job.sampling {
        None => {
            let lifecycle = cfg.record_lifecycle;
            let mut p = tr.time("sim.new", || {
                let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg);
                p.scope_trace(&format!("{key:016x}"));
                p
            });
            tr.time("sim.run", || p.run());
            // A lifecycle run's snapshot carries the lifecycle and
            // bottleneck sections, so its rendering is charged to obs.
            let snap = if lifecycle {
                "obs.snapshot"
            } else {
                "sim.snapshot"
            };
            let snapshot = tr.time(snap, || cfir_sim::run_json(w.name, label, &p.stats));
            let result = tr.time("harness.result", || reduce(&p.stats, snapshot));
            let (insts, counts) = (p.stats.committed, Counts::of(&p.stats));
            // Freeing a lifecycle run's records takes a visible share.
            tr.time("sim.drop", || drop(p));
            JobOut {
                result,
                insts,
                counts,
                sampled: None,
            }
        }
        Some(sp) => {
            let scfg = SamplingConfig {
                period: sp.period,
                warmup: sp.warmup,
                window: sp.window,
                ..SamplingConfig::default()
            };
            let s = sample(tr, &w.prog, &w.mem, w.name, cfg, &scfg);
            let snapshot = tr.time("sim.snapshot", || s.snapshot_json(label));
            let result = tr.time("harness.result", || reduce(&s.stats, snapshot));
            let counts = Counts {
                windows: s.windows.len() as u64,
                detailed_insts: s.detailed_insts,
                measured_insts: s.measured_insts,
                ..Counts::of(&s.stats)
            };
            JobOut {
                result,
                insts: s.ff_insts,
                counts,
                sampled: Some(s),
            }
        }
    }
}

/// `cfir_sample::run_sampled`, rebuilt outside-in from
/// `WarmingEmulator::fast_forward` / `checkpoint` and `replay_window`
/// so each phase gets its own span. Supports the systematic schedule
/// the benchmark uses (no jitter, no window cap, no checkpoint files).
pub fn sample(
    tr: &mut Tracer,
    prog: &cfir_isa::Program,
    mem: &cfir_emu::MemImage,
    name: &str,
    cfg: SimConfig,
    scfg: &SamplingConfig,
) -> SampledRun {
    assert!(
        scfg.jitter == 0 && scfg.max_windows == 0 && scfg.checkpoint_dir.is_none(),
        "only the systematic schedule is rebuilt here"
    );
    let budget = cfg.max_insts;
    let mut warm = tr.time("sample.new", || {
        WarmingEmulator::new(prog, mem.clone(), &cfg)
    });
    let mut windows = Vec::new();
    let mut acc = SimStats::default();
    let mut detailed_insts = 0;
    let mut halted = false;
    for k in 0u64.. {
        let meas_start = k * scfg.period;
        let warm_start = meas_start.saturating_sub(scfg.warmup);
        if meas_start + scfg.window > budget {
            break;
        }
        if warm.retired() < warm_start {
            let n = warm_start - warm.retired();
            tr.time("sample.ff", || warm.fast_forward(n));
        }
        if warm.done() {
            halted = true;
            break;
        }
        let ckpt = tr.time("sample.ckpt", || warm.checkpoint());
        let rep = tr.time("sample.window", || {
            replay_window(prog, &ckpt, &cfg, meas_start - warm_start, scfg.window)
        });
        detailed_insts += rep.warmup_committed + rep.row.committed;
        if rep.row.committed > 0 {
            accumulate(&mut acc, &rep.delta);
            windows.push(rep.row);
        }
        if rep.halted {
            halted = true;
            break;
        }
    }
    if !halted && warm.retired() < budget {
        let n = budget - warm.retired();
        tr.time("sample.ff", || warm.fast_forward(n));
        halted = warm.done();
    }
    let cpi = mean_ci95(
        &windows
            .iter()
            .map(|w| w.cycles as f64 / w.committed as f64)
            .collect::<Vec<_>>(),
    );
    SampledRun {
        name: name.to_string(),
        period: scfg.period,
        warmup: scfg.warmup,
        window: scfg.window,
        ipc: invert_cpi(&cpi),
        reuse_rate: mean_ci95(&windows.iter().map(|w| w.reuse_rate).collect::<Vec<_>>()),
        ci_exploited: mean_ci95(&windows.iter().map(|w| w.ci_exploited).collect::<Vec<_>>()),
        measured_insts: windows.iter().map(|w| w.committed).sum(),
        windows,
        ff_insts: warm.retired(),
        detailed_insts,
        halted,
        stats: acc,
    }
}

/// The sampling driver's CPI → IPC inversion (delta-method half-width).
fn invert_cpi(cpi: &Estimate) -> Estimate {
    if cpi.mean <= 0.0 {
        return Estimate {
            n: cpi.n,
            mean: 0.0,
            half_width: 0.0,
        };
    }
    Estimate {
        n: cpi.n,
        mean: 1.0 / cpi.mean,
        half_width: cpi.half_width / (cpi.mean * cpi.mean),
    }
}

/// Add a window's stats delta into the run total, as the sampling
/// driver does (counters summed, register high-water maxed).
fn accumulate(acc: &mut SimStats, d: &SimStats) {
    macro_rules! add {
        ($($f:ident),* $(,)?) => { $( acc.$f += d.$f; )* };
    }
    add!(
        cycles,
        committed,
        committed_reuse,
        squashed,
        replicas_executed,
        replicas_created,
        branches,
        mispredicts,
        validation_failures,
        commit_check_failures,
        stores,
        store_conflicts,
        loads,
        reg_occupancy_sum,
        strided_pc_dropped,
        strided_pc_sum,
        strided_pc_samples,
        vectorizations,
        l1d_accesses,
        l1d_misses,
        l1d_writebacks,
        l1i_accesses,
        l1i_misses,
        l2_accesses,
        l2_misses,
        l3_accesses,
        l3_misses,
        mem_accesses,
        fetched,
        specmem_copies,
        squash_reuse_hits,
        lifecycle_records,
        lifecycle_dropped,
    );
    for (a, b) in acc.valfail_reasons.iter_mut().zip(d.valfail_reasons) {
        *a += b;
    }
    for cause in ALL_CAUSES {
        acc.stall.charge(cause, d.stall.get(cause));
    }
    acc.reg_high_water = acc.reg_high_water.max(d.reg_high_water);
}
