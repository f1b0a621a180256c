//! The systematic-sampling driver.
//!
//! The run is divided into fixed-length *periods*. The measured window
//! of period `k` starts at instruction `k * period`, preceded by
//! `warmup` detailed instructions (excluded from statistics) that
//! re-form short-lived pipeline state; everything between detailed
//! regions is covered functionally (with warming, see [`crate::warm`]).
//! Window 0 therefore measures the genuinely cold head of the run —
//! a checkpoint at instruction 0 *is* the cold machine — so the
//! cold-start transient a full detailed run pays is represented in the
//! estimate instead of being systematically skipped. Per-window IPC /
//! reuse rate / CI-exploited fraction feed the [`crate::estimate`]
//! aggregator.
//!
//! Determinism: a sampled run is a pure function of (program, memory,
//! `SimConfig`, [`SamplingConfig`]). The optional jitter offset of
//! each window is derived from the *content id of the previous
//! checkpoint*, never from wall clock or scheduling order, so the same
//! run replayed on any worker of the harness pool produces
//! byte-identical results.

use crate::checkpoint::Checkpoint;
use crate::estimate::{mean_ci95, Estimate};
use crate::warm::WarmingEmulator;
use cfir_emu::MemImage;
use cfir_isa::Program;
use cfir_obs::fnv1a64;
use cfir_obs::stall::ALL_CAUSES;
use cfir_sim::{
    run_json_sampled, Pipeline, RunExit, SampleEstimate, SampleWindow, SamplingInfo, SimConfig,
    SimStats,
};
use std::path::PathBuf;

/// Parameters of a sampled run. The defaults follow the SMARTS-style
/// recipe: long periods, a short detailed warmup, a slightly longer
/// measured window (~10% detailed coverage at the default ratio).
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Instructions between successive detailed regions.
    pub period: u64,
    /// Detailed instructions re-forming short-lived state before each
    /// measurement (excluded from statistics).
    pub warmup: u64,
    /// Measured detailed instructions per window.
    pub window: u64,
    /// Stop after this many windows (0 = bounded only by the
    /// instruction budget).
    pub max_windows: usize,
    /// Maximum backward jitter of each window start, in instructions
    /// (0 = purely systematic). The offset is seeded from the previous
    /// checkpoint's content id, so it is reproducible and independent
    /// of execution order.
    pub jitter: u64,
    /// When set, every window's checkpoint is also written here under
    /// its content-addressed name.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            period: 50_000,
            // 3.5k warmup / 4k windows: shorter warmups leave enough
            // cold short-lived state (ROB, in-flight branch patterns,
            // SRSMT fill) to measurably inflate misprediction — and
            // therefore reuse — rates inside the window; this ratio
            // is the smallest that held the exp_sampling accuracy
            // gate across all 12 kernels.
            warmup: 3_500,
            window: 4_000,
            max_windows: 0,
            jitter: 0,
            checkpoint_dir: None,
        }
    }
}

/// One measured window of a sampled run.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Retired-instruction position of the checkpoint the window's
    /// pipeline started from (start of the warmup).
    pub start_inst: u64,
    /// Content id of that checkpoint.
    pub checkpoint_id: u64,
    /// Instructions committed inside the measured window.
    pub committed: u64,
    /// Cycles the measured window took.
    pub cycles: u64,
    /// Window IPC.
    pub ipc: f64,
    /// Window reuse rate (reused commits / commits).
    pub reuse_rate: f64,
    /// Window CI-exploited fraction (reused events / mispredictions).
    pub ci_exploited: f64,
}

/// The result of replaying one window from a checkpoint.
#[derive(Debug, Clone)]
pub struct WindowReplay {
    /// The window's measurements.
    pub row: WindowRow,
    /// Stats delta over the measured portion only (warmup excluded).
    pub delta: SimStats,
    /// Instructions the pipeline committed during the warmup portion.
    pub warmup_committed: u64,
    /// Whether the program halted inside this detailed region.
    pub halted: bool,
}

/// A completed sampled run: per-window rows, per-metric estimates and
/// the summed measured-portion statistics.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// Workload name.
    pub name: String,
    /// Sampling parameters the run used.
    pub period: u64,
    /// Warmup instructions per window.
    pub warmup: u64,
    /// Measured instructions per window.
    pub window: u64,
    /// Measured windows, in sampling order.
    pub windows: Vec<WindowRow>,
    /// Total functionally executed (and warmed) instructions.
    pub ff_insts: u64,
    /// Total instructions committed by the detailed pipeline
    /// (warmup + measured).
    pub detailed_insts: u64,
    /// Measured (post-warmup) detailed instructions only.
    pub measured_insts: u64,
    /// Whether the program halted within the sampled budget.
    pub halted: bool,
    /// IPC estimate across windows. Aggregated SMARTS-style: the
    /// per-window *CPI* values (a per-instruction quantity over
    /// equal-instruction windows) are averaged and the mean inverted —
    /// averaging IPC directly would overweight fast windows and bias
    /// the estimate high on phase-heterogeneous programs.
    pub ipc: Estimate,
    /// Reuse-rate estimate across windows.
    pub reuse_rate: Estimate,
    /// CI-exploited-fraction estimate across windows.
    pub ci_exploited: Estimate,
    /// Summed stats deltas of all measured windows (counters only;
    /// histograms / per-branch scorecards stay empty — the sampling
    /// object is the sampled run's headline payload).
    pub stats: SimStats,
}

fn to_sample_estimate(e: &Estimate) -> SampleEstimate {
    SampleEstimate {
        n: e.n as u64,
        mean: e.mean,
        half_width: e.half_width,
    }
}

impl SampledRun {
    /// The schema-v7 `sampling` object for this run's snapshot.
    pub fn info(&self) -> SamplingInfo {
        SamplingInfo {
            period: self.period,
            warmup: self.warmup,
            window: self.window,
            ff_insts: self.ff_insts,
            detailed_insts: self.detailed_insts,
            halted: self.halted,
            ipc: to_sample_estimate(&self.ipc),
            reuse_rate: to_sample_estimate(&self.reuse_rate),
            ci_exploited: to_sample_estimate(&self.ci_exploited),
            windows: self
                .windows
                .iter()
                .map(|w| SampleWindow {
                    start_inst: w.start_inst,
                    checkpoint: w.checkpoint_id,
                    committed: w.committed,
                    cycles: w.cycles,
                    ipc: w.ipc,
                    reuse_rate: w.reuse_rate,
                    ci_exploited: w.ci_exploited,
                })
                .collect(),
        }
    }

    /// Render the run as a schema-v7 snapshot document.
    pub fn snapshot_json(&self, label: &str) -> String {
        run_json_sampled(&self.name, label, &self.stats, Some(&self.info()))
    }
}

/// The u64 counters that delta/accumulate window-wise. Histograms,
/// intervals, per-branch scorecards and the bottleneck report are not
/// meaningfully subtractable and stay at their defaults in window
/// deltas.
macro_rules! counter_fields {
    ($cb:ident) => {
        $cb!(
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
            lifecycle_dropped
        );
    };
}

/// Counter-wise `after - before` of two stats snapshots of the *same*
/// pipeline (so every counter of `after` dominates `before`).
fn delta_stats(before: &SimStats, after: &SimStats) -> SimStats {
    let mut d = SimStats::default();
    macro_rules! sub {
        ($($f:ident),* $(,)?) => { $( d.$f = after.$f - before.$f; )* };
    }
    counter_fields!(sub);
    for (i, slot) in d.valfail_reasons.iter_mut().enumerate() {
        *slot = after.valfail_reasons[i] - before.valfail_reasons[i];
    }
    for cause in ALL_CAUSES {
        d.stall
            .charge(cause, after.stall.get(cause) - before.stall.get(cause));
    }
    d.reg_high_water = after.reg_high_water;
    d
}

/// Accumulate a window delta into the run total.
fn acc_stats(acc: &mut SimStats, d: &SimStats) {
    macro_rules! add {
        ($($f:ident),* $(,)?) => { $( acc.$f += d.$f; )* };
    }
    counter_fields!(add);
    for (i, slot) in acc.valfail_reasons.iter_mut().enumerate() {
        *slot += d.valfail_reasons[i];
    }
    for cause in ALL_CAUSES {
        acc.stall.charge(cause, d.stall.get(cause));
    }
    acc.reg_high_water = acc.reg_high_water.max(d.reg_high_water);
}

/// Replay one detailed region (warmup + measured window) from a
/// checkpoint. Public so a checkpoint written to disk can later be
/// replayed standalone — the CI round-trip check and the harness's
/// distributed window jobs both rely on this being a pure function of
/// `(prog, checkpoint, cfg, warmup, window)`.
pub fn replay_window(
    prog: &Program,
    ckpt: &Checkpoint,
    cfg: &SimConfig,
    warmup: u64,
    window: u64,
) -> WindowReplay {
    let mut wcfg = cfg.clone();
    wcfg.max_insts = warmup;
    let mut p = Pipeline::new(prog, ckpt.memory(), wcfg);
    p.restore_checkpoint(&ckpt.warm_start());
    let mut halted = matches!(p.run(), RunExit::Halted);
    let s0 = p.stats.clone();
    if !halted {
        p.cfg.max_insts = warmup + window;
        halted = matches!(p.run(), RunExit::Halted);
    }
    let s1 = p.stats.clone();
    let delta = delta_stats(&s0, &s1);
    let (_, _, reu0) = s0.events.counts();
    let (_, _, reu1) = s1.events.counts();
    let d_misp = s1.events.total_mispredictions - s0.events.total_mispredictions;
    let ci_exploited = if d_misp == 0 {
        0.0
    } else {
        (reu1 - reu0) as f64 / d_misp as f64
    };
    let row = WindowRow {
        start_inst: ckpt.retired,
        checkpoint_id: ckpt.content_id(),
        committed: delta.committed,
        cycles: delta.cycles,
        ipc: delta.ipc(),
        reuse_rate: delta.reuse_fraction(),
        ci_exploited,
    };
    WindowReplay {
        row,
        delta,
        warmup_committed: s0.committed,
        halted,
    }
}

/// Invert a CPI estimate into an IPC estimate. The mean maps through
/// `1/x`; the half-width uses the first-order delta method
/// (`|d(1/x)/dx| = 1/x^2`), accurate while the interval is narrow
/// relative to the mean.
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

/// Run `prog` under systematic sampling: functional fast-forward with
/// warming between detailed regions, one checkpointed window per
/// period, estimates across windows. `cfg.max_insts` is the total
/// instruction budget the sampled run covers (the same budget a full
/// detailed run would use).
pub fn run_sampled(
    prog: &Program,
    mem: &MemImage,
    name: &str,
    cfg: SimConfig,
    scfg: SamplingConfig,
) -> SampledRun {
    assert!(scfg.window > 0, "sampling window must be non-empty");
    assert!(
        scfg.period >= scfg.warmup + scfg.window + scfg.jitter,
        "sampling period ({}) must cover warmup + window + jitter ({} + {} + {})",
        scfg.period,
        scfg.warmup,
        scfg.window,
        scfg.jitter
    );
    let budget = cfg.max_insts;

    let mut warm = WarmingEmulator::new(prog, mem.clone(), &cfg);
    let mut windows = Vec::new();
    let mut acc = SimStats::default();
    let mut detailed_insts = 0u64;
    let mut halted = false;
    let mut shift = 0u64;

    for k in 0u64.. {
        if scfg.max_windows > 0 && windows.len() >= scfg.max_windows {
            break;
        }
        // Measurement k starts at `k * period` (jitter, if any, slides
        // it forward within the period); the detailed warmup precedes
        // it, clamped at instruction 0 — window 0 measures the cold
        // head of the run with no warmup, which is exact: the machine
        // really is cold there.
        let meas_start = k * scfg.period + shift;
        let warm_start = meas_start.saturating_sub(scfg.warmup);
        if meas_start + scfg.window > budget {
            break;
        }
        if warm.retired() < warm_start {
            warm.fast_forward(warm_start - warm.retired());
        }
        if warm.done() {
            halted = true;
            break;
        }
        let ckpt = warm.checkpoint();
        if let Some(dir) = &scfg.checkpoint_dir {
            ckpt.save(dir).expect("failed to write checkpoint");
        }
        // Next window's jitter offset, seeded from content (never from
        // scheduling order) so sampled runs are order-independent.
        if scfg.jitter > 0 {
            let mut seed = [0u8; 16];
            seed[..8].copy_from_slice(&ckpt.content_id().to_le_bytes());
            seed[8..].copy_from_slice(&(k + 1).to_le_bytes());
            shift = fnv1a64(&seed) % (scfg.jitter + 1);
        }
        let rep = replay_window(prog, &ckpt, &cfg, meas_start - warm_start, scfg.window);
        detailed_insts += rep.warmup_committed + rep.row.committed;
        if rep.row.committed > 0 {
            acc_stats(&mut acc, &rep.delta);
            windows.push(rep.row);
        }
        if rep.halted {
            halted = true;
            break;
        }
    }

    // Cover the remainder of the budget functionally so the sampled
    // run represents the same execution span a full run would.
    if !halted && warm.retired() < budget {
        warm.fast_forward(budget - warm.retired());
        halted = warm.done();
    }

    // SMARTS averages per-window CPI, not IPC: windows retire equal
    // instruction counts, so the arithmetic mean of CPI is unbiased
    // while a mean of IPC overweights fast windows (on mcf the
    // direct-IPC mean overshoots the full run by ~2x).
    let cpi = mean_ci95(
        &windows
            .iter()
            .map(|w| w.cycles as f64 / w.committed as f64)
            .collect::<Vec<_>>(),
    );
    let ipc = invert_cpi(&cpi);
    let reuse_rate = mean_ci95(&windows.iter().map(|w| w.reuse_rate).collect::<Vec<_>>());
    let ci_exploited = mean_ci95(&windows.iter().map(|w| w.ci_exploited).collect::<Vec<_>>());
    let measured_insts = windows.iter().map(|w| w.committed).sum();
    SampledRun {
        name: name.to_string(),
        period: scfg.period,
        warmup: scfg.warmup,
        window: scfg.window,
        windows,
        ff_insts: warm.retired(),
        detailed_insts,
        measured_insts,
        halted,
        ipc,
        reuse_rate,
        ci_exploited,
        stats: acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_workloads::{by_name, WorkloadSpec};

    fn small_cfg(budget: u64) -> SimConfig {
        SimConfig::paper_baseline().with_max_insts(budget)
    }

    fn small_scfg() -> SamplingConfig {
        SamplingConfig {
            period: 10_000,
            warmup: 1_000,
            window: 1_000,
            ..Default::default()
        }
    }

    #[test]
    fn sampled_estimate_tracks_the_full_run() {
        let w = by_name("gzip", WorkloadSpec::default()).unwrap();
        let budget = 60_000;

        let mut full = Pipeline::new(&w.prog, w.mem.clone(), small_cfg(budget));
        full.run();
        let full_ipc = full.stats.ipc();

        let s = run_sampled(&w.prog, &w.mem, w.name, small_cfg(budget), small_scfg());
        assert!(s.windows.len() >= 4, "expected several windows");
        assert!(
            s.detailed_insts < budget / 2,
            "sampling must simulate a minority of the budget in detail \
             ({} of {budget})",
            s.detailed_insts
        );
        assert!(s.ff_insts >= budget || s.halted);
        let err = s.ipc.rel_error(full_ipc);
        assert!(
            err < 0.15 || s.ipc.contains(full_ipc),
            "sampled IPC {} too far from full {} (err {err:.3})",
            s.ipc.mean,
            full_ipc
        );
    }

    #[test]
    fn ipc_estimate_averages_cpi_not_ipc() {
        // Two windows, 1000 insts each: one at 500 cycles (IPC 2) and
        // one at 2000 cycles (IPC 0.5). Aggregate IPC over the
        // measured instructions is 2000/2500 = 0.8 — exactly what the
        // CPI mean gives (mean CPI = (0.5 + 2.0)/2 = 1.25, 1/1.25 =
        // 0.8). A direct IPC mean would claim 1.25 — off by 56%.
        let cpi = mean_ci95(&[0.5, 2.0]);
        let ipc = invert_cpi(&cpi);
        assert!((ipc.mean - 0.8).abs() < 1e-12, "got {}", ipc.mean);
        // Delta method: hw(ipc) = hw(cpi) / mean(cpi)^2.
        assert!((ipc.half_width - cpi.half_width / (1.25 * 1.25)).abs() < 1e-12);
        assert_eq!(ipc.n, 2);
        // Degenerate input maps to a zero estimate, not a division.
        let z = invert_cpi(&mean_ci95(&[]));
        assert_eq!((z.mean, z.half_width), (0.0, 0.0));
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let w = by_name("bzip2", WorkloadSpec::default()).unwrap();
        let mut scfg = small_scfg();
        scfg.jitter = 500;
        let a = run_sampled(&w.prog, &w.mem, w.name, small_cfg(50_000), scfg.clone());
        let b = run_sampled(&w.prog, &w.mem, w.name, small_cfg(50_000), scfg);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.snapshot_json("scal"), b.snapshot_json("scal"));
    }

    #[test]
    fn windows_replay_identically_from_disk() {
        let w = by_name("gzip", WorkloadSpec::default()).unwrap();
        let dir = std::env::temp_dir().join(format!("cfir-replay-test-{}", w.name));
        std::fs::remove_dir_all(&dir).ok();
        let scfg = SamplingConfig {
            checkpoint_dir: Some(dir.clone()),
            ..small_scfg()
        };
        let cfg = small_cfg(40_000);
        let s = run_sampled(&w.prog, &w.mem, w.name, cfg.clone(), scfg);
        assert!(!s.windows.is_empty());
        for (k, row) in s.windows.iter().enumerate() {
            let path = dir.join(format!("{:016x}.ckpt", row.checkpoint_id));
            let ckpt = Checkpoint::load(&path).expect("checkpoint on disk");
            // Effective warmup: measurement k sits at k*period; the
            // checkpoint is `warmup` before it (0 for the cold head).
            let warmup = k as u64 * 10_000 - row.start_inst;
            let rep = replay_window(&w.prog, &ckpt, &cfg, warmup, 1_000);
            assert_eq!(&rep.row, row, "replay from disk diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn halting_workload_stops_cleanly() {
        let w = by_name(
            "gzip",
            WorkloadSpec {
                iters: 10,
                ..WorkloadSpec::default()
            },
        )
        .unwrap();
        let s = run_sampled(
            &w.prog,
            &w.mem,
            w.name,
            small_cfg(1 << 30),
            SamplingConfig {
                period: 2_000,
                warmup: 200,
                window: 200,
                ..Default::default()
            },
        );
        assert!(s.halted);
        for win in &s.windows {
            assert!(win.committed > 0);
        }
    }

    #[test]
    fn max_windows_caps_the_run() {
        let w = by_name("gzip", WorkloadSpec::default()).unwrap();
        let scfg = SamplingConfig {
            max_windows: 2,
            ..small_scfg()
        };
        let s = run_sampled(&w.prog, &w.mem, w.name, small_cfg(100_000), scfg);
        assert_eq!(s.windows.len(), 2);
    }
}
