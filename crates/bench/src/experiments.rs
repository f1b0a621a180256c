//! Every figure/table/ablation of the evaluation, expressed as data.
//!
//! Each function below builds one [`Experiment`]: the list of
//! (workload, configuration) points it needs, plus an aggregator that
//! reduces the finished [`JobResult`]s — in job-definition order —
//! into the same CSV artifacts and stdout blocks the original
//! single-threaded figure binaries produced. `cfir suite` schedules
//! any subset of these matrices on the harness pool.
//!
//! A [`JobResult`] derefs to the `SimStats` counters its run carried,
//! so the aggregators read every derived rate through `SimStats`'s own
//! methods (`r.ipc()`, `r.reuse_fraction()`, …). The cache encodes
//! exactly those counters, so the artifacts are byte-identical whether
//! a point was simulated this run or served from the on-disk cache —
//! and identical to the output of the retired serial binaries.

use crate::report::{f3, pct, report_json_checked, Table};
use cfir_core::{storage, MechConfig};
use cfir_harness::{
    AggCtx, Artifact, Experiment, ExperimentOutput, JobResult, JobSpec, WorkloadRef,
};
use cfir_isa::FuClass;
use cfir_mem::CacheConfig;
use cfir_predict::{GSHARE_ENTRIES, STRIDE_SETS, STRIDE_WAYS};
use cfir_sim::{
    harmonic_mean, Estimate, Mode, RegFileSize, SimConfig, FETCH_WIDTH, FP_ALUS, FP_MULDIVS,
    INT_ALUS, INT_MULDIVS, ISSUE_WIDTH, LSQ_ENTRIES, MSHRS,
};
use cfir_workloads::{WorkloadSpec, NAMES};
use std::fmt::Write as _;

/// Run-size parameters shared by every job in a matrix. Read from the
/// environment **once**, when the matrix is built — job execution
/// never consults the environment, so fingerprints are stable and
/// worker threads are env-race-free.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload generation parameters (`CFIR_ELEMS`, `CFIR_SEED`).
    pub spec: WorkloadSpec,
    /// Committed-instruction budget per job (`CFIR_INSTS`).
    pub max_insts: u64,
}

impl Params {
    /// Parameters from `CFIR_INSTS` (default 150\_000) and
    /// `CFIR_ELEMS` / `CFIR_SEED` (default [`WorkloadSpec`]). An unset
    /// variable keeps its default; a set one that is not a decimal
    /// number, or a `CFIR_ELEMS` that is not a power of two (the
    /// kernels index with the mask `elems - 1`), is an error naming
    /// the variable and its value.
    pub fn from_env() -> Result<Params, String> {
        fn var(name: &str) -> Result<Option<u64>, String> {
            let Some(raw) = std::env::var_os(name) else {
                return Ok(None);
            };
            let v = raw.to_string_lossy();
            v.parse()
                .map(Some)
                .map_err(|_| format!("{name} wants a number, got `{v}`"))
        }
        let mut spec = WorkloadSpec::default();
        if let Some(e) = var("CFIR_ELEMS")? {
            if !e.is_power_of_two() {
                return Err(format!("CFIR_ELEMS wants a power of two, got `{e}`"));
            }
            spec.elems = e;
        }
        if let Some(x) = var("CFIR_SEED")? {
            spec.seed = x;
        }
        Ok(Params {
            spec,
            max_insts: var("CFIR_INSTS")?.unwrap_or(150_000),
        })
    }
}

/// The paper's standard config for a mode/ports/regs point.
pub fn config(mode: Mode, dports: u32, regs: RegFileSize) -> SimConfig {
    SimConfig::paper_baseline()
        .with_mode(mode)
        .with_dports(dports)
        .with_regs(regs)
}

/// The paper's five register-file sizes, in figure order.
const REGS: [RegFileSize; 5] = [
    RegFileSize::Finite(128),
    RegFileSize::Finite(256),
    RegFileSize::Finite(512),
    RegFileSize::Finite(768),
    RegFileSize::Infinite,
];

/// Canonicalize a config for use as a job key: the budget lives in
/// [`JobSpec::max_insts`] and the cosim flag is forced off at
/// execution time, so neither may leak divergent values into the
/// fingerprint. Every job samples the interval time series at the
/// historical `--emit-json` cadence — sampling only reads state, so
/// the CSVs are unaffected, and one fingerprint serves both plain and
/// `--emit-json` invocations.
fn canon(mut cfg: SimConfig) -> SimConfig {
    cfg.max_insts = 0;
    cfg.cosim_check = false;
    if cfg.interval_cycles == 0 {
        cfg.interval_cycles = 10_000;
    }
    cfg
}

fn named_job(p: &Params, name: &str, cfg: SimConfig) -> JobSpec {
    JobSpec {
        workload: WorkloadRef::Named {
            name: name.to_string(),
            spec: p.spec,
        },
        cfg: canon(cfg),
        max_insts: p.max_insts,
        sampling: None,
    }
}

/// One job per suite benchmark, all under `cfg`.
fn suite_jobs(p: &Params, cfg: &SimConfig) -> Vec<JobSpec> {
    NAMES.iter().map(|n| named_job(p, n, cfg.clone())).collect()
}

/// CSV artifact, plus the validated JSON snapshot bundle when
/// `--emit-json` is in effect.
fn table_artifacts(
    ctx: &AggCtx,
    name: &str,
    t: &Table,
    runs: &[&JobResult],
) -> Result<Vec<Artifact>, String> {
    let mut v = vec![Artifact {
        rel_path: format!("{name}.csv"),
        contents: t.to_csv(),
    }];
    if ctx.emit_json {
        let labeled: Vec<(String, String)> = runs
            .iter()
            .map(|r| (format!("{}/{}", r.name, r.mode_label), r.snapshot.clone()))
            .collect();
        v.push(Artifact {
            rel_path: format!("{name}.json"),
            contents: report_json_checked(t, &labeled)?,
        });
    }
    Ok(v)
}

fn hmean_of(results: &[&JobResult]) -> f64 {
    let ipcs: Vec<f64> = results.iter().map(|r| r.ipc()).collect();
    harmonic_mean(&ipcs)
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// A cache's Table 1 row: `64Kb, 2-way, 32B lines, 1 cycle hit`.
fn cache_row(c: &CacheConfig, hit: u32) -> String {
    const MB: u64 = 1024 * 1024;
    let size = if c.size_bytes.is_multiple_of(MB) {
        format!("{}Mb", c.size_bytes / MB)
    } else {
        format!("{}Kb", c.size_bytes / 1024)
    };
    format!(
        "{size}, {}-way, {}B lines, {hit} cycle hit",
        c.assoc, c.line_bytes
    )
}

fn table1(_p: &Params) -> Experiment {
    Experiment {
        name: "table1",
        title: "Table 1: processor configuration + S3.1 extra-storage accounting",
        jobs: Vec::new(),
        aggregate: Box::new(|ctx, _results| {
            let c = SimConfig::paper_baseline();
            let h = &c.hierarchy;
            use FuClass::*;
            let [ia, im, id, fa, fm, fd] = [IntAlu, IntMul, IntDiv, FpAlu, FpMul, FpDiv]
                .map(|class| class.latency().expect("a fixed-latency class"));
            let mut t = Table::new("Table 1: processor configuration", &["parameter", "value"]);
            let rows: Vec<(&str, String)> = vec![
                (
                    "Fetch width",
                    format!("{FETCH_WIDTH} instructions (up to 1 taken branch)"),
                ),
                ("I-Cache", cache_row(&h.l1i, h.l1_hit)),
                (
                    "Branch predictor",
                    format!("Gshare with {}K entries", GSHARE_ENTRIES / 1024),
                ),
                ("Inst. window size", format!("{} entries", c.window)),
                (
                    "Int ALUs / mult-div",
                    format!("{INT_ALUS} ({ia}) / {INT_MULDIVS} ({im},{id})"),
                ),
                (
                    "FP ALUs / mult-div",
                    format!("{FP_ALUS} ({fa}) / {FP_MULDIVS} ({fm},{fd})"),
                ),
                (
                    "Load/store queue",
                    format!("{LSQ_ENTRIES} entries, store-load forwarding"),
                ),
                ("Issue mechanism", format!("{ISSUE_WIDTH}-way out of order")),
                (
                    "D-cache",
                    format!("{}, write-back, {MSHRS} MSHRs", cache_row(&h.l1d, h.l1_hit)),
                ),
                ("L2 cache", cache_row(&h.l2, h.l2_hit)),
                (
                    "L3 cache",
                    format!("{}, {} cycle memory", cache_row(&h.l3, h.l3_hit), h.mem_lat),
                ),
                ("Commit width", format!("{} instructions", c.commit_width)),
                (
                    "Stride predictor",
                    format!("{STRIDE_WAYS}-way x {STRIDE_SETS} sets"),
                ),
                (
                    "SRSMT",
                    format!("{}-way x {} sets", c.mech.srsmt_ways, c.mech.srsmt_sets),
                ),
                (
                    "MBS",
                    format!("{}-way x {} sets", c.mech.mbs_ways, c.mech.mbs_sets),
                ),
            ];
            for (k, v) in rows {
                t.row(vec![k.into(), v]);
            }

            let r = storage::report(&MechConfig::paper());
            let mut st = Table::new(
                "S3.1: extra storage of the mechanism",
                &["structure", "bytes"],
            );
            st.row(vec!["SRSMT".into(), r.srsmt.to_string()]);
            st.row(vec!["stride predictor".into(), r.stride.to_string()]);
            st.row(vec!["MBS".into(), r.mbs.to_string()]);
            st.row(vec!["NRBQ".into(), r.nrbq.to_string()]);
            st.row(vec!["CRP".into(), r.crp.to_string()]);
            st.row(vec!["rename extension".into(), r.rename_ext.to_string()]);
            st.row(vec![
                "TOTAL".into(),
                format!("{} ({} KB)", r.total(), r.total() / 1024),
            ]);

            let mut artifacts = table_artifacts(ctx, "table1", &t, &[])?;
            artifacts.extend(table_artifacts(ctx, "table1_storage", &st, &[])?);
            Ok(ExperimentOutput {
                stdout: format!("{}{}", t.render(), st.render()),
                artifacts,
            })
        }),
    }
}

// ---------------------------------------------------------------------------
// Figures 4, 5, 8–14
// ---------------------------------------------------------------------------

fn fig04(p: &Params) -> Experiment {
    let mut jobs = Vec::new();
    for slots in [1usize, 2, 4] {
        let mut cfg = config(Mode::Ci, 1, RegFileSize::Finite(512));
        cfg.mech.strided_pc_slots = slots;
        jobs.extend(suite_jobs(p, &cfg));
    }
    Experiment {
        name: "fig04",
        title: "Figure 4: IPC vs propagated stridedPCs per rename entry",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Figure 4: IPC vs propagated stridedPCs per rename entry",
                &["bench", "1PC", "2PC", "4PC", "avg PCs/entry"],
            );
            let mut per_slots = vec![Vec::new(); 3];
            let mut rows: Vec<Vec<String>> = NAMES.iter().map(|n| vec![n.to_string()]).collect();
            let mut avg_col = vec![String::new(); rows.len()];
            for (si, slots) in [1usize, 2, 4].into_iter().enumerate() {
                for bi in 0..NAMES.len() {
                    let r = results[si * NAMES.len() + bi];
                    per_slots[si].push(r.ipc());
                    rows[bi].push(f3(r.ipc()));
                    if slots == 4 {
                        avg_col[bi] = format!("{:.2}", r.avg_strided_pcs());
                    }
                }
            }
            for (bi, mut row) in rows.into_iter().enumerate() {
                row.push(avg_col[bi].clone());
                t.row(row);
            }
            t.row(vec![
                "HMEAN".into(),
                f3(harmonic_mean(&per_slots[0])),
                f3(harmonic_mean(&per_slots[1])),
                f3(harmonic_mean(&per_slots[2])),
                String::new(),
            ]);
            Ok(ExperimentOutput {
                stdout: format!(
                    "{}paper: 1 vs 2 vs 4 PCs hardly changes IPC; ~1.7 PCs needed on average\n",
                    t.render()
                ),
                artifacts: table_artifacts(ctx, "fig04", &t, results)?,
            })
        }),
    }
}

fn fig05(p: &Params) -> Experiment {
    let cfg = config(Mode::Ci, 1, RegFileSize::Finite(512));
    Experiment {
        name: "fig05",
        title: "Figure 5: CI classification of mispredicted branches",
        jobs: suite_jobs(p, &cfg),
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Figure 5: CI classification of mispredicted branches (ci)",
                &["bench", "not found", "no reuse", ">=1 reuse", "mispredicts"],
            );
            let mut sums = [0.0f64; 3];
            for r in results {
                let (nf, sel, reu) = r.event_fractions();
                sums[0] += nf;
                sums[1] += sel;
                sums[2] += reu;
                t.row(vec![
                    r.name.clone(),
                    pct(nf),
                    pct(sel),
                    pct(reu),
                    r.total_mispredictions.to_string(),
                ]);
            }
            let n = results.len() as f64;
            t.row(vec![
                "INT (avg)".into(),
                pct(sums[0] / n),
                pct(sums[1] / n),
                pct(sums[2] / n),
                String::new(),
            ]);
            Ok(ExperimentOutput {
                stdout: format!(
                    "{}paper: ~30% not found, ~21% selected w/o reuse, ~49% with reuse\n",
                    t.render()
                ),
                artifacts: table_artifacts(ctx, "fig05", &t, results)?,
            })
        }),
    }
}

fn fig08(p: &Params) -> Experiment {
    let mut jobs = Vec::new();
    for ports in [1u32, 2] {
        for mode in [Mode::Scalar, Mode::WideBus, Mode::Ci] {
            jobs.extend(suite_jobs(
                p,
                &config(mode, ports, RegFileSize::Finite(512)),
            ));
        }
    }
    Experiment {
        name: "fig08",
        title: "Figure 8: L1 D-cache accesses (scal/wb/ci x 1,2 ports)",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Figure 8: L1 D-cache accesses",
                &["bench", "scal1p", "wb1p", "ci1p", "scal2p", "wb2p", "ci2p"],
            );
            let mut rows: Vec<Vec<String>> = NAMES.iter().map(|n| vec![n.to_string()]).collect();
            for (gi, chunk) in results.chunks(NAMES.len()).enumerate() {
                debug_assert!(gi < 6);
                for (bi, r) in chunk.iter().enumerate() {
                    rows[bi].push(r.l1d_accesses.to_string());
                }
            }
            for row in rows {
                t.row(row);
            }
            Ok(ExperimentOutput {
                stdout: format!(
                    "{}paper: wide bus cuts accesses; ci cuts further despite extra speculative loads\n",
                    t.render()
                ),
                artifacts: table_artifacts(ctx, "fig08", &t, results)?,
            })
        }),
    }
}

fn fig09(p: &Params) -> Experiment {
    let mut jobs = Vec::new();
    for r in REGS {
        for ports in [1u32, 2] {
            for mode in [Mode::Scalar, Mode::WideBus, Mode::Ci] {
                jobs.extend(suite_jobs(p, &config(mode, ports, r)));
            }
        }
    }
    Experiment {
        name: "fig09",
        title: "Figure 9: harmonic-mean IPC vs registers and L1 ports",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Figure 9: harmonic-mean IPC vs registers and L1 ports",
                &["regs", "scal1p", "wb1p", "ci1p", "scal2p", "wb2p", "ci2p"],
            );
            let mut chunks = results.chunks(NAMES.len());
            for r in REGS {
                let mut row = vec![r.label()];
                for _ in 0..6 {
                    row.push(f3(hmean_of(chunks.next().expect("6 groups per reg"))));
                }
                t.row(row);
            }
            Ok(ExperimentOutput {
                stdout: format!(
                    "{}paper: ci needs >128 regs; beyond 256 regs ci pulls 14-17.8% ahead of wb\n",
                    t.render()
                ),
                artifacts: table_artifacts(ctx, "fig09", &t, results)?,
            })
        }),
    }
}

fn fig10(p: &Params) -> Experiment {
    let mut jobs = Vec::new();
    for mode in [Mode::Scalar, Mode::WideBus, Mode::CiIw, Mode::Ci] {
        jobs.extend(suite_jobs(p, &config(mode, 1, RegFileSize::Finite(512))));
    }
    Experiment {
        name: "fig10",
        title: "Figure 10: ci vs in-window-only squash reuse (1 port)",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Figure 10: ci vs in-window-only squash reuse (1 port)",
                &["bench", "scal", "wb", "ci-iw", "ci"],
            );
            let mut rows: Vec<Vec<String>> = NAMES.iter().map(|n| vec![n.to_string()]).collect();
            let mut per_mode = vec![Vec::new(); 4];
            for (mi, chunk) in results.chunks(NAMES.len()).enumerate() {
                for (bi, r) in chunk.iter().enumerate() {
                    rows[bi].push(f3(r.ipc()));
                    per_mode[mi].push(r.ipc());
                }
            }
            for row in rows {
                t.row(row);
            }
            let mut hm = vec!["HMEAN".to_string()];
            for m in &per_mode {
                hm.push(f3(harmonic_mean(m)));
            }
            t.row(hm);
            let base = harmonic_mean(&per_mode[0]);
            let stdout = format!(
                "{}gains over scal: wb {:+.1}%  ci-iw {:+.1}%  ci {:+.1}%   (paper: ci-iw +9.1%, ci +17.8%)\n",
                t.render(),
                (harmonic_mean(&per_mode[1]) / base - 1.0) * 100.0,
                (harmonic_mean(&per_mode[2]) / base - 1.0) * 100.0,
                (harmonic_mean(&per_mode[3]) / base - 1.0) * 100.0,
            );
            Ok(ExperimentOutput {
                stdout,
                artifacts: table_artifacts(ctx, "fig10", &t, results)?,
            })
        }),
    }
}

fn fig11(p: &Params) -> Experiment {
    let mut jobs = Vec::new();
    for r in REGS {
        for mode in [Mode::Scalar, Mode::WideBus] {
            jobs.extend(suite_jobs(p, &config(mode, 1, r)));
        }
        for reps in [1u8, 2, 4, 8] {
            jobs.extend(suite_jobs(p, &config(Mode::Ci, 1, r).with_replicas(reps)));
        }
    }
    Experiment {
        name: "fig11",
        title: "Figure 11: IPC vs replicas per vectorized instruction",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Figure 11: IPC vs replicas per vectorized instruction",
                &["regs", "sc", "wb", "1rep", "2rep", "4rep", "8rep"],
            );
            let mut chunks = results.chunks(NAMES.len());
            for r in REGS {
                let mut row = vec![r.label()];
                for _ in 0..6 {
                    row.push(f3(hmean_of(chunks.next().expect("6 groups per reg"))));
                }
                t.row(row);
            }
            Ok(ExperimentOutput {
                stdout: format!(
                    "{}paper: 2 or 4 replicas are the sweet spot; 8 helps only with many registers\n",
                    t.render()
                ),
                artifacts: table_artifacts(ctx, "fig11", &t, results)?,
            })
        }),
    }
}

fn fig12(p: &Params) -> Experiment {
    let mut jobs = Vec::new();
    for reps in [2u8, 4] {
        jobs.extend(suite_jobs(
            p,
            &config(Mode::Ci, 1, RegFileSize::Finite(512)).with_replicas(reps),
        ));
    }
    Experiment {
        name: "fig12",
        title: "Figure 12: instruction breakdown for 2 and 4 replicas",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Figure 12: instruction breakdown for 2 (left) and 4 (right) replicas",
                &[
                    "bench", "noR/2", "Reuse/2", "specBP/2", "specCI/2", "noR/4", "Reuse/4",
                    "specBP/4", "specCI/4",
                ],
            );
            let mut rows: Vec<Vec<String>> = NAMES.iter().map(|n| vec![n.to_string()]).collect();
            let mut reuse_fraction = [0.0f64; 2];
            for (ri, chunk) in results.chunks(NAMES.len()).enumerate() {
                let mut tot_committed = 0u64;
                let mut tot_reuse = 0u64;
                for (bi, r) in chunk.iter().enumerate() {
                    rows[bi].push((r.committed - r.committed_reuse).to_string());
                    rows[bi].push(r.committed_reuse.to_string());
                    rows[bi].push(r.squashed.to_string());
                    rows[bi].push(r.replicas_created.to_string());
                    tot_committed += r.committed;
                    tot_reuse += r.committed_reuse;
                }
                reuse_fraction[ri] = tot_reuse as f64 / tot_committed as f64;
            }
            for row in rows {
                t.row(row);
            }
            let stdout = format!(
                "{}reuse fraction of committed: 2rep {}  4rep {}   (paper: 12.3% -> 14%)\n",
                t.render(),
                pct(reuse_fraction[0]),
                pct(reuse_fraction[1])
            );
            Ok(ExperimentOutput {
                stdout,
                artifacts: table_artifacts(ctx, "fig12", &t, results)?,
            })
        }),
    }
}

fn fig13(p: &Params) -> Experiment {
    let mut jobs = Vec::new();
    for r in REGS {
        for mode in [Mode::Scalar, Mode::WideBus, Mode::Ci] {
            jobs.extend(suite_jobs(p, &config(mode, 1, r)));
        }
        for positions in [128usize, 256, 512, 768] {
            let mut cfg = config(Mode::Ci, 1, r);
            cfg.mech = MechConfig::paper_with_specmem(positions);
            jobs.extend(suite_jobs(p, &cfg));
        }
    }
    Experiment {
        name: "fig13",
        title: "Figure 13: speculative data memory (ci-h-N)",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Figure 13: speculative data memory (ci-h-N)",
                &[
                    "regs", "scal", "wb", "ci", "ci-h-128", "ci-h-256", "ci-h-512", "ci-h-768",
                ],
            );
            let mut chunks = results.chunks(NAMES.len());
            for r in REGS {
                let mut row = vec![r.label()];
                for _ in 0..7 {
                    row.push(f3(hmean_of(chunks.next().expect("7 groups per reg"))));
                }
                t.row(row);
            }
            Ok(ExperimentOutput {
                stdout: format!(
                    "{}paper: 256 regs + 768 spec positions ~= unbounded monolithic ci\n",
                    t.render()
                ),
                artifacts: table_artifacts(ctx, "fig13", &t, results)?,
            })
        }),
    }
}

fn fig14(p: &Params) -> Experiment {
    let mut jobs = Vec::new();
    for r in REGS {
        for mode in [Mode::Ci, Mode::Vect] {
            jobs.extend(suite_jobs(p, &config(mode, 2, r)));
        }
    }
    Experiment {
        name: "fig14",
        title: "Figure 14: ci vs full-blown dynamic vectorization (2 ports)",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Figure 14: ci vs full-blown dynamic vectorization",
                &["regs", "ci", "vect"],
            );
            let mut activity: Vec<String> = Vec::new();
            let mut chunks = results.chunks(NAMES.len());
            for r in REGS {
                let mut row = vec![r.label()];
                for mode in [Mode::Ci, Mode::Vect] {
                    let runs = chunks.next().expect("2 groups per reg");
                    row.push(f3(hmean_of(runs)));
                    if matches!(r, RegFileSize::Finite(512)) {
                        let wrong: f64 = runs.iter().map(|x| x.wrong_path_fraction()).sum::<f64>()
                            / runs.len() as f64;
                        let reuse: f64 = runs.iter().map(|x| x.reuse_fraction()).sum::<f64>()
                            / runs.len() as f64;
                        activity.push(format!(
                            "{}: wrong-path activity {} of executed work, reuse {} of committed",
                            mode.label(),
                            pct(wrong),
                            pct(reuse)
                        ));
                    }
                }
                t.row(row);
            }
            let mut stdout = t.render();
            for a in activity {
                let _ = writeln!(stdout, "{a}");
            }
            let _ = writeln!(
                stdout,
                "paper: ci wins below ~700 regs; vect only wins unbounded. ci wastes 29.6% vs vect 48.5%"
            );
            Ok(ExperimentOutput {
                stdout,
                artifacts: table_artifacts(ctx, "fig14", &t, results)?,
            })
        }),
    }
}

// ---------------------------------------------------------------------------
// Beyond-the-paper experiments
// ---------------------------------------------------------------------------

fn exp_regs(p: &Params) -> Experiment {
    let occ_cfg = |daec: u8| {
        let mut cfg = config(Mode::Ci, 1, RegFileSize::Infinite);
        cfg.mech.daec_threshold = daec;
        cfg
    };
    let mut jobs = Vec::new();
    for phase in [256i64, 1024] {
        for daec in [2u8, u8::MAX] {
            jobs.push(JobSpec {
                workload: WorkloadRef::MultiPhase { phase_len: phase },
                cfg: canon(occ_cfg(daec)),
                max_insts: p.max_insts,
                sampling: None,
            });
        }
    }
    jobs.extend(suite_jobs(p, &occ_cfg(2)));
    jobs.extend(suite_jobs(p, &occ_cfg(u8::MAX)));
    Experiment {
        name: "exp_regs",
        title: "S2.4.2: physical registers in use with/without DAEC",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "S2.4.2: physical registers in use (unbounded file, ci)",
                &[
                    "workload",
                    "avg DAEC on",
                    "avg DAEC off",
                    "peak on",
                    "peak off",
                ],
            );
            for (pi, phase) in [256i64, 1024].into_iter().enumerate() {
                let on = results[pi * 2];
                let off = results[pi * 2 + 1];
                t.row(vec![
                    format!("multi-phase/{phase}"),
                    format!("{:.0}", on.avg_regs_in_use()),
                    format!("{:.0}", off.avg_regs_in_use()),
                    on.reg_high_water.to_string(),
                    off.reg_high_water.to_string(),
                ]);
            }
            let runs_on = &results[4..4 + NAMES.len()];
            let runs_off = &results[4 + NAMES.len()..4 + 2 * NAMES.len()];
            let mut avg_on = 0.0;
            let mut avg_off = 0.0;
            for (a, b) in runs_on.iter().zip(runs_off) {
                avg_on += a.avg_regs_in_use();
                avg_off += b.avg_regs_in_use();
            }
            t.row(vec![
                "suite MEAN".into(),
                format!("{:.0}", avg_on / runs_on.len() as f64),
                format!("{:.0}", avg_off / runs_off.len() as f64),
                String::new(),
                String::new(),
            ]);
            let stdout = format!(
                "{}paper: 812 registers without DAEC vs 304 with DAEC (whole-suite averages)\n",
                t.render()
            );
            Ok(ExperimentOutput {
                stdout,
                artifacts: table_artifacts(ctx, "exp_regs", &t, results)?,
            })
        }),
    }
}

fn exp_coherence(p: &Params) -> Experiment {
    let cfg = config(Mode::Ci, 1, RegFileSize::Finite(512));
    Experiment {
        name: "exp_coherence",
        title: "S2.4.3: store-coherence conflicts",
        jobs: suite_jobs(p, &cfg),
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "S2.4.3: store-coherence conflicts (ci)",
                &["bench", "stores", "conflicts", "fraction"],
            );
            let mut st = 0u64;
            let mut cf = 0u64;
            for r in results {
                t.row(vec![
                    r.name.clone(),
                    r.stores.to_string(),
                    r.store_conflicts.to_string(),
                    pct(r.store_conflict_fraction()),
                ]);
                st += r.stores;
                cf += r.store_conflicts;
            }
            t.row(vec![
                "TOTAL".into(),
                st.to_string(),
                cf.to_string(),
                pct(if st == 0 { 0.0 } else { cf as f64 / st as f64 }),
            ]);
            Ok(ExperimentOutput {
                stdout: format!("{}paper: fewer than 3% of stores conflict\n", t.render()),
                artifacts: table_artifacts(ctx, "exp_coherence", &t, results)?,
            })
        }),
    }
}

fn ablations(p: &Params) -> Experiment {
    let base = config(Mode::Ci, 1, RegFileSize::Finite(512));
    let mut ungated = base.clone();
    ungated.mech.mbs_gating = false;
    let mut naive = base.clone();
    naive.mech.full_rcp_heuristic = false;
    let mut first = base.clone();
    first.mech.replicas_first = true;
    let wb = config(Mode::WideBus, 1, RegFileSize::Finite(512));
    let mut big = wb.clone();
    big.hierarchy.l1d.size_bytes = 128 * 1024; // nearest pow-2 >= 64+39 KB

    // Each group is 12 suite runs; `add` returns the index the
    // aggregator reads the group back by.
    let mut jobs = Vec::new();
    let mut add = |cfg: &SimConfig| {
        jobs.extend(suite_jobs(p, cfg));
        jobs.len() / NAMES.len() - 1
    };
    let g_base = add(&base);
    let g_ungated = add(&ungated);
    let g_naive = add(&naive);
    let daec_thresholds = [1u8, 2, 4, u8::MAX];
    let g_daec = daec_thresholds.map(|thr| {
        let mut c = config(Mode::Ci, 1, RegFileSize::Finite(256));
        c.mech.daec_threshold = thr;
        add(&c)
    });
    let headrooms = [0usize, 8, 16, 64];
    let g_headroom = headrooms.map(|hr| {
        let mut c = config(Mode::Ci, 1, RegFileSize::Finite(256));
        c.mech.replica_headroom = hr;
        add(&c)
    });
    let g_first = add(&first);
    let g_wb = add(&wb);
    let g_big = add(&big);
    let blacklists = [4u8, 8, u8::MAX];
    let g_blacklist = blacklists.map(|thr| {
        let mut c = base.clone();
        c.mech.misspec_blacklist = thr;
        add(&c)
    });

    Experiment {
        name: "ablations",
        title: "Ablations: gating, RCP heuristics, DAEC, headroom, priority, L1 budget, blacklist",
        jobs,
        aggregate: Box::new(move |ctx, results| {
            let group = |i: usize| &results[i * NAMES.len()..(i + 1) * NAMES.len()];
            let hm = |i: usize| f3(hmean_of(group(i)));
            let mut stdout = String::new();
            let mut artifacts = Vec::new();
            let mut emit = |name: &str, t: &Table, runs: &[&JobResult]| -> Result<(), String> {
                stdout.push_str(&t.render());
                artifacts.extend(table_artifacts(ctx, name, t, runs)?);
                Ok(())
            };
            let concat = |idxs: &[usize]| -> Vec<&JobResult> {
                idxs.iter()
                    .flat_map(|&i| group(i).iter().copied())
                    .collect()
            };

            let mut t = Table::new("Ablation: MBS hard-branch gating", &["variant", "HM IPC"]);
            t.row(vec!["gated (paper)".into(), hm(g_base)]);
            t.row(vec!["ungated (every mispredict)".into(), hm(g_ungated)]);
            emit("abl_gating", &t, &concat(&[g_base, g_ungated]))?;

            let mut t = Table::new(
                "Ablation: re-convergence heuristics",
                &["variant", "HM IPC"],
            );
            t.row(vec!["full Fig-2 heuristics".into(), hm(g_base)]);
            t.row(vec!["naive fall-through".into(), hm(g_naive)]);
            emit("abl_rcp", &t, &concat(&[g_base, g_naive]))?;

            let mut t = Table::new(
                "Ablation: DAEC threshold (256 registers, where pressure bites)",
                &["threshold", "HM IPC"],
            );
            for (thr, g) in daec_thresholds.into_iter().zip(g_daec) {
                let label = if thr == u8::MAX {
                    "off".to_string()
                } else {
                    thr.to_string()
                };
                t.row(vec![label, hm(g)]);
            }
            emit("abl_daec", &t, &concat(&g_daec))?;

            let mut t = Table::new(
                "Ablation: replica register headroom (256 registers)",
                &["headroom", "HM IPC"],
            );
            for (hr, g) in headrooms.into_iter().zip(g_headroom) {
                t.row(vec![hr.to_string(), hm(g)]);
            }
            emit("abl_headroom", &t, &concat(&g_headroom))?;

            let mut t = Table::new(
                "Ablation: replica issue priority (S2.4.1)",
                &["variant", "HM IPC"],
            );
            t.row(vec!["replicas last (paper)".into(), hm(g_base)]);
            t.row(vec!["replicas first".into(), hm(g_first)]);
            emit("abl_priority", &t, &concat(&[g_base, g_first]))?;

            // §3.1: "using this amount of extra hardware in, i.e., the
            // L1 data cache only increases about 5% the performance" —
            // spend the 39 KB on a bigger L1 instead of the mechanism.
            let mut t = Table::new(
                "Ablation: spend the mechanism's 39 KB on the L1D instead (S3.1)",
                &["variant", "HM IPC"],
            );
            t.row(vec!["wb, 64 KB L1D".into(), hm(g_wb)]);
            t.row(vec!["wb, 128 KB L1D".into(), hm(g_big)]);
            t.row(vec!["ci, 64 KB L1D".into(), hm(g_base)]);
            emit("abl_l1_budget", &t, &concat(&[g_wb, g_big, g_base]))?;

            let mut t = Table::new(
                "Ablation: mis-speculation blacklist threshold",
                &["threshold", "HM IPC"],
            );
            for (thr, g) in blacklists.into_iter().zip(g_blacklist) {
                let label = if thr == u8::MAX {
                    "off (default)".to_string()
                } else {
                    thr.to_string()
                };
                t.row(vec![label, hm(g)]);
            }
            emit("abl_blacklist", &t, &concat(&g_blacklist))?;

            Ok(ExperimentOutput { stdout, artifacts })
        }),
    }
}

fn exp_limit(p: &Params) -> Experiment {
    let wb = config(Mode::WideBus, 1, RegFileSize::Finite(512));
    let ci = config(Mode::Ci, 1, RegFileSize::Finite(512));
    let mut perfect = wb.clone();
    perfect.perfect_branch_prediction = true;
    let mut jobs = Vec::new();
    for name in NAMES {
        jobs.push(named_job(p, name, wb.clone()));
        jobs.push(named_job(p, name, ci.clone()));
        jobs.push(named_job(p, name, perfect.clone()));
    }
    Experiment {
        name: "exp_limit",
        title: "Limit study: ci vs perfect branch prediction",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Limit study: ci vs perfect branch prediction (512 regs, 1 port)",
                &["bench", "wb", "ci", "perfect", "gap closed"],
            );
            let mut wbs = Vec::new();
            let mut cis = Vec::new();
            let mut perf = Vec::new();
            for (ni, name) in NAMES.iter().enumerate() {
                let wb = results[ni * 3];
                let ci = results[ni * 3 + 1];
                let p = results[ni * 3 + 2];
                let closed = if p.ipc() > wb.ipc() {
                    (ci.ipc() - wb.ipc()) / (p.ipc() - wb.ipc())
                } else {
                    0.0
                };
                t.row(vec![
                    name.to_string(),
                    f3(wb.ipc()),
                    f3(ci.ipc()),
                    f3(p.ipc()),
                    format!("{:4.0}%", closed * 100.0),
                ]);
                wbs.push(wb.ipc());
                cis.push(ci.ipc());
                perf.push(p.ipc());
            }
            let (hw, hc, hp) = (
                harmonic_mean(&wbs),
                harmonic_mean(&cis),
                harmonic_mean(&perf),
            );
            t.row(vec![
                "HMEAN".into(),
                f3(hw),
                f3(hc),
                f3(hp),
                format!("{:4.0}%", (hc - hw) / (hp - hw) * 100.0),
            ]);
            let stdout = format!(
                "{}note: on store-heavy kernels (twolf, vortex) 'perfect' can trail the\n\
                 baselines — with no squashes the window fills with in-flight stores and\n\
                 the Table-1 conservative disambiguation (loads wait for all prior store\n\
                 addresses) throttles deep windows harder than shallow mispredicted ones.\n",
                t.render()
            );
            Ok(ExperimentOutput {
                stdout,
                artifacts: table_artifacts(ctx, "exp_limit", &t, results)?,
            })
        }),
    }
}

/// The validation tolerance for the perfect-BP what-if projection vs a
/// real oracle-BP simulation, mirrored from `crates/sim/tests/
/// bottleneck.rs` (see DESIGN.md, "Bottleneck analysis", for the
/// measured ratios behind the choice). The projection re-walks the
/// recorded DAG with squash windows zeroed; the oracle re-times the
/// whole run. The gate is asymmetric because the two failure modes are
/// not symmetric:
///
/// - `ratio > HIGH` would *falsify* the speed limit — the real
///   oracle-BP machine went faster than the projection claims is
///   possible — so the upper bound is tight (measured max across the
///   12 kernels at CFIR_INSTS=20000: gzip at 0.885).
/// - `ratio < LOW` only means the projection is optimistic, a known
///   model limitation: it keeps each instruction's *observed* latency
///   from the polluted run, and on branchy kernels the squashed wrong
///   path prefetches right-path cache lines, shrinking the observed
///   latencies the oracle machine actually pays (worst: vortex 0.159,
///   twolf 0.180). The lower bound is therefore a loose sanity floor.
const BOTTLENECK_ORACLE_RATIO_HIGH: f64 = 1.25;
const BOTTLENECK_ORACLE_RATIO_LOW: f64 = 0.125;

/// The instruction budget cap for bottleneck jobs: lifecycle recording
/// keeps one record per dynamic instruction (unbounded ring, so
/// `dropped` stays 0), so the budget is clamped to keep the 48-run
/// matrix inside a sane memory envelope.
const BOTTLENECK_MAX_INSTS: u64 = 30_000;

fn exp_bottleneck(p: &Params) -> Experiment {
    let p = &Params {
        spec: p.spec,
        max_insts: p.max_insts.min(BOTTLENECK_MAX_INSTS),
    };
    let modes = [Mode::Scalar, Mode::WideBus, Mode::Ci, Mode::Vect];
    let mut jobs = Vec::new();
    for mode in modes {
        let mut cfg = config(mode, 1, RegFileSize::Finite(512));
        cfg.record_lifecycle = true;
        jobs.extend(suite_jobs(p, &cfg));
    }
    // The oracle runs: the same wb machine with fetch-side perfect
    // branch prediction, no lifecycle — the measuring stick for the
    // perfect_bp projection.
    let mut oracle = config(Mode::WideBus, 1, RegFileSize::Finite(512));
    oracle.perfect_branch_prediction = true;
    jobs.extend(suite_jobs(p, &oracle));
    Experiment {
        name: "exp_bottleneck",
        title: "Bottleneck: CPI stacks, critical paths and what-if speed limits",
        jobs,
        aggregate: Box::new(move |ctx, results| {
            use cfir_obs::critpath::{CPI_GROUPS, SCENARIOS};
            let scen_keys: Vec<&str> = SCENARIOS.iter().map(|&(k, _)| k).collect();
            let mut header: Vec<&str> = vec!["bench", "mode", "cycles"];
            header.extend(CPI_GROUPS.iter().copied());
            header.extend(scen_keys.iter().copied());
            let mut t = Table::new("Bottleneck: CPI stacks and what-if speed limits", &header);
            // (bench -> perfect_bp projected cycles) from the wb rows.
            let mut projected_bp = vec![0u64; NAMES.len()];
            let mut measured_wb = vec![0u64; NAMES.len()];
            for (mi, mode) in modes.iter().enumerate() {
                for (bi, bench) in NAMES.iter().enumerate() {
                    let r = results[mi * NAMES.len() + bi];
                    let dropped = r.lifecycle_dropped;
                    if dropped > 0 {
                        return Err(format!(
                            "{bench}/{}: {dropped} lifecycle records dropped — \
                             the bottleneck DAG is incomplete",
                            mode.label()
                        ));
                    }
                    let v = cfir_obs::json::parse(&r.snapshot)?;
                    let b = v
                        .get("bottleneck")
                        .ok_or_else(|| format!("{bench}/{}: no bottleneck object", mode.label()))?;
                    let cycles = r.cycles;
                    let mut row = vec![bench.to_string(), mode.label().into(), cycles.to_string()];
                    for key in CPI_GROUPS {
                        let slots = b
                            .get("cpi_stack")
                            .and_then(|s| s.get(key))
                            .and_then(|x| x.as_u64())
                            .unwrap_or(0);
                        row.push(slots.to_string());
                    }
                    for &scen in &scen_keys {
                        let projected = b
                            .get("whatif")
                            .and_then(|w| w.as_arr())
                            .and_then(|rows| {
                                rows.iter().find(|x| {
                                    x.get("scenario").and_then(|s| s.as_str()) == Some(scen)
                                })
                            })
                            .and_then(|x| x.get("projected_cycles"))
                            .and_then(|x| x.as_u64())
                            .ok_or_else(|| {
                                format!("{bench}/{}: missing what-if {scen}", mode.label())
                            })?;
                        if projected > cycles {
                            return Err(format!(
                                "{bench}/{}: what-if {scen} projects {projected} cycles, \
                                 above the measured {cycles} — not a speed limit",
                                mode.label()
                            ));
                        }
                        if scen == "perfect_bp" && *mode == Mode::WideBus {
                            projected_bp[bi] = projected;
                            measured_wb[bi] = cycles;
                        }
                        row.push(projected.to_string());
                    }
                    t.row(row);
                }
            }
            // Validation: the perfect-BP projection against the oracle
            // machine, per kernel, gated by the documented tolerance.
            let mut vt = Table::new(
                "Validation: perfect-BP projection vs oracle-BP simulation (wb)",
                &["bench", "measured", "projected_bp", "oracle_bp", "ratio"],
            );
            for (bi, bench) in NAMES.iter().enumerate() {
                let oracle = results[modes.len() * NAMES.len() + bi].cycles;
                let ratio = projected_bp[bi] as f64 / oracle.max(1) as f64;
                vt.row(vec![
                    bench.to_string(),
                    measured_wb[bi].to_string(),
                    projected_bp[bi].to_string(),
                    oracle.to_string(),
                    format!("{ratio:.3}"),
                ]);
                let (lo, hi) = (BOTTLENECK_ORACLE_RATIO_LOW, BOTTLENECK_ORACLE_RATIO_HIGH);
                if !(lo..=hi).contains(&ratio) {
                    return Err(format!(
                        "{bench}: perfect-BP projection {} vs oracle {oracle} \
                         (ratio {ratio:.3}) outside documented tolerance [{lo}, {hi}]",
                        projected_bp[bi]
                    ));
                }
            }
            let mut artifacts = table_artifacts(ctx, "exp_bottleneck", &t, results)?;
            artifacts.extend(table_artifacts(ctx, "exp_bottleneck_validation", &vt, &[])?);
            Ok(ExperimentOutput {
                stdout: format!(
                    "{}{}every what-if bounds its measured run; perfect-BP projections \
                     validated against real oracle runs.\n",
                    t.render(),
                    vt.render()
                ),
                artifacts,
            })
        }),
    }
}

/// Minimum aggregate static/dynamic agreement the CIDI oracle matrix
/// must reach: across every (kernel, mode) run, at least this fraction
/// of scored reuse outcomes must match the static verdict.
const CIDI_MIN_AGREEMENT: f64 = 0.85;

fn exp_cidi(p: &Params) -> Experiment {
    let modes = [Mode::Scalar, Mode::WideBus, Mode::Ci, Mode::Vect];
    let mut jobs = Vec::new();
    for mode in modes {
        let cfg = config(mode, 1, RegFileSize::Finite(512));
        jobs.extend(suite_jobs(p, &cfg));
    }
    let spec = p.spec;
    Experiment {
        name: "exp_cidi",
        title: "CIDI oracle: static dataflow verdicts vs runtime reuse outcomes",
        jobs,
        aggregate: Box::new(move |ctx, results| {
            use cfir_analyze::LoadClass;
            // Static side, recomputed per kernel from the same programs
            // the jobs ran: the mean CIDI fraction of its hammocks, and
            // whether any load is pointer-chasing. Irregular kernels
            // are exempt from the zero-failure gate — the may-alias
            // channel deliberately clobbers load-derived addresses, so
            // their CI loads are never classified CIDI in the first
            // place, and stray attributions must not fail the suite.
            let mut static_frac = vec![0.0f64; NAMES.len()];
            let mut irregular = vec![false; NAMES.len()];
            for (bi, name) in NAMES.iter().enumerate() {
                let w = cfir_workloads::by_name(name, spec)
                    .ok_or_else(|| format!("unknown benchmark {name}"))?;
                let a = cfir_analyze::analyze(&w.prog);
                static_frac[bi] = a.cidi.mean_cidi_fraction();
                irregular[bi] = a
                    .strides
                    .loads
                    .iter()
                    .any(|&(_, c)| c == LoadClass::Irregular);
            }
            let mut t = Table::new(
                "CIDI oracle: static verdicts vs runtime reuse outcomes",
                &[
                    "bench",
                    "mode",
                    "cidi_checked",
                    "cidi_agreed",
                    "agreement",
                    "cidi_pred_failures",
                    "cidd_clean_reuses",
                    "mechanism_repairs",
                    "unclassified",
                ],
            );
            let mut total_checked = 0u64;
            let mut total_agreed = 0u64;
            let mut pred_failures = vec![0u64; NAMES.len()];
            for (mi, mode) in modes.iter().enumerate() {
                for (bi, bench) in NAMES.iter().enumerate() {
                    let r = results[mi * NAMES.len() + bi];
                    let v = cfir_obs::json::parse(&r.snapshot)?;
                    let d = v.get("dataflow_oracle").ok_or_else(|| {
                        format!("{bench}/{}: no dataflow_oracle object", mode.label())
                    })?;
                    let g = |k: &str| d.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
                    let (checked, agreed) = (g("cidi_checked"), g("cidi_agreed"));
                    total_checked += checked;
                    total_agreed += agreed;
                    pred_failures[bi] += g("cidi_predicted_failures");
                    t.row(vec![
                        bench.to_string(),
                        mode.label().into(),
                        checked.to_string(),
                        agreed.to_string(),
                        f3(agreed as f64 / checked.max(1) as f64),
                        g("cidi_predicted_failures").to_string(),
                        g("cidd_clean_reuses").to_string(),
                        g("mechanism_repairs").to_string(),
                        g("unclassified").to_string(),
                    ]);
                }
            }
            // Validation: per-kernel static fraction, the zero-failure
            // gate verdict, and the matrix-wide agreement gate.
            let mut vt = Table::new(
                "Validation: static CIDI fraction and the zero-failure gate",
                &[
                    "bench",
                    "loads",
                    "mean_cidi_fraction",
                    "pred_failures",
                    "gate",
                ],
            );
            for (bi, bench) in NAMES.iter().enumerate() {
                vt.row(vec![
                    bench.to_string(),
                    if irregular[bi] {
                        "irregular"
                    } else {
                        "regular"
                    }
                    .into(),
                    f3(static_frac[bi]),
                    pred_failures[bi].to_string(),
                    if irregular[bi] { "exempt" } else { "gated" }.into(),
                ]);
                if !irregular[bi] && pred_failures[bi] > 0 {
                    return Err(format!(
                        "{bench}: {} CIDI-predicted reuses failed validation on a kernel \
                         with no pointer-chasing loads — the static classification is wrong",
                        pred_failures[bi]
                    ));
                }
            }
            if total_checked == 0 {
                return Err("no reuse outcomes were scored anywhere in the matrix".into());
            }
            let agreement = total_agreed as f64 / total_checked as f64;
            if agreement < CIDI_MIN_AGREEMENT {
                return Err(format!(
                    "static/dynamic agreement {agreement:.3} ({total_agreed}/{total_checked}) \
                     below the {CIDI_MIN_AGREEMENT} gate"
                ));
            }
            let mut artifacts = table_artifacts(ctx, "exp_cidi", &t, results)?;
            artifacts.extend(table_artifacts(ctx, "exp_cidi_validation", &vt, &[])?);
            Ok(ExperimentOutput {
                stdout: format!(
                    "{}{}aggregate agreement {:.1}% ({total_agreed}/{total_checked} outcomes); \
                     zero CIDI-predicted failures on regular-access kernels.\n",
                    t.render(),
                    vt.render(),
                    agreement * 100.0
                ),
                artifacts,
            })
        }),
    }
}

/// Accuracy gate for the sampled estimator: per kernel, the sampled
/// mean must land within ±3% of the full detailed run, **or** the full
/// value must lie inside the sampled 95% confidence interval.
const SAMPLING_MAX_REL_ERROR: f64 = 0.03;

/// Fixed run size of the `exp_sampling` accuracy check — deliberately
/// independent of `CFIR_INSTS` so the baselined CSV and the job
/// fingerprints are stable across environments.
const SAMPLING_FULL_INSTS: u64 = 150_000;
/// Sampling parameters of the gate: 12 windows across the 150k budget.
/// The warmup is sized for the slowest-forming detailed state — the
/// SRSMT reuse table, which only fills from observed mispredictions —
/// not just for the ROB/LSQ; a short warmup underestimates reuse.
const SAMPLING_PERIOD: u64 = 12_500;
const SAMPLING_WARMUP: u64 = 3_500;
const SAMPLING_WINDOW: u64 = 4_000;

fn exp_sampling(p: &Params) -> Experiment {
    let cfg = config(Mode::Ci, 1, RegFileSize::Finite(512));
    let mut jobs = Vec::new();
    for n in NAMES {
        let mut full = named_job(p, n, cfg.clone());
        full.max_insts = SAMPLING_FULL_INSTS;
        let mut sampled = full.clone();
        sampled.sampling = Some(cfir_harness::SamplingParams {
            period: SAMPLING_PERIOD,
            warmup: SAMPLING_WARMUP,
            window: SAMPLING_WINDOW,
        });
        jobs.push(full);
        jobs.push(sampled);
    }
    Experiment {
        name: "exp_sampling",
        title: "Statistical sampling: sampled estimates vs full detailed runs",
        jobs,
        aggregate: Box::new(|ctx, results| {
            let mut t = Table::new(
                "Sampling accuracy: checkpointed windows vs full detailed (ci, 512 regs)",
                &[
                    "bench",
                    "windows",
                    "detail%",
                    "full_IPC",
                    "samp_IPC",
                    "ipc_hw95",
                    "ipc_err%",
                    "full_reuse",
                    "samp_reuse",
                    "reuse_hw95",
                    "samp_ci_expl",
                    "gate",
                ],
            );
            // `mean ± hw` vs the full-run reference: pass on relative
            // error or on CI coverage; anything else fails the suite.
            let check = |bench: &str, metric: &str, full: f64, e: &Estimate| {
                let err = e.rel_error(full);
                if err <= SAMPLING_MAX_REL_ERROR || e.contains(full) {
                    Ok(err)
                } else {
                    Err(format!(
                        "{bench}: sampled {metric} {:.4} vs full {full:.4} — error \
                         {:.1}% exceeds ±{:.0}% and the 95% CI (±{:.4}, n={}) \
                         does not cover the full value",
                        e.mean,
                        err * 100.0,
                        SAMPLING_MAX_REL_ERROR * 100.0,
                        e.half_width,
                        e.n
                    ))
                }
            };
            for (bi, bench) in NAMES.iter().enumerate() {
                let full = results[2 * bi];
                let samp = results[2 * bi + 1];
                let v = cfir_obs::json::parse(&samp.snapshot)?;
                let s = v
                    .get("sampling")
                    .ok_or_else(|| format!("{bench}: sampled snapshot has no sampling object"))?;
                let est = |k: &str| {
                    s.get(k)
                        .map(Estimate::from_json)
                        .ok_or_else(|| format!("{bench}: sampling object missing `{k}`"))
                };
                let ipc = est("ipc")?;
                let reuse = est("reuse_rate")?;
                let ci_expl = est("ci_exploited")?;
                let detailed = s
                    .get("detailed_insts")
                    .and_then(|x| x.as_u64())
                    .unwrap_or(0);
                let ipc_err = check(bench, "IPC", full.ipc(), &ipc)?;
                check(bench, "reuse rate", full.reuse_fraction(), &reuse)?;
                t.row(vec![
                    bench.to_string(),
                    ipc.n.to_string(),
                    format!(
                        "{:.1}",
                        100.0 * detailed as f64 / SAMPLING_FULL_INSTS as f64
                    ),
                    f3(full.ipc()),
                    f3(ipc.mean),
                    f3(ipc.half_width),
                    format!("{:.2}", ipc_err * 100.0),
                    f3(full.reuse_fraction()),
                    f3(reuse.mean),
                    f3(reuse.half_width),
                    f3(ci_expl.mean),
                    "ok".into(),
                ]);
            }
            let stdout = format!(
                "{}gate: sampled IPC and reuse rate within ±{:.0}% of the full run \
                 (or full value inside the 95% CI) on all {} kernels.\n",
                t.render(),
                SAMPLING_MAX_REL_ERROR * 100.0,
                NAMES.len()
            );
            Ok(ExperimentOutput {
                stdout,
                artifacts: table_artifacts(ctx, "exp_sampling", &t, results)?,
            })
        }),
    }
}

fn exp_warmup(p: &Params) -> Experiment {
    let mut cfg = config(Mode::Ci, 1, RegFileSize::Finite(512));
    cfg.interval_cycles = 10_000;
    Experiment {
        name: "exp_warmup",
        title: "Warm-up/stationarity: interval time series (bzip2, gzip)",
        jobs: ["bzip2", "gzip"]
            .iter()
            .map(|n| named_job(p, n, cfg.clone()))
            .collect(),
        aggregate: Box::new(|ctx, results| {
            let mut stdout = String::new();
            let mut artifacts = Vec::new();
            for r in results {
                let mut t = Table::new(
                    format!("warm-up: {} (ci, 512 regs)", r.name),
                    &["cycle", "committed", "interval IPC", "cum. reuse%"],
                );
                for s in &r.intervals {
                    t.row(vec![
                        s.cycle.to_string(),
                        s.committed.to_string(),
                        format!("{:.3}", s.interval_ipc),
                        format!(
                            "{:.1}%",
                            100.0 * s.committed_reuse as f64 / s.committed.max(1) as f64
                        ),
                    ]);
                }
                stdout.push_str(&t.render());
                artifacts.extend(table_artifacts(
                    ctx,
                    &format!("exp_warmup_{}", r.name),
                    &t,
                    &[r],
                )?);
            }
            stdout
                .push_str("interval IPC should be flat after the first interval (cold caches).\n");
            Ok(ExperimentOutput { stdout, artifacts })
        }),
    }
}

/// The axes of the design-space sweep. The default is the point whose
/// artifact `results/sweep.csv` is committed.
#[derive(Debug, Clone)]
pub struct SweepAxes {
    /// Machine modes.
    pub modes: Vec<Mode>,
    /// Physical register file sizes.
    pub regs: Vec<RegFileSize>,
    /// L1D port counts.
    pub ports: Vec<u32>,
    /// Replicas per vectorized instruction.
    pub replicas: Vec<u8>,
    /// One benchmark instead of the whole suite.
    pub bench: Option<String>,
}

impl Default for SweepAxes {
    fn default() -> Self {
        SweepAxes {
            modes: vec![Mode::WideBus, Mode::Ci],
            regs: vec![RegFileSize::Finite(512)],
            ports: vec![1],
            replicas: vec![4],
            bench: None,
        }
    }
}

/// The generic design-space sweeper as an experiment: cartesian
/// product of modes × register sizes × ports × replica counts over the
/// suite (or one benchmark).
pub fn sweep_experiment(p: &Params, axes: &SweepAxes) -> Experiment {
    let mut jobs = Vec::new();
    let mut points = Vec::new();
    for &mode in &axes.modes {
        for &r in &axes.regs {
            for &po in &axes.ports {
                for &reps in &axes.replicas {
                    let cfg = config(mode, po, r).with_replicas(reps);
                    match &axes.bench {
                        Some(name) => jobs.push(named_job(p, name, cfg)),
                        None => jobs.extend(suite_jobs(p, &cfg)),
                    }
                    points.push((mode, r, po, reps));
                }
            }
        }
    }
    let group = if axes.bench.is_some() { 1 } else { NAMES.len() };
    Experiment {
        name: "sweep",
        title: "Design-space sweep (modes x regs x ports x replicas)",
        jobs,
        aggregate: Box::new(move |ctx, results| {
            let mut t = Table::new(
                "sweep",
                &[
                    "mode", "regs", "ports", "replicas", "IPC", "reuse%", "mispred%",
                ],
            );
            for (i, (mode, r, po, reps)) in points.iter().enumerate() {
                let runs = &results[i * group..(i + 1) * group];
                let (ipc, reuse, mr) = if group == 1 {
                    let s = runs[0];
                    (s.ipc(), s.reuse_fraction(), s.mispredict_rate())
                } else {
                    let reuse =
                        runs.iter().map(|x| x.reuse_fraction()).sum::<f64>() / runs.len() as f64;
                    let mr =
                        runs.iter().map(|x| x.mispredict_rate()).sum::<f64>() / runs.len() as f64;
                    (hmean_of(runs), reuse, mr)
                };
                t.row(vec![
                    mode.label().into(),
                    r.label(),
                    po.to_string(),
                    reps.to_string(),
                    f3(ipc),
                    format!("{:.1}", reuse * 100.0),
                    format!("{:.1}", mr * 100.0),
                ]);
            }
            Ok(ExperimentOutput {
                stdout: t.render(),
                artifacts: table_artifacts(ctx, "sweep", &t, results)?,
            })
        }),
    }
}

/// The five-mode smoke check on bzip2, with the interval time series
/// sampled (the snapshot bundle is the perf-gate baseline).
fn smoke(p: &Params) -> Experiment {
    let mut jobs = Vec::new();
    for mode in [
        Mode::Scalar,
        Mode::WideBus,
        Mode::CiIw,
        Mode::Ci,
        Mode::Vect,
    ] {
        let mut cfg = config(mode, 1, RegFileSize::Finite(512));
        cfg.interval_cycles = 10_000;
        // Whole-run lifecycle recording: the smoke snapshots carry the
        // full bottleneck object (critical path, what-if projections)
        // so CI can sanity-check it without extra jobs.
        cfg.record_lifecycle = true;
        jobs.push(named_job(p, "bzip2", cfg));
    }
    Experiment {
        name: "smoke",
        title: "Smoke: one benchmark, all five machine modes",
        jobs,
        aggregate: Box::new(move |ctx, results| {
            let mut t = Table::new(
                "smoke: bzip2",
                &[
                    "mode",
                    "IPC",
                    "mispred%",
                    "reuse%",
                    "valfail",
                    "commitfail",
                    "replicas",
                    "squashed",
                    "l1dacc",
                    "l1dmiss",
                    "ev(nf/sel/reuse)",
                ],
            );
            for s in results {
                t.row(vec![
                    s.mode_label.clone(),
                    f3(s.ipc()),
                    pct(s.mispredict_rate()),
                    pct(s.reuse_fraction()),
                    s.validation_failures.to_string(),
                    s.commit_check_failures.to_string(),
                    s.replicas_executed.to_string(),
                    s.squashed.to_string(),
                    s.l1d_accesses.to_string(),
                    s.l1d_misses.to_string(),
                    format!("{}/{}/{}", s.ev_not_found, s.ev_selected, s.ev_reuse),
                ]);
            }
            let artifacts = if ctx.emit_json {
                let labeled: Vec<(String, String)> = results
                    .iter()
                    .map(|r| (format!("{}/{}", r.name, r.mode_label), r.snapshot.clone()))
                    .collect();
                vec![Artifact {
                    rel_path: "smoke.json".into(),
                    contents: report_json_checked(&t, &labeled)?,
                }]
            } else {
                Vec::new()
            };
            Ok(ExperimentOutput {
                stdout: t.render(),
                artifacts,
            })
        }),
    }
}

// ---------------------------------------------------------------------------
// Registry and profiles
// ---------------------------------------------------------------------------

/// The `sweep` experiment over its default axes.
fn sweep_default(p: &Params) -> Experiment {
    sweep_experiment(p, &SweepAxes::default())
}

/// An experiment's constructor.
type Build = fn(&Params) -> Experiment;

/// Every registered experiment in canonical (suite) order: its name,
/// its constructor and the profiles besides `all` that run it.
const REGISTRY: [(&str, Build, &[&str]); 20] = [
    ("table1", table1, &["smoke", "figures"]),
    ("fig04", fig04, &["figures"]),
    ("fig05", fig05, &["figures"]),
    ("fig08", fig08, &["figures"]),
    ("fig09", fig09, &["figures"]),
    ("fig10", fig10, &["figures"]),
    ("fig11", fig11, &["figures"]),
    ("fig12", fig12, &["figures"]),
    ("fig13", fig13, &["figures"]),
    ("fig14", fig14, &["figures"]),
    ("exp_regs", exp_regs, &["extras"]),
    ("exp_coherence", exp_coherence, &["extras"]),
    ("ablations", ablations, &["ablations"]),
    ("exp_limit", exp_limit, &["extras"]),
    ("exp_warmup", exp_warmup, &["extras"]),
    ("exp_bottleneck", exp_bottleneck, &["extras"]),
    ("exp_cidi", exp_cidi, &["extras"]),
    ("exp_sampling", exp_sampling, &["extras"]),
    ("sweep", sweep_default, &["extras"]),
    ("smoke", smoke, &["smoke"]),
];

/// Profile names, in `--list` order.
///
/// * `smoke` — the CI fast path: `table1` (config drift gate) plus the
///   five-mode smoke matrix (perf gate baseline).
/// * `figures` — Table 1 and Figures 4–14.
/// * `ablations` — the seven design-choice ablations.
/// * `extras` — the beyond-the-paper experiments.
/// * `all` — everything, in canonical order.
pub const PROFILES: [&str; 5] = ["smoke", "figures", "ablations", "extras", "all"];

/// Names of every registered experiment, in canonical (suite) order.
pub fn experiment_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|&(name, ..)| name)
}

/// Build one experiment by name.
pub fn by_name(p: &Params, name: &str) -> Option<Experiment> {
    REGISTRY
        .iter()
        .find(|&&(n, ..)| n == name)
        .map(|&(_, build, _)| build(p))
}

/// Resolve a profile name (one of [`PROFILES`]) to its experiment
/// list, in canonical order.
pub fn profile(name: &str) -> Option<Vec<&'static str>> {
    PROFILES.contains(&name).then(|| {
        REGISTRY
            .iter()
            .filter(|&&(_, _, profiles)| name == "all" || profiles.contains(&name))
            .map(|&(n, ..)| n)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds() {
        let p = Params {
            spec: WorkloadSpec::default(),
            max_insts: 1000,
        };
        for name in experiment_names() {
            let e = by_name(&p, name).expect(name);
            assert_eq!(e.name, name);
        }
        assert!(by_name(&p, "nonsense").is_none());
    }

    #[test]
    fn profiles_resolve_to_registered_names() {
        for prof in PROFILES {
            let names = profile(prof).expect(prof);
            assert!(!names.is_empty());
            let p = Params {
                spec: WorkloadSpec::default(),
                max_insts: 1000,
            };
            for n in names {
                assert!(by_name(&p, n).is_some(), "{prof} references {n}");
            }
        }
        assert!(profile("bogus").is_none());
        assert_eq!(profile("all").unwrap().len(), REGISTRY.len());
    }

    #[test]
    fn job_counts_match_the_serial_binaries() {
        let p = Params {
            spec: WorkloadSpec::default(),
            max_insts: 1000,
        };
        let count = |n: &str| by_name(&p, n).unwrap().jobs.len();
        assert_eq!(count("table1"), 0);
        assert_eq!(count("fig04"), 3 * 12);
        assert_eq!(count("fig05"), 12);
        assert_eq!(count("fig08"), 2 * 3 * 12);
        assert_eq!(count("fig09"), 5 * 2 * 3 * 12);
        assert_eq!(count("fig10"), 4 * 12);
        assert_eq!(count("fig11"), 5 * 6 * 12);
        assert_eq!(count("fig12"), 2 * 12);
        assert_eq!(count("fig13"), 5 * 7 * 12);
        assert_eq!(count("fig14"), 5 * 2 * 12);
        assert_eq!(count("exp_regs"), 4 + 2 * 12);
        assert_eq!(count("exp_coherence"), 12);
        assert_eq!(count("ablations"), 17 * 12);
        assert_eq!(count("exp_limit"), 3 * 12);
        assert_eq!(count("exp_warmup"), 2);
        assert_eq!(count("exp_bottleneck"), 4 * 12 + 12);
        assert_eq!(count("exp_cidi"), 4 * 12);
        assert_eq!(count("exp_sampling"), 2 * 12);
        assert_eq!(count("sweep"), 2 * 12);
        assert_eq!(count("smoke"), 5);
    }

    #[test]
    fn fingerprints_are_env_independent_after_build() {
        // Two matrices built with the same Params must produce the same
        // job keys even if the environment changes in between — the
        // env is read once, in Params::from_env.
        let p = Params {
            spec: WorkloadSpec::default(),
            max_insts: 5000,
        };
        let a = by_name(&p, "fig05").unwrap();
        let b = by_name(&p, "fig05").unwrap();
        let ka: Vec<u64> = a.jobs.iter().map(|j| j.key()).collect();
        let kb: Vec<u64> = b.jobs.iter().map(|j| j.key()).collect();
        assert_eq!(ka, kb);
    }
}
