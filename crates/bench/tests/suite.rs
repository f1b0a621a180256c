//! Integration tests for the experiment matrix running through the
//! `cfir-harness` pool: parallel determinism, cache resume, and
//! failure isolation — the properties `cfir suite` is built on.

use cfir_bench::experiments::{by_name, config, Params};
use cfir_harness::{
    run_suite, Artifact, Experiment, ExperimentOutput, JobSpec, SuiteOptions, WorkloadRef,
};
use cfir_sim::Mode;
use cfir_sim::RegFileSize;
use cfir_workloads::WorkloadSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A fresh scratch directory per call (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cfir-suite-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(name: &str, mode: Mode) -> JobSpec {
    JobSpec {
        workload: WorkloadRef::Named {
            name: name.into(),
            spec: WorkloadSpec {
                iters: 1 << 30,
                elems: 256,
                seed: 7,
            },
        },
        cfg: config(mode, 1, RegFileSize::Finite(512)),
        max_insts: 3_000,
        sampling: None,
    }
}

/// A sampled job over the same kernel set (period sized so several
/// windows fit in the small test budget).
fn sampled_spec(name: &str, mode: Mode) -> JobSpec {
    JobSpec {
        max_insts: 40_000,
        sampling: Some(cfir_harness::SamplingParams {
            period: 10_000,
            warmup: 1_000,
            window: 1_000,
        }),
        ..spec(name, mode)
    }
}

/// 2 kernels × 2 modes, reduced to a CSV of raw counters and rates —
/// enough surface to catch any ordering or float drift.
fn small_experiment() -> Experiment {
    Experiment {
        name: "mini",
        title: "2 kernels x 2 modes",
        jobs: vec![
            spec("bzip2", Mode::Scalar),
            spec("bzip2", Mode::Ci),
            spec("gzip", Mode::Scalar),
            spec("gzip", Mode::Ci),
        ],
        aggregate: Box::new(|_ctx, results| {
            let mut csv = String::from("name,mode,cycles,committed,ipc,reuse\n");
            for r in results {
                csv.push_str(&format!(
                    "{},{},{},{},{:.6},{:.6}\n",
                    r.name,
                    r.mode_label,
                    r.cycles,
                    r.committed,
                    r.ipc(),
                    r.reuse_fraction()
                ));
            }
            Ok(ExperimentOutput {
                artifacts: vec![Artifact {
                    rel_path: "mini.csv".into(),
                    contents: csv,
                }],
                stdout: String::new(),
            })
        }),
    }
}

fn opts(out: &std::path::Path, cache: &std::path::Path, jobs: usize) -> SuiteOptions {
    SuiteOptions {
        jobs,
        out_dir: out.to_path_buf(),
        cache_dir: Some(cache.to_path_buf()),
        quiet: true,
        ..SuiteOptions::default()
    }
}

/// `table1` renders every row of Table 1 and of the §3.1 storage
/// table from the definitions the simulator runs with, so a machine
/// parameter that moves changes these bytes.
#[test]
fn table1_artifacts_match_the_committed_baselines() {
    let (out, cache) = (scratch("t1-out"), scratch("t1-cache"));
    let mut o = opts(&out, &cache, 1);
    o.emit_json = true;
    let p = Params {
        spec: WorkloadSpec::default(),
        max_insts: 1000,
    };
    let r = run_suite(vec![by_name(&p, "table1").unwrap()], &o);
    assert!(r.all_ok(), "{}", r.summary_line());
    let baselines = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/baselines");
    let drifted: Vec<&str> = ["table1.json", "table1_storage.json"]
        .into_iter()
        .filter(|name| {
            std::fs::read(out.join(name)).unwrap() != std::fs::read(baselines.join(name)).unwrap()
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{drifted:?} differ from results/baselines/ (`cfir report check` shows the rows)"
    );
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let (out1, cache1) = (scratch("ser-out"), scratch("ser-cache"));
    let (out4, cache4) = (scratch("par-out"), scratch("par-cache"));

    let r1 = run_suite(vec![small_experiment()], &opts(&out1, &cache1, 1));
    let r4 = run_suite(vec![small_experiment()], &opts(&out4, &cache4, 4));
    assert!(r1.all_ok() && r4.all_ok());
    assert_eq!(r1.executed, 4);
    assert_eq!(r4.executed, 4);

    let a = std::fs::read(out1.join("mini.csv")).unwrap();
    let b = std::fs::read(out4.join("mini.csv")).unwrap();
    assert_eq!(
        a, b,
        "jobs=1 and jobs=4 must produce byte-identical artifacts"
    );
    assert!(String::from_utf8(a).unwrap().contains("bzip2,scal"));
}

/// Sampled points reduced to an artifact that exposes *all* window
/// detail (the full schema-v7 snapshots, checkpoint ids included), so
/// any scheduling-order dependence in the sampling driver would show
/// up as byte drift.
fn sampled_experiment() -> Experiment {
    Experiment {
        name: "mini-sampled",
        title: "2 kernels x 2 modes, sampled",
        jobs: vec![
            sampled_spec("bzip2", Mode::Scalar),
            sampled_spec("bzip2", Mode::Ci),
            sampled_spec("gzip", Mode::Scalar),
            sampled_spec("gzip", Mode::Ci),
        ],
        aggregate: Box::new(|_ctx, results| {
            let mut bundle = String::new();
            for r in results {
                bundle.push_str(&format!("## {}/{}\n{}\n", r.name, r.mode_label, r.snapshot));
            }
            Ok(ExperimentOutput {
                artifacts: vec![Artifact {
                    rel_path: "mini-sampled.txt".into(),
                    contents: bundle,
                }],
                stdout: String::new(),
            })
        }),
    }
}

#[test]
fn sampled_runs_are_byte_identical_across_pool_sizes() {
    let (out1, cache1) = (scratch("sam-ser-out"), scratch("sam-ser-cache"));
    let (out4, cache4) = (scratch("sam-par-out"), scratch("sam-par-cache"));

    let r1 = run_suite(vec![sampled_experiment()], &opts(&out1, &cache1, 1));
    let r4 = run_suite(vec![sampled_experiment()], &opts(&out4, &cache4, 4));
    assert!(r1.all_ok() && r4.all_ok());

    let a = std::fs::read(out1.join("mini-sampled.txt")).unwrap();
    let b = std::fs::read(out4.join("mini-sampled.txt")).unwrap();
    assert_eq!(
        a, b,
        "sampled runs must be byte-identical regardless of pool size"
    );
    let text = String::from_utf8(a).unwrap();
    assert!(
        text.contains("\"sampling\":"),
        "sampled snapshots carry the schema-v7 sampling object"
    );
    assert!(text.contains("\"checkpoint\":"));
}

#[test]
fn resume_serves_everything_from_cache() {
    let (out, cache) = (scratch("res-out"), scratch("res-cache"));
    let mut o = opts(&out, &cache, 2);
    o.resume = true;

    let first = run_suite(vec![small_experiment()], &o);
    assert!(first.all_ok());
    assert_eq!((first.executed, first.cached), (4, 0));
    let bytes = std::fs::read(out.join("mini.csv")).unwrap();

    // Second run: everything is a cache hit, zero jobs execute, and
    // the artifact is rewritten identically from cached results.
    std::fs::remove_file(out.join("mini.csv")).unwrap();
    let second = run_suite(vec![small_experiment()], &o);
    assert!(second.all_ok());
    assert_eq!(
        (second.executed, second.cached),
        (0, 4),
        "resume must execute nothing: {}",
        second.summary_line()
    );
    assert_eq!(std::fs::read(out.join("mini.csv")).unwrap(), bytes);

    // Without --resume the cache is ignored (but still written).
    let mut fresh = o.clone();
    fresh.resume = false;
    let third = run_suite(vec![small_experiment()], &fresh);
    assert_eq!((third.executed, third.cached), (4, 0));
}

#[test]
fn a_panicking_job_fails_its_experiment_only() {
    let (out, cache) = (scratch("iso-out"), scratch("iso-cache"));
    let bad = Experiment {
        name: "bad",
        title: "panics",
        jobs: vec![JobSpec {
            workload: WorkloadRef::SelfTest {
                panic: true,
                sleep_ms: 0,
            },
            cfg: config(Mode::Scalar, 1, RegFileSize::Finite(512)),
            max_insts: 0,
            sampling: None,
        }],
        aggregate: Box::new(|_, _| Ok(ExperimentOutput::default())),
    };
    let report = run_suite(vec![bad, small_experiment()], &opts(&out, &cache, 2));

    assert!(!report.all_ok(), "suite must report the failure");
    assert_eq!(report.failed, 1);
    let bad_status = &report.experiments[0];
    assert!(bad_status.error.as_deref().unwrap().contains("panick"));
    // The healthy experiment still completed and wrote its artifact.
    let good = &report.experiments[1];
    assert!(good.ok(), "unrelated experiment must not be poisoned");
    assert!(out.join("mini.csv").exists());
}

#[test]
fn dedup_across_experiments_simulates_each_point_once() {
    let (out, cache) = (scratch("dedup-out"), scratch("dedup-cache"));
    // Two experiments over the same four points.
    let report = run_suite(
        vec![small_experiment(), small_experiment()],
        &opts(&out, &cache, 2),
    );
    assert!(report.all_ok());
    assert_eq!(report.total_jobs, 8);
    assert_eq!(report.unique_jobs, 4);
    assert_eq!(report.executed, 4);
}
