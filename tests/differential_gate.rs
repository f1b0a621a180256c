//! Byte-exact differential gate over the full kernel × mode matrix.
//!
//! The hot-path data structures (flat arrays, rings, arenas — see
//! DESIGN.md "Hot-path data structures") are pure mechanical speedups:
//! they must not move a single counter. This test pins that property
//! by running all 12 kernels in the 4 paper modes and comparing the
//! complete schema-v7 snapshot (stats, stall breakdown, histograms,
//! lifecycle, bottleneck, oracle and dataflow-oracle objects) byte for
//! byte against `results/baselines/differential.jsonl`.
//!
//! Each cell runs a second time with every observer off (no lifecycle
//! recording, no commit log), and that snapshot must equal the
//! recorded one once the recorder's own fields are zeroed: observing a
//! run must not change it.
//!
//! A second matrix pins the sampled path (`cfir_sample::run_sampled`):
//! the 12 kernels in `ci` through short checkpointed windows, plus one
//! kernel whose window placement is jittered from checkpoint content
//! ids, against `results/baselines/differential_sampled.jsonl`. Each
//! snapshot carries every window's checkpoint content id, so it pins
//! the checkpoint encoding and its hash as well as the warm-state
//! hand-off into each window's pipeline.
//!
//! When a change *intentionally* moves the numbers, regenerate the
//! baselines (and review the diff) with:
//!
//! ```sh
//! CFIR_UPDATE_BASELINES=1 cargo test --test differential_gate
//! ```
//!
//! `scripts/refresh-baselines.sh` runs the same command.

use cfir::prelude::*;
use cfir::sample::{run_sampled, SamplingConfig};
use cfir::sim::run_json;
use cfir_workloads::NAMES;
use std::path::PathBuf;

/// The paper's four machine variants (same set as `exp_bottleneck`).
const MODES: [Mode; 4] = [Mode::Scalar, Mode::WideBus, Mode::Ci, Mode::Vect];

/// Committed-instruction budget per run: big enough that every
/// mechanism path (selection, replicas, squash reuse, misspec
/// blacklisting, DAEC) fires on at least some kernels, small enough
/// that the full 48-cell matrix stays cheap in debug builds.
const INSTS: u64 = 10_000;

/// Instruction budget of each sampled run: six windows of period
/// 10k, each a 1k detailed warmup and a 1k measured window.
const SAMPLED_INSTS: u64 = 60_000;

/// The kernel of the sampled matrix's jittered row, and its jitter.
const JITTERED: &str = "bzip2";
const JITTER: u64 = 500;

fn baseline_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/baselines")
        .join(file)
}

fn gate_config(mode: Mode) -> SimConfig {
    // Lifecycle recording on, so the gate also pins the per-instruction
    // recorder and the bottleneck DAG (critical path, what-ifs) that
    // are derived from it. Intervals on, so the time series is pinned.
    let mut cfg = SimConfig::paper_baseline()
        .with_mode(mode)
        .with_regs(RegFileSize::Finite(512))
        .with_max_insts(INSTS)
        .with_lifecycle();
    cfg.cosim_check = false;
    cfg.interval_cycles = 10_000;
    cfg
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        iters: 1 << 30,
        elems: 1 << 12,
        seed: 0xC0FFEE,
    }
}

/// The snapshot of one recorded (kernel, mode) cell, after checking
/// that the same cell with every observer off differs only in the
/// recorder's fields.
fn snapshot(w: &Workload, mode: Mode) -> String {
    let mut p = Pipeline::new(&w.prog, w.mem.clone(), gate_config(mode));
    p.enable_commit_log(16);
    p.run();
    let recorded = run_json(w.name, mode.label(), &p.stats);

    let mut cfg = gate_config(mode);
    cfg.record_lifecycle = false;
    let mut bare = Pipeline::new(&w.prog, w.mem.clone(), cfg);
    bare.run();
    let mut unobserved = p.stats.clone();
    unobserved.lifecycle_records = 0;
    unobserved.lifecycle_dropped = 0;
    unobserved.bottleneck = None;
    assert_eq!(
        run_json(w.name, mode.label(), &bare.stats),
        run_json(w.name, mode.label(), &unobserved),
        "{}/{}: observers changed the run",
        w.name,
        mode.label()
    );
    recorded
}

/// `cell(kernel)` for every kernel, run on one thread per kernel (each
/// kernel is independent), concatenated in kernel order.
fn per_kernel(cell: impl Fn(&Workload) -> Vec<String> + Sync) -> Vec<String> {
    let mut out: Vec<Vec<String>> = vec![Vec::new(); NAMES.len()];
    std::thread::scope(|s| {
        for (slot, name) in out.iter_mut().zip(NAMES) {
            let cell = &cell;
            s.spawn(move || {
                let w = by_name(name, spec()).expect("known kernel");
                *slot = cell(&w);
            });
        }
    });
    out.concat()
}

/// One snapshot per (kernel, mode), in fixed matrix order.
fn generate_all() -> Vec<String> {
    per_kernel(|w| MODES.iter().map(|&mode| snapshot(w, mode)).collect())
}

fn sampling_config(jitter: u64) -> SamplingConfig {
    SamplingConfig {
        period: 10_000,
        warmup: 1_000,
        window: 1_000,
        jitter,
        ..Default::default()
    }
}

/// One sampled snapshot per kernel in `ci`, then the jittered row.
fn generate_sampled() -> Vec<String> {
    let cfg = SimConfig::paper_baseline()
        .with_mode(Mode::Ci)
        .with_regs(RegFileSize::Finite(512))
        .with_max_insts(SAMPLED_INSTS);
    per_kernel(|w| {
        let mut rows = vec![sampling_config(0)];
        if w.name == JITTERED {
            rows.push(sampling_config(JITTER));
        }
        rows.into_iter()
            .map(|scfg| {
                run_sampled(&w.prog, &w.mem, w.name, cfg.clone(), scfg)
                    .snapshot_json(Mode::Ci.label())
            })
            .collect()
    })
}

/// Compare `fresh` line by line with the committed baseline `file`
/// (`labels[i]` names line `i` in failure messages), or rewrite the
/// baseline when `CFIR_UPDATE_BASELINES` is set.
fn check_against_baseline(file: &str, fresh: &[String], labels: &[String]) {
    assert_eq!(fresh.len(), labels.len());
    let path = baseline_path(file);
    if std::env::var_os("CFIR_UPDATE_BASELINES").is_some() {
        let mut doc = String::new();
        for line in fresh {
            doc.push_str(line);
            doc.push('\n');
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, doc).unwrap();
        eprintln!(
            "differential gate: baseline rewritten at {}",
            path.display()
        );
        return;
    }

    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(regenerate with CFIR_UPDATE_BASELINES=1 \
             cargo test --test differential_gate)",
            path.display()
        )
    });
    let committed: Vec<&str> = committed.lines().collect();
    assert_eq!(
        committed.len(),
        fresh.len(),
        "{file}: baseline row count mismatch — regenerate with CFIR_UPDATE_BASELINES=1"
    );
    let mut drifted = Vec::new();
    for ((want, got), label) in committed.iter().zip(fresh).zip(labels) {
        if want != got {
            // Locate the first differing byte for the failure message.
            let at = want
                .bytes()
                .zip(got.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| want.len().min(got.len()));
            let lo = at.saturating_sub(40);
            drifted.push(format!(
                "{label}: first divergence at byte {at}:\n  baseline: …{}…\n  fresh:    …{}…",
                &want[lo..(at + 40).min(want.len())],
                &got[lo..(at + 40).min(got.len())],
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} of {} snapshots drifted from {file}:\n{}\n\
         If this change is intentional, regenerate with \
         CFIR_UPDATE_BASELINES=1 cargo test --test differential_gate",
        drifted.len(),
        fresh.len(),
        drifted.join("\n")
    );
}

#[test]
fn snapshots_are_byte_identical_to_committed_baselines() {
    let labels: Vec<String> = NAMES
        .iter()
        .flat_map(|k| MODES.iter().map(move |m| format!("{k}/{}", m.label())))
        .collect();
    check_against_baseline("differential.jsonl", &generate_all(), &labels);
}

#[test]
fn sampled_snapshots_are_byte_identical_to_committed_baselines() {
    let mut labels = Vec::new();
    for k in NAMES {
        labels.push(format!("{k}/ci sampled"));
        if k == JITTERED {
            labels.push(format!("{k}/ci sampled, jitter {JITTER}"));
        }
    }
    check_against_baseline("differential_sampled.jsonl", &generate_sampled(), &labels);
}

/// A run depends on its configuration alone. Off the default 64×4
/// SRSMT, several vectorized PCs share a set, so the order in which a
/// recovery touches their entries (each touch stamps LRU) decides later
/// evictions. That order must not come from a hash seed, which differs
/// from map to map: identical runs in one process must agree.
#[test]
fn small_srsmt_runs_are_deterministic() {
    let w = by_name("perlbmk", spec()).expect("known kernel");
    let snapshot = || {
        let mut cfg = gate_config(Mode::Ci).with_max_insts(5_000);
        cfg.record_lifecycle = false;
        cfg.mech.srsmt_sets = 1;
        cfg.mech.srsmt_ways = 4;
        let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg);
        p.run();
        run_json(w.name, Mode::Ci.label(), &p.stats)
    };
    let first = snapshot();
    for run in 2..=4 {
        assert!(
            snapshot() == first,
            "perlbmk/ci with a 1x4 SRSMT: run {run} differs from run 1"
        );
    }
}
