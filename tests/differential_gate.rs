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
//! When a change *intentionally* moves the numbers, regenerate the
//! baseline (and review the diff) with:
//!
//! ```sh
//! CFIR_UPDATE_BASELINES=1 cargo test --test differential_gate
//! ```
//!
//! `scripts/refresh-baselines.sh` runs the same command.

use cfir::prelude::*;
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

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/baselines/differential.jsonl")
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

/// One snapshot per (kernel, mode), in fixed matrix order.
fn generate_all() -> Vec<String> {
    let mut out: Vec<Option<String>> = vec![None; NAMES.len()];
    // Each kernel is independent; fan the 12 kernels out across
    // threads (each runs its 4 modes serially) to keep the gate quick.
    std::thread::scope(|s| {
        for (slot, name) in out.iter_mut().zip(NAMES) {
            s.spawn(move || {
                let w = by_name(name, spec()).expect("known kernel");
                let mut lines = String::new();
                for mode in MODES {
                    lines.push_str(&snapshot(&w, mode));
                    lines.push('\n');
                }
                *slot = Some(lines);
            });
        }
    });
    out.into_iter()
        .flat_map(|s| {
            s.expect("kernel thread finished")
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn snapshots_are_byte_identical_to_committed_baselines() {
    let path = baseline_path();
    let fresh = generate_all();
    assert_eq!(fresh.len(), NAMES.len() * MODES.len());

    if std::env::var_os("CFIR_UPDATE_BASELINES").is_some() {
        let mut doc = String::new();
        for line in &fresh {
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
        "baseline row count mismatch — regenerate with CFIR_UPDATE_BASELINES=1"
    );
    let mut drifted = Vec::new();
    for (i, (want, got)) in committed.iter().zip(&fresh).enumerate() {
        if want != got {
            let kernel = NAMES[i / MODES.len()];
            let mode = MODES[i % MODES.len()].label();
            // Locate the first differing byte for the failure message.
            let at = want
                .bytes()
                .zip(got.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| want.len().min(got.len()));
            let lo = at.saturating_sub(40);
            drifted.push(format!(
                "{kernel}/{mode}: first divergence at byte {at}:\n  baseline: …{}…\n  fresh:    …{}…",
                &want[lo..(at + 40).min(want.len())],
                &got[lo..(at + 40).min(got.len())],
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} of {} snapshots drifted from the committed baseline:\n{}\n\
         If this change is intentional, regenerate with \
         CFIR_UPDATE_BASELINES=1 cargo test --test differential_gate",
        drifted.len(),
        fresh.len(),
        drifted.join("\n")
    );
}
