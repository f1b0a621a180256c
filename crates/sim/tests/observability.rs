//! Integration tests for the observability layer: stall attribution
//! must account for every commit slot on real workloads in every mode,
//! the latency histograms and interval samples must populate, and the
//! JSON snapshot must round-trip through the parser with the same
//! numbers the simulator reported.

use cfir_obs::critpath::CpiStack;
use cfir_obs::json;
use cfir_obs::stall::{StallCause, ALL_CAUSES};
use cfir_sim::{run_json, Mode, Pipeline, RegFileSize, SimConfig, SimStats};
use cfir_workloads::{by_name, WorkloadSpec, NAMES};

const WIDTH: u64 = 8; // paper_baseline commit width

fn run_insts(bench: &str, mode: Mode, interval_cycles: u64, max_insts: u64) -> SimStats {
    let spec = WorkloadSpec {
        iters: 1 << 30,
        elems: 1024,
        seed: 5,
    };
    let w = by_name(bench, spec).expect("known benchmark");
    let mut cfg = SimConfig::paper_baseline()
        .with_mode(mode)
        .with_regs(RegFileSize::Finite(512))
        .with_max_insts(max_insts);
    cfg.cosim_check = false;
    cfg.interval_cycles = interval_cycles;
    let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg);
    p.run();
    p.stats.clone()
}

fn run(bench: &str, mode: Mode, interval_cycles: u64) -> SimStats {
    run_insts(bench, mode, interval_cycles, 30_000)
}

#[test]
fn stall_attribution_accounts_for_every_commit_slot() {
    // Two kernels x all five machine modes: the invariant is mode- and
    // workload-independent.
    for bench in ["bzip2", "mcf"] {
        for mode in [
            Mode::Scalar,
            Mode::WideBus,
            Mode::CiIw,
            Mode::Ci,
            Mode::Vect,
        ] {
            let s = run(bench, mode, 0);
            s.stall
                .check_sum(s.cycles, WIDTH)
                .unwrap_or_else(|e| panic!("{bench} {mode:?}: {e}"));
            let total: u64 = ALL_CAUSES.iter().map(|&c| s.stall.get(c)).sum();
            assert_eq!(total, s.cycles * WIDTH, "{bench} {mode:?}");
            // Useful slots are exactly the committed instructions.
            assert_eq!(
                s.stall.get(StallCause::Useful),
                s.committed,
                "{bench} {mode:?}"
            );
            assert!(s.stall.get(StallCause::Useful) > 0, "{bench} {mode:?}");
        }
    }
}

#[test]
fn stall_invariant_and_cpi_stack_hold_on_every_kernel_and_mode() {
    // The whole suite: all 12 paper kernels x the four paper machine
    // modes. Both the flat invariant (buckets sum to cycles x width)
    // and the hierarchical CPI stack regrouping (the six top-down
    // groups preserve that sum exactly) must hold everywhere. A
    // reduced instruction budget keeps the 48-run matrix fast.
    for bench in NAMES {
        for mode in [Mode::Scalar, Mode::WideBus, Mode::Ci, Mode::Vect] {
            let s = run_insts(bench, mode, 0, 10_000);
            s.stall
                .check_sum(s.cycles, WIDTH)
                .unwrap_or_else(|e| panic!("{bench} {mode:?}: {e}"));
            // Every failed validation is counted under one reason.
            assert_eq!(
                s.validation_failures,
                s.valfail_reasons.iter().sum(),
                "{bench} {mode:?}"
            );
            let stack = CpiStack::from_breakdown(&s.stall, s.committed_reuse);
            stack
                .check_sum(s.cycles, WIDTH)
                .unwrap_or_else(|e| panic!("{bench} {mode:?}: {e}"));
            // The reuse-recovered group is carved out of useful slots,
            // so base + reuse_recovered == committed.
            assert_eq!(
                stack.base + stack.reuse_recovered,
                s.committed,
                "{bench} {mode:?}"
            );
            if mode.vectorizes() {
                assert_eq!(stack.reuse_recovered, s.committed_reuse, "{bench} {mode:?}");
            } else {
                assert_eq!(stack.reuse_recovered, 0, "{bench} {mode:?}");
            }
        }
    }
}

#[test]
fn histograms_populate_on_real_runs() {
    let s = run("bzip2", Mode::Ci, 0);
    assert!(
        s.h_load_to_use.count() > 0,
        "loads must record load-to-use latencies"
    );
    assert!(
        s.h_branch_resolve.count() > 0,
        "branches must record resolution latencies"
    );
    assert!(
        s.h_reuse_wait.count() > 0,
        "CI mode must record replica-wait latencies"
    );
    assert!(
        s.h_flush_recovery.count() > 0,
        "mispredictions must record recovery latencies"
    );
    // Sanity on the bucketing: sum/mean are consistent and buckets
    // account for every sample.
    let bucketed: u64 = s.h_load_to_use.nonzero_buckets().map(|(_, n)| n).sum();
    assert_eq!(bucketed, s.h_load_to_use.count());
    assert!(
        s.h_load_to_use.mean() >= 1.0,
        "a load takes at least a cycle"
    );
}

#[test]
fn interval_sampling_tracks_cumulative_counters() {
    let s = run("mcf", Mode::Ci, 1_000);
    assert!(
        s.intervals.len() >= 2,
        "a 30k-inst run spans several 1k-cycle intervals"
    );
    let mut prev_cycle = 0;
    let mut prev_committed = 0;
    let mut prev_branches = 0;
    for iv in &s.intervals {
        assert!(iv.cycle > prev_cycle, "sample cycles strictly increase");
        assert!(iv.committed >= prev_committed, "committed is cumulative");
        assert!(iv.branches >= prev_branches, "branches is cumulative");
        assert!(iv.mispredicts <= iv.branches);
        assert!(iv.interval_ipc >= 0.0 && iv.interval_ipc <= WIDTH as f64);
        assert!((0.0..=1.0).contains(&iv.interval_mispredict_rate));
        assert!((0.0..=1.0).contains(&iv.interval_reuse_rate));
        // with_regs(Finite(512)) grows the window to 512 (§3.2).
        assert!(iv.rob_occupancy <= 512, "bounded by the window size");
        prev_cycle = iv.cycle;
        prev_committed = iv.committed;
        prev_branches = iv.branches;
    }
    assert!(s.intervals.last().unwrap().committed <= s.committed);
    assert!(
        s.intervals.iter().any(|iv| iv.rob_occupancy > 0),
        "some sample catches a non-empty window"
    );
}

#[test]
fn snapshot_json_matches_the_stats_it_came_from() {
    let s = run("bzip2", Mode::Vect, 2_000);
    let doc = run_json("bzip2", "vect", &s);
    let v = json::parse(&doc).expect("snapshot must parse");
    assert_eq!(v.get("schema_version").and_then(|x| x.as_u64()), Some(7));
    assert_eq!(v.get("name").and_then(|x| x.as_str()), Some("bzip2"));
    assert_eq!(v.get("cycles").and_then(|x| x.as_u64()), Some(s.cycles));
    assert_eq!(
        v.get("committed").and_then(|x| x.as_u64()),
        Some(s.committed)
    );
    let ipc = v.get("ipc").and_then(|x| x.as_f64()).unwrap();
    assert!((ipc - s.ipc()).abs() < 1e-9);
    // The stall object mirrors the breakdown and keeps the invariant.
    let stall = v.get("stall").expect("stall object");
    let mut total = 0;
    for cause in ALL_CAUSES {
        total += stall.get(cause.key()).and_then(|x| x.as_u64()).unwrap();
    }
    assert_eq!(total, s.cycles * WIDTH);
    // Histogram counts survive the round trip.
    let h = v
        .get("histograms")
        .and_then(|h| h.get("load_to_use"))
        .unwrap();
    assert_eq!(
        h.get("count").and_then(|x| x.as_u64()),
        Some(s.h_load_to_use.count())
    );
    assert_eq!(
        v.get("intervals").and_then(|x| x.as_arr()).map(|a| a.len()),
        Some(s.intervals.len())
    );
}
