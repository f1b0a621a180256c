//! Integration tests for the per-branch CI-reuse scorecard: on real
//! workloads, in every mode, the per-branch rows (plus the explicit
//! `unattributed` bucket) must sum exactly to the global counters the
//! simulator reports — nothing double-counted, nothing dropped — and
//! the JSON snapshot must carry the same numbers.

use cfir_obs::json;
use cfir_sim::{run_json, Mode, Pipeline, RegFileSize, SimConfig, SimStats};
use cfir_workloads::{by_name, WorkloadSpec};

fn run(bench: &str, mode: Mode) -> SimStats {
    let spec = WorkloadSpec {
        iters: 1 << 30,
        elems: 1024,
        seed: 5,
    };
    let w = by_name(bench, spec).expect("known benchmark");
    let mut cfg = SimConfig::paper_baseline()
        .with_mode(mode)
        .with_regs(RegFileSize::Finite(512))
        .with_max_insts(30_000);
    cfg.cosim_check = false;
    let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg);
    p.run();
    p.stats.clone()
}

#[test]
fn scorecard_totals_reconcile_with_global_stats() {
    // Two kernels x two mechanism modes (plus the comparators): the
    // reconciliation must hold regardless of how reuse is produced.
    for bench in ["bzip2", "mcf"] {
        for mode in [Mode::Ci, Mode::CiIw, Mode::Vect, Mode::Scalar] {
            let s = run(bench, mode);
            let t = s.branch_prof.totals();
            let g = s.branch_prof.grand_totals();
            let ctx = format!("{bench} {mode:?}");

            // Branch commits are always attributed to a PC.
            assert_eq!(g.executed, s.branches, "{ctx}: executed");
            assert_eq!(g.mispredicts, s.mispredicts, "{ctx}: mispredicts");
            assert_eq!(t.executed, g.executed, "{ctx}: branches never spill");

            // Mechanism work reconciles once the spill bucket is added.
            assert_eq!(g.reuse_commits, s.committed_reuse, "{ctx}: reuse");
            assert_eq!(
                g.replicas_created, s.replicas_created,
                "{ctx}: replicas created"
            );
            assert_eq!(
                g.replicas_executed, s.replicas_executed,
                "{ctx}: replicas executed"
            );

            // The rows' event counts, kept as each event's flags
            // change, agree with Figure 5's counts of the flags.
            let (_, sel, reu) = s.branch_prof.event_counts();
            assert_eq!(t.events_reused + t.events_selected, sel + reu, "{ctx}");
            if mode.selects_ci() {
                assert!(t.events > 0, "{ctx}: CI modes open events");
                assert_eq!(t.events_reused, reu, "{ctx}: reused events");
            } else {
                // vect/scal never open events: everything spills.
                assert_eq!(t.events, 0, "{ctx}");
                assert_eq!(t.reuse_commits, 0, "{ctx}");
            }
            if mode == Mode::Scalar {
                assert_eq!(g.reuse_commits, 0, "{ctx}: scalar never reuses");
            }

            // Per-row sanity: mispredicts bounded by executions (events
            // are not — wrong-path branches can open an event at
            // resolution and then be squashed before committing);
            // savings only come with reuses.
            for (pc, row) in s.branch_prof.sorted() {
                assert!(row.mispredicts <= row.executed, "{ctx} pc={pc:#x}");
                assert!(
                    row.events_reused + row.events_selected <= row.events,
                    "{ctx} pc={pc:#x}"
                );
                assert_eq!(
                    row.cycles_saved == 0,
                    row.reuse_commits == 0,
                    "{ctx} pc={pc:#x}: savings iff reuses"
                );
            }
        }
    }
}

#[test]
fn ci_mode_exploits_ci_on_real_kernels() {
    // The paper's headline: a sizable fraction of mispredicted branches
    // have their control-independent work reused. On these kernels the
    // ci mode must at least demonstrate the effect end to end.
    let s = run("bzip2", Mode::Ci);
    assert!(s.mispredicts > 0, "kernel must mispredict");
    let f = s.branch_prof.ci_exploited_fraction();
    assert!(f > 0.0, "some mispredictions must see reuse, got {f}");
    assert!(f <= 1.0);
    // At least one specific branch site shows reuse attribution.
    assert!(s
        .branch_prof
        .sorted()
        .iter()
        .any(|(_, r)| r.reuse_commits > 0 && r.cycles_saved > 0));
}

#[test]
fn snapshot_scorecard_matches_global_stats_in_same_document() {
    // The ISSUE's acceptance check: in one schema-v2 snapshot, the
    // per-branch scorecard totals must match the global stats fields of
    // the same document.
    let s = run("mcf", Mode::Ci);
    let doc = run_json("mcf", "ci", &s);
    let v = json::parse(&doc).expect("snapshot parses");
    assert_eq!(v.get("schema_version").and_then(|x| x.as_u64()), Some(7));

    let bp = v.get("branch_prof").expect("branch_prof object");
    let tot = bp.get("totals").expect("totals");
    let un = bp.get("unattributed").expect("unattributed");
    let sum = |key: &str| {
        tot.get(key).and_then(|x| x.as_u64()).unwrap()
            + un.get(key).and_then(|x| x.as_u64()).unwrap()
    };
    let global = |key: &str| v.get(key).and_then(|x| x.as_u64()).unwrap();

    assert_eq!(sum("executed"), global("branches"));
    assert_eq!(sum("mispredicts"), global("mispredicts"));
    assert_eq!(sum("reuse_commits"), global("committed_reuse"));
    assert_eq!(sum("replicas_created"), global("replicas_created"));
    assert_eq!(sum("replicas_executed"), global("replicas_executed"));

    // The rows themselves also sum to the totals object.
    let rows = bp.get("branches").and_then(|x| x.as_arr()).unwrap();
    assert_eq!(
        bp.get("static_branches").and_then(|x| x.as_u64()),
        Some(rows.len() as u64)
    );
    for key in ["executed", "mispredicts", "reuse_commits", "cycles_saved"] {
        let row_sum: u64 = rows
            .iter()
            .map(|r| r.get(key).and_then(|x| x.as_u64()).unwrap())
            .sum();
        assert_eq!(
            Some(row_sum),
            tot.get(key).and_then(|x| x.as_u64()),
            "rows must sum to totals for {key}"
        );
    }
}
