//! Behavioural assertions about the CI/DV mechanism itself — the
//! paper's qualitative claims, checked on the synthetic suite.

use cfir::prelude::*;

fn run(name: &str, mode: Mode, insts: u64) -> SimStats {
    let w = by_name(
        name,
        WorkloadSpec {
            iters: 1 << 30,
            elems: 4096,
            seed: 0xFEED,
        },
    )
    .unwrap();
    let mut c = SimConfig::paper_baseline()
        .with_mode(mode)
        .with_regs(RegFileSize::Finite(512))
        .with_max_insts(insts);
    c.cosim_check = true;
    let mut pipe = Pipeline::new(&w.prog, w.mem.clone(), c);
    pipe.run();
    pipe.stats.clone()
}

#[test]
fn ci_reuses_on_the_figure1_workload() {
    let s = run("bzip2", Mode::Ci, 60_000);
    assert!(s.committed_reuse > 0, "must reuse precomputed results");
    assert!(
        s.reuse_fraction() > 0.05,
        "reuse fraction {:.3} too low for the mechanism's best case",
        s.reuse_fraction()
    );
    assert!(s.replicas_executed > 1000, "the replica engine must run");
    assert!(s.vectorizations > 0);
}

#[test]
fn ci_beats_the_baseline_where_branches_are_hard() {
    // The paper's headline on its motivating shape: hammocks over
    // random data with strided loads.
    for name in ["bzip2", "twolf", "crafty", "parser"] {
        let base = run(name, Mode::WideBus, 60_000);
        let ci = run(name, Mode::Ci, 60_000);
        assert!(
            ci.ipc() > base.ipc() * 1.02,
            "{name}: ci {:.3} must beat wb {:.3}",
            ci.ipc(),
            base.ipc()
        );
    }
}

#[test]
fn events_classify_mispredictions() {
    let s = run("bzip2", Mode::Ci, 60_000);
    let (nf, sel, reu) = s.branch_prof.event_fractions();
    assert!(s.branch_prof.total_mispredictions > 100);
    // Figure 5's shape: most mispredictions find CI instructions, and a
    // large share achieve reuse.
    assert!(
        sel + reu > 0.5,
        "selected {sel:.2} + reused {reu:.2} too low"
    );
    assert!(reu > 0.03, "reused fraction {reu:.2} too low");
    assert!(nf < 0.5, "not-found fraction {nf:.2} too high");
}

#[test]
fn mcf_finds_ci_but_cannot_vectorize() {
    // Pointer chasing: CI instructions exist, but no strided backward
    // slice — the gray bucket of Figure 5.
    let s = run("mcf", Mode::Ci, 25_000);
    let (_, sel, reu) = s.branch_prof.event_fractions();
    assert!(sel > 0.3, "CI selection must still happen: {sel:.2}");
    assert!(reu < 0.1, "but stride-based reuse cannot: {reu:.2}");
    assert!(s.committed_reuse < s.committed / 100);
}

#[test]
fn biased_branches_keep_the_mechanism_quiet() {
    // gzip's branches are ~94/6: the MBS classifies them easy, so far
    // fewer misprediction events activate the scheme per instruction.
    let gzip = run("gzip", Mode::Ci, 60_000);
    let bzip2 = run("bzip2", Mode::Ci, 60_000);
    let gzip_rate = gzip.branch_prof.total_mispredictions as f64 / gzip.committed as f64;
    let bzip2_rate = bzip2.branch_prof.total_mispredictions as f64 / bzip2.committed as f64;
    assert!(
        gzip_rate < bzip2_rate / 3.0,
        "gzip {gzip_rate:.4} vs bzip2 {bzip2_rate:.4}"
    );
}

#[test]
fn vect_generates_at_least_as_much_speculation_as_ci() {
    // Full-blown vectorization speculates on every trusted strided
    // load; the CI scheme gates on hard-branch selection.
    let mut vect_total = 0u64;
    let mut ci_total = 0u64;
    for name in ["gzip", "eon", "vortex"] {
        vect_total += run(name, Mode::Vect, 40_000).replicas_created;
        ci_total += run(name, Mode::Ci, 40_000).replicas_created;
    }
    assert!(
        vect_total >= ci_total,
        "vect {vect_total} must speculate at least as much as ci {ci_total}"
    );
}

#[test]
fn squash_reuse_stays_inside_the_window() {
    // ci-iw never pre-executes: no replicas, only wrong-path harvest.
    let s = run("bzip2", Mode::CiIw, 60_000);
    assert_eq!(s.replicas_executed, 0);
    assert_eq!(s.replicas_created, 0);
    assert!(s.squash_reuse_hits > 0, "squash reuse must hit");
    assert!(s.committed_reuse > 0);
}

#[test]
fn store_coherence_fires_on_twolf() {
    // twolf stores into the speculatively-loaded array every 64th
    // iteration (§2.4.3's hazard).
    let s = run("twolf", Mode::Ci, 80_000);
    assert!(s.store_conflicts > 0, "coherence check must fire");
    assert!(
        s.store_conflict_fraction() < 0.2,
        "but conflicts must stay rare: {:.3}",
        s.store_conflict_fraction()
    );
}

#[test]
fn daec_bounds_register_occupancy() {
    let w = by_name(
        "crafty",
        WorkloadSpec {
            iters: 1 << 30,
            elems: 4096,
            seed: 1,
        },
    )
    .unwrap();
    let mut with_daec = SimConfig::paper_baseline()
        .with_mode(Mode::Ci)
        .with_regs(RegFileSize::Infinite)
        .with_max_insts(40_000);
    with_daec.cosim_check = false;
    let mut without = with_daec.clone();
    without.mech.daec_threshold = u8::MAX;
    let mut a = Pipeline::new(&w.prog, w.mem.clone(), with_daec);
    a.run();
    let mut b = Pipeline::new(&w.prog, w.mem.clone(), without);
    b.run();
    assert!(
        a.stats.avg_regs_in_use() <= b.stats.avg_regs_in_use(),
        "DAEC on {:.0} must not use more registers than off {:.0}",
        a.stats.avg_regs_in_use(),
        b.stats.avg_regs_in_use()
    );
}

#[test]
fn more_replicas_more_speculative_work() {
    let one = run("parser", Mode::Ci, 40_000);
    let eight = {
        let w = by_name(
            "parser",
            WorkloadSpec {
                iters: 1 << 30,
                elems: 4096,
                seed: 0xFEED,
            },
        )
        .unwrap();
        let mut c = SimConfig::paper_baseline()
            .with_mode(Mode::Ci)
            .with_regs(RegFileSize::Finite(512))
            .with_replicas(8)
            .with_max_insts(40_000);
        c.cosim_check = true;
        let mut pipe = Pipeline::new(&w.prog, w.mem.clone(), c);
        pipe.run();
        pipe.stats.clone()
    };
    assert!(
        eight.replicas_created > one.replicas_created / 2,
        "8-replica windows must sustain speculative work"
    );
}

#[test]
fn wide_bus_reduces_l1_accesses() {
    // Figure 8's first-order effect: one wide access serves several
    // same-line loads.
    let scal = run("vortex", Mode::Scalar, 40_000);
    let wb = run("vortex", Mode::WideBus, 40_000);
    assert!(
        wb.l1d_accesses < scal.l1d_accesses,
        "wb {} must access L1 less than scal {}",
        wb.l1d_accesses,
        scal.l1d_accesses
    );
}
