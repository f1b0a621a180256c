//! Integration tests for the per-instruction lifecycle recorder: stage
//! timestamps must be monotonic, squashes must postdate dispatch, the
//! per-instruction wait-cycle sums must reconcile *exactly* with the
//! aggregate stall attribution, and a real run's Konata trace must
//! round-trip through the parser.

use cfir_obs::stall::{ALL_CAUSES, NUM_CAUSES};
use cfir_obs::{parse_konata, Fate, LifecycleLog};
use cfir_sim::{Mode, Pipeline, RegFileSize, SimConfig, SimStats};
use cfir_workloads::{by_name, WorkloadSpec};

/// Run `bench` in `mode` with lifecycle tracing on from cycle 0 and an
/// effectively-unbounded ring, returning the stats and a snapshot of
/// the recorder's contents.
fn run(bench: &str, mode: Mode) -> (SimStats, Snapshot) {
    let spec = WorkloadSpec {
        iters: 1 << 30,
        elems: 1024,
        seed: 5,
    };
    let w = by_name(bench, spec).expect("known benchmark");
    let mut cfg = SimConfig::paper_baseline()
        .with_mode(mode)
        .with_regs(RegFileSize::Finite(512))
        .with_max_insts(20_000);
    cfg.cosim_check = false;
    let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg);
    p.enable_lifecycle(1 << 22);
    p.run();
    let snap = Snapshot::of(p.lifecycle().expect("lifecycle enabled"));
    (p.stats.clone(), snap)
}

struct Snapshot {
    records: Vec<cfir_obs::InstRecord>,
    /// Per cause, the sum of every record's charges, read through
    /// `LifecycleLog::wait`.
    record_waits: [u64; NUM_CAUSES],
    frontend: [u64; NUM_CAUSES],
    dropped: u64,
    konata: String,
}

impl Snapshot {
    fn of(log: &LifecycleLog) -> Snapshot {
        Snapshot {
            records: log.records().cloned().collect(),
            record_waits: ALL_CAUSES.map(|c| log.records().map(|r| log.wait(r, c)).sum()),
            frontend: *log.frontend_waits(),
            dropped: log.dropped(),
            konata: log.render_konata(),
        }
    }
}

#[test]
fn stage_cycles_are_monotonic_and_squashes_postdate_dispatch() {
    for bench in ["gzip", "mcf"] {
        for mode in [Mode::Scalar, Mode::Ci] {
            let (_, snap) = run(bench, mode);
            assert_eq!(snap.dropped, 0, "{bench} {mode:?}: ring must not drop");
            assert!(!snap.records.is_empty(), "{bench} {mode:?}");
            let mut committed = 0u64;
            for r in &snap.records {
                let stages = r.stage_cycles();
                for w in stages.windows(2) {
                    assert!(
                        w[0].1 <= w[1].1,
                        "{bench} {mode:?} lid {}: stage {} at {} after {} at {}",
                        r.lid,
                        w[0].0,
                        w[0].1,
                        w[1].0,
                        w[1].1
                    );
                }
                match r.fate {
                    Fate::Committed => {
                        committed += 1;
                        assert!(r.retire().is_some(), "{bench} {mode:?} lid {}", r.lid);
                    }
                    Fate::Squashed => {
                        if let (Some(d), Some(sq)) = (r.dispatch(), r.retire()) {
                            assert!(
                                sq >= d,
                                "{bench} {mode:?} lid {}: squashed at {sq} before dispatch {d}",
                                r.lid
                            );
                        }
                    }
                    Fate::InFlight => {}
                }
            }
            assert!(committed > 0, "{bench} {mode:?}: no committed records");
        }
    }
}

#[test]
fn wait_sums_reconcile_exactly_with_stall_attribution() {
    for bench in ["gzip", "mcf"] {
        for mode in [Mode::Scalar, Mode::Ci] {
            let (stats, snap) = run(bench, mode);
            assert_eq!(snap.dropped, 0, "{bench} {mode:?}");
            for cause in ALL_CAUSES {
                let per_inst = snap.record_waits[cause as usize] + snap.frontend[cause as usize];
                assert_eq!(
                    per_inst,
                    stats.stall.get(cause),
                    "{bench} {mode:?}: cause `{}` diverges",
                    cause.key()
                );
            }
            // The recorder's own bookkeeping agrees with the stats.
            assert_eq!(
                stats.lifecycle_records,
                snap.records.len() as u64,
                "{bench} {mode:?}"
            );
        }
    }
}

#[test]
fn konata_trace_of_a_real_run_round_trips() {
    let (stats, snap) = run("gzip", Mode::Ci);
    assert!(snap.konata.starts_with("Kanata\t0004"));
    let trace = parse_konata(&snap.konata).expect("round-trip parse");
    assert_eq!(trace.insts.len(), snap.records.len());
    // Lane 0 only: delivered replicas (lane 1) also carry fate=commit.
    let committed = trace
        .insts
        .iter()
        .filter(|i| i.tid == 0 && i.fate == Fate::Committed)
        .count() as u64;
    assert_eq!(committed, stats.committed);
    // Squashed instructions carry the flush retire marker.
    assert!(
        trace
            .insts
            .iter()
            .filter(|i| i.fate == Fate::Squashed)
            .all(|i| i.flushed),
        "squashed instructions must use R-type 1"
    );
    // A CI run must show reused instructions in the trace.
    assert!(
        trace.insts.iter().any(|i| i.reused),
        "expected reused instructions in a Ci-mode gzip run"
    );
}
