//! Timing benchmarks of the simulator itself: cycle-loop throughput
//! per machine mode, mechanism-structure hot paths, and the workload
//! generators. (The paper's tables/figures are regenerated by
//! `cfir suite <name>`; these benches track the cost of simulating
//! them.)
//!
//! Hand-rolled harness (`harness = false`, no criterion): each bench
//! runs a warmup pass then a fixed number of timed iterations and
//! reports the median per-iteration wall time. Run with
//! `cargo bench -p cfir-bench`.

use cfir_sim::{Mode, Pipeline, RegFileSize, SimConfig};
use cfir_workloads::{by_name, WorkloadSpec};
use std::time::Instant;

/// Median per-iteration time of `iters` timed runs of `f` (after
/// `warmup` untimed runs). The closure's result is returned through a
/// volatile sink so the optimizer cannot delete the work.
fn bench<R>(name: &str, warmup: u32, iters: u32, mut f: impl FnMut() -> R) {
    for _ in 0..warmup {
        sink(f());
    }
    let mut times: Vec<u128> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            sink(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    println!("{name:<28} {:>12} ns/iter (n={iters})", median);
}

#[inline]
fn sink<R>(r: R) {
    std::hint::black_box(r);
}

fn sim_throughput() {
    let insts = 8_000u64;
    let spec = WorkloadSpec {
        iters: 1 << 30,
        elems: 2048,
        seed: 7,
    };
    for mode in [
        Mode::Scalar,
        Mode::WideBus,
        Mode::CiIw,
        Mode::Ci,
        Mode::Vect,
    ] {
        let w = by_name("bzip2", spec).unwrap();
        bench(
            &format!("sim_throughput/bzip2/{}", mode.label()),
            2,
            10,
            || {
                let mut cfg = SimConfig::paper_baseline()
                    .with_mode(mode)
                    .with_regs(RegFileSize::Finite(512))
                    .with_max_insts(insts);
                cfg.cosim_check = false;
                let mut pipe = Pipeline::new(&w.prog, w.mem.clone(), cfg);
                pipe.run();
                pipe.stats.committed
            },
        );
    }
}

fn mechanism_structures() {
    use cfir_core::{Mbs, Srsmt};
    use cfir_predict::{Gshare, StridePredictor};

    let mut g = Gshare::paper();
    let mut pc = 0u64;
    bench("gshare_predict_train", 1000, 100_000, || {
        pc = pc.wrapping_add(4) & 0xFFFF;
        let h = g.history();
        let p = g.predict_and_update(pc);
        g.train(pc, h, p ^ (pc & 8 != 0));
    });

    let mut sp = StridePredictor::paper();
    let mut a = 0u64;
    bench("stride_observe_lookup", 1000, 100_000, || {
        a += 8;
        sp.observe(0x40, a);
        sp.is_strided(0x40)
    });

    let mut m = Mbs::paper();
    let mut i = 0u64;
    bench("mbs_observe", 1000, 100_000, || {
        i += 1;
        m.observe(0x40 + (i % 64) * 4, i.is_multiple_of(3));
        m.is_hard(0x40)
    });

    bench("srsmt_alloc_recover", 100, 10_000, || {
        let mut t = Srsmt::paper();
        for pc in 0..32u64 {
            let e = cfir_core::SrsmtEntry::new(
                pc * 4,
                cfir_isa::Inst::Ld {
                    rd: 1,
                    base: 2,
                    offset: 0,
                },
                cfir_core::VecKind::Load {
                    stride: 8,
                    base: 0x1000,
                },
                4,
                cfir_core::SeqId::None,
                cfir_core::SeqId::None,
            );
            let _ = t.alloc(e);
        }
        t.recovery().len()
    });
}

fn workload_generation() {
    let spec = WorkloadSpec {
        iters: 1 << 20,
        elems: 4096,
        seed: 3,
    };
    for name in ["bzip2", "mcf", "perlbmk"] {
        bench(&format!("workload_gen/{name}"), 2, 10, || {
            by_name(name, spec).unwrap().prog.len()
        });
    }
}

fn main() {
    // `cargo bench`/`cargo test` pass harness flags (e.g. --bench);
    // ignore them.
    sim_throughput();
    mechanism_structures();
    workload_generation();
}
