//! Randomized co-simulation: randomly generated (terminating) programs
//! must produce the same architectural state on the golden emulator and
//! on the out-of-order core in every machine mode — including with the
//! full CI/DV mechanism speculating over them.
//!
//! Plain seeded-`Rng64` tests (no proptest): deterministic, offline.
//! The programs come from `cfir_workloads::random`, the generator
//! `cfir stress` soaks with; a failing seed replays there with
//! `cfir stress 1 <seed>`.

use cfir::prelude::*;
use cfir::workloads::random::{RandomProgram, OUT_BASE, OUT_WORDS};

#[test]
fn random_programs_cosim_in_every_mode() {
    let mut seeds = Rng64::seed_from_u64(0xC0512);
    for case in 0..24 {
        let seed = seeds.next_u64();
        let c = RandomProgram::generate(seed);

        let mut emu = Emulator::new(c.mem.clone());
        emu.run(&c.prog, 10_000_000);
        assert!(emu.halted, "case {case}: generated program must halt");

        for mode in [Mode::Scalar, Mode::Ci, Mode::Vect] {
            let mut cfg = SimConfig::paper_baseline()
                .with_mode(mode)
                .with_regs(RegFileSize::Finite(256))
                .with_max_insts(u64::MAX >> 1);
            cfg.cosim_check = true; // the oracle panics on any divergence
            let mut pipe = Pipeline::new(&c.prog, c.mem.clone(), cfg);
            assert_eq!(pipe.run(), RunExit::Halted, "case {case} {mode:?}");
            for r in 0..64u8 {
                assert_eq!(
                    pipe.arch_reg(r),
                    emu.reg(r),
                    "case {case} (seed {seed}): r{r} in {mode:?} (ops {:?})",
                    c.ops
                );
            }
            // Committed memory must match too (stores).
            for i in 0..OUT_WORDS {
                let a = OUT_BASE + i * 8;
                assert_eq!(
                    pipe.memory().read(a),
                    emu.mem.read(a),
                    "case {case} (seed {seed}) mem {a:#x}"
                );
            }
        }
    }
}

#[test]
fn stride_predictor_never_lies_about_trust() {
    let mut rng = Rng64::seed_from_u64(0x57AB1E);
    for _ in 0..100 {
        // After any observation sequence, a trusted prediction must be
        // consistent with the recorded last address and stride.
        let n = rng.gen_range(2, 100) as usize;
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 1_000_000)).collect();
        let mut sp = cfir::predict::StridePredictor::paper();
        for &a in &addrs {
            sp.observe(0x40, a);
        }
        if let Some(e) = sp.lookup(0x40) {
            if e.trusted() {
                assert_eq!(e.predict(0), e.last_addr);
                assert_eq!(
                    e.predict(2),
                    e.last_addr.wrapping_add((e.stride as u64).wrapping_mul(2))
                );
            }
            assert_eq!(e.last_addr, *addrs.last().unwrap());
        }
    }
}

#[test]
fn write_masks_cover_every_written_register() {
    let mut rng = Rng64::seed_from_u64(0x3A5C);
    for _ in 0..100 {
        // The CRP mask discipline: after writes, every written
        // register must test non-CI and untouched ones CI.
        let n = rng.gen_range(1, 40) as usize;
        let dests: Vec<u8> = (0..n).map(|_| rng.gen_range(1, 64) as u8).collect();
        let mut crp = cfir::core::Crp::new();
        crp.activate(0, 0, 0);
        crp.on_fetch(0);
        for &d in &dests {
            crp.on_dest_write(d, false);
        }
        for &d in &dests {
            assert!(!crp.is_control_independent([Some(d), None]));
        }
        for r in 1u8..64 {
            if !dests.contains(&r) {
                assert!(crp.is_control_independent([Some(r), None]));
            }
        }
    }
}
