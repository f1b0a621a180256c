//! `cfir stress` — randomized co-simulation soak test.
//!
//! Generates random terminating programs
//! ([`cfir::workloads::random`]), runs each through the golden
//! emulator and through the out-of-order core in every machine mode
//! with the commit-time oracle armed, and compares the final registers
//! and the committed store region. The first divergence prints a
//! replay line (seed and mode) and exits 1:
//!
//! ```sh
//! cfir stress 500          # 500 cases
//! cfir stress 1 12345      # replay seed 12345
//! ```

use super::Args;
use cfir::prelude::*;
use cfir::workloads::random::{RandomProgram, OUT_BASE, OUT_WORDS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;

const USAGE: &str = "\
usage: cfir stress [CASES] [SEED]
runs CASES random programs (default 100, base seed SEED) on the emulator
and on the core in all five modes; the first divergence prints its seed
and mode and exits 1";

const CMD: &str = "cfir stress";

const MODES: [Mode; 5] = [
    Mode::Scalar,
    Mode::WideBus,
    Mode::CiIw,
    Mode::Ci,
    Mode::Vect,
];

pub fn main(args: Vec<String>) {
    let mut a = Args::new(CMD, USAGE, args);
    let mut positional = |what: &str, default: u64| match a.next() {
        None => default,
        Some(v) if v.starts_with('-') => a.unexpected(&v),
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| a.fail(&format!("{what} wants a number, got `{v}`"))),
    };
    let cases = positional("CASES", 100);
    let base_seed = positional("SEED", 0xC0FF_EE00);
    if let Some(extra) = a.next() {
        a.unexpected(&extra);
    }

    let mut total_reuse = 0u64;
    for case in 0..cases {
        let seed = base_seed.wrapping_add(case.wrapping_mul(0x9E37_79B9));
        let c = RandomProgram::generate(seed);
        let mut emu = Emulator::new(c.mem.clone());
        emu.run(&c.prog, 50_000_000);
        if !emu.halted {
            diverged(seed, "emu", "the program did not halt on the emulator");
        }
        for mode in MODES {
            match check(&c, &emu, mode) {
                Ok(reused) => total_reuse += reused,
                Err(why) => diverged(seed, mode.label(), &why),
            }
        }
        if (case + 1) % 50 == 0 {
            println!("{}/{} cases clean", case + 1, cases);
        }
    }
    println!(
        "all {cases} cases clean across {} modes ({total_reuse} values reused)",
        MODES.len()
    );
}

/// Run `c` on the core in `mode` and compare its final state with the
/// emulator's; the number of reused values on success.
fn check(c: &RandomProgram, emu: &Emulator, mode: Mode) -> Result<u64, String> {
    let mut cfg = SimConfig::paper_baseline()
        .with_mode(mode)
        .with_regs(RegFileSize::Finite(256))
        .with_max_insts(u64::MAX >> 1);
    cfg.cosim_check = true;
    let mut pipe = Pipeline::new(&c.prog, c.mem.clone(), cfg);
    // The commit-time oracle panics at the first divergent commit.
    let exit = catch_unwind(AssertUnwindSafe(|| pipe.run()))
        .map_err(|_| "the commit-time oracle fired (message above)".to_string())?;
    if exit != RunExit::Halted {
        return Err(format!("the core stopped with {exit:?}"));
    }
    if let Some(r) = (0..64u8).find(|&r| pipe.arch_reg(r) != emu.reg(r)) {
        return Err(format!(
            "r{r} is {:#x} on the core, {:#x} on the emulator",
            pipe.arch_reg(r),
            emu.reg(r)
        ));
    }
    let mem = pipe.memory();
    if let Some(addr) = (0..OUT_WORDS)
        .map(|i| OUT_BASE + i * 8)
        .find(|&addr| mem.read(addr) != emu.mem.read(addr))
    {
        return Err(format!(
            "mem {addr:#x} is {:#x} on the core, {:#x} on the emulator",
            mem.read(addr),
            emu.mem.read(addr)
        ));
    }
    Ok(pipe.stats.committed_reuse)
}

fn diverged(seed: u64, mode: &str, why: &str) -> ! {
    eprintln!("{CMD}: seed {seed} mode {mode}: {why}\nreplay: cfir stress 1 {seed}");
    exit(1)
}
