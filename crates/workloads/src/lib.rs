//! # cfir-workloads
//!
//! Synthetic stand-ins for the SpecInt2000 suite the paper evaluates.
//! Each kernel is named after the benchmark whose *branch and memory
//! behaviour* it mimics — the evaluation axes that matter for the CI
//! mechanism are (a) how mispredictable the hammock branches are,
//! (b) whether the control-independent work after the re-convergent
//! point depends on strided loads, and (c) how much of the memory
//! traffic is strided at all:
//!
//! | kernel   | branch behaviour            | memory behaviour            |
//! |----------|-----------------------------|-----------------------------|
//! | bzip2    | 50/50 data-dependent hammock| unit-strided byte stream    |
//! | crafty   | nested 2-level hammocks     | strided bitboard tables     |
//! | eon      | mildly biased FP threshold  | strided FP arrays           |
//! | gap      | moderate hammock + div chain| two strides (8 and 16)      |
//! | gcc      | deep 4-way branch ladders   | mixed strided/irregular     |
//! | gzip     | 90/10 biased branches       | unit-strided stream         |
//! | mcf      | hard branch on pointer data | pointer chasing (no stride) |
//! | parser   | alternating + random mix    | strided with hash mixing    |
//! | perlbmk  | indirect jumps (jump table) | strided opcode stream       |
//! | twolf    | 50/50 compare-and-swap      | two strided arrays + stores |
//! | vortex   | biased record filter        | strided records, strided stores |
//! | vpr      | random cost threshold (FP)  | strided cost arrays         |
//!
//! All kernels loop over power-of-two arrays with wrap-around indexing
//! and halt after a configurable iteration count, so the same program
//! works for quick functional tests (small `iters`) and for the
//! benchmark harness (large `iters`, run bounded by `max_insts`).

pub mod custom;
pub mod kernels;
pub mod micro;
pub mod random;

use cfir_emu::MemImage;
use cfir_isa::Program;

/// The benchmark names, in the paper's figure order.
pub const NAMES: [&str; 12] = [
    "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser", "perlbmk", "twolf", "vortex",
    "vpr",
];

/// Parameters for building one workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Outer-loop iterations before `halt`.
    pub iters: u64,
    /// Elements per data array (power of two).
    pub elems: u64,
    /// RNG seed for the data (and layout decisions).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        // Large enough that harness runs are bounded by `max_insts`,
        // small enough that the data fits comfortably in memory.
        WorkloadSpec {
            iters: 1 << 30,
            elems: 1 << 14,
            seed: 0xC0FFEE,
        }
    }
}

/// A ready-to-simulate workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name.
    pub name: &'static str,
    /// The program.
    pub prog: Program,
    /// Initial data memory.
    pub mem: MemImage,
}

/// Build one workload by name.
pub fn by_name(name: &str, spec: WorkloadSpec) -> Option<Workload> {
    let f = match name {
        "bzip2" => kernels::bzip2,
        "crafty" => kernels::crafty,
        "eon" => kernels::eon,
        "gap" => kernels::gap,
        "gcc" => kernels::gcc,
        "gzip" => kernels::gzip,
        "mcf" => kernels::mcf,
        "parser" => kernels::parser,
        "perlbmk" => kernels::perlbmk,
        "twolf" => kernels::twolf,
        "vortex" => kernels::vortex,
        "vpr" => kernels::vpr,
        _ => return None,
    };
    Some(f(spec))
}

/// Build the whole suite in figure order.
pub fn suite(spec: WorkloadSpec) -> Vec<Workload> {
    NAMES
        .iter()
        .map(|n| by_name(n, spec).expect("known name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_emu::{Emulator, StopReason};

    fn small() -> WorkloadSpec {
        WorkloadSpec {
            iters: 200,
            elems: 256,
            seed: 7,
        }
    }

    #[test]
    fn all_names_build() {
        for n in NAMES {
            let w = by_name(n, small()).unwrap();
            assert_eq!(w.name, n);
            assert!(w.prog.validate().is_ok(), "{n}: invalid targets");
            assert!(!w.prog.is_empty());
        }
    }

    #[test]
    fn suite_has_twelve_in_order() {
        let s = suite(small());
        assert_eq!(s.len(), 12);
        for (w, n) in s.iter().zip(NAMES) {
            assert_eq!(w.name, n);
        }
    }

    #[test]
    fn every_kernel_halts_functionally() {
        for n in NAMES {
            let w = by_name(n, small()).unwrap();
            let mut e = Emulator::new(w.mem.clone());
            let r = e.run(&w.prog, 5_000_000);
            assert_eq!(r, StopReason::Halted, "{n} must halt, got {r:?}");
            assert!(e.retired > 200, "{n} did almost no work");
        }
    }

    #[test]
    fn kernels_have_conditional_branches_and_loads() {
        for n in NAMES {
            let w = by_name(n, small()).unwrap();
            let branches = w.prog.insts.iter().filter(|i| i.is_cond_branch()).count();
            let loads = w.prog.insts.iter().filter(|i| i.is_load()).count();
            assert!(branches >= 2, "{n}: needs branches");
            assert!(loads >= 1, "{n}: needs loads");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = by_name("gcc", small()).unwrap();
        let b = by_name("gcc", small()).unwrap();
        assert_eq!(a.prog.insts, b.prog.insts);
        assert_eq!(
            a.mem.read_words(kernels::ARRAY_A, 16),
            b.mem.read_words(kernels::ARRAY_A, 16)
        );
    }

    #[test]
    fn different_seeds_change_data() {
        let a = by_name("bzip2", WorkloadSpec { seed: 1, ..small() }).unwrap();
        let b = by_name("bzip2", WorkloadSpec { seed: 2, ..small() }).unwrap();
        assert_ne!(
            a.mem.read_words(kernels::ARRAY_A, 64),
            b.mem.read_words(kernels::ARRAY_A, 64)
        );
    }

    #[test]
    fn mcf_is_a_pointer_chase() {
        // The mcf kernel's list nodes must form one long cycle so the
        // chase never degenerates into a stride.
        let w = by_name("mcf", small()).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut p = kernels::ARRAY_A;
        for _ in 0..(256 / 2) {
            assert!(seen.insert(p), "list revisits a node early");
            p = w.mem.read(p);
        }
    }
}
