//! Random terminating programs for co-simulation testing.
//!
//! A case is one loop of 16–431 iterations over a body of 1–15 random
//! [`BodyOp`]s, then `halt`, plus a random 128-word input array.
//! The same seed always yields the same case, so a failing seed is a
//! complete reproducer.
//!
//! Register conventions: r1 = iteration counter, r2 = limit, r3 = data
//! byte mask, r4 = data base, r5 = store-region base, r6 = byte offset
//! of the strided cursor, r7 = strided cursor, r8 = address scratch,
//! r9 = hammock accumulator. The body works on r10..r25.

use cfir_emu::MemImage;
use cfir_isa::{AluOp, Cond, Program, ProgramBuilder};
use cfir_obs::Rng64;

/// Base address of the random input array.
pub const DATA_BASE: u64 = 0x2_0000;
/// Base address of the region the body's stores write.
pub const OUT_BASE: u64 = 0x8_0000;
/// Words in the store region: stores address it with
/// `(iteration * 8) & 0xFFF`.
pub const OUT_WORDS: u64 = 0x1000 / 8;
/// Words of random input data.
const DATA_WORDS: u64 = 128;

const ALU_OPS: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Slt,
    AluOp::Div,
];
const CONDS: [Cond; 4] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge];

/// One step of the loop body.
#[derive(Debug, Clone, Copy)]
pub enum BodyOp {
    /// `d = s1 op s2`.
    Alu(AluOp, u8, u8, u8),
    /// `d = s op imm`.
    AluImm(AluOp, u8, u8, i8),
    /// `d = mem[cursor + 8 * word]`: a load strided by the iteration.
    LoadStrided(u8, u8),
    /// `d = mem[data_base + ((idx * 8) & mask)]`: a data-dependent load.
    LoadIndexed(u8, u8),
    /// Store `s` to the store region, strided by the iteration.
    Store(u8),
    /// `if a cond b { r9 ^= 3 } else { r9 += 1 }`.
    Hammock(Cond, u8, u8),
    /// `d += s`: a self-loop dependence chain.
    Accumulate(u8, u8),
}

/// One generated case.
#[derive(Debug, Clone)]
pub struct RandomProgram {
    /// The loop body the program was built from.
    pub ops: Vec<BodyOp>,
    /// The program.
    pub prog: Program,
    /// Initial data memory.
    pub mem: MemImage,
}

impl RandomProgram {
    /// The case for `seed`.
    pub fn generate(seed: u64) -> RandomProgram {
        let mut rng = Rng64::seed_from_u64(seed);
        let n = rng.gen_range(1, 16) as usize;
        let ops: Vec<BodyOp> = (0..n).map(|_| body_op(&mut rng)).collect();
        let iters = rng.gen_range(16, 432);
        let mut mem = MemImage::new();
        for i in 0..DATA_WORDS {
            mem.write(DATA_BASE + i * 8, rng.next_u64() & 0xFF);
        }
        RandomProgram {
            prog: build(&ops, iters),
            ops,
            mem,
        }
    }
}

/// A work register, r10..r25.
fn reg(rng: &mut Rng64) -> u8 {
    rng.gen_range_incl(10, 25) as u8
}

fn body_op(rng: &mut Rng64) -> BodyOp {
    let op = ALU_OPS[rng.gen_range(0, ALU_OPS.len() as u64) as usize];
    match rng.gen_range(0, 7) {
        0 => BodyOp::Alu(op, reg(rng), reg(rng), reg(rng)),
        1 => BodyOp::AluImm(op, reg(rng), reg(rng), rng.next_u64() as i8),
        2 => BodyOp::LoadStrided(reg(rng), rng.gen_range(0, 4) as u8),
        3 => BodyOp::LoadIndexed(reg(rng), reg(rng)),
        4 => BodyOp::Store(reg(rng)),
        5 => BodyOp::Hammock(CONDS[rng.gen_range(0, 4) as usize], reg(rng), reg(rng)),
        _ => BodyOp::Accumulate(reg(rng), reg(rng)),
    }
}

fn build(ops: &[BodyOp], iters: u64) -> Program {
    let mut b = ProgramBuilder::new("random");
    b.li(1, 0);
    b.li(2, iters as i64);
    b.li(3, (DATA_WORDS * 8 - 1) as i64);
    b.li(4, DATA_BASE as i64);
    b.li(5, OUT_BASE as i64);
    b.li(6, 0);
    let top = b.label_here();
    b.alu(AluOp::And, 7, 6, 3);
    b.alu(AluOp::Add, 7, 7, 4);
    for op in ops {
        match *op {
            BodyOp::Alu(o, d, s1, s2) => {
                b.alu(o, d, s1, s2);
            }
            BodyOp::AluImm(o, d, s, imm) => {
                b.alui(o, d, s, imm as i64);
            }
            BodyOp::LoadStrided(d, word) => {
                b.ld(d, 7, word as i64 * 8);
            }
            BodyOp::LoadIndexed(d, idx) => {
                b.alui(AluOp::Mul, 8, idx, 8);
                b.alu(AluOp::And, 8, 8, 3);
                b.alu(AluOp::Add, 8, 8, 4);
                b.ld(d, 8, 0);
            }
            BodyOp::Store(s) => {
                b.alui(AluOp::Mul, 8, 1, 8);
                b.alui(AluOp::And, 8, 8, (OUT_WORDS * 8 - 1) as i64);
                b.alu(AluOp::Add, 8, 8, 5);
                b.st(s, 8, 0);
            }
            BodyOp::Hammock(c, x, y) => {
                let else_ = b.label();
                let join = b.label();
                b.br(c, x, y, else_);
                b.alui(AluOp::Add, 9, 9, 1);
                b.jmp(join);
                b.bind(else_);
                b.alui(AluOp::Xor, 9, 9, 3);
                b.bind(join);
            }
            BodyOp::Accumulate(d, s) => {
                b.alu(AluOp::Add, d, d, s);
            }
        }
    }
    b.alui(AluOp::Add, 6, 6, 8);
    b.alui(AluOp::Add, 1, 1, 1);
    b.br(Cond::Lt, 1, 2, top);
    b.halt();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_emu::Emulator;

    #[test]
    fn same_seed_same_case_and_every_case_halts() {
        for seed in 0..32 {
            let a = RandomProgram::generate(seed);
            let b = RandomProgram::generate(seed);
            assert_eq!(a.prog.insts, b.prog.insts);
            assert_eq!(
                a.mem.read_words(DATA_BASE, DATA_WORDS as usize),
                b.mem.read_words(DATA_BASE, DATA_WORDS as usize)
            );
            assert!(a.prog.validate().is_ok(), "seed {seed}: invalid targets");
            let mut e = Emulator::new(a.mem.clone());
            e.run(&a.prog, 10_000_000);
            assert!(e.halted, "seed {seed} must halt");
        }
    }
}
