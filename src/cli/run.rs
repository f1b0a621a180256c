//! `cfir run` — run a program on the emulator or the out-of-order
//! core.
//!
//! ```sh
//! cfir run prog.asm --mode ci --insts 100000
//! cfir run prog.asm --emu --trace 20
//! cfir run gzip --mode vect --insts 200000 --emit-json results/run.json
//! ```
//!
//! Options:
//!
//! * `<kernel|prog.asm>` — a paper kernel name or an assembly file;
//! * `--mode scal|wb|ci-iw|ci|vect` — machine variant (default `ci`);
//! * `--emu` — run the functional emulator instead of the OOO core;
//! * `--insts N` — committed-instruction budget (default: run to halt);
//! * `--regs N|inf` — physical register file size (default 512);
//! * `--ports N` — L1D ports (default 1);
//! * `--replicas N` — replicas per vectorized instruction (default 4);
//! * `--trace N` — print the last N committed instructions;
//! * `--pipeview N` — print per-cycle pipeline occupancy for the first
//!   N cycles;
//! * `--pipeview <path>` — record every dynamic instruction's pipeline
//!   lifecycle (stages, wait-edges, replica/reuse/wrong-path fate) and
//!   write a Konata-compatible trace to `path` at the end of the run
//!   (render it with `cfir report timeline <path>`);
//! * `--pipeview-cap N` — retain at most N retired lifecycle records
//!   (ring buffer; default 1M, 0 = unbounded);
//! * `--emit-json [path.json]` — emit the versioned run-statistics
//!   snapshot as a JSON document (with interval time series) instead of
//!   the human-readable summary, to stdout or to the given file;
//! * `--data ADDR=VALUE,...` — pre-initialise data memory words;
//! * `--dump ADDR..ADDR` — print a memory range after the run.

use super::{emit_json, load_program, parse_num, Args};
use cfir::prelude::*;

const USAGE: &str = "\
usage: cfir run <kernel|prog.asm> [--mode scal|wb|ci-iw|ci|vect] [--emu] [--insts N]
                [--regs N|inf] [--ports N] [--replicas N] [--trace N]
                [--pipeview N|path] [--pipeview-cap N]
                [--emit-json [path.json]] [--data ADDR=VAL,...] [--dump LO..HI]
--emit-json emits the versioned statistics snapshot (JSON) instead of the
text summary; give a path ending in .json to write it to a file
(e.g. results/run.json) rather than stdout
--pipeview takes either a cycle count (print occupancy for the first N
cycles) or a file path (record per-instruction lifecycles and write a
Konata trace there; view with `cfir report timeline <path>`)";

const CMD: &str = "cfir run";

pub fn main(args: Vec<String>) {
    let mut a = Args::new(CMD, USAGE, args);
    let mut target: Option<String> = None;
    let mut mode = Mode::Ci;
    let mut emu = false;
    let mut insts = u64::MAX >> 1;
    let mut regs = RegFileSize::Finite(512);
    let mut ports: u32 = 1;
    let mut replicas: u8 = 4;
    let mut trace: usize = 0;
    let mut pipeview: u64 = 0;
    let mut pipeview_path: Option<String> = None;
    let mut pipeview_cap = cfir::obs::lifecycle::DEFAULT_PIPEVIEW_CAP;
    let mut json = false;
    let mut json_path: Option<String> = None;
    let mut data: Vec<(u64, u64)> = Vec::new();
    let mut dump: Option<(u64, u64)> = None;
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--mode" => mode = a.mode(),
            "--emu" => emu = true,
            "--insts" => insts = a.num("--insts"),
            "--regs" => regs = a.regs(),
            "--ports" => ports = a.num("--ports"),
            "--replicas" => replicas = a.num("--replicas"),
            "--trace" => trace = a.num("--trace"),
            "--pipeview" => {
                // A number keeps the legacy occupancy view; anything
                // else is a Konata trace output path.
                let v = a.value("--pipeview");
                match v.parse() {
                    Ok(n) => pipeview = n,
                    Err(_) => pipeview_path = Some(v),
                }
            }
            "--pipeview-cap" => pipeview_cap = a.num("--pipeview-cap"),
            "--emit-json" => {
                json = true;
                json_path = a.json_path();
            }
            "--data" => {
                for kv in a.value("--data").split(',') {
                    let (k, v) = kv
                        .split_once('=')
                        .unwrap_or_else(|| a.fail(&format!("--data wants ADDR=VALUE, got `{kv}`")));
                    data.push((addr(&a, k), addr(&a, v)));
                }
            }
            "--dump" => {
                let r = a.value("--dump");
                let (lo, hi) = r
                    .split_once("..")
                    .unwrap_or_else(|| a.fail(&format!("--dump wants LO..HI, got `{r}`")));
                dump = Some((addr(&a, lo), addr(&a, hi)));
            }
            _ if target.is_none() && !arg.starts_with('-') => target = Some(arg),
            _ => a.unexpected(&arg),
        }
    }
    let target = target.unwrap_or_else(|| a.fail("no program given"));
    let (prog, mut mem) = load_program(CMD, &target);
    for (addr, val) in &data {
        mem.write(*addr, *val);
    }

    if emu {
        let mut emu = Emulator::new(mem);
        let stop = emu.run(&prog, insts);
        println!("emulator: {stop:?} after {} instructions", emu.retired);
        print_regs(|r| emu.reg(r));
        if let Some((lo, hi)) = dump {
            print_mem(&emu.mem, lo, hi);
        }
        return;
    }

    let mut cfg = SimConfig::paper_baseline()
        .with_mode(mode)
        .with_regs(regs)
        .with_dports(ports)
        .with_replicas(replicas)
        .with_max_insts(insts);
    if json {
        // Snapshots carry the interval time series.
        cfg.interval_cycles = 10_000;
    }
    let mut pipe = Pipeline::new(&prog, mem, cfg);
    if trace > 0 {
        pipe.enable_commit_log(trace);
    }
    if let Some(p) = &pipeview_path {
        pipe.enable_pipeview(p, pipeview_cap);
    }
    if pipeview > 0 {
        println!("cycle  fetch-pc  decq  rob(done)  lsq  regs  replicas  srsmt  committed");
        for _ in 0..pipeview {
            pipe.step();
            let s = pipe.snapshot();
            println!(
                "{:5}  {:8}  {:4}  {:4}({:3})  {:3}  {:4}  {:8}  {:5}  {:9}",
                s.cycle,
                s.fetch_pc,
                s.decode_q,
                s.rob,
                s.rob_done,
                s.lsq,
                s.regs_in_use,
                s.replicas_in_flight,
                s.srsmt_entries,
                s.committed
            );
        }
        println!();
    }
    let exit_reason = pipe.run();
    let s = &pipe.stats;
    if let Some(p) = &pipeview_path {
        eprintln!(
            "[pipeview trace written to {p}: {} records, {} dropped]",
            s.lifecycle_records, s.lifecycle_dropped
        );
    }
    if json {
        emit_json(
            CMD,
            json_path.as_deref(),
            &run_json(&target, mode.label(), s),
        );
    } else {
        println!(
            "{}: {exit_reason:?}  committed={} cycles={} IPC={:.3} mispredict={:.1}% reuse={:.1}%",
            mode.label(),
            s.committed,
            s.cycles,
            s.ipc(),
            s.mispredict_rate() * 100.0,
            s.reuse_fraction() * 100.0,
        );
        print_regs(|r| pipe.arch_reg(r));
    }
    if trace > 0 {
        println!("\nlast {trace} commits:");
        for c in pipe.commit_log() {
            println!(
                "  [{:>8}] seq {:>8} pc {:>5} {:28} = {:#x}{}",
                c.cycle,
                c.seq,
                c.pc,
                c.inst.to_string(),
                c.value,
                if c.reused { "  (reused)" } else { "" }
            );
        }
    }
    if let Some((lo, hi)) = dump {
        print_mem(pipe.memory(), lo, hi);
    }
}

fn addr(a: &Args, s: &str) -> u64 {
    parse_num(s).unwrap_or_else(|| a.fail(&format!("bad address `{s}`")))
}

fn print_regs(read: impl Fn(u8) -> u64) {
    println!("non-zero registers:");
    for r in 1..64u8 {
        let v = read(r);
        if v != 0 {
            println!("  r{r:<2} = {v:#x} ({v})");
        }
    }
}

fn print_mem(mem: &MemImage, lo: u64, hi: u64) {
    println!("memory [{lo:#x}..{hi:#x}):");
    let mut a = lo & !7;
    while a < hi {
        println!("  {a:#08x}: {:#018x}", mem.read(a));
        a += 8;
    }
}
