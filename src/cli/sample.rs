//! `cfir sample` — checkpointed statistical sampling: run a kernel (or
//! an assembled program) under SMARTS-style systematic sampling, or
//! replay one saved checkpoint as a detailed window.
//!
//! ```sh
//! # Sampled run of a named kernel over a 1.5M-instruction budget.
//! cfir sample gzip --insts 1500000 --period 50000 --warmup 3500 --window 4000
//!
//! # Same, persisting every window checkpoint for later replay.
//! cfir sample gzip --insts 1500000 --ckpt-dir /tmp/ckpts
//!
//! # Replay one checkpoint as an independent detailed window.
//! cfir sample replay /tmp/ckpts/<id>.ckpt gzip --warmup 3500 --window 4000
//! ```
//!
//! Options (sampled run):
//!
//! * `<kernel|prog.asm>` — a paper kernel name (`cfir sample --list`)
//!   or an assembly file;
//! * `--mode scal|wb|ci-iw|ci|vect` — machine variant (default `ci`);
//! * `--insts N` — total instruction budget (default 1\_500\_000);
//! * `--period N` / `--warmup N` / `--window N` — sampling unit:
//!   one detailed window of `window` instructions per `period`,
//!   preceded by `warmup` detailed (unmeasured) instructions
//!   (defaults 50\_000 / 3\_500 / 4\_000);
//! * `--max-windows N` — stop after N windows (0 = no cap);
//! * `--jitter N` — max forward shift per window, derived
//!   deterministically from checkpoint content (default 0);
//! * `--ckpt-dir DIR` — persist each window's checkpoint to DIR;
//! * `--regs N|inf` — physical register file size (default 512);
//! * `--emit-json [path.json]` — emit the schema-v7 snapshot (with
//!   the `sampling` object) instead of the table;
//! * `--full` — run the same budget fully detailed instead of sampled
//!   (the reference for accuracy/speedup comparisons).

use super::{emit_json, input_fail, load_program, Args};
use cfir::prelude::*;
use cfir_sample::{replay_window, run_sampled, Checkpoint, SamplingConfig};

const USAGE: &str = "\
usage: cfir sample <kernel|prog.asm> [--mode scal|wb|ci-iw|ci|vect] [--insts N]
                   [--period N] [--warmup N] [--window N] [--max-windows N]
                   [--jitter N] [--ckpt-dir DIR] [--regs N|inf]
                   [--emit-json [path.json]] [--full]
       cfir sample replay <file.ckpt> <kernel|prog.asm> [--mode ...]
                   [--warmup N] [--window N] [--regs N|inf]
       cfir sample --list
one detailed window of --window instructions is measured per --period,
after --warmup detailed warmup instructions; everything in between runs
on the functional emulator with predictor/cache warming.
`replay` re-executes a single saved checkpoint as a detailed window.";

const CMD: &str = "cfir sample";

/// The options a sampled run and a replay share.
struct Common {
    target: Option<String>,
    mode: Mode,
    regs: RegFileSize,
    scfg: SamplingConfig,
}

impl Common {
    fn new() -> Common {
        Common {
            target: None,
            mode: Mode::Ci,
            regs: RegFileSize::Finite(512),
            scfg: SamplingConfig::default(),
        }
    }

    /// Consume `arg` if it is a shared option or the positional target.
    fn parse(&mut self, a: &mut Args, arg: &str) -> bool {
        match arg {
            "--mode" => self.mode = a.mode(),
            "--warmup" => self.scfg.warmup = a.num("--warmup"),
            "--window" => self.scfg.window = a.num("--window"),
            "--regs" => self.regs = a.regs(),
            _ if self.target.is_none() && !arg.starts_with('-') => {
                self.target = Some(arg.to_string())
            }
            _ => return false,
        }
        true
    }

    /// The loaded target program, its memory image and display name.
    fn load(&self, a: &Args) -> (Program, MemImage, String) {
        let target = self
            .target
            .as_deref()
            .unwrap_or_else(|| a.fail("no kernel or program given"));
        let (prog, mem) = load_program(CMD, target);
        let name = if target.ends_with(".asm") {
            std::path::Path::new(target)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("prog")
        } else {
            target
        };
        (prog, mem, name.to_string())
    }
}

pub fn main(args: Vec<String>) {
    let mut a = Args::new(CMD, USAGE, args);
    match a.peek() {
        Some("--list") => {
            for n in cfir::workloads::NAMES {
                println!("{n}");
            }
            return;
        }
        Some("replay") => {
            a.next();
            return replay(a);
        }
        _ => {}
    }

    let mut c = Common::new();
    let mut insts = 1_500_000;
    let mut full = false;
    let mut json = false;
    let mut json_path: Option<String> = None;
    while let Some(arg) = a.next() {
        if c.parse(&mut a, &arg) {
            continue;
        }
        match arg.as_str() {
            "--insts" => insts = a.num("--insts"),
            "--full" => full = true,
            "--period" => c.scfg.period = a.num("--period"),
            "--max-windows" => c.scfg.max_windows = a.num("--max-windows"),
            "--jitter" => c.scfg.jitter = a.num("--jitter"),
            "--ckpt-dir" => c.scfg.checkpoint_dir = Some(a.value("--ckpt-dir").into()),
            "--emit-json" => {
                json = true;
                json_path = a.json_path();
            }
            _ => a.unexpected(&arg),
        }
    }
    let s = &c.scfg;
    if s.period < s.warmup + s.window + s.jitter {
        a.fail(&format!(
            "invalid sampling unit: period {} < warmup {} + window {} + jitter {}",
            s.period, s.warmup, s.window, s.jitter
        ));
    }

    let (prog, mem, name) = c.load(&a);
    let cfg = SimConfig::paper_baseline()
        .with_mode(c.mode)
        .with_regs(c.regs)
        .with_max_insts(insts);

    if full {
        // Reference mode for speedup measurements: the identical
        // budget, every instruction through the detailed pipeline.
        let mut p = Pipeline::new(&prog, mem, cfg);
        let halted = matches!(p.run(), RunExit::Halted);
        if json {
            let doc = run_json(&name, c.mode.label(), &p.stats);
            emit_json(CMD, json_path.as_deref(), &doc);
        } else {
            println!(
                "{name} ({}) — full detailed run{}",
                c.mode.label(),
                if halted { " (halted)" } else { "" }
            );
            println!(
                "  committed {}  cycles {}  ipc {:.4}  reuse {:.4}",
                p.stats.committed,
                p.stats.cycles,
                p.stats.ipc(),
                p.stats.reuse_fraction()
            );
        }
        return;
    }

    let s = run_sampled(&prog, &mem, &name, cfg, c.scfg);

    if json {
        emit_json(CMD, json_path.as_deref(), &s.snapshot_json(c.mode.label()));
        return;
    }

    println!(
        "{name} ({}) — sampled: period {} / warmup {} / window {}",
        c.mode.label(),
        s.period,
        s.warmup,
        s.window
    );
    println!(
        "budget {} insts: {} fast-forwarded, {} detailed ({} measured), {} windows{}",
        insts,
        s.ff_insts,
        s.detailed_insts,
        s.measured_insts,
        s.windows.len(),
        if s.halted { ", halted" } else { "" }
    );
    println!("  window  start_inst        checkpoint  committed  cycles    ipc   reuse  ci_expl");
    for (k, w) in s.windows.iter().enumerate() {
        println!(
            "  {k:6}  {:10}  {:016x}  {:9}  {:6}  {:5.3}  {:6.4}  {:7.4}",
            w.start_inst,
            w.checkpoint_id,
            w.committed,
            w.cycles,
            w.ipc,
            w.reuse_rate,
            w.ci_exploited
        );
    }
    let pm = |e: &cfir_sample::Estimate| format!("{:.4} ± {:.4} (n={})", e.mean, e.half_width, e.n);
    println!("  IPC          {}", pm(&s.ipc));
    println!("  reuse rate   {}", pm(&s.reuse_rate));
    println!("  CI exploited {}", pm(&s.ci_exploited));
}

fn replay(mut a: Args) {
    let ckpt_path = a.value("replay");
    let mut c = Common::new();
    while let Some(arg) = a.next() {
        if !c.parse(&mut a, &arg) {
            a.unexpected(&arg);
        }
    }
    let (prog, _mem, name) = c.load(&a);
    let ckpt = Checkpoint::load(std::path::Path::new(&ckpt_path))
        .unwrap_or_else(|e| input_fail(CMD, &format!("cannot load checkpoint {ckpt_path}: {e}")));
    let cfg = SimConfig::paper_baseline()
        .with_mode(c.mode)
        .with_regs(c.regs);
    let rep = replay_window(&prog, &ckpt, &cfg, c.scfg.warmup, c.scfg.window);
    println!(
        "{name} ({}) — replayed checkpoint {:016x} @ inst {}",
        c.mode.label(),
        ckpt.content_id(),
        ckpt.retired
    );
    println!(
        "  warmup committed {}  measured committed {}  cycles {}{}",
        rep.warmup_committed,
        rep.row.committed,
        rep.row.cycles,
        if rep.halted { "  (halted)" } else { "" }
    );
    println!(
        "  ipc {:.4}  reuse {:.4}  ci_exploited {:.4}",
        rep.row.ipc, rep.row.reuse_rate, rep.row.ci_exploited
    );
}
