//! `cfir` — the command-line front end of the reproduction.
//!
//! ```sh
//! cfir run prog.asm --mode ci --emit-json     # one program on the core
//! cfir sample gzip --insts 1500000            # checkpointed sampling
//! cfir report check old.json new.json         # inspect / diff / gate
//! cfir analyze --all --check                  # static CFG analysis
//! cfir stress 500                             # random co-simulation
//! cfir suite --profile smoke --jobs 2         # the evaluation matrix
//! ```
//!
//! `cfir <command> --help` prints a command's usage. See [`cli`] for
//! the exit codes every command shares.

mod cli;

const USAGE: &str = "\
usage: cfir <command> [args..]
commands:
  run      run a kernel or an assembly file on the emulator or the core
  sample   checkpointed statistical sampling, and checkpoint replay
  report   inspect, diff and gate JSON snapshots; render pipeview traces
  analyze  static CFG / post-dominator analysis and lint gate
  stress   random-program co-simulation against the emulator
  suite    run experiments of the evaluation matrix (figures, tables, ...)
`cfir <command> --help` prints the command's usage";

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next();
    let rest: Vec<String> = args.collect();
    match cmd.as_deref() {
        Some("run") => cli::run::main(rest),
        Some("sample") => cli::sample::main(rest),
        Some("report") => cli::report::main(rest),
        Some("analyze") => cli::analyze::main(rest),
        Some("stress") => cli::stress::main(rest),
        Some("suite") => cli::suite::main(rest),
        Some(other) if !other.starts_with('-') => {
            eprintln!("cfir: unknown command `{other}`\n{USAGE}");
            std::process::exit(2)
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2)
        }
    }
}
