//! Plumbing shared by every `cfir` subcommand: an argument cursor with
//! the common value parsers, kernel-or-assembly program loading, and
//! the `--emit-json [path.json]` writer.
//!
//! Exit codes are the same in every subcommand: 2 when the command
//! cannot start (unknown flag, malformed value, unknown kernel,
//! unreadable input), 1 when it ran and failed (a gate, a regression,
//! a divergence, an output file that cannot be written), 0 otherwise.

pub mod analyze;
pub mod report;
pub mod run;
pub mod sample;
pub mod stress;
pub mod suite;

use cfir::prelude::*;
use std::path::Path;
use std::process::exit;
use std::str::FromStr;

/// One subcommand's arguments, consumed front to back. Every parse
/// failure prints the subcommand's usage text and exits 2.
pub struct Args {
    name: &'static str,
    usage: &'static str,
    it: std::iter::Peekable<std::vec::IntoIter<String>>,
}

impl Args {
    /// `name` prefixes error messages (`cfir run`); `usage` is printed
    /// after them.
    pub fn new(name: &'static str, usage: &'static str, args: Vec<String>) -> Args {
        Args {
            name,
            usage,
            it: args.into_iter().peekable(),
        }
    }

    /// The next raw argument.
    pub fn next(&mut self) -> Option<String> {
        self.it.next()
    }

    /// The next raw argument, without consuming it.
    pub fn peek(&mut self) -> Option<&str> {
        self.it.peek().map(String::as_str)
    }

    /// Print `msg` and the usage text; exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.name, self.usage);
        exit(2)
    }

    /// Reject an argument the subcommand does not take.
    pub fn unexpected(&self, arg: &str) -> ! {
        match arg {
            "--help" | "-h" => {
                eprintln!("{}", self.usage);
                exit(2)
            }
            _ if arg.starts_with('-') => self.fail(&format!("unknown flag {arg}")),
            _ => self.fail(&format!("unexpected argument `{arg}`")),
        }
    }

    /// The value that must follow `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        self.next()
            .unwrap_or_else(|| self.fail(&format!("{flag} wants a value")))
    }

    /// A value parsed with `parse`; `what` names the expected form.
    pub fn parsed<T>(&mut self, flag: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> T {
        let v = self.value(flag);
        parse(&v).unwrap_or_else(|| self.fail(&format!("{flag} wants {what}, got `{v}`")))
    }

    /// A decimal number.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> T {
        self.parsed(flag, "a number", |v| v.parse().ok())
    }

    /// `--mode scal|wb|ci-iw|ci|vect`.
    pub fn mode(&mut self) -> Mode {
        self.parsed("--mode", "scal|wb|ci-iw|ci|vect", Mode::from_label)
    }

    /// `--regs N|inf`.
    pub fn regs(&mut self) -> RegFileSize {
        self.parsed("--regs", "N|inf", parse_regs)
    }

    /// The optional output path after `--emit-json`: the next argument
    /// iff it ends in `.json`, so a positional argument is never
    /// swallowed.
    pub fn json_path(&mut self) -> Option<String> {
        match self.peek() {
            Some(p) if p.ends_with(".json") => self.next(),
            _ => None,
        }
    }
}

/// A register-file size: a count, or `inf`.
pub fn parse_regs(s: &str) -> Option<RegFileSize> {
    match s {
        "inf" => Some(RegFileSize::Infinite),
        n => n.parse().ok().map(RegFileSize::Finite),
    }
}

/// A decimal or `0x`-prefixed hexadecimal number.
pub fn parse_num(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(h) => u64::from_str_radix(h, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Print `msg` and exit 2: an input the command cannot use.
pub fn input_fail(cmd: &str, msg: &str) -> ! {
    eprintln!("{cmd}: {msg}");
    exit(2)
}

/// A paper kernel (default workload parameters) by name, or an
/// assembly file when `target` ends in `.asm`. Exits 2 when neither
/// can be loaded.
pub fn load_program(cmd: &str, target: &str) -> (Program, MemImage) {
    if target.ends_with(".asm") {
        let src = std::fs::read_to_string(target)
            .unwrap_or_else(|e| input_fail(cmd, &format!("cannot read {target}: {e}")));
        let prog =
            assemble(target, &src).unwrap_or_else(|e| input_fail(cmd, &format!("{target}: {e}")));
        return (prog, MemImage::new());
    }
    match by_name(target, WorkloadSpec::default()) {
        Some(w) => (w.prog, w.mem),
        None => input_fail(
            cmd,
            &format!(
                "unknown kernel {target:?} (known: {}; assembly files end in .asm)",
                cfir::workloads::NAMES.join(", ")
            ),
        ),
    }
}

/// Write `contents` to `path`, creating missing parent directories.
/// Exits 1, naming the path, when that fails.
pub fn write_file(cmd: &str, path: &str, contents: &str) {
    let made = Path::new(path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all);
    if let Err(e) = made.and_then(|()| std::fs::write(path, contents)) {
        eprintln!("{cmd}: cannot write {path}: {e}");
        exit(1)
    }
}

/// The `--emit-json [path.json]` writer: the document goes to `path`
/// (see [`write_file`]), or to stdout when no path was given.
pub fn emit_json(cmd: &str, path: Option<&str>, doc: &str) {
    match path {
        Some(p) => {
            write_file(cmd, p, doc);
            eprintln!("[json written to {p}]");
        }
        None => println!("{doc}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_parsers() {
        assert_eq!(parse_regs("inf"), Some(RegFileSize::Infinite));
        assert_eq!(parse_regs("256"), Some(RegFileSize::Finite(256)));
        assert_eq!(parse_regs("x"), None);
        assert_eq!(parse_num("0x10"), Some(16));
        assert_eq!(parse_num("10"), Some(10));
        assert_eq!(parse_num("0xg"), None);
    }

    #[test]
    fn json_path_never_swallows_a_positional() {
        let mut a = Args::new("t", "", vec!["prog.asm".into(), "out.json".into()]);
        assert_eq!(a.json_path(), None);
        assert_eq!(a.next().as_deref(), Some("prog.asm"));
        assert_eq!(a.json_path().as_deref(), Some("out.json"));
    }
}
